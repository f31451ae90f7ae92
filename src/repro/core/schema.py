"""The general evaluation schema for selections on one-sided recursions (Figure 9).

Figure 9 of the paper is a schema::

    1) init carry;   2) init seen;   3) init ans;
    4) while carry not empty do
    5)     carry := f(carry);
    6)     carry := carry - seen;
    7)     seen  := seen ∪ carry;
    8) endwhile;
    9) ans := g(seen);

"The initialisation, the arities of carry, seen, and ans, and the operators
f and g are determined by the given recursion and query."  This module is that
determination: :class:`OneSidedSchema` compiles a single-linear-rule recursion
plus a ``column = constant`` selection into a concrete instance of the schema
and runs it.

Compilation
-----------
Write the recursive rule as ``t(H1..Hn) :- body, t(A1..An)``.  A head position
``i`` is **invariant** when ``Ai`` is the same variable as ``Hi`` (the value is
passed unchanged down the recursion, so a selection constant on that column
reaches the exit rule); every other position is **linking**.

* If every selected column is invariant, the strings are evaluated from the
  exit end toward the head (the Figure 7 / Aho–Ullman direction): ``carry``
  holds derived ``t``-tuples with the constant columns projected away, ``f``
  applies the recursive rule "backwards" (bind the recursive call to a carry
  tuple, join the nonrecursive body atoms, emit the head), and ``g`` re-attaches
  the constants.
* Otherwise the strings are evaluated from the head end toward the exit (the
  Figure 8 / Henschen–Naqvi direction): ``carry`` holds the argument tuple of
  the recursive call reachable from the selection (plus the level-0 values of
  any free non-invariant output columns), ``f`` pushes those bindings through
  the nonrecursive body atoms, and ``g`` joins the reachable call tuples with
  the exit rules.

The ``carry − seen`` step is sound here for exactly the reason Section 4
gives: the transition depends only on the carry tuple, so a state reached
twice contributes nothing new (Lemma 4.1 is the special case of a unary
carry).  The schema is *applicable* to any linear recursion — but only for
one-sided recursions does the carry stay small and do the lookups stay
restricted, which is what the benchmarks measure; pass
``require_one_sided=False`` to run it on a many-sided recursion anyway (e.g.
to reproduce the Section 4 cross-product discussion).

Execution
---------
Each ``f`` and ``g`` is a rule body applied to a batch of rows — the carry,
``seen``, or the single empty row of an initialisation — with some of its
variables bound from each row: the recursive call's arguments, the head
columns a forward carry holds, the selection constants, and (as extra bound
slots passed through untouched) the remembered level-0 columns.  The
binding is worked out once per recursion and selection shape (constant or
repeated call arguments become equality checks on the row), the body is
compiled once per binding shape with :func:`~repro.engine.compile.compile_rule`
into a module-level :class:`~repro.engine.compile.PlanCache`, and every
application is one batch call of the plan's generated kernel — so each pass
of ``while carry not empty`` is one kernel call, not a re-planned join per
carry tuple.  Selection constants travel as bound-slot values, never as
compiled-in constants, so point selections reuse the plans of earlier
queries.  The accounting is that of evaluating each carry tuple on its own:
one restricted probe per bound row per body atom, and no lookup for walking
the carry itself, which keeps the Figure 7/8 lookup pins.
``REPRO_KERNELS=off`` runs the same plans through the interpreted step
machine.

A forward call argument that nothing binds (not the body, not the selection,
not the level above) is carried as ``None``, "any value"; such rows run plans
compiled with that column unbound.  When that variable also fills another
column of the recursive call the equality cannot be carried, and the schema
refuses the query with :class:`EvaluationError`.  The exit rules bind the
call tuple column by column, so a head that repeats a variable constrains
only recursive derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.errors import EvaluationError, NotOneSidedError, ProgramError
from ..datalog.relation import Relation, Row
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant, Variable, is_variable
from ..engine.compile import CompiledRule, PlanCache
from ..engine.cq_eval import plan_order
from ..engine.instrumentation import EvaluationStats
from ..engine.query import QueryResult, SelectionQuery
from .classify import classify

BACKWARD = "backward"  # exit-to-head, Figure 7 direction
FORWARD = "forward"  # head-to-exit, Figure 8 direction


@dataclass
class SchemaPlan:
    """The compiled form of Figure 9 for one recursion and one query."""

    predicate: str
    query: SelectionQuery
    recursive_rule: Rule
    exit_rules: List[Rule]
    head_vars: List[Variable]
    call_args: List
    invariant_positions: Tuple[int, ...]
    direction: str
    #: columns carried between iterations (everything except the statically
    #: constant columns); the carry arity of the compiled algorithm
    carried_positions: Tuple[int, ...]
    #: free non-invariant head positions whose level-0 value must be remembered
    #: alongside the carry in the forward direction
    remembered_positions: Tuple[int, ...] = ()

    @property
    def carry_arity(self) -> int:
        """Number of columns the carry/seen relations hold (Property 2)."""
        return len(self.carried_positions) + len(self.remembered_positions)

    def describe(self) -> str:
        """A short human-readable account of the compiled plan."""
        invariant = ", ".join(str(i) for i in self.invariant_positions) or "none"
        return (
            f"{self.query}: direction={self.direction}, invariant columns=[{invariant}], "
            f"carry arity={self.carry_arity} (original arity {self.query.arity})"
        )


class OneSidedSchema:
    """Compile and run the Figure 9 schema for one recursion and one selection."""

    def __init__(
        self,
        program: Program,
        predicate: str,
        query: SelectionQuery,
        require_one_sided: bool = True,
    ) -> None:
        if query.predicate != predicate:
            raise EvaluationError(
                f"query {query} does not match the compiled predicate {predicate}"
            )
        self.program = program
        self.predicate = predicate
        self.query = query

        if require_one_sided:
            report = classify(program, predicate)
            if not report.is_one_sided and not report.is_bounded_looking:
                raise NotOneSidedError(
                    f"{predicate} is not one-sided ({report.reason()}); "
                    "pass require_one_sided=False to run the schema anyway"
                )

        rule = program.linear_recursive_rule(predicate)
        exit_rules = program.exit_rules_for(predicate)
        if not exit_rules:
            raise ProgramError(f"{predicate} has no exit rule")
        if query.arity != rule.head.arity:
            raise EvaluationError(
                f"query {query} has arity {query.arity}, but {predicate} has arity {rule.head.arity}"
            )
        head_vars = list(rule.head.args)
        if not all(is_variable(arg) for arg in head_vars):
            raise ProgramError(
                f"the head of {rule} must contain only variables (paper assumption)"
            )
        call_args = list(rule.recursive_atom().args)

        invariant_positions = tuple(
            i for i in range(len(head_vars)) if call_args[i] == head_vars[i]
        )
        bound = set(query.bound_columns())
        if bound and bound <= set(invariant_positions):
            direction = BACKWARD
        elif not bound:
            direction = BACKWARD  # no selection: plain reduced semi-naive on t
        else:
            direction = FORWARD

        if direction == BACKWARD:
            carried = tuple(i for i in range(len(head_vars)) if i not in bound)
            remembered: Tuple[int, ...] = ()
        else:
            nonrecursive_body_vars = set()
            for atom in rule.nonrecursive_atoms():
                nonrecursive_body_vars |= atom.variable_set()

            def carried_forward(position: int) -> bool:
                if position in bound and position in invariant_positions:
                    return False  # statically equal to the selection constant
                if position in invariant_positions and position not in bound:
                    # the value is only determined at the exit; carry it only when the
                    # nonrecursive body constrains it (e.g. the permission predicate of
                    # Example 4.1) or another head column repeats its variable,
                    # otherwise drop the column — this is the arity reduction of the
                    # canonical case.
                    variable = head_vars[position]
                    return variable in nonrecursive_body_vars or head_vars.count(variable) > 1
                return True

            carried = tuple(i for i in range(len(head_vars)) if carried_forward(i))
            remembered = tuple(
                i
                for i in range(len(head_vars))
                if i not in bound and i not in invariant_positions
            )

        if direction == FORWARD:
            nonrecursive_vars = set()
            for atom in rule.nonrecursive_atoms():
                nonrecursive_vars |= atom.variable_set()
            for position in remembered:
                head_term = head_vars[position]
                if is_variable(head_term) and head_term not in nonrecursive_vars:
                    raise EvaluationError(
                        f"output column {position} of {predicate} is not connected to the "
                        "nonrecursive body of the recursive rule; the Figure 9 schema cannot "
                        "carry its value from the selection end of the strings"
                    )

        self.plan = SchemaPlan(
            predicate=predicate,
            query=query,
            recursive_rule=rule,
            exit_rules=list(exit_rules),
            head_vars=head_vars,
            call_args=call_args,
            invariant_positions=invariant_positions,
            direction=direction,
            carried_positions=carried,
            remembered_positions=remembered,
        )
        if direction == FORWARD and any(
            call_args.count(call_args[p]) > 1 for p in _nullable_positions(self.plan)
        ):
            # a column carried as "any value" would lose its equality with the
            # other columns of the recursive call holding the same variable
            raise EvaluationError(
                f"a variable nothing binds fills several columns of the recursive call "
                f"of {rule}; the Figure 9 schema cannot carry their equality"
            )
        self.subsidiary_program = self._collect_subsidiary_program()

    def _collect_subsidiary_program(self) -> Optional[Program]:
        """The rules for IDB predicates the recursion reads (e.g. an IDB exit layer).

        The schema evaluates the recursion's strings against stored relations,
        but an exit rule (or a nonrecursive body atom) may reference a
        predicate defined by *other* rules of the program — the cross-product
        exit layer of Section 4 is the canonical example.  Those subsidiary
        predicates are materialized with one semi-naive pass before the schema
        runs; without this the schema would silently read them as empty.

        Raises :class:`ProgramError` when a subsidiary predicate depends back
        on the schema's own predicate (mutual recursion), which the
        single-linear-rule machinery cannot evaluate.
        """
        idb = self.program.idb_predicates()
        needed: Set[str] = set()
        frontier = {
            atom.predicate
            for rule in self.program.rules_for(self.predicate)
            for atom in rule.body
        }
        while frontier:
            name = frontier.pop()
            if name == self.predicate or name in needed or name not in idb:
                continue
            needed.add(name)
            for rule in self.program.rules_for(name):
                frontier.update(atom.predicate for atom in rule.body)
        if not needed:
            return None
        for name in sorted(needed):
            for rule in self.program.rules_for(name):
                if self.predicate in rule.body_predicates():
                    raise ProgramError(
                        f"{self.predicate} is mutually recursive with {name}; the "
                        "one-sided schema handles a single linear recursion only"
                    )
        rules = [rule for rule in self.program.rules if rule.head.predicate in needed]
        return Program(tuple(rules))

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def run(self, database: Database, stats: Optional[EvaluationStats] = None) -> QueryResult:
        """Evaluate the query over ``database`` and return the answers + stats."""
        stats = stats if stats is not None else EvaluationStats()
        stats.start_timer()
        relations = {relation.name: relation for relation in database.relations()}
        if self.subsidiary_program is not None:
            from ..engine.seminaive import seminaive_evaluate

            # seminaive_evaluate drives the shared timer itself; pause the
            # schema's window around it so no interval is counted twice.
            stats.stop_timer()
            relations.update(seminaive_evaluate(self.subsidiary_program, database, stats))
            stats.start_timer()
        stages = _stages(self.plan)
        run = _Run(relations, tuple(value for _column, value in self.query.bindings), stats)
        if self.plan.direction == BACKWARD:
            answers = self._run_backward(stages, run)
        else:
            answers = self._run_forward(stages, run)
        stats.extra["carry_arity"] = self.plan.carry_arity
        stats.stop_timer()
        return QueryResult(self.query, answers, stats, strategy=f"one-sided-{self.plan.direction}")

    def _saturate(self, step: "_Stage", run: "_Run", carry: Set[Row]) -> Set[Row]:
        """Lines 4-8 of Figure 9 from an initial carry; returns ``seen``.

        Each pass of ``while carry not empty`` is one batch application of
        ``f`` to the whole carry.
        """
        stats = run.stats
        state_columns = max(1, self.plan.carry_arity)
        seen = set(carry)
        stats.record_produced(len(carry))
        stats.record_state(len(seen), len(seen) * state_columns)
        while carry:
            stats.record_iteration()
            carry = step.run(run, carry) - seen
            seen |= carry
            stats.record_produced(len(carry))
            stats.record_state(len(seen) + len(carry), (len(seen) + len(carry)) * state_columns)
        return seen

    # ------------------------------------------------------------------
    # backward direction (Figure 7 generalization)
    # ------------------------------------------------------------------
    def _run_backward(self, stages: "_Stages", run: "_Run") -> Set[Row]:
        # 1-3) init carry, seen, ans: tuples derivable by the exit rules under
        # the selection, projected onto the carried columns; 4-8) apply the
        # recursive rule backwards until the carry empties.
        seen = self._saturate(stages.step, run, stages.init.run(run, _NO_ROW))
        # 9) ans := g(seen): re-attach the selection constants.
        return stages.answer(run, seen)

    # ------------------------------------------------------------------
    # forward direction (Figure 8 generalization)
    # ------------------------------------------------------------------
    def _run_forward(self, stages: "_Stages", run: "_Run") -> Set[Row]:
        # 1-3) init: answer the depth-0 case directly from the exit rules, and
        # push the selection through the nonrecursive body once to obtain the
        # recursive-call bindings reachable in one step; 4-8) push the call
        # bindings one level deeper until the carry empties.
        answers = stages.answer0.run(run, _NO_ROW)
        seen = self._saturate(stages.step, run, stages.init.run(run, _NO_ROW))
        # 9) ans := g(seen): join the reachable call tuples with the exit rules.
        return answers | stages.answer(run, seen)


# ----------------------------------------------------------------------
# compiled schema stages (see "Execution" in the module docstring)
# ----------------------------------------------------------------------


class _Arg(NamedTuple):
    """Where a bound value comes from: ``K[index]`` (a selection constant) or ``row[index]``."""

    constant: bool
    index: int


_Binding = Tuple[Dict[Variable, _Arg], List[Tuple[object, _Arg]]]


class _Run:
    """One evaluation's relations, selection constants and stats, plus the
    plan each step resolved against those relations (planned once per run)."""

    __slots__ = ("relations", "constants", "stats", "plans")

    def __init__(self, relations: Dict[str, Relation], constants: Row, stats: EvaluationStats) -> None:
        self.relations = relations
        self.constants = constants
        self.stats = stats
        self.plans: Dict["_Step", CompiledRule] = {}


#: compiled plans of every schema, shared across queries (and threads)
_PLANS = PlanCache(max_plans=1024)
#: the one row an initialisation step is applied to
_NO_ROW: Tuple[Row, ...] = ((),)


def _bind(pairs: Sequence[Tuple[object, Optional[_Arg]]], checks: Sequence = ()) -> _Binding:
    """Bind terms to value sources consistently, at compile time.

    ``pairs`` are ``(term, source)`` in binding order; a ``None`` source
    leaves the term unbound.  A variable's first source binds it; a repeated
    variable or a constant term becomes an equality check, so a row that
    would bind inconsistently is dropped before any lookup.
    """
    sources: Dict[Variable, _Arg] = {}
    checks = list(checks)
    for term, source in pairs:
        if source is None:
            continue
        if isinstance(term, Constant):
            checks.append((term, source))
        elif term in sources:
            checks.append((sources[term], source))
        else:
            sources[term] = source
    return sources, checks


def _feeder(sources: Sequence[_Arg], checks: Sequence, width: int):
    """A generated ``feed(rows, K)`` building each row's bound-slot tuple.

    Rows failing a ``checks`` equality are dropped; checks that involve no
    row column run once per call.  ``None`` when the rows already are the
    slot tuples.
    """
    if not checks and list(sources) == [_Arg(False, i) for i in range(width)]:
        return None
    env: Dict[str, object] = {}

    def ref(item) -> str:
        if isinstance(item, _Arg):
            return f"{'K' if item.constant else 'r'}[{item.index}]"
        env[f"L{len(env)}"] = item.value
        return f"L{len(env) - 1}"

    def reads_row(check) -> bool:
        return any(isinstance(item, _Arg) and not item.constant for item in check)

    per_call = " and ".join(f"{ref(a)} == {ref(b)}" for a, b in checks if not reads_row((a, b)))
    per_row = " and ".join(f"{ref(a)} == {ref(b)}" for a, b in checks if reads_row((a, b)))
    items = ", ".join(ref(source) for source in sources) + ("," if len(sources) == 1 else "")
    lines = ["def feed(rows, K):"]
    if per_call:
        lines += [f"    if not ({per_call}):", "        return []"]
    lines.append(f"    return [({items}) for r in rows{' if ' + per_row if per_row else ''}]")
    exec("\n".join(lines), env)  # noqa: S102 - the source is generated above
    return env["feed"]


class _Step:
    """One rule body applied to a batch of rows in one compiled-plan call.

    ``output`` is the head the assignments are projected onto.  A term of
    ``require`` (default: ``output``) that neither the row binding nor the
    body determines makes the step yield nothing — the join still runs, so
    its lookups are counted — or, when ``strict``, raise as soon as some
    assignment exists.
    """

    __slots__ = ("rule", "bound", "feed", "complete", "strict")

    def __init__(
        self,
        name: str,
        output: Sequence,
        body: Sequence[Atom],
        binding: _Binding,
        width: int,
        require: Optional[Sequence] = None,
        strict: bool = False,
    ) -> None:
        sources, checks = binding
        body = tuple(body)
        body_vars = set().union(*(atom.variable_set() for atom in body))
        determined = body_vars | set(sources)
        self.complete = all(
            not is_variable(term) or term in determined
            for term in (output if require is None else require)
        )
        self.strict = strict
        needed = body_vars | set(output)
        self.bound = tuple(sorted((v for v in sources if v in needed), key=sources.__getitem__))
        self.rule = Rule(Atom(name, tuple(output)), body)
        self.feed = _feeder([sources[v] for v in self.bound], checks, width)

    def run(self, run: _Run, rows) -> Set[Row]:
        initials = rows if self.feed is None else self.feed(rows, run.constants)
        if not initials:
            return set()
        plan = run.plans.get(self)
        if plan is None:
            # the join order the relations of this run call for (plan_order's
            # size tie-breaks), compiled once per shape across runs
            order = tuple(plan_order(self.rule.body, set(self.bound), run.relations))
            plan = run.plans[self] = _PLANS.get(self.rule, bound=self.bound, order=order)
        if self.complete:
            return plan.evaluate_batch(run.relations, initials, run.stats)
        if plan.join_batch(run.relations, initials, run.stats) and self.strict:
            raise EvaluationError(
                "the recursive rule does not determine every head column "
                "from the recursive call and the nonrecursive body; the "
                "Figure 9 schema cannot evaluate this query"
            )
        return set()


class _Stage:
    """Steps applied to the same rows (one per exit rule, or the body step).

    A *nullable* stage reads carry rows that may hold ``None`` — a
    recursive-call column no binding determines, which matches any value —
    so its rows are grouped by their ``None`` columns and each group runs
    steps compiled with those columns unbound.
    """

    def __init__(self, build: Callable[[FrozenSet[int]], List[_Step]], nullable: bool = False) -> None:
        self._build = build
        self._nullable = nullable
        self._steps: Dict[FrozenSet[int], List[_Step]] = {}

    def _for(self, mask: FrozenSet[int]) -> List[_Step]:
        steps = self._steps.get(mask)
        if steps is None:
            steps = self._steps[mask] = self._build(mask)
        return steps

    def run(self, run: _Run, rows) -> Set[Row]:
        groups = {frozenset(): rows}
        if self._nullable:
            groups = {}
            for row in rows:
                mask = frozenset(i for i, value in enumerate(row) if value is None)
                groups.setdefault(mask, []).append(row)
        results = [
            step.run(run, group)
            for mask, group in groups.items()
            for step in self._for(mask)
        ]
        if len(results) == 1:
            return results[0]
        return set().union(*results)


class _Stages(NamedTuple):
    """A compiled schema: initialisation, the loop's f, and g."""

    init: _Stage
    step: _Stage
    #: g: ``(run, seen) -> answers``
    answer: Callable[[_Run, Set[Row]], Set[Row]]
    #: forward only: the depth-0 answers straight from the exit rules
    answer0: Optional[_Stage] = None


_STAGES: Dict[tuple, _Stages] = {}
_STAGES_LIMIT = 512


def _stages(plan: SchemaPlan) -> _Stages:
    """The compiled stages for ``plan``'s recursion and selection shape (memoized)."""
    key = (plan.recursive_rule, tuple(plan.exit_rules), plan.query.bound_columns())
    stages = _STAGES.get(key)
    if stages is None:
        build = _backward_stages if plan.direction == BACKWARD else _forward_stages
        stages = build(plan)
        if len(_STAGES) >= _STAGES_LIMIT:
            _STAGES.clear()
        _STAGES[key] = stages
    return stages


def _constant_args(plan: SchemaPlan) -> Tuple[Dict[int, _Arg], Dict[int, _Arg]]:
    """The selection constants by column: all of them, and the invariant ones
    (which hold at every depth, so they bind exit-rule instances too)."""
    constant = {column: _Arg(True, k) for k, column in enumerate(plan.query.bound_columns())}
    return constant, {p: arg for p, arg in constant.items() if p in plan.invariant_positions}


def _exit_steps(plan: SchemaPlan, name: str, wanted, output, extra=(), width: int = 0) -> List[_Step]:
    """One step per exit rule: head column ``p`` bound to ``wanted[p]`` (a
    value source, or ``None``), assignments projected by ``output(head args)``.

    The exit rule derives the tuple of the call itself, so its columns bind
    position by position — not through the recursive rule's head variables.
    """
    steps = []
    for exit_rule in plan.exit_rules:
        args = exit_rule.head.args
        binding = _bind(list(zip(args, wanted)) + list(extra))
        steps.append(_Step(name, output(args), exit_rule.body, binding, width, require=args))
    return steps


def _nullable_positions(plan: SchemaPlan) -> Set[int]:
    """Forward carried positions whose call argument nothing may bind at some depth.

    Such a column is carried as ``None`` ("any value"): neither the
    nonrecursive body, nor the selection constants, nor the carried columns
    of the level above determine its variable.
    """
    body_vars = set().union(*(atom.variable_set() for atom in plan.recursive_rule.nonrecursive_atoms()))
    bound = plan.query.bound_columns()
    always = body_vars | {plan.head_vars[p] for p in bound if p in plan.invariant_positions}

    def unbound(known) -> Set[int]:
        return {
            p for p in plan.carried_positions
            if is_variable(plan.call_args[p]) and plan.call_args[p] not in known
        }

    nullable = unbound(body_vars | {plan.head_vars[p] for p in bound})  # from depth 0
    while True:
        known = always | {plan.head_vars[q] for q in plan.carried_positions if q not in nullable}
        grown = nullable | unbound(known)
        if grown == nullable:
            return nullable
        nullable = grown


def _backward_stages(plan: SchemaPlan) -> _Stages:
    call_args, carried = plan.call_args, plan.carried_positions
    # every selected column is invariant here: its constant holds at every depth
    constant, _invariant = _constant_args(plan)
    offsets = {position: offset for offset, position in enumerate(carried)}
    sources = [
        _Arg(False, offsets[p]) if p in offsets else constant[p] for p in range(len(call_args))
    ]

    init = _Stage(lambda mask: _exit_steps(
        plan, "carry", [constant.get(p) for p in range(len(call_args))], lambda args: [args[p] for p in carried]
    ))
    step = _Stage(lambda mask: [
        _Step(
            "carry",
            [plan.head_vars[p] for p in carried],
            plan.recursive_rule.nonrecursive_atoms(),
            _bind(list(zip(call_args, sources))),
            len(carried),
            strict=True,
        )
    ])
    reattach = _feeder(sources, (), len(carried))

    def answer(run: _Run, seen: Set[Row]) -> Set[Row]:
        return seen if reattach is None else set(reattach(seen, run.constants))

    return _Stages(init, step, answer)


def _forward_stages(plan: SchemaPlan) -> _Stages:
    head_vars, carried, remembered = plan.head_vars, plan.carried_positions, plan.remembered_positions
    arity, width = len(head_vars), len(carried) + len(remembered)
    constant, invariant = _constant_args(plan)
    body = plan.recursive_rule.nonrecursive_atoms()
    body_vars = set().union(*(atom.variable_set() for atom in body))
    # rows are the call arguments at the carried positions, then the
    # remembered level-0 values; fresh variables carry the remembered values
    # and the selection constants through a step untouched
    kept = [Variable("$r", p) for p in remembered]
    kept_pairs = [(var, _Arg(False, len(carried) + j)) for j, var in enumerate(kept)]
    calls = [plan.call_args[p] for p in carried]

    def undetermined_as_none(output, binding: _Binding):
        # a call argument nothing binds is carried as None ("any value")
        determined = body_vars | set(binding[0])
        return [t if not is_variable(t) or t in determined else Constant(None) for t in output]

    def call_binding(mask) -> List[Tuple[object, Optional[_Arg]]]:
        return [
            (head_vars[p], None if offset in mask else _Arg(False, offset))
            for offset, p in enumerate(carried)
        ] + [(head_vars[p], arg) for p, arg in invariant.items()]

    level0 = [(head_vars[p], arg) for p, arg in constant.items()]
    answer0 = _Stage(lambda mask: _exit_steps(
        plan, "ans", [constant.get(p) for p in range(arity)], lambda args: args
    ))

    def init_step(mask) -> List[_Step]:
        binding = _bind(level0)
        output = undetermined_as_none(calls + [head_vars[p] for p in remembered], binding)
        return [_Step("carry", output, body, binding, 0)]

    def loop_step(mask) -> List[_Step]:
        binding = _bind(call_binding(mask) + kept_pairs)
        return [_Step("carry", undetermined_as_none(calls + kept, binding), body, binding, width)]

    # an answer row takes the selection constants and the remembered values
    # from the row, every other column from the exit rule's head
    answered = {p: Variable("$q", p) for p in constant}
    final_pairs = [(answered[p], arg) for p, arg in constant.items()] + kept_pairs
    answered.update(zip(remembered, kept))

    def called(mask) -> List[Optional[_Arg]]:
        # the call tuple a seen row stands for, column by column
        offsets = {p: offset for offset, p in enumerate(carried) if offset not in mask}
        return [_Arg(False, offsets[p]) if p in offsets else invariant.get(p) for p in range(arity)]

    nullable = bool(_nullable_positions(plan))
    answer = _Stage(
        lambda mask: _exit_steps(
            plan,
            "ans",
            called(mask),
            lambda args: [answered.get(p, args[p]) for p in range(arity)],
            final_pairs,
            width,
        ),
        nullable,
    )
    return _Stages(_Stage(init_step), _Stage(loop_step, nullable), answer.run, answer0)


def one_sided_query(
    program: Program,
    database: Database,
    query: SelectionQuery,
    require_one_sided: bool = True,
    stats: Optional[EvaluationStats] = None,
) -> QueryResult:
    """Convenience wrapper: compile the Figure 9 schema for ``query`` and run it."""
    schema = OneSidedSchema(program, query.predicate, query, require_one_sided=require_one_sided)
    return schema.run(database, stats)
