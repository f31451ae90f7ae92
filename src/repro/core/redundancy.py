"""Recursively redundant predicates (Theorem 3.3) and their removal.

Section 3's `buys` example shows why redundancy matters for one-sidedness:

    buys(X, Y) :- likes(X, Y), cheap(Y).
    buys(X, Y) :- knows(X, W), buys(W, Y), cheap(Y).

is two-sided, but the `cheap(Y)` instance of the recursive rule is
*recursively redundant* — removing it yields an equivalent, one-sided
recursion that the evaluation schema of Section 4 can handle.

This module provides both halves of that story:

* :func:`recursively_redundant_predicates` — the structural criterion of
  Theorem 3.3 (the component of the full A/V graph containing the predicate
  has no nonzero-weight cycle through a nondistinguished variable node), and
* :func:`remove_recursively_redundant` — a *sound* removal procedure: an atom
  is dropped from the recursive rule only when an inductive syntactic check
  proves it is implied by the recursive subgoal in every rule of the program
  (this is the situation in the `buys` example, where the exit rule
  re-establishes `cheap(Y)` for every derived tuple).  The full optimization
  algorithm of [Nau89b] is strictly more powerful; the check implemented here
  covers the cases the paper itself uses and never changes the defined
  relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..datalog.atoms import Atom
from ..datalog.errors import ProgramError
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant, Term, Variable, is_variable
from ..avgraph.build import ArgNode, VarNode, build_full_av_graph
from ..avgraph.cycles import analyze_components, simple_cycles


# ----------------------------------------------------------------------
# Theorem 3.3: structural detection
# ----------------------------------------------------------------------
def is_recursively_redundant(program: Program, predicate: str, body_predicate: str) -> bool:
    """Theorem 3.3 for one nonrecursive predicate of the recursive rule.

    ``body_predicate`` is recursively redundant iff the component of the full
    A/V graph containing its argument nodes has **no** simple cycle of nonzero
    weight passing through a nondistinguished-variable node.  (The cycle must
    be a genuine cycle of the graph, not an arbitrary closed walk: a predicate
    such as ``a`` in ``t(X, Y) :- a(X, W), t(X, Y)`` hangs off the weight-1
    loop through ``X`` without being *on* any nonzero cycle, and is indeed
    recursively redundant — every proof needs only one ``a`` tuple.)

    The theorem is stated for recursive rules without repeated nonrecursive
    predicates; a :class:`ProgramError` is raised when that assumption fails.
    """
    rule = program.linear_recursive_rule(predicate)
    if rule.has_repeated_nonrecursive_predicates():
        raise ProgramError(
            "Theorem 3.3 requires a recursive rule without repeated nonrecursive predicates"
        )
    if body_predicate == predicate:
        raise ProgramError("the recursive predicate itself cannot be recursively redundant")
    if body_predicate not in {atom.predicate for atom in rule.nonrecursive_atoms()}:
        raise ProgramError(f"{body_predicate} does not appear in the recursive rule {rule}")

    graph = build_full_av_graph(rule)
    distinguished = set(rule.head_variables())
    target_component = None
    for component in analyze_components(graph):
        if any(
            isinstance(node, ArgNode) and node.predicate == body_predicate
            for node in component.nodes
        ):
            target_component = component
            break
    if target_component is None:
        # A 0-ary predicate (or one whose arguments are all constants) has no
        # argument node at all; no tuple of t ever depends on more than one of
        # its facts, so it is trivially recursively redundant.
        return True

    for cycle_nodes, weight in simple_cycles(graph):
        if weight == 0:
            continue
        if not cycle_nodes <= target_component.nodes:
            continue
        if any(
            isinstance(node, VarNode) and node.variable not in distinguished
            for node in cycle_nodes
        ):
            return False
    return True


def recursively_redundant_predicates(program: Program, predicate: str) -> List[str]:
    """All nonrecursive predicates of the recursive rule that Theorem 3.3 flags."""
    rule = program.linear_recursive_rule(predicate)
    names: List[str] = []
    for atom in rule.nonrecursive_atoms():
        if atom.predicate in names:
            continue
        if is_recursively_redundant(program, predicate, atom.predicate):
            names.append(atom.predicate)
    return names


# ----------------------------------------------------------------------
# Sound removal: the [Nau89b]-style optimization used by the paper's examples
# ----------------------------------------------------------------------
def _position_map(atom: Atom, recursive_atom: Atom) -> Optional[Dict[Variable, int]]:
    """Map each variable of ``atom`` to a position of the recursive body atom.

    Returns ``None`` when some variable of ``atom`` does not occur in the
    recursive atom — in that case the inductive-implication argument below
    does not apply.
    """
    mapping: Dict[Variable, int] = {}
    for variable in atom.variable_set():
        positions = recursive_atom.positions_of(variable)
        if not positions:
            return None
        mapping[variable] = positions[0]
    return mapping


def _instantiate_condition(atom: Atom, position_map: Dict[Variable, int], arguments: Tuple[Term, ...]) -> Atom:
    """The condition ``atom`` expressed over the arguments of a t-instance."""
    new_args: List[Term] = []
    for arg in atom.args:
        if is_variable(arg):
            new_args.append(arguments[position_map[arg]])
        else:
            new_args.append(arg)
    return Atom(atom.predicate, tuple(new_args))


def implied_by_recursive_atom(program: Program, predicate: str, atom: Atom) -> bool:
    """Inductive check: every tuple of ``predicate`` satisfies ``atom``.

    ``atom`` must be a nonrecursive atom of the recursive rule whose variables
    all occur in the recursive body atom.  The check proves, by induction on
    derivations in the program *with the atom removed*, that the condition
    holds of every derived tuple — which is exactly what makes removing the
    atom from the recursive rule an equivalence-preserving rewrite.
    """
    recursive_rule = program.linear_recursive_rule(predicate)
    recursive_atom = recursive_rule.recursive_atom()
    position_map = _position_map(atom, recursive_atom)
    if position_map is None:
        return False

    for rule in program.rules_for(predicate):
        body = list(rule.body)
        if rule is recursive_rule or rule == recursive_rule:
            # the candidate occurrence itself must not be used to justify the claim
            body = [b for b in body if b != atom] + [b for b in body if b == atom][1:]
        required = _instantiate_condition(atom, position_map, rule.head.args)
        available: Set[Atom] = set(body)
        if rule.is_recursive():
            for recursive_occurrence in rule.recursive_atoms():
                available.add(
                    _instantiate_condition(atom, position_map, recursive_occurrence.args)
                )
        if required not in available:
            return False
    return True


@dataclass(frozen=True)
class RedundancyRemoval:
    """Result of :func:`remove_recursively_redundant` (read-only: optimizer results share it)."""

    #: the original program
    original: Program
    #: the optimized program (identical when nothing was removable)
    optimized: Program
    #: the atoms removed from the recursive rule, in removal order
    removed: Tuple[Atom, ...] = ()
    #: nonrecursive predicates Theorem 3.3 flags as recursively redundant
    theorem_3_3_candidates: Tuple[str, ...] = ()

    @property
    def changed(self) -> bool:
        """``True`` when at least one atom was removed."""
        return bool(self.removed)


def remove_recursively_redundant(program: Program, predicate: str) -> RedundancyRemoval:
    """Remove provably redundant atoms from the recursive rule of ``predicate``.

    Exact duplicate atoms are removed first; then every nonrecursive atom that
    (a) Theorem 3.3 marks as recursively redundant and (b) passes the
    inductive implication check is dropped.  The returned program defines the
    same relation for ``predicate`` as the input program.
    """
    original = program
    rule = program.linear_recursive_rule(predicate)
    removed: List[Atom] = []

    # exact duplicates within the recursive rule body
    deduplicated: List[Atom] = []
    for atom in rule.body:
        if atom in deduplicated and atom.predicate != predicate:
            removed.append(atom)
            continue
        deduplicated.append(atom)
    if removed:
        new_rule = Rule(rule.head, tuple(deduplicated))
        program = program.replace_rule(rule, new_rule)
        rule = new_rule

    try:
        candidates = recursively_redundant_predicates(program, predicate)
    except ProgramError:
        candidates = []

    changed = True
    while changed:
        changed = False
        rule = program.linear_recursive_rule(predicate)
        for atom in rule.nonrecursive_atoms():
            structurally_redundant = True
            try:
                structurally_redundant = is_recursively_redundant(program, predicate, atom.predicate)
            except ProgramError:
                structurally_redundant = True  # fall back to the semantic check alone
            if not structurally_redundant:
                continue
            if not implied_by_recursive_atom(program, predicate, atom):
                continue
            body = list(rule.body)
            body.remove(atom)
            new_rule = Rule(rule.head, tuple(body))
            program = program.replace_rule(rule, new_rule)
            removed.append(atom)
            changed = True
            break

    return RedundancyRemoval(
        original=original,
        optimized=program,
        removed=tuple(removed),
        theorem_3_3_candidates=tuple(candidates),
    )
