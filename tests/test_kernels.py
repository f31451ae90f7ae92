"""Generated join kernels must match the interpreted step machine exactly.

Every assertion here runs the same compiled plan (or whole evaluation) once
with kernels enabled and once with them disabled and demands identical
results *and* identical instrumentation counters — the contract that lets
the codegen path be the default runtime.  Batch calls (many bindings in one
kernel call, as the Figure 9 schema makes them) must also equal one call per
binding.
"""

from __future__ import annotations

import random

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.relation import Relation
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.engine import (
    EvaluationStats,
    compile_delta_variants,
    compile_rule,
    interning_mode,
    kernel_mode,
    kernels_enabled,
    seminaive_evaluate,
    set_kernels_enabled,
)
from repro.engine.kernels import kernel_source
from repro.testing import generate_case
from repro.workloads import ALL_CANONICAL, edge_database, layered_dag


def sample_relations():
    database = edge_database(layered_dag(4, 3, 2, seed=11))
    relations = {r.name: r for r in database.relations()}
    relations["t"] = Relation("t", 2, [(0, 1), (1, 5), (2, 4), (5, 7)])
    return relations


def counters(stats: EvaluationStats) -> dict:
    values = stats.as_dict()
    values.pop("elapsed_seconds", None)
    return values


def evaluate_both_ways(plan, relations, **kwargs):
    """(kernel result, interpreted result, kernel stats, interpreted stats)."""
    kernel_stats = EvaluationStats()
    interpreted_stats = EvaluationStats()
    with kernel_mode(True):
        kernel_result = plan.evaluate(relations, stats=kernel_stats, **kwargs)
    with kernel_mode(False):
        interpreted_result = plan.evaluate(relations, stats=interpreted_stats, **kwargs)
    return kernel_result, interpreted_result, kernel_stats, interpreted_stats


class TestKernelEquivalence:
    def test_matches_interpreted_on_canonical_rules(self):
        relations = sample_relations()
        for name, factory in ALL_CANONICAL.items():
            program = factory()
            for rule in program.rules:
                plan = compile_rule(rule, relations)
                kernel, interpreted, ks, bs = evaluate_both_ways(plan, relations)
                assert kernel == interpreted, f"{name}: {rule}"
                assert counters(ks) == counters(bs), f"{name}: {rule}"

    def test_repeated_variable_within_atom(self):
        rule = Rule(Atom.of("t", "X"), (Atom.of("e", "X", "X"),))
        relations = {"e": Relation("e", 2, [(1, 1), (1, 2), (3, 3)])}
        plan = compile_rule(rule, relations)
        kernel, interpreted, ks, bs = evaluate_both_ways(plan, relations)
        assert kernel == interpreted == {(1,), (3,)}
        assert counters(ks) == counters(bs)

    def test_constants_in_body_and_head(self):
        rule = Rule(Atom.of("t", "X", "fixed"), (Atom.of("e", 1, "X"),))
        relations = {"e": Relation("e", 2, [(1, 10), (2, 20), (1, 30)])}
        plan = compile_rule(rule, relations)
        kernel, interpreted, ks, bs = evaluate_both_ways(plan, relations)
        assert kernel == interpreted == {(10, "fixed"), (30, "fixed")}
        assert counters(ks) == counters(bs)

    def test_multi_column_probe(self):
        # second atom probes two columns at once: key stays a tuple
        rule = Rule(Atom.of("t", "X", "Y"), (Atom.of("e", "X", "Y"), Atom.of("f", "X", "Y")))
        relations = {
            "e": Relation("e", 2, [(1, 2), (3, 4), (5, 6)]),
            "f": Relation("f", 2, [(1, 2), (5, 6), (7, 8)]),
        }
        plan = compile_rule(rule, relations)
        kernel, interpreted, ks, bs = evaluate_both_ways(plan, relations)
        assert kernel == interpreted == {(1, 2), (5, 6)}
        assert counters(ks) == counters(bs)

    def test_bound_variables_and_bindings(self):
        rule = Rule(Atom.of("t", "X", "Y"), (Atom.of("e", "X", "Y"),))
        relations = {"e": Relation("e", 2, [(1, 10), (2, 20)])}
        x = Variable("X")
        plan = compile_rule(rule, relations, bound=(x,))
        kernel, interpreted, ks, bs = evaluate_both_ways(plan, relations, bindings={x: 1})
        assert kernel == interpreted == {(1, 10)}
        assert counters(ks) == counters(bs)
        with kernel_mode(True), pytest.raises(ValueError):
            plan.evaluate(relations)

    def test_delta_override_equivalence(self):
        relations = sample_relations()
        rule = Rule(
            Atom.of("t", "X", "Y"),
            (Atom.of("a", "X", "W"), Atom.of("t", "W", "Y")),
        )
        delta = Relation("t", 2, [(1, 5), (5, 7)])
        for _predicate, occurrence, plan in compile_delta_variants(rule, {"t"}):
            kernel, interpreted, ks, bs = evaluate_both_ways(
                plan, relations, overrides={occurrence: delta}
            )
            assert kernel == interpreted
            assert counters(ks) == counters(bs)

    def test_missing_relation_falls_back_and_records_one_lookup(self):
        rule = Rule(Atom.of("t", "X"), (Atom.of("missing", "X"),))
        plan = compile_rule(rule)
        for enabled in (True, False):
            stats = EvaluationStats()
            with kernel_mode(enabled):
                assert plan.evaluate({}, stats=stats) == set()
            assert stats.lookups == 1

    def test_unproducible_plan_is_empty_in_both_modes(self):
        rule = Rule(Atom.of("t", "X", "Y"), (Atom.of("e", "X", "X"),))
        relations = {"e": Relation("e", 2, [(1, 1)])}
        plan = compile_rule(rule, relations)
        assert not plan.producible
        for enabled in (True, False):
            with kernel_mode(enabled):
                assert plan.evaluate(relations) == set()

    def test_join_multiplicities_match(self):
        # distinct assignments projecting onto the same head carry the
        # multiplicities the counting maintenance layer consumes
        relations = {"e": Relation("e", 2, [(1, 10), (1, 20), (2, 30)])}
        rule = Rule(Atom.of("t", "X"), (Atom.of("e", "X", "Y"),))
        plan = compile_rule(rule, relations)
        with kernel_mode(True):
            kernel = sorted(plan.join(relations))
        with kernel_mode(False):
            interpreted = sorted(plan.join(relations))
        assert kernel == interpreted
        assert len(kernel) == 3  # multiset, not deduplicated


def random_plan_case(seed):
    """A random rule, a random bound-variable subset and a random batch.

    Bodies draw constants (restricted probes on constant keys) and repeated
    variables within one atom (equality checks); the batch holds
    ``initials`` for the bound variables, sometimes none at all.
    """
    rng = random.Random(seed)
    arities = {"e": 2, "f": 3, "g": 1}
    pool = [Variable(name) for name in "XYZUV"]

    def term():
        return Constant(rng.randrange(3)) if rng.random() < 0.2 else rng.choice(pool)

    def atom(name):
        args = [term() for _ in range(arities[name])]
        if len(args) > 1 and rng.random() < 0.3:
            args[-1] = args[0]  # a variable repeated within the atom
        return Atom(name, tuple(args))

    body = tuple(atom(name) for name in rng.choices(sorted(arities), k=rng.randrange(0, 4)))
    bound = tuple(rng.sample(pool, rng.randrange(0, 3)))
    candidates = [v for atom in body for v in atom.variables()] + list(bound)
    head = Atom("h", tuple(rng.choice(candidates) if candidates else Constant(0) for _ in range(2)))
    relations = {
        name: Relation(name, arity, {tuple(rng.randrange(3) for _ in range(arity)) for _ in range(8)})
        for name, arity in arities.items()
    }
    initials = [tuple(rng.randrange(3) for _ in bound) for _ in range(rng.choice([0, 1, 4, 9]))]
    return compile_rule(Rule(head, body), relations, bound=bound), relations, initials


class TestBatchKernels:
    """One batch-kernel call over many bindings == one call per binding."""

    @pytest.mark.parametrize("seed", range(60))
    def test_batch_equals_per_row_calls_and_step_machine(self, seed):
        plan, relations, initials = random_plan_case(seed)
        batch_stats, rows_stats, machine_stats = EvaluationStats(), EvaluationStats(), EvaluationStats()
        with kernel_mode(True):
            batch = plan.join_batch(relations, initials, batch_stats)
            per_row = [
                assignment
                for initial in initials
                for assignment in plan.join_batch(relations, [initial], rows_stats)
            ]
        with kernel_mode(False):
            machine = plan.join_batch(relations, initials, machine_stats)
        assert batch == per_row == machine  # same assignments, same multiplicities
        assert counters(batch_stats) == counters(rows_stats) == counters(machine_stats)
        if plan.producible:
            projected = EvaluationStats()
            with kernel_mode(True):
                heads = plan.evaluate_batch(relations, initials, projected)
            assert heads == {
                tuple(value if is_const else row[value] for is_const, value in plan.head_ops)
                for row in batch
            }
            assert counters(projected) == counters(batch_stats)

    def test_empty_batch_probes_nothing(self):
        rule = Rule(Atom.of("t", "X", "Y"), (Atom.of("e", "X", "Y"),))
        relations = {"e": Relation("e", 2, [(1, 10), (2, 20)])}
        plan = compile_rule(rule, relations, bound=(Variable("X"),))
        for enabled in (True, False):
            stats = EvaluationStats()
            with kernel_mode(enabled):
                assert plan.evaluate_batch(relations, [], stats) == set()
            assert counters(stats) == counters(EvaluationStats())

    def test_empty_body_projects_each_binding(self):
        x, y = Variable("X"), Variable("Y")
        plan = compile_rule(Rule(Atom("t", (y, x)), ()), bound=(x, y))
        for enabled in (True, False):
            stats = EvaluationStats()
            with kernel_mode(enabled):
                assert plan.evaluate_batch({}, [(1, 2), (3, 4), (1, 2)], stats) == {(2, 1), (4, 3)}
            assert stats.lookups == 0

    def test_missing_relation_counts_one_lookup_per_binding(self):
        rule = Rule(Atom.of("t", "X"), (Atom.of("missing", "X"),))
        plan = compile_rule(rule, bound=(Variable("X"),))
        for enabled in (True, False):
            stats = EvaluationStats()
            with kernel_mode(enabled):
                assert plan.evaluate_batch({}, [(1,), (2,), (3,)], stats) == set()
            assert stats.lookups == 3
            assert stats.unrestricted_lookups == 0


class TestFullEvaluationParity:
    @pytest.mark.parametrize("seed", [0, 3, 7, 19, 42])
    def test_seminaive_counters_identical_across_modes(self, seed):
        case = generate_case(seed)
        results = {}
        stats_by_mode = {}
        for mode, kernels, interning in (
            ("interpreted", False, False),
            ("kernel", True, False),
            ("interned", True, True),
        ):
            stats = EvaluationStats()
            with kernel_mode(kernels), interning_mode(interning):
                derived = seminaive_evaluate(case.program, case.database, stats)
            results[mode] = {p: r.rows() for p, r in derived.items()}
            stats_by_mode[mode] = counters(stats)
        assert results["interpreted"] == results["kernel"] == results["interned"]
        assert (
            stats_by_mode["interpreted"]
            == stats_by_mode["kernel"]
            == stats_by_mode["interned"]
        )


class TestSwitches:
    def test_environment_switch(self, monkeypatch):
        set_kernels_enabled(None)
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert kernels_enabled()
        monkeypatch.setenv("REPRO_KERNELS", "off")
        assert not kernels_enabled()
        monkeypatch.setenv("REPRO_KERNELS", "on")
        assert kernels_enabled()

    def test_forced_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "off")
        with kernel_mode(True):
            assert kernels_enabled()
        assert not kernels_enabled()

    def test_kernel_source_is_inspectable(self):
        rule = Rule(Atom.of("t", "X", "Y"), (Atom.of("a", "X", "W"), Atom.of("t", "W", "Y")))
        plan = compile_rule(rule)
        source = kernel_source(plan, project=True)
        assert "def _kernel(rels, initials, stats):" in source
        assert "out_add(" in source
        # the memoized pair is attached to the plan on first use
        join_kernel, eval_kernel = plan.kernels()
        assert plan.kernels()[0] is join_kernel
        assert "def _kernel" in eval_kernel.__kernel_source__
