"""Tests for the pass-based optimizer (:mod:`repro.optimize`)."""

from __future__ import annotations

import importlib

import pytest

from repro.cq.cache import CQCache
from repro.datalog import EvaluationError, parse_program
from repro.engine import SelectionQuery, seminaive_query
from repro.optimize import (
    Optimizer,
    RedundancyRemovalPass,
    apply_unfolding,
    default_passes,
    detection_passes,
    evaluate_unfolded,
    optimize_program,
    unfold_bounded,
)
from repro.workloads import (
    appendix_a_p,
    bounded_guard_tc,
    bounded_swap,
    buys_optimized,
    buys_unoptimized,
    canonical_two_sided,
    nonlinear_tc,
    transitive_closure,
)
from repro.datalog.database import Database


class TestUnfoldBounded:
    def test_guard_recursion_unfolds_to_exit_rule(self):
        definition = unfold_bounded(bounded_guard_tc(), "t")
        assert definition is not None
        assert definition.witness_depth == 1
        assert len(definition.rules) == 1
        assert definition.rules[0].body[0].predicate == "b"

    def test_swap_recursion_unfolds_at_depth_two(self):
        definition = unfold_bounded(bounded_swap(), "t")
        assert definition is not None
        assert definition.witness_depth == 2
        assert len(definition.rules) == 2

    def test_unbounded_recursion_does_not_unfold(self):
        assert unfold_bounded(transitive_closure(), "t", max_depth=4) is None

    def test_nonlinear_recursion_is_out_of_scope(self):
        assert unfold_bounded(nonlinear_tc(), "t") is None

    def test_idb_exit_layer_declines_to_fire(self):
        """Strings that still mention IDB predicates must not be unfolded."""
        program = parse_program(
            """
            pair(X, Y) :- c(X), d(Y).
            t(X, Y) :- pair(X, Y).
            t(X, Y) :- a(X, Y), t(X, Y).
            """
        )
        assert unfold_bounded(program, "t") is None

    def test_unfolded_program_matches_fixpoint_semantics(self):
        program = bounded_swap()
        definition = unfold_bounded(program, "t")
        rewritten = apply_unfolding(program, definition)
        database = Database.from_dict(
            {"a": [(1, 2), (2, 1), (2, 3), (4, 4)], "b": [(1, 2), (2, 1), (3, 4)]}
        )
        reference, _ = seminaive_query(program, database, "t")
        unfolded, _ = seminaive_query(rewritten, database, "t")
        assert unfolded == reference

    def test_evaluate_unfolded_pushes_selection(self):
        program = bounded_swap()
        definition = unfold_bounded(program, "t")
        database = Database.from_dict(
            {"a": [(1, 2), (2, 1), (2, 3)], "b": [(1, 2), (2, 1), (3, 4)]}
        )
        query = SelectionQuery.of("t", 2, {0: 1})
        answers, stats = evaluate_unfolded(definition, database, query)
        reference, _ = seminaive_query(program, database, "t", {0: 1})
        assert answers == reference
        assert stats.plans_compiled == len(definition.rules)
        # the selection is pushed into the joins: no unrestricted scans needed
        assert stats.unrestricted_lookups == 0


class TestOptimizerRuns:
    def test_full_chain_on_bounded_program(self):
        result = optimize_program(appendix_a_p(), "p")
        assert result.uniformly_bounded is True
        assert result.unfolded is not None
        assert "bounded-unfolding" in result.fired()
        assert not result.program.is_recursive_predicate("p")
        # the pre-unfold program is still the recursion the verdicts describe
        assert result.optimized.is_recursive_predicate("p")

    def test_full_chain_on_unbounded_program_skips_witness_search(self):
        result = optimize_program(transitive_closure(), "t")
        assert result.uniformly_bounded is False
        assert result.unfolded is None
        unfolding = [r for r in result.rewrites if r.pass_name == "bounded-unfolding"]
        assert unfolding and "provably unbounded" in unfolding[0].detail

    def test_redundancy_pass_fires_on_buys(self):
        result = optimize_program(buys_unoptimized(), "buys")
        assert "redundancy-removal" in result.fired()
        assert result.optimized == buys_optimized()

    def test_out_of_scope_program_records_every_pass_as_noop(self):
        result = optimize_program(nonlinear_tc(), "t")
        assert result.out_of_scope
        assert result.fired() == []
        assert any("undecidable" in note for note in result.notes)

    def test_describe_lists_one_line_per_pass(self):
        result = optimize_program(canonical_two_sided(), "t")
        lines = result.describe().splitlines()
        assert len(lines) == len(default_passes())

    def test_detection_passes_share_a_private_cache(self):
        cache = CQCache()
        Optimizer(default_passes(), cache).run(bounded_swap(), "t")
        stats = cache.stats()
        assert stats["misses"] > 0
        # a second run over the same program is answered from the cache
        before = cache.stats()["misses"]
        Optimizer(default_passes(), cache).run(bounded_swap(), "t")
        assert cache.stats()["misses"] == before

    def test_redundancy_verification_cross_checks_the_rewrite(self):
        passes = (RedundancyRemovalPass(verify=True),) + detection_passes()[1:]
        result = Optimizer(passes).run(buys_unoptimized(), "buys")
        assert result.optimized == buys_optimized()


class TestCQCache:
    def test_canonical_key_is_renaming_invariant(self):
        from repro.cq.cache import canonical_key
        from repro.cq.strings import ExpansionString
        from repro.datalog import parse_atom
        from repro.datalog.terms import Variable

        x, y = Variable("X"), Variable("Y")
        first = ExpansionString((x,), (parse_atom("a(X, Y)"), parse_atom("a(Y, Z)")))
        second = ExpansionString((x,), (parse_atom("a(X, W)"), parse_atom("a(W, U)")))
        third = ExpansionString((x,), (parse_atom("a(X, Y)"), parse_atom("a(Z, Y)")))
        assert canonical_key(first) == canonical_key(second)
        assert canonical_key(first) != canonical_key(third)
        # freezing a variable pins it by name, distinguishing the strings
        assert canonical_key(first, {y}) != canonical_key(second, {y})

    def test_cached_answers_match_uncached(self):
        from repro.cq.cache import CQCache
        from repro.cq.containment import is_contained_in
        from repro.expansion import expand

        strings = expand(transitive_closure(), "t", 3)
        cache = CQCache()
        for first in strings:
            for second in strings:
                assert cache.is_contained_in(first, second) == is_contained_in(first, second)
        # every pair was asked twice by symmetry of the loop: hits occurred
        assert cache.stats()["hits"] == 0  # distinct (source, target) pairs only
        for first in strings:
            for second in strings:
                cache.is_contained_in(first, second)
        assert cache.stats()["hits"] > 0

    def test_minimize_union_matches_uncached(self):
        from repro.cq.cache import CQCache
        from repro.cq.minimize import minimize_union
        from repro.expansion import expand

        strings = expand(bounded_swap(), "t", 3)
        assert CQCache().minimize_union(strings) == minimize_union(strings)

    def test_lru_eviction_bounds_the_store(self):
        from repro.cq.cache import CQCache
        from repro.expansion import expand

        cache = CQCache(maxsize=2)
        strings = expand(transitive_closure(), "t", 4)
        for first in strings:
            for second in strings:
                cache.is_contained_in(first, second)
        assert cache.stats()["containment_entries"] <= 2
        assert cache.stats()["evictions"] > 0


class TestFrontDoorUnfolded:
    def test_forced_unfolded_on_unbounded_program_raises(self):
        database = Database.from_dict({"a": [(1, 2)], "b": [(2, 3)]})
        with pytest.raises(EvaluationError):
            from repro import answer

            answer(transitive_closure(), database, "t(1, Y)?", strategy="unfolded")

    def test_forced_unfolded_on_bounded_program(self):
        from repro import answer

        database = Database.from_dict({"a": [(1, 2), (2, 1)], "b": [(1, 2), (2, 1), (3, 4)]})
        result = answer(bounded_swap(), database, "t(1, Y)?", strategy="unfolded")
        assert result.strategy == "unfolded"
        reference, _ = seminaive_query(bounded_swap(), database, "t", {0: 1})
        assert result.answers == reference
        assert result.provenance is not None
        assert "bounded-unfolding" in result.provenance.fired()

    def test_forced_unfolded_searches_full_depth_when_boundedness_undecided(self):
        """Repeated nonrecursive predicates leave the structural criterion
        undecided; a forced unfolding must still search ``max_unfold_depth``,
        not the cheaper fallback the auto chain uses."""
        from repro import answer
        from repro.core.boundedness import bounded_prefix_depth

        program = parse_program(
            """
            t(X, Y, Z, W) :- a(X, Y), a(Z, W), t(Y, Z, W, X).
            t(X, Y, Z, W) :- b(X, Y, Z, W).
            """
        )
        assert bounded_prefix_depth(program, "t", 8) == 4
        database = Database.from_dict(
            {"a": [(1, 2), (2, 1)], "b": [(1, 2, 1, 2), (2, 1, 2, 1)]}
        )
        result = answer(
            program, database, SelectionQuery.of("t", 4, {0: 1}), strategy="unfolded"
        )
        assert result.provenance.unfolded.witness_depth == 4
        reference, _ = seminaive_query(program, database, "t", {0: 1})
        assert result.answers == reference
        # the auto chain keeps its cheap fallback: no unfolding at depth 3
        auto = answer(program, database, SelectionQuery.of("t", 4, {0: 1}))
        assert "unfolded" not in auto.strategy
        assert auto.answers == reference


def _unique_tc(tag: str):
    """A transitive closure whose predicate names no other test uses."""
    return transitive_closure(edge=f"{tag}_e", base=f"{tag}_b", predicate=f"{tag}_t")


def _chain_database(tag: str, length: int = 6) -> Database:
    edges = [(node, node + 1) for node in range(length)]
    return Database.from_dict({f"{tag}_e": edges, f"{tag}_b": edges})


class TestOptimizerMemo:
    """Each (program, predicate) is analyzed once; the memo is bounded and thread-safe."""

    def test_second_answer_runs_no_pass(self, monkeypatch):
        from repro import answer
        classify_module = importlib.import_module("repro.core.classify")
        from repro.optimize import passes

        calls = {"redundancy": 0, "graph": 0, "run": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            passes, "remove_recursively_redundant",
            counted("redundancy", passes.remove_recursively_redundant),
        )
        monkeypatch.setattr(
            classify_module, "build_full_av_graph",
            counted("graph", classify_module.build_full_av_graph),
        )
        # the memo lives inside Optimizer.run, so every query still enters it
        monkeypatch.setattr(passes.Optimizer, "run", counted("run", passes.Optimizer.run))
        program, database = _unique_tc("memo_once"), _chain_database("memo_once")

        first = answer(program, database, "memo_once_t(0, Y)?")
        assert calls["redundancy"] > 0 and calls["graph"] > 0
        after_first = dict(calls)
        second = answer(program, database, "memo_once_t(2, Y)?")
        assert calls["redundancy"] == after_first["redundancy"]
        assert calls["graph"] == after_first["graph"]
        assert calls["run"] == after_first["run"] + 1
        assert second.provenance is first.provenance
        assert second.answers == {(2, y) for y in range(3, 7)}

    def test_explain_and_answer_share_one_analysis(self):
        from repro import answer, explain
        from repro.optimize import shared_optimizer

        program, database = _unique_tc("memo_explain"), _chain_database("memo_explain")
        plan = explain(program, "memo_explain_t(1, Y)?", database)
        result = answer(program, database, "memo_explain_t(1, Y)?")
        assert result.provenance is shared_optimizer().run(program, "memo_explain_t")
        assert plan.rewrites == [str(rewrite) for rewrite in result.provenance.rewrites]

    def test_reordered_equal_programs_get_their_own_entries(self):
        from repro.datalog.rules import Program

        program = _unique_tc("memo_order")
        reordered = Program(tuple(reversed(program.rules)))
        assert reordered == program  # Program equality ignores rule order
        optimizer = Optimizer()
        first = optimizer.run(program, "memo_order_t")
        second = optimizer.run(reordered, "memo_order_t")
        assert second is not first
        assert len(optimizer._memo) == 2
        assert first.original.rules == program.rules
        assert second.original.rules == reordered.rules
        assert optimizer.run(program, "memo_order_t") is first

    def test_filling_past_the_bound_evicts_the_oldest(self, monkeypatch):
        from repro.optimize import passes

        assert passes.MEMO_SIZE == 256
        monkeypatch.setattr(passes, "MEMO_SIZE", 3)
        optimizer = Optimizer()
        programs = [_unique_tc(f"memo_bound{index}") for index in range(5)]
        results = []
        for index, program in enumerate(programs):
            results.append(optimizer.run(program, f"memo_bound{index}_t"))
            assert len(optimizer._memo) <= 3
        assert len(optimizer._memo) == 3
        # the two oldest were evicted: a rerun analyzes afresh
        assert optimizer.run(programs[0], "memo_bound0_t") is not results[0]
        # the newest survived: a rerun is a hit
        assert optimizer.run(programs[4], "memo_bound4_t") is results[4]
        assert len(optimizer._memo) == 3

    def test_program_errors_are_not_memoized(self):
        from repro.datalog import ProgramError
        from repro.optimize import OptimizationPass

        class Failing(OptimizationPass):
            calls = 0

            def run(self, ctx):
                Failing.calls += 1
                raise ProgramError("always")

        optimizer = Optimizer((Failing(),))
        for expected in (1, 2):
            with pytest.raises(ProgramError):
                optimizer.run(transitive_closure(), "t")
            assert Failing.calls == expected
        assert len(optimizer._memo) == 0

    def test_undefined_predicate_falls_through_to_seminaive_every_call(self):
        from repro import answer

        program, database = _unique_tc("memo_undef"), _chain_database("memo_undef")
        for _ in range(2):
            result = answer(program, database, "memo_undef_missing(1, Y)?")
            assert result.strategy == "seminaive (auto)"
            assert result.answers == set()

    def test_threads_share_the_memo_through_evictions(self, monkeypatch):
        import functools
        import threading

        from repro import answer
        classify_module = importlib.import_module("repro.core.classify")
        from repro.optimize import passes, shared_optimizer

        bound = 4
        monkeypatch.setattr(passes, "MEMO_SIZE", bound)
        monkeypatch.setattr(
            classify_module, "_classify_rule",
            functools.lru_cache(maxsize=bound)(classify_module._classify_rule.__wrapped__),
        )
        tags = [f"memo_thread{index}" for index in range(3 * bound)]
        cases = [(_unique_tc(tag), _chain_database(tag), tag) for tag in tags]
        expected = {
            (tag, start): {(start, end) for end in range(start + 1, 7)}
            for tag in tags
            for start in range(3)
        }
        errors = []
        wrong = []

        def worker(offset: int) -> None:
            try:
                for step in range(24):
                    program, database, tag = cases[(offset + step) % len(cases)]
                    start = (offset + step) % 3
                    result = answer(program, database, f"{tag}_t({start}, Y)?")
                    if result.answers != expected[(tag, start)]:
                        wrong.append((tag, start, result.strategy))
            except Exception as error:  # noqa: BLE001 - surfaced by the assertion below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(index * 5,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert wrong == []
        assert len(shared_optimizer()._memo) <= bound
        assert classify_module._classify_rule.cache_info().currsize <= bound
