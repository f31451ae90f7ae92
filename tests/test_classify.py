"""Tests for Theorem 3.1 detection (:mod:`repro.core.classify`)."""

from __future__ import annotations

import functools
import importlib
from dataclasses import FrozenInstanceError

import pytest

from repro.core import classify, is_one_sided, one_sided_component, structural_sidedness
from repro.datalog import ProgramError, parse_program
from repro.workloads import (
    appendix_a_p,
    buys_optimized,
    buys_unoptimized,
    canonical_two_sided,
    example_3_4,
    example_3_5,
    nonlinear_tc,
    same_generation,
    tc_with_permissions,
    transitive_closure,
)


class TestTheorem31OnPaperExamples:
    """Example 3.6 walks through exactly these classifications."""

    @pytest.mark.parametrize(
        "factory, predicate, expected",
        [
            (transitive_closure, "t", True),
            (example_3_4, "t", True),
            (tc_with_permissions, "t", True),
            (buys_optimized, "buys", True),
            (same_generation, "sg", False),
            (example_3_5, "t", False),
            (canonical_two_sided, "t", False),
            (buys_unoptimized, "buys", False),
        ],
    )
    def test_is_one_sided(self, factory, predicate, expected):
        assert is_one_sided(factory(), predicate) is expected

    def test_same_generation_reason_mentions_two_components(self):
        report = classify(same_generation(), "sg")
        assert len(report.nonzero_cycle_components) == 2
        assert "2 components" in report.reason()

    def test_example_3_5_reason_mentions_cycle_weight(self):
        report = classify(example_3_5(), "t")
        assert report.cycle_weights == [2]
        assert "2" in report.reason()

    def test_transitive_closure_report(self):
        report = classify(transitive_closure(), "t")
        assert report.is_one_sided
        assert not report.is_bounded_looking
        assert report.sidedness == 1
        assert "one-sided" in str(report)

    def test_one_sided_component_exposes_the_side(self):
        component = one_sided_component(transitive_closure(), "t")
        assert component is not None
        assert component.cycle_gcd == 1
        assert one_sided_component(same_generation(), "sg") is None


class TestStructuralSidedness:
    @pytest.mark.parametrize(
        "factory, predicate, expected",
        [
            (transitive_closure, "t", 1),
            (same_generation, "sg", 2),
            (canonical_two_sided, "t", 2),
            (example_3_5, "t", 2),
            (example_3_4, "t", 1),
            (appendix_a_p, "p", 1),
        ],
    )
    def test_counts(self, factory, predicate, expected):
        assert structural_sidedness(factory(), predicate) == expected

    def test_bounded_looking_recursion(self):
        program = parse_program(
            """
            t(X, Y) :- marker(X), t(X, Y).
            t(X, Y) :- base(X, Y).
            """
        )
        report = classify(program, "t")
        # the only cycle is the weight-1 loop through X; the marker's component
        # still has it, so the recursion registers one unbounded set of
        # (identical) marker atoms — sidedness 1, not bounded-looking.
        assert report.sidedness == 1

    def test_truly_cycle_free_rule_is_bounded_looking(self):
        program = parse_program(
            """
            t(X, Y) :- a(W, V), t(X, Y).
            t(X, Y) :- base(X, Y).
            """
        )
        report = classify(program, "t")
        assert report.is_bounded_looking
        assert report.sidedness == 0
        assert not report.is_one_sided


class TestScopeChecks:
    def test_rejects_nonlinear_rules(self):
        with pytest.raises(ProgramError):
            classify(nonlinear_tc(), "t")

    def test_rejects_multiple_recursive_rules(self):
        program = parse_program(
            """
            t(X, Y) :- a(X, Z), t(Z, Y).
            t(X, Y) :- c(X, Z), t(Z, Y).
            t(X, Y) :- b(X, Y).
            """
        )
        with pytest.raises(ProgramError):
            classify(program, "t")

    def test_rejects_unknown_predicate(self):
        with pytest.raises(ProgramError):
            classify(transitive_closure(), "missing")

    def test_rejects_mutual_recursion(self):
        program = parse_program(
            """
            t(X, Y) :- s(X, Y).
            s(X, Y) :- a(X, Z), t(Z, Y).
            s(X, Y) :- b(X, Y).
            t(X, Y) :- b(X, Y).
            """
        )
        with pytest.raises(ProgramError):
            classify(program, "t")


class TestClassifyMemo:
    """classify() analyzes each recursive rule once and shares a read-only report."""

    def test_second_classify_builds_no_graph(self, monkeypatch):
        module = importlib.import_module("repro.core.classify")
        built = []
        original = module.build_full_av_graph
        monkeypatch.setattr(
            module, "build_full_av_graph", lambda rule: built.append(rule) or original(rule)
        )
        program = transitive_closure(edge="cm_e", base="cm_b", predicate="cm_t")
        first = classify(program, "cm_t")
        assert len(built) == 1
        assert classify(program, "cm_t") is first
        assert len(built) == 1

    def test_program_errors_are_raised_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ProgramError):
                classify(nonlinear_tc(), "t")

    def test_the_memo_is_a_bounded_lru(self, monkeypatch):
        module = importlib.import_module("repro.core.classify")
        assert module._classify_rule.cache_info().maxsize == module.CLASSIFY_MEMO_SIZE
        small = functools.lru_cache(maxsize=2)(module._classify_rule.__wrapped__)
        monkeypatch.setattr(module, "_classify_rule", small)
        programs = [
            transitive_closure(edge=f"cb{index}_e", base=f"cb{index}_b", predicate=f"cb{index}_t")
            for index in range(4)
        ]
        reports = [classify(program, f"cb{index}_t") for index, program in enumerate(programs)]
        assert small.cache_info().currsize == 2
        assert classify(programs[3], "cb3_t") is reports[3]
        assert classify(programs[0], "cb0_t") is not reports[0]  # the oldest was evicted
        assert small.cache_info().currsize == 2


class TestSharedResultsAreReadOnly:
    """A caller cannot change another query's provenance or verdict through a shared result."""

    def test_provenance_and_report_reject_mutation(self):
        from repro import Database, answer

        program = transitive_closure(edge="ro_e", base="ro_b", predicate="ro_t")
        database = Database.from_dict({"ro_e": [(1, 2), (2, 3)], "ro_b": [(1, 2), (2, 3)]})
        provenance = answer(program, database, "ro_t(1, Y)?").provenance
        described = provenance.describe()
        report = provenance.report
        component = report.nonzero_cycle_components[0]

        attempts = [
            lambda: setattr(provenance, "one_sided", False),
            lambda: provenance.notes.append("forged"),
            lambda: provenance.rewrites.append(None),
            lambda: setattr(provenance.rewrites[0], "fired", True),
            lambda: provenance.redundancy.theorem_3_3_candidates.append("ro_e"),
            lambda: setattr(report, "components", ()),
            lambda: report.components.append(component),
            lambda: setattr(component, "cycle_gcd", 2),
            lambda: component.nodes.clear(),
            lambda: component.potentials.clear(),
        ]
        for attempt in attempts:
            with pytest.raises((FrozenInstanceError, AttributeError, TypeError)):
                attempt()

        again = answer(program, database, "ro_t(2, Y)?")
        assert again.provenance is provenance
        assert again.provenance.one_sided
        assert again.provenance.describe() == described
        assert classify(program, "ro_t").is_one_sided
        assert again.answers == {(2, 3)}

    def test_detection_outcome_notes_are_the_callers_own(self):
        from repro.core import detect_one_sided

        program = transitive_closure(edge="rd_e", base="rd_b", predicate="rd_t")
        outcome = detect_one_sided(program, "rd_t")
        notes = list(outcome.notes)
        outcome.notes.append("forged")
        assert detect_one_sided(program, "rd_t").notes == notes
