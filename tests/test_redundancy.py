"""Tests for Theorem 3.3 detection and the redundancy-removal optimization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    implied_by_recursive_atom,
    is_one_sided,
    is_recursively_redundant,
    recursively_redundant_predicates,
    remove_recursively_redundant,
)
from repro.datalog import Database, ProgramError, parse_atom, parse_program
from repro.engine import seminaive_query
from repro.workloads import (
    buys_database,
    buys_optimized,
    buys_unoptimized,
    canonical_two_sided,
    example_3_4,
    random_pairs,
    same_generation,
    tc_with_permissions,
    transitive_closure,
)


class TestTheorem33Detection:
    def test_buys_cheap_is_redundant_knows_is_not(self):
        program = buys_unoptimized()
        assert is_recursively_redundant(program, "buys", "cheap")
        assert not is_recursively_redundant(program, "buys", "knows")
        assert recursively_redundant_predicates(program, "buys") == ["cheap"]

    def test_transitive_closure_edge_is_not_redundant(self):
        assert recursively_redundant_predicates(transitive_closure(), "t") == []

    def test_example_3_4_d_is_redundant_e_is_not(self):
        program = example_3_4()
        assert is_recursively_redundant(program, "t", "d")
        assert not is_recursively_redundant(program, "t", "e")

    def test_permissions_predicate_is_redundant(self):
        # p(X, Y) touches only distinguished variables, so every proof needs
        # boundedly many p facts per tuple... but p is re-checked at every
        # level, and the cycle through X is nonzero with the nondistinguished
        # Z on it, so p is NOT recursively redundant.
        program = tc_with_permissions()
        assert not is_recursively_redundant(program, "t", "p")

    def test_pendant_predicate_is_redundant(self):
        program = parse_program(
            """
            t(X, Y) :- a(X, W), t(X, Y).
            t(X, Y) :- b(X, Y).
            """
        )
        assert is_recursively_redundant(program, "t", "a")

    def test_rejects_repeated_nonrecursive_predicates(self):
        with pytest.raises(ProgramError):
            is_recursively_redundant(same_generation(), "sg", "p")

    def test_rejects_unknown_body_predicate(self):
        with pytest.raises(ProgramError):
            is_recursively_redundant(transitive_closure(), "t", "zzz")

    def test_rejects_the_recursive_predicate_itself(self):
        with pytest.raises(ProgramError):
            is_recursively_redundant(transitive_closure(), "t", "t")


class TestImpliedByRecursiveAtom:
    def test_cheap_is_implied(self):
        program = buys_unoptimized()
        assert implied_by_recursive_atom(program, "buys", parse_atom("cheap(Y)"))

    def test_knows_is_not_implied(self):
        program = buys_unoptimized()
        assert not implied_by_recursive_atom(program, "buys", parse_atom("knows(X, W)"))

    def test_atom_outside_recursive_call_variables_is_not_implied(self):
        program = canonical_two_sided()
        assert not implied_by_recursive_atom(program, "t", parse_atom("a(X, W)"))

    def test_condition_must_hold_in_every_exit_rule(self):
        program = parse_program(
            """
            t(X, Y) :- likes(X, Y), cheap(Y).
            t(X, Y) :- gift(X, Y).
            t(X, Y) :- knows(X, W), t(W, Y), cheap(Y).
            """
        )
        # the gift exit rule does not establish cheap(Y), so removal is unsound
        assert not implied_by_recursive_atom(program, "t", parse_atom("cheap(Y)"))


class TestRemoval:
    def test_buys_becomes_the_paper_optimized_program(self):
        result = remove_recursively_redundant(buys_unoptimized(), "buys")
        assert result.changed
        assert [str(atom) for atom in result.removed] == ["cheap(Y)"]
        assert result.optimized == buys_optimized()
        assert is_one_sided(result.optimized, "buys")

    def test_nothing_to_remove_returns_same_program(self):
        result = remove_recursively_redundant(transitive_closure(), "t")
        assert not result.changed
        assert result.optimized == result.original

    def test_exact_duplicates_are_removed(self):
        program = parse_program(
            """
            t(X, Y) :- a(X, Z), a(X, Z), t(Z, Y).
            t(X, Y) :- b(X, Y).
            """
        )
        result = remove_recursively_redundant(program, "t")
        assert result.changed
        rule = result.optimized.linear_recursive_rule("t")
        assert [str(a) for a in rule.body].count("a(X, Z)") == 1

    def test_theorem_3_3_candidates_are_reported(self):
        result = remove_recursively_redundant(buys_unoptimized(), "buys")
        assert result.theorem_3_3_candidates == ("cheap",)

    def test_removal_preserves_semantics_on_random_data(self, rng):
        program = buys_unoptimized()
        optimized = remove_recursively_redundant(program, "buys").optimized
        for seed in range(4):
            database = buys_database(people=15, items=10, seed=seed)
            original, _ = seminaive_query(program, database, "buys")
            rewritten, _ = seminaive_query(optimized, database, "buys")
            assert original == rewritten

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_removal_preserves_semantics_property(self, seed):
        program = buys_unoptimized()
        optimized = remove_recursively_redundant(program, "buys").optimized
        rng = random.Random(seed)
        database = Database.from_dict(
            {
                "likes": random_pairs(10, 6, seed=seed) or [(0, 0)],
                "knows": random_pairs(10, 6, seed=seed + 1) or [(0, 1)],
                "cheap": [(value,) for value in range(6) if rng.random() < 0.6] or [(0,)],
            }
        )
        original, _ = seminaive_query(program, database, "buys")
        rewritten, _ = seminaive_query(optimized, database, "buys")
        assert original == rewritten
