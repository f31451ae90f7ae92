"""Tests for the general Figure 9 schema (:mod:`repro.core.schema`)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BACKWARD, FORWARD, OneSidedSchema, one_sided_query
from repro.core.algorithms import aho_ullman_selection, henschen_naqvi_selection
from repro.datalog import Database, EvaluationError, NotOneSidedError
from repro.engine import SelectionQuery, seminaive_query
from repro.workloads import (
    canonical_two_sided,
    edge_database,
    example_3_4,
    example_3_5,
    permissions_database,
    random_graph,
    random_pairs,
    relations_database,
    same_generation_distinct_parents,
    tc_with_permissions,
    transitive_closure,
)


class TestCompilation:
    def test_backward_direction_for_invariant_selection(self, tc_program):
        query = SelectionQuery.of("t", 2, {1: 5})
        schema = OneSidedSchema(tc_program, "t", query)
        assert schema.plan.direction == BACKWARD
        assert schema.plan.invariant_positions == (1,)
        assert schema.plan.carry_arity == 1

    def test_forward_direction_for_linking_selection(self, tc_program):
        query = SelectionQuery.of("t", 2, {0: 5})
        schema = OneSidedSchema(tc_program, "t", query)
        assert schema.plan.direction == FORWARD
        assert schema.plan.carry_arity < 2 + 1  # arity-reduced

    def test_describe_mentions_direction_and_arity(self, tc_program):
        query = SelectionQuery.of("t", 2, {1: 5})
        plan = OneSidedSchema(tc_program, "t", query).plan
        assert "backward" in plan.describe()
        assert "carry arity=1" in plan.describe()

    def test_rejects_many_sided_recursions_by_default(self):
        query = SelectionQuery.of("t", 2, {0: 1})
        with pytest.raises(NotOneSidedError):
            OneSidedSchema(canonical_two_sided(), "t", query)

    def test_require_one_sided_false_allows_many_sided(self):
        query = SelectionQuery.of("t", 2, {0: 1})
        schema = OneSidedSchema(canonical_two_sided(), "t", query, require_one_sided=False)
        assert schema.plan.direction == FORWARD

    def test_rejects_untrackable_output_column(self):
        """Example 3.5's head variable Y never touches the nonrecursive body, so the
        forward schema cannot carry its value and must refuse rather than answer wrongly."""
        query = SelectionQuery.of("t", 2, {0: 1})
        with pytest.raises(EvaluationError):
            OneSidedSchema(example_3_5(), "t", query, require_one_sided=False)

    def test_query_predicate_must_match(self, tc_program):
        query = SelectionQuery.of("s", 2, {0: 1})
        with pytest.raises(EvaluationError):
            OneSidedSchema(tc_program, "t", query)


class TestCanonicalOneSided:
    """The compiled schema agrees with Figures 7/8 and with semi-naive."""

    def test_backward_matches_figure_7(self, chain_db, tc_program):
        query = SelectionQuery.of("t", 2, {1: 100})
        result = one_sided_query(tc_program, chain_db, query)
        expected, _ = aho_ullman_selection(chain_db, 100)
        assert {row[0] for row in result.answers} == expected

    def test_forward_matches_figure_8(self, chain_db, tc_program):
        query = SelectionQuery.of("t", 2, {0: 0})
        result = one_sided_query(tc_program, chain_db, query)
        expected, _ = henschen_naqvi_selection(chain_db, 0)
        assert {row[1] for row in result.answers} == expected

    def test_unconstrained_query_computes_whole_relation(self, tc_program, small_graph_db):
        query = SelectionQuery.of("t", 2, {})
        result = one_sided_query(tc_program, small_graph_db, query)
        reference, _ = seminaive_query(tc_program, small_graph_db, "t")
        assert result.answers == reference

    def test_cyclic_data_terminates(self, tc_program, cyclic_db):
        for column in (0, 1):
            query = SelectionQuery.of("t", 2, {column: 0})
            result = one_sided_query(tc_program, cyclic_db, query)
            reference, _ = seminaive_query(tc_program, cyclic_db, "t", {column: 0})
            assert result.answers == reference

    def test_carry_arity_is_reported(self, tc_program, chain_db):
        result = one_sided_query(tc_program, chain_db, SelectionQuery.of("t", 2, {0: 0}))
        assert result.stats.extra["carry_arity"] == 1

    def test_forward_selection_restricts_lookups(self, tc_program):
        database = edge_database([(i, i + 1) for i in range(50)] + [(100, 101)])
        result = one_sided_query(tc_program, database, SelectionQuery.of("t", 2, {0: 100}))
        assert result.answers == {(100, 101)}
        # only the edges reachable from 100 are ever touched
        assert result.stats.tuples_examined <= 5

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([0, 1]), st.integers(0, 9))
    def test_matches_seminaive_property(self, seed, column, constant):
        database = edge_database(random_pairs(25, 10, seed=seed))
        program = transitive_closure()
        query = SelectionQuery.of("t", 2, {column: constant})
        result = one_sided_query(program, database, query)
        reference, _ = seminaive_query(program, database, "t", {column: constant})
        assert result.answers == reference


class TestOtherOneSidedRecursions:
    def test_permissions_recursion_both_columns(self, rng):
        program = tc_with_permissions()
        database = permissions_database(random_graph(10, 20, seed=5), seed=5)
        for column in (0, 1):
            constant = rng.randrange(10)
            query = SelectionQuery.of("t", 2, {column: constant})
            result = one_sided_query(program, database, query)
            reference, _ = seminaive_query(program, database, "t", {column: constant})
            assert result.answers == reference

    def test_permissions_carry_is_not_arity_reduced(self):
        """Example 4.1: the permission predicate ties both columns together."""
        program = tc_with_permissions()
        query = SelectionQuery.of("t", 2, {0: 1})
        plan = OneSidedSchema(program, "t", query).plan
        assert plan.carry_arity == 2  # no reduction, unlike the canonical case

    def test_example_3_4_all_columns(self, rng):
        program = example_3_4()
        database = relations_database(
            e=random_pairs(20, 8, seed=11),
            d=[(value,) for value in range(5)],
            t0=[(rng.randrange(8), rng.randrange(8), rng.randrange(8)) for _ in range(10)],
        )
        for column in (0, 1, 2):
            constant = rng.randrange(8)
            query = SelectionQuery.of("t", 3, {column: constant})
            result = one_sided_query(program, database, query)
            reference, _ = seminaive_query(program, database, "t", {column: constant})
            assert result.answers == reference

    def test_example_3_4_unrestricted_lookup_on_d(self):
        """Section 4: the disconnected d(Z) forces an unrestricted lookup (Property 3 exception)."""
        program = example_3_4()
        database = relations_database(
            e=[(1, 2), (2, 3)],
            d=[(7,), (8,)],
            t0=[(1, 1, 7)],
        )
        query = SelectionQuery.of("t", 3, {0: 1})
        result = one_sided_query(program, database, query)
        assert result.stats.unrestricted_lookups > 0

    def test_multiple_exit_rules(self):
        from repro.datalog import parse_program

        program = parse_program(
            """
            t(X, Y) :- a(X, Z), t(Z, Y).
            t(X, Y) :- b(X, Y).
            t(X, Y) :- seed(X, Y).
            """
        )
        database = relations_database(a=[(1, 2), (2, 3)], b=[(3, 4)], seed=[(3, 9)])
        query = SelectionQuery.of("t", 2, {0: 1})
        result = one_sided_query(program, database, query)
        reference, _ = seminaive_query(program, database, "t", {0: 1})
        assert result.answers == reference == {(1, 4), (1, 9)}


class TestManySidedWithOverride:
    """Correctness is retained on many-sided recursions, but the paper's properties are lost."""

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000))
    def test_canonical_two_sided_forward_is_correct(self, seed):
        rng = random.Random(seed)
        database = relations_database(
            a=random_pairs(15, 8, seed=seed),
            b=random_pairs(6, 8, seed=seed + 1),
            c=random_pairs(15, 8, seed=seed + 2),
        )
        constant = rng.randrange(8)
        query = SelectionQuery.of("t", 2, {0: constant})
        result = one_sided_query(canonical_two_sided(), database, query, require_one_sided=False)
        reference, _ = seminaive_query(canonical_two_sided(), database, "t", {0: constant})
        assert result.answers == reference

    def test_two_sided_state_is_wider_than_one_sided(self):
        database = relations_database(
            a=random_pairs(20, 8, seed=1),
            b=random_pairs(8, 8, seed=2),
            c=random_pairs(20, 8, seed=3),
        )
        two_sided = one_sided_query(
            canonical_two_sided(), database, SelectionQuery.of("t", 2, {0: 1}), require_one_sided=False
        )
        one_sided = one_sided_query(
            transitive_closure(), database, SelectionQuery.of("t", 2, {0: 1})
        )
        assert two_sided.stats.extra["carry_arity"] > one_sided.stats.extra["carry_arity"]

    def test_distinct_parent_same_generation_is_correct(self):
        database = relations_database(
            up=random_pairs(15, 8, seed=4),
            down=random_pairs(15, 8, seed=5),
            flat=random_pairs(8, 8, seed=6),
        )
        query = SelectionQuery.of("sg", 2, {0: 1})
        result = one_sided_query(
            same_generation_distinct_parents(), database, query, require_one_sided=False
        )
        reference, _ = seminaive_query(same_generation_distinct_parents(), database, "sg", {0: 1})
        assert result.answers == reference


class TestCallArgumentShapes:
    """Constant and repeated arguments in the recursive call or the head."""

    PROGRAMS = {
        # the call repeats a variable the body binds: rows must agree on both columns
        "repeated call variable": """
            t(X, Y) :- a(X, Y), t(Y, Y).
            t(X, Y) :- b(X, Y).
        """,
        # the call holds a constant: only carry rows with that value continue
        "constant call argument": """
            t(X, Y) :- a(X, Y), t(Y, 3).
            t(X, Y) :- b(X, Y).
        """,
        # the head repeats a variable: a depth-0 exit tuple need not, a
        # recursive derivation must, hold equal columns
        "repeated head variable": """
            t(X, X) :- a(X, Z), t(Z, X).
            t(X, Y) :- b(X, Y).
        """,
    }

    @pytest.mark.parametrize("shape", sorted(PROGRAMS))
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_seminaive_with_identical_stats_across_modes(self, shape, seed):
        from repro.datalog import parse_program
        from repro.engine import kernel_mode

        program = parse_program(self.PROGRAMS[shape])
        database = relations_database(
            a=random_pairs(14, 5, seed=seed), b=random_pairs(8, 5, seed=seed + 50)
        )
        for bindings in ({}, {0: seed % 5}, {1: 3}, {0: 3, 1: 3}):
            query = SelectionQuery.of("t", 2, bindings)
            reference, _ = seminaive_query(program, database, "t", bindings)
            outcomes = []
            for enabled in (True, False):
                with kernel_mode(enabled):
                    result = one_sided_query(program, database, query, require_one_sided=False)
                assert result.answers == reference, (shape, query)
                stats = result.stats.as_dict()
                stats.pop("elapsed_seconds")
                outcomes.append(stats)
            assert outcomes[0] == outcomes[1]

    def test_repeated_head_variable_binds_exit_columns_by_position(self):
        from repro.datalog import parse_program

        program = parse_program(
            """
            t(X, X) :- t(Z, X).
            t(3, X) :- c(X).
            """
        )
        database = relations_database(c=[(1,), (4,)])
        query = SelectionQuery.of("t", 2, {0: 4})
        reference, _ = seminaive_query(program, database, "t", {0: 4})
        assert reference == {(4, 4)}
        assert one_sided_query(program, database, query, require_one_sided=False).answers == reference

    def test_unbound_call_variable_in_two_columns_is_refused(self):
        """``t(Z, Z)`` with ``Z`` bound by nothing cannot ride as two
        independent "any value" columns; auto falls back and stays correct."""
        from repro import answer
        from repro.datalog import parse_program

        program = parse_program(
            """
            t(X, Y) :- a(U, X), t(Z, Z), c(Y).
            t(X, Z) :- c(U), d(X, Y, Z).
            """
        )
        database = relations_database(a=[(0, 1)], c=[(2,)], d=[(4, 1, 5)])
        query = SelectionQuery.of("t", 2, {0: 1})
        with pytest.raises(EvaluationError, match="cannot carry their equality"):
            one_sided_query(program, database, query, require_one_sided=False)
        reference, _ = seminaive_query(program, database, "t", {0: 1})
        assert reference == set()  # no t(z, z) exists, so t(1, 2) is not derived
        assert answer(program, database, "t(1, Y)?").answers == reference
