"""E12 — when does the one-sided machinery pay off?  Selectivity and size sweep.

The paper's motivation (Section 1, Section 4): selections on one-sided
recursions should be answered by the specialized algorithms because they
restrict the tuples examined to the part of the database the selection
reaches.  This experiment sweeps two dimensions the paper's argument depends
on:

* **reach** — how much of the database the query constant actually reaches
  (from a few nodes to essentially everything), locating the point where the
  one-sided schema stops being cheaper than full semi-naive evaluation, in
  tuples examined and in best-of-5 wall-clock time (gated: wherever the
  schema examines fewer tuples it must also finish sooner); and
* **number of queries** — how many single-constant selections can be answered
  with the one-sided schema before simply materializing the whole relation
  once (and selecting from it repeatedly) becomes the better plan.

Counting-without-counts and magic sets are swept alongside as the baselines
Section 4 names.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines import counting_without_counts_query, magic_query
from repro.core import one_sided_query
from repro.engine import SelectionQuery, seminaive_evaluate, seminaive_query
from repro.workloads import chain, edge_database, transitive_closure, uniform_tree
from .helpers import attach, emit, run_once

PROGRAM = transitive_closure()

# A forest of disjoint binary trees: the query constant's reach is one tree,
# so picking how many trees there are sets the selectivity.
TREES = 16
TREE_DEPTH = 5


def forest_database():
    edges = []
    for index in range(TREES):
        offset = index * 10_000
        edges.extend((offset + parent, offset + child) for parent, child in uniform_tree(2, TREE_DEPTH))
    return edge_database(edges)


#: wall-clock columns are the best of this many runs
WALL_RUNS = 5


def best_wall_ms(run) -> float:
    """Best-of-``WALL_RUNS`` wall-clock milliseconds of ``run()``."""
    best = float("inf")
    for _ in range(WALL_RUNS):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def reach_sweep_rows():
    """Sweep the fraction of the database one query reaches by merging trees."""
    rows = []
    database = forest_database()
    total_edges = len(database.relation("a"))
    # bridge the roots of the first k trees so the query reaches k trees
    for reachable_trees in (1, 2, 4, 8, 16):
        bridged = database.copy()
        for index in range(reachable_trees - 1):
            bridged.add_fact("a", (index * 10_000, (index + 1) * 10_000))
            bridged.add_fact("b", (index * 10_000, (index + 1) * 10_000))
        query = SelectionQuery.of("t", 2, {0: 0})
        schema = one_sided_query(PROGRAM, bridged, query)
        _ref, semi = seminaive_query(PROGRAM, bridged, "t", {0: 0})
        magic = magic_query(PROGRAM, bridged, query)
        rows.append(
            [
                f"{reachable_trees}/{TREES} trees reachable",
                len(schema.answers),
                schema.stats.tuples_examined,
                magic.stats.tuples_examined,
                semi.tuples_examined,
                round(semi.tuples_examined / max(1, schema.stats.tuples_examined), 1),
                round(best_wall_ms(lambda: one_sided_query(PROGRAM, bridged, query)), 3),
                round(best_wall_ms(lambda: seminaive_query(PROGRAM, bridged, "t", {0: 0})), 3),
            ]
        )
    return rows, total_edges


def test_e12_reach_sweep(benchmark):
    rows, total_edges = run_once(benchmark, reach_sweep_rows)
    emit(
        f"E12a: one query, increasing reach (forest of {TREES} trees, {total_edges} edges)",
        ["reach", "answers", "schema tuples", "magic tuples", "semi-naive tuples", "semi/schema ratio",
         f"schema ms (best of {WALL_RUNS})", f"semi-naive ms (best of {WALL_RUNS})"],
        rows,
    )
    ratios = [row[5] for row in rows]
    assert ratios[0] > 5  # narrow queries win big
    assert ratios == sorted(ratios, reverse=True)  # the advantage shrinks as reach grows
    assert ratios[-1] >= 0.5  # even at full reach the schema is not catastrophically worse
    # the paper's promise in wall-clock time: examining fewer tuples must
    # also mean finishing sooner
    slower = [
        f"{row[0]}: schema {row[6]} ms vs semi-naive {row[7]} ms"
        for row in rows
        if row[2] < row[4] and row[6] >= row[7]
    ]
    assert not slower, "schema examines fewer tuples but runs slower: " + "; ".join(slower)
    attach(
        benchmark,
        best_ratio=ratios[0],
        worst_ratio=ratios[-1],
        wall_speedup_narrowest=round(rows[0][7] / rows[0][6], 2),
        wall_speedup_widest=round(rows[-1][7] / rows[-1][6], 2),
    )


def amortization_rows():
    """How many distinct selections before materializing everything wins?"""
    database = forest_database()
    roots = [index * 10_000 for index in range(TREES)]

    # cost of materializing the whole relation once
    from repro.engine import EvaluationStats

    stats = EvaluationStats()
    seminaive_evaluate(PROGRAM, database, stats)
    materialize_cost = stats.tuples_examined

    per_query_costs = []
    for root in roots:
        result = one_sided_query(PROGRAM, database, SelectionQuery.of("t", 2, {0: root}))
        per_query_costs.append(result.stats.tuples_examined)
    average_query_cost = sum(per_query_costs) / len(per_query_costs)

    rows = []
    for queries in (1, 2, 4, 8, 16):
        schema_total = average_query_cost * queries
        rows.append([queries, round(schema_total), materialize_cost,
                     "schema" if schema_total < materialize_cost else "materialize"])
    return rows, average_query_cost, materialize_cost


def test_e12_amortization_sweep(benchmark):
    rows, average_query_cost, materialize_cost = run_once(benchmark, amortization_rows)
    emit(
        "E12b: N single-constant queries via the schema vs materializing t once",
        ["queries", "schema total tuples", "materialize-once tuples", "winner"],
        rows,
    )
    assert rows[0][3] == "schema"  # a single selection never justifies materializing everything
    crossover = materialize_cost / average_query_cost
    print(f"  crossover at roughly {crossover:.1f} queries "
          f"(each query touches ~1/{TREES} of the data)")
    attach(benchmark, crossover_queries=round(crossover, 1))
    assert crossover > 4


@pytest.mark.parametrize("strategy", ["one-sided", "counting-without-counts", "magic", "seminaive"])
def test_e12_single_query_strategies(benchmark, strategy):
    """Wall-clock comparison of the strategies on one narrow query over the forest."""
    database = forest_database()
    query = SelectionQuery.of("t", 2, {0: 0})

    def run():
        if strategy == "one-sided":
            return one_sided_query(PROGRAM, database, query).answers
        if strategy == "counting-without-counts":
            return counting_without_counts_query(PROGRAM, database, query).answers
        if strategy == "magic":
            return magic_query(PROGRAM, database, query).answers
        answers, _ = seminaive_query(PROGRAM, database, "t", {0: 0})
        return answers

    answers = run_once(benchmark, run)
    reference, _ = seminaive_query(PROGRAM, database, "t", {0: 0})
    assert answers == reference
    attach(benchmark, answers=len(answers))


def test_e12_long_chain_scaling(benchmark):
    """Scaling in the depth of the recursion rather than the breadth of the data."""
    def build():
        rows = []
        for length in (100, 400, 1600):
            database = edge_database(chain(length))
            query = SelectionQuery.of("t", 2, {0: 0})
            schema = one_sided_query(PROGRAM, database, query)
            rows.append([length, schema.stats.tuples_examined, schema.stats.iterations,
                         schema.stats.peak_state_tuples])
        return rows

    rows = run_once(benchmark, build)
    emit(
        "E12c: recursion depth scaling (single chain, query at the head)",
        ["chain length", "tuples examined", "iterations", "peak state"],
        rows,
    )
    # work grows linearly with the depth, never quadratically
    assert rows[-1][1] <= 2 * rows[-1][0] + 10
    attach(benchmark, deepest=rows[-1][0])
