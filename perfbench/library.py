"""The two library workloads: ``point-selections`` and ``deep-reach``.

Both are closed loops with one caller, the way an embedding application
uses the library: ``answer(program, database, text)`` with the default
``strategy="auto"``, the next query sent when the previous one returns.

* ``point-selections`` cycles through six program/database pairs, one of
  each per block of six queries (block order seeded), with seeded constants:
  thousands of distinct small-reach selections, so per-query fixed cost
  (coercion, optimizer analysis, strategy choice, plan set-up) dominates.
* ``deep-reach`` cycles through five large-reach selections, so fixpoint
  execution dominates.  The seed relabels every node, so the data differs by
  seed while the work does not.

``query_tail_ms`` is the geometric mean of every kind's p90 latency (see
:func:`harness.kind_tail`): the latencies of a loop over a few fixed kinds
have one mode per kind, so a percentile of them all would be the median of
the slowest kind.

Answers are checked against semi-naive evaluation plus selection, computed
after the timed window.
"""

from __future__ import annotations

import random
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from harness import Tally, fresh_process_seconds, kind_tail, peak_rss_mb
from metrics import RUNGS
from tracing import Tracer, instrument, layer_totals

from repro import Database, answer, seminaive_evaluate, seminaive_query
from repro.cq.cache import shared_cache
from repro.datalog import ReproError
from repro.datalog.rules import Program
from repro.workloads import (
    bounded_guard_tc,
    bounded_swap,
    canonical_two_sided,
    chain,
    complete_binary_tree,
    nonlinear_tc,
    random_pairs,
    same_generation,
    transitive_closure,
    uniform_tree,
)

Row = Tuple[int, ...]

#: fresh processes timed for ``setup_s``, one at each of this many even
#: intervals of the window (the loop pauses for them): the shared machine's
#: speed drifts over tens of seconds, and set-ups spread over the window
#: follow that drift the way the window's own median does
SETUP_REPEATS = 8
#: untimed rounds (one query of every kind each) before the timed window
WARMUP_ROUNDS = {"point-selections": 20, "deep-reach": 1}
#: the percentile of each kind's latencies that ``query_tail_ms`` is made of.
#: deep-reach: the rung the tail rule picks at seed-state speed (about 150
#: queries a kind in 50 seconds leave 1 each beyond p99).  point-selections:
#: two rungs below the rule's pick (p99.9, about 4,500 queries a kind),
#: because per-kind p99 spread across seeds by 0.19-0.46 of its median in
#: probes and p90 by 0.12-0.13.  Fixed, so a change that completes more
#: queries in the window is still compared at the same percentile.
TAIL_CAP = 90.0
#: timed ``seminaive_query`` calls per deep-reach kind for the comparator
COMPARATOR_REPEATS = 2
#: selections per point-selections kind, and best-of rounds, for ``obs.profile_ratio``
PROFILE_PER_KIND = 3
PROFILE_ROUNDS = 3


@dataclass
class Kind:
    """One program/database pair and the shape of the selections asked of it."""

    name: str
    program: Program
    edb: Dict[str, List[Row]]
    predicate: str
    #: the bound column, or ``None`` for an unbound query
    column: Optional[int]
    #: the constants the stream binds, in seeded order
    constants: List[int] = field(default_factory=list)

    def text(self, constant: Optional[int]) -> str:
        args = ["X", "Y"]
        if self.column is not None:
            args[self.column] = str(constant)
        return f"{self.predicate}({args[0]}, {args[1]})?"

    def database(self) -> Database:
        return Database.from_dict(self.edb)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def forest(trees: int, depth: int) -> List[Row]:
    """``trees`` disjoint binary trees of the given depth."""
    edges: List[Row] = []
    for index in range(trees):
        offset = index * 100_000
        edges.extend((offset + parent, offset + child) for parent, child in uniform_tree(2, depth))
    return edges


def nodes(edges: Sequence[Row]) -> List[int]:
    return sorted({value for edge in edges for value in edge})


def relabel(edges: Sequence[Row], rng: random.Random) -> Tuple[List[Row], Dict[int, int]]:
    """The same graph with every node renamed to a seeded distinct integer."""
    old = nodes(edges)
    new = rng.sample(range(10 * len(old) + 1000), len(old))
    mapping = dict(zip(old, new))
    return [(mapping[a], mapping[b]) for a, b in edges], mapping


def tc_edb(edges: Sequence[Row]) -> Dict[str, List[Row]]:
    return {"a": list(edges), "b": list(edges)}


def parent_edb(edges: Sequence[Row]) -> Dict[str, List[Row]]:
    """Same-generation data: ``p(child, parent)`` and the identity ``sg0``."""
    return {
        "p": [(child, parent) for parent, child in edges],
        "sg0": [(node, node) for node in nodes(edges)],
    }


def two_sided_edb(edges: Sequence[Row]) -> Dict[str, List[Row]]:
    """Down edges ``a``, up edges ``c`` and identity ``b`` for the canonical two-sided recursion."""
    return {
        "a": list(edges),
        "b": [(node, node) for node in nodes(edges)],
        "c": [(child, parent) for parent, child in edges],
    }


def _shuffled(values: Sequence[int], rng: random.Random) -> List[int]:
    values = list(values)
    rng.shuffle(values)
    return values


def point_kinds(seed: int) -> List[Kind]:
    rng = random.Random(f"point-selections/{seed}")
    trees = forest(16, 6)
    tree_nodes = nodes(trees)
    sg_tree = uniform_tree(2, 6)
    swap_a = random_pairs(400, 200, seed=rng.randrange(1 << 30))
    swap_b = random_pairs(400, 200, seed=rng.randrange(1 << 30))
    guard_a = random_pairs(400, 200, seed=rng.randrange(1 << 30))
    guard_b = random_pairs(400, 200, seed=rng.randrange(1 << 30))
    return [
        Kind("tc-forward", transitive_closure(), tc_edb(trees), "t", 0, _shuffled(tree_nodes, rng)),
        Kind("tc-backward", transitive_closure(), tc_edb(trees), "t", 1, _shuffled(tree_nodes, rng)),
        Kind("two-sided", canonical_two_sided(), two_sided_edb(trees), "t", 0, _shuffled(tree_nodes, rng)),
        Kind("same-generation", same_generation(), parent_edb(sg_tree), "sg", 0,
             _shuffled(nodes(sg_tree), rng)),
        Kind("bounded-swap", bounded_swap(), {"a": swap_a, "b": swap_b}, "t", 0,
             _shuffled(range(200), rng)),
        Kind("bounded-guard", bounded_guard_tc(), {"a": guard_a, "b": guard_b}, "t", 0,
             _shuffled(range(200), rng)),
    ]


def deep_kinds(seed: int) -> List[Kind]:
    rng = random.Random(f"deep-reach/{seed}")
    tree, tree_names = relabel(complete_binary_tree(10), rng)
    line, line_names = relabel(chain(600), rng)
    trees, _ = relabel(forest(16, 6), rng)
    short, short_names = relabel(chain(60), rng)
    sg_tree, _ = relabel(uniform_tree(2, 6), rng)
    return [
        Kind("tree-root", transitive_closure(), tc_edb(tree), "t", 0, [tree_names[1]]),
        Kind("chain-head", transitive_closure(), tc_edb(line), "t", 0, [line_names[0]]),
        Kind("forest-unbound", transitive_closure(), tc_edb(trees), "t", None),
        Kind("nonlinear-chain", nonlinear_tc(), tc_edb(short), "t", 0, [short_names[0]]),
        Kind("sg-unbound", same_generation(), parent_edb(sg_tree), "sg", None),
    ]


KINDS = {"point-selections": point_kinds, "deep-reach": deep_kinds}


def stream(kinds: Sequence[Kind], rng: random.Random) -> Iterator[Tuple[int, Optional[int]]]:
    """Endless ``(kind index, constant)``: one query of every kind per block, block order seeded."""
    cursors = [0] * len(kinds)
    order = list(range(len(kinds)))
    while True:
        rng.shuffle(order)
        for index in order:
            kind = kinds[index]
            constant = None
            if kind.column is not None:
                constant = kind.constants[cursors[index] % len(kind.constants)]
                cursors[index] += 1
            yield index, constant


def rung_of(strategy: str) -> str:
    """The ladder rung a result's strategy string names (``"magic-sets (auto)"`` -> ``"magic"``)."""
    head = strategy.split(" ", 1)[0]
    return "magic" if head == "magic-sets" else head


#: what one fresh process times for ``setup_s``: importing the library from
#: source, then building the workload's programs, EDB and databases.  The
#: benchmark's own modules are imported outside the timed parts.
SETUP_CHILD = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, {src!r})
import repro
imported = time.perf_counter() - started
sys.path.insert(0, {here!r})
import library
started = time.perf_counter()
kinds = library.KINDS[{workload!r}]({seed})
databases = [kind.database() for kind in kinds]
print(imported + time.perf_counter() - started)
"""


def setup_seconds(workload: str, seed: int, workdir: str) -> float:
    """Set-up time of one fresh process: a first start, until ready to serve.

    The child imports a fresh copy of the library, made under ``workdir``
    without any ``__pycache__``, so it compiles every library module from
    source whatever bytecode the checkout holds, as a first start from a
    fresh checkout does.  The standard library loads from its installed
    bytecode either way.
    """
    here = Path(__file__).resolve().parent
    with tempfile.TemporaryDirectory(dir=workdir) as fresh:
        shutil.copytree(here.parent / "src" / "repro", Path(fresh) / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code = SETUP_CHILD.format(src=fresh, here=str(here), workload=workload, seed=seed)
        return fresh_process_seconds(code, cwd=str(here.parent))


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
@dataclass
class Observed:
    """Per distinct selection: the first answer and how many later ones differed from it."""

    first: Set[Row]
    count: int = 1
    differed: int = 0


@dataclass
class LoopResult:
    latencies: List[float]
    #: the kind index of each latency
    asked_kinds: List[int]
    elapsed: float
    observed: Dict[Tuple[int, Optional[int]], Observed]
    rungs: Counter
    iterations: int
    tally: Tally


def closed_loop(
    kinds: Sequence[Kind],
    databases: Sequence[Database],
    queries: Iterator[Tuple[int, Optional[int]]],
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    pause: Optional[Callable[[], object]] = None,
    pauses: int = 0,
) -> LoopResult:
    """Ask queries one after another for ``seconds`` (or ``count`` queries).

    With ``pause``, the loop calls it ``pauses`` times at even intervals of
    the ``seconds`` window, the first before any query; the time it takes is
    not part of the window.
    """
    latencies: List[float] = []
    asked_kinds: List[int] = []
    observed: Dict[Tuple[int, Optional[int]], Observed] = {}
    rungs: Counter = Counter()
    iterations = 0
    tally = Tally()
    clock = time.perf_counter
    started = clock()
    deadline = started + seconds if seconds is not None else None
    finished = started
    paused = 0.0
    interval = seconds / pauses if seconds is not None and pauses else 0.0
    next_pause = started if pause is not None and pauses and seconds is not None else None
    asked = 0
    for index, constant in queries:
        if deadline is not None and finished >= deadline:
            break
        if count is not None and asked >= count:
            break
        if next_pause is not None and finished >= next_pause:
            begin = clock()
            pause()
            took = clock() - begin
            paused += took
            deadline += took
            pauses -= 1
            next_pause = next_pause + interval + took if pauses else None
        asked += 1
        tally.attempt()
        kind, database = kinds[index], databases[index]
        text = kind.text(constant)
        try:
            before = clock()
            if tracer is None:
                result = answer(kind.program, database, text)
            else:
                with tracer.span("engine.answer", kind=kind.name) as root:
                    result = answer(kind.program, database, text)
                    root.attrs["rung"] = rung_of(result.strategy)
            finished = clock()
        except ReproError:
            finished = clock()
            tally.fail("error")
            continue
        latencies.append(finished - before)
        asked_kinds.append(index)
        rungs[rung_of(result.strategy)] += 1
        iterations += result.stats.iterations
        key = (index, constant)
        seen = observed.get(key)
        if seen is None:
            observed[key] = Observed(result.answers)
        else:
            seen.count += 1
            if result.answers != seen.first:
                seen.differed += 1
    return LoopResult(latencies, asked_kinds, finished - started - paused, observed, rungs, iterations, tally)


def reference_check(kinds: Sequence[Kind], databases: Sequence[Database], loop: LoopResult) -> Tally:
    """Compare every observed answer with semi-naive evaluation plus selection."""
    tally = Tally()
    indexed: Dict[int, Dict[Optional[int], Set[Row]]] = {}
    for index, kind in enumerate(kinds):
        if not any(key[0] == index for key in loop.observed):
            continue
        rows = seminaive_evaluate(kind.program, databases[index])[kind.predicate].rows()
        by_value: Dict[Optional[int], Set[Row]] = {}
        if kind.column is None:
            by_value[None] = set(rows)
        else:
            for row in rows:
                by_value.setdefault(row[kind.column], set()).add(row)
        indexed[index] = by_value
    for (index, constant), seen in loop.observed.items():
        if seen.first != indexed[index].get(constant, set()):
            tally.fail("wrong answer", seen.count)
        elif seen.differed:
            tally.fail("wrong answer", seen.differed)
    return tally


# ----------------------------------------------------------------------
# traced extras: the ledger's per-layer numbers
# ----------------------------------------------------------------------
def layer_numbers(tracer: Tracer) -> Dict[str, float]:
    """Per-query layer self times and work counts from the traced pass's spans."""
    roots = tracer.roots("engine.answer")
    queries = len(roots)
    totals = layer_totals(tracer.spans, roots)
    answer_seconds = sum(root.duration for root in roots)

    def self_ms(name: str) -> float:
        return totals[name]["self_seconds"] * 1e3 / queries if name in totals else 0.0

    def work(name: str) -> float:
        return totals[name]["tuples_examined"] if name in totals else 0.0

    numbers = {
        "answer_ms": answer_seconds * 1e3 / queries,
        "coerce_us": self_ms("datalog.coerce") * 1e3,
        "analyze_ms": self_ms("optimize.analyze"),
        "share": totals["optimize.analyze"]["self_seconds"] / answer_seconds,
        "schema_ms": self_ms("core.schema"),
        "schema_tuples_examined": work("core.schema") / queries,
        "schema_ns_per_tuple": (
            totals["core.schema"]["self_seconds"] * 1e9 / work("core.schema")
            if work("core.schema") else 0.0
        ),
        "counting_ms": self_ms("baselines.counting"),
        "magic_ms": self_ms("baselines.magic"),
        "baselines_tuples_examined": (work("baselines.counting") + work("baselines.magic")) / queries,
        "unfolded_ms": self_ms("optimize.unfolded"),
        "seminaive_rung_ms": self_ms("engine.seminaive"),
        "residual_ms": self_ms("engine.answer"),
    }
    parts = ("coerce_us", "analyze_ms", "schema_ms", "counting_ms", "magic_ms",
             "unfolded_ms", "seminaive_rung_ms", "residual_ms")
    decomposed = sum(numbers[part] / (1e3 if part.endswith("_us") else 1.0) for part in parts)
    numbers["decomposition_gap_ms"] = numbers["answer_ms"] - decomposed
    numbers["queries"] = queries
    return numbers


def comparator(kinds: Sequence[Kind], databases: Sequence[Database]) -> Dict[str, float]:
    """``seminaive_query`` on each kind's first selection: the 'fewer tuples must mean faster' base."""
    seconds = 0.0
    examined = 0
    calls = 0
    for kind, database in zip(kinds, databases):
        bindings = {kind.column: kind.constants[0]} if kind.column is not None else {}
        for _ in range(COMPARATOR_REPEATS):
            started = time.perf_counter()
            _answers, stats = seminaive_query(kind.program, database, kind.predicate, bindings)
            seconds += time.perf_counter() - started
            examined += stats.tuples_examined
            calls += 1
    return {"seminaive_ms": seconds * 1e3 / calls, "seminaive_tuples_examined": examined / calls}


def profile_ratio(kinds: Sequence[Kind], databases: Sequence[Database]) -> Dict[str, float]:
    """``answer(profile=True)`` over ``answer()`` on paired calls, alternating which goes first.

    Each selection keeps its fastest time per mode; the ratio is of the sums.
    """
    sample = [
        (kind, database, kind.text(constant))
        for kind, database in zip(kinds, databases)
        for constant in (kind.constants[:PROFILE_PER_KIND] if kind.column is not None else [None])
    ]
    plain = [float("inf")] * len(sample)
    profiled = [float("inf")] * len(sample)
    for round_index in range(PROFILE_ROUNDS):
        for position, (kind, database, text) in enumerate(sample):
            modes = (False, True) if (round_index + position) % 2 == 0 else (True, False)
            for with_profile in modes:
                started = time.perf_counter()
                answer(kind.program, database, text, profile=with_profile)
                elapsed = time.perf_counter() - started
                if with_profile:
                    profiled[position] = min(profiled[position], elapsed)
                else:
                    plain[position] = min(plain[position], elapsed)
    return {
        "profile_ratio": sum(profiled) / sum(plain),
        "profile_base_ms": sum(plain) * 1e3 / len(sample),
    }


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, traced: bool, workdir: str) -> Dict[str, object]:
    """One pass of a library workload: set-up, warm-up, timed loop, checks.

    Set-up children copy the library under ``workdir``.
    """
    kinds = KINDS[workload](seed)
    databases = [kind.database() for kind in kinds]
    rng = random.Random(f"{workload}/stream/{seed}")
    warmup = stream(kinds, random.Random(f"{workload}/warmup/{seed}"))
    closed_loop(kinds, databases, warmup, count=WARMUP_ROUNDS[workload] * len(kinds))

    setups: List[float] = []
    timed = dict(
        seconds=seconds,
        pause=lambda: setups.append(setup_seconds(workload, seed, workdir)),
        pauses=SETUP_REPEATS,
    )
    tracer = Tracer() if traced else None
    cache_before = shared_cache.stats()
    if tracer is None:
        loop = closed_loop(kinds, databases, stream(kinds, rng), **timed)
    else:
        with instrument(tracer):
            loop = closed_loop(kinds, databases, stream(kinds, rng), tracer=tracer, **timed)
    cache_after = shared_cache.stats()
    peak = peak_rss_mb()

    tally = loop.tally
    tally.merge(reference_check(kinds, databases, loop))
    groups = [[] for _ in kinds]
    for latency, index in zip(loop.latencies, loop.asked_kinds):
        groups[index].append(latency)
    try:
        percentile, tail_seconds, kind_tails = kind_tail(groups, TAIL_CAP)
    except ValueError:  # too few queries of some kind for any tail
        percentile, tail_seconds, kind_tails = None, None, []
    result: Dict[str, object] = {
        "setup_s": statistics.median(setups),
        "setup_samples_s": setups,
        "query_p50_ms": statistics.median(loop.latencies) * 1e3,
        "query_tail_ms": None if tail_seconds is None else tail_seconds * 1e3,
        "query_tail_percentile": percentile,
        "kind_tails_ms": {kind.name: value * 1e3 for kind, value in zip(kinds, kind_tails)},
        "queries_per_s": len(loop.latencies) / loop.elapsed,
        "peak_rss_mb": peak,
        "queries": len(loop.latencies),
        "distinct_selections": len(loop.observed),
        "rungs": dict(loop.rungs),
        "tally": tally,
    }
    if tracer is not None:
        numbers = layer_numbers(tracer)
        total = len(loop.latencies)
        numbers.update({f"rung_share.{rung}": loop.rungs.get(rung, 0) / total for rung in RUNGS})
        numbers["iterations_per_query"] = loop.iterations / total
        hits = cache_after["hits"] - cache_before["hits"]
        lookups = hits + cache_after["misses"] - cache_before["misses"]
        numbers["containment_hit_ratio"] = hits / lookups if lookups else 0.0
        numbers["containment_lookups"] = lookups
        if workload == "deep-reach":
            numbers.update(comparator(kinds, databases))
        else:
            numbers.update(profile_ratio(kinds, databases))
        result["layers"] = numbers
        result["tracer"] = tracer
    return result
