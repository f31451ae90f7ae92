"""The ``durable-readwrite`` workload: a durable ``DatalogService`` under open-loop reads and writes.

The service runs with the default ``StorageConfig`` (fsync on,
``snapshot_interval=64``) and the default ``FlushPolicy`` (64 writes or
5 ms) over transitive closure of 16 binary trees of depth 7 (4,064 edges; the
view holds 24,608 tuples).  Two client threads share one schedule start:

* a reader issues ``query()`` at ``READ_RATE`` per second, drawing from a
  zipf-skewed pool of ``POOL`` distinct selections — four times the default
  1,024-entry epoch cache;
* a writer alternates deleting a seeded edge of ``a`` and re-inserting it,
  each with ``wait=True``, at ``WRITE_RATE`` per second, so the EDB size
  stays steady and DRed over-deletes and rederives.

Both are timed from each request's due time.  After the timed window the
benchmark checks the served view against semi-naive evaluation, closes the
service, reopens the directory several times (``recover_s``) and checks
that the reopened EDB holds every acknowledged write.  A seeded sample of
reads is re-checked against the snapshot each observed.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from harness import OpenLoop, Tally, latency_summary, peak_rss_mb, tighten_timer_slack
from library import forest, nodes, relabel, tc_edb
from tracing import Tracer, instrument

from repro import (
    Database,
    DatalogService,
    SelectionQuery,
    ServiceClosed,
    ServiceDegraded,
    ServiceOverloaded,
    Session,
    seminaive_evaluate,
)
from repro.datalog import ReproError
from repro.workloads import transitive_closure

Row = Tuple[int, int]


class Ack(NamedTuple):
    """One issued write: ``epoch`` is the epoch that includes it, ``None`` if unacknowledged."""

    op: str
    edge: Row
    epoch: Optional[int]

READ_RATE = 1000.0
WRITE_RATE = 5.0
POOL = 4096
ZIPF_EXPONENT = 0.8
#: tail percentile caps: the rungs the tail rule picks for the open loop's
#: fixed counts (1,000 reads and 5 writes per second) over 25 to 100 seconds
READ_TAIL_CAP = 99.9
WRITE_TAIL_CAP = 90.0
SETUP_REPEATS = 15
RECOVER_REPEATS = 9
#: one read in this many is re-checked against the snapshot it observed
SAMPLE_EVERY = 200
WRITE_TIMEOUT_S = 5.0
LOOKUP_PROBES = 10


@dataclass
class Inputs:
    edb: Dict[str, List[Row]]
    pool: List[SelectionQuery]
    #: pool index of every scheduled read
    reads: List[int]
    #: (op, edge) of every scheduled write
    writes: List[Tuple[str, Row]]
    #: read positions re-checked after the run
    sampled: Set[int]
    #: (edge, node) pairs for the first-lookup probes of a traced pass
    probes: List[Tuple[Row, int]]


def make_inputs(seed: int, seconds: float) -> Inputs:
    rng = random.Random(f"durable-readwrite/{seed}")
    edges, _ = relabel(forest(16, 7), rng)
    every = nodes(edges)
    # forest() lists each tree's 254 edges level by level (2, 4, ..., 128)
    levels: List[List[Row]] = [[] for _ in range(7)]
    for position, edge in enumerate(edges):
        levels[(position % 254 + 2).bit_length() - 2].append(edge)
    selections = rng.sample([(column, node) for column in (0, 1) for node in every], POOL)
    pool = [SelectionQuery.of("t", 2, {column: node}) for column, node in selections]
    weights = list(itertools.accumulate(1.0 / rank ** ZIPF_EXPONENT for rank in range(1, POOL + 1)))
    reads = rng.choices(range(POOL), cum_weights=weights, k=int(READ_RATE * seconds))
    writes: List[Tuple[str, Row]] = []
    for pair in range(int(WRITE_RATE * seconds + 1) // 2):
        # cycling through the levels fixes how many writes change the view
        # (a leaf edge's does not) and how large their deltas are, whatever the seed
        edge = rng.choice(levels[pair % len(levels)])
        writes += [("delete", edge), ("insert", edge)]
    sampled = {position for position in range(len(reads)) if rng.randrange(SAMPLE_EVERY) == 0}
    probes = [(rng.choice(edges), rng.choice(every)) for _ in range(LOOKUP_PROBES)]
    return Inputs(tc_edb(edges), pool, reads, writes, sampled, probes)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def reachable(start: Set[int], adjacency: Dict[int, List[int]]) -> Set[int]:
    seen = set(start)
    frontier = list(start)
    while frontier:
        node = frontier.pop()
        for target in adjacency.get(node, ()):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def closure_answers(edb: Dict[str, Iterable[Row]], selection: SelectionQuery) -> Set[Row]:
    """``t(c, Y)`` / ``t(X, c)`` of transitive closure by graph search: ``t = a* . b``."""
    forward: Dict[int, List[int]] = {}
    backward: Dict[int, List[int]] = {}
    for source, target in edb["a"]:
        forward.setdefault(source, []).append(target)
        backward.setdefault(target, []).append(source)
    ((column, constant),) = selection.bindings
    if column == 0:
        middle = reachable({constant}, forward)
        return {(constant, y) for x, y in edb["b"] if x in middle}
    ends = {x for x, y in edb["b"] if y == constant}
    return {(x, constant) for x in reachable(ends, backward)}


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, files in os.walk(path)
        for name in files
    )


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------
class Clients:
    """The reader and writer threads' shared bookkeeping."""

    def __init__(self, service: DatalogService, inputs: Inputs, tracer: Optional[Tracer]) -> None:
        self.service = service
        self.inputs = inputs
        self.tracer = tracer
        self.tally = Tally()
        self.lock = threading.Lock()
        self.hits = 0
        #: (selection, answers, epoch observed) of sampled reads
        self.samples: List[Tuple[SelectionQuery, Set[Row], int]] = []
        #: every issued write, in issue order
        self.acks: List[Ack] = []

    def read(self, position: int) -> bool:
        selection = self.inputs.pool[self.inputs.reads[position]]
        with self.lock:
            self.tally.attempt()
        try:
            if self.tracer is None:
                result = self.service.query(selection)
            else:
                with self.tracer.span("service.query") as root:
                    result = self.service.query(selection)
                    root.attrs["cached"] = result.cached
        except (ReproError, RuntimeError):
            with self.lock:
                self.tally.fail("read error")
            return False
        self.hits += result.cached
        if position in self.inputs.sampled:
            self.samples.append((selection, result.answers, result.epoch))
        return True

    def write(self, position: int) -> bool:
        op, edge = self.inputs.writes[position]
        return self.apply(op, edge)

    def apply(self, op: str, edge: Row) -> bool:
        action = self.service.delete if op == "delete" else self.service.insert
        with self.lock:
            self.tally.attempt()
        reason = None
        epoch = None
        try:
            if self.tracer is None:
                epoch = action("a", edge, wait=True, timeout=WRITE_TIMEOUT_S).epoch
            else:
                with self.tracer.span("service.write", op=op):
                    epoch = action("a", edge, wait=True, timeout=WRITE_TIMEOUT_S).epoch
        except TimeoutError:
            reason = "write timeout"
        except (ServiceDegraded, ServiceOverloaded, ServiceClosed):
            reason = "write refused"
        except (ReproError, RuntimeError):
            reason = "write error"
        with self.lock:
            self.acks.append(Ack(op, edge, epoch))
            if reason is not None:
                self.tally.fail(reason)
        return reason is None


def _run_threads(clients: Clients, inputs: Inputs, seconds: float):
    tighten_timer_slack()
    reader = OpenLoop(READ_RATE, seconds)
    writer = OpenLoop(WRITE_RATE, seconds)
    start = time.perf_counter() + 0.05
    outcome = {}

    def drive(name: str, loop: OpenLoop, issue) -> None:
        outcome[name] = loop.run(issue, start=start)

    threads = [
        threading.Thread(target=drive, args=("reads", reader, clients.read), name="bench-reader"),
        threading.Thread(target=drive, args=("writes", writer, clients.write), name="bench-writer"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 60)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish within a minute of the window")
    return outcome["reads"], outcome["writes"]


def _lookup_probes(clients: Clients, inputs: Inputs) -> Dict[str, float]:
    """First and repeated column-1 lookups on the view of freshly published snapshots."""
    first: List[float] = []
    warm: List[float] = []
    for edge, node in inputs.probes:
        for op in ("delete", "insert"):
            clients.apply(op, edge)
            view = clients.service.snapshot().views["t"]
            for timings in (first, warm):
                started = time.perf_counter()
                view.lookup({1: node})
                timings.append(time.perf_counter() - started)
    return {
        "first_lookup_ms": statistics.median(first) * 1e3,
        "warm_lookup_us": statistics.median(warm) * 1e6,
    }


def _replay(inputs: Inputs, acks: List[Ack]) -> Dict[str, float]:
    """The same write stream through a ``Session``: maintenance cost without the service."""
    session = Session(transitive_closure(), Database.from_dict(inputs.edb))
    times: Dict[str, List[float]] = {"insert": [], "delete": []}
    examined = 0
    rederived = 0
    for op, edge, _epoch in acks:
        action = session.delete if op == "delete" else session.insert
        started = time.perf_counter()
        action("a", [edge])
        times[op].append(time.perf_counter() - started)
        stats = session.last_stats
        examined += stats.tuples_examined
        if op == "delete":
            rederived += stats.tuples_rederived
    return {
        "insert_ms": statistics.median(times["insert"]) * 1e3,
        "delete_ms": statistics.median(times["delete"]) * 1e3,
        "tuples_examined_per_write": examined / len(acks),
        "tuples_rederived_per_delete": rederived / len(times["delete"]),
    }


def _expected_a(initial: List[Row], acks: List[Ack]) -> Tuple[Set[Row], Set[Row]]:
    """``a`` after the acknowledged writes, and the edges an unacknowledged write leaves uncertain."""
    rows = set(initial)
    uncertain: Set[Row] = set()
    for op, edge, epoch in acks:
        if epoch is None:
            uncertain.add(edge)
        elif op == "delete":
            rows.discard(edge)
        else:
            rows.add(edge)
    return rows, uncertain


def _check_samples(inputs: Inputs, clients: "Clients", tally: Tally) -> None:
    """Re-check sampled reads against the EDB of the epoch each observed.

    That EDB is the initial one plus every acknowledged write whose epoch is
    no later, so the run keeps no old snapshot alive.  Skipped when a write
    went unacknowledged (the run has failed already, and the EDB is uncertain).
    """
    if any(ack.epoch is None for ack in clients.acks):
        return
    writes = sorted(clients.acks, key=lambda ack: ack.epoch)
    rows = set(inputs.edb["a"])
    applied = 0
    for selection, answers, epoch in sorted(clients.samples, key=lambda sample: sample[2]):
        while applied < len(writes) and writes[applied].epoch <= epoch:
            op, edge, _epoch = writes[applied]
            (rows.discard if op == "delete" else rows.add)(edge)
            applied += 1
        expected = closure_answers({"a": rows, "b": inputs.edb["b"]}, selection)
        tally.check(answers == expected, "read differs from its snapshot")


def run(seed: int, seconds: float, traced: bool, workdir: str) -> Dict[str, object]:
    inputs = make_inputs(seed, seconds)
    program = transitive_closure()
    scratch = tempfile.mkdtemp(prefix="durable-", dir=workdir)
    try:
        return _run(inputs, program, seconds, traced, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(inputs: Inputs, program, seconds: float, traced: bool, scratch: str) -> Dict[str, object]:
    setups: List[float] = []
    service = None
    for attempt in range(SETUP_REPEATS):
        if service is not None:
            service.close()
            gc.collect()  # drop the closed service now, not at a collection in the timed window
        directory = os.path.join(scratch, f"store-{attempt}")
        started = time.perf_counter()
        service = DatalogService(program, Database.from_dict(inputs.edb), storage=directory)
        setups.append(time.perf_counter() - started)

    try:
        return _measure(inputs, program, seconds, traced, service, setups, directory)
    finally:
        service.close()  # idempotent; covers a pass that raised


def _measure(inputs: Inputs, program, seconds: float, traced: bool, service: DatalogService,
             setups: List[float], directory: str) -> Dict[str, object]:
    setup_peak = peak_rss_mb()
    tracer = Tracer() if traced else None
    clients = Clients(service, inputs, tracer)
    if tracer is None:
        reads, writes = _run_threads(clients, inputs, seconds)
    else:
        with instrument(tracer):
            reads, writes = _run_threads(clients, inputs, seconds)
    peak = peak_rss_mb()
    timed_acks = list(clients.acks)
    stats = service.stats
    storage = replace(service.storage_stats)  # a copy: the live counters keep moving
    tally = clients.tally

    # checks and traced extras, outside the timed window
    service.barrier()
    snapshot = service.snapshot()
    reference = seminaive_evaluate(program, snapshot.as_database())["t"].rows()
    tally.check(snapshot.views["t"].rows() == reference, "served view differs from semi-naive")
    layers: Dict[str, float] = {}
    if tracer is not None:
        layers.update(_lookup_probes(clients, inputs))
    service.close()
    user_bytes = sum(len(rows) * 2 * 8 for rows in inputs.edb.values())
    stored = directory_bytes(directory) / user_bytes

    expected_a, uncertain = _expected_a(inputs.edb["a"], clients.acks)
    recoveries: List[float] = []
    replayed = 0
    for attempt in range(RECOVER_REPEATS):
        started = time.perf_counter()
        reopened = DatalogService.open(directory)
        recoveries.append(time.perf_counter() - started)
        try:
            if attempt == 0:
                replayed = reopened.storage_stats.records_replayed
                view = reopened.snapshot()
                a_rows = set(view.edb["a"].rows())
                tally.check(a_rows - uncertain == expected_a - uncertain,
                            "reopened EDB lost an acknowledged write")
                tally.check(set(view.edb["b"].rows()) == set(inputs.edb["b"]), "reopened EDB changed b")
                recovered = seminaive_evaluate(program, view.as_database())["t"].rows()
                tally.check(view.views["t"].rows() == recovered, "reopened view differs from semi-naive")
        finally:
            reopened.close()

    _check_samples(inputs, clients, tally)

    unissued = reads.unissued + writes.unissued
    if unissued:
        tally.attempt(unissued)
        tally.fail("generator fell behind", unissued)
    read = latency_summary(reads.latencies, READ_TAIL_CAP)
    write = latency_summary(writes.latencies, WRITE_TAIL_CAP)
    result: Dict[str, object] = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": read["p50_ms"],
        "query_tail_ms": read["tail_ms"],
        "query_tail_percentile": read["tail_percentile"],
        "queries_per_s": len(reads.latencies) / reads.elapsed,
        "peak_rss_mb": peak,
        "peak_rss_after_setup_mb": setup_peak,
        "read_p50_ms": read["p50_ms"],
        "read_tail_ms": read["tail_ms"],
        "read_tail_percentile": read["tail_percentile"],
        "write_p50_ms": write["p50_ms"],
        "write_tail_ms": write["tail_ms"],
        "write_tail_percentile": write["tail_percentile"],
        "recover_s": statistics.median(recoveries),
        "stored_bytes_per_user_byte": stored,
        "reads": len(reads.latencies),
        "writes": len(writes.latencies),
        "read_lateness": reads.lateness_summary(),
        "write_lateness": writes.lateness_summary(),
        "unissued": unissued,
        "sampled_reads_checked": len(clients.samples),
        "cache_hit_ratio": clients.hits / max(1, len(reads.latencies)),
        "tally": tally,
    }
    if tracer is not None:
        queries = tracer.roots("service.query")
        hit = [span.duration for span in queries if span.attrs.get("cached")]
        miss = [span.duration for span in queries if not span.attrs.get("cached")]
        layers.update({
            "read_hit_us": statistics.median(hit) * 1e6,
            "read_miss_us": statistics.median(miss) * 1e6,
            "cache_hit_ratio": len(hit) / len(queries),
            "coalescing_factor": stats.coalescing_factor(),
            "epochs_published": stats.epochs_published,
            "wal_bytes_per_row": storage.bytes_appended / storage.rows_logged,
            "records_per_write": storage.records_appended / stats.writes_applied,
            "compactions": storage.compactions,
            "records_replayed": replayed,
        })
        layers.update(_replay(inputs, [ack for ack in timed_acks if ack.epoch is not None]))
        result["layers"] = layers
        result["tracer"] = tracer
    return result
