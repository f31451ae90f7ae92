"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

They pin the rules the numbers rest on: the tail-percentile rule, self time
of nested spans, due-time latency under a stall, failure accounting, set-up
from a fresh copy of the library, and which untraced record a traced run
shows beside its own numbers.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import durable  # noqa: E402
import library  # noqa: E402
import run  # noqa: E402
from harness import OpenLoop, Tally, fresh_process_seconds, kind_tail, tail  # noqa: E402
from tracing import Span, Tracer, instrument, self_times  # noqa: E402

from repro import ServiceDegraded, ServiceOverloaded  # noqa: E402


# ----------------------------------------------------------------------
# the tail rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, percentile",
    [(100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, percentile):
    values = list(range(count))
    random.Random(count).shuffle(values)
    chosen, value = tail(values)
    assert chosen == percentile
    beyond = sum(1 for other in values if other > value)
    assert beyond >= 10
    # the next rung up would leave fewer than ten beyond
    higher = {90.0: 99.0, 99.0: 99.9, 99.9: 99.99}.get(percentile)
    if higher is not None:
        assert count - math.ceil(count * higher / 100 - 1e-9) < 10


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail(list(range(99)))


def test_kind_tail_is_the_geometric_mean_of_each_kinds_own_tail():
    # two kinds a hundredfold apart: a pooled p90 would sit inside the slow kind
    fast = [1.0 + index / 1000 for index in range(200)]
    slow = [100.0 + index / 10 for index in range(300)]
    percentile, value, each = kind_tail([fast, slow], cap=99.9)
    # p99 leaves 2 + 3 beyond, too few; p90 leaves 20 + 30
    assert percentile == 90.0
    assert each == [tail(fast, 90.0)[1], tail(slow, 90.0)[1]]
    assert value == pytest.approx(math.sqrt(each[0] * each[1]))
    # the samples beyond the kinds' tails count together: six beyond each
    assert kind_tail([fast[:60], slow[:60]], cap=90.0)[0] == 90.0
    with pytest.raises(ValueError):
        kind_tail([fast[:5], slow[:5]], cap=90.0)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _span(span_id, parent, start, end, name="x"):
    return Span(name, "t", span_id, parent, start, end)


def test_self_time_subtracts_children_and_clips_overlap():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),  # overlaps its sibling by one unit
        _span(4, 2, 1.5, 2.5),  # a grandchild belongs to its parent only
        _span(5, 1, 9.0, 12.0),  # runs past its parent's end: clipped
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_tracer_nests_spans_under_one_trace_id():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
    with tracer.span("root"):
        pass
    first, second = tracer.roots("root")
    named = {span.name: span for span in tracer.spans if span.trace_id == first.trace_id}
    assert set(named) == {"root", "child", "grandchild"}
    assert named["grandchild"].parent_id == named["child"].span_id
    assert named["child"].parent_id == named["root"].span_id
    assert second.trace_id != first.trace_id
    assert sum(self_times(list(named.values())).values()) == pytest.approx(first.duration)


def test_instrument_restores_every_entry_point():
    originals = [(owner, attribute, owner.__dict__[attribute])
                 for owner, attribute, _name, _capture in __import__("tracing")._targets()]
    with instrument(Tracer()):
        assert all(owner.__dict__[attribute] is not original for owner, attribute, original in originals)
    assert all(owner.__dict__[attribute] is original for owner, attribute, original in originals)


def test_point_layers_add_up_to_answer_time():
    kinds = library.point_kinds(3)
    databases = [kind.database() for kind in kinds]
    tracer = Tracer()
    with instrument(tracer):
        loop = library.closed_loop(kinds, databases, library.stream(kinds, random.Random(3)),
                                   count=24, tracer=tracer)
    numbers = library.layer_numbers(tracer)
    assert numbers["queries"] == 24
    assert abs(numbers["decomposition_gap_ms"]) < 1e-6
    assert library.reference_check(kinds, databases, loop).failed == 0


def test_pauses_are_spread_over_the_window_and_left_out_of_it():
    kinds = library.point_kinds(3)
    databases = [kind.database() for kind in kinds]
    calls = []

    def pause():
        calls.append(time.perf_counter())
        time.sleep(0.1)

    loop = library.closed_loop(kinds, databases, library.stream(kinds, random.Random(3)),
                               seconds=0.4, pause=pause, pauses=4)
    assert len(calls) == 4
    # one pause per 0.1 s of the window, each 0.1 s long
    assert all(later - earlier >= 0.19 for earlier, later in zip(calls, calls[1:]))
    assert 0.4 <= loop.elapsed < 0.5


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_due_time_latency_charges_a_stall_to_every_request_behind_it():
    clock = FakeClock()

    def issue(index):
        clock.now += 0.050 if index == 3 else 0.0001  # request 3 stalls 50 ms
        return True

    result = OpenLoop(1000.0, 0.020, clock=clock, sleep=clock.sleep).run(issue)
    assert result.unissued == 0 and len(result.latencies) == 20
    assert result.latencies[2] == pytest.approx(0.0001)
    assert result.latencies[3] == pytest.approx(0.050)
    # request 4 was due at 4 ms but could start only at 53 ms
    assert result.latencies[4] == pytest.approx(0.053 + 0.0001 - 0.004)
    assert result.lateness[4] == pytest.approx(0.049)
    assert max(result.lateness) == pytest.approx(0.049)
    # the load was still offered in full: every later request is late, none dropped
    assert all(latency > 0.03 for latency in result.latencies[4:])


def test_a_generator_that_cannot_catch_up_is_marked_behind():
    clock = FakeClock()

    def issue(_index):
        clock.now += 0.5
        return True

    result = OpenLoop(10.0, 1.0, grace=0.5, clock=clock, sleep=clock.sleep).run(issue)
    assert result.unissued > 0


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
class RefusingService:
    def __init__(self, error):
        self.error = error

    def _refuse(self, *_args, **_kwargs):
        raise self.error

    insert = delete = _refuse


@pytest.mark.parametrize("error", [ServiceOverloaded("shed"), ServiceDegraded("read-only"), TimeoutError()])
def test_refused_and_timed_out_writes_count_as_failed(error):
    inputs = durable.make_inputs(1, 1.0)
    clients = durable.Clients(RefusingService(error), inputs, tracer=None)
    assert clients.write(0) is False
    assert clients.tally.attempted == 1 and clients.tally.failed == 1
    assert clients.tally.failed_share == 1.0
    assert clients.acks == [durable.Ack(*inputs.writes[0], None)]


def test_wrong_answers_count_as_failed():
    kinds = library.deep_kinds(2)[:1]
    databases = [kind.database() for kind in kinds]
    loop = library.closed_loop(kinds, databases, library.stream(kinds, random.Random(0)), count=3)
    assert library.reference_check(kinds, databases, loop).failed == 0
    seen = loop.observed[(0, kinds[0].constants[0])]
    seen.first = set(list(seen.first)[1:])  # drop one answer: all three queries were wrong
    assert library.reference_check(kinds, databases, loop).failed == 3


def test_failed_share_is_failed_over_attempted():
    tally = Tally()
    tally.attempt(8)
    tally.fail("write refused")
    tally.check(False, "wrong answer")
    assert (tally.attempted, tally.failed) == (9, 2)
    assert tally.failed_share == pytest.approx(2 / 9)


def test_closure_reference_matches_semi_naive():
    from repro import seminaive_evaluate
    from repro.workloads import transitive_closure

    inputs = durable.make_inputs(4, 0.1)
    database = library.Kind("t", transitive_closure(), inputs.edb, "t", 0).database()
    rows = seminaive_evaluate(transitive_closure(), database)["t"].rows()
    edb = {name: set(values) for name, values in inputs.edb.items()}
    for selection in inputs.pool[:50]:
        assert durable.closure_answers(edb, selection) == selection.select(rows)


def test_fresh_process_seconds_reads_the_childs_last_line(tmp_path):
    code = "import os; print('noise'); print(len(os.listdir('.')) + 0.5)"
    (tmp_path / "one").write_text("")
    assert fresh_process_seconds(code, cwd=str(tmp_path)) == 1.5


def test_setup_compiles_a_fresh_copy_and_leaves_nothing_behind(tmp_path):
    assert library.setup_seconds("deep-reach", 1, str(tmp_path)) > 0
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
def test_untraced_numbers_come_only_from_the_same_source(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.untraced_numbers("deep-reach", 4, "abc") == {}
    record = {"meta": {"source_digest": "abc"}, "passes": {"deep-reach": {"query_p50_ms": 1.5}}}
    (tmp_path / "deep-reach-seed4-trace0.json").write_text(json.dumps(record))
    assert run.untraced_numbers("deep-reach", 4, "abc") == {"query_p50_ms": 1.5}
    assert run.untraced_numbers("deep-reach", 4, "other") == {}


def test_a_short_durable_pass_checks_clean(tmp_path):
    result = durable.run(5, 1.0, False, str(tmp_path))
    tally = result["tally"]
    assert tally.failed == 0, tally.failures
    assert result["sampled_reads_checked"] > 0
    assert result["writes"] == int(durable.WRITE_RATE)
