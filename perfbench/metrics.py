"""Every metric the benchmark reports, and what each per-layer metric should move.

``BENCHMARK.json`` at the root of the repository lists every gated metric's
name, unit and direction, and each end-to-end metric's bound; this module
loads them from there.  It adds only what that file has no place for: for
each per-layer metric, the workload whose traced pass measures it, the
number's key in that pass's results, and the end-to-end metric and workload
it should move (``PREDICTIONS``).

``END_TO_END`` is what an untraced run (``--trace 0``) prints as its result;
``LAYERS`` is what a traced run (``--trace 1``) prints.

``SUMMARY_ONLY`` metrics are printed and recorded by every run of the
workload they apply to, but are not part of the driver-facing result: that
result must carry every metric on every workload, and these have no meaning
on some workloads (a library call has no write latency and no store).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, NamedTuple, Tuple

POINT = "point-selections"
DEEP = "deep-reach"
DURABLE = "durable-readwrite"
#: every workload the benchmark runs.  ``BENCHMARK.json`` lists only the
#: library workloads: ``durable-readwrite`` stays runnable and is measured by
#: every traced run, but its microsecond-scale read latencies spread by more
#: than the largest allowed bound (0.25) across seeds on a shared two-core
#: machine, so it is not gated.
WORKLOADS = (POINT, DEEP, DURABLE)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class Prediction(NamedTuple):
    #: the workload whose traced pass measures it
    measured_on: str
    #: the number's key in that pass's per-layer results
    key: str
    #: (end-to-end metric, workload) it should move
    moves: Tuple[str, str]
    meaning: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    prediction: Prediction


END_TO_END = tuple(EndToEnd(**entry) for entry in SPEC["end_to_end"])

SUMMARY_ONLY = (
    ("failed_share", "ratio", "failed operations / attempted ones (all workloads)"),
    ("read_p50_ms", "ms", "durable: read latency from due time, median"),
    ("read_tail_ms", "ms", "durable: read latency from due time, tail"),
    ("write_p50_ms", "ms", "durable: due time to acknowledgement, median"),
    ("write_tail_ms", "ms", "durable: due time to acknowledgement, tail"),
    ("recover_s", "s", "durable: median of repeated DatalogService.open of the final directory"),
    ("stored_bytes_per_user_byte", "ratio", "durable: directory bytes / (live EDB rows x arity x 8)"),
)

_P50 = "query_p50_ms"
_TAIL = "query_tail_ms"
_QPS = "queries_per_s"

RUNGS = ("unfolded", "one-sided-forward", "one-sided-backward", "counting", "magic", "seminaive")
DEEP_RUNGS = ("one-sided-forward", "one-sided-backward", "magic", "seminaive")

PREDICTIONS: Dict[str, Prediction] = {
    "engine.answer_ms": Prediction(POINT, "answer_ms", (_P50, POINT),
        "mean traced answer() time per query; the layer times below add up to it"),
    "datalog.coerce_us": Prediction(POINT, "coerce_us", (_P50, POINT),
        "as_selection_query self time per query"),
    "optimize.analyze_ms": Prediction(POINT, "analyze_ms", (_P50, POINT),
        "Optimizer(default_passes()).run self time per query"),
    "optimize.share": Prediction(POINT, "share", (_P50, POINT),
        "optimizer self time / answer() time"),
    "cq.containment_hit_ratio": Prediction(POINT, "containment_hit_ratio", (_P50, POINT),
        "shared containment cache hits / lookups over the traced pass"),
    "core.schema_ms_point": Prediction(POINT, "schema_ms", (_P50, POINT),
        "OneSidedSchema.run self time per query on point-selections"),
    "baselines.counting_ms": Prediction(POINT, "counting_ms", (_P50, POINT),
        "counting_query self time per query"),
    "baselines.magic_ms": Prediction(POINT, "magic_ms", (_P50, POINT),
        "magic_query self time per query"),
    "baselines.tuples_examined": Prediction(POINT, "baselines_tuples_examined", (_P50, POINT),
        "tuples examined by counting and magic per query"),
    "optimize.unfolded_ms": Prediction(POINT, "unfolded_ms", (_P50, POINT),
        "evaluate_unfolded self time per query"),
    "engine.ladder_residual_ms": Prediction(POINT, "residual_ms", (_P50, POINT),
        "answer() self time per query: strategy choice, plan set-up, failed rungs"),
    **{f"engine.rung_share.{rung}": Prediction(POINT, f"rung_share.{rung}", (_P50, POINT),
                                               f"share of queries answered by the {rung} rung")
       for rung in RUNGS},
    "engine.iterations_per_query": Prediction(POINT, "iterations_per_query", (_P50, POINT),
        "fixpoint iterations per query"),
    "obs.profile_ratio": Prediction(POINT, "profile_ratio", (_P50, POINT),
        "answer(profile=True) / answer() time on paired, interleaved calls; "
        "no end-to-end metric should move"),
    "obs.profile_base_ms": Prediction(POINT, "profile_base_ms", (_P50, POINT),
        "the answer() time per query that obs.profile_ratio divides by"),
    "core.schema_ms": Prediction(DEEP, "schema_ms", (_P50, DEEP),
        "OneSidedSchema.run self time per query; also moves queries_per_s"),
    "core.schema_tuples_examined": Prediction(DEEP, "schema_tuples_examined", (_QPS, DEEP),
        "tuples the schema examined per query"),
    "core.schema_ns_per_tuple": Prediction(DEEP, "schema_ns_per_tuple", (_QPS, DEEP),
        "schema self time per tuple examined"),
    "engine.seminaive_ms": Prediction(DEEP, "seminaive_ms", (_P50, DEEP),
        "seminaive_query on the same selections, per query: the comparator"),
    "engine.seminaive_tuples_examined": Prediction(DEEP, "seminaive_tuples_examined", (_P50, DEEP),
        "tuples semi-naive examined per query on the same selections"),
    "engine.answer_ms_deep": Prediction(DEEP, "answer_ms", (_P50, DEEP),
        "mean traced answer() time per query on deep-reach"),
    "optimize.analyze_ms_deep": Prediction(DEEP, "analyze_ms", (_P50, DEEP),
        "optimizer self time per query on deep-reach; expected flat"),
    "optimize.share_deep": Prediction(DEEP, "share", (_P50, DEEP),
        "optimizer self time / answer() time on deep-reach; expected flat"),
    "baselines.magic_ms_deep": Prediction(DEEP, "magic_ms", (_TAIL, DEEP),
        "magic_query self time per query on deep-reach (nonlinear transitive closure)"),
    "engine.seminaive_rung_ms_deep": Prediction(DEEP, "seminaive_rung_ms", (_P50, DEEP),
        "self time of the ladder's semi-naive rung per query on deep-reach"),
    "engine.ladder_residual_ms_deep": Prediction(DEEP, "residual_ms", (_P50, DEEP),
        "answer() self time per query on deep-reach"),
    **{f"engine.rung_share_deep.{rung}": Prediction(DEEP, f"rung_share.{rung}", (_P50, DEEP),
                                                    f"share of deep-reach queries answered by the {rung} rung")
       for rung in DEEP_RUNGS},
    "engine.iterations_per_query_deep": Prediction(DEEP, "iterations_per_query", (_P50, DEEP),
        "fixpoint iterations per query on deep-reach"),
    "service.read_hit_us": Prediction(DURABLE, "read_hit_us", ("read_p50_ms", DURABLE),
        "median query() time of reads answered from the epoch cache"),
    "service.read_miss_us": Prediction(DURABLE, "read_miss_us", ("read_p50_ms", DURABLE),
        "median query() time of reads that missed the epoch cache"),
    "service.cache_hit_ratio": Prediction(DURABLE, "cache_hit_ratio", ("read_p50_ms", DURABLE),
        "reads answered from the epoch cache / reads"),
    "datalog.first_lookup_ms": Prediction(DURABLE, "first_lookup_ms", ("read_tail_ms", DURABLE),
        "median first Relation.lookup on column 1 of a freshly published view"),
    "datalog.warm_lookup_us": Prediction(DURABLE, "warm_lookup_us", ("read_tail_ms", DURABLE),
        "median repeat of that lookup"),
    "service.coalescing_factor": Prediction(DURABLE, "coalescing_factor", ("write_p50_ms", DURABLE),
        "writes applied per flush"),
    "service.epochs_published": Prediction(DURABLE, "epochs_published", ("write_p50_ms", DURABLE),
        "epochs published during the timed window"),
    "incremental.insert_ms": Prediction(DURABLE, "insert_ms", ("write_tail_ms", DURABLE),
        "median Session.insert time replaying the write stream"),
    "incremental.delete_ms": Prediction(DURABLE, "delete_ms", ("write_tail_ms", DURABLE),
        "median Session.delete time replaying the write stream"),
    "incremental.tuples_examined_per_write": Prediction(DURABLE, "tuples_examined_per_write", ("write_tail_ms", DURABLE),
        "maintenance tuples examined per replayed write"),
    "incremental.tuples_rederived_per_delete": Prediction(DURABLE, "tuples_rederived_per_delete", ("write_tail_ms", DURABLE),
        "DRed rederivations per replayed delete"),
    "storage.wal_bytes_per_row": Prediction(DURABLE, "wal_bytes_per_row", ("stored_bytes_per_user_byte", DURABLE),
        "WAL bytes appended per logged row"),
    "storage.records_per_write": Prediction(DURABLE, "records_per_write", ("write_tail_ms", DURABLE),
        "WAL records appended per applied write"),
    "storage.compactions": Prediction(DURABLE, "compactions", ("write_tail_ms", DURABLE),
        "snapshot compactions during the timed window"),
    "storage.records_replayed": Prediction(DURABLE, "records_replayed", ("recover_s", DURABLE),
        "WAL records replayed by the reopening"),
}


def _layers() -> Tuple[Layer, ...]:
    listed = [entry["name"] for entry in SPEC["per_layer"]]
    unlisted = sorted(set(PREDICTIONS) - set(listed))
    if unlisted:
        raise ValueError(f"predictions for metrics BENCHMARK.json does not list: {unlisted}")
    return tuple(
        Layer(entry["name"], entry["unit"], entry["better"], PREDICTIONS[entry["name"]])
        for entry in SPEC["per_layer"]
    )


LAYERS = _layers()
