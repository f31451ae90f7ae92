"""The repository benchmark: one command, three seeded workloads, every answer checked.

    python3 perfbench/run.py --workload point-selections --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
``--trace 0`` runs the named workload untraced and prints its end-to-end
metrics.  ``--trace 1`` runs the per-layer ledger: every workload, traced,
because each per-layer metric is measured on the workload that loads its
layer; it prints the per-layer metrics and, beside them, the traced
end-to-end numbers of the named workload (with the untraced ones of the same
seed, when an untraced record of it was made from the same library source).

The last line of standard output is the JSON result.  Everything else a run
knows — metadata, failures by reason, lateness, tail percentiles, the
summary-only metrics — goes to a record under ``perfbench/out/``, and a
traced run writes its spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: engine knobs that must stay at their defaults while measuring
ENGINE_KNOBS = ("REPRO_KERNELS", "REPRO_INTERN", "REPRO_COLUMNAR")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def metadata(args: argparse.Namespace) -> Dict[str, object]:
    from durable import READ_RATE, WRITE_RATE

    from repro import FlushPolicy, StorageConfig, __version__

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_digest": source_digest(),
        "library_version": __version__,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "repro_env": {key: value for key, value in os.environ.items() if key.startswith("REPRO_")},
        "durable": {
            "storage_config": vars(StorageConfig()),
            "flush_policy": vars(FlushPolicy()),
            "read_rate": READ_RATE,
            "write_rate": WRITE_RATE,
        },
    }


def untraced_numbers(workload: str, seed: int, digest: str) -> Dict[str, object]:
    """The untraced record of this workload and seed, when one was made from the same source."""
    path = OUT / f"{workload}-seed{seed}-trace0.json"
    if not path.exists():
        return {}
    earlier = json.loads(path.read_text())
    if earlier["meta"]["source_digest"] != digest:
        return {}
    return earlier["passes"][workload]


def run_pass(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, object]:
    import durable
    import library

    if workload == "durable-readwrite":
        return durable.run(seed, seconds, traced, str(OUT))
    return library.run(workload, seed, seconds, traced, str(OUT))


def _shown(value: Optional[float]) -> str:
    """A value for the summary lines; a tail a short run could not give prints as ``n/a``."""
    return "n/a" if value is None else f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {ROOT / 'src' / 'repro'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    knobs = [key for key in ENGINE_KNOBS if os.environ.get(key)]
    if knobs:
        print(f"perfbench: refusing to measure with engine knobs set: {', '.join(knobs)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import Tally, calibration_seconds
    from metrics import END_TO_END, LAYERS, SUMMARY_ONLY, WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    record: Dict[str, object] = {"meta": metadata(args)}
    calibration_before = calibration_seconds()
    # the named workload runs first, so its traced numbers start from the
    # same process state as an untraced run of it
    order = [args.workload] + ([name for name in WORKLOADS if name != args.workload] if args.trace else [])
    passes: Dict[str, Dict[str, object]] = {}
    tally = Tally()
    # a traced run makes three passes, each half as long, to end well within
    # the time one run may take
    seconds = args.seconds / 2 if args.trace else args.seconds
    for name in order:
        result = passes[name] = run_pass(name, args.seed, seconds, bool(args.trace))
        tally.merge(result.pop("tally"))
        tracer = result.pop("tracer", None)
        if tracer is not None:
            # written when the pass ends, then dropped, so the next pass
            # does not pay for collecting this one's spans
            tracer.write_jsonl(OUT / f"spans-{name}-seed{args.seed}.jsonl")
            del tracer
    record["meta"]["calibration_s"] = {"before": calibration_before, "after": calibration_seconds()}
    record["passes"] = passes
    record["attempted"] = tally.attempted
    record["failures"] = dict(tally.failures)
    record["failed_share"] = tally.failed_share

    mine = passes[args.workload]
    lines = [f"{args.workload} seed={args.seed} trace={args.trace} "
             f"failed_share={tally.failed_share:.6f} ({tally.failed}/{tally.attempted})"]
    if args.trace:
        metrics = {
            entry.name: {
                "value": float(passes[entry.prediction.measured_on]["layers"][entry.prediction.key]),
                "unit": entry.unit,
            }
            for entry in LAYERS
        }
        untraced = untraced_numbers(args.workload, args.seed, record["meta"]["source_digest"])
        for entry in END_TO_END:
            beside = f"  untraced {_shown(untraced[entry.name])}" if entry.name in untraced else ""
            lines.append(f"traced {entry.name} = {_shown(mine[entry.name])} {entry.unit}{beside}")
        record["untraced_beside"] = {key: untraced.get(key) for key, *_ in END_TO_END}
        record["predictions"] = {entry.name: entry.prediction._asdict() for entry in LAYERS}
    else:
        missing = [entry.name for entry in END_TO_END if mine[entry.name] is None]
        if missing:
            print(f"perfbench: too few queries in {args.seconds} s for {', '.join(missing)}; "
                  "run longer", file=sys.stderr)
            return 1
        metrics = {entry.name: {"value": float(mine[entry.name]), "unit": entry.unit} for entry in END_TO_END}
    for name, unit, _meaning in SUMMARY_ONLY:
        value = tally.failed_share if name == "failed_share" else mine.get(name)
        if name in mine or name == "failed_share":
            lines.append(f"{name} = {_shown(value)} {unit}")
    for name, entry in metrics.items():
        lines.append(f"{name} = {_shown(entry['value'])} {entry['unit']}")

    record["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str)
    )
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
