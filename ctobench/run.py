"""Run one workload of the ctoconv benchmark and print its metrics.

    python3 ctobench/run.py --workload decide-float --seed 1 --seconds 14 --trace 0

Run from the root of a checkout; ctoconv is imported from ./src, not
installed.  One closed loop in this process replays the workload's fixed
operation set in whole rounds until --seconds have passed.  Every output is
checked against `oracle`.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the layers are wrapped (`layers.LayerTracer`) and the metrics
are per layer.  Readable lines come first; the last stdout line is one JSON
object.  A copy of the full record goes to ctobench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
MIN_OPS_FOR_P90 = 40  # a p90 over fewer distinct operations is no tail
UNITS = {"check": "ms", "refute": "ms", "synth": "ms", "screen": "us"}


def _quantiles(samples):
    """(median, p90) of a list of seconds."""
    if len(samples) < 2:
        return samples[0], samples[0]
    return statistics.median(samples), statistics.quantiles(samples, n=10)[8]


def import_ctoconv() -> float:
    """Import the package from SRC; returns the seconds it took, which count
    as set-up so that work moved to import time shows."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ctoconv  # noqa: F401

    return time.perf_counter() - t0


def set_up(workload: str, seed: int, scale: str):
    """Build the operation set SETUP_REPEATS times; returns the last one and
    the median build time.  Every build of one seed yields the same
    operations."""
    import workloads

    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workloads.build(workload, seed, scale)
        builds.append(time.perf_counter() - t0)
    return ops, statistics.median(builds)


def measure(ops, seconds: float):
    """Replay whole rounds of ops until `seconds` of wall time have passed."""
    import oracle

    samples = {}
    attempted = failed = rounds = 0
    wrong = []
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a failing operation is counted, not fatal
                failed += 1
                if failed <= 3:
                    traceback.print_exc(file=sys.stderr)
                continue
            samples.setdefault(op.kind, []).append(time.perf_counter() - t0)
            try:
                op.check(out)
            except Exception as exc:  # malformed output is a wrong output too
                if not isinstance(exc, oracle.CheckFailed):
                    traceback.print_exc(file=sys.stderr)
                if len(wrong) < 10:
                    wrong.append(f"{op.kind}: {exc}")
        rounds += 1
    return {
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "rounds": rounds,
        "wall_s": time.perf_counter() - start,
    }


def end_to_end(loop, setup_s: float) -> dict:
    every = [s for kind in loop["samples"].values() for s in kind]
    p50, p90 = _quantiles(every)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms_p50": {"value": p50 * 1e3, "unit": "ms"},
        "op_ms_p90": {"value": p90 * 1e3, "unit": "ms"},
        "ops_per_s": {"value": len(every) / sum(every), "unit": "1/s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def breakdown(loop, ops) -> dict:
    """Latency per operation kind (check/refute/synth/screen), for reading."""
    per_round = {}
    for op in ops:
        per_round[op.kind] = per_round.get(op.kind, 0) + 1
    out = {}
    for kind, samples in loop["samples"].items():
        unit = UNITS[kind]
        scale = 1e3 if unit == "ms" else 1e6
        p50, p90 = _quantiles(samples)
        out[f"{kind}_{unit}_p50"] = {"value": p50 * scale, "unit": unit}
        if per_round[kind] >= MIN_OPS_FOR_P90:
            out[f"{kind}_{unit}_p90"] = {"value": p90 * scale, "unit": unit}
        out[f"{kind}_ops_per_round"] = {"value": per_round[kind], "unit": "count"}
    return out


def environment() -> dict:
    import numpy
    from ctoconv import _kernels

    return {
        "kernel": _kernels.KERNEL,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        import_s: float = 0.0) -> dict:
    """One measured run; setup_s is import_s plus the median build time."""
    ops, build_s = set_up(workload, seed, scale)
    setup_s = import_s + build_s
    if trace:
        import layers

        with layers.LayerTracer() as tracer:
            loop = measure(ops, seconds)
        metrics = tracer.per_op(loop["attempted"])
        every = [s for kind in loop["samples"].values() for s in kind]
        metrics["trace.op_ms"] = {"value": 1e3 * sum(every) / len(every), "unit": "ms/op"}
    else:
        loop = measure(ops, seconds)
        metrics = end_to_end(loop, setup_s)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": not loop["wrong"],
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
        "by_kind": breakdown(loop, ops),
        "rounds": loop["rounds"],
        "ops_per_round": len(ops),
        "wall_s": loop["wall_s"],
        "wrong": loop["wrong"],
        "environment": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ctoconv" / "__init__.py").is_file():
        print(f"ctobench: no ctoconv package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    import_s = import_ctoconv()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 import_s=import_s)
    for name, m in {**record["metrics"], **record["by_kind"]}.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {record['attempted']}  failed = {record['failed']}  "
          f"rounds = {record['rounds']} of {record['ops_per_round']} ops")
    for line in record["wrong"]:
        print(f"WRONG {line}", file=sys.stderr)

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
