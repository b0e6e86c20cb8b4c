"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` is a separate run that wraps each layer's public functions
(:mod:`tracing`) and reports the per-layer metrics instead, writing its
spans to ``.perfbench/``.  Earlier output lines are a human-readable report
and a ``{"report": ...}`` JSON line (provenance, every metric with its
unit, direction and clock, failures); the last line is the result object.
The program is imported from ``src/`` of the same checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Per-layer metrics the workload measures on its sample in simulated time
#: (or as exact counts of simulated events); the rest are span data.
SIM_LAYER_METRICS = {
    "net.messages.total", "net.bytes.total", "net.scheduler.deliveries",
    "pgrid.routing.cache_hit_ratio", "load.model.queue_wait_s", "load.model.hot_util",
    "load.shedding.rejects", "load.shedding.deferrals", "load.drivers.reroutes",
    "load.drivers.reject_retries", "load.drivers.useful_ratio",
}  # fmt: skip


def e2e_clock(name: str) -> str:
    """Which clock an end-to-end metric reads."""
    if name.startswith("sim_"):
        return "sim"
    return "memory" if name == "peak_rss_mb" else "wall"


def layer_clock(name: str) -> str:
    """Which clock a per-layer metric reads (``count`` for exact event counts)."""
    if name in SIM_LAYER_METRICS:
        return "sim"
    return "wall" if name.endswith("_s") or name == "trace.overhead_frac" else "count"


def provenance(seconds: int) -> dict:
    """Where and how this run was made."""
    sha = None
    if (ROOT / ".git").exists():  # an export has none; never look above the checkout
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        parser.error(f"--workload must be one of {workload_names}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    sys.path[:0] = [str(SRC), str(HERE)]
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
    outcome = workloads.WORKLOADS[args.workload](args.seed, float(args.seconds), tracer)

    named = dict(outcome.named)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {"setup_s": outcome.setup_s, "peak_rss_mb": rss_mb}
    e2e.update({generic: named[name] for generic, name in outcome.generic.items()})
    named.update(setup_s=outcome.setup_s, peak_rss_mb=rss_mb)
    named["failed_frac"] = outcome.failed / max(outcome.attempted, 1)
    named["sample_wall_s"] = outcome.sample_wall_s
    named["sample_ops"] = outcome.sample_ops

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(args.seconds),
        "warmup_policy": workloads.WARMUP_POLICY[args.workload],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_frac": named["failed_frac"],
        "failures": outcome.failures,
        "workload_metrics": named,
        "generic_to_workload": outcome.generic,
    }
    if tracer is not None:
        tracer.uninstall()
        values, breakdown = tracing.layer_metrics(tracer, outcome.layers, outcome.builds)
        # A layer a workload never enters has no simulated activity to report.
        values = {**dict.fromkeys(SIM_LAYER_METRICS, 0), **values}
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.dump(spans_file)
        top = list(breakdown["layers_self_s"].items())[:3]
        report.update(
            breakdown=breakdown,
            top_layers=[name for name, _ in top],
            spans_file=str(spans_file.relative_to(ROOT)),
        )
        wanted = spec["per_layer"]
        clock = layer_clock
    else:
        values = e2e
        wanted = spec["end_to_end"]
        clock = e2e_clock

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: workload did not produce {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"], "better": m["better"],
                    "clock": clock(m["name"])}
        for m in wanted
    }  # fmt: skip

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  provenance: {json.dumps(report['provenance'])}")
    print(f"  warm-up: {report['warmup_policy']}")
    print(f"  attempted={outcome.attempted} failed={outcome.failed} "
          f"failed_frac={named['failed_frac']:.6f}")  # fmt: skip
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    for name, value in sorted(named.items()):
        print(f"  {name:36s} {value:>16.6f}")
    if tracer is not None:
        root_s = breakdown["root_s"]
        print(f"  sampled operations: {root_s:.3f} s in root spans; self time by layer:")
        for name, seconds in breakdown["layers_self_s"].items():
            print(f"    {name:22s} {seconds:10.4f} s  {100 * seconds / root_s:5.1f}%")
        print(f"    {'(unattributed)':22s} {breakdown['unattributed_s']:10.4f} s  "
              f"{100 * breakdown['unattributed_s'] / root_s:5.1f}%")  # fmt: skip
        print(f"  top layers by self time: {', '.join(report['top_layers'])}")
        print(f"  tracing overhead (estimated): {100 * values['trace.overhead_frac']:.1f}% "
              f"over {values['trace.spans']} spans")  # fmt: skip
    for name, row in report["metrics"].items():
        print(f"  {name:40s} {row['value']:>16.6f} {row['unit']:8s} {row['better']:6s} "
              f"{row['clock']}")  # fmt: skip
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
