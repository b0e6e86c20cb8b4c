"""Checks on the benchmark itself, run as separate processes of ``run.py``.

``spread``      runs a workload once per seed and prints, for every
                end-to-end metric, the quartile spread (Q3 - Q1) / median
                next to its bound from ``BENCHMARK.json``.
``determinism`` runs one seed in two fresh processes with different
                ``PYTHONHASHSEED`` values, a second seed, and a traced run.
                The simulated metrics and the delivery count must be equal
                across hash seeds and between the traced and untraced runs,
                and must change with the seed.  It also prints the tracing
                overhead: wall time of the sampled operations, traced over
                untraced.

From the repository root::

    python3 perfbench/selfcheck.py spread --workload ingest --seeds 1 2 3 4 5
    python3 perfbench/selfcheck.py determinism --workload open_loop --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int = 0, hashseed: str = "0"):
    """One ``run.py`` process; returns (result line, report)."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900, check=True,
    )  # fmt: skip
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def sim_values(report: dict) -> dict:
    """Every simulated value a run reports: sim_* workload metrics and sim layers."""
    named = report["workload_metrics"]
    values = {k: v for k, v in named.items() if k.startswith("sim_")}
    rows = report["metrics"].items()
    values.update({k: row["value"] for k, row in rows if row["clock"] == "sim"})
    return values


def spread(args, spec: dict) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        result, _report = run(args.workload, seed, args.seconds)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)  # fmt: skip
        for name, row in result["metrics"].items():
            values.setdefault(name, []).append(row["value"])
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / median if median else float("inf")
        verdict = "ok" if share < bounds[name] / 3 else "WIDE"
        print(f"{name:18s} median {median:14.4f}  spread {share:6.3f}  bound {bounds[name]:.2f}  "
              f"{verdict}  {[round(v, 4) for v in series]}")  # fmt: skip
    return 0


def determinism(args, spec: dict) -> int:
    first, report_a = run(args.workload, args.seed, args.seconds, hashseed="0")
    _, report_b = run(args.workload, args.seed, args.seconds, hashseed="1")
    _, report_other = run(args.workload, args.seed + 1, args.seconds, hashseed="0")
    _, report_traced = run(args.workload, args.seed, args.seconds, trace=1, hashseed="0")
    a, b, traced = sim_values(report_a), sim_values(report_b), sim_values(report_traced)
    named_sim = {k for k in report_a["workload_metrics"] if k.startswith("sim_")}
    ok = True
    # A traced run reports per-layer metrics instead of the end-to-end ones;
    # the workload's own sim_* values appear in both.
    for label, other in (("PYTHONHASHSEED 0 vs 1", b), ("untraced vs traced", traced)):
        shared = sorted(set(a) & set(other))
        diff = {k: (a[k], other[k]) for k in shared if other[k] != a[k]}
        verdict = f"DIFFERENT {diff}" if diff else "identical"
        print(f"{label}: {verdict} over {len(shared)} sim values")
        ok = ok and not diff and named_sim <= set(shared)
    changed = sorted(k for k in a if sim_values(report_other).get(k) != a[k])
    print(f"seed {args.seed} vs {args.seed + 1}: {len(changed)} of {len(a)} sim values "
          f"change: {changed}")  # fmt: skip
    ok = ok and bool(changed)
    base = report_a["workload_metrics"]["sample_wall_s"]
    traced_wall = report_traced["workload_metrics"]["sample_wall_s"]
    estimate = report_traced["metrics"]["trace.overhead_frac"]["value"]
    print(f"tracing overhead on the sample: {traced_wall:.3f} s traced vs {base:.3f} s untraced "
          f"(+{100 * (traced_wall / base - 1):.1f}%); "
          f"estimated in-run {100 * estimate:.1f}%")  # fmt: skip
    print(f"top layers by self time: {report_traced['top_layers']}")
    print(f"correct: {first['correct']} failed_frac: {report_a['failed_frac']}")
    print("determinism:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("--workload", required=True)
    p_spread.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p_det = sub.add_parser("determinism")
    p_det.add_argument("--workload", required=True)
    p_det.add_argument("--seed", type=int, default=1)
    for p in (p_spread, p_det):
        p.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return {"spread": spread, "determinism": determinism}[args.command](args, spec)


if __name__ == "__main__":
    sys.exit(main())
