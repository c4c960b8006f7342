"""Run every workload and print every metric by name and unit.

    python3 perfbench/report.py [--seeds 0,1,2] [--out FILE]

Run from the root of a checkout.  For each workload it makes one
untraced run per seed, each ``run_seconds`` of BENCHMARK.json long, and
prints, per end-to-end metric, the median, the quartiles and their
distance as a share of the median next to the metric's bound, plus the
failed/attempted ratio.  Keep seed 0 in the list: it is the seed whose
outputs are checked against the golden digests.  Then it makes one
traced run (first seed) per workload and prints the per-layer table,
tracing overhead included.  Everything, with the environment, is
written to FILE (default perfbench/.work-report/results.json) for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and IQR as a share of median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--out", default=os.path.join(
        HERE, ".work-report", "results.json"))
    args = ap.parse_args()
    spec = run.benchmark_spec()
    seconds = spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    env = {**run.environment(), "seeds": seeds, "run_seconds": seconds}
    result_set = {"environment": env, "workloads": {}}
    print(f"environment: {json.dumps(env, sort_keys=True)}")

    for workload in run.WORKLOADS:
        runs = [one_run(workload, s, seconds, 0) for s in seeds]
        entry = {"runs": runs}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, ops_failed_ratio "
              f"{failed}/{attempted} = {failed / attempted:.4f}")
        print(f"  {'metric':<14}{'unit':<6}{'median':>12}{'q1':>12}"
              f"{'q3':>12}{'iqr/med':>9}{'bound':>7}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            flag = "" if rel <= m["bound"] / 3 else "  UNSTEADY"
            print(f"  {m['name']:<14}{m['unit']:<6}{med:>12.4f}{q1:>12.4f}"
                  f"{q3:>12.4f}{rel:>9.3f}{m['bound']:>7.2f}{flag}")
        traced = one_run(workload, seeds[0], seconds, 1)
        entry["traced"] = traced
        print(f"  per-layer (traced, seed {seeds[0]}; times are self times; "
              "layers that read 0 are left out):")
        for m in spec["per_layer"]:
            value = traced["metrics"][m["name"]]["value"]
            if value:
                print(f"    {m['name']:<40}{value:>16.6g} {m['unit']}")
        result_set["workloads"][workload] = entry

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result_set, fh, indent=1, sort_keys=True)
    print(f"\nwritten to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
