"""Compare two result sets written by report.py.

    python3 perfbench/compare.py BASE.json CHANGE.json

Refuses (exit 2) when the two environments differ: numbers from another
Python, core count, platform, seed list or run length are not compared.
Otherwise prints, per workload and end-to-end metric, both medians, the
change as a share of the base median, the base's own quartile spread
and the bound, and marks a metric WORSE when the change's median is
worse than the base's by more than the bound, UNRESOLVED when the base's
spread is wider than the bound.  The exact counts of the traced runs
(instances, hits, failures, corpus sizes, output bytes) must be equal;
a difference is printed as COUNTS DIFFER.  A workload with a failed
operation in either set (a wrong exit code, an alarm, or output that
the golden digests, repeats, the other worker count or the integer
engine contradict) is printed as FAILED.  Exit 1 when anything is
WORSE, differs or FAILED.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import report  # noqa: E402
import run  # noqa: E402

# counts that describe what was scanned and printed, not how fast
EXACT = ("claims.instances", "claims.hypothesis_hits", "claims.failures",
         "corpus.families_scanned", "corpus.distinct_spaces",
         "cli.emit_bytes")


def _runs(entry: dict) -> list[dict]:
    """The untraced runs of one workload and its traced run."""
    return entry["runs"] + ([entry["traced"]] if "traced" in entry else [])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            sets.append(json.load(fh))
    base, change = sets
    if base["environment"] != change["environment"]:
        print("refusing to compare: the environments differ", file=sys.stderr)
        for key in sorted(set(base["environment"]) | set(change["environment"])):
            a = base["environment"].get(key)
            b = change["environment"].get(key)
            if a != b:
                print(f"  {key}: {a!r} vs {b!r}", file=sys.stderr)
        return 2
    spec = run.benchmark_spec()
    bad = False
    for workload, entry in base["workloads"].items():
        other = change["workloads"].get(workload)
        if other is None:
            print(f"{workload}: missing from {argv[1]}")
            bad = True
            continue
        print(workload)
        for label, runs in ((argv[0], _runs(entry)), (argv[1], _runs(other))):
            failed = sum(r["failed"] for r in runs)
            if failed or not all(r["correct"] for r in runs):
                attempted = sum(r["attempted"] for r in runs)
                print(f"  FAILED {label}: {failed} of {attempted} "
                      "operations failed")
                bad = True
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in entry["runs"]]
            b = [r["metrics"][name]["value"] for r in other["runs"]]
            med_a, _, _, rel = report.spread(a)
            med_b = statistics.median(b)
            delta = (med_b - med_a) / med_a
            worse = delta > bound if m["better"] == "lower" else -delta > bound
            verdict = "WORSE" if worse else ("UNRESOLVED" if rel > bound
                                             else "ok")
            bad |= worse
            print(f"  {name:<14}{med_a:>12.4f} -> {med_b:<12.4f}"
                  f"{delta:+8.1%}  spread {rel:.3f}  bound {bound:.2f}  "
                  f"{verdict}")
        if "traced" in entry and "traced" in other:
            for name in EXACT:
                a = entry["traced"]["metrics"][name]["value"]
                b = other["traced"]["metrics"][name]["value"]
                if a != b:
                    print(f"  COUNTS DIFFER {name}: {a} -> {b}")
                    bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
