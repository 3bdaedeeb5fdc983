"""Compare two result files written by ``run.py --all --out``.

    python3 benchmarks/perf/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of the same
commit), B the change.  One row per workload and end-to-end metric:
both medians with their quartiles and run counts, the ratio B/A, and a
verdict against the bound ``BENCHMARK.json`` fixes for the metric:

``ok``          B's median is not worse than A's by more than the bound
``regressed``   it is
``unresolved``  a side's spread (quartile distance over median) is wider
                than the bound and the two sides' runs overlap, so the
                runs cannot tell

Simulated and counted metrics (:data:`EXACT`) from traced runs compare
by equality per workload and seed: ``ok`` or ``differs``.  The other
per-layer metrics a workload reports are listed with both medians and
their ratio, without a verdict: they have no bound.  The exit code is 1
when a row is ``regressed`` or ``differs`` or a run of B failed an
output check.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Per-layer metrics that are simulated or counted, never timed: a
#: simulator-speed change must leave every one identical for a seed.
EXACT = frozenset(
    ["sim_cycles", "sim_vs_hwmodel_err_pct", "functional.hook_calls",
     "functional.megaplan_eligible_share"]
    + [f"{layer}.{count}" for layer in ("functional", "timing", "pool")
       for count in ("launches", "warp_instr")]
    + [f"kernelcache.{name}"
       for name in ("hits", "misses", "stores", "discards")]
    + [f"timing.{name}" for name in (
        "l1_hits", "l1_misses", "l2_hits", "l2_misses", "dram_reads",
        "dram_writes", "dram_row_hits", "stall_mem_cycles",
        "stall_alu_cycles", "idle_scheduler_cycles", "noc_flits",
        "active_sm_cycles")])


def load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, middle, third = statistics.quantiles(values, n=4)
    return first, middle, third


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    spread = max((a3 - a1) / a2, (b3 - b1) / b2)
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if spread > bound and overlap:
        return "unresolved"
    worse_by = (b2 - a2) / a2 if better == "lower" else (a2 - b2) / a2
    return "regressed" if worse_by > bound else "ok"


def values_of(runs: list[dict], workload: str, trace: int,
              metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs
            if run["workload"] == workload and run["trace"] == trace
            and metric in run["metrics"]]


def compare(a_runs: list[dict], b_runs: list[dict], bench: dict) -> int:
    bad = 0
    print(f"{'workload':16s} {'metric':18s} {'A median [q1, q3] n':>38s} "
          f"{'B median [q1, q3] n':>38s} {'B/A':>7s} {'bound':>6s} verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            a = values_of(a_runs, workload, 0, metric["name"])
            b = values_of(b_runs, workload, 0, metric["name"])
            if not a or not b:
                continue
            row = verdict(a, b, metric["better"], metric["bound"])
            bad += row == "regressed"
            sides = [f"{middle:.5g} [{first:.5g}, {third:.5g}] {len(values)}"
                     for values in (a, b)
                     for first, middle, third in (quartiles(values),)]
            ratio = statistics.median(b) / statistics.median(a)
            print(f"{workload:16s} {metric['name']:18s} {sides[0]:>38s} "
                  f"{sides[1]:>38s} {ratio:7.3f} {metric['bound']:6.2f} "
                  f"{row}")
        # Exact metrics: one value per (seed, metric) across both sides.
        seen: dict[tuple, set] = {}
        for side, runs in (("A", a_runs), ("B", b_runs)):
            for run in runs:
                if run["workload"] != workload or run["trace"] != 1:
                    continue
                for name in EXACT & run["metrics"].keys():
                    seen.setdefault((run["seed"], name), set()).add(
                        run["metrics"][name]["value"])
        differing = sorted(key for key, values in seen.items()
                           if len(values) > 1)
        bad += len(differing)
        for seed, name in differing:
            print(f"{workload:16s} {name} seed {seed}: differs "
                  f"{sorted(seen[seed, name])}")
        if seen and not differing:
            print(f"{workload:16s} {len(seen)} exact (seed, metric) values: "
                  "ok")
        for metric in bench["per_layer"]:
            a = values_of(a_runs, workload, 1, metric["name"])
            b = values_of(b_runs, workload, 1, metric["name"])
            if metric["name"] in EXACT or not any(a) or not any(b):
                continue
            a2, b2 = statistics.median(a), statistics.median(b)
            print(f"{workload:16s}   {metric['name']:38s} A {a2:<12.5g} "
                  f"B {b2:<12.5g} B/A {b2 / a2 if a2 else 0:6.3f}  "
                  f"{metric['unit']}")
        for side, runs in (("A", a_runs), ("B", b_runs)):
            failed = sum(run["failed"] for run in runs
                         if run["workload"] == workload)
            if failed:
                print(f"{workload:16s} {side}: {failed} failed operations")
                bad += side == "B"
    return 1 if bad else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return compare(load_runs(sys.argv[1]), load_runs(sys.argv[2]), bench)


if __name__ == "__main__":
    sys.exit(main())
