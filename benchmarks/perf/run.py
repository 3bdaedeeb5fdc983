"""The repo benchmark: six workloads, end-to-end metrics, a per-layer ledger.

One run of one workload (the form the driver calls)::

    python3 benchmarks/perf/run.py --workload lenet_megablock --seed 7 \\
        --seconds 10 --trace 0

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1`` (a layer the workload does not
cross reads 0).  ``--trace 1`` also writes
``results/trace-<workload>.json`` for Perfetto.  The exit code is 1
when an operation failed or an output check did not hold.

Every workload, each in a fresh interpreter, untraced and traced, on
seeds S .. S+N-1, as a table and a results file ``compare.py`` reads::

    python3 benchmarks/perf/run.py --all --seed S --repeat N --out FILE

README.md records why each workload and metric exists.
"""

import time

#: Interpreter start, as nearly as a script can see it: set-up time
#: counts the imports below it, ``repro``'s included.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    bench = load_json(ROOT / "BENCHMARK.json")
    expected = load_json(HERE / "expected.json")
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"{src}/repro is missing: there is no program to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Child interpreters (cold-start jobs, shard workers) import repro too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    # Scratch stays inside the checkout; the plan cache starts empty on
    # every run and no other REPRO_* variable is set, so the program
    # runs with the defaults its users get.
    (HERE / ".work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=HERE / ".work", prefix=f"{name}-"))
    os.environ["REPRO_CACHE_DIR"] = str(work_dir / "cache")

    from spans import SpanRecorder
    from workloads import WORKLOADS, Checks

    checks = Checks(expected[name], seed == expected["default_seed"])
    recorder = SpanRecorder() if traced else None
    workload = WORKLOADS[name](seed, checks, recorder, work_dir)
    try:
        workload.setup()
        setup_s = time.perf_counter() - T0
        if traced:
            values = dict.fromkeys(
                (metric["name"] for metric in bench["per_layer"]), 0.0)
            layers = workload.measure_traced(seconds)
            unknown = sorted(set(layers) - set(values))
            if unknown:
                raise KeyError(f"not in BENCHMARK.json per_layer: {unknown}")
            values.update(layers)
            values["failed_share"] = len(checks.failures) / checks.attempted
        else:
            walls, warp_instr_per_s = workload.measure(seconds)
            values = {"setup_s": setup_s,
                      "warp_instr_per_s": warp_instr_per_s,
                      "op_latency_p50_s": statistics.median(walls)}
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if traced:
        (HERE / "results").mkdir(exist_ok=True)
        recorder.write_chrome_trace(HERE / "results" / f"trace-{name}.json")
    else:
        # Children are reaped by now; ru_maxrss is KiB on Linux.
        values["peak_rss_mb"] = sum(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024
    for failure in checks.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    units = {metric["name"]: metric["unit"]
             for metric in bench["per_layer" if traced else "end_to_end"]}
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()}}))
    return 1 if checks.failures else 0


def run_all(seed: int, seconds: float, traces: list[int], repeat: int,
            out: str | None) -> int:
    bench = load_json(ROOT / "BENCHMARK.json")
    runs = []
    for run_seed in range(seed, seed + repeat):
        for workload in bench["workloads"]:
            for trace in traces:
                proc = subprocess.run(
                    [sys.executable, __file__,
                     "--workload", workload["name"], "--seed", str(run_seed),
                     "--seconds", str(seconds), "--trace", str(trace)],
                    stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.splitlines()
                if proc.returncode not in (0, 1) or not lines:
                    print(f"{workload['name']} seed {run_seed} trace {trace}:"
                          f" no result, exit code {proc.returncode}")
                    return 2
                result = json.loads(lines[-1])
                runs.append({"workload": workload["name"], "seed": run_seed,
                             "trace": trace, "seconds": seconds, **result})
                print(f"{workload['name']} seed={run_seed} trace={trace} "
                      f"correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}")
                for metric, entry in result["metrics"].items():
                    print(f"  {metric:42s} {entry['value']:>16.6g} "
                          f"{entry['unit']}")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs}, handle, indent=1)
    return 0 if all(run["correct"] for run in runs) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="run this one workload")
    which.add_argument("--all", action="store_true",
                       help="run every workload, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: expected.json's)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: spans, profile and "
                             "per-layer metrics (default: 0, both with --all)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: this many seeds, from --seed up")
    parser.add_argument("--out", help="with --all: write the runs here")
    args = parser.parse_args()
    seed = (args.seed if args.seed is not None
            else load_json(HERE / "expected.json")["default_seed"])
    seconds = (args.seconds if args.seconds is not None
               else load_json(ROOT / "BENCHMARK.json")["run_seconds"])
    if args.all:
        traces = [0, 1] if args.trace is None else [args.trace]
        return run_all(seed, seconds, traces, args.repeat, args.out)
    return run_one(args.workload, seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
