"""Self-tests of the benchmark harness.

    python -m pytest benchmarks/perf -q

They run every workload for a one-second window (the workloads' own
minimum operation counts apply), two at a time, so they check the
harness's outputs and checks, never its timings.
"""

import itertools
import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import compare
from spans import MODULE_BUCKETS, SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]
SEED = EXPECTED["default_seed"]

#: Per-layer metrics each workload's own layers must report (non-zero).
OWN_LAYERS = {
    "lenet_megablock": ["functional.execute_s", "functional.warp_instr",
                        "cudnn.host_s", "kernelcache.stores",
                        "self_s.functional.megablock", "self_s.numpy"],
    "conv_scalar": ["functional.execute_s", "hooked_warp_instr_per_s",
                    "functional.hooked_execute_s", "functional.hook_calls",
                    "self_s.functional.superblock"],
    "lenet_timing": ["sim_cycles", "sim_cycles_per_s", "timing.execute_s",
                     "sim_vs_hwmodel_err_pct", "timing.l1_hits",
                     "timing.dram_reads", "timing.functional_share.fastpath",
                     "self_s.timing.shader", "self_s.functional.fastpath"],
    "cold_start": ["cold_job_wall_s", "warm_disk_job_wall_s",
                   "cold.import_s", "cuda.load_binary_s",
                   "cold.first_forward_s", "ptx.parse_s",
                   "analysis.analyze_s", "functional.megaplan_compile_s",
                   "functional.kernelcache_load_s", "kernelcache.hits"],
    "service_mix": ["jobs_per_s", "job_latency_p50_s", "job_latency_p95_s",
                    "rest.roundtrip_s_p50", "service.submit_s_p50",
                    "service.queue_wait_s_p50", "service.run_s_p50.saxpy",
                    "service.executed", "service.two_client_jobs_per_s",
                    "service.two_client_speedup"],
    "sharded_blend": ["pool.execute_s", "pool.first_launch_s",
                      "pool.speedup_over_inprocess", "self_s.service.pool"],
}
IN_PROCESS = ("lenet_megablock", "conv_scalar", "lenet_timing",
              "sharded_blend")


def run(workload: str, trace: int, *, seed: int = SEED, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "perf" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="session")
def quick_runs():
    """Every workload untraced and traced at the default seed, plus a
    repeat of the traced runs that carry the exact metrics."""
    jobs = [(workload, trace, "first")
            for workload in WORKLOADS for trace in (0, 1)]
    jobs += [("lenet_timing", 1, "repeat"), ("conv_scalar", 1, "repeat")]
    with ThreadPoolExecutor(2) as pool:
        procs = list(pool.map(lambda job: run(job[0], job[1]), jobs))
    return {job: result_of(proc) for job, proc in zip(jobs, procs)}


def test_benchmark_json_meets_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/perf"]
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert compare.EXACT <= {m["name"] for m in BENCH["per_layer"]}
    assert {f"self_s.{bucket}" for bucket in MODULE_BUCKETS} <= set(names)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_emits_every_metric(quick_runs, workload, trace):
    result = quick_runs[workload, trace, "first"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_the_workloads_own_layers(quick_runs, workload):
    metrics = quick_runs[workload, 1, "first"]["metrics"]
    silent = [name for name in OWN_LAYERS[workload]
              if not metrics[name]["value"] > 0]
    assert not silent
    assert metrics["failed_share"]["value"] == 0
    self_time = sum(entry["value"] for name, entry in metrics.items()
                    if name.startswith("self_s."))
    if workload in IN_PROCESS:
        # self_s.other takes the remainder, so the rows sum to the pass.
        assert self_time == pytest.approx(
            metrics["profiled_pass_s"]["value"], rel=1e-6)
        assert metrics["trace.overhead_ratio"]["value"] > 0
    else:
        assert self_time == 0
    trace = json.loads((HERE / "results" / f"trace-{workload}.json")
                       .read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans and all(e["dur"] >= 0 and "op" in e["args"] for e in spans)


def test_exact_metrics_repeat_exactly(quick_runs):
    for workload in ("lenet_timing", "conv_scalar"):
        first = quick_runs[workload, 1, "first"]["metrics"]
        repeat = quick_runs[workload, 1, "repeat"]["metrics"]
        for name in compare.EXACT:
            assert first[name]["value"] == repeat[name]["value"], name
    timing = quick_runs["lenet_timing", 1, "first"]["metrics"]
    assert timing["sim_cycles"]["value"] \
        == EXPECTED["lenet_timing"]["sim_cycles"]
    assert quick_runs["conv_scalar", 1, "first"]["metrics"][
        "functional.hook_calls"]["value"] \
        == EXPECTED["conv_scalar"]["warp_instr"]


def test_job_mix_follows_the_seed():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import ServiceMix
    finally:
        sys.path.remove(str(ROOT / "src"))

    def mix(seed):
        return list(itertools.islice(
            ServiceMix(seed, None, None, None).jobs(), 200))

    assert mix(3) == mix(3)
    assert mix(3) != mix(4)
    # Every block of 40 holds the same work: 20 saxpy, 12 lenet and 8
    # conv submissions, a quarter of each kind repeating an earlier job.
    for block in (mix(3)[:40], mix(3)[160:], mix(4)[40:80]):
        kinds = [kind for kind, _config, _seed in block]
        assert [kinds.count(kind) for kind in ("saxpy", "lenet", "conv")] \
            == [20, 12, 8]
    repeats = 200 - len({(kind, seed) for kind, _config, seed in mix(3)})
    assert 45 <= repeats <= 50   # a kind's first repeat may have no earlier job


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    """What the driver sees: the committed files, somewhere else."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(
                        ".work", "__pycache__", "trace-*.json"))
    shutil.copytree(ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def edit_expected(checkout: Path, edit) -> None:
    path = checkout / "benchmarks" / "perf" / "expected.json"
    expected = json.loads((HERE / "expected.json").read_text())
    edit(expected)
    path.write_text(json.dumps(expected))


def test_wrong_expected_value_fails_the_run(checkout):
    def edit(expected):
        expected["sharded_blend"]["warp_instr"] += 1
    edit_expected(checkout, edit)
    proc = run("sharded_blend", 0, root=checkout)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert "warp_instr" in proc.stderr


def test_another_seed_makes_other_inputs_and_still_passes(checkout):
    edit_expected(checkout, lambda expected: None)
    assert result_of(run("sharded_blend", 0, seed=SEED + 1,
                         root=checkout))["correct"]

    # Hold seed+1's output to the digest committed for the default seed.
    def edit(expected):
        expected["default_seed"] = SEED + 1
    edit_expected(checkout, edit)
    proc = run("sharded_blend", 0, seed=SEED + 1, root=checkout)
    assert proc.returncode == 1 and "output_sha256" in proc.stderr


def test_directory_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run("lenet_megablock", 0, root=tmp_path)
    assert proc.returncode not in (0, 1)
    assert not proc.stdout.strip()


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "higher", 0.10) == "ok"
    assert compare.verdict(
        steady, [v * 0.8 for v in steady], "higher", 0.10) == "regressed"
    assert compare.verdict(
        steady, [v * 0.8 for v in steady], "lower", 0.10) == "ok"
    assert compare.verdict(
        steady, [v * 1.2 for v in steady], "lower", 0.10) == "regressed"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert compare.verdict(noisy, steady, "higher", 0.10) == "unresolved"
    # Wide spread, but every run of B beats every run of A: resolved.
    assert compare.verdict(
        noisy, [v * 3 for v in noisy], "higher", 0.10) == "ok"


def test_compare_exact_metrics_by_equality(capsys):
    def traced(cycles):
        return [{"workload": "lenet_timing", "seed": 1, "trace": 1,
                 "failed": 0,
                 "metrics": {"sim_cycles": {"value": cycles}}}]
    assert compare.compare(traced(16977), traced(16977), BENCH) == 0
    assert compare.compare(traced(16977), traced(16978), BENCH) == 1
    assert "differs" in capsys.readouterr().out


def test_span_nesting_and_trace(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("pass", op="pass-0") as outer:
        with recorder.span("functional.execute") as inner:
            pass
    assert inner.parent is outer and inner.op == "pass-0"
    assert recorder.covered() == {id(outer): inner.duration}
    recorder.write_chrome_trace(tmp_path / "trace.json")
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    child = next(e for e in events if e["name"] == "functional.execute")
    parent = next(e for e in events if e["name"] == "pass")
    assert child["args"]["parent"] == parent["args"]["id"]
