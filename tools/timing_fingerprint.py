"""Digest what performance mode simulated, launch by launch.

A timing-model optimisation must leave every simulated number as it
was.  The ``results/fig*`` artifacts say so for what the figures print;
a digest says so for every launch.  Each launch's digest is SHA-256 over
its ``KernelStats`` dict and the six ``SampleBlock`` series AerialVision
plots; a case's digest is SHA-256 over its launches' digests.

    python tools/timing_fingerprint.py lenet-gtx1050-lrr
    python tools/timing_fingerprint.py fig09-fft --check

``--check`` compares against :data:`GOLDEN` (computed on the commit
before the event-driven issue loop) and exits 1 on a mismatch.
``tests/test_timing_golden.py`` runs the quick cases the same way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "benchmarks"))

from experiments import GPU, SAMPLE, run_lenet  # noqa: E402
from repro.cuda import CudaRuntime  # noqa: E402
from repro.cudnn import ConvFwdAlgo  # noqa: E402
from repro.timing import GTX1050, TINY, TimingBackend  # noqa: E402
from repro.timing.config import GTX1080TI, scaled  # noqa: E402
from repro.timing.stats import ISSUE_BUCKETS  # noqa: E402
from repro.workloads.conv_sample import (  # noqa: E402
    ConvSample, ConvSampleConfig)
from repro.workloads.predicated_blend import (  # noqa: E402
    PredicatedBlend, PredicatedBlendConfig)


def run_blend(runtime: CudaRuntime) -> None:
    """Barriers under a live (execution-driven) source."""
    PredicatedBlend(runtime, PredicatedBlendConfig(ctas=32)).run()


def _fft(sample: ConvSampleConfig):
    def run(runtime: CudaRuntime) -> None:
        ConvSample(runtime, sample).run_forward(ConvFwdAlgo.FFT)
    return run


#: case -> (GPU config, workload).  ``fig09-fft`` is the paper's DRAM
#: case study (the ``fig09_10`` row of benchmarks/experiments.py) and
#: takes seconds; the rest are sized for tier-1.
CASES = {
    "lenet-gtx1050-lrr": (GTX1050, run_lenet),
    "lenet-gtx1050-gto": (replace(GTX1050, warp_scheduler="gto"), run_lenet),
    "lenet-gtx1050-fcfs": (replace(GTX1050, dram_scheduler="fcfs"), run_lenet),
    "lenet-tiny": (TINY, run_lenet),
    "lenet-gtx1080ti": (GTX1080TI, run_lenet),
    "blend32-tiny": (TINY, run_blend),
    "fft-small": (scaled(GTX1080TI, 0.25), _fft(ConvSampleConfig(
        batch=1, channels=2, height=8, width=8, filters=2))),
    "fig09-fft": (GPU, _fft(SAMPLE)),
}

#: case -> (total simulated cycles, case digest), from the parent commit.
GOLDEN: dict[str, tuple[int, str]] = {
    "lenet-gtx1050-lrr": (
        16977,
        "b74e9547d9a316de1044e16d829d04bbbe4fb155ea96bb32e5e76e1f984235d1"),
    "lenet-gtx1050-gto": (
        17373,
        "3f80ec825dc43412cfa932a8708eb732e09d276baec19d7bba9d146178bf2fe2"),
    "lenet-gtx1050-fcfs": (
        17346,
        "e67e1633c78cda61cb4df766b87669e7e35efbab9110b8252e010a53990691e6"),
    "lenet-tiny": (
        24120,
        "887a8b7df8a840791e7d55fc9046a9419a569843a5998dc68054e85126d204e0"),
    "lenet-gtx1080ti": (
        16576,
        "a94dff88535f23586f3d2c6383fd80833a6e16649c050de1cb8a9d2fceddab42"),
    "blend32-tiny": (
        7231,
        "d9fe49ea7d448cf261aca93bf5deea12b0111ccce926e40927988416f29c8452"),
    "fft-small": (
        204446,
        "5d97ca87f6b891fc43d533f15d2c245803eeb691ef4fe42b0e3f766aa8b15d0c"),
    "fig09-fft": (
        195086,
        "0fa3d9084bbb9faf86a1ab846da0e3878f76f1c5d4883286bcc9db407387368d"),
}


def launch_digest(profile) -> str:
    """SHA-256 of one launch's stats and interval series."""
    result = profile.result
    samples = result.samples
    issue = samples.warp_issue_matrix()
    digest = hashlib.sha256(
        json.dumps(result.stats, sort_keys=True).encode())
    for series in (samples.global_ipc_series(),
                   samples.shader_ipc_matrix(),
                   samples.dram_efficiency_matrix(),
                   samples.dram_utilization_matrix(),
                   samples.bank_access_matrix(),
                   *(issue[bucket] for bucket in ISSUE_BUCKETS)):
        digest.update(repr(series.shape).encode())
        digest.update(series.tobytes())
    return digest.hexdigest()


def fingerprint(case: str) -> tuple[int, str, list[tuple[str, int, str]]]:
    """Run *case*: (total cycles, case digest, per-launch
    ``(kernel, cycles, digest)``)."""
    config, workload = CASES[case]
    runtime = CudaRuntime(backend=TimingBackend(config))
    workload(runtime)
    runtime.synchronize()
    launches = [(profile.name, profile.result.cycles,
                 launch_digest(profile)) for profile in runtime.profiles]
    total = hashlib.sha256(
        "".join(digest for _, _, digest in launches).encode()).hexdigest()
    return sum(cycles for _, cycles, _ in launches), total, launches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("case", choices=sorted(CASES))
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the case matches GOLDEN")
    args = parser.parse_args(argv)
    cycles, total, launches = fingerprint(args.case)
    for kernel, launch_cycles, digest in launches:
        print(f"{digest}  {launch_cycles:>8}  {kernel}")
    print(f"{total}  {cycles:>8}  {args.case}")
    if args.check and GOLDEN.get(args.case) != (cycles, total):
        print(f"MISMATCH: expected {GOLDEN.get(args.case)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
