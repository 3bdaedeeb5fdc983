"""Section V case-study drivers: conv_sample x algorithm x direction.

Each driver runs one (direction, algorithm) pair of the paper's sweep on
the timing model and returns a merged :class:`FigureReport` — the data
behind Figures 9-25 — plus the per-kernel profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aerialvision.report import FigureReport, kernel_figures, merge_reports
from repro.cuda.runtime import CudaRuntime, KernelProfile
from repro.cudnn import (
    ALGORITHMS, ConvBwdDataAlgo, ConvBwdFilterAlgo, ConvFwdAlgo, supported)
from repro.timing.backend import TimingBackend
from repro.timing.config import GPUConfig, TINY
from repro.workloads.conv_sample import ConvSample, ConvSampleConfig

Direction = str  # "fwd" | "bwd_data" | "bwd_filter"


@dataclass
class StudyResult:
    direction: Direction
    algo: str
    profiles: list[KernelProfile]
    report: FigureReport
    kernel_reports: dict[str, FigureReport] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return sum(p.result.cycles for p in self.profiles)

    @property
    def total_instructions(self) -> int:
        return sum(p.result.stats.get("instructions", 0)
                   for p in self.profiles)

    @property
    def mean_ipc(self) -> float:
        cycles = self.total_cycles
        return self.total_instructions / cycles if cycles else 0.0


def run_case(direction: Direction, algo, *,
             gpu: GPUConfig = TINY,
             sample: ConvSampleConfig | None = None,
             reconverge_at_exit: bool = False) -> StudyResult:
    """Run one conv_sample case on the performance model."""
    runtime = CudaRuntime(backend=TimingBackend(
        gpu, reconverge_at_exit=reconverge_at_exit))
    workload = ConvSample(runtime, sample)
    if direction == "fwd":
        profiles = workload.run_forward(algo)
    elif direction == "bwd_data":
        profiles = workload.run_backward_data(algo)
    elif direction == "bwd_filter":
        profiles = workload.run_backward_filter(algo)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    reports = []
    kernel_reports: dict[str, FigureReport] = {}
    for index, profile in enumerate(profiles):
        if profile.result.samples is None:
            continue
        report = kernel_figures(f"{profile.name}#{index}",
                                profile.result.samples)
        reports.append(report)
        kernel_reports.setdefault(profile.name, report)
    merged = merge_reports(f"{direction}-{algo.value}", reports)
    return StudyResult(direction=direction, algo=algo.value,
                       profiles=profiles, report=merged,
                       kernel_reports=kernel_reports)


def sweep(directions: dict[Direction, list] | None = None, *,
          gpu: GPUConfig = TINY,
          sample: ConvSampleConfig | None = None
          ) -> dict[tuple[Direction, str], StudyResult]:
    """The paper's full Section V sweep: by default every algorithm of
    each direction's table that the sample's geometry supports."""
    if directions is None:
        _, w_desc, conv = (sample or ConvSampleConfig()).descriptors()
        directions = {direction: supported(direction, w_desc, conv)
                      for direction in ALGORITHMS}
    results: dict[tuple[Direction, str], StudyResult] = {}
    for direction, algos in directions.items():
        for algo in algos:
            result = run_case(direction, algo, gpu=gpu, sample=sample)
            results[(direction, algo.value)] = result
    return results


__all__ = ["ConvBwdDataAlgo", "ConvBwdFilterAlgo", "ConvFwdAlgo",
           "StudyResult", "run_case", "sweep"]
