"""Fault-injection campaign: measure the debugger's localisation power.

The paper's Section III-D claims its three-level bisection finds "the
first instruction that executed incorrectly".  This harness turns that
claim into a number: seed N known bugs (:mod:`repro.faultinject`) into
the functional simulator, hand each faulty simulator to
:class:`~repro.debugtool.bisect.DifferentialDebugger` with the clean
simulator as reference, and score how deep each bisection got:

* ``exact_instruction`` — level 3 landed on the injected pc;
* ``level3_instruction_mismatch`` — level 3, but a different pc (the
  corruption was first *observed* elsewhere);
* ``level2_kernel_only`` / ``level1_api_only`` — bisection stopped
  short;
* ``masked`` — the injected corruption never reached any output buffer
  (screened out before bisection; not a debugger failure);
* ``false_clean`` — the fault changed output yet the debugger reported
  clean (a debugger bug — the campaign exists to prove there are none).

Liveness faults (lost memory response, lost stream-event signal) are
scored separately: the simulator must terminate in a *typed* error —
``TimingDeadlockError`` / ``CudaError`` — never hang.

Run it::

    python -m repro.harness.faultcampaign --faults 25 --seed 2019 \\
        --out results/fault_campaign.json
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

import numpy as np

from repro.cuda.runtime import CudaError, CudaRuntime
from repro.cudnn import (
    ConvFwdAlgo, Cudnn, build_application_binary)
from repro.debugtool.bisect import DifferentialDebugger
from repro.debugtool.instrument import (
    ENTRIES_PER_THREAD, instrumented_sites)
from repro.debugtool.ptxjit import run_application
from repro.errors import ReproError, TimingDeadlockError
from repro.faultinject import (
    FUNCTIONAL_SITES, FaultSpec, faulty_runtime_factory)
from repro.nn.lenet import LeNet, LeNetConfig
from repro.quirks import FIXED
from repro.timing.backend import TimingBackend
from repro.timing.config import TINY
from repro.workloads.conv_sample import ConvSampleConfig


# ---------------------------------------------------------------------------
# Workloads under test
# ---------------------------------------------------------------------------
def _lenet_workload():
    """Reduced LeNet forward pass over one image (Winograd conv1 +
    implicit-GEMM conv2, the paper's MNIST network at CI scale)."""
    config = LeNetConfig.reduced()
    rng = np.random.default_rng(2019)
    images = rng.standard_normal(
        (1, config.in_channels, config.input_hw, config.input_hw)
        ).astype(np.float32)

    def workload(dnn: Cudnn) -> None:
        model = LeNet(dnn, config)
        model.forward(images)
    return workload


def _conv_sample_workload(algos=(ConvFwdAlgo.IMPLICIT_GEMM,
                                 ConvFwdAlgo.WINOGRAD)):
    """conv_sample-style forward convolutions over *algos*."""
    config = ConvSampleConfig()
    x_desc, w_desc, conv = config.descriptors()
    rng = np.random.default_rng(config.seed)
    x = rng.standard_normal(x_desc.dims).astype(np.float32)
    w = (rng.standard_normal((config.filters, config.channels,
                              config.ksize, config.ksize))
         .astype(np.float32) * 0.25)

    def workload(dnn: Cudnn) -> None:
        rt = dnn.rt
        x_ptr = rt.upload_f32(x.ravel())
        w_ptr = rt.upload_f32(w.ravel())
        for algo in algos:
            dnn.convolution_forward(x_desc, x_ptr, w_desc, w_ptr, conv,
                                    algo)
    return workload


WORKLOADS = {
    "lenet": _lenet_workload,
    "conv_sample": _conv_sample_workload,
}


# ---------------------------------------------------------------------------
# Campaign configuration and scoring
# ---------------------------------------------------------------------------
@dataclass
class CampaignConfig:
    faults: int = 25
    seed: int = 2019
    workloads: tuple[str, ...] = ("lenet", "conv_sample")
    entries_per_thread: int = ENTRIES_PER_THREAD
    #: also probe the two liveness sites (timing/stream faults).
    include_liveness: bool = True


@dataclass
class FaultResult:
    spec: dict
    workload: str
    verdict: str
    injected_text: str = ""
    report: dict | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        data = asdict(self)
        return {key: value for key, value in data.items()
                if value not in (None, "")}


def _run_workload(factory, workload, binary
                  ) -> tuple[CudaRuntime, list[str]]:
    """(the runtime the pass ran on, launched kernel names); faults
    may raise."""
    launched: list[str] = []
    runtime, _ = run_application(
        factory, binary, workload,
        lambda runtime, dnn: runtime.before_kernel_hooks.append(
            lambda ordinal, name, grid, block, args:
            launched.append(name)))
    return runtime, launched


def _score(spec: FaultSpec, report) -> str:
    if report.clean:
        return "false_clean"
    if report.level < 2:
        return "level1_api_only"
    if report.level < 3:
        return "level2_kernel_only"
    if report.instruction.pc == spec.pc:
        return "exact_instruction"
    return "level3_instruction_mismatch"


# ---------------------------------------------------------------------------
# Liveness probes
# ---------------------------------------------------------------------------
def _probe_mem_drop(spec: FaultSpec, binary) -> FaultResult:
    """A lost read response must surface as TimingDeadlockError."""
    factory = faulty_runtime_factory(
        spec, backend_factory=lambda: TimingBackend(
            TINY, max_cycles=1_000_000))
    try:
        run_application(factory, binary, _conv_sample_workload(
            (ConvFwdAlgo.IMPLICIT_GEMM,)))
    except TimingDeadlockError as error:
        return FaultResult(spec=spec.to_dict(), workload="conv_sample",
                           verdict="typed_error", error=str(error))
    except ReproError as error:
        return FaultResult(spec=spec.to_dict(), workload="conv_sample",
                           verdict="wrong_error_type", error=str(error))
    return FaultResult(spec=spec.to_dict(), workload="conv_sample",
                       verdict="undetected")


def _probe_stream_lost(spec: FaultSpec, binary) -> FaultResult:
    """A lost record signal must surface as a CudaError deadlock."""
    runtime = faulty_runtime_factory(spec)()
    runtime.load_binary(binary)
    producer = runtime.stream_create()
    consumer = runtime.stream_create()
    data = np.ones(16, dtype=np.float32)
    ptr = runtime.upload_f32(data)
    # Enough record/wait pairs that losing the Nth record (any N the
    # spec's dyn_index selects, up to 3) wedges the consumer stream.
    for round_index in range(4):
        event = runtime.event_create()
        runtime.memcpy_h2d_async(ptr, data * (2 + round_index), producer)
        runtime.event_record(event, producer)
        runtime.stream_wait_event(consumer, event)
        runtime.memcpy_h2d_async(ptr, data * 7, consumer)
    try:
        runtime.synchronize()
    except CudaError as error:
        return FaultResult(spec=spec.to_dict(), workload="streams",
                           verdict="typed_error", error=str(error))
    return FaultResult(spec=spec.to_dict(), workload="streams",
                       verdict="undetected")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def run_campaign(config: CampaignConfig | None = None,
                 progress=None) -> dict:
    config = config or CampaignConfig()
    say = progress or (lambda message: None)
    binary = build_application_binary()
    rng = random.Random(config.seed)

    clean: dict[str, dict] = {}
    #: Per workload, all (kernel name, original pc) injection candidates.
    pools: dict[str, list[tuple[str, int]]] = {}
    #: Every clean pass loaded the same binary; any one's program
    #: resolves a kernel name.
    program = None
    for name in config.workloads:
        workload = WORKLOADS[name]()
        runtime, launched = _run_workload(CudaRuntime, workload, binary)
        program = runtime.program
        clean[name] = {"digest": runtime.global_mem.digest(),
                       "kernel_launches": len(launched)}
        pools[name] = [
            (kernel, pc) for kernel in sorted(set(launched))
            for pc in instrumented_sites(program.find_kernel(kernel))]
        say(f"{name}: {len(launched)} launches, "
            f"{len(pools[name])} candidate sites")

    results: list[FaultResult] = []
    for index in range(config.faults):
        site = FUNCTIONAL_SITES[index % len(FUNCTIONAL_SITES)]
        workload_name = config.workloads[
            rng.randrange(len(config.workloads))]
        kernel, pc = pools[workload_name][
            rng.randrange(len(pools[workload_name]))]
        spec = FaultSpec(
            fault_id=f"{site.split('_')[0][:4]}-{index:02d}",
            site=site, kernel=kernel, pc=pc,
            bit=rng.randrange(32), lane=rng.randrange(8),
            seed=rng.randrange(1 << 30))
        injected = program.find_kernel(kernel).body[pc]
        factory = faulty_runtime_factory(spec)
        workload = WORKLOADS[workload_name]()
        try:
            runtime, _ = _run_workload(factory, workload, binary)
            effective = (runtime.global_mem.digest()
                         != clean[workload_name]["digest"])
        except ReproError:
            effective = True  # crashing the suspect *is* a divergence
        if not effective:
            results.append(FaultResult(
                spec=spec.to_dict(), workload=workload_name,
                verdict="masked", injected_text=injected.text.strip()))
            say(f"{spec.fault_id}: masked")
            continue
        debugger = DifferentialDebugger(
            workload, suspect_factory=factory,
            reference_quirks=FIXED, binary=binary,
            entries_per_thread=config.entries_per_thread)
        report = debugger.run()
        verdict = _score(spec, report)
        results.append(FaultResult(
            spec=spec.to_dict(), workload=workload_name,
            verdict=verdict, injected_text=injected.text.strip(),
            report=report.to_dict()))
        say(f"{spec.fault_id}: {verdict} "
            f"({kernel} pc={pc} {injected.text.strip()!r})")

    if config.include_liveness:
        for index in range(2):
            results.append(_probe_mem_drop(FaultSpec(
                fault_id=f"memd-{index:02d}", site="mem_drop_response",
                dyn_index=rng.randrange(16)), binary))
            say(f"{results[-1].spec['fault_id']}: "
                f"{results[-1].verdict}")
            results.append(_probe_stream_lost(FaultSpec(
                fault_id=f"strm-{index:02d}", site="stream_event_lost",
                dyn_index=index), binary))
            say(f"{results[-1].spec['fault_id']}: "
                f"{results[-1].verdict}")

    functional = [r for r in results
                  if r.spec["site"] in FUNCTIONAL_SITES]
    liveness = [r for r in results
                if r.spec["site"] not in FUNCTIONAL_SITES]
    effective = [r for r in functional if r.verdict != "masked"]
    exact = sum(1 for r in effective
                if r.verdict == "exact_instruction")
    scoreboard = {
        "config": {
            "faults": config.faults,
            "seed": config.seed,
            "workloads": list(config.workloads),
            "entries_per_thread": config.entries_per_thread,
        },
        "clean": clean,
        "summary": {
            "functional_total": len(functional),
            "masked": len(functional) - len(effective),
            "effective": len(effective),
            "exact_instruction": exact,
            "level3_instruction_mismatch": sum(
                1 for r in effective
                if r.verdict == "level3_instruction_mismatch"),
            "level2_kernel_only": sum(
                1 for r in effective
                if r.verdict == "level2_kernel_only"),
            "level1_api_only": sum(
                1 for r in effective
                if r.verdict == "level1_api_only"),
            "false_clean": sum(
                1 for r in effective if r.verdict == "false_clean"),
            "exact_rate": round(exact / len(effective), 4)
            if effective else None,
            "liveness_total": len(liveness),
            "liveness_typed_errors": sum(
                1 for r in liveness if r.verdict == "typed_error"),
        },
        "faults": [r.to_dict() for r in results],
    }
    return scoreboard


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Seed simulator bugs and score the three-level "
                    "differential debugger against them.")
    parser.add_argument("--faults", type=int, default=25)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--workloads", nargs="+",
                        default=["lenet", "conv_sample"],
                        choices=sorted(WORKLOADS))
    parser.add_argument("--no-liveness", action="store_true",
                        help="skip the timing/stream liveness probes")
    parser.add_argument("--out", default=None,
                        help="write the JSON scoreboard here")
    args = parser.parse_args(argv)

    config = CampaignConfig(
        faults=args.faults, seed=args.seed,
        workloads=tuple(args.workloads),
        include_liveness=not args.no_liveness)
    scoreboard = run_campaign(config, progress=print)
    text = json.dumps(scoreboard, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    summary = scoreboard["summary"]
    print("---")
    for key in sorted(summary):
        print(f"{key}: {summary[key]}")
    failed = (summary["false_clean"] > 0
              or summary["liveness_typed_errors"]
              < summary["liveness_total"])
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
