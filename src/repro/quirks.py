"""Re-injectable historical GPGPU-Sim behaviours ("legacy quirks").

The paper's Section III is a catalogue of bugs and missing features the
authors found while bringing up cuDNN on GPGPU-Sim.  Each is modelled
here as a switch that restores the *pre-fix* behaviour, so the debugging
methodology of Section III-D can be demonstrated end-to-end: enable a
quirk, watch the workload mis-execute, and let the bisection tool locate
the first faulty kernel and instruction.

All switches default to the *fixed* behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The flags that change instruction semantics.
INSTRUCTION_QUIRKS = ("rem_ignores_type", "bfe_unsigned_only",
                      "brev_unsupported", "fp16_unsupported")


@dataclass(frozen=True)
class LegacyQuirks:
    """Switches restoring historical GPGPU-Sim bugs/limitations."""

    #: ``rem`` always computes ``src1.u64 % src2.u64`` regardless of the
    #: type specifier — the bug found in ``fft2d_r2c_32x32`` via
    #: ``rem.u32 %r149, %r2, %r121`` (Section III-D).  The flag also
    #: restores the mechanism that made the bug *observable*: GPGPU-Sim
    #: instruction implementations build a fresh stack-allocated
    #: ``ptx_reg_t`` union and only set its low member, so every
    #: sub-64-bit register write carries uninitialised upper bytes into
    #: the register file.  Correct (typed) readers never notice; the
    #: u64-blind ``rem`` reads the garbage and corrupts results.
    rem_ignores_type: bool = False

    #: ``bfe`` ignores signedness — "subtle errors for signed inputs"
    #: found by differential coverage analysis (Section III-D).
    bfe_unsigned_only: bool = False

    #: ``brev`` (bit reverse, used by FFT convolution kernels) is not
    #: implemented (Section III-B).
    brev_unsupported: bool = False

    #: ``cudaStreamWaitEvent`` is not implemented (Section III-B).
    stream_wait_event_unsupported: bool = False

    #: The driver-API launch entry point ``cuLaunchKernel`` is missing
    #: (Section III-B).
    cu_launch_kernel_unsupported: bool = False

    #: Texture names map to a *single* texref; registering a second
    #: texref under the same name loses data (Section III-C).
    single_texref_per_name: bool = False

    #: Re-binding a bound texref raises instead of implicitly unbinding
    #: the previous cudaArray (Section III-C).
    rebind_texture_errors: bool = False

    #: The loader concatenates all embedded PTX files into one unit, so
    #: duplicate symbol names across files collide (Section III-A fix 2).
    combined_ptx_load: bool = False

    #: The loader does not resolve dynamically linked libraries, so
    #: kernels that live in a dynamic library cannot be found
    #: (Section III-A fix 1).
    no_dynamic_library_search: bool = False

    #: FP16 conversions unsupported (pre-paper state, Section III-D.1).
    fp16_unsupported: bool = False

    #: FMA contraction mismatch: model FP16 multiply-add as a fused FMA
    #: with full intermediate precision (hardware/SASS behaviour) while
    #: the golden reference rounds between multiply and add.  Leaving
    #: this False makes both round identically (the paper leaves exact
    #: FP16 simulation as future work).
    fp16_fma_contraction: bool = False

    @property
    def alters_instructions(self) -> bool:
        """Whether an enabled quirk changes instruction semantics (only
        the reference interpreter models those; ``QUIRK_RULES`` keys)."""
        return any(getattr(self, name) for name in INSTRUCTION_QUIRKS)

    def describe(self) -> list[str]:
        """Human-readable list of enabled quirks."""
        enabled = []
        for name in self.__dataclass_fields__:
            if getattr(self, name):
                enabled.append(name)
        return enabled


#: The fully fixed configuration (paper's end state).
FIXED = LegacyQuirks()

#: The configuration approximating stock GPGPU-Sim before the paper.
STOCK_GPGPUSIM = LegacyQuirks(
    rem_ignores_type=True,
    bfe_unsigned_only=True,
    brev_unsupported=True,
    stream_wait_event_unsupported=True,
    cu_launch_kernel_unsupported=True,
    single_texref_per_name=True,
    rebind_texture_errors=True,
    combined_ptx_load=True,
    no_dynamic_library_search=True,
    fp16_unsupported=True,
)
