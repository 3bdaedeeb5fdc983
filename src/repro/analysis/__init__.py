"""Static analysis over parsed PTX: dataflow engine, verifier, lints.

Public surface:

* :func:`analyze_kernel` — verifier + lint passes for one kernel.
* :func:`analyze_module` — every kernel of a parsed module.
* :func:`analyze_sources` — parse and analyse ``(file_id, text)`` units,
  e.g. :func:`embedded_units`; what ``repro-lint`` and the static stage
  of ``repro-sanitize`` run.
* :func:`verify_launch` — ``FunctionalEngine``'s ``verify=True`` gate:
  raises :class:`repro.errors.VerificationError` when the verifier (or
  an enabled-quirk dependence check) reports an error-severity finding.
* :mod:`repro.analysis.dataflow` — the reusable analyses (reaching
  definitions, liveness, def-use chains, variance, producer slices).
"""

from __future__ import annotations

from importlib import import_module

from repro.analysis.findings import (
    ERROR, Finding, INFO, LintReport, WARNING, sort_findings)
from repro.errors import ReproError, VerificationError
from repro.ptx.ast import Kernel, PTXModule
from repro.quirks import LegacyQuirks

__all__ = [
    "ANALYSIS_VERSION", "ERROR", "WARNING", "INFO", "Affine",
    "Finding", "LintReport", "MemFact", "QUIRK_RULES", "LINT_PASSES",
    "RangeInfo", "VectorReport", "analyze_kernel", "analyze_module",
    "analyze_ranges", "analyze_sources", "classify_kernel",
    "embedded_units", "grid_variance", "kernel_facts",
    "prove_launch", "run_lints", "sort_findings", "thread_injective",
    "verify_kernel", "verify_launch",
]

#: The rest of the surface, by submodule, imported on first use: the
#: simulator imports ``dataflow`` and ``vectorize`` through this package
#: and pays for neither the lints, the range analysis nor the verifier.
_LAZY = {name: module for module, names in (
    ("lints", ("LINT_PASSES", "run_lints")),
    ("ranges", ("Affine", "MemFact", "RangeInfo", "analyze_ranges",
                "kernel_facts", "prove_launch", "thread_injective")),
    ("vectorize", ("ANALYSIS_VERSION", "VectorReport", "classify_kernel",
                   "grid_variance")),
    ("verifier", ("QUIRK_RULES", "verify_kernel")),
) for name in names}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def analyze_kernel(kernel: Kernel, *,
                   quirks: LegacyQuirks | None = None,
                   file_id: str = "",
                   passes: list[str] | None = None) -> list[Finding]:
    """Verifier + lint passes for one kernel, sorted for stable output."""
    from repro.analysis.lints import run_lints
    from repro.analysis.verifier import verify_kernel
    findings = verify_kernel(kernel, quirks=quirks, file_id=file_id)
    findings.extend(run_lints(kernel, file_id=file_id, passes=passes))
    return sort_findings(findings)


def analyze_module(module: PTXModule, *,
                   quirks: LegacyQuirks | None = None,
                   passes: list[str] | None = None) -> list[Finding]:
    """Analyse every kernel in a parsed PTX module."""
    findings: list[Finding] = []
    for kernel in module.kernels.values():
        findings.extend(analyze_kernel(
            kernel, quirks=quirks, file_id=module.file_id, passes=passes))
    return sort_findings(findings)


def embedded_units() -> list[tuple[str, str]]:
    """``(file_id, ptx_text)`` of every translation unit of the
    application binary, once each (``scale_array`` is deliberately
    defined in two files; both are units)."""
    from repro.cudnn.library import build_application_binary
    units: dict[str, str] = {}
    for embedded in build_application_binary().embedded:
        units.setdefault(embedded.file_id, embedded.text)
    return list(units.items())


def analyze_sources(sources, *, quirks: LegacyQuirks | None = None,
                    rules=None) -> list[Finding]:
    """Parse and analyse ``(file_id, text)`` units; sorted findings,
    only those of *rules* if given.  A unit that does not parse raises
    :class:`ReproError` naming it."""
    from repro.ptx.parser import parse_module
    findings: list[Finding] = []
    for file_id, text in sources:
        try:
            module = parse_module(text, file_id)
        except ReproError as error:
            raise ReproError(
                f"{file_id}: parse failed: {error}") from error
        findings.extend(
            finding for finding in analyze_module(module, quirks=quirks)
            if rules is None or finding.rule in rules)
    return sort_findings(findings)


def verify_launch(kernel: Kernel,
                  quirks: LegacyQuirks | None = None) -> list[Finding]:
    """Pre-execution gate: verify *kernel* under *quirks*.

    Raises :class:`VerificationError` carrying the error findings if the
    typed-instruction verifier rejects the kernel or the kernel depends
    on an active quirk; returns all (error + warning) findings
    otherwise so callers can log them.
    """
    from repro.analysis.verifier import verify_kernel
    findings = verify_kernel(kernel, quirks=quirks)
    errors = [f for f in findings if f.severity == ERROR]
    if errors:
        summary = "; ".join(
            f"[{f.rule}] pc {f.pc}: {f.message}" for f in errors[:4])
        if len(errors) > 4:
            summary += f" (+{len(errors) - 4} more)"
        raise VerificationError(
            f"kernel {kernel.name!r} failed static verification: "
            f"{summary}", findings=errors)
    return findings
