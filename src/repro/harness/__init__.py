"""Experiment harnesses: oracle, correlation, case-study drivers.

:mod:`repro.harness.faultcampaign` is a ``python -m`` entry point and
is imported by its full name, not re-exported here (importing it from
the package ``-m`` is about to execute draws a ``RuntimeWarning``).
"""

from repro.harness.conv_study import StudyResult, run_case, sweep
from repro.harness.correlation import (
    CorrelationResult, FIGURE7_KERNELS, KernelCorrelation,
    run_mnist_correlation)
from repro.harness.profiler import NVProfLike, ProfilerRow
from repro.harness.hwmodel import (
    HardwareEstimate, HardwareOracle, HardwareOracleBackend,
    SASS_TUNING_FACTORS)

__all__ = [
    "CorrelationResult", "FIGURE7_KERNELS", "HardwareEstimate",
    "HardwareOracle", "HardwareOracleBackend", "KernelCorrelation",
    "SASS_TUNING_FACTORS", "StudyResult", "run_case",
    "NVProfLike", "ProfilerRow", "run_mnist_correlation", "sweep",
]
