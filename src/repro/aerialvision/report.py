"""Figure-level reporting: bundle a kernel's sample block into the plots
the paper shows (DRAM efficiency/utilization, global/shader IPC, warp
issue breakdown)."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.aerialvision.plots import (
    ascii_heatmap, ascii_series, write_heatmap_csv, write_series_csv)
from repro.timing.stats import ISSUE_BUCKETS, SampleBlock


@dataclass
class FigureReport:
    """All AerialVision views for one kernel (or one merged phase)."""

    name: str
    dram_efficiency: np.ndarray       # [partition, interval]
    dram_utilization: np.ndarray      # [partition, interval]
    global_ipc: np.ndarray            # [interval]
    shader_ipc: np.ndarray            # [sm, interval]
    warp_issue: dict[str, np.ndarray] = field(default_factory=dict)

    # -- derived metrics used by the shape assertions ---------------------
    @property
    def peak_global_ipc(self) -> float:
        return float(self.global_ipc.max()) if self.global_ipc.size else 0.0

    def shader_load_balance(self) -> float:
        """Fraction of SMs that did meaningful work (>10% of the busiest).

        Winograd-nonfused forward is "balanced across all the shader
        cores"; its backward-filter variant is not (Fig. 20/21).
        """
        per_sm = self.shader_ipc.sum(axis=1)
        peak = per_sm.max()
        if peak <= 0:
            return 0.0
        return float((per_sm > 0.1 * peak).mean())

    def bank_camping_index(self) -> float:
        """How concentrated DRAM utilisation is across partitions.

        1.0 = one partition takes all traffic (camping); 1/P = evenly
        spread.  Computed over each partition's total bus-busy time.
        """
        per_partition = self.dram_utilization.sum(axis=1)
        total = per_partition.sum()
        if total <= 0:
            return 0.0
        return float(per_partition.max() / total)

    def interval_camping_index(self) -> float:
        """Per-interval traffic concentration, averaged over busy
        intervals.  Serial per-bank phases (the paper's bank camping in
        the FFT plots) push this toward 1 even when long-run totals are
        balanced across partitions."""
        util = self.dram_utilization
        totals = util.sum(axis=0)
        busy = totals > 1e-9
        if not busy.any():
            return 0.0
        shares = util[:, busy] / totals[busy]
        return float(shares.max(axis=0).mean())

    def divergence_fraction(self) -> float:
        """Fraction of issued warps with fewer than 32 active lanes."""
        full = self.warp_issue.get("W29_32", np.zeros(1)).sum()
        partial = sum(self.warp_issue[b].sum() for b in self.warp_issue
                      if b.startswith("W") and not b.startswith("W0")
                      and b != "W29_32")
        total = full + partial
        return float(partial / total) if total else 0.0

    def stall_breakdown(self) -> dict[str, float]:
        """Share of scheduler slots by outcome (issued vs W0 reasons)."""
        totals = {bucket: float(self.warp_issue[bucket].sum())
                  for bucket in self.warp_issue}
        grand = sum(totals.values())
        if grand == 0:
            return {bucket: 0.0 for bucket in totals}
        return {bucket: value / grand for bucket, value in totals.items()}

    # -- rendering ---------------------------------------------------------
    def render_text(self, max_cols: int = 80) -> str:
        parts = [
            ascii_heatmap(self.dram_efficiency, vmax=1.0,
                          title=f"{self.name}: DRAM efficiency per bank",
                          row_label="bank", max_cols=max_cols),
            ascii_heatmap(self.dram_utilization, vmax=1.0,
                          title=f"{self.name}: DRAM utilization per bank",
                          row_label="bank", max_cols=max_cols),
            ascii_series(self.global_ipc,
                         title=f"{self.name}: global IPC",
                         max_cols=max_cols),
            ascii_heatmap(self.shader_ipc,
                          title=f"{self.name}: per-shader IPC",
                          row_label="sm", max_cols=max_cols),
        ]
        return "\n".join(parts)

    def write_csv(self, directory: str | Path) -> list[Path]:
        directory = Path(directory)
        written = [
            write_heatmap_csv(directory / f"{self.name}_dram_eff.csv",
                              self.dram_efficiency, row_label="bank"),
            write_heatmap_csv(directory / f"{self.name}_dram_util.csv",
                              self.dram_utilization, row_label="bank"),
            write_heatmap_csv(directory / f"{self.name}_shader_ipc.csv",
                              self.shader_ipc, row_label="sm"),
            write_series_csv(directory / f"{self.name}_global_ipc.csv",
                             {"global_ipc": self.global_ipc}),
            write_series_csv(directory / f"{self.name}_warp_issue.csv",
                             self.warp_issue),
        ]
        return written


def kernel_figures(name: str, samples: SampleBlock) -> FigureReport:
    """Build a FigureReport from one kernel's sample block."""
    return FigureReport(
        name=name,
        dram_efficiency=samples.dram_efficiency_matrix(),
        dram_utilization=samples.dram_utilization_matrix(),
        global_ipc=samples.global_ipc_series(),
        shader_ipc=samples.shader_ipc_matrix(),
        warp_issue=samples.warp_issue_matrix(),
    )


def merge_reports(name: str, reports: list[FigureReport]) -> FigureReport:
    """Concatenate several kernels' reports along the time axis
    (an API call's many kernels become one timeline, as in the paper's
    whole-call plots)."""
    if not reports:
        raise ValueError("no reports to merge")
    width = sum(r.global_ipc.shape[0] for r in reports)
    parts = reports[0].dram_efficiency.shape[0]
    sms = reports[0].shader_ipc.shape[0]
    eff = np.zeros((parts, width))
    util = np.zeros((parts, width))
    gipc = np.zeros(width)
    sipc = np.zeros((sms, width))
    issue = {bucket: np.zeros(width) for bucket in ISSUE_BUCKETS}
    offset = 0
    for report in reports:
        span = report.global_ipc.shape[0]
        eff[:, offset:offset + span] = report.dram_efficiency
        util[:, offset:offset + span] = report.dram_utilization
        gipc[offset:offset + span] = report.global_ipc
        sipc[:, offset:offset + span] = report.shader_ipc
        for bucket in issue:
            series = report.warp_issue.get(bucket)
            if series is not None:
                issue[bucket][offset:offset + span] = series
        offset += span
    return FigureReport(name=name, dram_efficiency=eff,
                        dram_utilization=util, global_ipc=gipc,
                        shader_ipc=sipc, warp_issue=issue)
