"""Hetero-DMR configuration (Sections III and IV-A)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..dram.timing import (DDR4_MAX_SPEC_MTS, TimingParameters,
                           manufacturer_spec_3200)
from ..ecc.policy import sdc_epoch_threshold

#: Write-batch scale-up: frequency transitions are ~100x the normal bus
#: turnaround, so batches grow 100x (128 -> 12800, Section III-A1).
WRITE_BATCH_TARGET = 12800

#: Memory-utilization ceiling for replication: Hetero-DMR needs half of
#: a channel's modules free (Section III-E).
REPLICATION_UTILIZATION_LIMIT = 0.50

#: Hetero-DMR+FMR needs two free copies per block (Section IV-A).
DUAL_COPY_UTILIZATION_LIMIT = 0.25

#: Epoch length for the 8B+ error budget (Section III-B).
EPOCH_HOURS = 1.0


@dataclass(frozen=True)
class HeteroDMRConfig:
    """Tunable parameters of a Hetero-DMR deployment."""
    margin_mts: int = 800
    use_latency_margin: bool = True
    write_batch_target: int = WRITE_BATCH_TARGET
    replication_limit: float = REPLICATION_UTILIZATION_LIMIT
    epoch_hours: float = EPOCH_HOURS
    epoch_error_threshold: int = sdc_epoch_threshold()
    #: Probability that a fast read of a copy returns a detected error;
    #: ~0 for the margins the characterization blesses (Figure 6 shows
    #: <0.001% of accesses), exposed for fault-injection studies.
    read_error_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.margin_mts < 0:
            raise ValueError("margin must be non-negative")
        if self.write_batch_target <= 0:
            raise ValueError("write_batch_target must be positive")
        if not 0.0 < self.replication_limit <= 1.0:
            raise ValueError("replication limit must be in (0, 1]")
        if not 0.0 <= self.read_error_rate <= 1.0:
            raise ValueError("read_error_rate must be a probability")

    def derated(self, margin_mts: Optional[int] = None,
                use_latency_margin: Optional[bool] = None
                ) -> "HeteroDMRConfig":
        """A copy of this config at a different degradation-ladder rung
        (margin and/or latency-margin changed, everything else — epoch
        budget, batch sizing — preserved)."""
        return replace(
            self,
            margin_mts=self.margin_mts if margin_mts is None
            else margin_mts,
            use_latency_margin=self.use_latency_margin
            if use_latency_margin is None else use_latency_margin)

    @property
    def fast_data_rate_mts(self) -> int:
        return DDR4_MAX_SPEC_MTS + self.margin_mts

    def fast_timing(self) -> TimingParameters:
        """The unsafely fast setting used in read mode: spec + margin,
        optionally with the conservative latency margins of Table II."""
        timing = manufacturer_spec_3200().at_data_rate(
            self.fast_data_rate_mts)
        if self.use_latency_margin:
            timing = timing.with_latency_margin()
        return timing

    def safe_timing(self) -> TimingParameters:
        """Manufacturer specification, used in write mode and recovery."""
        return manufacturer_spec_3200()
