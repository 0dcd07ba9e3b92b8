"""Calibrated analytical performance models for the simulated devices,
including the multi-device halo-exchange cost model."""

from .halo import (
    HaloBreakdown,
    emit_halo_spans,
    halo_cost,
    overlap_provable,
    pack_seconds,
)
from .model import (
    model_overrides,
    CPI,
    LaunchConfig,
    TimeBreakdown,
    WorkProfile,
    estimate_time,
)

__all__ = [
    "CPI",
    "HaloBreakdown",
    "LaunchConfig",
    "TimeBreakdown",
    "WorkProfile",
    "emit_halo_spans",
    "estimate_time",
    "halo_cost",
    "model_overrides",
    "overlap_provable",
    "pack_seconds",
]
