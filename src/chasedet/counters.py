"""Complexity accounting shared by the detector front ends.

The Chase counting convention: `metric_evals` are full candidate metric
evaluations (the per-candidate last-layer terms, or exhaustive enumeration),
`boundary_evals` are slicing boundary values actually computed. Slicer
comparisons and metric lookups at already-sliced points are free by
convention. Under this convention the L-Chase count per detected stream is
exactly n_streams*M - (n_streams-1)*sqrt(M).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DetectorStats:
    metric_evals: int = 0
    boundary_evals: int = 0
    soft_stat_evals: int = 0
    streams: int = 0

    def add(self, other: "DetectorStats") -> None:
        self.metric_evals += other.metric_evals
        self.boundary_evals += other.boundary_evals
        self.soft_stat_evals += other.soft_stat_evals
        self.streams += other.streams

    @property
    def metrics_per_stream(self) -> float:
        """Mean (metric + boundary) evaluations per detected stream."""
        if self.streams == 0:
            return 0.0
        return (self.metric_evals + self.boundary_evals) / self.streams
