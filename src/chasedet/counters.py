"""The detectors' cost model: complexity counts from the configuration.

The Chase counting convention: `metric_evals` are full candidate metric
evaluations (the per-candidate last-layer terms, or exhaustive enumeration),
`boundary_evals` are slicing boundary values, one per pair of PAM levels:
the paper's pairwise cost model, kept although every inner layer of both
detectors takes the best level metric instead (chase.add_layer_metric),
which is the sliced level's metric bit for bit. Slicer comparisons and
metric lookups at already-sliced points are free by convention. No count
depends on the data, so the detectors count nothing: pass_stats gives a
detection pass's counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constellation import Constellation


@dataclass(frozen=True)
class DetectorStats:
    metric_evals: int = 0
    boundary_evals: int = 0
    soft_stat_evals: int = 0
    streams: int = 0

    @property
    def metrics_per_stream(self) -> float:
        """Mean (metric + boundary) evaluations per detected stream."""
        return (self.metric_evals + self.boundary_evals) / self.streams


def pass_stats(detector: str, n_streams: int, c: Constellation, uses: int) -> DetectorStats:
    """Counts of one detection pass over `uses` channel uses of n_streams streams.

    A Chase detector scores M candidates per (stream, use) context and
    charges each inner layer boundary sets of one boundary per level pair
    on both axes: lchase one set per context; bchase one on the bottom
    layer, which sees no feedback, and one per candidate above it, plus M
    soft symbol statistics on every layer but the top.
    """
    contexts = n_streams * uses
    if detector == "maxlog":  # every transmit vector of a use
        return DetectorStats(metric_evals=uses * c.order**n_streams, streams=contexts)
    if detector == "lmmse":  # a scalar demap per stream over both axes' levels
        return DetectorStats(metric_evals=contexts * 2 * c.axis.nlevels, streams=contexts)
    # (boundary sets, soft statistics) per context on each inner layer.
    inner = range(n_streams - 1)  # bottom-most first
    if detector == "lchase":
        layers = [(1, 0) for _ in inner]
    elif detector == "bchase":
        layers = [(1 if l == 0 else c.order, c.order if l < n_streams - 2 else 0) for l in inner]
    else:
        raise ValueError(f"no cost model for detector {detector!r}")
    return DetectorStats(
        metric_evals=contexts * c.order,
        boundary_evals=contexts * 2 * c.axis.npairs * sum(sets for sets, _ in layers),
        soft_stat_evals=contexts * sum(soft for _, soft in layers),
        streams=contexts,
    )
