"""Log-likelihood ratio containers and saturation.

Convention everywhere in this package: L = log P(bit = 1) / P(bit = 0),
so a positive LLR favors bit 1. Values are saturated to +-LLR_CLIP before
they cross a module boundary, which keeps tanh/exp arithmetic safe while
being far beyond any magnitude that still changes a decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LLR_CLIP = 60.0

ROLES = ("apriori", "detector", "extrinsic")


def saturate(llrs: np.ndarray, limit: float = LLR_CLIP) -> np.ndarray:
    """Clip LLRs to [-limit, +limit]. Handles +-inf from degenerate inputs."""
    return np.clip(llrs, -limit, limit)


@dataclass(frozen=True)
class LlrFrame:
    """Per-stream, per-bit LLRs for one channel use, or a stack of uses.

    values has shape (..., n_streams, bits_per_symbol); role records which
    leg of the detection/decoding exchange the frame belongs to.
    """

    values: np.ndarray
    role: str = "apriori"

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown LLR role {self.role!r}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim < 2:
            raise ValueError("LlrFrame values must be at least 2-D (streams x bits)")
        object.__setattr__(self, "values", v)

    def saturated(self, limit: float = LLR_CLIP) -> "LlrFrame":
        return LlrFrame(saturate(self.values, limit), self.role)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape
