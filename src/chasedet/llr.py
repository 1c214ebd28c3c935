"""Log-likelihood ratio saturation.

Convention everywhere in this package: L = log P(bit = 1) / P(bit = 0),
so a positive LLR favors bit 1. Values are saturated to +-LLR_CLIP before
they cross a module boundary, which keeps tanh/exp arithmetic safe while
being far beyond any magnitude that still changes a decision.
"""

from __future__ import annotations

import numpy as np

LLR_CLIP = 60.0


def saturate(llrs: np.ndarray) -> np.ndarray:
    """Clip LLRs to [-LLR_CLIP, +LLR_CLIP]. Handles +-inf from degenerate inputs."""
    return np.clip(llrs, -LLR_CLIP, LLR_CLIP)
