"""List-type Chase detector: exhaustive over one stream, linear nulling elsewhere.

For a target stream i the channel columns are swapped so stream i sits last,
a QR factorization triangularizes the system, and the upper block is scaled
by Rtilde^-1 so every remaining layer sees stream i through a direct coupling
coefficient. Each of the M candidate values of stream i then contributes its
own last-row metric plus, per inner layer, the exact prior-aware maximum over
that layer's alphabet. Residual noise correlation between the scaled rows is
deliberately ignored; the per-row noise variances are the squared row norms
of Rtilde^-1 (exactly 1 for the unscaled last row).

The paper slices each layer against prior-shifted boundaries; the maximum of
each axis's sqrt(M) level metrics (chase.add_layer_metric, as on every
bchase layer) is the sliced level's metric bit for bit. The cost model
still charges the slicer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chase
from .channel import WhitenedModel, require_finite
from .constellation import Constellation, pam_boundaries, pam_metric, slice_pam, stack_axes
from .linalg import back_substitute, qr

# Uncalled; held because perfbench/tracing.py wraps these names in this module.
_TRACED = (pam_boundaries, slice_pam, pam_metric)


@dataclass(frozen=True)
class LchaseStreamContext(chase.StackedContext):
    """Per-(channel, target stream) factorization state.

    layers[k] is the original stream index occupying permuted position k;
    layers[-1] == stream and layers[stream] == n-1 (columns i and n-1 are
    swapped). coupling[l] expresses how the candidate symbol leaks into inner
    layer l of the scaled observation ybar, and noise_vars[l] is that row's
    (approximated, decorrelated) noise variance. Every field may carry
    leading batch axes (see chase.StackedContext).
    """

    layers: np.ndarray
    ybar: np.ndarray
    coupling: np.ndarray
    pivot: np.ndarray
    noise_vars: np.ndarray

    @property
    def y_last(self) -> np.ndarray:
        return self.ybar[..., -1]


def prepare_all_uses(models: WhitenedModel) -> LchaseStreamContext:
    """Factor every stream of every use into one (streams, uses) context.

    models is one WhitenedModel stacked over uses; ctx[i][u] is stream i of
    use u. Stream i's swap permutation is laid over every use, so one QR
    and one back substitution serve all (stream, use) pairs. A non-finite
    model raises ValueError.
    """
    require_finite(models)
    n_uses, _, n = models.h.shape
    swaps = np.tile(np.arange(n), (n, 1))  # row i swaps columns i and n-1
    swaps[:, -1] = np.arange(n)
    swaps[np.arange(n), np.arange(n)] = n - 1
    r, y_rot = qr(np.moveaxis(models.h[:, :, swaps], 2, 0), models.y)
    m = n - 1
    # Right-hand sides: coupling column, rotated observation, identity (R_inner^-1).
    eye = np.broadcast_to(np.eye(m, dtype=complex), r.shape[:2] + (m, m))
    rhs = np.concatenate([r[..., :m, m:], y_rot[..., :m, None], eye], -1)
    x = back_substitute(r[..., :m, :m], rhs)
    return LchaseStreamContext(
        layers=np.repeat(swaps[:, None], n_uses, axis=1),
        ybar=np.concatenate([x[..., 1], y_rot[..., m:]], axis=-1),
        coupling=x[..., 0].copy(),  # views would keep all of x and r alive
        pivot=r[..., m, m].real.copy(),
        noise_vars=(np.abs(x[..., 2:]) ** 2).sum(axis=-1),
    )


def context_values(c: Constellation) -> int:
    """Float64 values one context is charged: 21*M + 16*q.

    The peak falls in the level walk of an inner layer. Per candidate it
    holds the running total, the layer's z stacked as (real, imag) (its
    complex form is a temporary, freed once stacked) and the walk's two
    buffers for both axes, 7 values; per context, the a priori and output
    LLRs and the level priors take under 8*q more. Measured: 7.6 to 9.6
    per candidate (tests/test_chase.py holds it under the slice cap), a
    full 64-QAM slice about 1.1 MB. A charge of 13*M + 16*q slowed
    corr-64qam's lchase leg by 2% and raised its peak RSS by 0.2 MB.
    """
    return 21 * c.order + 16 * c.bits_per_symbol


def _inner_layers(
    ctx: LchaseStreamContext,
    c: Constellation,
    la: np.ndarray,
    use_idx: np.ndarray,
    total: np.ndarray,
) -> None:
    """Add every inner layer's best metric to the (M, rows) totals in place,
    each layer's (rows,) noise variance broadcast over the M candidates."""
    for l in range(ctx.layers.shape[1] - 1):
        parts = stack_axes(ctx.ybar[:, l] - ctx.coupling[:, l] * c.symbols[:, None])
        var = ctx.noise_vars[:, l].copy()  # contiguous for the walk's divides
        chase.add_layer_metric(total, parts, var, la[use_idx, ctx.layers[:, l], :], c)


def detect_all_uses(
    contexts: LchaseStreamContext, c: Constellation, la: np.ndarray, live=None
) -> np.ndarray:
    """Detect every live stream of every use, in slices under chase.SLICE_VALUES.

    contexts is the (streams, uses) stack from prepare_all_uses and la is
    (uses, n_streams, q); returns LLRs of the same shape as la, 0.0 past
    each stream's live uses (see chase.detect_all_uses).
    """
    return chase.detect_all_uses(_inner_layers, context_values(c), contexts, c, la, live)
