"""List-type Chase detector: exhaustive over one stream, sliced elsewhere.

For a target stream i the channel columns are swapped so stream i sits last,
a QR factorization triangularizes the system, and the upper block is scaled
by Rtilde^-1 so every remaining layer sees stream i through a direct coupling
coefficient. Each of the M candidate values of stream i then contributes its
own last-row metric plus, per inner layer, the exact prior-aware maximum over
that layer's alphabet obtained by boundary slicing. Residual noise
correlation between the scaled rows is deliberately ignored; the per-row
noise variances are the squared row norms of Rtilde^-1 (exactly 1 for the
unscaled last row).

Slicing boundaries depend on the layer's a priori LLRs and noise variance
but not on the candidate, so they are computed once per (stream, layer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chase
from .channel import WhitenedModel, require_finite
from .constellation import Constellation, axis_parts, pam_boundaries, pam_metric, slice_pam
from .linalg import back_substitute, qr, swap_permutation


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
    use u. Stream i's swap permutation is laid over every use, stream-major,
    so one QR, one rotation and one back substitution serve all (stream,
    use) pairs. A non-finite model raises ValueError.
    """
    require_finite(models)
    n_uses, _, n = models.h.shape
    layers = np.repeat(swap_permutation(n, np.arange(n)), n_uses, axis=0)
    h_perm = np.take_along_axis(np.tile(models.h, (n, 1, 1)), layers[:, None, :], axis=2)
    factors = qr(h_perm)
    y_rot = np.einsum("uji,uj->ui", factors.q.conj(), np.tile(models.y, (n, 1)))
    r, m = factors.r, n - 1
    # Right-hand sides: coupling column, rotated observation, identity (R_inner^-1).
    eye = np.broadcast_to(np.eye(m, dtype=complex), (len(r), m, m))
    x = back_substitute(r[:, :m, :m], np.concatenate([r[:, :m, m:], y_rot[:, :m, None], eye], -1))
    return LchaseStreamContext(
        layers=layers,
        ybar=np.concatenate([x[..., 1], y_rot[:, m:]], axis=-1),
        coupling=x[..., 0].copy(),  # a view would keep all of x alive
        pivot=r[:, m, m].real,
        noise_vars=(np.abs(x[..., 2:]) ** 2).sum(axis=-1),
    ).reshape(n, n_uses)


def context_values(c: Constellation) -> int:
    """Float64 values one context is charged: 21*M + 16*q.

    The peak falls in pam_metric on an inner layer. Per candidate it holds
    the running total, the layer's z stacked as (real, imag) and both axes'
    sliced levels, 5 values, and pam_metric's gathered priors and distance
    temporaries for both axes, 8 more; per context, the a priori and output
    LLRs and the boundary sets take under 8*q more. tests/test_chase.py
    holds a measured peak (13.1 to 14.3 per candidate) to this; charging
    that peak itself raised peak RSS.
    """
    return 21 * c.order + 16 * c.bits_per_symbol


def _inner_layers(
    ctx: LchaseStreamContext,
    c: Constellation,
    la: np.ndarray,
    use_idx: np.ndarray,
    total: np.ndarray,
) -> None:
    """Add every inner layer's sliced best metric to the (rows, M) totals in place.

    Boundaries depend on the layer's priors and noise variance only, so one
    set per context serves all M candidates. Both PAM axes are sliced in
    one walk over (2, rows, M) stacks.
    """
    axis = c.axis
    for l in range(ctx.layers.shape[1] - 1):
        la_axes = axis_parts(la[use_idx, ctx.layers[:, l], :]).copy()[:, :, None, :]
        var = ctx.noise_vars[:, l : l + 1]
        z = ctx.ybar[:, l : l + 1] - ctx.coupling[:, l : l + 1] * c.symbols
        z = np.stack((z.real, z.imag))
        idx = slice_pam(z, axis, pam_boundaries(axis, la_axes, var))
        chase.add_axis_metrics(total, pam_metric(axis, idx, z, la_axes, var))


def detect_all_uses(contexts: LchaseStreamContext, c: Constellation, la: np.ndarray) -> np.ndarray:
    """Detect every stream of every use, in slices under chase.SLICE_VALUES.

    contexts is the (streams, uses) stack from prepare_all_uses and la is
    (uses, n_streams, q); returns LLRs of the same shape as la.
    """
    return chase.detect_all_uses(_inner_layers, context_values(c), contexts, c, la)
