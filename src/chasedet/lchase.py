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
from .channel import WhitenedModel
from .constellation import Constellation, pam_boundaries, pam_metric, slice_pam
from .counters import DetectorStats
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

    stream: np.ndarray
    layers: np.ndarray
    ybar: np.ndarray
    coupling: np.ndarray
    pivot: np.ndarray
    noise_vars: np.ndarray

    @property
    def y_last(self) -> np.ndarray:
        return self.ybar[..., -1]


def _prepare_stream_uses(h: np.ndarray, y: np.ndarray, stream: int) -> LchaseStreamContext:
    """Factor one target stream for a stack of uses (h is (U, n_rx, n))."""
    n_uses, _, n = h.shape
    perm = swap_permutation(n, stream)
    factors = qr(h[:, :, perm])
    y_rot = np.einsum("uji,uj->ui", factors.q.conj(), y)
    r = factors.r
    r_inner = r[:, : n - 1, : n - 1]
    coupling = back_substitute(r_inner, r[:, : n - 1, n - 1])
    inv_inner = back_substitute(r_inner, np.eye(n - 1, dtype=complex)[None])
    noise_vars = (np.abs(inv_inner) ** 2).sum(axis=-1)
    ybar = np.concatenate(
        [back_substitute(r_inner, y_rot[:, : n - 1]), y_rot[:, n - 1 :]], axis=-1
    )
    return LchaseStreamContext(
        stream=np.full(n_uses, stream),
        layers=np.broadcast_to(perm, (n_uses, n)),
        ybar=ybar,
        coupling=coupling,
        pivot=r[:, n - 1, n - 1].real,
        noise_vars=noise_vars,
    )


def prepare_all_uses(models: WhitenedModel) -> LchaseStreamContext:
    """Factor every stream of every use into one (streams, uses) context.

    models is one WhitenedModel stacked over uses; ctx[i][u] is stream i of
    use u.
    """
    return chase.prepare_all_uses(_prepare_stream_uses, models)


def _inner_layers(
    ctx: LchaseStreamContext,
    c: Constellation,
    la: np.ndarray,
    use_idx: np.ndarray,
    total: np.ndarray,
    stats: DetectorStats | None,
) -> np.ndarray:
    """Add every inner layer's sliced best metric to the (rows, M) totals.

    Boundaries depend on the layer's priors and noise variance only, so one
    set per context serves all M candidates.
    """
    batch = len(ctx)
    for l in range(ctx.layers.shape[1] - 1):
        la_layer = la[use_idx, ctx.layers[:, l], :]
        var = ctx.noise_vars[:, l]
        z = ctx.ybar[:, l : l + 1] - ctx.coupling[:, l : l + 1] * c.symbols
        for axis, cols, zz in (
            (c.real_axis, c.real_bits, z.real),
            (c.imag_axis, c.imag_bits, z.imag),
        ):
            la_axis = la_layer[:, cols][:, None, :]
            bset = pam_boundaries(axis, la_axis, var[:, None])
            idx = slice_pam(zz, axis, bset)
            total = total + pam_metric(axis, idx, zz, la_axis, var[:, None])
            if stats is not None:
                stats.boundary_evals += batch * axis.npairs
    return total


def detect_all_uses(
    contexts: LchaseStreamContext,
    c: Constellation,
    la: np.ndarray,
    stats: DetectorStats | None = None,
) -> np.ndarray:
    """Detect every stream of every use, in slices under chase.SLICE_VALUES.

    contexts is the (streams, uses) stack from prepare_all_uses and la is
    (uses, n_streams, q); returns LLRs of the same shape as la.
    """
    return chase.detect_all_uses(_inner_layers, contexts, c, la, stats)
