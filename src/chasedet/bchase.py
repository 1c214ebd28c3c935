"""B-type Chase detector: exhaustive over one stream, soft feedback elsewhere.

The target stream is moved to the last column and the remaining columns are
BLAST-ordered (best post-nulling SNR detected first), so after QR the
feedback chain walks rows bottom-up. For every candidate value of the target
stream, each inner layer is soft-interference-cancelled using the posterior
symbol statistics of the layers already processed under that same candidate:
post-detection LLRs for a layer are combined with its a priori LLRs, turned
into a soft symbol mean and variance, and folded into the next layer's
effective noise. Layer metrics themselves are exact prior-aware maxima
under the per-candidate effective variance.

The bottom-most inner layer sees no feedback (unit effective variance), so
one boundary set per context slices it for every candidate. Layers above it
take the metric argmax over each axis's sqrt(M) levels directly, which
picks the same level as a per-candidate boundary set would; DetectorStats
still charges those per-candidate boundaries, the paper's cost model. The
top layer computes no post-detection LLRs since nothing consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chase
from .channel import WhitenedModel
from .constellation import (
    Constellation,
    coset_min_sqdist,
    pam_boundaries,
    pam_metric,
    slice_pam,
    soft_symbol_stats,
)
from .counters import DetectorStats
from .errors import SingularMatrixError
from .linalg import qr
from .llr import saturate
from .reference import brute_pam_argmax


@dataclass(frozen=True)
class BchaseStreamContext(chase.StackedContext):
    """QR state for one target stream: column `stream` last, rest BLAST-ordered.

    layers[k] is the original stream index at permuted position k
    (layers[-1] == stream). r is the full upper-triangular factor and y_rot
    the rotated observation Q^H y. Every field may carry leading batch axes
    (see chase.StackedContext).
    """

    stream: np.ndarray
    layers: np.ndarray
    r: np.ndarray
    y_rot: np.ndarray

    @property
    def y_last(self) -> np.ndarray:
        return self.y_rot[..., -1]

    @property
    def pivot(self) -> np.ndarray:
        return self.r[..., -1, -1].real


def _blast_order_uses(h: np.ndarray, stream: int) -> np.ndarray:
    """blast_order for a stack of uses at once; h is (U, n_rx, n)."""
    n_uses, _, n = h.shape
    rows = np.arange(n_uses)
    gram = np.einsum("uji,ujk->uik", h.conj(), h)
    remaining = np.tile([k for k in range(n) if k != stream], (n_uses, 1))
    order = np.empty((n_uses, n), dtype=int)
    order[:, -1] = stream
    for pos in range(n - 2, -1, -1):
        k = remaining.shape[1]
        if k == 1:
            order[:, pos] = remaining[:, 0]
            break
        sub = gram[rows[:, None, None], remaining[:, :, None], remaining[:, None, :]]
        try:
            inv = np.linalg.inv(sub)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(str(exc)) from None
        amplification = np.diagonal(inv, axis1=1, axis2=2).real
        pick = amplification.argmin(axis=1)
        order[:, pos] = remaining[rows, pick]
        keep = np.ones((n_uses, k), dtype=bool)
        keep[rows, pick] = False
        remaining = remaining[keep].reshape(n_uses, k - 1)
    return order


def blast_order(h: np.ndarray, stream: int) -> np.ndarray:
    """Column order with `stream` last and the rest V-BLAST sorted.

    Working from the bottom-most inner position upward (earliest detected
    first), each step assigns the remaining column with the smallest
    zero-forcing noise amplification, the corresponding diagonal entry of
    (H_sub^H H_sub)^-1, i.e. the squared row norm of R_sub^-1. Ties go to the
    smaller original column index.
    """
    h = np.asarray(h)
    n = h.shape[1]
    if not 0 <= stream < n:
        raise ValueError(f"stream index {stream} out of range for {n}")
    return _blast_order_uses(h[None], stream)[0]


def _prepare_stream_uses(h: np.ndarray, y: np.ndarray, stream: int) -> BchaseStreamContext:
    """Order and factor one target stream for a stack of uses (h is (U, n_rx, n))."""
    orders = _blast_order_uses(h, stream)
    h_perm = np.take_along_axis(h, orders[:, None, :], axis=2)
    factors = qr(h_perm)
    y_rot = np.einsum("uji,uj->ui", factors.q.conj(), y)
    return BchaseStreamContext(
        stream=np.full(len(h), stream), layers=orders, r=factors.r, y_rot=y_rot
    )


def prepare_all_uses(models: WhitenedModel) -> BchaseStreamContext:
    """Order and factor every stream of every use into one (streams, uses) context.

    models is one WhitenedModel stacked over uses; ctx[i][u] is stream i of
    use u.
    """
    return chase.prepare_all_uses(_prepare_stream_uses, models)


def layer_post_llrs(z, r_ll, layer_var, c: Constellation) -> np.ndarray:
    """Post-detection LLRs of a layer given its normalized observation z.

    z is the feedback-cancelled, r_ll-normalized layer observation (so the
    residual distance to a symbol s is |r_ll|^2 |z - s|^2), and layer_var the
    layer's effective noise variance. Distance-only (prior-free) coset minima
    are taken per axis. Shapes broadcast; the result gains a trailing q axis.
    """
    z = np.asarray(z)
    scale = np.asarray(r_ll, dtype=float) ** 2 / np.asarray(layer_var, dtype=float)
    out = np.empty(np.broadcast(z, scale).shape + (c.bits_per_symbol,))
    for axis, cols, zz in (
        (c.real_axis, c.real_bits, z.real),
        (c.imag_axis, c.imag_bits, z.imag),
    ):
        d0, d1 = coset_min_sqdist(zz, axis)
        out[..., cols] = (d0 - d1) * scale[..., None]
    return out


def _inner_layers(
    ctx: BchaseStreamContext,
    c: Constellation,
    la: np.ndarray,
    use_idx: np.ndarray,
    total: np.ndarray,
    stats: DetectorStats | None,
) -> np.ndarray:
    """Add every inner layer's best metric to the (rows, M) totals, walking
    the feedback chain bottom-up under each candidate."""
    batch = len(ctx)
    n = ctx.layers.shape[1]
    m = c.order
    r, y_rot, perms = ctx.r, ctx.y_rot, ctx.layers
    cand = c.symbols

    shat = np.zeros((batch, max(n - 1, 1), m), dtype=complex)
    svar = np.zeros((batch, max(n - 1, 1), m))

    for l in range(n - 2, -1, -1):
        la_layer = la[use_idx, perms[:, l], :]
        r_row = r[:, l, :]
        feedback = np.einsum("uf,ufm->um", r_row[:, l + 1 : n - 1], shat[:, l + 1 : n - 1])
        layer_var = 1.0 + np.einsum(
            "uf,ufm->um", np.abs(r_row[:, l + 1 : n - 1]) ** 2, svar[:, l + 1 : n - 1]
        )
        r_ll = r_row[:, l].real
        z = (y_rot[:, l : l + 1] - r_row[:, n - 1 : n] * cand - feedback) / r_ll[:, None]
        eff_var = layer_var / r_ll[:, None] ** 2
        # The bottom inner layer has no feedback, so its effective variance
        # (hence its boundary set) is the same for every candidate and the
        # slicer serves all M candidates. Above it the variance differs per
        # candidate, and evaluating the sqrt(M) level metrics directly picks
        # the same level for less work than a boundary set per candidate; the
        # count still charges the paper's per-candidate boundary sets.
        bottom = l == n - 2

        for axis, cols, zz in (
            (c.real_axis, c.real_bits, z.real),
            (c.imag_axis, c.imag_bits, z.imag),
        ):
            la_axis = la_layer[:, cols][:, None, :]
            if bottom:
                idx = slice_pam(zz, axis, pam_boundaries(axis, la_axis, eff_var[:, :1]))
            else:
                idx = brute_pam_argmax(zz, axis, la_axis, eff_var)
            total = total + pam_metric(axis, idx, zz, la_axis, eff_var)
            if stats is not None:
                stats.boundary_evals += batch * (1 if bottom else m) * axis.npairs

        if l == 0:
            break  # nothing below consumes this layer's estimate

        post = layer_post_llrs(z, r_ll[:, None], layer_var, c)
        mean, var = soft_symbol_stats(saturate(la_layer[:, None, :] + post), c)
        shat[:, l, :] = mean
        svar[:, l, :] = var
        if stats is not None:
            stats.soft_stat_evals += batch * m

    return total


def detect_all_uses(
    contexts: BchaseStreamContext,
    c: Constellation,
    la: np.ndarray,
    stats: DetectorStats | None = None,
) -> np.ndarray:
    """Detect every stream of every use, in slices under chase.SLICE_VALUES.

    contexts is the (streams, uses) stack from prepare_all_uses and la is
    (uses, n_streams, q); returns LLRs of the same shape as la.
    """
    return chase.detect_all_uses(_inner_layers, contexts, c, la, stats)
