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
evaluate the metric of each axis's sqrt(M) levels directly and take their
maximum, the metric of the level a per-candidate boundary set would pick;
DetectorStats still charges those per-candidate boundaries, the paper's cost
model. The top layer computes no post-detection LLRs since nothing consumes
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chase
from .channel import WhitenedModel, require_finite
from .constellation import (
    Constellation,
    PamAxis,
    axis_parts,
    coset_min_sqdist,
    pam_boundaries,
    pam_metric,
    slice_pam,
    soft_symbol_stats,
)
from .counters import DetectorStats
from .errors import SingularMatrixError
from .linalg import qr


@dataclass(frozen=True)
class BchaseStreamContext(chase.StackedContext):
    """QR state for one target stream: column `stream` last, rest BLAST-ordered.

    layers[k] is the original stream index at permuted position k
    (layers[-1] == stream). r is the full upper-triangular factor and y_rot
    the rotated observation Q^H y. Every field may carry leading batch axes
    (see chase.StackedContext).
    """

    layers: np.ndarray
    r: np.ndarray
    y_rot: np.ndarray

    @property
    def y_last(self) -> np.ndarray:
        return self.y_rot[..., -1]

    @property
    def pivot(self) -> np.ndarray:
        return self.r[..., -1, -1].real


def _blast_orders(h: np.ndarray) -> np.ndarray:
    """Column orders (n*U, n) of every target stream of every use, stream-major.

    h is (U, n_rx, n); row i*U + u has stream i last and the rest of use u's
    columns V-BLAST sorted. Working from the bottom-most inner position
    upward (earliest detected first), each step assigns the remaining column
    with the smallest zero-forcing noise amplification, the corresponding
    diagonal entry of (H_sub^H H_sub)^-1, i.e. the squared row norm of
    R_sub^-1. Ties go to the smaller original column index. One walk orders
    all n*U rows.
    """
    n_uses, _, n = h.shape
    rows = np.arange(n * n_uses)
    use, stream = rows % n_uses, rows // n_uses
    gram = np.einsum("uji,ujk->uik", h.conj(), h)
    others = np.arange(n - 1)
    remaining = others + (others >= stream[:, None])
    order = np.empty((len(rows), n), dtype=int)
    order[:, -1] = stream
    for pos in range(n - 2, -1, -1):
        k = remaining.shape[1]
        if k == 1:
            order[:, pos] = remaining[:, 0]
            break
        sub = gram[use[:, None, None], remaining[:, :, None], remaining[:, None, :]]
        try:
            inv = np.linalg.inv(sub)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(str(exc)) from None
        amplification = np.diagonal(inv, axis1=1, axis2=2).real
        pick = amplification.argmin(axis=1)
        order[:, pos] = remaining[rows, pick]
        keep = np.ones((len(rows), k), dtype=bool)
        keep[rows, pick] = False
        remaining = remaining[keep].reshape(len(rows), k - 1)
    return order


def prepare_all_uses(models: WhitenedModel) -> BchaseStreamContext:
    """Order and factor every stream of every use into one (streams, uses) context.

    models is one WhitenedModel stacked over uses; ctx[i][u] is stream i of
    use u. One BLAST walk orders all (stream, use) pairs, stream-major, and
    one QR and one rotation factor them. A non-finite model raises
    ValueError.
    """
    require_finite(models)
    n_uses, _, n = models.h.shape
    orders = _blast_orders(models.h)
    h_perm = np.take_along_axis(np.tile(models.h, (n, 1, 1)), orders[:, None, :], axis=2)
    factors = qr(h_perm)
    y_rot = np.einsum("uji,uj->ui", factors.q.conj(), np.tile(models.y, (n, 1)))
    return BchaseStreamContext(layers=orders, r=factors.r, y_rot=y_rot).reshape(n, n_uses)


def layer_post_llrs(z, r_ll, layer_var, c: Constellation) -> np.ndarray:
    """Post-detection LLRs of a layer given its normalized observation z.

    z is the feedback-cancelled, r_ll-normalized layer observation (so the
    residual distance to a symbol s is |r_ll|^2 |z - s|^2), and layer_var the
    layer's effective noise variance. Distance-only (prior-free) coset minima
    are taken for both axes at once. Shapes broadcast; the result gains a
    trailing q axis.
    """
    z = np.asarray(z)
    scale = np.asarray(r_ll, dtype=float) ** 2 / np.asarray(layer_var, dtype=float)
    out = np.empty(np.broadcast(z, scale).shape + (c.bits_per_symbol,))
    d0, d1 = coset_min_sqdist(np.stack((z.real, z.imag)), c.axis)
    axis_parts(out)[...] = (d0 - d1) * scale[..., None]
    return out


def context_values(c: Constellation, n_streams: int) -> int:
    """Float64 values one context is charged.

    With three or more streams the peak falls on a feedback layer, in
    layer_post_llrs (in soft_symbol_stats for QPSK with three streams), at
    under 6*q + 3*n_streams + 16 values per candidate under tracemalloc.
    Per candidate it holds the running total; the inner layers' soft means
    and variances, 3 per stream; the layer's z, its stacked axes and the
    two variances, 6; both axes' q-wide coset minima, their scaled
    difference and the output LLRs. soft_symbol_stats holds the LLRs,
    their tanh and six moment arrays one bit wide. The charge L*q + 2*L +
    4*q + 3*n_streams + 16 per candidate, sized for the level products an
    earlier soft_symbol_stats held, stays above that peak; charging the
    peak itself raised peak RSS.

    With one or two streams no layer feeds back, and the peak falls in
    pam_metric on the bottom layer: the running total, z and its stacked
    axes, the soft means and variances, both variances and the sliced
    levels take 12 values per candidate, pam_metric's temporaries 8 more;
    the charge is 24.

    Per context, the a priori and output LLRs and the boundary sets take
    under 16*q more. tests/test_chase.py holds a measured peak to this.
    """
    n_levels, q = c.axis.nlevels, c.bits_per_symbol
    if n_streams <= 2:
        return 24 * c.order + 16 * q
    per_candidate = n_levels * q + 2 * n_levels + 4 * q + 3 * n_streams + 16
    return c.order * per_candidate + 16 * q


def _best_level_metric(z, axis: PamAxis, apriori, noise_var) -> np.ndarray:
    """Maximum over the axis levels of pam_metric, one level at a time.

    Each level's metric rounds exactly as pam_metric's does, so this is
    pam_metric at the metric argmax; z is (2, rows, M), noise_var (rows, M).
    The levels are walked in two buffers of the result's shape.
    """
    prior = axis.level_priors(apriori)
    best = np.empty(np.broadcast_shapes(np.shape(z), prior.shape[:-1], np.shape(noise_var)))
    metric = np.empty_like(best)
    for m, level in enumerate(axis.levels):
        out = metric if m else best
        np.subtract(z, level, out=out)
        np.square(out, out=out)
        np.divide(out, noise_var, out=out)
        np.subtract(prior[..., m], out, out=out)
        if m:
            np.maximum(best, metric, out=best)
    return best


def _inner_layers(
    ctx: BchaseStreamContext,
    c: Constellation,
    la: np.ndarray,
    use_idx: np.ndarray,
    total: np.ndarray,
    stats: DetectorStats | None,
) -> None:
    """Add every inner layer's best metric to the (rows, M) totals in place,
    walking the feedback chain bottom-up under each candidate."""
    batch = len(ctx)
    n = ctx.layers.shape[1]
    m = c.order
    r, y_rot, perms = ctx.r, ctx.y_rot, ctx.layers
    cand = c.symbols
    axis = c.axis

    shat = np.zeros((batch, max(n - 1, 1), m), dtype=complex)
    svar = np.zeros((batch, max(n - 1, 1), m))

    for l in range(n - 2, -1, -1):
        la_layer = la[use_idx, perms[:, l], :]
        r_row = r[:, l, :]
        r_ll = r_row[:, l].real
        z = y_rot[:, l : l + 1] - r_row[:, n - 1 : n] * cand
        z -= np.einsum("uf,ufm->um", r_row[:, l + 1 : n - 1], shat[:, l + 1 : n - 1])
        z /= r_ll[:, None]
        layer_var = 1.0 + np.einsum(
            "uf,ufm->um", np.abs(r_row[:, l + 1 : n - 1]) ** 2, svar[:, l + 1 : n - 1]
        )
        eff_var = layer_var / r_ll[:, None] ** 2
        # The bottom inner layer has no feedback, so its effective variance
        # (hence its boundary set) is the same for every candidate and the
        # slicer serves all M candidates. Above it the variance differs per
        # candidate, and the maximum of the sqrt(M) level metrics is the
        # sliced level's metric for less work than a boundary set per
        # candidate; the count still charges the paper's per-candidate
        # boundary sets.
        bottom = l == n - 2
        la_axes = axis_parts(la_layer).copy()[:, :, None, :]
        z_axes = np.stack((z.real, z.imag))
        if bottom:
            idx = slice_pam(z_axes, axis, pam_boundaries(axis, la_axes, eff_var[:, :1]))
            chase.add_axis_metrics(total, pam_metric(axis, idx, z_axes, la_axes, eff_var))
        else:
            chase.add_axis_metrics(total, _best_level_metric(z_axes, axis, la_axes, eff_var))
        if stats is not None:
            stats.boundary_evals += batch * (1 if bottom else m) * 2 * axis.npairs

        if l == 0:
            break  # nothing below consumes this layer's estimate

        post = la_layer[:, None, :] + layer_post_llrs(z, r_ll[:, None], layer_var, c)
        mean, var = soft_symbol_stats(post, c)
        shat[:, l, :] = mean
        svar[:, l, :] = var
        if stats is not None:
            stats.soft_stat_evals += batch * m


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
    n_streams = contexts.layers.shape[-1]
    return chase.detect_all_uses(
        _inner_layers, context_values(c, n_streams), contexts, c, la, stats
    )
