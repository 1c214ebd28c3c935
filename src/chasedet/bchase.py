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
maximum, the metric of the level a per-candidate boundary set would pick.
The paper's cost model still charges those per-candidate boundaries; this
module counts nothing. The top layer computes no post-detection LLRs since
nothing consumes them.
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
    coset_sqdist_gap,
    label_order,
    pam_boundaries,
    pam_metric,
    slice_pam,
    soft_symbol_stats,
)
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
    with the smallest zero-forcing noise amplification, the diagonal of the
    remaining columns' inverse Gram P; ties go to the smaller column index.
    Each use's Gram is inverted once, the detection path's only inverse, and
    a row drops its stream, then each column it assigns, from its copy by a
    Schur downdate P -= P[:, p] P[p, :] / P[p, p] (Hassibi, ICASSP 2000;
    Benesty, Huang & Chen, IEEE SPL 2003): O(n^4) per use.
    """
    n_uses, _, n = h.shape
    rows = np.arange(n * n_uses)
    try:
        p = np.tile(np.linalg.inv(np.einsum("uji,ujk->uik", h.conj(), h)), (n, 1, 1))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from None
    order = np.empty((len(rows), n), dtype=int)
    order[:, -1] = pick = rows // n_uses
    done = np.zeros((len(rows), n), dtype=bool)
    for pos in range(n - 2, -1, -1):
        done[rows, pick] = True
        col = p[rows, :, pick]
        p -= col[:, :, None] * (p[rows, pick, :] / col[rows, pick, None])[:, None, :]
        amplification = np.where(done, np.inf, np.diagonal(p, axis1=1, axis2=2).real)
        order[:, pos] = pick = amplification.argmin(axis=1)
    return order


def prepare_all_uses(models: WhitenedModel) -> BchaseStreamContext:
    """Order and factor every stream of every use into one (streams, uses) context.

    models is one WhitenedModel stacked over uses; ctx[i][u] is stream i of
    use u. One inverse Gram per use BLAST-orders all (stream, use) pairs,
    stream-major, and one QR and one rotation factor them. A non-finite
    model raises ValueError.
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
    trailing q axis, a view over bit-major memory (see label_order) that
    callers may update in place.
    """
    z = np.asarray(z)
    scale = np.asarray(r_ll, dtype=float) ** 2 / np.asarray(layer_var, dtype=float)
    gap = coset_sqdist_gap(np.broadcast_to(z, np.broadcast_shapes(z.shape, scale.shape)), c.axis)
    gap *= scale
    return label_order(gap)


def context_values(c: Constellation, n_streams: int) -> int:
    """Float64 values one context is charged.

    With three or more streams the peak falls on a feedback layer, in
    layer_post_llrs or soft_symbol_stats, at under 2*q + 3*n_streams + 8
    values per candidate under tracemalloc. Per candidate it holds the
    running total; the inner layers' soft means and variances, 3 per
    stream; the layer's z and variance, 3; and then either z's stacked
    axes, both axes' q-wide coset minima and one level's distances, or the
    LLRs, their tanh and three moment arrays one bit wide. The charge,
    4*q + 3*n_streams + 16 per candidate, leaves about the headroom
    lchase's leaves: at 64-QAM a full slice of either detector holds about
    1.8 MB at its peak, so bchase's slices do not raise the process's peak
    RSS. A charge of 2*q + 3*n_streams + 12, just above the peak, filled
    bchase's slices to 2.6 MB and raised peak RSS by 0.5 MB for no
    measurable speed.

    With one or two streams no layer feeds back, and the peak falls in
    pam_metric on the bottom layer: the running total, z and its stacked
    axes, the soft means and variances, both variances and the sliced
    levels take 12 values per candidate, pam_metric's temporaries 8 more;
    the charge is 24.

    Per context, the a priori and output LLRs and the boundary sets take
    under 16*q more. tests/test_chase.py holds a measured peak to this.
    """
    q = c.bits_per_symbol
    if n_streams <= 2:
        return 24 * c.order + 16 * q
    per_candidate = 4 * q + 3 * n_streams + 16
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


def _layer_metric(z, r_ll, layer_var, la_layer, axis: PamAxis, bottom: bool) -> np.ndarray:
    """Best metric of one inner layer under each candidate, both axes
    stacked (2, rows, M); z and layer_var are (rows, M), r_ll (rows,) and
    la_layer (rows, q). Its effective variance is layer_var / r_ll^2. Its
    temporaries die on return, before the layer's soft feedback peaks.

    The bottom inner layer has no feedback, so its effective variance (hence
    its boundary set) is the same for every candidate and the slicer serves
    all M candidates. Above it the variance differs per candidate, and the
    maximum of the sqrt(M) level metrics is the sliced level's metric for
    less work than a boundary set per candidate; the cost model still
    charges the paper's per-candidate boundary sets.
    """
    eff_var = layer_var / r_ll[:, None] ** 2
    la_axes = axis_parts(la_layer).copy()[:, :, None, :]
    z_axes = np.stack((z.real, z.imag))
    if bottom:
        idx = slice_pam(z_axes, axis, pam_boundaries(axis, la_axes, eff_var[:, :1]))
        return pam_metric(axis, idx, z_axes, la_axes, eff_var)
    return _best_level_metric(z_axes, axis, la_axes, eff_var)


def _inner_layers(
    ctx: BchaseStreamContext,
    c: Constellation,
    la: np.ndarray,
    use_idx: np.ndarray,
    total: np.ndarray,
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
        bottom = l == n - 2
        chase.add_axis_metrics(total, _layer_metric(z, r_ll, layer_var, la_layer, axis, bottom))

        if l == 0:
            break  # nothing below consumes this layer's estimate

        post = layer_post_llrs(z, r_ll[:, None], layer_var, c)
        post += la_layer[:, None, :]
        shat[:, l, :], svar[:, l, :] = soft_symbol_stats(post, c)
        del post  # not live under the next layer's coset minima


def detect_all_uses(contexts: BchaseStreamContext, c: Constellation, la: np.ndarray) -> np.ndarray:
    """Detect every stream of every use, in slices under chase.SLICE_VALUES.

    contexts is the (streams, uses) stack from prepare_all_uses and la is
    (uses, n_streams, q); returns LLRs of the same shape as la.
    """
    n_streams = contexts.layers.shape[-1]
    return chase.detect_all_uses(_inner_layers, context_values(c, n_streams), contexts, c, la)
