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

Every inner layer takes the largest of each axis's sqrt(M) level metrics
(chase.add_layer_metric), bit for bit the metric of the level the paper's
slicer picks. The paper's cost model charges that slicer's boundaries: one
set per context on the bottom-most inner layer, which sees no feedback
(unit effective variance), and one per candidate above it; this module
counts nothing. The top layer computes no post-detection LLRs since
nothing consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chase
from .channel import WhitenedModel, require_finite
from .constellation import Constellation, coset_sqdist_gap, label_order, soft_symbol_stats
from .constellation import pam_boundaries, pam_metric, slice_pam, stack_axes
from .errors import SingularMatrixError
from .linalg import qr

# Uncalled; held because perfbench/tracing.py wraps these names in this module.
_TRACED = (pam_boundaries, slice_pam, pam_metric)


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


def layer_post_llrs(parts, r_ll, layer_var, c: Constellation) -> np.ndarray:
    """Post-detection LLRs of a layer given its normalized observation z.

    z is the feedback-cancelled, r_ll-normalized layer observation (so the
    residual distance to a symbol s is |r_ll|^2 |z - s|^2), given as its
    stacked parts (2,) + z.shape (constellation.stack_axes), and layer_var
    the layer's effective noise variance. Distance-only (prior-free) coset
    minima are taken for both axes at once. z's shape and the others
    broadcast; the result gains a trailing q axis, a view over bit-major
    memory (see label_order) that callers may update in place.
    """
    scale = np.asarray(r_ll, dtype=float) ** 2 / np.asarray(layer_var, dtype=float)
    shape = (2,) + np.broadcast_shapes(np.shape(parts)[1:], scale.shape)
    gap = coset_sqdist_gap(np.broadcast_to(parts, shape), c.axis)
    gap *= scale
    return label_order(gap)


def context_values(c: Constellation, n_streams: int) -> int:
    """Float64 values one context is charged.

    With three or more streams the peak falls on a feedback layer, in
    layer_post_llrs or soft_symbol_stats, at under 2*q + 3*n_streams + 8
    values per candidate under tracemalloc. Per candidate it holds the
    running total; the inner layers' soft means and variances, 3 per
    stream; the layer's z, stacked once as (real, imag), and its variance,
    3; and then either both axes' q-wide coset minima and one level's
    distances, or the LLRs, their tanh and three moment arrays one bit
    wide. The charge, 4*q + 3*n_streams + 16 per candidate, leaves a full
    64-QAM slice holding about 1.8 MB at its peak; a full lchase slice
    holds about 1.1 MB. A charge of 2*q + 3*n_streams + 12, just above the
    peak, filled bchase's slices to 2.6 MB and raised peak RSS by 0.5 MB
    for no measurable speed.

    With one or two streams no layer feeds back, and the peak falls in
    best_level_metric on the bottom layer: the running total, z's stacked
    axes, the soft means and variances, both variances and the walk's two
    buffers for both axes take 12 values per candidate. Measured with the
    per-context terms: 12.8 to 15.0; the charge is 24.

    Per context, the a priori and output LLRs and the level priors take
    under 16*q more. tests/test_chase.py holds a measured peak to this.
    """
    q = c.bits_per_symbol
    if n_streams <= 2:
        return 24 * c.order + 16 * q
    per_candidate = 4 * q + 3 * n_streams + 16
    return c.order * per_candidate + 16 * q


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

    shat = np.zeros((batch, max(n - 1, 1), m), dtype=complex)
    svar = np.zeros((batch, max(n - 1, 1), m))

    for l in range(n - 2, -1, -1):
        la_layer = la[use_idx, perms[:, l], :]
        r_row = r[:, l, :]
        r_ll = r_row[:, l].real
        z = y_rot[:, l : l + 1] - r_row[:, n - 1 : n] * cand
        z -= np.einsum("uf,ufm->um", r_row[:, l + 1 : n - 1], shat[:, l + 1 : n - 1])
        z /= r_ll[:, None]
        parts = stack_axes(z)  # one stack for the walk and the coset minima
        del z
        layer_var = 1.0 + np.einsum(
            "uf,ufm->um", np.abs(r_row[:, l + 1 : n - 1]) ** 2, svar[:, l + 1 : n - 1]
        )
        chase.add_layer_metric(total, parts, layer_var / r_ll[:, None] ** 2, la_layer, c)

        if l == 0:
            break  # nothing below consumes this layer's estimate

        post = layer_post_llrs(parts, r_ll[:, None], layer_var, c)
        post += la_layer[:, None, :]
        shat[:, l, :], svar[:, l, :] = soft_symbol_stats(post, c)
        del post  # not live under the next layer's coset minima


def detect_all_uses(
    contexts: BchaseStreamContext, c: Constellation, la: np.ndarray, live=None
) -> np.ndarray:
    """Detect every live stream of every use, in slices under chase.SLICE_VALUES.

    contexts is the (streams, uses) stack from prepare_all_uses and la is
    (uses, n_streams, q); returns LLRs of the same shape as la, 0.0 past
    each stream's live uses (see chase.detect_all_uses).
    """
    n_streams = contexts.layers.shape[-1]
    return chase.detect_all_uses(_inner_layers, context_values(c, n_streams), contexts, c, la, live)
