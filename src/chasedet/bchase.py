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
counts nothing. A layer that feeds back takes its post-detection LLRs'
coset minima from the same walk over its levels, so each level's distance
is formed once per layer; the top layer computes no post-detection LLRs
since nothing consumes them. The bottom layer's variance, 1/r_ll^2, is
per row. A feedback layer's walk, holding both axes' coset minima, is
where a slice peaks (see context_values).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chase
from .channel import WhitenedModel, require_finite
from .constellation import Constellation, axis_parts, label_order
from .constellation import pam_boundaries, pam_metric, slice_pam, soft_symbol_stats, stack_axes
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
    """Column orders (n, U, n) of every target stream of every use.

    h is (U, n_rx, n); order [i, u] has stream i last and the rest of use u's
    columns V-BLAST sorted. Working from the bottom-most inner position
    upward (earliest detected first), each step assigns the remaining column
    with the smallest zero-forcing noise amplification, the diagonal of the
    remaining columns' inverse Gram P; ties go to the smaller column index.
    Each use's Gram is inverted once, the detection path's only inverse, and
    each pair drops its stream, then each column it assigns, from its copy by a
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
    return order.reshape(n, n_uses, n)


def prepare_all_uses(models: WhitenedModel) -> BchaseStreamContext:
    """Order and factor every stream of every use into one (streams, uses) context.

    models is one WhitenedModel stacked over uses; ctx[i][u] is stream i of
    use u. One inverse Gram per use BLAST-orders all (stream, use) pairs and
    one QR factors them. A non-finite model raises ValueError.
    """
    require_finite(models)
    orders = _blast_orders(models.h)
    r, y_rot = qr(np.take_along_axis(models.h[None], orders[:, :, None, :], -1), models.y)
    return BchaseStreamContext(layers=orders, r=r, y_rot=y_rot)


def layer_post_llrs(gap, r_ll, layer_var, la_layer, c: Constellation) -> np.ndarray:
    """A posteriori LLRs of a layer: its post-detection LLRs given its
    normalized observation z, plus its a priori LLRs.

    gap is the layer's prior-free coset gap, both axes' d0 - d1 bit-major,
    (nbits, 2) + z.shape, as chase.add_layer_metric returns it from the
    layer's level walk; z is the feedback-cancelled, r_ll-normalized layer
    observation, so the residual distance to a symbol s is |r_ll|^2 |z -
    s|^2, and layer_var is the layer's effective noise variance. The gap is
    scaled by r_ll^2 / layer_var and la_layer is added to it, in place and
    bit-major, where each bit's values are contiguous. r_ll and layer_var
    broadcast against z's shape, and la_layer against z.shape + (q,); the
    result is z.shape + (q,), a view over gap's memory (see label_order).
    """
    gap *= np.asarray(r_ll, dtype=float) ** 2 / np.asarray(layer_var, dtype=float)
    la_bits = axis_parts(np.broadcast_to(la_layer, gap.shape[2:] + (c.bits_per_symbol,)))
    gap += np.moveaxis(la_bits, -1, 0)
    return label_order(gap)


def context_values(c: Constellation, n_streams: int) -> int:
    """Float64 values one context is charged, measured with tracemalloc
    over full slices from their first allocation to their LLRs, per-context
    terms included (tests/test_chase.py holds each peak to its charge).

    With three or more streams the peak falls in a feedback layer's level
    walk. Per candidate it holds the running total, 1; the soft means and
    variances of the n_streams - 2 layers that feed back, 3 per layer; the
    layer's z, stacked once as (real, imag), 2, and its variance before and
    after scaling by 1/r_ll^2, 2; the walk's best and current metric and
    current distance for both axes, 6; both axes' coset minima for either
    bit value, 2*q; and one pending block minimum per block size below the
    axis's halves, under q. At 4x4 that list comes to 21, 27, 33 and 39
    values per candidate from QPSK to 256-QAM, and tracemalloc read 21.3,
    28.8, 34.5 and 40.3; the rest, under 2, is per-context terms and single
    operations' temporaries. A layer frees its stacked z as its walk
    returns, and its coset gap, in which its post-detection LLRs and soft
    statistics work, before the next walk. 3x3, whose only feedback layer
    sees no feedback itself, read 16.6 at QPSK. The charge per candidate
    is 3 per feedback layer and 7*q + 4 for the layer's walk, with 16*q per
    context: 1.4 to 1.8 times the full-slice peak at 3 to 6 streams. A full
    4x4 64-QAM slice holds about 2.0 MB at its peak, a full lchase slice
    about 1.1 MB.

    With one or two streams no layer feeds back. One stream peaks in the
    target's own metrics, at 5.3 to 5.4 values per candidate, and two in
    the bottom layer's walk, which takes no coset minima, at 7.4 to 9.0.
    The charge is 3*n_streams + 5 per candidate and 2*q per context.
    """
    q = c.bits_per_symbol
    if n_streams <= 2:
        return (3 * n_streams + 5) * c.order + 2 * q
    per_candidate = 7 * q + 3 * (n_streams - 2) + 4
    return c.order * per_candidate + 16 * q


def _inner_layers(
    ctx: BchaseStreamContext,
    c: Constellation,
    la: np.ndarray,
    use_idx: np.ndarray,
    total: np.ndarray,
) -> None:
    """Add every inner layer's best metric to the (M, rows) totals in place,
    walking the feedback chain bottom-up under each candidate.

    The soft feedback of the layers already walked is kept as (layers, M,
    rows). A layer's observation is divided by its r_ll as a multiply of
    its stacked parts by 1/r_ll: numpy divides a complex by a real as
    (re + im*0) * (1/r_ll), so only the signs of zeros differ, and the
    level walk, for its metric and its coset minima alike, reads none.
    """
    n = ctx.layers.shape[1]
    r, y_rot, perms = ctx.r, ctx.y_rot, ctx.layers
    cand = c.symbols[:, None]

    # Layers n-2 .. 1 feed back, layer l at index l - 1: the top layer's
    # estimate feeds nothing.
    shat = np.empty((max(n - 2, 0), c.order, len(ctx)), dtype=complex)
    svar = np.empty(shat.shape)

    for l in range(n - 2, -1, -1):
        la_layer = la[use_idx, perms[:, l], :]
        r_row = r[:, l, :]
        r_ll = r_row[:, l].real
        z = y_rot[:, l] - r_row[:, n - 1] * cand
        if l < n - 2:
            z -= np.einsum("uf,fmu->mu", r_row[:, l + 1 : n - 1], shat[l : n - 2])
            layer_var = 1.0 + np.einsum(
                "uf,fmu->mu", np.abs(r_row[:, l + 1 : n - 1]) ** 2, svar[l : n - 2]
            )
        else:
            layer_var = 1.0  # the bottom layer: nothing fed back yet
        parts = stack_axes(z)  # one stack for the walk's metric and coset minima
        del z
        parts *= 1.0 / r_ll
        gap = chase.add_layer_metric(total, parts, layer_var / r_ll**2, la_layer, c, l > 0)
        del parts  # not live under the post-detection LLRs and soft statistics
        if l == 0:
            break  # nothing below consumes this layer's estimate

        post = layer_post_llrs(gap, r_ll, layer_var, la_layer, c)
        shat[l - 1], svar[l - 1] = soft_symbol_stats(post, c)
        del post, gap  # post is a view of gap: neither is live under the next walk


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
