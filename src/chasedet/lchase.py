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

from .channel import WhitenedModel
from .chase import (
    StackedContext,
    candidate_priors,
    coset_llrs,
    detect_rows_in_slices,
    stack_streams,
    stacked_model,
)
from .constellation import Constellation, pam_boundaries, pam_metric, slice_pam
from .counters import DetectorStats
from .linalg import back_substitute, qr, swap_permutation
from .llr import LlrFrame


@dataclass(frozen=True)
class LchaseStreamContext(StackedContext):
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


def prepare_stream(model: WhitenedModel, stream: int) -> LchaseStreamContext:
    """Factor the whitened channel for one target stream."""
    return _prepare_stream_uses(model.h[None], model.y[None], stream)[0]


def prepare_all(model: WhitenedModel) -> list[LchaseStreamContext]:
    return [prepare_stream(model, i) for i in range(model.n_streams)]


def prepare_all_uses(models) -> LchaseStreamContext:
    """Factor every stream of every use into one (streams, uses) context.

    models is a sequence of per-use WhitenedModel or one WhitenedModel
    stacked over uses; ctx[i][u] equals prepare_stream(models[u], i).
    """
    h, y = stacked_model(models)
    return stack_streams([_prepare_stream_uses(h, y, i) for i in range(h.shape[-1])])


def _detect_rows(
    ctx: LchaseStreamContext,
    c: Constellation,
    la: np.ndarray,
    use_idx: np.ndarray,
    stats: DetectorStats | None,
) -> np.ndarray:
    """Core detection over a flat batch of contexts (any mix of streams).

    la is (uses, n_streams, q) and use_idx maps each context to its la row.
    Returns max-log LLRs of shape (len(ctx), q).
    """
    batch = len(ctx)
    m = c.order
    cand = c.symbols
    prior = candidate_priors(la[use_idx, ctx.stream, :], c)
    total = prior - np.abs(ctx.ybar[:, -1:] - ctx.pivot[:, None] * cand) ** 2
    if stats is not None:
        stats.metric_evals += batch * m
        stats.hypotheses += batch * m
        stats.streams += batch

    # Boundaries depend on the layer's priors and noise variance only, so
    # one set per context serves all M candidates.
    for l in range(ctx.layers.shape[1] - 1):
        la_layer = la[use_idx, ctx.layers[:, l], :]
        var = ctx.noise_vars[:, l]
        z = ctx.ybar[:, l : l + 1] - ctx.coupling[:, l : l + 1] * cand
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

    return coset_llrs(total, c)


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
    return detect_rows_in_slices(_detect_rows, contexts, c, la, stats)


def detect_stream(
    ctx: LchaseStreamContext,
    c: Constellation,
    la,
    stats: DetectorStats | None = None,
) -> np.ndarray:
    """Max-log LLRs (q,) for one stream of one channel use."""
    values = la.values if isinstance(la, LlrFrame) else np.asarray(la, dtype=float)
    return _detect_rows(ctx[None], c, values[None], np.zeros(1, dtype=int), stats)[0]


def detect_all(
    model: WhitenedModel,
    c: Constellation,
    la,
    stats: DetectorStats | None = None,
) -> LlrFrame:
    """Detect every stream of one channel use; returns a 'detector' frame."""
    values = la.values if isinstance(la, LlrFrame) else np.asarray(la, dtype=float)
    contexts = prepare_all_uses([model])
    return LlrFrame(detect_all_uses(contexts, c, values[None], stats)[0], "detector")
