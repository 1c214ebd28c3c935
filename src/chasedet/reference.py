"""Reference detectors: exhaustive max-log a posteriori LLRs and LMMSE.

The exhaustive detector enumerates every transmit vector and is the ground
truth the list detectors are measured against; it is feasible only while
M**n_streams stays small (capped at 2**20 hypotheses). A stack of uses runs
in slices under chase.SLICE_VALUES, and a use whose metric table alone
exceeds it walks its hypotheses in chunks. The LMMSE detector is the cheap
non-iterative baseline: a per-stream linear estimate followed by a scalar
max-log demap, ignoring any a priori input.
"""

from __future__ import annotations

import numpy as np

from . import chase
from .channel import WhitenedModel, require_finite
from .constellation import Constellation, PamAxis, coset_sqdist_gap, label_order
from .counters import DetectorStats

MAX_EXHAUSTIVE = 1 << 20
# Floor on the LMMSE effective noise variance, for numerical safety.
LMMSE_NOISE_FLOOR = 1e-12


def _hypotheses(c: Constellation, n: int, lo: int, hi: int) -> tuple:
    """Base-M digits (hi - lo, n) of hypotheses lo..hi-1, stream 0 first, and symbols."""
    digits = np.arange(lo, hi)[:, None] // c.order ** np.arange(n - 1, -1, -1)
    digits %= c.order
    return digits, c.symbols[digits]


def hypothesis_values(n_streams: int, n_rx: int) -> int:
    """Float64 values the max-log oracle keeps live per (use, hypothesis) at its peak."""
    # s @ h^T and the residual take 4 per receive antenna, the digits and
    # symbols 3 per stream, and priors, metrics, sums and numpy buffers 8.
    return 4 * n_rx + 3 * n_streams + 8


def exact_maxlog_llrs(
    model: WhitenedModel,
    c: Constellation,
    apriori: np.ndarray | None = None,
    stats: DetectorStats | None = None,
) -> np.ndarray:
    """Max-log bit LLRs (..., n, q) from a full search over all M**n transmit vectors.

    model is one use, y (rx,) and h (rx, n), or a stack of uses with leading
    axes on both, which apriori (..., n, q) shares. A candidate's metric is
    its a priori term (label * LLR) minus its squared whitened residual; each
    bit's LLR is the difference of coset maxima. A non-finite model raises
    ValueError.
    """
    require_finite(model)
    lead, (n_rx, n) = model.h.shape[:-2], model.h.shape[-2:]
    m, q, total = c.order, c.bits_per_symbol, c.order**n
    if total > MAX_EXHAUSTIVE:
        raise ValueError(
            f"{m}-QAM with {n} streams needs {total} hypotheses, cap is {MAX_EXHAUSTIVE}"
        )
    apriori = np.zeros(lead + (n, q)) if apriori is None else np.asarray(apriori, dtype=float)
    if apriori.shape != lead + (n, q):
        raise ValueError(f"expected a priori shape {lead + (n, q)}")

    y = model.y.reshape(-1, 1, n_rx)
    h_t = np.swapaxes(model.h.reshape(-1, n_rx, n), 1, 2)
    charge = hypothesis_values(n, n_rx)
    step = min(total, max(1, chase.SLICE_VALUES // charge))
    use_step = max(1, chase.SLICE_VALUES // (charge * total))
    whole = _hypotheses(c, n, 0, total) if step == total else None
    metrics = np.empty((min(use_step, len(y)), total))
    llrs = np.empty((len(y), n, q))
    for start in range(0, len(y), use_step):
        uses = slice(start, start + use_step)
        prior_tab = apriori.reshape(-1, n, q)[uses] @ c.bit_labels_f.T  # (uses, n, M)
        rows = metrics[: len(prior_tab)]
        for lo in range(0, total, step):
            digits, s = whole or _hypotheses(c, n, lo, min(lo + step, total))
            prior = np.zeros((len(rows), len(s)))
            for i in range(n):
                prior += prior_tab[:, i, digits[:, i]]
            # A one-row product goes to gemv, which rounds unlike gemm: a lone
            # hypothesis is padded to two, as chase.candidate_priors pads.
            tx = (np.concatenate([s, s]) if len(s) == 1 else s) @ h_t[uses]
            sq_dist = np.sum(np.abs(y[uses] - tx[:, : len(s)]) ** 2, axis=2)
            rows[:, lo : lo + len(s)] = prior - sq_dist
        table = rows.reshape((-1,) + (m,) * n)  # axis i + 1 is stream i
        for i in range(n):
            other = tuple(j + 1 for j in range(n) if j != i)
            llrs[uses, i] = chase.coset_llrs(table.max(axis=other), c)

    if stats is not None:
        stats.metric_evals += len(y) * total
        stats.streams += len(y) * n
    return llrs.reshape(lead + (n, q))


def brute_pam_argmax(
    z: np.ndarray,
    axis: PamAxis,
    apriori: np.ndarray,
    noise_var: np.ndarray,
) -> np.ndarray:
    """Index of the metric-maximizing level by direct evaluation.

    Same metric as the threshold slicer: per-level prior minus squared
    distance over the noise variance, ties to the smaller index.
    """
    z = np.asarray(z, dtype=float)
    prior = axis.level_priors(np.asarray(apriori, dtype=float))
    var = np.asarray(noise_var, dtype=float)
    metric = prior - ((z[..., None] - axis.levels) ** 2) / var[..., None]
    return metric.argmax(axis=-1)


def lmmse_llrs(
    model: WhitenedModel,
    c: Constellation,
    stats: DetectorStats | None = None,
) -> np.ndarray:
    """Per-stream LMMSE estimate and scalar max-log demap, zero a priori.

    With whitened h, the filter is (h^H h + I)^-1 h^H; the biased estimate
    is rescaled by the filter gain mu and demapped with effective noise
    variance (1 - mu) / mu per stream, floored at LMMSE_NOISE_FLOOR. Returns
    LLRs (n, q); a model stacked over uses adds its leading axes. A non-finite
    model raises ValueError.
    """
    require_finite(model)
    h = model.h
    n = model.n_streams
    h_herm = np.swapaxes(h.conj(), -1, -2)
    gram = h_herm @ h + np.eye(n)
    filt = np.linalg.solve(gram, h_herm)
    shat = (filt @ model.y[..., None])[..., 0]
    mu = np.real(np.einsum("...ij,...ji->...i", filt, h))
    if np.any(mu <= 0.0) or np.any(mu > 1.0 + 1e-9):
        raise ArithmeticError("LMMSE filter gain outside (0, 1]")
    z = shat / mu
    nu = np.maximum((1.0 - mu) / mu, LMMSE_NOISE_FLOOR)

    gap = coset_sqdist_gap(z, c.axis)
    gap /= nu
    llrs = label_order(gap)

    if stats is not None:
        streams = z.size
        stats.metric_evals += streams * 2 * c.axis.nlevels
        stats.streams += streams
    return llrs
