"""Reference detectors: exhaustive max-log a posteriori LLRs and LMMSE.

The exhaustive detector enumerates every transmit vector and is the ground
truth the list detectors are measured against; it is feasible only while
M**n_streams stays small (capped at 2**20 hypotheses). The LMMSE detector
is the cheap non-iterative baseline: a per-stream linear estimate followed
by a scalar max-log demap, ignoring any a priori input.
"""

from __future__ import annotations

import numpy as np

from .channel import WhitenedModel, require_finite
from .constellation import Constellation, PamAxis, coset_min_sqdist
from .counters import DetectorStats

MAX_EXHAUSTIVE = 1 << 20
_CHUNK = 1 << 16
# Floor on the LMMSE effective noise variance, for numerical safety.
LMMSE_NOISE_FLOOR = 1e-12


def exact_maxlog_llrs(
    model: WhitenedModel,
    c: Constellation,
    apriori: np.ndarray | None = None,
    stats: DetectorStats | None = None,
) -> np.ndarray:
    """Max-log bit LLRs (n, q) from a full search over all M**n transmit vectors.

    For each candidate vector the metric is sum of per-bit a priori terms
    (label * LLR) minus the squared whitened residual; each bit's LLR is the
    difference of coset maxima. A non-finite model raises ValueError.
    """
    require_finite(model)
    n = model.n_streams
    m = c.order
    q = c.bits_per_symbol
    total = m**n
    if total > MAX_EXHAUSTIVE:
        raise ValueError(
            f"{m}-QAM with {n} streams needs {total} hypotheses, "
            f"cap is {MAX_EXHAUSTIVE}"
        )
    if apriori is None:
        apriori = np.zeros((n, q))
    apriori = np.asarray(apriori, dtype=float)
    if apriori.shape != (n, q):
        raise ValueError(f"expected a priori shape {(n, q)}")

    # Stream i is digit i of the hypothesis index, most significant first,
    # so the metric table reshapes to (M,) * n with axis i = stream i.
    prior_tab = apriori @ c.bit_labels_f.T  # (n, M)
    radix = m ** np.arange(n - 1, -1, -1)
    metrics = np.empty(total)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        digits = (idx[:, None] // radix) % m  # (chunk, n)
        s = c.symbols[digits]
        resid = model.y[None, :] - s @ model.h.T
        prior = np.zeros(len(idx))
        for i in range(n):
            prior += prior_tab[i, digits[:, i]]
        metrics[start : start + len(idx)] = prior - np.sum(
            np.abs(resid) ** 2, axis=1
        )

    table = metrics.reshape((m,) * n)
    llrs = np.empty((n, q))
    for i in range(n):
        other = tuple(j for j in range(n) if j != i)
        per_symbol = table.max(axis=other) if other else table
        for k in range(q):
            zeros, ones = c.bit_coset_idx[k]
            llrs[i, k] = per_symbol[ones].max() - per_symbol[zeros].max()

    if stats is not None:
        stats.metric_evals += total
        stats.streams += n
    return llrs


def brute_pam_argmax(
    z: np.ndarray,
    axis: PamAxis,
    apriori: np.ndarray,
    noise_var: np.ndarray,
) -> np.ndarray:
    """Index of the metric-maximizing level by direct evaluation.

    Same metric as the interval slicer: per-level prior minus squared
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

    llrs = np.empty(z.shape + (c.bits_per_symbol,))
    d0, d1 = coset_min_sqdist(z.real, c.real_axis)
    llrs[..., c.real_bits] = (d0 - d1) / nu[..., None]
    d0, d1 = coset_min_sqdist(z.imag, c.imag_axis)
    llrs[..., c.imag_bits] = (d0 - d1) / nu[..., None]

    if stats is not None:
        streams = z.size
        stats.metric_evals += streams * (c.real_axis.nlevels + c.imag_axis.nlevels)
        stats.streams += streams
    return llrs
