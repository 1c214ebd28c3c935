"""Reference detectors: exhaustive max-log a posteriori LLRs and LMMSE.

The exhaustive detector scores every transmit vector and is the ground
truth the list detectors are measured against; it is feasible only while
M**n_streams stays small (capped at 2**20 hypotheses). It factors each use
as h = QR once and builds the metric table of all M**n hypotheses as a tree
of broadcast sums, one row of R at a time, on every pass. A stack of uses
runs in slices under chase.SLICE_VALUES, one use at least. The LMMSE
detector is the cheap non-iterative baseline: a per-stream linear estimate
followed by a scalar max-log demap, ignoring any a priori input.
"""

from __future__ import annotations

import numpy as np

from . import chase
from .channel import WhitenedModel, require_finite
from .constellation import Constellation, PamAxis, coset_sqdist_gap, label_order

MAX_EXHAUSTIVE = 1 << 20
# Floor on the LMMSE effective noise variance, for numerical safety.
LMMSE_NOISE_FLOOR = 1e-12


def use_values(c: Constellation, n_streams: int) -> int:
    """Float64 values the max-log oracle charges one use at its peak: per
    hypothesis the table, the top row's residual and the partial sum before
    it (2.06 to 2.4 measured); per use its [R z] factors (2 values per
    entry) and each stream's level priors and symbol products (3 per stream
    and level measured), charged 6 values per entry, stream and level."""
    return 3 * c.order**n_streams + 6 * n_streams * (n_streams + 1 + c.order)


def _metric_table(
    z: np.ndarray, r: np.ndarray, prior_tab: np.ndarray, c: Constellation
) -> np.ndarray:
    """Metric (uses, M, ..., M) of every hypothesis, axis j + 1 for stream j:
    its priors, from prior_tab (uses, n, M), minus sum_k |sum_(j>=k) R_kj s_j
    - z_k|^2 over the rows of R (uses, k, n), with z = Q^H y (uses, k)."""
    uses, n, m = prior_tab.shape

    def on_axis(v, j):  # (uses, M) values of stream j, broadcast over the others
        return v.reshape((uses,) + (1,) * j + (m,) + (1,) * (n - 1 - j))

    # Sums run from the last stream up, so each add's wide operand is
    # contiguous over the trailing axes and numpy's inner loops span them.
    table = sum(on_axis(prior_tab[:, j], j) for j in reversed(range(n)))
    for k in range(r.shape[1]):
        terms = r[:, k, k:, None] * c.symbols  # (uses, n - k, M)
        terms[:, 0] -= z[:, k, None]
        for part in (np.real, np.imag):  # each squared in place and freed
            resid = sum(on_axis(part(terms[:, j - k]), j) for j in reversed(range(k, n)))
            table -= np.square(resid, out=resid)
            del resid
    return table


def maxlog_factors(model: WhitenedModel) -> np.ndarray:
    """[R z] (..., min(rx, n), n + 1), h = QR and z = Q^H y, of one use, y (rx,)
    and h (rx, n), or a stack of uses with leading axes on both, from one
    R-only QR of [h y] per use. Non-finite input raises ValueError."""
    require_finite(model)
    hy = np.concatenate([model.h, model.y[..., None]], axis=-1)
    return np.linalg.qr(hy, mode="r")[..., : model.n_streams, :]


def maxlog_llrs(
    factors: np.ndarray,
    c: Constellation,
    apriori: np.ndarray | None = None,
) -> np.ndarray:
    """Max-log bit LLRs (..., n, q) from a full search over all M**n transmit vectors.

    factors is [R z] from maxlog_factors, whose leading axes apriori
    (..., n, q) shares. A candidate's metric is its a priori term (label *
    LLR) minus its squared whitened residual; each bit's LLR is the
    difference of coset maxima. Non-finite a priori LLRs raise ValueError.
    """
    lead, rows, n = factors.shape[:-2], factors.shape[-2], factors.shape[-1] - 1
    q, total = c.bits_per_symbol, c.order**n
    if total > MAX_EXHAUSTIVE:
        raise ValueError(
            f"{c.order}-QAM with {n} streams needs {total} hypotheses, cap is {MAX_EXHAUSTIVE}"
        )
    apriori = np.zeros(lead + (n, q)) if apriori is None else np.asarray(apriori, dtype=float)
    if apriori.shape != lead + (n, q):
        raise ValueError(f"expected a priori shape {lead + (n, q)}")
    if not np.isfinite(apriori).all():
        raise ValueError("a priori LLRs must be finite")

    rz = factors.reshape(-1, rows, n + 1)
    step = max(1, chase.SLICE_VALUES // use_values(c, n))
    llrs = np.empty((len(rz), n, q))
    for start in range(0, len(rz), step):
        uses = slice(start, start + step)
        prior_tab = apriori.reshape(-1, n, q)[uses] @ c.bit_labels_f.T  # (uses, n, M)
        table = _metric_table(rz[uses, :, n], rz[uses, :, :n], prior_tab, c)
        for i in range(n):
            other = tuple(j + 1 for j in range(n) if j != i)
            llrs[uses, i] = chase.coset_llrs(table.max(axis=other), c)
        del table  # before the next slice builds its own
    return llrs.reshape(lead + (n, q))


def exact_maxlog_llrs(model: WhitenedModel, c: Constellation, apriori=None) -> np.ndarray:
    """maxlog_llrs of one use or a stack of uses, factored here."""
    return maxlog_llrs(maxlog_factors(model), c, apriori)


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


def lmmse_llrs(model: WhitenedModel, c: Constellation) -> np.ndarray:
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
    return label_order(gap)
