"""Gray-mapped square QAM alphabets and their one-dimensional PAM machinery.

A square M-QAM symbol is two independent sqrt(M)-PAM coordinates. Every
per-symbol operation the detectors need (a-priori-aware slicing, per-level
metrics, soft symbol statistics) therefore reduces to one-dimensional work on
a PamAxis, which is where almost all of this module lives.

Labeling convention (fixed, asserted by tests): bits are indexed 0..q-1 with
bit 0 the MSB of the symbol index; even positions (0, 2, ...) form the real
sub-label, odd positions the imaginary one. Each axis uses a binary-reflected
Gray code with the all-zero sub-label on the most positive level, and levels
are stored in strictly descending order (index 0 = most positive).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .llr import saturate

SUPPORTED_ORDERS = (4, 16, 64, 256)


def _gray_sub_labels(nbits: int) -> np.ndarray:
    """Binary-reflected Gray sub-labels, one row per level, MSB first."""
    count = 1 << nbits
    idx = np.arange(count)
    gray = idx ^ (idx >> 1)
    shifts = np.arange(nbits - 1, -1, -1)
    return ((gray[:, None] >> shifts) & 1).astype(np.int8)


class PamAxis:
    """One PAM coordinate: descending levels plus their Gray sub-labels.

    Precomputes the per-pair tables used to modulate decision boundaries so
    that boundary values are one matrix product regardless of how many
    (batched) LLR vectors are involved.
    """

    def __init__(self, levels: np.ndarray, sub_labels: np.ndarray):
        levels = np.asarray(levels, dtype=float)
        sub_labels = np.asarray(sub_labels)
        if levels.ndim != 1 or len(levels) < 2:
            raise ValueError("axis needs at least two levels")
        if sub_labels.shape != (len(levels), int(math.log2(len(levels)))):
            raise ValueError("sub_labels must be (n_levels, log2(n_levels))")
        if not np.all(np.diff(levels) < 0):
            raise ValueError("levels must be strictly descending")
        if not np.allclose(levels, -levels[::-1], atol=1e-9):
            raise ValueError("levels must be symmetric about zero")
        spacing = np.diff(levels)
        if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=1e-12):
            raise ValueError("levels must be uniformly spaced")
        if len({tuple(row) for row in sub_labels.tolist()}) != len(levels):
            raise ValueError("sub-labels must be distinct")
        flips = np.abs(np.diff(sub_labels.astype(int), axis=0)).sum(axis=1)
        if not np.all(flips == 1):
            raise ValueError("adjacent levels must differ in exactly one bit (Gray)")

        self.levels = levels
        self.sub_labels = sub_labels.astype(np.int8)
        self.nlevels = len(levels)
        self.nbits = self.sub_labels.shape[1]
        self._labels_f = self.sub_labels.astype(float)

        # Unordered level pairs (m, u) with m < u, i.e. x_m > x_u.
        first, second = np.triu_indices(self.nlevels, 1)
        self.pair_first = first
        self.pair_second = second
        self.pair_mid = (levels[first] + levels[second]) / 2.0
        gap = 2.0 * (levels[first] - levels[second])
        self.pair_coef = (self._labels_f[first] - self._labels_f[second]) / gap[:, None]
        self.npairs = len(first)

        # Every bit's 0 and 1 cosets must be populated.
        for n, column in enumerate(self.sub_labels.T):
            if not ((column == 0).any() and (column == 1).any()):
                raise ValueError(f"axis bit {n} has an empty coset")

    def level_priors(self, apriori: np.ndarray) -> np.ndarray:
        """Per-level a priori term sum_n b_mn * La(n): (..., nbits) -> (..., L).

        Bit terms are added left to right onto +0.0, as a sum over the bit
        axis adds them, so a -0.0 term comes out +0.0 there too. The matmul
        form rounds differently at 256-QAM, so every metric takes its priors
        from here and they agree to the last bit.
        """
        apriori = np.asarray(apriori, dtype=float)
        labels = self._labels_f
        prior = 0.0 + apriori[..., :1] * labels[:, 0]
        for k in range(1, self.nbits):
            prior += apriori[..., k : k + 1] * labels[:, k]
        return prior


class BoundarySet:
    """A-priori-modulated slicing boundaries for one PamAxis.

    Holds one boundary value D_mu per unordered level pair (m < u), the
    per-level [lower, upper) intervals they induce, lower_m = max_{u>m} D_mu
    and upper_u = min_{m<u} D_mu, and the L-1 decision thresholds slice_pam
    counts. Leading batch dimensions of `apriori`/`noise_var` are carried
    through, so one BoundarySet can describe a whole batch of independent
    slicing problems.

    Non-empty intervals are disjoint and ordered, since lower_m >= D_mu >=
    upper_u for every u > m. Threshold t_m (m = 1..L-1, level-major, shaped
    (L-1, ...)) is the smallest lower bound of a non-empty interval above
    level m, so a z in some interval lies below exactly as many thresholds
    as that interval's index. Float rounding can leave an ulp-wide gap
    between neighbouring intervals at a three-way near-tie, and a
    non-finite prior can empty the bottom interval. `gapped` is set when
    some set of the batch has such a hole, which slice_pam then resolves by
    direct metric evaluation.
    """

    def __init__(self, axis: PamAxis, apriori: np.ndarray, noise_var) -> None:
        apriori = np.asarray(apriori, dtype=float)
        if apriori.shape[-1] != axis.nbits:
            raise ValueError("apriori length must match axis bit count")
        var = np.asarray(noise_var, dtype=float)
        if np.any(var <= 0.0) or not np.all(np.isfinite(var)):
            raise ValueError("noise_var must be positive and finite")

        values = axis.pair_mid - var[..., None] * (apriori @ axis.pair_coef.T)
        # Max and min are exact in any order: pair by pair from -inf / +inf,
        # level-major.
        lower = np.full((axis.nlevels,) + values.shape[:-1], -np.inf)
        upper = np.full_like(lower, np.inf)
        for p, (m, u) in enumerate(zip(axis.pair_first, axis.pair_second)):
            np.maximum(lower[m, ...], values[..., p], out=lower[m, ...])
            np.minimum(upper[u, ...], values[..., p], out=upper[u, ...])
        # Non-empty levels (lower < upper; NaN bounds count as empty) feed a
        # running minimum, walked because np.minimum.accumulate takes several
        # times as long on these short axes. A gap is a non-empty level whose
        # upper bound falls short of the threshold above it, or an empty
        # bottom level, which only a non-finite prior makes.
        open_ = lower < upper
        thresholds = np.where(open_[:-1], lower[:-1], np.inf)
        for m in range(1, axis.nlevels - 1):
            np.minimum(thresholds[m - 1, ...], thresholds[m, ...], out=thresholds[m, ...])
        gap = open_[1:] & (upper[1:] < thresholds)

        self.values = values
        self.lower = np.moveaxis(lower, 0, -1)
        self.upper = np.moveaxis(upper, 0, -1)
        self.thresholds = thresholds
        self.gapped = bool(gap.any()) or not open_[-1].all()
        self._apriori = apriori
        self._var = var


def pam_boundaries(axis: PamAxis, apriori: np.ndarray, noise_var) -> BoundarySet:
    """Boundary set for slicing with priors `apriori` and noise variance `noise_var`.

    With zero priors the boundaries are the plain pairwise midpoints; finite
    priors shift each pairwise boundary by noise_var * sum_n (b_mn - b_un) *
    La(n) / (2 (x_m - x_u)).
    """
    return BoundarySet(axis, apriori, noise_var)


def slice_pam(z, axis: PamAxis, boundaries: BoundarySet) -> np.ndarray:
    """Map observations to the metric-maximizing level index.

    Returns, for every z, the index m whose interval [max_{u>m} D_mu,
    min_{u<m} D_um) contains z, which is exactly the argmax of
    pam_metric over all levels, with ties resolved toward the smaller index
    (more positive level). Total on all real inputs.

    The index is the count of a-priori-shifted thresholds above z, one
    comparison per threshold on arrays shaped like z (see BoundarySet).
    Only a gapped set or a non-finite z needs more: there the count is kept
    where its interval holds z and the rest take the direct metric argmax.
    """
    z = np.asarray(z, dtype=float)
    shape = np.broadcast_shapes(z.shape, boundaries.values.shape[:-1])
    idx = np.zeros(shape, dtype=np.intp)
    below = np.empty(shape, dtype=bool)
    for t in boundaries.thresholds:
        np.less(z, t, out=below)
        idx += below
    if boundaries.gapped or not np.isfinite(z).all():
        upper = np.broadcast_to(boundaries.upper, shape + (axis.nlevels,))
        covered = z < np.take_along_axis(upper, idx[..., None], axis=-1)[..., 0]
        metric = axis.level_priors(boundaries._apriori) - (
            (z[..., None] - axis.levels) ** 2
        ) / boundaries._var[..., None]
        idx = np.where(covered, idx, metric.argmax(axis=-1))
    return idx


def pam_metric(axis: PamAxis, level, z, apriori: np.ndarray, noise_var) -> np.ndarray:
    """Per-level metric sum_n b_mn*La(n) - (z - x_m)^2 / noise_var.

    The prior term is formed once per level by PamAxis.level_priors, shaped
    (..., L) like apriori's batch axes, and gathered at `level` by flat
    index; those batch axes broadcast against level's.
    """
    level = np.asarray(level)
    prior = axis.level_priors(apriori)
    start = np.arange(0, prior.size, axis.nlevels).reshape(prior.shape[:-1])
    prior = prior.take(start + level)
    dist = (np.asarray(z, dtype=float) - axis.levels[level]) ** 2
    return prior - dist / np.asarray(noise_var, dtype=float)


def coset_min_sqdist(z, axis: PamAxis) -> tuple[np.ndarray, np.ndarray]:
    """Per-bit minimum squared distance to the bit-0 / bit-1 level cosets.

    Returns (d0, d1), each shaped like z with a trailing axis of axis.nbits.
    This is the prior-free slicing problem restricted to each coset, used by
    the post-detection LLRs of the feedback chain and the LMMSE demapper.
    """
    z = np.asarray(z, dtype=float)
    # Levels are walked one at a time with z's shape innermost: each level's
    # squared distance is formed once and folded into the bit-major minima
    # of every coset it belongs to.
    d0 = np.full((axis.nbits,) + z.shape, np.inf)
    d1 = np.full((axis.nbits,) + z.shape, np.inf)
    dist = np.empty(z.shape)
    for level, bits in zip(axis.levels, axis.sub_labels):
        np.subtract(z, level, out=dist)
        np.square(dist, out=dist)
        for n, bit in enumerate(bits):
            best = d1[n, ...] if bit else d0[n, ...]
            np.minimum(best, dist, out=best)
    return np.moveaxis(d0, 0, -1), np.moveaxis(d1, 0, -1)


def coset_sqdist_gap(z, axis: PamAxis) -> np.ndarray:
    """d0 - d1 of coset_min_sqdist for both parts of a complex z, bit-major:
    (axis.nbits, 2) + z.shape, the real part first along axis 1.

    The difference is taken in place on coset_min_sqdist's bit-major
    buffers, so every per-bit slice is contiguous; label_order views the
    result per bit.
    """
    d0, d1 = coset_min_sqdist(np.stack((z.real, z.imag)), axis)
    return np.moveaxis(np.subtract(d0, d1, out=d0), -1, 0)


class Constellation:
    """Unit-energy Gray-mapped square QAM alphabet.

    symbols[k] is the point whose bit label is the MSB-first binary expansion
    of k, so modulation is a table lookup. The real (imaginary) coordinate is
    driven by the even (odd) label positions.
    """

    def __init__(self, order: int):
        if order not in SUPPORTED_ORDERS:
            raise ConfigError(f"unsupported modulation order {order}")
        self.order = order
        self.bits_per_symbol = int(math.log2(order))
        q = self.bits_per_symbol
        side = 1 << (q // 2)

        norm = math.sqrt(2.0 * (order - 1) / 3.0)
        amplitudes = np.arange(side - 1, -side, -2, dtype=float)
        levels = amplitudes / norm
        sub_labels = _gray_sub_labels(q // 2)
        # Square QAM: both coordinates are the same PAM axis.
        self.axis = PamAxis(levels, sub_labels)

        shifts = np.arange(q - 1, -1, -1)
        ks = np.arange(order)
        self.bit_labels = ((ks[:, None] >> shifts) & 1).astype(np.int8)
        self.bit_labels_f = self.bit_labels.astype(float)

        sub_weights = 1 << np.arange(q // 2 - 1, -1, -1)
        gray_to_level = np.empty(side, dtype=int)
        gray_ints = (sub_labels * sub_weights).sum(axis=1)
        gray_to_level[gray_ints] = np.arange(side)

        sub_ints = axis_parts(self.bit_labels) @ sub_weights
        real_levels, imag_levels = levels[gray_to_level[sub_ints]]
        self.symbols = real_levels + 1j * imag_levels

        energy = np.mean(np.abs(self.symbols) ** 2)
        if abs(energy - 1.0) > 1e-12:
            raise AssertionError(f"constellation energy {energy} != 1")

        # Symbol-index cosets per full-label bit; both sides always populated.
        self.bit_coset_idx: list[tuple[np.ndarray, np.ndarray]] = []
        for k in range(q):
            zeros = np.nonzero(self.bit_labels[:, k] == 0)[0]
            ones = np.nonzero(self.bit_labels[:, k] == 1)[0]
            assert len(zeros) == order // 2 and len(ones) == order // 2
            self.bit_coset_idx.append((zeros, ones))

        self._weights = 1 << shifts


def build_constellation(order: int) -> Constellation:
    """Construct the Gray-mapped unit-energy QAM alphabet of the given order."""
    return Constellation(order)


def modulate(bits, c: Constellation) -> np.ndarray:
    """Map bit vectors (..., q) with the fixed Gray labeling to symbols (...,)."""
    bits = np.asarray(bits)
    if bits.shape[-1] != c.bits_per_symbol:
        raise ValueError(
            f"expected {c.bits_per_symbol} bits per symbol, got {bits.shape[-1]}"
        )
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0/1")
    idx = bits @ c._weights
    return c.symbols[idx]


def axis_parts(bits: np.ndarray) -> np.ndarray:
    """Per-bit values (..., q) as (2, ..., q/2): the real axis's bits (the even
    label positions), then the imaginary axis's. A view where reshape allows."""
    return np.moveaxis(bits.reshape(bits.shape[:-1] + (-1, 2)), -1, 0)


def label_order(parts: np.ndarray) -> np.ndarray:
    """Bit-major per-axis values (nbits, 2, ...) as per-bit values (..., q), a
    view: label position 2n + a holds axis a's bit n (see axis_parts)."""
    return np.moveaxis(parts, (0, 1), (-2, -1)).reshape(parts.shape[2:] + (-1,))


def _axis_stats(t, axis: PamAxis) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances of both axes from saturated LLRs as
    axis_parts stacks them, (2, ..., nbits), which it overwrites with
    t = tanh(LLR/2). Bit-major memory makes every t[..., j] contiguous.

    With s_j = 1 - 2 b_j, the reflected-Gray level is d * s_0 (2^(k-1) +
    s_1 (2^(k-2) + ... + s_(k-1))) for k bits and unit amplitude d, and
    E[s_j] = -t_j for independent bits. So the mean A and second moment B
    of the nested terms, in units of d, follow innermost bit first from
    A = -t_(k-1) and B = 1 until they are those of x / d: with
    c = 2^(k-j), B <- B + 2cA + c^2 and then A <- t_(j-1) (-c - A), for
    j = k-1 down to 1. B - A^2 is taken in those units, so saturated
    bits (t = +-1, every step exact) give exactly zero variance. B's terms
    are added in that order because perfbench/expected.json's corr-64qam
    bchase rows hold a decoder tie (an info LLR of exactly 0.0) that
    adding c^2 + 2cA first breaks by one ulp.
    """
    t /= 2.0
    np.tanh(t, out=t)
    d = axis.levels[0] / (axis.nlevels - 1)
    mean = -t[..., -1]
    second = np.ones_like(mean)
    step = np.empty_like(mean)
    for j in range(axis.nbits - 1, 0, -1):
        c = float(1 << (axis.nbits - j))
        np.multiply(mean, 2.0 * c, out=step)
        second += step
        second += c * c
        np.subtract(-c, mean, out=mean)
        mean *= t[..., j - 1]
    np.multiply(mean, mean, out=step)
    np.subtract(second, step, out=second)
    np.maximum(second, 0.0, out=second)
    second *= d * d
    mean *= d
    return mean, second


def soft_symbol_stats(llrs, c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of a symbol given per-bit LLRs (..., q).

    Bits are treated as independent with P(b=1) = sigmoid(L). Each axis's
    moments come from a recursion over its bits (see _axis_stats), O(q) per
    symbol; they equal the direct sum over all M symbols to rounding.
    Inputs are saturated first, so +-inf LLRs are safe and a fully saturated
    vector returns the labeled point with exactly zero variance.
    """
    # saturate returns a fresh array in the layout of llrs (bit-major under
    # layer_post_llrs), which _axis_stats may overwrite and which dies with it.
    mean, var = _axis_stats(axis_parts(saturate(np.asarray(llrs, dtype=float))), c.axis)
    return mean[0] + 1j * mean[1], var[0] + var[1]
