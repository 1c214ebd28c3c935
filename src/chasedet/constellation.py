"""Gray-mapped square QAM alphabets and their one-dimensional PAM machinery.

A square M-QAM symbol is two independent sqrt(M)-PAM coordinates. Every
per-symbol operation the detectors need (best per-level metrics, coset
distances, soft symbol statistics) therefore reduces to one-dimensional work
on a PamAxis, which is where almost all of this module lives. One walk over
an axis's levels (level_walk) forms each level's distance once for the best
metric, the per-bit coset minima, or both. The paper's a-priori-aware
slicer (BoundarySet, slice_pam, pam_metric) is kept as the reference the
tests hold the level walk to.

Every a priori term sum_n b_n * La(n), of a symbol's full label or of a
level's sub-label, comes from label_priors: one fixed order of elementwise
adds, so no BLAS kernel decides its last bit.

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

SUPPORTED_ORDERS = (4, 16, 64, 256)


class PamAxis:
    """One PAM coordinate of nbits bits: 2**nbits evenly spaced levels in
    descending order, symmetric about zero with a spacing of 2 / norm, and
    their binary-reflected Gray sub-labels, level m carrying the bits of
    gray[m] = m ^ (m >> 1), MSB first.

    Precomputes the per-pair tables used to modulate decision boundaries so
    that boundary values are one matrix product regardless of how many
    (batched) LLR vectors are involved.
    """

    def __init__(self, nbits: int, norm: float):
        count = 1 << nbits
        m = np.arange(count)
        self.levels = np.arange(count - 1, -count, -2, dtype=float) / norm
        self.gray = m ^ (m >> 1)
        shifts = np.arange(nbits - 1, -1, -1)
        self.sub_labels = ((self.gray[:, None] >> shifts) & 1).astype(np.int8)
        self.nlevels = count
        self.nbits = nbits

        # Unordered level pairs (m, u) with m < u, i.e. x_m > x_u. Their
        # label differences are -1, 0 or 1, exact in int8.
        first, second = np.triu_indices(count, 1)
        self.pair_first = first
        self.pair_second = second
        self.pair_mid = (self.levels[first] + self.levels[second]) / 2.0
        gap = 2.0 * (self.levels[first] - self.levels[second])
        self.pair_coef = (self.sub_labels[first] - self.sub_labels[second]) / gap[:, None]
        self.npairs = len(first)

    def level_priors(self, apriori: np.ndarray) -> np.ndarray:
        """Per-level a priori term sum_n b_mn * La(n), level-major:
        (..., nbits) -> (L, ...): label_priors at each level's Gray label."""
        return label_priors(apriori)[self.gray]


def label_priors(apriori: np.ndarray) -> np.ndarray:
    """A priori term sum_n b_n * La(n) of every bit label b, label-major:
    (..., nbits) -> (2**nbits, ...), entry k for the label k reads MSB first.

    Every symbol and level prior the detectors use is summed here. The
    table grows one bit at a time, each label's entry copied for bit 0 and
    added La(n) for bit 1, so a label's 1-bit terms are added left to right
    onto +0.0: a sum that is never -0.0, which adding the 0-bits' +-0.0
    products would leave as it is. No matrix product is formed, so no BLAS
    kernel picks the rounding.
    """
    apriori = np.asarray(apriori, dtype=float)
    prior = np.zeros((1,) + apriori.shape[:-1])
    for n in range(apriori.shape[-1]):
        grown = np.empty((len(prior), 2) + prior.shape[1:])
        grown[:, 0] = prior
        np.add(prior, apriori[..., n], out=grown[:, 1])
        prior = grown.reshape((2 * len(prior),) + prior.shape[1:])
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
        metric = np.moveaxis(axis.level_priors(boundaries._apriori), 0, -1) - (
            (z[..., None] - axis.levels) ** 2
        ) / boundaries._var[..., None]
        idx = np.where(covered, idx, metric.argmax(axis=-1))
    return idx


def pam_metric(axis: PamAxis, level, z, apriori: np.ndarray, noise_var) -> np.ndarray:
    """Per-level metric sum_n b_mn*La(n) - (z - x_m)^2 / noise_var.

    The prior term is formed once per level by PamAxis.level_priors, shaped
    (L, ...) with apriori's batch axes, and gathered at `level` by flat
    index; those batch axes broadcast against level's.
    """
    level = np.asarray(level)
    prior = axis.level_priors(apriori)
    batch = prior[0].size
    prior = prior.take(level * batch + np.arange(batch).reshape(prior.shape[1:]))
    dist = (np.asarray(z, dtype=float) - axis.levels[level]) ** 2
    return prior - dist / np.asarray(noise_var, dtype=float)


def level_walk(z, axis: PamAxis, prior=None, noise_var=None, cosets=False):
    """One walk over the axis levels, in order, forming each level's squared
    distance (z - x_m)^2 once for the best prior-aware metric, the per-bit
    coset minima, or both. Returns (best, gap), None where not asked for.

    With a prior, best is the maximum over levels of pam_metric, prior[m] -
    (z - x_m)^2 / noise_var. prior holds the level priors level-major, (L,
    ...), as PamAxis.level_priors gives them. Each level's metric rounds
    exactly as pam_metric's does, so this is pam_metric at the level
    slice_pam picks; z is (2, M, rows), prior (L, 2, 1, rows) and noise_var
    (rows,) or (M, rows), so every pass runs over contiguous rows, in two
    result-shaped buffers.

    With cosets, gap is d0 - d1 bit-major, (axis.nbits,) + z.shape: the
    minimum squared distance from z to the levels whose bit n is 0, less
    that to the levels whose bit n is 1 (_CosetTree). These prior-free
    minima feed the post-detection LLRs of the feedback chain and the LMMSE
    demapper; label_order views them per bit.
    """
    tree = _CosetTree(axis.nbits, np.shape(z)) if cosets else None
    best = metric = None
    if prior is not None:
        best = np.empty(np.broadcast_shapes(np.shape(z), np.shape(prior)[1:], np.shape(noise_var)))
        metric = np.empty_like(best)
    for m, level in enumerate(axis.levels):
        out = metric if m else best
        dist = out if tree is None else tree.buffer(m)
        np.subtract(z, level, out=dist)
        np.square(dist, out=dist)
        if best is not None:
            np.divide(dist, noise_var, out=out)
            np.subtract(prior[m], out, out=out)
            if m:
                np.maximum(best, metric, out=best)
        if tree is not None:
            tree.add(m, dist)
    return best, None if tree is None else tree.gap()


class _CosetTree:
    """Per-bit coset minima of a level walk's distances, folded as the
    levels go by.

    Under the reflected Gray code, bit n's cosets are unions of aligned
    blocks of 2**k levels, k = nbits - 1 - n: block b lies in the bit-1
    coset when b % 4 is 1 or 2. A block's minimum is formed from its two
    halves as soon as the second one is, folded into its coset and kept as
    a half of the next size up: L - 2 block minima and 2 (L - 1 - nbits)
    coset unions in all, in place of L * nbits folds, with at most one
    pending half per block size. The first block of each coset is formed in
    that coset's row, so nothing is copied. A minimum is exact in any order,
    and squared distances are never -0.0, so these are bit for bit the
    minima of a level-by-level fold.
    """

    def __init__(self, nbits: int, shape) -> None:
        self._shape = tuple(shape)
        self._cosets = (np.empty((nbits,) + self._shape), np.empty((nbits,) + self._shape))
        self._halves = [None] * nbits

    def _block(self, k: int, b: int):
        """Where block b of 2**k levels is formed: its coset's row if it is
        that coset's first block, else a fresh buffer (None)."""
        return self._cosets[b][-1 - k, ...] if b < 2 else None

    def buffer(self, m: int) -> np.ndarray:
        """Where level m's distance is to be formed."""
        out = self._block(0, m)
        return np.empty(self._shape) if out is None else out

    def add(self, m: int, dist: np.ndarray) -> None:
        """Fold level m's distance, formed in buffer(m), into the tree."""
        halves = self._halves
        k, b, block = 0, m, dist
        while True:
            if b >= 2:
                coset = self._cosets[(b ^ (b >> 1)) & 1][-1 - k, ...]
                np.minimum(coset, block, out=coset)
            if k + 1 == len(halves):
                return  # the axis's halves: no larger block is needed
            if not b & 1:
                halves[k] = block
                return
            even, halves[k] = halves[k], None
            k, b = k + 1, b >> 1
            # Past a coset's first block the even half is no coset's row, so
            # the pair's minimum may overwrite it.
            out = self._block(k, b)
            block = np.minimum(even, block, out=even if out is None else out)

    def gap(self) -> np.ndarray:
        """d0 - d1 per bit, bit-major, in the bit-0 minima's buffer."""
        d0, d1 = self._cosets
        return np.subtract(d0, d1, out=d0)


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

        # Square QAM: both coordinates are the same PAM axis.
        self.axis = PamAxis(q // 2, math.sqrt(2.0 * (order - 1) / 3.0))

        shifts = np.arange(q - 1, -1, -1)
        ks = np.arange(order)
        self.bit_labels = ((ks[:, None] >> shifts) & 1).astype(np.int8)

        # A sub-label read as an integer is the Gray code of its level's
        # index; argsort inverts that permutation.
        gray_to_level = np.argsort(self.axis.gray)
        sub_ints = axis_parts(self.bit_labels) @ (1 << np.arange(q // 2 - 1, -1, -1))
        real_levels, imag_levels = self.axis.levels[gray_to_level[sub_ints]]
        self.symbols = real_levels + 1j * imag_levels

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
    return np.moveaxis(bits.reshape(bits.shape[:-1] + (bits.shape[-1] // 2, 2)), -1, 0)


def stack_axes(z: np.ndarray) -> np.ndarray:
    """A complex z's real and imaginary parts, one per PAM axis: (2,) + z.shape."""
    return np.stack((z.real, z.imag))


def label_order(parts: np.ndarray) -> np.ndarray:
    """Bit-major per-axis values (nbits, 2, ...) as per-bit values (..., q), a
    view: label position 2n + a holds axis a's bit n (see axis_parts)."""
    return np.moveaxis(parts, (0, 1), (-2, -1)).reshape(parts.shape[2:] + (2 * len(parts),))


def _axis_stats(t, axis: PamAxis) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances of both axes from halved LLRs as
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
    The LLRs are not saturated: tanh(L/2) rounds to exactly +-1 from |L|
    of about 38 on, below LLR_CLIP, so +-inf LLRs are safe, NaN stays NaN,
    and a fully saturated vector returns the labeled point with exactly
    zero variance, as with clipped LLRs.
    """
    # np.divide returns a fresh array in the layout of llrs (bit-major under
    # layer_post_llrs, each bit's (2, M, rows) values contiguous), which
    # _axis_stats overwrites and which dies with it.
    mean, var = _axis_stats(axis_parts(np.divide(llrs, 2.0, dtype=float)), c.axis)
    return mean[0] + 1j * mean[1], var[0] + var[1]
