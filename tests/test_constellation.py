"""Alphabet construction, boundary slicing, and soft statistics."""

import itertools
import math

import numpy as np
import pytest

from chasedet.constellation import (
    SUPPORTED_ORDERS,
    Constellation,
    PamAxis,
    axis_parts,
    build_constellation,
    coset_min_sqdist,
    modulate,
    pam_boundaries,
    pam_metric,
    slice_pam,
    soft_symbol_stats,
)
from chasedet.errors import ConfigError
from chasedet.llr import LLR_CLIP
from chasedet.reference import brute_pam_argmax

RT2 = math.sqrt(2.0)
RT10 = math.sqrt(10.0)


def test_supported_orders_only():
    with pytest.raises(ConfigError):
        build_constellation(8)
    with pytest.raises(ConfigError):
        build_constellation(2)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_unit_energy(order):
    c = build_constellation(order)
    assert abs(np.mean(np.abs(c.symbols) ** 2) - 1.0) < 1e-12


def test_qpsk_symbols_frozen():
    c = build_constellation(4)
    expect = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / RT2
    np.testing.assert_allclose(c.symbols, expect, atol=1e-15)


def test_16qam_axis_frozen():
    c = build_constellation(16)
    np.testing.assert_allclose(
        c.axis.levels, np.array([3.0, 1.0, -1.0, -3.0]) / RT10, atol=1e-15
    )
    # Binary-reflected Gray code, all-zero sub-label on the most positive level.
    assert c.axis.sub_labels.tolist() == [[0, 0], [0, 1], [1, 1], [1, 0]]
    # Symbol 5 has label 0101: real sub-label 00, imaginary sub-label 11.
    np.testing.assert_allclose(c.symbols[5], (3.0 - 1.0j) / RT10, atol=1e-15)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_modulate_matches_symbol_table(order):
    c = build_constellation(order)
    np.testing.assert_array_equal(modulate(c.bit_labels, c), c.symbols)


def test_modulate_validates():
    c = build_constellation(4)
    with pytest.raises(ValueError):
        modulate(np.array([0, 1, 0]), c)
    with pytest.raises(ValueError):
        modulate(np.array([0, 2]), c)


def test_even_bits_drive_real_axis():
    c = build_constellation(64)
    for k in axis_parts(np.arange(c.bits_per_symbol))[0]:
        flipped = c.bit_labels.copy()
        flipped[:, k] ^= 1
        s = modulate(flipped, c)
        np.testing.assert_allclose(s.imag, c.symbols.imag, atol=1e-15)
        assert np.all(s.real != c.symbols.real)


def test_axis_validation():
    good_levels = np.array([1.0, -1.0]) / RT2
    with pytest.raises(ValueError):
        PamAxis(good_levels[::-1], np.array([[0], [1]]))  # ascending
    with pytest.raises(ValueError):
        PamAxis(np.array([1.0, 0.5]), np.array([[0], [1]]))  # not symmetric
    with pytest.raises(ValueError):
        PamAxis(
            np.array([3.0, 1.0, -1.0, -3.0]),
            np.array([[0, 0], [0, 1], [1, 0], [1, 1]]),  # not Gray
        )
    with pytest.raises(ValueError):
        PamAxis(
            np.array([3.0, 0.5, -0.5, -3.0]),  # not uniform
            np.array([[0, 0], [0, 1], [1, 1], [1, 0]]),
        )


def test_boundaries_zero_prior_are_midpoints():
    c = build_constellation(16)
    ax = c.axis
    bset = pam_boundaries(ax, np.zeros(2), 1.0)
    np.testing.assert_allclose(bset.values, ax.pair_mid, atol=1e-15)
    # Interval bounds collapse to midpoints between adjacent levels.
    mids = (ax.levels[:-1] + ax.levels[1:]) / 2.0
    np.testing.assert_allclose(bset.lower[:-1], mids, atol=1e-15)
    np.testing.assert_allclose(bset.upper[1:], mids, atol=1e-15)
    assert bset.lower[-1] == -np.inf and bset.upper[0] == np.inf


def test_boundary_prior_shift_closed_form():
    # 2-PAM with the bit-1 label on the positive level: the lone boundary is
    # D = -v * La / (2 sqrt(2)) for levels +-1/sqrt(2).
    ax = PamAxis(np.array([1.0, -1.0]) / RT2, np.array([[1], [0]]))
    la, v = 2.0, 0.5
    bset = pam_boundaries(ax, np.array([la]), v)
    np.testing.assert_allclose(bset.values, [-v * la / (2.0 * RT2)], atol=1e-15)
    # Positive La favors the bit-1 (positive) level, so the boundary drops.
    assert bset.values[0] < 0.0
    assert slice_pam(np.array(0.0), ax, bset) == 0


def test_boundaries_reject_bad_variance():
    ax = build_constellation(4).axis
    with pytest.raises(ValueError):
        pam_boundaries(ax, np.zeros(1), 0.0)
    with pytest.raises(ValueError):
        pam_boundaries(ax, np.zeros(1), np.inf)


@pytest.mark.parametrize("order", (4, 16, 64))
def test_slicer_matches_brute_argmax(order):
    ax = build_constellation(order).axis
    rng = np.random.default_rng(order)
    n = 4000
    z = rng.uniform(-3.0, 3.0, n)
    la = rng.uniform(-10.0, 10.0, (n, ax.nbits))
    var = rng.uniform(0.02, 8.0, n)
    bset = pam_boundaries(ax, la, var)
    np.testing.assert_array_equal(
        slice_pam(z, ax, bset), brute_pam_argmax(z, ax, la, var)
    )


def test_slicer_tie_goes_to_smaller_index():
    # z = 0 with zero priors ties the two middle levels; the smaller index
    # (more positive level) must win.
    ax = build_constellation(16).axis
    bset = pam_boundaries(ax, np.zeros(2), 1.0)
    assert slice_pam(np.array(0.0), ax, bset) == 1
    assert brute_pam_argmax(np.array(0.0), ax, np.zeros(2), np.array(1.0)) == 1


def _three_way_ties(axis, rng, n):
    """Up to n slicing problems at which three levels have equal metrics.

    For levels i < j < k the pair boundaries D_ij and D_jk are linear in
    the priors; random priors are moved along the direction that makes
    them coincide, and z is put on the common boundary. Draws whose priors
    leave +-LLR_CLIP, or whose three tied levels are not the top three,
    are dropped. Returns (z, la, var).
    """
    levels, labels = axis.levels, axis.sub_labels.astype(float)
    triples = np.array(list(itertools.combinations(range(axis.nlevels), 3)))
    i, j, k = triples[rng.integers(0, len(triples), n)].T

    def coef(a, b):
        return (labels[a] - labels[b]) / (2.0 * (levels[a] - levels[b]))[:, None]

    c_ij, c_jk = coef(i, j), coef(j, k)
    mid_ij, mid_jk = (levels[i] + levels[j]) / 2.0, (levels[j] + levels[k]) / 2.0
    var = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
    g = c_ij - c_jk
    la = rng.uniform(-LLR_CLIP, LLR_CLIP, (n, axis.nbits))
    t = ((mid_ij - mid_jk) / var - (g * la).sum(axis=1)) / (g * g).sum(axis=1)
    la = la + t[:, None] * g
    z = mid_ij - var * (c_ij * la).sum(axis=1)
    metric = axis.level_priors(la) - (z[:, None] - levels) ** 2 / var[:, None]
    top3 = np.sort(np.argsort(-metric, axis=1)[:, :3], axis=1)
    keep = (np.abs(la).max(axis=1) <= LLR_CLIP) & (top3 == np.stack([i, j, k], 1)).all(axis=1)
    return z[keep], la[keep], var[keep]


@pytest.mark.parametrize("order", (16, 64, 256))
def test_slicer_at_three_way_near_ties(order):
    # z at, a few ulps off and slightly off constructed three-way ties, with
    # priors up to +-LLR_CLIP and variances from 1e-3 to 10. The slicer's
    # level must score within 1e-9 * max(1, |m|) of the brute maximum m, and
    # must be the brute argmax wherever the top two metrics are further
    # apart than that. Rounding leaves some z in no slicing interval, so the
    # direct-evaluation fallback is exercised too.
    axis = build_constellation(order).axis
    z, la, var = _three_way_ties(axis, np.random.default_rng(order + 1), 20_000)
    assert len(z) >= 300
    ulps = np.spacing(z)[:, None] * np.arange(-3, 4)
    offsets = np.array([-1e-4, -1e-7, -1e-10, 1e-10, 1e-7, 1e-4])
    z = np.concatenate([z[:, None] + ulps, z[:, None] + offsets], axis=1).ravel()
    la = np.repeat(la, 13, axis=0)
    var = np.repeat(var, 13)

    bset = pam_boundaries(axis, la, var)
    idx = slice_pam(z, axis, bset)
    got = pam_metric(axis, idx, z, la, var)
    brute = axis.level_priors(la) - (z[:, None] - axis.levels) ** 2 / var[:, None]
    top2 = np.sort(brute, axis=1)[:, -2:]
    tol = 1e-9 * np.maximum(1.0, np.abs(top2[:, 1]))
    assert np.all(np.abs(got - top2[:, 1]) <= tol)
    apart = top2[:, 1] - top2[:, 0] > tol
    assert apart.sum() >= len(z) // 4
    np.testing.assert_array_equal(idx[apart], brute_pam_argmax(z, axis, la, var)[apart])
    inside = (z[:, None] >= bset.lower) & (z[:, None] < bset.upper)
    assert not inside.any(axis=1).all()


def _slice_by_masks(z, axis, bset):
    """The (..., L) interval-mask slicer: first level whose interval holds z,
    and the direct metric argmax where none does."""
    ze = np.asarray(z, dtype=float)[..., None]
    inside = (ze >= bset.lower) & (ze < bset.upper)
    idx = inside.argmax(axis=-1)
    covered = inside.any(axis=-1)
    metric = axis.level_priors(bset._apriori) - (ze - axis.levels) ** 2 / bset._var[..., None]
    return np.where(covered, idx, metric.argmax(axis=-1))


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_slicer_level_walk_matches_mask_rule(order):
    # z on every pair boundary of its row, one ulp either side of it, and at
    # random, against Cauchy-tailed priors and log-uniform variances over
    # six decades: the per-level walk must give the mask rule's index.
    ax = build_constellation(order).axis
    rng = np.random.default_rng(order + 7)
    rows = 4000 // ax.nlevels
    la = np.clip(3.0 * rng.standard_cauchy((rows, 1, ax.nbits)), -LLR_CLIP, LLR_CLIP)
    var = 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
    bset = pam_boundaries(ax, la, var)
    on = bset.values[:, 0, :]
    z = np.concatenate(
        [
            on,
            np.nextafter(on, -np.inf),
            np.nextafter(on, np.inf),
            rng.standard_cauchy((rows, ax.npairs)),
        ],
        axis=1,
    )
    idx = slice_pam(z, ax, bset)
    assert idx.shape == z.shape
    assert np.array_equal(idx, _slice_by_masks(z, ax, bset))


@pytest.mark.parametrize("order", (16, 64, 256))
def test_gapped_sets_match_mask_rule(order):
    # One boundary set per near-tie problem, z at and a few ulps around the
    # tie: rounding opens an ulp-wide gap between two intervals in some of
    # them, BoundarySet flags exactly those that can leave a z uncovered,
    # and every z gets the mask rule's index, the direct-metric fallback
    # included.
    axis = build_constellation(order).axis
    z, la, var = _three_way_ties(axis, np.random.default_rng(order + 3), 6000)
    z = z[:, None] + np.spacing(z)[:, None] * np.arange(-3, 4)
    gapped = uncovered = 0
    for zi, lai, vi in zip(z, la, var):
        bset = pam_boundaries(axis, lai, vi)
        inside = (zi[:, None] >= bset.lower) & (zi[:, None] < bset.upper)
        covered = inside.any(axis=-1)
        assert bset.gapped or covered.all()
        gapped += bset.gapped
        uncovered += (~covered).sum()
        assert np.array_equal(slice_pam(zi, axis, bset), _slice_by_masks(zi, axis, bset))
    assert gapped > 0 and uncovered > 0
    assert gapped < len(z)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_slicer_at_nan_and_infinities(order):
    # NaN and +inf fall in no interval and take the metric argmax, level 0;
    # -inf lies in the bottom interval. Finite z beside them keep their
    # counted level.
    ax = build_constellation(order).axis
    rng = np.random.default_rng(order + 5)
    rows = 200
    la = np.clip(3.0 * rng.standard_cauchy((rows, 1, ax.nbits)), -LLR_CLIP, LLR_CLIP)
    la[0] = 0.0
    var = 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
    bset = pam_boundaries(ax, la, var)
    z = np.concatenate(
        [np.tile([np.nan, np.inf, -np.inf], (rows, 1)), rng.standard_normal((rows, 5))], axis=1
    )
    idx = slice_pam(z, ax, bset)
    assert np.array_equal(idx, _slice_by_masks(z, ax, bset))
    assert np.all(idx[:, :2] == 0) and np.all(idx[:, 2] == ax.nlevels - 1)
    assert np.array_equal(idx[:, 3:], slice_pam(z[:, 3:], ax, bset))


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_slicer_with_non_finite_priors_matches_mask_rule(order):
    # Infinite and NaN priors give infinite or NaN boundaries, which can
    # leave even the bottom interval empty; finite z still get the mask
    # rule's index, through the fallback wherever a threshold count is not
    # covered.
    ax = build_constellation(order).axis
    rng = np.random.default_rng(order + 9)
    rows = 400
    la = np.clip(3.0 * rng.standard_cauchy((rows, 1, ax.nbits)), -LLR_CLIP, LLR_CLIP)
    for bad in (np.inf, -np.inf, np.nan):
        la[rng.random(la.shape) < 0.15] = bad
    var = 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
    z = rng.standard_normal((rows, 20))
    with np.errstate(invalid="ignore"):
        bset = pam_boundaries(ax, la, var)
        assert bset.gapped
        assert np.array_equal(slice_pam(z, ax, bset), _slice_by_masks(z, ax, bset))


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_zero_prior_thresholds_are_adjacent_midpoints(order):
    # Without priors the L-1 thresholds are the midpoints between adjacent
    # levels, whatever the variance, and no set has a gap.
    ax = build_constellation(order).axis
    var = np.array([[1e-3], [1.0], [40.0]])
    bset = pam_boundaries(ax, np.zeros((3, 1, ax.nbits)), var)
    mids = (ax.levels[:-1] + ax.levels[1:]) / 2.0
    assert bset.thresholds.shape == (ax.nlevels - 1, 3, 1)
    assert np.all(bset.thresholds == mids[:, None, None])
    assert not bset.gapped


def _level_priors_by_sum(axis, apriori):
    """Per-level priors as a sum over the bit axis of an (..., L, nbits)
    product, the form PamAxis.level_priors took before its walk over bits."""
    return (np.asarray(apriori, dtype=float)[..., None, :] * axis._labels_f).sum(axis=-1)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_level_priors_match_bit_axis_sum(order):
    # Bit for bit the sum form, signed zeros included, under Cauchy-tailed
    # priors sprinkled with -0.0 and +0.0, for a stacked and a single
    # problem and an all -0.0 prior.
    ax = build_constellation(order).axis
    rng = np.random.default_rng(order + 13)
    la = np.clip(3.0 * rng.standard_cauchy((2, 300, 1, ax.nbits)), -LLR_CLIP, LLR_CLIP)
    la[rng.random(la.shape) < 0.2] = -0.0
    la[rng.random(la.shape) < 0.1] = 0.0
    for a in (la, la[0, 0, 0], np.full(ax.nbits, -0.0)):
        got, want = ax.level_priors(a), _level_priors_by_sum(ax, a)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _bounds_by_masked_gather(axis, values):
    """Interval bounds as masked (..., L, L-1) gathers of the pair values,
    the form BoundarySet built them in before its pair walk."""
    width = axis.nlevels - 1
    by_first = np.zeros((axis.nlevels, width), dtype=int)
    first_mask = np.zeros((axis.nlevels, width), dtype=bool)
    by_second = np.zeros((axis.nlevels, width), dtype=int)
    second_mask = np.zeros((axis.nlevels, width), dtype=bool)
    for m in range(axis.nlevels):
        idx = np.nonzero(axis.pair_first == m)[0]
        by_first[m, : len(idx)] = idx
        first_mask[m, : len(idx)] = True
        idx = np.nonzero(axis.pair_second == m)[0]
        by_second[m, : len(idx)] = idx
        second_mask[m, : len(idx)] = True
    lower = np.where(first_mask, values[..., by_first], -np.inf).max(axis=-1)
    upper = np.where(second_mask, values[..., by_second], np.inf).min(axis=-1)
    return lower, upper


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_boundary_pair_walk_matches_masked_gather(order):
    # lower and upper, -inf and +inf ends included, equal the masked gather
    # form's for a stack of both axes' problems under Cauchy-tailed priors
    # and for a single problem.
    ax = build_constellation(order).axis
    rng = np.random.default_rng(order + 17)
    rows = 300
    la = np.clip(3.0 * rng.standard_cauchy((2, rows, 1, ax.nbits)), -LLR_CLIP, LLR_CLIP)
    var = 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
    for bset in (pam_boundaries(ax, la, var), pam_boundaries(ax, la[0, 0, 0], var[0, 0])):
        lower, upper = _bounds_by_masked_gather(ax, bset.values)
        assert bset.lower.shape == bset.values.shape[:-1] + (ax.nlevels,)
        assert np.array_equal(bset.lower, lower)
        assert np.array_equal(bset.upper, upper)
        assert np.all(bset.lower[..., -1] == -np.inf)
        assert np.all(bset.upper[..., 0] == np.inf)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_pam_metric_sums_priors_in_label_order(order):
    # The level prior is summed over bits exactly as the gathered-label form
    # sums it; a matmul would round differently at 256-QAM.
    ax = build_constellation(order).axis
    rng = np.random.default_rng(order + 11)
    rows, m = 500, order
    la = rng.uniform(-LLR_CLIP, LLR_CLIP, (rows, 1, ax.nbits))
    var = 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
    z = rng.uniform(-2.0, 2.0, (rows, m))
    idx = rng.integers(0, ax.nlevels, (rows, m))
    want = (ax._labels_f[idx] * la).sum(axis=-1) - (z - ax.levels[idx]) ** 2 / var
    assert np.array_equal(pam_metric(ax, idx, z, la, var), want)


def test_slicer_broadcast_batches():
    # Shared boundary batch (n, 1) against per-hypothesis z (n, m).
    ax = build_constellation(16).axis
    rng = np.random.default_rng(5)
    la = rng.uniform(-4, 4, (6, 1, 2))
    var = rng.uniform(0.1, 2.0, (6, 1))
    z = rng.uniform(-2, 2, (6, 8))
    bset = pam_boundaries(ax, la, var)
    idx = slice_pam(z, ax, bset)
    assert idx.shape == (6, 8)
    ref = brute_pam_argmax(
        z, ax, np.broadcast_to(la, (6, 8, 2)), np.broadcast_to(var, (6, 8))
    )
    np.testing.assert_array_equal(idx, ref)


def test_pam_metric_formula():
    ax = build_constellation(16).axis
    la = np.array([0.7, -1.3])
    z, v, m = 0.4, 0.6, 2
    got = pam_metric(ax, m, z, la, v)
    want = float(ax.sub_labels[m] @ la) - (z - ax.levels[m]) ** 2 / v
    assert abs(got - want) < 1e-15


def test_coset_min_sqdist_brute():
    rng = np.random.default_rng(3)
    for order, shape in itertools.product(SUPPORTED_ORDERS, ((50,), (7, 16), ())):
        ax = build_constellation(order).axis
        z = rng.uniform(-2, 2, shape)
        d0, d1 = coset_min_sqdist(z, ax)
        assert d0.shape == d1.shape == shape + (ax.nbits,)
        for n, column in enumerate(ax.sub_labels.T):
            zeros, ones = np.flatnonzero(column == 0), np.flatnonzero(column == 1)
            ref0 = ((z[..., None] - ax.levels[zeros]) ** 2).min(axis=-1)
            ref1 = ((z[..., None] - ax.levels[ones]) ** 2).min(axis=-1)
            np.testing.assert_array_equal(d0[..., n], ref0)
            np.testing.assert_array_equal(d1[..., n], ref1)


def _soft_stats_direct(llrs, c: Constellation):
    """Posterior mean/var by explicit sum over all symbols."""
    p1 = 1.0 / (1.0 + np.exp(-np.clip(llrs, -60, 60)))
    probs = np.ones(c.order)
    for k in range(c.bits_per_symbol):
        pk = np.where(c.bit_labels[:, k] == 1, p1[k], 1.0 - p1[k])
        probs = probs * pk
    mean = probs @ c.symbols
    second = probs @ (np.abs(c.symbols) ** 2)
    return mean, second - np.abs(mean) ** 2


@pytest.mark.parametrize("order", (4, 16, 64))
def test_soft_symbol_stats_match_enumeration(order):
    c = build_constellation(order)
    rng = np.random.default_rng(order + 1)
    for _ in range(25):
        llrs = rng.uniform(-8, 8, c.bits_per_symbol)
        mean, var = soft_symbol_stats(llrs, c)
        ref_mean, ref_var = _soft_stats_direct(llrs, c)
        np.testing.assert_allclose(mean, ref_mean, atol=1e-12)
        np.testing.assert_allclose(var, ref_var, atol=1e-12)


def test_soft_symbol_stats_neutral_and_saturated():
    c = build_constellation(16)
    mean, var = soft_symbol_stats(np.zeros(4), c)
    assert abs(mean) < 1e-15 and abs(var - 1.0) < 1e-12
    # A fully saturated LLR vector pins the labeled symbol with zero variance.
    for k in (0, 7, 15):
        llrs = np.where(c.bit_labels[k] == 1, np.inf, -np.inf)
        mean, var = soft_symbol_stats(llrs, c)
        np.testing.assert_allclose(mean, c.symbols[k], atol=1e-12)
        assert var == 0.0


def test_soft_symbol_stats_batched():
    c = build_constellation(16)
    rng = np.random.default_rng(9)
    llrs = rng.uniform(-5, 5, (3, 7, 4))
    mean, var = soft_symbol_stats(llrs, c)
    assert mean.shape == (3, 7) and var.shape == (3, 7)
    m0, v0 = soft_symbol_stats(llrs[1, 4], c)
    np.testing.assert_allclose(mean[1, 4], m0, atol=1e-14)
    np.testing.assert_allclose(var[1, 4], v0, atol=1e-14)


def _soft_stats_long_double(llrs, c: Constellation):
    """Posterior mean (real, imaginary) and variance by an np.longdouble sum
    over all M symbols of the saturated LLRs."""
    llrs = np.clip(np.asarray(llrs, dtype=np.longdouble), -LLR_CLIP, LLR_CLIP)
    p1 = 1.0 / (1.0 + np.exp(-llrs))
    probs = np.prod(np.where(c.bit_labels == 1, p1[..., None, :], 1.0 - p1[..., None, :]), axis=-1)
    re = c.symbols.real.astype(np.longdouble)
    im = c.symbols.imag.astype(np.longdouble)
    mean_re, mean_im = probs @ re, probs @ im
    return mean_re, mean_im, probs @ (re * re + im * im) - mean_re**2 - mean_im**2


@pytest.mark.parametrize("candidates", (False, True))
@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_soft_symbol_stats_within_ulps_of_long_double(order, candidates):
    # Rows of q LLRs, and rows of M candidates' LLRs as bchase passes them,
    # Cauchy-distributed with a tenth of them infinite. Each part of the
    # mean stays within 4 eps * x_max of an np.longdouble enumeration and
    # the variance within 4 eps * x_max^2, x_max the peak axis amplitude
    # (on 5,000-row draws of each shape the closed form reached 1.9 and 3.0).
    c = build_constellation(order)
    rng = np.random.default_rng(order * 10 + candidates)
    shape = (32, c.order, c.bits_per_symbol) if candidates else (500, c.bits_per_symbol)
    llrs = rng.standard_cauchy(shape) * 4.0
    infinite = rng.random(shape) < 0.1
    llrs[infinite] = np.copysign(np.inf, llrs[infinite])
    mean, var = soft_symbol_stats(llrs, c)
    ref_re, ref_im, ref_var = _soft_stats_long_double(llrs, c)
    eps, peak = np.finfo(float).eps, c.axis.levels[0]
    assert np.abs(mean.real - ref_re).max() <= 4 * eps * peak
    assert np.abs(mean.imag - ref_im).max() <= 4 * eps * peak
    assert np.abs(var - ref_var).max() <= 4 * eps * peak**2


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_soft_symbol_stats_ignore_memory_layout(order):
    # The same LLR values held C-ordered (..., q) and bit-major (a moveaxis
    # view of a (q, ...) array, as bchase's feedback chain holds them) give
    # the same means and variances bit for bit. Cauchy LLRs, a tenth of
    # them infinite and a tenth at +-LLR_CLIP.
    c = build_constellation(order)
    rng = np.random.default_rng(order + 3)
    bit_major = rng.standard_cauchy((c.bits_per_symbol, 9, c.order)) * 4.0
    edge = rng.random(bit_major.shape)
    bit_major[edge < 0.1] = np.copysign(np.inf, bit_major[edge < 0.1])
    bit_major[edge > 0.9] = np.copysign(LLR_CLIP, bit_major[edge > 0.9])
    before = bit_major.copy()
    strided = np.moveaxis(bit_major, 0, -1)
    contiguous = np.ascontiguousarray(strided)
    assert not strided.flags.c_contiguous
    mean, var = soft_symbol_stats(strided, c)
    want_mean, want_var = soft_symbol_stats(contiguous, c)
    assert np.array_equal(mean, want_mean)
    assert np.array_equal(var, want_var)
    assert np.array_equal(bit_major, before, equal_nan=True)  # inputs are not overwritten
