"""Alphabet construction, boundary slicing, and soft statistics."""

import itertools
import math

import numpy as np
import pytest

from chasedet.constellation import (
    SUPPORTED_ORDERS,
    Constellation,
    axis_parts,
    build_constellation,
    label_order,
    label_priors,
    level_walk,
    modulate,
    pam_boundaries,
    pam_metric,
    slice_pam,
    soft_symbol_stats,
    stack_axes,
)
from chasedet.channel import WhitenedModel
from chasedet.errors import ConfigError
from chasedet.llr import LLR_CLIP
from chasedet.reference import lmmse_llrs

from draws import brute_coset_minima, brute_pam_argmax

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
def test_axis_is_built_reflected_gray_and_evenly_spaced(order):
    ax = build_constellation(order).axis
    m = np.arange(ax.nlevels)
    assert ax.nlevels == 1 << ax.nbits == math.isqrt(order)
    # Level m carries the bits of its reflected Gray code m ^ (m >> 1), MSB
    # first, so neighbouring levels differ in exactly one bit.
    gray = (ax.sub_labels * (1 << np.arange(ax.nbits - 1, -1, -1))).sum(axis=1)
    assert gray.tolist() == (m ^ (m >> 1)).tolist()
    assert np.all(np.abs(np.diff(ax.sub_labels.astype(int), axis=0)).sum(axis=1) == 1)
    # Descending, symmetric about zero and evenly spaced.
    assert np.all(np.diff(ax.levels) < 0.0)
    assert np.array_equal(ax.levels, -ax.levels[::-1])
    np.testing.assert_allclose(np.diff(ax.levels), ax.levels[-1] - ax.levels[-2], rtol=1e-13)


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
    # QPSK's axis, 2-PAM with the bit-0 label on the positive level: the lone
    # boundary is D = +v * La / (2 sqrt(2)) for levels +-1/sqrt(2).
    ax = build_constellation(4).axis
    la, v = 2.0, 0.5
    bset = pam_boundaries(ax, np.array([la]), v)
    np.testing.assert_allclose(bset.values, [v * la / (2.0 * RT2)], atol=1e-15)
    # Positive La favors the bit-1 (negative) level, so the boundary rises.
    assert bset.values[0] > 0.0
    assert slice_pam(np.array(0.0), ax, bset) == 1


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
    metric = axis.level_priors(la).T - (z[:, None] - levels) ** 2 / var[:, None]
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
    brute = axis.level_priors(la).T - (z[:, None] - axis.levels) ** 2 / var[:, None]
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
    prior = np.moveaxis(axis.level_priors(bset._apriori), 0, -1)
    metric = prior - (ze - axis.levels) ** 2 / bset._var[..., None]
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
    """Per-level priors (L, ...) as a sum over the bit axis of an (..., L,
    nbits) product, the form PamAxis.level_priors took before its walk over
    bits, moved level-major."""
    prior = (np.asarray(apriori, dtype=float)[..., None, :] * axis.sub_labels).sum(axis=-1)
    return np.moveaxis(prior, -1, 0)


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


def _label_priors_left_to_right(apriori):
    """label_priors by plain Python: each label's 1-bit terms added left to
    right onto +0.0, one row of apriori (rows, nbits) at a time."""
    rows, nbits = apriori.shape
    prior = np.empty((1 << nbits, rows))
    for k in range(1 << nbits):
        for r in range(rows):
            total = 0.0
            for n in range(nbits):
                if k >> (nbits - 1 - n) & 1:
                    total = total + float(apriori[r, n])
            prior[k, r] = total
    return prior


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_label_priors_add_bits_left_to_right(order):
    # Bit for bit, signed zeros included, for both an axis's sub-labels and
    # full labels, under Cauchy-tailed priors with -0.0, +0.0 and
    # +-LLR_CLIP entries, over stacks of many, one and zero rows.
    c = build_constellation(order)
    rng = np.random.default_rng(order + 17)
    for nbits in (c.axis.nbits, c.bits_per_symbol):
        la = np.clip(3.0 * rng.standard_cauchy((40, nbits)), -LLR_CLIP, LLR_CLIP)
        pick = rng.random(la.shape)
        la[pick < 0.15] = -0.0
        la[(pick >= 0.15) & (pick < 0.25)] = 0.0
        la[pick > 0.85] = np.copysign(LLR_CLIP, la[pick > 0.85])
        for rows in (la, la[:1], la[:0]):
            got, want = label_priors(rows), _label_priors_left_to_right(rows)
            assert got.shape == want.shape == (1 << nbits, len(rows))
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
    # Leading axes are carried through: (..., nbits) -> (2**nbits, ...).
    stacked = rng.normal(size=(3, 5, c.bits_per_symbol))
    flat = label_priors(stacked.reshape(15, -1)).reshape(c.order, 3, 5)
    assert np.array_equal(label_priors(stacked), flat)


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
    want = (ax.sub_labels[idx] * la).sum(axis=-1) - (z - ax.levels[idx]) ** 2 / var
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


def test_level_walk_coset_gap_is_brute_minima():
    rng = np.random.default_rng(3)
    for order, shape in itertools.product(SUPPORTED_ORDERS, ((50,), (7, 16), ())):
        ax = build_constellation(order).axis
        z = rng.uniform(-2, 2, shape)
        best, gap = level_walk(z, ax, cosets=True)
        assert best is None and gap.shape == (ax.nbits,) + shape
        for n, column in enumerate(ax.sub_labels.T):
            zeros, ones = np.flatnonzero(column == 0), np.flatnonzero(column == 1)
            ref0 = ((z[..., None] - ax.levels[zeros]) ** 2).min(axis=-1)
            ref1 = ((z[..., None] - ax.levels[ones]) ** 2).min(axis=-1)
            np.testing.assert_array_equal(gap[n], ref0 - ref1)


def _tied_parts(rng, axis, shape):
    """Stacked (2,) + shape observations, a third on levels, a third on the
    midpoints between neighbouring levels, the rest drawn across the axis."""
    mids = (axis.levels[1:] + axis.levels[:-1]) / 2.0
    spread = 1.5 * axis.levels[0]
    pick = rng.integers(0, 3, (2,) + shape)
    return np.select(
        (pick == 0, pick == 1),
        (rng.choice(axis.levels, (2,) + shape), rng.choice(mids, (2,) + shape)),
        rng.uniform(-spread, spread, (2,) + shape),
    )


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_streamed_coset_gap_is_level_set_minima(order):
    # The Gray block tree's gap is, bit for bit and sign of zero included,
    # the difference of each bit's level-set minima taken directly, with z
    # on levels (a zero distance) and on midpoints (equal distances to two
    # levels, in one coset or across two), as the LLRs of both axes.
    axis = build_constellation(order).axis
    rng = np.random.default_rng(order + 31)
    parts = _tied_parts(rng, axis, (order, 40))
    _, gap = level_walk(parts, axis, cosets=True)
    d0, d1 = brute_coset_minima(parts, axis)
    want = np.moveaxis(d0 - d1, -1, 0)
    assert gap.shape == (axis.nbits, 2, order, 40)
    assert np.array_equal(gap, want)
    assert np.array_equal(np.signbit(gap), np.signbit(want))
    assert (gap == 0.0).any()
    # label_order puts axis a's bit n at label position 2n + a.
    llrs = label_order(gap)
    for k in range(2 * axis.nbits):
        assert np.array_equal(llrs[..., k], want[k // 2, k % 2])


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
@pytest.mark.parametrize("per", ("row", "candidate"))
def test_walk_with_cosets_keeps_best_metric(order, per):
    # Folding the distances into the coset tree leaves the metric as the
    # metric-only walk forms it, bit for bit: pam_metric at the brute-force
    # argmax level, under a per-row (rows,) or per-candidate (M, rows)
    # variance, with tied observations and priors at 0 and +-LLR_CLIP.
    axis = build_constellation(order).axis
    rng = np.random.default_rng([order, per == "row"])
    rows = 40
    parts = _tied_parts(rng, axis, (order, rows))
    la = LLR_CLIP * rng.choice((-1.0, 0.0, 1.0), (2, 1, rows, axis.nbits))
    la[rng.random(la.shape) < 0.5] = rng.normal(scale=3.0)
    shape = (rows,) if per == "row" else (order, rows)
    var = 10.0 ** rng.uniform(-2.0, 2.0, shape)
    prior = axis.level_priors(la)
    best, gap = level_walk(parts, axis, prior, var, True)
    alone, none = level_walk(parts, axis, prior, var)
    assert none is None
    want = pam_metric(axis, brute_pam_argmax(parts, axis, la, var), parts, la, var)
    assert np.array_equal(best, alone)
    assert np.array_equal(best, want)
    assert np.array_equal(np.signbit(best), np.signbit(want))
    assert np.array_equal(gap, level_walk(parts, axis, cosets=True)[1])


def test_zero_rows_keep_their_shapes():
    # Stacks of no rows split and join their bit axes, take level priors and
    # soft statistics, walk the levels and demap by LMMSE, all to empty
    # arrays.
    c = build_constellation(64)
    empty = np.zeros((0, c.bits_per_symbol))
    parts = axis_parts(empty)
    assert parts.shape == (2, 0, 3)
    assert label_order(np.moveaxis(parts, -1, 0)).shape == (0, 6)
    assert c.axis.level_priors(parts).shape == (8, 2, 0)
    assert label_priors(empty).shape == (64, 0)
    mean, var = soft_symbol_stats(empty, c)
    assert mean.shape == var.shape == (0,)
    best, gap = level_walk(stack_axes(np.zeros(0, complex)), c.axis, np.zeros((8, 2, 0)), 1.0, True)
    assert best.shape == (2, 0) and gap.shape == (3, 2, 0)
    model = WhitenedModel(y=np.zeros((0, 3), complex), h=np.zeros((0, 3, 2), complex))
    assert lmmse_llrs(model, c).shape == (0, 2, 6)


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
