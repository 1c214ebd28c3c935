"""Alphabet construction, boundary slicing, and soft statistics."""

import itertools
import math

import numpy as np
import pytest

from chasedet import (
    LLR_CLIP,
    SUPPORTED_ORDERS,
    ConfigError,
    Constellation,
    PamAxis,
    build_constellation,
    coset_min_sqdist,
    modulate,
    pam_boundaries,
    pam_metric,
    slice_pam,
    soft_symbol_stats,
)
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
        c.real_axis.levels, np.array([3.0, 1.0, -1.0, -3.0]) / RT10, atol=1e-15
    )
    # Binary-reflected Gray code, all-zero sub-label on the most positive level.
    assert c.real_axis.sub_labels.tolist() == [[0, 0], [0, 1], [1, 1], [1, 0]]
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
    for k in c.real_bits:
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
    ax = c.real_axis
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
    ax = build_constellation(4).real_axis
    with pytest.raises(ValueError):
        pam_boundaries(ax, np.zeros(1), 0.0)
    with pytest.raises(ValueError):
        pam_boundaries(ax, np.zeros(1), np.inf)


@pytest.mark.parametrize("order", (4, 16, 64))
def test_slicer_matches_brute_argmax(order):
    ax = build_constellation(order).real_axis
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
    ax = build_constellation(16).real_axis
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
    axis = build_constellation(order).real_axis
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


def test_slicer_broadcast_batches():
    # Shared boundary batch (n, 1) against per-hypothesis z (n, m).
    ax = build_constellation(16).real_axis
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
    ax = build_constellation(16).real_axis
    la = np.array([0.7, -1.3])
    z, v, m = 0.4, 0.6, 2
    got = pam_metric(ax, m, z, la, v)
    want = float(ax.sub_labels[m] @ la) - (z - ax.levels[m]) ** 2 / v
    assert abs(got - want) < 1e-15


def test_coset_min_sqdist_brute():
    ax = build_constellation(64).real_axis
    rng = np.random.default_rng(3)
    z = rng.uniform(-2, 2, 50)
    d0, d1 = coset_min_sqdist(z, ax)
    for n, (zeros, ones) in enumerate(ax.bit_cosets):
        ref0 = ((z[:, None] - ax.levels[zeros]) ** 2).min(axis=1)
        ref1 = ((z[:, None] - ax.levels[ones]) ** 2).min(axis=1)
        np.testing.assert_allclose(d0[:, n], ref0, atol=1e-15)
        np.testing.assert_allclose(d1[:, n], ref1, atol=1e-15)


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
