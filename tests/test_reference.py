"""Exhaustive max-log reference and the LMMSE baseline."""

from pathlib import Path

import numpy as np
import pytest

from chasedet import (
    DetectorStats,
    WhitenedModel,
    brute_pam_argmax,
    build_constellation,
    exact_maxlog_llrs,
    lmmse_llrs,
)
from chasedet.channel import iid_complex_gaussian

_GOLDEN_PATH = Path(__file__).parent / "golden" / "maxlog_2x2_qpsk.txt"


def _golden_cases():
    """Fixed 2x2 4-QAM scenarios backing the regression file."""
    c = build_constellation(4)
    cases = []
    for k in range(8):
        rng = np.random.default_rng(np.random.SeedSequence([777, k]))
        h = iid_complex_gaussian(rng, (2, 2)) * np.sqrt(2.0)
        s = c.symbols[rng.integers(0, 4, size=2)]
        y = h @ s + 0.5 * iid_complex_gaussian(rng, 2)
        if k % 2:
            la = rng.normal(scale=2.0, size=(2, 2))
        else:
            la = np.zeros((2, 2))
        cases.append((WhitenedModel(y=y, h=h), la))
    return c, cases


def test_maxlog_matches_golden_file():
    c, cases = _golden_cases()
    expected = np.loadtxt(_GOLDEN_PATH)
    got = np.stack(
        [exact_maxlog_llrs(model, c, la).ravel() for model, la in cases]
    )
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)


def _loop_maxlog_2x2(model, c, la):
    """Plain-Python enumeration of all 16 4-QAM vectors."""
    best = np.full((2, 2, 2), -np.inf)  # stream, bit, value
    for i0 in range(4):
        for i1 in range(4):
            s = np.array([c.symbols[i0], c.symbols[i1]])
            resid = model.y - model.h @ s
            metric = -float(np.sum(np.abs(resid) ** 2))
            metric += float(la[0] @ c.bit_labels_f[i0])
            metric += float(la[1] @ c.bit_labels_f[i1])
            for k in range(2):
                b0, b1 = c.bit_labels[i0, k], c.bit_labels[i1, k]
                best[0, k, b0] = max(best[0, k, b0], metric)
                best[1, k, b1] = max(best[1, k, b1], metric)
    return best[:, :, 1] - best[:, :, 0]


def test_maxlog_matches_plain_enumeration():
    c, cases = _golden_cases()
    for model, la in cases:
        np.testing.assert_allclose(
            exact_maxlog_llrs(model, c, la), _loop_maxlog_2x2(model, c, la), atol=1e-12
        )


def test_maxlog_none_apriori_is_zero_apriori():
    c, cases = _golden_cases()
    model, _ = cases[0]
    a = exact_maxlog_llrs(model, c, None)
    b = exact_maxlog_llrs(model, c, np.zeros((2, 2)))
    np.testing.assert_array_equal(a, b)


def test_maxlog_chunked_enumeration_consistent():
    # 4 streams of 16-QAM is 65536 hypotheses, crossing the chunk size;
    # check one stream against a manual marginalization on a small case
    # and the big case for shape and finiteness only.
    c = build_constellation(16)
    rng = np.random.default_rng(5)
    h = iid_complex_gaussian(rng, (4, 4)) * 2.0
    y = iid_complex_gaussian(rng, 4)
    llrs = exact_maxlog_llrs(WhitenedModel(y=y, h=h), c)
    assert llrs.shape == (4, 4)
    assert np.all(np.isfinite(llrs))


def test_maxlog_rejects_oversized_search():
    c = build_constellation(64)
    model = WhitenedModel(y=np.zeros(4, dtype=complex), h=np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        exact_maxlog_llrs(model, c)


def test_maxlog_counts_hypotheses():
    c = build_constellation(16)
    model = WhitenedModel(
        y=np.zeros(2, dtype=complex), h=np.eye(2, dtype=complex)
    )
    stats = DetectorStats()
    exact_maxlog_llrs(model, c, stats=stats)
    assert stats.metric_evals == 256
    assert stats.streams == 2


def test_brute_pam_argmax_breaks_ties_low():
    c = build_constellation(4)
    axis = c.real_axis
    # z = 0 between the two levels with zero prior: equal metrics, the
    # smaller index (the positive level) must win.
    idx = brute_pam_argmax(np.zeros(3), axis, np.zeros((3, 1)), np.ones(3))
    np.testing.assert_array_equal(idx, np.zeros(3, dtype=int))


def test_lmmse_scalar_closed_form():
    c = build_constellation(4)
    rng = np.random.default_rng(11)
    g = 1.3 - 0.7j
    y = np.array([0.4 + 0.9j])
    model = WhitenedModel(y=y, h=np.array([[g]]))
    llrs = lmmse_llrs(model, c)
    # Unbiased estimate reduces to y / g; effective noise 1 / |g|^2; the
    # per-axis max-log demap is then linear in the estimate for 4-QAM.
    z = y[0] / g
    a = 1.0 / np.sqrt(2.0)
    scale = 4.0 * a * abs(g) ** 2
    np.testing.assert_allclose(llrs[0, 0], -scale * z.real, rtol=1e-12)
    np.testing.assert_allclose(llrs[0, 1], -scale * z.imag, rtol=1e-12)
    del rng


def test_lmmse_rejects_zero_gain():
    c = build_constellation(4)
    model = WhitenedModel(y=np.zeros(2, dtype=complex), h=np.zeros((2, 2), dtype=complex))
    with pytest.raises(ArithmeticError):
        lmmse_llrs(model, c)


def test_lmmse_high_snr_recovers_bits():
    c = build_constellation(16)
    rng = np.random.default_rng(3)
    for _ in range(50):
        idx = rng.integers(0, 16, size=2)
        s = c.symbols[idx]
        h = 40.0 * (np.eye(2) + 0.05 * iid_complex_gaussian(rng, (2, 2)))
        y = h @ s + iid_complex_gaussian(rng, 2)
        hard = (lmmse_llrs(WhitenedModel(y=y, h=h), c) > 0).astype(np.int8)
        np.testing.assert_array_equal(hard, c.bit_labels[idx])


def test_lmmse_counts_demap_levels():
    c = build_constellation(64)
    model = WhitenedModel(y=np.zeros(3, dtype=complex), h=np.eye(3, dtype=complex))
    stats = DetectorStats()
    lmmse_llrs(model, c, stats=stats)
    assert stats.metric_evals == 3 * 16
    assert stats.streams == 3


@pytest.mark.parametrize("field", ["y", "h"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_maxlog_rejects_non_finite_model(field, bad):
    c = build_constellation(4)
    rng = np.random.default_rng(12)
    model = WhitenedModel(y=iid_complex_gaussian(rng, 2), h=iid_complex_gaussian(rng, (2, 2)))
    getattr(model, field).flat[0] = bad
    with pytest.raises(ValueError, match="finite"):
        exact_maxlog_llrs(model, c)


@pytest.mark.parametrize("field", ["y", "h"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lmmse_rejects_non_finite_model(field, bad):
    # Stacked over uses; one bad entry in the last use fails the call.
    c = build_constellation(16)
    rng = np.random.default_rng(13)
    model = WhitenedModel(
        y=iid_complex_gaussian(rng, (3, 2)), h=iid_complex_gaussian(rng, (3, 2, 2))
    )
    getattr(model, field)[-1].flat[-1] = bad
    with pytest.raises(ValueError, match="finite"):
        lmmse_llrs(model, c)
