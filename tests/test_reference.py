"""Exhaustive max-log reference and the LMMSE baseline."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chasedet import chase, reference
from chasedet.channel import WhitenedModel
from chasedet.constellation import build_constellation
from chasedet.counters import pass_stats
from chasedet.reference import (
    MAX_EXHAUSTIVE,
    lmmse_llrs,
    maxlog_factors,
    maxlog_llrs,
    use_values,
)

from draws import brute_pam_argmax, exact_maxlog_llrs, iid_complex_gaussian

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
            metric += float(la[0] @ c.bit_labels[i0])
            metric += float(la[1] @ c.bit_labels[i1])
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


def test_maxlog_4x4_16qam_llrs_are_finite():
    # 4 streams of 16-QAM is 65536 hypotheses, the paper's link; the direct
    # form and the plain enumeration check values on smaller cases, this
    # one checks shape and finiteness only.
    c = build_constellation(16)
    rng = np.random.default_rng(5)
    h = iid_complex_gaussian(rng, (4, 4)) * 2.0
    y = iid_complex_gaussian(rng, 4)
    llrs = exact_maxlog_llrs(WhitenedModel(y=y, h=h), c)
    assert llrs.shape == (4, 4)
    assert np.all(np.isfinite(llrs))


def _use_stack(rng, n, uses, lead=()):
    """Whitened n x n models of `uses` channel uses, stacked on lead + (uses,)."""
    h = iid_complex_gaussian(rng, lead + (uses, n, n)) * 2.0
    return WhitenedModel(y=iid_complex_gaussian(rng, lead + (uses, n)), h=h)


_STACK_CASES = [
    (order, n) for order in (4, 16, 64) for n in (1, 2, 3, 4) if order**n <= MAX_EXHAUSTIVE
]


@pytest.mark.parametrize("per_slice", ("one", "few", "all"))
@pytest.mark.parametrize("priors", ("zero", "random"))
@pytest.mark.parametrize("order,n", _STACK_CASES)
def test_maxlog_stack_equals_per_use_calls(order, n, priors, per_slice, monkeypatch):
    # One call over a stack of uses gives bit for bit the LLRs of one call
    # per use, with slices of one use, of two or of the stack.
    c = build_constellation(order)
    rng = np.random.default_rng([order, n])
    uses = 3 if order**n > 4096 else 7
    model = _use_stack(rng, n, uses)
    la = np.zeros((uses, n, c.bits_per_symbol))
    if priors == "random":
        la = rng.normal(scale=3.0, size=la.shape)
    per_use = use_values(c, n)
    slice_uses = {"one": 1, "few": 2, "all": uses}[per_slice]
    monkeypatch.setattr(chase, "SLICE_VALUES", slice_uses * per_use)
    stacked = exact_maxlog_llrs(model, c, la)
    singles = [
        exact_maxlog_llrs(WhitenedModel(model.y[u], model.h[u]), c, la[u]) for u in range(uses)
    ]
    np.testing.assert_array_equal(stacked, np.stack(singles))


def test_maxlog_stack_keeps_its_leading_axes():
    c = build_constellation(16)
    rng = np.random.default_rng(21)
    model = _use_stack(rng, 2, 3, lead=(2,))
    la = rng.normal(size=(2, 3, 2, 4))
    llrs = exact_maxlog_llrs(model, c, la)
    flat = exact_maxlog_llrs(
        WhitenedModel(model.y.reshape(6, 2), model.h.reshape(6, 2, 2)), c, la.reshape(6, 2, 4)
    )
    np.testing.assert_array_equal(llrs, flat.reshape(2, 3, 2, 4))
    with pytest.raises(ValueError, match="a priori shape"):
        exact_maxlog_llrs(model, c, la[0])


def _traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of a second, identical call."""
    fn(*args)
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_maxlog_stack_peak_stays_under_slice_cap():
    # Detecting a QPSK stack of more than four slices from its factors keeps
    # no more than SLICE_VALUES float64 values live besides its output;
    # nothing grows with the stack.
    c = build_constellation(4)
    rng = np.random.default_rng(22)
    per_slice = chase.SLICE_VALUES // use_values(c, 2)
    uses = 4 * per_slice + 1
    factors = maxlog_factors(_use_stack(rng, 2, uses))
    la = rng.normal(scale=3.0, size=(uses, 2, 2))
    out, peak = _traced_peak(maxlog_llrs, factors, c, la)
    assert peak <= chase.SLICE_VALUES * 8 + out.nbytes


def test_maxlog_use_over_the_cap_runs_alone(monkeypatch):
    # Under a cap one value short of the charge of a 16-QAM use with four
    # streams, the use runs in a slice of its own: the call holds its one
    # metric table of 16**4 hypotheses and at most SLICE_VALUES values
    # more, and its LLRs equal those under a cap the use fits.
    c = build_constellation(16)
    monkeypatch.setattr(chase, "SLICE_VALUES", use_values(c, 4) - 1)
    assert use_values(c, 4) > chase.SLICE_VALUES
    rng = np.random.default_rng(23)
    model = _use_stack(rng, 4, 1)
    la = rng.normal(scale=3.0, size=(1, 4, 4))
    out, peak = _traced_peak(exact_maxlog_llrs, model, c, la)
    assert peak <= (chase.SLICE_VALUES + 16**4) * 8 + out.nbytes
    monkeypatch.setattr(chase, "SLICE_VALUES", use_values(c, 4))
    np.testing.assert_array_equal(out, exact_maxlog_llrs(model, c, la))


_CHUNK_CASES = [(order, n) for order in (4, 16, 64) for n in (2, 3, 4) if order**n <= 4096]


@pytest.mark.parametrize("cap", (1, 50))
@pytest.mark.parametrize("order,n", _CHUNK_CASES)
def test_maxlog_llrs_do_not_depend_on_the_chunk_size(order, n, cap, monkeypatch):
    # Caps of 1 and 50 put each use in a slice of its own; the LLRs equal
    # those of one slice over both uses, bit for bit.
    c = build_constellation(order)
    rng = np.random.default_rng([order, n, cap])
    model = _use_stack(rng, n, 2)
    la = rng.normal(scale=3.0, size=(2, n, c.bits_per_symbol))
    whole = exact_maxlog_llrs(model, c, la)
    monkeypatch.setattr(chase, "SLICE_VALUES", cap)
    np.testing.assert_array_equal(exact_maxlog_llrs(model, c, la), whole)


def test_maxlog_rejects_oversized_search():
    c = build_constellation(64)
    model = WhitenedModel(y=np.zeros(4, dtype=complex), h=np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        exact_maxlog_llrs(model, c)


def test_maxlog_counts_hypotheses(walk, monkeypatch):
    # The cost model charges a metric per hypothesis the oracle scores,
    # here in slices of one use for each of three uses.
    c = build_constellation(16)
    uses = 3
    model = _use_stack(np.random.default_rng(22), 2, uses)
    monkeypatch.setattr(chase, "SLICE_VALUES", use_values(c, 2))
    walk.tally(
        reference, "_metric_table", "hypotheses",
        lambda z, r, prior_tab, c: len(prior_tab) * c.order ** prior_tab.shape[1],
    )
    exact_maxlog_llrs(model, c)
    stats = pass_stats("maxlog", 2, c, uses)
    assert stats.metric_evals == walk["hypotheses"] == uses * 256
    assert stats.streams == uses * 2


def _direct_maxlog(model, c, la):
    """Max-log LLRs (uses, n, q) by direct enumeration, one use at a time:
    every hypothesis's symbols s, its priors and |y - h s|^2 over all
    receive antennas, with no factorization."""
    n = model.h.shape[-1]
    digits = np.arange(c.order**n)[:, None] // c.order ** np.arange(n - 1, -1, -1) % c.order
    s = c.symbols[digits]  # (M**n, n), stream 0 the slowest digit
    out = []
    for y, h, la_use in zip(model.y, model.h, la):
        prior = (la_use @ c.bit_labels.T)[np.arange(n), digits].sum(axis=1)
        metric = prior - np.sum(np.abs(y - s @ h.T) ** 2, axis=1)
        table = metric.reshape((c.order,) * n)
        out.append(
            [
                chase.coset_llrs(table.max(axis=tuple(j for j in range(n) if j != i))[:, None], c)[0]
                for i in range(n)
            ]
        )
    return np.array(out)


_DIRECT_LINKS = [(4, 1, 1), (4, 2, 4), (4, 4, 2), (16, 2, 2), (16, 3, 5), (16, 3, 2), (64, 2, 3)]
_CHANNELS = ("iid", "near-singular", "zero-column", "equal-columns", "zero")


@pytest.mark.parametrize("priors", ("zero", "normal", "cauchy"))
@pytest.mark.parametrize("channel", _CHANNELS)
@pytest.mark.parametrize("order,n,n_rx", _DIRECT_LINKS)
def test_maxlog_tree_matches_direct_enumeration(order, n, n_rx, channel, priors):
    # The QR tree scores the same metrics as the direct form, rounded
    # differently: each use's LLRs agree within 16 ulp of a bound on its
    # metrics' magnitude, 1 + sum |La| + (|y| + |h|_F max |s|)^2, on
    # rank-deficient channels too, where no factor is inverted.
    c = build_constellation(order)
    rng = np.random.default_rng([order, n, n_rx, _CHANNELS.index(channel)])
    uses = 4
    h = iid_complex_gaussian(rng, (uses, n_rx, n)) * 2.0
    if channel == "near-singular" and n > 1:
        h[..., 1] = h[..., 0] * (1 + 1e-9)
    elif channel == "zero-column":
        h[..., 0] = 0.0
    elif channel == "equal-columns" and n > 1:
        h[..., -1] = h[..., 0]
    elif channel == "zero":
        h[...] = 0.0
    s = c.symbols[rng.integers(0, order, size=(uses, n))]
    y = np.einsum("urn,un->ur", h, s) + iid_complex_gaussian(rng, (uses, n_rx))
    shape = (uses, n, c.bits_per_symbol)
    la = {
        "zero": np.zeros(shape),
        "normal": rng.normal(scale=3.0, size=shape),
        "cauchy": rng.standard_cauchy(size=shape),
    }[priors]
    model = WhitenedModel(y=y, h=h)
    got = exact_maxlog_llrs(model, c, la)
    want = _direct_maxlog(model, c, la)
    reach = np.linalg.norm(y, axis=1) + np.linalg.norm(h, axis=(1, 2)) * np.abs(c.symbols).max()
    scale = 1.0 + np.abs(la).sum(axis=(1, 2)) + reach**2
    bound = 16 * np.finfo(float).eps * scale
    assert np.all(np.abs(got - want) <= bound[:, None, None])


def test_brute_pam_argmax_breaks_ties_low():
    c = build_constellation(4)
    axis = c.axis
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


def test_lmmse_counts_demap_levels(walk):
    # The cost model charges a metric per level of both axes that each
    # stream's scalar demap measures its distance to.
    c = build_constellation(64)
    model = WhitenedModel(y=np.zeros(3, dtype=complex), h=np.eye(3, dtype=complex))
    walk.tally(
        reference, "level_walk", "levels", lambda parts, axis, **_: parts.size * axis.nlevels
    )
    lmmse_llrs(model, c)
    stats = pass_stats("lmmse", 3, c, 1)
    assert stats.metric_evals == walk["levels"] == 3 * 16
    assert stats.streams == 3
