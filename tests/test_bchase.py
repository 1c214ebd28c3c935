"""Decision-feedback detector: ordering, feedback chain, counters."""

import numpy as np
import pytest

from chasedet import (
    LLR_CLIP,
    DetectorStats,
    WhitenedModel,
    build_constellation,
    exact_maxlog_llrs,
)
from chasedet import bchase, lchase
from chasedet.bchase import (
    blast_order,
    detect_all_uses,
    layer_post_llrs,
    prepare_all_uses,
)
from chasedet.channel import iid_complex_gaussian


def _random_model(rng, n_rx, n, scale=1.0):
    h = scale * iid_complex_gaussian(rng, (n_rx, n))
    y = iid_complex_gaussian(rng, n_rx)
    return WhitenedModel(y=y, h=h)


def _stack(*models):
    """One WhitenedModel stacked over the given channel uses."""
    return WhitenedModel(y=np.stack([m.y for m in models]), h=np.stack([m.h for m in models]))


def _detect(model, c, la, stats=None, det=bchase):
    """LLRs (n, q) of every stream of one channel use."""
    la = np.asarray(la, dtype=float)[None]
    return det.detect_all_uses(det.prepare_all_uses(_stack(model)), c, la, stats)[0]


def _zero_post_llrs(z, r_ll, layer_var, c):
    return np.zeros(np.shape(z) + (c.bits_per_symbol,))


def test_blast_order_orthogonal_columns():
    # Orthogonal columns with norms 3, 1, 2: the strongest remaining column
    # goes to the bottom-most inner position (detected first).
    h = np.diag([3.0, 1.0, 2.0]).astype(complex)
    np.testing.assert_array_equal(blast_order(h, 2), [1, 0, 2])
    np.testing.assert_array_equal(blast_order(h, 0), [1, 2, 0])
    np.testing.assert_array_equal(blast_order(h, 1), [2, 0, 1])


def test_blast_order_ties_go_to_smaller_index():
    h = np.eye(4, dtype=complex)
    np.testing.assert_array_equal(blast_order(h, 3), [2, 1, 0, 3])
    np.testing.assert_array_equal(blast_order(h, 0), [3, 2, 1, 0])


def test_blast_order_is_permutation_and_validates():
    rng = np.random.default_rng(0)
    h = iid_complex_gaussian(rng, (4, 4))
    order = blast_order(h, 1)
    assert order[-1] == 1
    np.testing.assert_array_equal(np.sort(order), np.arange(4))
    with pytest.raises(ValueError):
        blast_order(h, 4)


def test_blast_order_matches_direct_search():
    # Direct reimplementation: repeatedly give the next-lowest position the
    # remaining column with the smallest ZF noise amplification.
    rng = np.random.default_rng(1)
    for _ in range(10):
        h = iid_complex_gaussian(rng, (5, 4))
        for stream in range(4):
            remaining = [k for k in range(4) if k != stream]
            expected = [stream]
            while remaining:
                sub = h[:, remaining]
                diag = np.diagonal(np.linalg.inv(sub.conj().T @ sub)).real
                expected.insert(0, remaining.pop(int(np.argmin(diag))))
            np.testing.assert_array_equal(blast_order(h, stream), expected)


def test_two_streams_equals_list_detector():
    # With two streams the feedback chain is empty, so both detectors
    # evaluate the same metric and must agree to rounding.
    c = build_constellation(16)
    rng = np.random.default_rng(2)
    for _ in range(25):
        model = _random_model(rng, 2, 2)
        la = rng.normal(scale=3.0, size=(2, 4))
        got = _detect(model, c, la)
        ref = _detect(model, c, la, det=lchase)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_single_stream_equals_exhaustive():
    c = build_constellation(64)
    rng = np.random.default_rng(3)
    for _ in range(20):
        model = _random_model(rng, 2, 1)
        la = rng.normal(scale=2.0, size=(1, 6))
        got = _detect(model, c, la)
        ref = exact_maxlog_llrs(model, c, la)
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_feedback_hooks_alter_deep_chains(monkeypatch):
    # Zeroing every post-detection LLR leaves the feedback chain priors
    # only, which must change the result once layers feed back.
    c = build_constellation(16)
    rng = np.random.default_rng(5)
    model = _random_model(rng, 4, 4)
    la = np.zeros((4, 4))
    base = _detect(model, c, la)[0]
    monkeypatch.setattr(bchase, "layer_post_llrs", _zero_post_llrs)
    zeroed = _detect(model, c, la)[0]
    assert not np.allclose(base, zeroed)


def test_noiseless_genie_feedback_is_correct(monkeypatch):
    # Post-detection LLRs pushed to +-LLR_CLIP: at the true candidate of a
    # noiseless observation the chain feeds back each layer's true symbol
    # with zero variance, as a genie would.
    real_layer_post_llrs = bchase.layer_post_llrs

    def genie(z, r_ll, layer_var, c):
        return LLR_CLIP * np.sign(real_layer_post_llrs(z, r_ll, layer_var, c))

    monkeypatch.setattr(bchase, "layer_post_llrs", genie)
    c = build_constellation(16)
    rng = np.random.default_rng(6)
    for _ in range(20):
        h = iid_complex_gaussian(rng, (4, 4))
        idx = rng.integers(0, 16, size=4)
        s = c.symbols[idx]
        model = WhitenedModel(y=h @ s, h=h)
        llrs = _detect(model, c, np.zeros((4, 4)))
        np.testing.assert_array_equal((llrs > 0).astype(np.int8), c.bit_labels[idx])


def test_high_snr_detection_is_correct():
    # The feedback chain trusts the unit noise variance baked into the
    # whitened model, so correctness needs the channel gain itself to be
    # large; a noiseless observation through a weak channel is still
    # detected as if at low SNR.
    c = build_constellation(64)
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = 8.0 * iid_complex_gaussian(rng, (4, 4))
        idx = rng.integers(0, 64, size=4)
        model = WhitenedModel(y=h @ c.symbols[idx], h=h)
        llrs = _detect(model, c, np.zeros((4, 6)))
        np.testing.assert_array_equal((llrs > 0).astype(np.int8), c.bit_labels[idx])


@pytest.mark.parametrize("order,n", [(4, 2), (16, 2), (16, 3), (64, 4)])
def test_complexity_counters(order, n):
    c = build_constellation(order)
    rng = np.random.default_rng(8)
    model = _random_model(rng, n, n)
    stats = DetectorStats()
    _detect(model, c, np.zeros((n, c.bits_per_symbol)), stats)
    root = int(np.sqrt(order))
    assert stats.metric_evals == n * order
    # One prior-only boundary set on the bottom inner layer, per-candidate
    # sets on every layer that sees feedback.
    per_stream = (order - root) * (1 + (n - 2) * order)
    assert stats.boundary_evals == n * per_stream
    assert stats.soft_stat_evals == n * (n - 2) * order
    assert stats.streams == n


def test_two_stream_count_matches_list_detector():
    c = build_constellation(64)
    rng = np.random.default_rng(9)
    model = _random_model(rng, 2, 2)
    s_b, s_l = DetectorStats(), DetectorStats()
    _detect(model, c, np.zeros((2, 6)), s_b)
    _detect(model, c, np.zeros((2, 6)), s_l, det=lchase)
    assert s_b.metric_evals == s_l.metric_evals
    assert s_b.boundary_evals == s_l.boundary_evals
    assert s_b.metrics_per_stream == s_l.metrics_per_stream == 120.0


def test_batched_paths_agree_with_single_use():
    c = build_constellation(16)
    rng = np.random.default_rng(10)
    models = [_random_model(rng, 4, 4) for _ in range(5)]
    la = rng.normal(scale=2.0, size=(5, 4, 4))
    contexts = prepare_all_uses(_stack(*models))
    fused = detect_all_uses(contexts, c, la)
    for u, model in enumerate(models):
        single = _detect(model, c, la[u])
        np.testing.assert_allclose(fused[u], single, rtol=1e-12, atol=1e-12)
        for i in range(4):
            lone = detect_all_uses(contexts[i : i + 1, u : u + 1], c, la[u : u + 1])
            np.testing.assert_allclose(single[i], lone[0, 0], rtol=1e-12, atol=1e-12)


def test_layer_post_llrs_signs_and_shape():
    c = build_constellation(16)
    # An observation sitting exactly on a symbol produces LLRs whose signs
    # reproduce that symbol's bit label.
    for j in (0, 5, 10, 15):
        out = layer_post_llrs(np.array(c.symbols[j]), 4.0, 1.0, c)
        np.testing.assert_array_equal((out > 0).astype(np.int8), c.bit_labels[j])
    z = np.zeros((3, 7), dtype=complex)
    assert layer_post_llrs(z, np.ones((3, 7)), np.ones((3, 7)), c).shape == (3, 7, 4)


@pytest.mark.parametrize("field", ["y", "h"])
def test_non_finite_model_is_rejected(field):
    # A NaN in the whitened model fails at entry, not as NaN LLRs.
    c = build_constellation(16)
    model = _random_model(np.random.default_rng(10), 3, 3)
    getattr(model, field).flat[2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        _detect(model, c, np.zeros((3, 4)))
