"""List-type detector: factorization invariants, exactness, counted walk."""

import numpy as np
import pytest

from chasedet import chase, lchase
from chasedet.channel import WhitenedModel
from chasedet.constellation import (
    SUPPORTED_ORDERS,
    axis_parts,
    build_constellation,
    pam_boundaries,
    pam_metric,
    slice_pam,
)
from chasedet.counters import DetectorStats, pass_stats
from chasedet.lchase import detect_all_uses, prepare_all_uses
from chasedet.llr import LLR_CLIP
from chasedet.reference import exact_maxlog_llrs

from draws import iid_complex_gaussian


def _random_model(rng, n_rx, n, scale=1.0):
    h = scale * iid_complex_gaussian(rng, (n_rx, n))
    y = iid_complex_gaussian(rng, n_rx)
    return WhitenedModel(y=y, h=h)


def _stack(*models):
    """One WhitenedModel stacked over the given channel uses."""
    return WhitenedModel(y=np.stack([m.y for m in models]), h=np.stack([m.h for m in models]))


def _contexts(model):
    """The per-stream contexts of one channel use, indexed by stream."""
    return prepare_all_uses(_stack(model))[:, 0]


def _detect(model, c, la):
    """LLRs (n, q) of every stream of one channel use."""
    la = np.asarray(la, dtype=float)[None]
    return detect_all_uses(prepare_all_uses(_stack(model)), c, la)[0]


def test_context_layer_bookkeeping():
    rng = np.random.default_rng(0)
    model = _random_model(rng, 4, 4)
    for i, ctx in enumerate(_contexts(model)):
        assert ctx.stream == i
        assert ctx.layers[-1] == i
        np.testing.assert_array_equal(np.sort(ctx.layers), np.arange(4))
        assert ctx.pivot > 0.0
        assert ctx.noise_vars.shape == (3,)
        assert np.all(ctx.noise_vars > 0.0)


def test_context_matches_direct_factorization():
    # Rebuild coupling and noise variances from a plain numpy QR of the
    # column-swapped channel and compare field by field.
    rng = np.random.default_rng(1)
    model = _random_model(rng, 5, 3)
    for ctx in _contexts(model):
        q_m, r_m = np.linalg.qr(model.h[:, ctx.layers])
        phase = r_m.diagonal() / np.abs(r_m.diagonal())
        q_m = q_m * phase
        r_m = phase.conj()[:, None] * r_m
        inner = r_m[:2, :2]
        np.testing.assert_allclose(ctx.pivot, r_m[2, 2].real, atol=1e-12)
        np.testing.assert_allclose(
            ctx.coupling, np.linalg.solve(inner, r_m[:2, 2]), atol=1e-12
        )
        inv_inner = np.linalg.inv(inner)
        np.testing.assert_allclose(
            ctx.noise_vars, (np.abs(inv_inner) ** 2).sum(axis=1), atol=1e-12
        )
        ybar_ref = np.concatenate(
            [
                np.linalg.solve(inner, (q_m.conj().T @ model.y)[:2]),
                (q_m.conj().T @ model.y)[2:],
            ]
        )
        np.testing.assert_allclose(ctx.ybar, ybar_ref, atol=1e-12)


def test_context_resolves_noiseless_observation():
    # With y = h s exactly, the scaled observation minus the candidate's
    # leakage recovers each inner layer's transmitted symbol, and the last
    # row collapses to pivot times the target symbol.
    c = build_constellation(16)
    rng = np.random.default_rng(2)
    h = iid_complex_gaussian(rng, (4, 4))
    s = c.symbols[rng.integers(0, 16, size=4)]
    model = WhitenedModel(y=h @ s, h=h)
    for i, ctx in enumerate(_contexts(model)):
        np.testing.assert_allclose(ctx.ybar[-1], ctx.pivot * s[i], atol=1e-10)
        resolved = ctx.ybar[:-1] - ctx.coupling * s[i]
        np.testing.assert_allclose(resolved, s[ctx.layers[:-1]], atol=1e-10)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_single_stream_equals_exhaustive(order):
    c = build_constellation(order)
    rng = np.random.default_rng(3)
    for _ in range(40):
        model = _random_model(rng, 2, 1)
        la = rng.normal(scale=3.0, size=(1, c.bits_per_symbol))
        got = _detect(model, c, la)
        ref = exact_maxlog_llrs(model, c, la)
        np.testing.assert_allclose(got, ref, atol=1e-12)


def _loop_detect_stream(ctx, c, la):
    """Per-candidate metric with a direct max over every inner-layer symbol."""
    prior_tab = la @ c.bit_labels_f.T  # (n, M)
    total = np.empty(c.order)
    for j, cand in enumerate(c.symbols):
        metric = prior_tab[ctx.stream, j]
        metric -= abs(ctx.ybar[-1] - ctx.pivot * cand) ** 2
        for l in range(len(ctx.coupling)):
            z = ctx.ybar[l] - ctx.coupling[l] * cand
            layer_metrics = (
                prior_tab[ctx.layers[l]]
                - np.abs(z - c.symbols) ** 2 / ctx.noise_vars[l]
            )
            metric += layer_metrics.max()
        total[j] = metric
    llrs = np.empty(c.bits_per_symbol)
    for k, (zeros, ones) in enumerate(c.bit_coset_idx):
        llrs[k] = total[ones].max() - total[zeros].max()
    return llrs


@pytest.mark.parametrize("order", [4, 16])
def test_inner_layer_max_is_exact(order):
    # The sliced inner-layer contribution must equal a brute-force max over
    # the full constellation, including strong asymmetric priors.
    c = build_constellation(order)
    rng = np.random.default_rng(4)
    q = c.bits_per_symbol
    for trial in range(30):
        model = _random_model(rng, 3, 3, scale=0.5 + 1.5 * rng.random())
        la = rng.normal(scale=4.0, size=(3, q))
        got = _detect(model, c, la)
        for i, ctx in enumerate(_contexts(model)):
            np.testing.assert_allclose(got[i], _loop_detect_stream(ctx, c, la), atol=1e-12)


def test_target_prior_shifts_llr_additively():
    # Adding delta to the target stream's a priori LLR for bit k shifts
    # every candidate in the bit-k ones coset by delta and nothing else,
    # so the detected LLR for bit k moves by exactly delta.
    c = build_constellation(16)
    rng = np.random.default_rng(5)
    model = _random_model(rng, 3, 3)
    la = rng.normal(size=(3, 4))
    base = _detect(model, c, la)[1]
    for k in range(4):
        delta = rng.normal(scale=2.0)
        bumped = la.copy()
        bumped[1, k] += delta
        got = _detect(model, c, bumped)[1]
        np.testing.assert_allclose(got[k], base[k] + delta, atol=1e-12)


def test_noiseless_detection_is_correct():
    c = build_constellation(64)
    rng = np.random.default_rng(6)
    for _ in range(20):
        h = iid_complex_gaussian(rng, (4, 4))
        idx = rng.integers(0, 64, size=4)
        model = WhitenedModel(y=h @ c.symbols[idx], h=h)
        hard = (_detect(model, c, np.zeros((4, 6))) > 0).astype(np.int8)
        np.testing.assert_array_equal(hard, c.bit_labels[idx])


@pytest.mark.parametrize(
    "order,n", [(4, 1), (4, 3), (16, 2), (64, 4), (256, 2)]
)
def test_complexity_counter_identity(order, n, walk):
    # The cost model charges what a detection pass walks: the M candidate
    # metrics of each context, whose coset maxima give its LLRs, and one
    # boundary set, a boundary per pair of levels on both axes, per context
    # on each inner layer, whose sliced level the level walk stands for.
    # Per detected stream that is n*M - (n-1)*sqrt(M).
    c = build_constellation(order)
    rng = np.random.default_rng(7)
    uses = 3
    models = _stack(*(_random_model(rng, n, n) for _ in range(uses)))
    walk.tally(chase, "coset_llrs", "contexts", lambda total, c: len(total))
    walk.tally(chase, "best_level_metric", "boundary_sets", lambda z, axis, la, var: z.shape[1])
    detect_all_uses(prepare_all_uses(models), c, np.zeros((uses, n, c.bits_per_symbol)))
    stats = pass_stats("lchase", n, c, uses)
    assert stats == DetectorStats(
        metric_evals=walk["contexts"] * order,
        boundary_evals=walk["boundary_sets"] * 2 * c.axis.npairs,
        streams=walk["contexts"],
    )
    assert stats.metrics_per_stream == n * order - (n - 1) * int(np.sqrt(order))


def test_batched_paths_agree_with_single_use():
    # The fused (use, stream) detection batch must reproduce each use
    # detected alone, and each (stream, use) context detected as a lone
    # row; only last-ulp rounding from different batch compositions is
    # tolerated.
    c = build_constellation(16)
    rng = np.random.default_rng(8)
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


def test_detect_all_uses_shape():
    c = build_constellation(4)
    rng = np.random.default_rng(9)
    model = _random_model(rng, 2, 2)
    assert _detect(model, c, np.zeros((2, 2))).shape == (2, 2)


@pytest.mark.parametrize("field", ["y", "h"])
def test_non_finite_model_is_rejected(field):
    # A NaN in the whitened model fails at entry, not as NaN LLRs.
    c = build_constellation(4)
    model = _random_model(np.random.default_rng(10), 2, 2)
    getattr(model, field).flat[1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        _detect(model, c, np.zeros((2, 2)))


def _inner_layers_per_axis(ctx, c, la, use_idx, total):
    """lchase._inner_layers as it walked the real axis, then the imaginary one."""
    for l in range(ctx.layers.shape[1] - 1):
        la_layer = la[use_idx, ctx.layers[:, l], :]
        var = ctx.noise_vars[:, l]
        z = ctx.ybar[:, l : l + 1] - ctx.coupling[:, l : l + 1] * c.symbols
        axis = c.axis
        for cols, zz in zip(axis_parts(np.arange(c.bits_per_symbol)), (z.real, z.imag)):
            la_axis = la_layer[:, cols][:, None, :]
            bset = pam_boundaries(axis, la_axis, var[:, None])
            idx = slice_pam(zz, axis, bset)
            total += pam_metric(axis, idx, zz, la_axis, var[:, None])


@pytest.mark.parametrize("priors", ("zero", "cauchy"))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 6))
@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_inner_layers_match_per_axis_walk(order, n, priors):
    # Both axes in one walk add to the candidate totals bit for bit what
    # the per-axis walk added, real axis first.
    c = build_constellation(order)
    rng = np.random.default_rng([order, n])
    uses = 4
    la = np.zeros((uses, n, c.bits_per_symbol))
    if priors == "cauchy":
        la = np.clip(3.0 * rng.standard_cauchy(la.shape), -LLR_CLIP, LLR_CLIP)
    models = [_random_model(rng, n, n) for _ in range(uses)]
    ctx = prepare_all_uses(_stack(*models)).reshape(-1)
    use_idx = np.arange(len(ctx)) % uses
    start = rng.normal(scale=10.0, size=(len(ctx), order))
    got, want = start.copy(), start.copy()
    lchase._inner_layers(ctx, c, la, use_idx, got)
    _inner_layers_per_axis(ctx, c, la, use_idx, want)
    assert np.array_equal(got, want)


def _sliced_inner_layers(ctx, c, la, use_idx, total):
    """lchase._inner_layers as it took each layer's best metric from the
    slicer: one boundary set per context, slice_pam, then pam_metric."""
    axis = c.axis
    for l in range(ctx.layers.shape[1] - 1):
        la_axes = axis_parts(la[use_idx, ctx.layers[:, l], :]).copy()[:, :, None, :]
        var = ctx.noise_vars[:, l : l + 1]
        z = ctx.ybar[:, l : l + 1] - ctx.coupling[:, l : l + 1] * c.symbols
        z = np.stack((z.real, z.imag))
        idx = slice_pam(z, axis, pam_boundaries(axis, la_axes, var))
        best = pam_metric(axis, idx, z, la_axes, var)
        total += best[0]
        total += best[1]


@pytest.mark.parametrize("observed", ("noisy", "noiseless"))
@pytest.mark.parametrize("priors", ("clipped", "rounded"))
@pytest.mark.parametrize("n", (2, 4, 8))
@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_level_walk_equals_slicer(order, n, priors, observed):
    # Each inner layer's walked maximum is the metric at the level the
    # slicer picks, so the candidate totals and the LLRs equal the sliced
    # path's bit for bit, signs of zero included. Priors sit at 0 and
    # +-LLR_CLIP, or are rounded to integers, which ties levels exactly; a
    # noiseless observation puts every layer's true candidate on a level.
    c = build_constellation(order)
    rng = np.random.default_rng([order, n, priors == "rounded", observed == "noiseless"])
    uses, q = 6, c.bits_per_symbol
    if priors == "clipped":
        la = LLR_CLIP * rng.choice((-1.0, 0.0, 1.0), (uses, n, q))
    else:
        la = np.round(rng.normal(scale=3.0, size=(uses, n, q)))
    h = iid_complex_gaussian(rng, (uses, n, n))
    if observed == "noiseless":
        y = np.einsum("urs,us->ur", h, c.symbols[rng.integers(0, order, (uses, n))])
    else:
        y = iid_complex_gaussian(rng, (uses, n))
    contexts = prepare_all_uses(WhitenedModel(y=y, h=h))
    ctx = contexts.reshape(-1)
    use_idx = np.arange(len(ctx)) % uses
    walked, sliced = np.zeros((2, len(ctx), order))
    lchase._inner_layers(ctx, c, la, use_idx, walked)
    _sliced_inner_layers(ctx, c, la, use_idx, sliced)
    llrs = detect_all_uses(contexts, c, la)
    want = chase.detect_all_uses(_sliced_inner_layers, lchase.context_values(c), contexts, c, la)
    for got, ref in ((walked, sliced), (llrs, want)):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
