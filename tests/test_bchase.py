"""Decision-feedback detector: BLAST order and the soft feedback chain."""

import itertools

import numpy as np
import pytest

from chasedet import bchase
from chasedet.bchase import detect_all_uses, layer_post_llrs, prepare_all_uses
from chasedet.channel import CorrelationModel, WhitenedModel, generate_channel
from chasedet.constellation import (
    SUPPORTED_ORDERS,
    Constellation,
    axis_parts,
    best_level_metric,
    build_constellation,
    coset_min_sqdist,
    pam_boundaries,
    pam_metric,
    slice_pam,
    soft_symbol_stats,
    stack_axes,
)
from chasedet.counters import pass_stats
from chasedet.llr import LLR_CLIP
from chasedet.reference import brute_pam_argmax

from draws import apriori, detect, iid_complex_gaussian, random_model, stack


def _zero_post_llrs(parts, r_ll, layer_var, c):
    return np.zeros(np.shape(parts)[1:] + (c.bits_per_symbol,))


def blast_order(h, stream):
    """BLAST column order of one channel use."""
    return bchase._blast_orders(np.asarray(h)[None])[stream]


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


def test_blast_order_is_permutation():
    rng = np.random.default_rng(0)
    h = iid_complex_gaussian(rng, (4, 4))
    order = blast_order(h, 1)
    assert order[-1] == 1
    np.testing.assert_array_equal(np.sort(order), np.arange(4))


def test_blast_order_matches_direct_search():
    # Direct reimplementation: repeatedly give the next-lowest position the
    # remaining column with the smallest ZF noise amplification, from a
    # fresh inverse of the remaining columns' Gram matrix at every step.
    rng = np.random.default_rng(1)
    for n, extra_rx, rho in itertools.product(range(2, 9), (0, 2), (0.0, 0.9, 0.99)):
        n_rx = n + extra_rx
        corr = CorrelationModel(rho, rho)
        hs = generate_channel(n_rx, n, corr, rng.standard_normal((6, 2, n_rx, n)))
        orders = bchase._blast_orders(hs)
        for u, h in enumerate(hs):
            for stream in range(n):
                remaining = [k for k in range(n) if k != stream]
                expected = [stream]
                while remaining:
                    sub = h[:, remaining]
                    diag = np.diagonal(np.linalg.inv(sub.conj().T @ sub)).real
                    expected.insert(0, remaining.pop(int(np.argmin(diag))))
                np.testing.assert_array_equal(orders[stream * len(hs) + u], expected)


@pytest.mark.parametrize("n", (2, 4, 8))
def test_prepare_inverts_one_gram_per_use(n, monkeypatch):
    # One bchase prepare over a stack of uses makes one np.linalg.inv call,
    # of every use's Gram matrix at once: no inverse per ordering step.
    calls = []

    def counted(a, _inv=np.linalg.inv):
        calls.append(np.shape(a))
        return _inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    rng = np.random.default_rng(n)
    h = iid_complex_gaussian(rng, (5, n, n))
    prepare_all_uses(WhitenedModel(y=iid_complex_gaussian(rng, (5, n)), h=h))
    assert calls == [(5, n, n)]


def test_feedback_hooks_alter_deep_chains(monkeypatch):
    # Zeroing every post-detection LLR leaves the feedback chain priors
    # only, which must change the result once layers feed back.
    c = build_constellation(16)
    rng = np.random.default_rng(5)
    model = random_model(rng, 4, 4)
    la = np.zeros((4, 4))
    base = detect(bchase, model, c, la)[0]
    monkeypatch.setattr(bchase, "layer_post_llrs", _zero_post_llrs)
    zeroed = detect(bchase, model, c, la)[0]
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
        llrs = detect(bchase, model, c, np.zeros((4, 4)))
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
        llrs = detect(bchase, model, c, np.zeros((4, 6)))
        np.testing.assert_array_equal((llrs > 0).astype(np.int8), c.bit_labels[idx])


def test_two_stream_count_matches_list_detector():
    # With two streams no layer feeds back, so both detectors cost the same.
    c = build_constellation(64)
    bchase_stats = pass_stats("bchase", 2, c, 5)
    assert bchase_stats == pass_stats("lchase", 2, c, 5)
    assert bchase_stats.metrics_per_stream == 120.0


def test_layer_post_llrs_signs_and_shape():
    c = build_constellation(16)
    # An observation sitting exactly on a symbol produces LLRs whose signs
    # reproduce that symbol's bit label.
    for j in (0, 5, 10, 15):
        out = layer_post_llrs(stack_axes(np.array(c.symbols[j])), 4.0, 1.0, c)
        np.testing.assert_array_equal((out > 0).astype(np.int8), c.bit_labels[j])
    z = np.zeros((3, 7), dtype=complex)
    assert layer_post_llrs(stack_axes(z), np.ones((3, 7)), np.ones((3, 7)), c).shape == (3, 7, 4)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_feedback_layer_metric_is_metric_at_brute_argmax(order):
    # Layers above the bottom one add the largest level metric under each
    # candidate's own variance: pam_metric at the brute-force argmax level.
    axis = build_constellation(order).axis
    rng = np.random.default_rng(order + 13)
    rows, m = 300, order
    z = rng.uniform(-2.0, 2.0, (rows, m))
    la = rng.uniform(-LLR_CLIP, LLR_CLIP, (rows, 1, axis.nbits))
    var = 10.0 ** rng.uniform(-3.0, 3.0, (rows, m))
    idx = brute_pam_argmax(z, axis, la, var)
    want = pam_metric(axis, idx, z, la, var)
    assert np.array_equal(best_level_metric(z, axis, la, var), want)
    # The stacked shapes _inner_layers passes: both axes' z as (2, rows, M),
    # their priors as (2, rows, 1, nbits) with some at +-LLR_CLIP, and one
    # (rows, M) variance.
    z = rng.uniform(-2.0, 2.0, (2, rows, m))
    la = rng.uniform(-LLR_CLIP, LLR_CLIP, (2, rows, 1, axis.nbits))
    clipped = rng.random(la.shape) < 0.2
    la[clipped] = np.copysign(LLR_CLIP, la[clipped])
    idx = brute_pam_argmax(z, axis, la, var)
    want = pam_metric(axis, idx, z, la, var)
    assert np.array_equal(best_level_metric(z, axis, la, var), want)


def _soft_stats_prod_form(llrs, c: Constellation):
    """soft_symbol_stats as level probabilities from np.prod of 1 +- t factors."""
    llrs = np.clip(np.asarray(llrs, dtype=float), -LLR_CLIP, LLR_CLIP)
    t = np.tanh(llrs / 2.0)
    mean_parts = []
    var_total = 0.0
    axis = c.axis
    for cols in axis_parts(np.arange(c.bits_per_symbol)):
        ta = t[..., cols]
        signs = 2.0 * axis.sub_labels.astype(float) - 1.0
        probs = np.prod(1.0 + signs * ta[..., None, :], axis=-1) / axis.nlevels
        mean = probs @ axis.levels
        second = probs @ (axis.levels**2)
        mean_parts.append(mean)
        var_total = var_total + np.clip(second - mean**2, 0.0, None)
    return mean_parts[0] + 1j * mean_parts[1], var_total


@pytest.mark.parametrize("order", (16, 64))
def test_closed_form_soft_stats_do_not_drift_through_feedback(order, monkeypatch):
    # The closed-form soft statistics round differently from the level
    # products. Through every feedback layer of 4x4 detection at 0.9
    # correlation with Cauchy priors, the LLRs stay within 1e-10 of those
    # the product form gives, and keep their signs wherever |LLR| > 1e-10.
    c = build_constellation(order)
    rng = np.random.default_rng(order + 23)
    uses, n, bound = 64, 4, 1e-10
    h = generate_channel(n, n, CorrelationModel(0.9, 0.9), rng.standard_normal((uses, 2, n, n)))
    h *= np.sqrt(10.0 ** 1.5 / n)
    s = c.symbols[rng.integers(0, order, (uses, n))]
    y = np.einsum("urt,ut->ur", h, s) + iid_complex_gaussian(rng, (uses, n))
    la = np.clip(3.0 * rng.standard_cauchy((uses, n, c.bits_per_symbol)), -LLR_CLIP, LLR_CLIP)
    ctx = prepare_all_uses(WhitenedModel(y=y, h=h))
    got = detect_all_uses(ctx, c, la)
    monkeypatch.setattr(bchase, "soft_symbol_stats", _soft_stats_prod_form)
    want = detect_all_uses(ctx, c, la)
    assert np.abs(got - want).max() <= bound
    decided = np.abs(want) > bound
    assert np.array_equal(np.sign(got[decided]), np.sign(want[decided]))


def _post_llrs_per_axis(z, r_ll, layer_var, c):
    """layer_post_llrs as it took the real axis's coset minima, then the imaginary's."""
    scale = np.asarray(r_ll, dtype=float) ** 2 / np.asarray(layer_var, dtype=float)
    out = np.empty(np.broadcast(z, scale).shape + (c.bits_per_symbol,))
    for cols, zz in zip(axis_parts(np.arange(c.bits_per_symbol)), (z.real, z.imag)):
        d0, d1 = coset_min_sqdist(zz, c.axis)
        out[..., cols] = (d0 - d1) * scale[..., None]
    return out


def _inner_layers_per_axis(ctx, c, la, use_idx, total):
    """bchase._inner_layers as it walked the real axis, then the imaginary one."""
    batch, n, m = len(ctx), ctx.layers.shape[1], c.order
    r, y_rot, perms = ctx.r, ctx.y_rot, ctx.layers
    shat = np.zeros((batch, max(n - 1, 1), m), dtype=complex)
    svar = np.zeros((batch, max(n - 1, 1), m))
    for l in range(n - 2, -1, -1):
        la_layer = la[use_idx, perms[:, l], :]
        r_row = r[:, l, :]
        feedback = np.einsum("uf,ufm->um", r_row[:, l + 1 : n - 1], shat[:, l + 1 : n - 1])
        layer_var = 1.0 + np.einsum(
            "uf,ufm->um", np.abs(r_row[:, l + 1 : n - 1]) ** 2, svar[:, l + 1 : n - 1]
        )
        r_ll = r_row[:, l].real
        z = (y_rot[:, l : l + 1] - r_row[:, n - 1 : n] * c.symbols - feedback) / r_ll[:, None]
        eff_var = layer_var / r_ll[:, None] ** 2
        bottom = l == n - 2
        axis = c.axis
        for cols, zz in zip(axis_parts(np.arange(c.bits_per_symbol)), (z.real, z.imag)):
            la_axis = la_layer[:, cols][:, None, :]
            if bottom:
                idx = slice_pam(zz, axis, pam_boundaries(axis, la_axis, eff_var[:, :1]))
                total += pam_metric(axis, idx, zz, la_axis, eff_var)
            else:
                total += best_level_metric(zz, axis, la_axis, eff_var)
        if l == 0:
            break
        post = _post_llrs_per_axis(z, r_ll[:, None], layer_var, c)
        shat[:, l, :], svar[:, l, :] = soft_symbol_stats(la_layer[:, None, :] + post, c)


_PRIOR_CASES = [
    pytest.param(priors, observed, id=priors if observed == "noisy" else f"{priors}-{observed}")
    for priors in ("zero", "cauchy", "clipped", "rounded")
    for observed in ("noisy", "noiseless")
]


@pytest.mark.parametrize("priors,observed", _PRIOR_CASES)
@pytest.mark.parametrize("n", (1, 2, 3, 4, 6))
@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_inner_layers_match_per_axis_walk(order, n, priors, observed):
    # Both axes in one walk, on the bottom layer and on the feedback layers,
    # add to the candidate totals bit for bit, signs of zero included, what
    # the per-axis walk added, real axis first, with the bottom layer
    # sliced. Priors at 0 and +-LLR_CLIP, or rounded to integers, tie levels
    # exactly; a noiseless observation puts the true candidate's bottom
    # layer on a level, to rounding. At n = 2 the bottom layer is the only
    # inner layer.
    c = build_constellation(order)
    rng = np.random.default_rng([order, n])
    uses = 4 if order < 256 else 2
    la = apriori(rng, priors, (uses, n, c.bits_per_symbol))
    if observed == "noisy":
        models = [random_model(rng, n, n) for _ in range(uses)]
    else:
        h = iid_complex_gaussian(rng, (uses, n, n))
        s = c.symbols[rng.integers(0, order, (uses, n))]
        models = [WhitenedModel(y=hu @ su, h=hu) for hu, su in zip(h, s)]
    ctx = prepare_all_uses(stack(models)).reshape(-1)
    use_idx = np.arange(len(ctx)) % uses
    start = rng.normal(scale=10.0, size=(len(ctx), order))
    got, want = start.copy(), start.copy()
    bchase._inner_layers(ctx, c, la, use_idx, got)
    _inner_layers_per_axis(ctx, c, la, use_idx, want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_layer_post_llrs_match_per_axis_minima(order):
    c = build_constellation(order)
    rng = np.random.default_rng(order + 19)
    z = iid_complex_gaussian(rng, (40, order)) * 2.0
    r_ll, layer_var = rng.uniform(0.2, 3.0, (40, 1)), rng.uniform(0.5, 20.0, (40, order))
    want = _post_llrs_per_axis(z, r_ll, layer_var, c)
    assert np.array_equal(layer_post_llrs(stack_axes(z), r_ll, layer_var, c), want)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_feedback_chain_matches_c_ordered_chain(order):
    # layer_post_llrs, plus the layer's a priori LLRs in place, then
    # soft_symbol_stats: bit-major memory all the way, and bit for bit the
    # chain on C-ordered (..., q) LLRs gives. Cauchy priors, some at
    # +-LLR_CLIP.
    c = build_constellation(order)
    rng = np.random.default_rng(order + 29)
    rows = 30
    z = iid_complex_gaussian(rng, (rows, order)) * 2.0
    r_ll, layer_var = rng.uniform(0.2, 3.0, (rows, 1)), rng.uniform(0.5, 20.0, (rows, order))
    la = np.clip(3.0 * rng.standard_cauchy((rows, c.bits_per_symbol)), -LLR_CLIP, LLR_CLIP)
    clipped = rng.random(la.shape) < 0.2
    la[clipped] = np.copysign(LLR_CLIP, la[clipped])
    want_post = la[:, None, :] + _post_llrs_per_axis(z, r_ll, layer_var, c)
    assert want_post.flags.c_contiguous
    post = layer_post_llrs(stack_axes(z), r_ll, layer_var, c)
    post += la[:, None, :]
    assert all(post[..., k].flags.c_contiguous for k in range(c.bits_per_symbol))
    assert np.array_equal(post, want_post)
    mean, var = soft_symbol_stats(post, c)
    want_mean, want_var = soft_symbol_stats(want_post, c)
    assert np.array_equal(mean, want_mean)
    assert np.array_equal(var, want_var)
