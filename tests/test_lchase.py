"""List-type detector: nulling contexts, exact inner layers, level walk against the slicer."""

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
from chasedet.lchase import detect_all_uses, prepare_all_uses

from draws import apriori, detect, iid_complex_gaussian, random_model, stack


def _contexts(model):
    """The per-stream contexts of one channel use, indexed by stream."""
    return prepare_all_uses(stack([model]))[:, 0]


def test_context_layer_bookkeeping():
    rng = np.random.default_rng(0)
    model = random_model(rng, 4, 4)
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
    model = random_model(rng, 5, 3)
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
        model = random_model(rng, 3, 3, scale=0.5 + 1.5 * rng.random())
        la = rng.normal(scale=4.0, size=(3, q))
        got = detect(lchase, model, c, la)
        for i, ctx in enumerate(_contexts(model)):
            np.testing.assert_allclose(got[i], _loop_detect_stream(ctx, c, la), atol=1e-12)


def test_target_prior_shifts_llr_additively():
    # Adding delta to the target stream's a priori LLR for bit k shifts
    # every candidate in the bit-k ones coset by delta and nothing else,
    # so the detected LLR for bit k moves by exactly delta.
    c = build_constellation(16)
    rng = np.random.default_rng(5)
    model = random_model(rng, 3, 3)
    la = rng.normal(size=(3, 4))
    base = detect(lchase, model, c, la)[1]
    for k in range(4):
        delta = rng.normal(scale=2.0)
        bumped = la.copy()
        bumped[1, k] += delta
        got = detect(lchase, model, c, bumped)[1]
        np.testing.assert_allclose(got[k], base[k] + delta, atol=1e-12)


def test_noiseless_detection_is_correct():
    c = build_constellation(64)
    rng = np.random.default_rng(6)
    for _ in range(20):
        h = iid_complex_gaussian(rng, (4, 4))
        idx = rng.integers(0, 64, size=4)
        model = WhitenedModel(y=h @ c.symbols[idx], h=h)
        hard = (detect(lchase, model, c, np.zeros((4, 6))) > 0).astype(np.int8)
        np.testing.assert_array_equal(hard, c.bit_labels[idx])


def test_detect_all_uses_shape():
    c = build_constellation(4)
    rng = np.random.default_rng(9)
    model = random_model(rng, 2, 2)
    assert detect(lchase, model, c, np.zeros((2, 2))).shape == (2, 2)


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


_WALK_CASES = [
    *((n, priors, "noisy") for n in (1, 2, 3, 4, 6) for priors in ("zero", "cauchy")),
    *(
        (n, priors, observed)
        for n in (2, 4, 8)
        for priors in ("clipped", "rounded")
        for observed in ("noisy", "noiseless")
    ),
]


@pytest.mark.parametrize("n,priors,observed", _WALK_CASES)
@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_level_walk_equals_slicer(order, n, priors, observed):
    # Each inner layer's walked maximum is the metric at the level the
    # slicer picks, so both add the same to random candidate totals, and
    # the LLRs equal the sliced path's, bit for bit, signs of zero included.
    # Priors are zero, Cauchy, at 0 and +-LLR_CLIP, or rounded to integers;
    # the last two tie levels exactly. A noiseless observation puts every
    # layer's true candidate on a level. At n = 1 there is no inner layer.
    c = build_constellation(order)
    rng = np.random.default_rng([order, n, priors == "rounded", observed == "noiseless"])
    uses, q = 6, c.bits_per_symbol
    la = apriori(rng, priors, (uses, n, q))
    h = iid_complex_gaussian(rng, (uses, n, n))
    if observed == "noiseless":
        y = np.einsum("urs,us->ur", h, c.symbols[rng.integers(0, order, (uses, n))])
    else:
        y = iid_complex_gaussian(rng, (uses, n))
    contexts = prepare_all_uses(WhitenedModel(y=y, h=h))
    ctx = contexts.reshape(-1)
    use_idx = np.arange(len(ctx)) % uses
    start = rng.normal(scale=10.0, size=(len(ctx), order))
    walked, sliced = start.copy(), start.copy()
    lchase._inner_layers(ctx, c, la, use_idx, walked)
    _sliced_inner_layers(ctx, c, la, use_idx, sliced)
    llrs = detect_all_uses(contexts, c, la)
    want = chase.detect_all_uses(_sliced_inner_layers, lchase.context_values(c), contexts, c, la)
    for got, ref in ((walked, sliced), (llrs, want)):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
