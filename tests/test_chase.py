"""Checks both Chase detectors share, each run on lchase and bchase: the
exhaustive single-stream case, stacked calls, input checks, the cost model,
detection slices and their working set, and stacked contexts."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from chasedet import bchase, chase, lchase, reference
from chasedet.channel import WhitenedModel
from chasedet.constellation import SUPPORTED_ORDERS, build_constellation
from chasedet.counters import DetectorStats, pass_stats
from chasedet.linalg import back_substitute, qr
from chasedet.llr import LLR_CLIP

from draws import detect, exact_maxlog_llrs, iid_complex_gaussian, random_model, stack

DETECTORS = pytest.mark.parametrize("detector", (lchase, bchase), ids=("lchase", "bchase"))


def _charge(detector, c, n_streams):
    if detector is lchase:
        return lchase.context_values(c)
    return bchase.context_values(c, n_streams)


@pytest.mark.parametrize("order", (4, 16, 64))
@DETECTORS
def test_single_stream_equals_exhaustive(detector, order):
    # With one stream there is no inner layer, and the M candidate metrics
    # are the exhaustive max-log search.
    c = build_constellation(order)
    rng = np.random.default_rng(3)
    for _ in range(40):
        model = random_model(rng, 2, 1)
        la = rng.normal(scale=3.0, size=(1, c.bits_per_symbol))
        got = detect(detector, model, c, la)
        ref = exact_maxlog_llrs(model, c, la)
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_two_streams_equals_list_detector():
    # With two streams the feedback chain is empty, so both detectors
    # evaluate the same metric and must agree to rounding.
    c = build_constellation(16)
    rng = np.random.default_rng(2)
    for _ in range(25):
        model = random_model(rng, 2, 2)
        la = rng.normal(scale=3.0, size=(2, 4))
        got = detect(bchase, model, c, la)
        ref = detect(lchase, model, c, la)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@DETECTORS
def test_batched_paths_agree_with_single_use(detector):
    # The fused (use, stream) detection batch must reproduce each use
    # detected alone, and each (stream, use) context detected as a lone
    # row; only last-ulp rounding from different batch compositions is
    # tolerated.
    c = build_constellation(16)
    rng = np.random.default_rng(8)
    models = [random_model(rng, 4, 4) for _ in range(5)]
    la = rng.normal(scale=2.0, size=(5, 4, 4))
    contexts = detector.prepare_all_uses(stack(models))
    fused = detector.detect_all_uses(contexts, c, la)
    assert fused.shape == la.shape
    for u, model in enumerate(models):
        single = detect(detector, model, c, la[u])
        assert single.shape == la[u].shape
        np.testing.assert_allclose(fused[u], single, rtol=1e-12, atol=1e-12)
        for i in range(4):
            lone = detector.detect_all_uses(contexts[i : i + 1, u : u + 1], c, la[u : u + 1])
            np.testing.assert_allclose(single[i], lone[0, 0], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "order,n", [(4, 1), (4, 2), (4, 3), (16, 2), (16, 3), (64, 4), (256, 2)]
)
@DETECTORS
def test_complexity_counters(detector, order, n, walk):
    # The cost model charges what a detection pass walks: the M candidate
    # metrics of each context, whose coset maxima give its LLRs; a boundary
    # set for each walk of an inner layer's levels, whose best level metric
    # stands for the sliced one: one per context where the layer's variance
    # is the same for every candidate (every lchase layer and bchase's
    # bottom layer), else one per candidate; and M soft symbol statistics
    # per context on every bchase layer that feeds back, whose walk also
    # takes the coset gap its soft statistics come from. Per detected
    # stream lchase's charge is n*M - (n-1)*sqrt(M).
    c = build_constellation(order)
    rng = np.random.default_rng(7)
    uses = 3
    models = stack([random_model(rng, n, n) for _ in range(uses)])

    def boundary_sets(z, axis, prior, var, cosets):
        var = np.atleast_2d(var)  # (M, rows), or (1, rows) where shared
        shared = (var == var[:1]).all(axis=0)
        return np.where(shared, 1, len(var)).sum()

    def coset_walks(z, axis, prior, var, cosets):
        return z[0].size if cosets else 0  # candidates of the (2, M, rows) stack

    walk.tally(chase, "coset_llrs", "contexts", lambda total, c: total.shape[1])
    walk.tally(chase, "level_walk", "boundary_sets", boundary_sets)
    walk.tally(chase, "level_walk", "coset_walks", coset_walks)
    walk.tally(bchase, "soft_symbol_stats", "soft_stats", lambda post, c: post[..., 0].size)
    contexts = detector.prepare_all_uses(models)
    detector.detect_all_uses(contexts, c, np.zeros((uses, n, c.bits_per_symbol)))
    stats = pass_stats(detector.__name__.rpartition(".")[2], n, c, uses)
    assert stats == DetectorStats(
        metric_evals=walk["contexts"] * order,
        boundary_evals=walk["boundary_sets"] * 2 * c.axis.npairs,
        soft_stat_evals=walk["soft_stats"],
        streams=walk["contexts"],
    )
    assert walk["coset_walks"] == walk["soft_stats"]
    if detector is lchase:
        assert stats.metrics_per_stream == n * order - (n - 1) * int(np.sqrt(order))


@pytest.mark.parametrize("n_streams", (2, 4, 6))
@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
@DETECTORS
def test_detection_peak_stays_under_slice_cap(detector, order, n_streams):
    # One detect_all_uses call over a chunk of at least four slices keeps
    # no more than SLICE_VALUES float64 values live besides its output: each
    # detector's charge bounds what one of its slices holds, and nothing
    # grows with the chunk.
    c = build_constellation(order)
    rng = np.random.default_rng(order + n_streams)
    per_slice = chase.SLICE_VALUES // _charge(detector, c, n_streams)
    uses = 4 * per_slice // n_streams + 1
    h = iid_complex_gaussian(rng, (uses, n_streams, n_streams))
    y = iid_complex_gaussian(rng, (uses, n_streams))
    la = np.clip(rng.standard_cauchy((uses, n_streams, c.bits_per_symbol)), -LLR_CLIP, LLR_CLIP)
    contexts = detector.prepare_all_uses(WhitenedModel(y=y, h=h))
    detector.detect_all_uses(contexts, c, la)
    tracemalloc.start()
    try:
        out = detector.detect_all_uses(contexts, c, la)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert uses * n_streams > 4 * per_slice
    assert peak <= chase.SLICE_VALUES * 8 + out.nbytes


@pytest.mark.parametrize("n_streams", (1, 2, 3, 4, 6))
@pytest.mark.parametrize("order", (4, 16, 64, 256))
def test_bchase_charge_bounds_its_slice_peak(order, n_streams, monkeypatch):
    # What a full bchase slice holds at its peak, counted from its
    # candidates' a priori terms to its LLRs (so the block detect_all_uses
    # frees before its first slice does not count) and less the call's
    # output, stays under the slice's charge and above half of it: the
    # charge neither undercounts the working set nor drifts far above it as
    # the code changes. With one stream the peak falls outside the inner
    # layers, in the target's own metrics.
    c = build_constellation(order)
    rng = np.random.default_rng([order, n_streams])
    charge = bchase.context_values(c, n_streams)
    per_slice = chase.SLICE_VALUES // charge
    uses = 2 * per_slice // n_streams + 1
    h = iid_complex_gaussian(rng, (uses, n_streams, n_streams))
    y = iid_complex_gaussian(rng, (uses, n_streams))
    la = np.clip(rng.standard_cauchy((uses, n_streams, c.bits_per_symbol)), -LLR_CLIP, LLR_CLIP)
    contexts = bchase.prepare_all_uses(WhitenedModel(y=y, h=h))
    label_priors, coset_llrs, peaks = chase.label_priors, chase.coset_llrs, []

    def slice_starts(*args):
        tracemalloc.reset_peak()
        return label_priors(*args)

    def slice_ends(total, c):
        llrs = coset_llrs(total, c)
        peaks.append((total.shape[1], tracemalloc.get_traced_memory()[1]))
        return llrs

    monkeypatch.setattr(chase, "label_priors", slice_starts)
    monkeypatch.setattr(chase, "coset_llrs", slice_ends)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = bchase.detect_all_uses(contexts, c, la)
    finally:
        tracemalloc.stop()
    full = [peak for rows, peak in peaks if rows == per_slice]
    assert len(full) >= 2
    held = (max(full) - base - out.nbytes) / 8
    assert charge * per_slice / 2 <= held <= charge * per_slice


@pytest.mark.parametrize("n_streams", (3, 4))
@pytest.mark.parametrize("order", (16, 64))
@DETECTORS
def test_slicing_does_not_change_llrs(detector, order, n_streams, monkeypatch):
    # One context per slice, a few per slice and the whole stack in one
    # slice give the same LLRs bit for bit. Cauchy priors, some at
    # +-LLR_CLIP.
    c = build_constellation(order)
    rng = np.random.default_rng([order, n_streams, detector is bchase])
    uses = 5
    h = iid_complex_gaussian(rng, (uses, n_streams, n_streams))
    y = iid_complex_gaussian(rng, (uses, n_streams))
    la = 3.0 * rng.standard_cauchy((uses, n_streams, c.bits_per_symbol))
    la = np.clip(la, -LLR_CLIP, LLR_CLIP)
    clipped = rng.random(la.shape) < 0.2
    la[clipped] = np.copysign(LLR_CLIP, la[clipped])
    contexts = detector.prepare_all_uses(WhitenedModel(y=y, h=h))
    charge = _charge(detector, c, n_streams)
    llrs = []
    for per_slice in (1, 3, uses * n_streams):
        monkeypatch.setattr(chase, "SLICE_VALUES", per_slice * charge)
        llrs.append(detector.detect_all_uses(contexts, c, la))
    assert np.array_equal(llrs[0], llrs[2])
    assert np.array_equal(llrs[1], llrs[2])


@pytest.mark.parametrize("n_streams", range(1, 7))
@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
@DETECTORS
def test_dead_targets_are_skipped(detector, order, n_streams, monkeypatch):
    # With each stream's live leading uses given, live targets get the LLRs
    # of a call with every use live, bit for bit and signs of zero
    # included, and dead ones exactly 0.0. The first streams are live
    # throughout and run on as one run that a dead tail ends, the others
    # have dead tails (the first stream too when it is alone), and from
    # four streams the last is dead throughout. Slices of one context, of
    # one short of the first run, of exactly the first run (a slice ends at
    # the dead tail) and of the whole stack.
    c = build_constellation(order)
    rng = np.random.default_rng([order, n_streams, detector is bchase, 7])
    uses = 5
    h = iid_complex_gaussian(rng, (uses, n_streams, n_streams))
    y = iid_complex_gaussian(rng, (uses, n_streams))
    la = 3.0 * rng.standard_cauchy((uses, n_streams, c.bits_per_symbol))
    la = np.clip(la, -LLR_CLIP, LLR_CLIP)
    contexts = detector.prepare_all_uses(WhitenedModel(y=y, h=h))
    full_streams = n_streams // 2
    live = np.where(np.arange(n_streams) < full_streams, uses, uses - 2)
    if n_streams >= 4:
        live[-1] = 0
    dead = np.arange(uses)[:, None] >= live  # (uses, streams)
    first_run = full_streams * uses + uses - 2
    every = detector.detect_all_uses(contexts, c, la)
    charge = _charge(detector, c, n_streams)
    for per_slice in (1, first_run - 1, first_run, uses * n_streams):
        monkeypatch.setattr(chase, "SLICE_VALUES", per_slice * charge)
        got = detector.detect_all_uses(contexts, c, la, live)
        assert np.array_equal(got[~dead], every[~dead])
        assert np.array_equal(np.signbit(got), np.signbit(every) & ~dead[..., None])
        assert not got[dead].any()


@pytest.mark.parametrize("n_streams", range(1, 7))
@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
@DETECTORS
def test_use_order_does_not_change_llrs(detector, order, n_streams, monkeypatch):
    # Each use's LLRs depend on that use alone: reversing or shuffling the
    # uses of a stack permutes its LLRs the same way, bit for bit, signs of
    # zero included, whether slices of three contexts cut the stack mid-way
    # or one slice holds it all. Cauchy priors, some at 0 and +-LLR_CLIP.
    c = build_constellation(order)
    rng = np.random.default_rng([order, n_streams, detector is bchase, 11])
    uses = 5
    h = iid_complex_gaussian(rng, (uses, n_streams, n_streams))
    y = iid_complex_gaussian(rng, (uses, n_streams))
    la = 3.0 * rng.standard_cauchy((uses, n_streams, c.bits_per_symbol))
    la = np.clip(la, -LLR_CLIP, LLR_CLIP)
    la[rng.random(la.shape) < 0.2] = 0.0
    clipped = rng.random(la.shape) < 0.2
    la[clipped] = np.copysign(LLR_CLIP, la[clipped])
    charge = _charge(detector, c, n_streams)

    def llrs(order_):
        model = WhitenedModel(y=y[order_], h=h[order_])
        return detector.detect_all_uses(detector.prepare_all_uses(model), c, la[order_])

    for per_slice in (3, uses * n_streams):
        monkeypatch.setattr(chase, "SLICE_VALUES", per_slice * charge)
        want = llrs(np.arange(uses))
        for order_ in (np.arange(uses)[::-1], rng.permutation(uses)):
            got = llrs(order_)
            assert np.array_equal(got, want[order_])
            assert np.array_equal(np.signbit(got), np.signbit(want[order_]))


_SOFT_INPUT = {
    "lchase": lambda model, c, la: lchase.detect_all_uses(lchase.prepare_all_uses(model), c, la),
    "bchase": lambda model, c, la: bchase.detect_all_uses(bchase.prepare_all_uses(model), c, la),
    "maxlog": exact_maxlog_llrs,
}


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf), ids=("nan", "+inf", "-inf"))
@pytest.mark.parametrize("detector", sorted(_SOFT_INPUT))
def test_non_finite_apriori_is_rejected(detector, bad):
    # One non-finite a priori LLR in the last use fails the whole call,
    # where it would otherwise turn every LLR of its use into NaN.
    c = build_constellation(16)
    rng = np.random.default_rng(31)
    y, h = iid_complex_gaussian(rng, (3, 3)), iid_complex_gaussian(rng, (3, 3, 3))
    model = WhitenedModel(y=y, h=h)
    la = rng.normal(size=(3, 3, c.bits_per_symbol))
    la[-1, -1, -1] = bad
    with pytest.raises(ValueError, match="a priori LLRs must be finite"):
        _SOFT_INPUT[detector](model, c, la)


@pytest.mark.parametrize(
    "shape", ((7, 4, 4), (5, 6, 4), (5, 4, 2)), ids=("uses", "streams", "bits")
)
@pytest.mark.parametrize("detector", sorted(_SOFT_INPUT))
def test_misshaped_apriori_is_rejected(detector, shape):
    # A priori LLRs for more uses or streams than the model has, or with
    # another bit count, fail with the shape expected of 5 uses x 4 streams
    # of 16-QAM, not as silently truncated or broadcast LLRs.
    c = build_constellation(16)
    rng = np.random.default_rng(33)
    y, h = iid_complex_gaussian(rng, (5, 4)), iid_complex_gaussian(rng, (5, 4, 4))
    with pytest.raises(ValueError, match=r"expected a priori shape \(5, 4, 4\)"):
        _SOFT_INPUT[detector](WhitenedModel(y=y, h=h), c, np.zeros(shape))


_MODEL_INPUT = {**_SOFT_INPUT, "lmmse": lambda model, c, la: reference.lmmse_llrs(model, c)}


@pytest.mark.parametrize("bad", (np.nan, np.inf), ids=("nan", "inf"))
@pytest.mark.parametrize("field", ("y", "h"))
@pytest.mark.parametrize("detector", sorted(_MODEL_INPUT))
def test_non_finite_model_is_rejected(detector, field, bad):
    # One non-finite entry of the whitened model, in the last use of a
    # stack, fails the whole call at entry, not as NaN LLRs.
    c = build_constellation(16)
    rng = np.random.default_rng(32)
    y, h = iid_complex_gaussian(rng, (3, 3)), iid_complex_gaussian(rng, (3, 3, 3))
    model = WhitenedModel(y=y, h=h)
    getattr(model, field)[-1].flat[-1] = bad
    la = np.zeros((3, 3, c.bits_per_symbol))
    with pytest.raises(ValueError, match="channel and observation must be finite"):
        _MODEL_INPUT[detector](model, c, la)


def _per_stream_lchase(h, y, stream):
    """One target stream of lchase, factored as a per-stream pass did."""
    n_uses, _, n = h.shape
    perm = np.arange(n)
    perm[[stream, n - 1]] = n - 1, stream
    r, y_rot = qr(h[:, :, perm], y)
    r_inner = r[:, : n - 1, : n - 1]
    coupling = back_substitute(r_inner, r[:, : n - 1, n - 1 :])[..., 0]
    inv_inner = back_substitute(r_inner, np.eye(n - 1, dtype=complex)[None])
    ybar = np.concatenate(
        [back_substitute(r_inner, y_rot[:, : n - 1, None])[..., 0], y_rot[:, n - 1 :]], axis=-1
    )
    return {
        "stream": np.full(n_uses, stream),
        "layers": np.tile(perm, (n_uses, 1)),
        "ybar": ybar,
        "coupling": coupling,
        "pivot": r[:, n - 1, n - 1].real,
        "noise_vars": (np.abs(inv_inner) ** 2).sum(axis=-1),
    }


def _per_stream_blast_order(h, stream):
    """BLAST column orders of one target stream, walked as a per-stream pass did."""
    n_uses, _, n = h.shape
    rows = np.arange(n_uses)
    gram = np.einsum("uji,ujk->uik", h.conj(), h)
    remaining = np.tile([k for k in range(n) if k != stream], (n_uses, 1))
    order = np.empty((n_uses, n), dtype=int)
    order[:, -1] = stream
    for pos in range(n - 2, -1, -1):
        k = remaining.shape[1]
        if k == 1:
            order[:, pos] = remaining[:, 0]
            break
        sub = gram[rows[:, None, None], remaining[:, :, None], remaining[:, None, :]]
        pick = np.diagonal(np.linalg.inv(sub), axis1=1, axis2=2).real.argmin(axis=1)
        order[:, pos] = remaining[rows, pick]
        keep = np.ones((n_uses, k), dtype=bool)
        keep[rows, pick] = False
        remaining = remaining[keep].reshape(n_uses, k - 1)
    return order


def _per_stream_bchase(h, y, stream):
    """One target stream of bchase, ordered and factored as a per-stream pass did."""
    orders = _per_stream_blast_order(h, stream)
    r, y_rot = qr(np.take_along_axis(h, orders[:, None, :], axis=2), y)
    return {"stream": np.full(len(h), stream), "layers": orders, "r": r, "y_rot": y_rot}


@pytest.mark.parametrize("extra_rx", (0, 1))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 6))
@DETECTORS
def test_contexts_match_per_stream_stack(detector, n, extra_rx):
    # Every (stream, use) context, field by field, equals what factoring one
    # target stream at a time over all uses and stacking the streams gives.
    # A square identity channel ties every BLAST amplification.
    rng = np.random.default_rng([n, extra_rx])
    n_rx, uses = n + extra_rx, 7
    h = iid_complex_gaussian(rng, (uses, n_rx, n)) * rng.uniform(0.1, 3.0, (uses, 1, 1))
    if extra_rx == 0:
        h[0] = np.eye(n)
    y = iid_complex_gaussian(rng, (uses, n_rx))
    per_stream = _per_stream_lchase if detector is lchase else _per_stream_bchase
    streams = [per_stream(h, y, i) for i in range(n)]
    contexts = detector.prepare_all_uses(WhitenedModel(y=y, h=h))
    assert np.shape(contexts.stream) == (n, uses)
    assert np.array_equal(contexts.stream, np.stack([s["stream"] for s in streams]))
    for f in fields(contexts):
        want = np.stack([s[f.name] for s in streams])
        assert np.array_equal(getattr(contexts, f.name), want), f.name


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_coset_llrs_match_index_set_maxima(order):
    # Maxima over the bit axes of the split candidate axis are the maxima
    # over each bit's coset of candidate indices, bit for bit, under
    # integer totals that tie within and across cosets and under Cauchy ones.
    c = build_constellation(order)
    rng = np.random.default_rng(order + 7)
    ties = rng.integers(-3, 3, (order, 200)).astype(float)
    spread = -np.abs(20.0 * rng.standard_cauchy((order, 200)))
    for total in (ties, spread, spread[:, :1], spread[:, :0]):
        want = np.empty((total.shape[1], c.bits_per_symbol))
        for k, ones in enumerate(c.bit_labels.T == 1):
            want[:, k] = total[ones].max(axis=0) - total[~ones].max(axis=0)
        got = chase.coset_llrs(np.ascontiguousarray(total), c)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
