"""The shared Chase driver: detection slices and their working set."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from chasedet import bchase, chase, lchase, reference
from chasedet.channel import WhitenedModel
from chasedet.constellation import SUPPORTED_ORDERS, build_constellation
from chasedet.linalg import back_substitute, qr, swap_permutation
from chasedet.llr import LLR_CLIP

from draws import iid_complex_gaussian


def _charge(detector, c, n_streams):
    if detector is lchase:
        return lchase.context_values(c)
    return bchase.context_values(c, n_streams)


@pytest.mark.parametrize("n_streams", (2, 4, 6))
@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
@pytest.mark.parametrize("detector", (lchase, bchase), ids=("lchase", "bchase"))
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


@pytest.mark.parametrize("n_streams", (3, 4, 6))
@pytest.mark.parametrize("order", (16, 64, 256))
def test_bchase_charge_bounds_its_slice_peak(order, n_streams, monkeypatch):
    # What a full bchase slice holds at its peak, counted from the start of
    # its inner layers (so the block detect_all_uses frees before its first
    # slice does not count) and less the call's output, stays under the
    # slice's charge and above half of it: the charge neither undercounts
    # the working set nor drifts far above it as the code changes.
    c = build_constellation(order)
    rng = np.random.default_rng([order, n_streams])
    charge = bchase.context_values(c, n_streams)
    per_slice = chase.SLICE_VALUES // charge
    uses = 2 * per_slice // n_streams + 1
    h = iid_complex_gaussian(rng, (uses, n_streams, n_streams))
    y = iid_complex_gaussian(rng, (uses, n_streams))
    la = np.clip(rng.standard_cauchy((uses, n_streams, c.bits_per_symbol)), -LLR_CLIP, LLR_CLIP)
    contexts = bchase.prepare_all_uses(WhitenedModel(y=y, h=h))
    inner_layers, peaks = bchase._inner_layers, []

    def measured(ctx, *args):
        tracemalloc.reset_peak()
        inner_layers(ctx, *args)
        peaks.append((len(ctx), tracemalloc.get_traced_memory()[1]))

    monkeypatch.setattr(bchase, "_inner_layers", measured)
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
@pytest.mark.parametrize("detector", (lchase, bchase), ids=("lchase", "bchase"))
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


_SOFT_INPUT = {
    "lchase": lambda model, c, la: lchase.detect_all_uses(lchase.prepare_all_uses(model), c, la),
    "bchase": lambda model, c, la: bchase.detect_all_uses(bchase.prepare_all_uses(model), c, la),
    "maxlog": reference.exact_maxlog_llrs,
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


def _per_stream_lchase(h, y, stream):
    """One target stream of lchase, factored as a per-stream pass did."""
    n_uses, _, n = h.shape
    perm = swap_permutation(n, stream)
    factors = qr(h[:, :, perm])
    y_rot = np.einsum("uji,uj->ui", factors.q.conj(), y)
    r = factors.r
    r_inner = r[:, : n - 1, : n - 1]
    coupling = back_substitute(r_inner, r[:, : n - 1, n - 1])
    inv_inner = back_substitute(r_inner, np.eye(n - 1, dtype=complex)[None])
    ybar = np.concatenate(
        [back_substitute(r_inner, y_rot[:, : n - 1]), y_rot[:, n - 1 :]], axis=-1
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
    factors = qr(np.take_along_axis(h, orders[:, None, :], axis=2))
    y_rot = np.einsum("uji,uj->ui", factors.q.conj(), y)
    return {"stream": np.full(len(h), stream), "layers": orders, "r": factors.r, "y_rot": y_rot}


@pytest.mark.parametrize("extra_rx", (0, 1))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 6))
@pytest.mark.parametrize("detector", (lchase, bchase), ids=("lchase", "bchase"))
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
