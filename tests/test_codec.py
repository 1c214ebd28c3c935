"""Convolutional code, puncturing, interleaving, and the max-log decoder."""

import tracemalloc

import numpy as np
import pytest

from chasedet import simcli
from chasedet.codec import (
    SUPPORTED_RATES,
    CodeConfig,
    bcjr_decode,
    encode,
    make_interleaver,
    puncture,
)
from chasedet.errors import ConfigError
from chasedet.llr import LLR_CLIP


def _depuncture(llrs, cfg):
    """Transmitted-position LLRs (..., transmitted_len) re-expanded to the
    mother codeword, zeros at punctured positions."""
    llrs = np.asarray(llrs, dtype=float)
    full = np.zeros(llrs.shape[:-1] + (cfg.coded_len,))
    full[..., cfg.keep_mask()] = llrs
    return full


def test_impulse_response_frozen():
    # Generators 7 and 5 octal: input 10000 yields per-step outputs
    # 11 10 11 00 00, then 00 00 for the two tail steps.
    cfg = CodeConfig(info_len=5)
    coded = encode(np.array([1, 0, 0, 0, 0]), cfg)
    assert coded.tolist() == [1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_encoder_linearity_exhaustive():
    cfg = CodeConfig(info_len=8)
    rows = np.stack(
        [encode(np.eye(8, dtype=np.int8)[i], cfg) for i in range(8)]
    )
    for word in range(256):
        info = np.array([(word >> (7 - i)) & 1 for i in range(8)], dtype=np.int8)
        np.testing.assert_array_equal(encode(info, cfg), info @ rows % 2)


def test_encoder_terminates_trellis():
    rng = np.random.default_rng(0)
    cfg = CodeConfig(info_len=12)
    info = rng.integers(0, 2, 12, dtype=np.int8)
    coded = encode(info, cfg)
    # Walk the shift register; the two tail steps must drive it back to zero.
    s1 = s2 = 0
    u_full = list(info) + [0, 0]
    for t, u in enumerate(u_full):
        assert coded[2 * t] == u ^ s1 ^ s2
        assert coded[2 * t + 1] == u ^ s2
        s1, s2 = u, s1
    assert s1 == 0 and s2 == 0


def test_code_config_sizes():
    assert CodeConfig(64, 0.5).coded_len == 132
    assert CodeConfig(64, 0.5).transmitted_len == 132
    assert CodeConfig(64, 0.83).transmitted_len == 80
    with pytest.raises(ConfigError):
        CodeConfig(0, 0.5)
    with pytest.raises(ConfigError):
        CodeConfig(64, 0.75)


@pytest.mark.parametrize("rate", SUPPORTED_RATES)
def test_transmitted_len_counts_the_keep_mask(rate):
    for info_len in range(1, 2001):
        cfg = CodeConfig(info_len, rate)
        assert cfg.transmitted_len == cfg.keep_mask().sum()


def test_puncture_pattern():
    cfg = CodeConfig(64, 0.83)
    mask = cfg.keep_mask().reshape(-1, 2)
    # Both bits survive every fifth step, first bit only elsewhere.
    np.testing.assert_array_equal(mask[:, 0], np.ones(66, dtype=bool))
    np.testing.assert_array_equal(mask[::5, 1], np.ones(14, dtype=bool))
    assert mask[1::5, 1].sum() == 0


def test_puncture_depuncture_roundtrip():
    cfg = CodeConfig(20, 0.83)
    rng = np.random.default_rng(4)
    llrs = rng.normal(size=cfg.coded_len)
    kept = puncture(llrs, cfg)
    restored = _depuncture(kept, cfg)
    mask = cfg.keep_mask()
    np.testing.assert_array_equal(restored[mask], llrs[mask])
    assert np.all(restored[~mask] == 0.0)


def test_interleaver_properties():
    perm = make_interleaver(1024, seed=12345)
    assert np.array_equal(np.sort(perm), np.arange(1024))
    x = np.arange(1024.0)
    np.testing.assert_array_equal(x[perm][np.argsort(perm)], x)
    # Pseudo-random permutations of this length should have few fixed points.
    assert int(np.sum(perm == np.arange(1024))) <= 8
    # Same seed, same permutation; different seed, different permutation.
    np.testing.assert_array_equal(make_interleaver(1024, 12345), perm)
    assert not np.array_equal(make_interleaver(1024, 12346), perm)


def _brute_maxlog(lam, cfg):
    """Exhaustive max-log totals over all codewords; the decoder oracle."""
    k = cfg.info_len
    best_info = np.full((k, 2), -np.inf)
    best_coded = np.full((cfg.coded_len, 2), -np.inf)
    for word in range(1 << k):
        info = np.array([(word >> (k - 1 - i)) & 1 for i in range(k)], dtype=np.int8)
        cw = encode(info, cfg)
        metric = float(lam @ cw)
        for i in range(k):
            best_info[i, info[i]] = max(best_info[i, info[i]], metric)
        for j in range(cfg.coded_len):
            best_coded[j, cw[j]] = max(best_coded[j, cw[j]], metric)
    return best_info[:, 1] - best_info[:, 0], best_coded[:, 1] - best_coded[:, 0]


def test_bcjr_matches_exhaustive_search():
    cfg = CodeConfig(info_len=4)
    rng = np.random.default_rng(17)
    for _ in range(10):
        lam = rng.normal(scale=3.0, size=cfg.coded_len)
        ext, info_total, hard = bcjr_decode(lam, None, cfg)
        ref_info, ref_coded = _brute_maxlog(lam, cfg)
        np.testing.assert_allclose(info_total, ref_info, atol=1e-9)
        np.testing.assert_allclose(ext + lam, ref_coded, atol=1e-9)
        np.testing.assert_array_equal(hard, (ref_info > 0).astype(np.int8))


@pytest.mark.parametrize("info_len", [1, 2, 5])
@pytest.mark.parametrize("rate", [0.5, 0.83])
def test_bcjr_matches_exhaustive_search_at_the_edges(info_len, rate):
    # Saturated channel and a priori LLRs, punctured zeros and codes so short
    # that the two tail steps (input forced to 0) dominate both recursions;
    # each stacked row must equal its 1-D decode and the oracle.
    cfg = CodeConfig(info_len=info_len, rate=rate)
    rng = np.random.default_rng(59 + info_len)
    n = cfg.transmitted_len
    clipped = LLR_CLIP * rng.choice([-1.0, 1.0], size=(3, n))
    sent = np.stack(
        [
            clipped[0],
            np.where(rng.random(n) < 0.5, clipped[1], rng.normal(scale=3.0, size=n)),
            np.zeros(n),
            rng.normal(scale=3.0, size=n),
        ]
    )
    ch = _depuncture(sent, cfg)
    ap = np.zeros_like(ch)
    ap[3] = _depuncture(clipped[2], cfg)
    stacked = bcjr_decode(ch, ap, cfg)
    for b in range(len(ch)):
        lam = ch[b] + ap[b]
        ref_info, ref_coded = _brute_maxlog(lam, cfg)
        for ext, info_total, hard in (
            bcjr_decode(ch[b], ap[b], cfg),
            tuple(out[b] for out in stacked),
        ):
            np.testing.assert_allclose(info_total, ref_info, atol=1e-9)
            np.testing.assert_allclose(ext + lam, ref_coded, atol=1e-9)
            decided = np.abs(ref_info) > 1e-6
            np.testing.assert_array_equal(hard[decided], ref_info[decided] > 0)
            assert not hard[~decided].any()


def test_bcjr_apriori_adds_to_channel():
    cfg = CodeConfig(info_len=6)
    rng = np.random.default_rng(23)
    ch = rng.normal(size=cfg.coded_len)
    ap = rng.normal(size=cfg.coded_len)
    ext_a, info_a, _ = bcjr_decode(ch, ap, cfg)
    ext_b, info_b, _ = bcjr_decode(ch + ap, None, cfg)
    np.testing.assert_allclose(info_a, info_b, atol=1e-12)
    np.testing.assert_allclose(ext_a, ext_b, atol=1e-12)


def test_bcjr_decodes_noiseless():
    rng = np.random.default_rng(31)
    for rate in (0.5, 0.83):
        cfg = CodeConfig(info_len=64, rate=rate)
        info = rng.integers(0, 2, 64, dtype=np.int8)
        coded = encode(info, cfg)
        tx = puncture(coded, cfg)
        lam = _depuncture(20.0 * (2.0 * tx - 1.0), cfg)
        _, info_total, hard = bcjr_decode(lam, None, cfg)
        np.testing.assert_array_equal(hard, info)
        assert np.all(np.abs(info_total) > 10.0)


def test_bcjr_extrinsic_is_new_information():
    # On a noiseless channel the extrinsic on a punctured (zero-input) bit
    # must still carry the correct sign: it is recovered from the code
    # structure alone.
    cfg = CodeConfig(info_len=32, rate=0.83)
    rng = np.random.default_rng(2)
    info = rng.integers(0, 2, 32, dtype=np.int8)
    coded = encode(info, cfg)
    lam = _depuncture(12.0 * (2.0 * puncture(coded, cfg) - 1.0), cfg)
    ext, _, _ = bcjr_decode(lam, None, cfg)
    punctured = ~cfg.keep_mask()
    signs = np.sign(ext[punctured])
    np.testing.assert_array_equal(signs, 2.0 * coded[punctured] - 1.0)


def test_bcjr_validates_lengths():
    cfg = CodeConfig(info_len=4)
    with pytest.raises(ValueError):
        bcjr_decode(np.zeros(3), None, cfg)
    with pytest.raises(ValueError):
        bcjr_decode(np.zeros(cfg.coded_len), np.zeros(2), cfg)
    with pytest.raises(ValueError):
        encode(np.zeros(3, dtype=np.int8), cfg)


def test_bcjr_block_axis_equals_single_rows():
    # One 2-D call decodes every row exactly as a 1-D call on that row.
    cfg = CodeConfig(info_len=24, rate=0.83)
    rng = np.random.default_rng(41)
    lam = rng.normal(scale=3.0, size=(5, cfg.coded_len))
    ap = rng.normal(size=lam.shape)
    ext, info_total, hard = bcjr_decode(lam, ap, cfg)
    assert ext.shape == lam.shape and info_total.shape == hard.shape == (5, 24)
    for b in range(5):
        row = bcjr_decode(lam[b], ap[b], cfg)
        for got, want in zip((ext[b], info_total[b], hard[b]), row):
            np.testing.assert_array_equal(got, want)


# Trellis tables of the state-innermost reference below: branch bits
# indexed [d1, d2, u].
_D1, _D2, _U = np.indices((2, 2, 2))
_C0_BITS = (_U ^ _D1 ^ _D2).astype(float)
_C1_BITS = (_U ^ _D2).astype(float)
_FWD, _BWD = (2, 0, 1), (1, 0, 2)
_EDGE_COSETS = tuple(
    tuple(np.flatnonzero(bits.transpose(_BWD).reshape(-1) == v) for v in (0, 1))
    for bits in (_C0_BITS, _C1_BITS, _U)
)


def _bcjr_state_innermost(lam, cfg):
    """bcjr_decode's recursion with the trellis states innermost, as
    (step, direction, block, 2, 2, 2) branch terms, kept to pin its rounding."""
    steps, k = cfg.steps, cfg.info_len
    n_blocks = lam.size // cfg.coded_len
    pairs = lam.reshape(n_blocks, steps, 2).transpose(1, 0, 2)
    g0 = np.empty((steps, 2, n_blocks, 2, 2, 2))
    g1 = np.empty_like(g0)
    for d, (layout, ordered) in enumerate(((_FWD, pairs), (_BWD, pairs[::-1]))):
        np.multiply(_C0_BITS.transpose(layout), ordered[:, :, 0, None, None, None], out=g0[:, d])
        np.multiply(_C1_BITS.transpose(layout), ordered[:, :, 1, None, None, None], out=g1[:, d])
    paths = np.full((steps + 1, 2, n_blocks, 2, 2), -np.inf)
    paths[0, :, :, 0, 0] = 0.0
    cand = np.empty((2, n_blocks, 2, 2, 2))
    for prev, b0, b1, nxt in zip(paths[:-1, :, :, None], g0, g1, paths[1:]):
        np.add(prev, b0, out=cand)
        np.add(cand, b1, out=cand)
        np.maximum(cand[..., 0], cand[..., 1], out=nxt)
    totals = g0[::-1, 1]
    totals += g1[::-1, 1]
    totals += paths[:-1, 0].transpose(0, 1, 3, 2)[..., None]
    totals += paths[-2::-1, 1][:, :, None]
    edges = totals.reshape(steps, n_blocks, 8)
    llr_c0, llr_c1, llr_u = (
        (edges[..., ones].max(axis=-1) - edges[..., zeros].max(axis=-1)).T
        for zeros, ones in _EDGE_COSETS
    )
    coded_total = np.empty((n_blocks, cfg.coded_len))
    coded_total[:, 0::2] = llr_c0
    coded_total[:, 1::2] = llr_c1
    info_total = llr_u[:, :k].reshape(lam.shape[:-1] + (k,))
    return coded_total.reshape(lam.shape) - lam, info_total, (info_total > 0).astype(np.int8)


def _draw_llrs(kind, rng, shape):
    """Cauchy LLRs (some clipped), so near-ties and saturated metrics both
    occur; small integers, so paths tie exactly; or signed zeros at about
    half the positions and in all of the first row, so whole steps carry
    only +-0.0."""
    if kind == "cauchy":
        return np.clip(rng.standard_cauchy(shape) * 3.0, -LLR_CLIP, LLR_CLIP)
    if kind == "integer":
        return rng.integers(-2, 3, shape).astype(float)
    zeros = rng.choice([-0.0, 0.0], shape)
    llrs = np.where(rng.random(shape) < 0.5, zeros, rng.normal(scale=3.0, size=shape))
    llrs.reshape(-1, shape[-1])[0] = zeros.reshape(-1, shape[-1])[0]
    return llrs


@pytest.mark.parametrize("apriori", (False, True), ids=("no-apriori", "apriori"))
@pytest.mark.parametrize("rate", (0.5, 0.83))
@pytest.mark.parametrize("info_len", (1, 64, 512))
def test_bcjr_bit_exact(info_len, rate, apriori):
    # Bit for bit the state-innermost recursion, signs of zero included, for
    # a 1-D block and for stacks of 1, 2 and 17 (at K = 512 the 17 blocks'
    # branch terms take several spans), with each kind of _draw_llrs at the
    # transmitted positions and punctured positions zero.
    cfg = CodeConfig(info_len=info_len, rate=rate)
    rng = np.random.default_rng(info_len * 10 + int(apriori) + (2 if rate == 0.5 else 4))
    for kind in ("cauchy", "integer", "zeros"):
        for lead in ((), (1,), (2,), (17,)):
            ch = _depuncture(_draw_llrs(kind, rng, lead + (cfg.transmitted_len,)), cfg)
            ap = _draw_llrs(kind, rng, ch.shape) if apriori else None
            got = bcjr_decode(ch, ap, cfg)
            want = _bcjr_state_innermost(ch if ap is None else ch + ap, cfg)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


def test_bcjr_decodes_an_empty_stack():
    cfg = CodeConfig(info_len=8, rate=0.83)
    ext, info_total, hard = bcjr_decode(np.zeros((0, cfg.coded_len)), np.zeros((0, cfg.coded_len)), cfg)
    assert ext.shape == (0, cfg.coded_len) and info_total.shape == hard.shape == (0, 8)
    assert ext.dtype == info_total.dtype == float and hard.dtype == np.int8


@pytest.mark.parametrize(
    "link",
    (
        dict(mod=16, n_streams=4, n_rx=4, n_tx=4, info_bits=64),
        dict(mod=4, n_streams=2, n_rx=2, n_tx=2, info_bits=512, rate=0.83),
        dict(mod=256, n_streams=8, n_rx=8, n_tx=8, info_bits=64, rate=0.83),
        dict(mod=4, n_streams=2, n_rx=2, n_tx=2, info_bits=4096),
    ),
    ids=("gate-16qam", "long-2x2", "256qam-8x8", "k4096"),
)
def test_bcjr_peak_stays_under_chunk_charge(link):
    # simcli.chunk_blocks charges each block 64 float64 values per trellis
    # step for the decoder; one decode of a chunk of that many blocks, with
    # a priori LLRs, stays under it, outputs included.
    bundle = simcli._build_bundle(simcli.validate_config(simcli.SimConfig(**link)))
    cfg, blocks = bundle.idd_cfg.code, simcli.chunk_blocks(bundle)
    rng = np.random.default_rng(blocks)
    ch = rng.normal(scale=3.0, size=(blocks, cfg.coded_len))
    ap = rng.normal(size=ch.shape)
    tracemalloc.start()
    try:
        bcjr_decode(ch, ap, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 8 * cfg.steps * blocks


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bcjr_rejects_non_finite_input(bad):
    cfg = CodeConfig(info_len=8)
    lam = np.zeros((2, cfg.coded_len))
    lam[1, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        bcjr_decode(lam, None, cfg)
    with pytest.raises(ValueError, match="finite"):
        bcjr_decode(np.zeros(cfg.coded_len), lam[1], cfg)


def test_encode_and_puncture_keep_leading_axes():
    cfg = CodeConfig(info_len=16, rate=0.83)
    rng = np.random.default_rng(43)
    info = rng.integers(0, 2, (3, 16), dtype=np.int8)
    coded = encode(info, cfg)
    assert coded.shape == (3, cfg.coded_len)
    for b in range(3):
        np.testing.assert_array_equal(coded[b], encode(info[b], cfg))
        np.testing.assert_array_equal(puncture(coded, cfg)[b], puncture(coded[b], cfg))
