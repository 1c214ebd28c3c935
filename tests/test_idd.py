"""Iterative detection-and-decoding loop plumbing."""

import itertools

import numpy as np
import pytest

from chasedet import bchase, idd, lchase
from chasedet.channel import WhitenedModel
from chasedet.codec import CodeConfig, bcjr_decode, encode, make_interleaver, puncture
from chasedet.constellation import SUPPORTED_ORDERS, build_constellation, modulate
from chasedet.counters import pass_stats
from chasedet.errors import ConfigError
from chasedet.idd import IddConfig, live_uses, run_idd, slot_bits, uses_for_block
from chasedet.llr import saturate

from draws import iid_complex_gaussian


def test_uses_for_block():
    c16, c4 = build_constellation(16), build_constellation(4)
    assert uses_for_block(CodeConfig(64, 0.5), c16, 4) == 9
    assert uses_for_block(CodeConfig(64, 0.83), c16, 4) == 5
    assert uses_for_block(CodeConfig(64, 0.5), c4, 2) == 33
    assert uses_for_block(CodeConfig(64, 0.5), c16, 2) == 17


def test_slot_bits_layout_and_padding():
    c = build_constellation(4)
    bits = np.arange(10) % 2
    slots = slot_bits(bits, c, 2)
    assert slots.shape == (3, 2, 2)
    np.testing.assert_array_equal(slots.reshape(-1)[:10], bits)
    np.testing.assert_array_equal(slots.reshape(-1)[10:], [0, 0])
    np.testing.assert_array_equal(slots[0, 0], bits[0:2])
    np.testing.assert_array_equal(slots[0, 1], bits[2:4])


def test_padding_only_in_last_use_and_live_uses_mark_transmitted_targets():
    # Over a grid of orders, stream counts, both rates and K values:
    # slot_bits pads only a block's last use, and a (stream, use) target
    # counts among its stream's live leading uses exactly when it carries a
    # transmitted bit. The grid holds an exact fit with no padding and
    # cases with 1, 2 and 3 dead streams.
    dead_counts = set()
    for order in SUPPORTED_ORDERS:
        c = build_constellation(order)
        for n_streams in range(1, 7):
            for rate in (0.5, 0.83):
                for k in (16, 64, 100, 256, 512):
                    code = CodeConfig(k, rate)
                    sent = slot_bits(np.ones(code.transmitted_len), c, n_streams) == 1
                    n_uses = len(sent)
                    assert n_uses == uses_for_block(code, c, n_streams)
                    assert sent[:-1].all()
                    live = live_uses(code.transmitted_len, c, n_streams)
                    assert live.shape == (n_streams,)
                    carries = sent.any(axis=-1)  # (uses, streams)
                    where = f"{order}-QAM, {n_streams} streams, rate {rate}, K = {k}"
                    np.testing.assert_array_equal(
                        np.arange(n_uses)[:, None] < live, carries, err_msg=where
                    )
                    dead_counts.add(int(np.sum(live < n_uses)))
    # 2x2 QPSK, K = 64, rate 0.5: 132 bits fill 33 uses exactly.
    exact = slot_bits(np.ones(CodeConfig(64, 0.5).transmitted_len), build_constellation(4), 2)
    assert exact.shape[0] == 33 and exact.all()
    assert {0, 1, 2, 3} <= dead_counts


def _make_block(rng, cfg, n_rx, n_streams, sigma=0.0, gain=1.0):
    """Encode, interleave, slot, modulate, and transmit a chunk of one block,
    laid out (U, 1, ...)."""
    c = cfg.constellation
    code = cfg.code
    info = rng.integers(0, 2, code.info_len, dtype=np.int8)
    tx = puncture(encode(info, code), code)
    slots = slot_bits(tx[cfg.interleaver], c, n_streams)
    ys, hs = [], []
    for u in range(slots.shape[0]):
        s = modulate(slots[u], c)
        h = gain * iid_complex_gaussian(rng, (n_rx, n_streams))
        ys.append(h @ s + sigma * iid_complex_gaussian(rng, n_rx))
        hs.append(h)
    return info[None], WhitenedModel(y=np.stack(ys)[:, None], h=np.stack(hs)[:, None])


def _record(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends (args, result) of each
    call to calls, array arguments copied as they were at the call."""
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        saved = tuple(np.copy(a) if isinstance(a, np.ndarray) else a for a in args)
        out = real(*args, **kwargs)
        calls.append((saved, out))
        return out

    monkeypatch.setattr(module, name, recorded)


def test_noiseless_block_decodes_first_iteration(monkeypatch):
    c = build_constellation(16)
    cfg = IddConfig(constellation=c, code=CodeConfig(64, 0.5), iterations=3)
    rng = np.random.default_rng(0)
    info, model = _make_block(rng, cfg, 4, 4, sigma=0.0, gain=3.0)
    decodes = []
    _record(monkeypatch, idd, "bcjr_decode", decodes)
    res = run_idd(model, info, cfg)
    assert (res.iter_bit_errors[:, -1] == 0).all()
    np.testing.assert_array_equal(res.iter_bit_errors, [[0, 0, 0]])
    assert [out[1].shape for _, out in decodes] == [(1, 64)] * 3


def _chunk(rng, cfg, n_blocks, n_rx, n_streams, sigma):
    """_make_block's blocks stacked into a chunk of n_blocks."""
    blocks = [_make_block(rng, cfg, n_rx, n_streams, sigma=sigma) for _ in range(n_blocks)]
    info = np.concatenate([info for info, _ in blocks])
    model = WhitenedModel(
        y=np.concatenate([m.y for _, m in blocks], axis=1),
        h=np.concatenate([m.h for _, m in blocks], axis=1),
    )
    return info, model


def test_feedback_plumbing_reconstructs(monkeypatch):
    # Rebuild iteration t's decoder input and iteration t+1's a priori from
    # the recorded detector and decoder calls and the declared wiring, with
    # each block's slots read from its use-major rows, u*B + b, in the
    # order slot_bits lays them:
    # detector extrinsic forward, saturated, deinterleaved by the inverse
    # permutation and depunctured by the keep mask; decoder extrinsic back
    # through the mirror path, zero in the padding slots. Chunks of 1 and 3
    # blocks, both rates (K = 60 pads the last use at each), both Chase
    # detectors.
    c = build_constellation(16)
    for n_blocks, rate, detector in itertools.product((1, 3), (0.5, 0.83), (lchase, bchase)):
        code = CodeConfig(60, rate)
        name = detector.__name__.rpartition(".")[2]
        cfg = IddConfig(c, code, detector=name, iterations=3, interleaver_seed=7)
        info, model = _chunk(np.random.default_rng(1), cfg, n_blocks, 4, 4, 0.9)
        n_uses = model.h.shape[0]
        detects, decodes = [], []
        with monkeypatch.context() as m:
            _record(m, detector, "detect_all_uses", detects)
            _record(m, idd, "bcjr_decode", decodes)
            res = run_idd(model, info, cfg)

        block_rows = np.arange(n_uses) * n_blocks + np.arange(n_blocks)[:, None]

        def slots(rows):
            # Block b's slots are rows u*B + b of the (U*B, n, q) stack.
            return rows.reshape(n_uses * n_blocks, -1)[block_rows].reshape(n_blocks, -1)

        perm = make_interleaver(code.transmitted_len, 7)
        keep = code.keep_mask()
        n_tx = code.transmitted_len
        assert n_uses * 4 * 4 > n_tx
        assert len(detects) == len(decodes) == 3
        las = [slots(args[2]) for args, _ in detects]
        assert not las[0].any()
        for t in range(3):
            fwd = saturate(slots(detects[t][1]) - las[t])
            (ch, _, _), (ext, _, hard) = decodes[t]
            want = np.zeros((n_blocks, code.coded_len))
            want[:, keep] = fwd[:, :n_tx][:, np.argsort(perm)]
            np.testing.assert_array_equal(ch, want)
            np.testing.assert_array_equal(res.iter_bit_errors[:, t], np.sum(hard != info, axis=1))
            if t + 1 < 3:
                nxt = las[t + 1]
                np.testing.assert_array_equal(nxt[:, :n_tx], saturate(ext[:, keep][:, perm]))
                assert not nxt[:, n_tx:].any()


def test_lmmse_iterations_are_identical(monkeypatch):
    c = build_constellation(16)
    cfg = IddConfig(
        constellation=c, code=CodeConfig(64, 0.5), detector="lmmse", iterations=3
    )
    rng = np.random.default_rng(3)
    info, model = _make_block(rng, cfg, 4, 4, sigma=1.0)
    calls, decodes = [], []
    _record(monkeypatch, idd, "lmmse_llrs", calls)
    _record(monkeypatch, idd, "bcjr_decode", decodes)
    res = run_idd(model, info, cfg)
    # lmmse ignores priors: one detect/decode pass stands for all three.
    assert len(calls) == len(decodes) == 1
    assert res.iter_stats == [pass_stats("lmmse", 4, c, 9)] * 3
    _, (_, _, hard) = decodes[0]
    np.testing.assert_array_equal(res.iter_bit_errors, [[np.sum(hard != info)] * 3])


def test_exhaustive_detector_path(monkeypatch):
    c = build_constellation(4)
    cfg = IddConfig(
        constellation=c, code=CodeConfig(64, 0.5), detector="maxlog", iterations=2
    )
    rng = np.random.default_rng(4)
    info, model = _make_block(rng, cfg, 2, 2, sigma=0.0, gain=3.0)
    calls = []
    _record(monkeypatch, idd, "maxlog_llrs", calls)
    res = run_idd(model, info, cfg)
    assert (res.iter_bit_errors[:, -1] == 0).all()
    # One call per pass, over all 33 uses of the block.
    assert len(calls) == 2
    assert all(llrs.shape == (33, 2, 2) for _, llrs in calls)


def test_maxlog_factors_each_use_once_per_run(monkeypatch):
    # maxlog's prepare step keeps R and z = Q^H y of every use, so a run
    # makes as many QR calls over as many matrices with 3 iterations as
    # with 1.
    c = build_constellation(4)
    rng = np.random.default_rng(9)
    factored = {}
    for iterations in (1, 3):
        cfg = IddConfig(c, CodeConfig(64, 0.5), detector="maxlog", iterations=iterations)
        info, model = _make_block(rng, cfg, 2, 2, sigma=0.5)
        calls = []
        _record(monkeypatch, np.linalg, "qr", calls)
        run_idd(model, info, cfg)
        monkeypatch.undo()
        factored[iterations] = [args[0].shape for args, _ in calls]
    assert factored[3] == factored[1] == [(33, 2, 3)]


# The detect entry of each detector, as run_idd looks it up at call time.
_DETECT_ENTRIES = {
    "lchase": (lchase, "detect_all_uses"),
    "bchase": (bchase, "detect_all_uses"),
    "maxlog": (idd, "maxlog_llrs"),
    "lmmse": (idd, "lmmse_llrs"),
}


@pytest.mark.parametrize("detector", idd.DETECTORS)
def test_one_detect_call_per_pass_over_every_use(detector, monkeypatch):
    # A chunk of two blocks of 33 uses: each pass is one call of the chosen
    # detector over all B*U uses (one call in all for lmmse), and no other
    # detector runs.
    c = build_constellation(4)
    cfg = IddConfig(
        constellation=c, code=CodeConfig(64, 0.5), detector=detector, iterations=3
    )
    rng = np.random.default_rng(8)
    (info0, m0), (info1, m1) = (_make_block(rng, cfg, 2, 2, sigma=0.5) for _ in range(2))
    model = WhitenedModel(np.concatenate([m0.y, m1.y], 1), np.concatenate([m0.h, m1.h], 1))
    calls = {name: [] for name in _DETECT_ENTRIES}
    for name, (module, attr) in _DETECT_ENTRIES.items():
        _record(monkeypatch, module, attr, calls[name])
    run_idd(model, np.concatenate([info0, info1]), cfg)
    passes = 1 if detector == "lmmse" else 3
    assert {name: len(made) for name, made in calls.items()} == {
        name: passes if name == detector else 0 for name in _DETECT_ENTRIES
    }
    assert all(llrs.shape == (2 * 33, 2, 2) for _, llrs in calls[detector])


@pytest.mark.parametrize("detector", ("lchase", "bchase"))
def test_chunk_detects_only_live_targets(detector, monkeypatch):
    # The 4x4 16-QAM gate link: each block's last use carries bits on
    # stream 0 only. A chunk of two blocks, stacked use-major, hands the
    # Chase detector each stream's live rows, 18 for stream 0 and 16 for
    # the others; the dead rows' LLRs are exactly 0.0, and the live ones
    # equal a detection of every row.
    c = build_constellation(16)
    cfg = IddConfig(constellation=c, code=CodeConfig(64, 0.5), detector=detector, iterations=2)
    rng = np.random.default_rng(12)
    (info0, m0), (info1, m1) = (_make_block(rng, cfg, 4, 4, sigma=0.5) for _ in range(2))
    model = WhitenedModel(np.concatenate([m0.y, m1.y], 1), np.concatenate([m0.h, m1.h], 1))
    module = lchase if detector == "lchase" else bchase
    detect, calls = module.detect_all_uses, []
    _record(monkeypatch, module, "detect_all_uses", calls)
    run_idd(model, np.concatenate([info0, info1]), cfg)
    assert len(calls) == 2
    for (contexts, _, la, live), llrs in calls:
        np.testing.assert_array_equal(live, [18, 16, 16, 16])
        every = detect(contexts, c, la)
        dead = np.arange(18)[:, None] >= live  # (rows, streams)
        assert np.array_equal(llrs[~dead], every[~dead])
        assert np.array_equal(np.signbit(llrs), np.signbit(every) & ~dead[..., None])
        assert not llrs[dead].any()


def test_bchase_path_decodes():
    c = build_constellation(16)
    cfg = IddConfig(
        constellation=c, code=CodeConfig(64, 0.5), detector="bchase", iterations=2
    )
    rng = np.random.default_rng(5)
    info, model = _make_block(rng, cfg, 4, 4, sigma=0.0, gain=4.0)
    res = run_idd(model, info, cfg)
    assert (res.iter_bit_errors[:, -1] == 0).all()


def test_detector_stats_accumulate():
    # Each iteration's counts are one detection pass over every use of the
    # chunk, two blocks of 9 uses with 4 streams each. The same chunk held
    # block-major in memory, as a strided (U, B, ...) view, gives the same
    # bit errors and counts as its contiguous copy.
    c = build_constellation(16)
    cfg = IddConfig(constellation=c, code=CodeConfig(64, 0.5), iterations=3)
    info, model = _chunk(np.random.default_rng(6), cfg, 2, 4, 4, 1.0)
    strided = WhitenedModel(
        *(np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1) for a in (model.y, model.h))
    )
    assert not strided.y.flags.c_contiguous and not strided.h.flags.c_contiguous
    res, res_strided = run_idd(model, info, cfg), run_idd(strided, info, cfg)
    assert res.iter_bit_errors.any()
    np.testing.assert_array_equal(res_strided.iter_bit_errors, res.iter_bit_errors)
    assert res_strided.iter_stats == res.iter_stats
    assert res.iter_stats == [pass_stats("lchase", 4, c, 2 * 9)] * 3
    assert res.iter_stats[0].streams == 2 * 9 * 4
    assert res.iter_stats[0].metric_evals == 2 * 9 * 4 * 16


def test_interleaver_is_built_once_from_the_seed():
    code = CodeConfig(64, 0.5)
    cfg = IddConfig(constellation=build_constellation(4), code=code, interleaver_seed=5)
    assert cfg.interleaver is cfg.interleaver
    perm = make_interleaver(code.transmitted_len, 5)
    np.testing.assert_array_equal(cfg.interleaver, perm)
    assert cfg.positions is cfg.positions
    np.testing.assert_array_equal(cfg.positions, np.flatnonzero(code.keep_mask())[perm])


def test_config_and_input_validation():
    c = build_constellation(4)
    code = CodeConfig(64, 0.5)
    with pytest.raises(ConfigError):
        IddConfig(constellation=c, code=code, detector="zf")
    with pytest.raises(ConfigError):
        IddConfig(constellation=c, code=code, iterations=0)
    cfg = IddConfig(constellation=c, code=code)
    rng = np.random.default_rng(7)
    info, model = _make_block(rng, cfg, 2, 2)
    with pytest.raises(ValueError):
        run_idd(model, np.zeros((1, 10), dtype=np.int8), cfg)
    with pytest.raises(ValueError):
        run_idd(model, np.concatenate([info, info]), cfg)
    with pytest.raises(ValueError):
        run_idd(WhitenedModel(model.y[1:], model.h), info, cfg)
    with pytest.raises(ValueError):
        run_idd(WhitenedModel(model.y[:5], model.h[:5]), info, cfg)
    with pytest.raises(ValueError):
        run_idd(WhitenedModel(model.y[:0], model.h[:0]), info, cfg)
