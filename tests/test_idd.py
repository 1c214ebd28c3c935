"""Iterative detection-and-decoding loop plumbing."""

import numpy as np
import pytest

from chasedet import bchase, idd, lchase
from chasedet.channel import WhitenedModel
from chasedet.codec import CodeConfig, bcjr_decode, depuncture, encode, make_interleaver, puncture
from chasedet.constellation import build_constellation, modulate
from chasedet.counters import pass_stats
from chasedet.errors import ConfigError
from chasedet.idd import IddConfig, run_idd, slot_bits, uses_for_block
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


def _make_block(rng, cfg, n_rx, n_streams, sigma=0.0, gain=1.0):
    """Encode, interleave, slot, modulate, and transmit a chunk of one block."""
    c = cfg.constellation
    code = cfg.code
    info = rng.integers(0, 2, code.info_len, dtype=np.int8)
    tx = puncture(encode(info, code), code)
    slots = slot_bits(tx[cfg.interleaver.perm], c, n_streams)
    ys, hs = [], []
    for u in range(slots.shape[0]):
        s = modulate(slots[u], c)
        h = gain * iid_complex_gaussian(rng, (n_rx, n_streams))
        ys.append(h @ s + sigma * iid_complex_gaussian(rng, n_rx))
        hs.append(h)
    return info[None], WhitenedModel(y=np.stack(ys)[None], h=np.stack(hs)[None])


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


def test_noiseless_block_decodes_first_iteration():
    c = build_constellation(16)
    cfg = IddConfig(constellation=c, code=CodeConfig(64, 0.5), iterations=3)
    rng = np.random.default_rng(0)
    info, model = _make_block(rng, cfg, 4, 4, sigma=0.0, gain=3.0)
    res = run_idd(model, info, cfg)
    assert (res.iter_bit_errors[:, -1] == 0).all()
    np.testing.assert_array_equal(res.iter_bit_errors, [[0, 0, 0]])
    assert res.info_llrs.shape == (1, 3, 64)


def test_feedback_plumbing_reconstructs(monkeypatch):
    # Rebuild iteration t's decoder input and iteration t+1's a priori from
    # the recorded detector and decoder calls and the declared wiring:
    # extrinsic forward through deinterleave/depuncture, decoder extrinsic
    # back through the mirror path.
    c = build_constellation(16)
    code = CodeConfig(64, 0.5)
    cfg = IddConfig(constellation=c, code=code, iterations=3, interleaver_seed=7)
    rng = np.random.default_rng(1)
    info, model = _make_block(rng, cfg, 4, 4, sigma=0.9)
    detects, decodes = [], []
    _record(monkeypatch, lchase, "detect_all_uses", detects)
    _record(monkeypatch, idd, "bcjr_decode", decodes)
    res = run_idd(model, info, cfg)

    il = make_interleaver(code.transmitted_len, 7)
    keep = code.keep_mask()
    n_tx = code.transmitted_len
    assert len(detects) == len(decodes) == 3
    las = [args[2].reshape(1, -1) for args, _ in detects]
    assert not las[0].any()
    for t in range(3):
        det = detects[t][1].reshape(1, -1)
        fwd = saturate(det - las[t])
        (ch, _, _), (ext, info_total, _) = decodes[t]
        np.testing.assert_array_equal(ch, depuncture(fwd[:, :n_tx][:, il.inv], code))
        np.testing.assert_array_equal(info_total, res.info_llrs[:, t])
        if t + 1 < 3:
            nxt = las[t + 1]
            np.testing.assert_array_equal(nxt[:, :n_tx], saturate(ext[:, keep][:, il.perm]))
            assert not nxt[:, n_tx:].any()


def test_lmmse_iterations_are_identical(monkeypatch):
    c = build_constellation(16)
    cfg = IddConfig(
        constellation=c, code=CodeConfig(64, 0.5), detector="lmmse", iterations=3
    )
    rng = np.random.default_rng(3)
    info, model = _make_block(rng, cfg, 4, 4, sigma=1.0)
    calls = []
    _record(monkeypatch, idd, "lmmse_llrs", calls)
    res = run_idd(model, info, cfg)
    # lmmse ignores priors: one detect/decode pass stands for all three.
    assert len(calls) == 1
    assert res.iter_stats == [pass_stats("lmmse", 4, c, 9)] * 3
    np.testing.assert_array_equal(res.info_llrs[:, 0], res.info_llrs[:, 1])
    np.testing.assert_array_equal(res.info_llrs[:, 0], res.info_llrs[:, 2])
    np.testing.assert_array_equal(res.iter_bit_errors[:, 0], res.iter_bit_errors[:, 2])


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
    model = WhitenedModel(np.concatenate([m0.y, m1.y]), np.concatenate([m0.h, m1.h]))
    calls = {name: [] for name in _DETECT_ENTRIES}
    for name, (module, attr) in _DETECT_ENTRIES.items():
        _record(monkeypatch, module, attr, calls[name])
    run_idd(model, np.concatenate([info0, info1]), cfg)
    passes = 1 if detector == "lmmse" else 3
    assert {name: len(made) for name, made in calls.items()} == {
        name: passes if name == detector else 0 for name in _DETECT_ENTRIES
    }
    assert all(llrs.shape == (2 * 33, 2, 2) for _, llrs in calls[detector])


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
    # chunk, two blocks of 9 uses with 4 streams each.
    c = build_constellation(16)
    cfg = IddConfig(constellation=c, code=CodeConfig(64, 0.5), iterations=3)
    rng = np.random.default_rng(6)
    blocks = [_make_block(rng, cfg, 4, 4, sigma=1.0) for _ in range(2)]
    info = np.concatenate([info for info, _ in blocks])
    model = WhitenedModel(
        y=np.concatenate([m.y for _, m in blocks]), h=np.concatenate([m.h for _, m in blocks])
    )
    res = run_idd(model, info, cfg)
    assert res.iter_stats == [pass_stats("lchase", 4, c, 2 * 9)] * 3
    assert res.iter_stats[0].streams == 2 * 9 * 4
    assert res.iter_stats[0].metric_evals == 2 * 9 * 4 * 16


def test_interleaver_is_built_once_from_the_seed():
    code = CodeConfig(64, 0.5)
    cfg = IddConfig(constellation=build_constellation(4), code=code, interleaver_seed=5)
    assert cfg.interleaver is cfg.interleaver
    il = make_interleaver(code.transmitted_len, 5)
    np.testing.assert_array_equal(cfg.interleaver.perm, il.perm)
    np.testing.assert_array_equal(cfg.interleaver.inv, il.inv)


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
        run_idd(WhitenedModel(model.y[:, 1:], model.h), info, cfg)
    with pytest.raises(ValueError):
        run_idd(WhitenedModel(model.y[:, :5], model.h[:, :5]), info, cfg)
    with pytest.raises(ValueError):
        run_idd(WhitenedModel(model.y[:, :0], model.h[:, :0]), info, cfg)
