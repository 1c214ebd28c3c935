"""Benchmark rows that rest on max-log decoder ties.

Two rows of the benchmark's recorded corr-64qam results (4x4 64-QAM, 0.9
correlation at both ends, rate 0.83, K = 64, seed 1, 30 blocks per point)
hold a block whose decoder decides info bits by the sign of a rounding
residue: lchase at 32 dB, iteration 3 (block 15) and bchase at 32 dB,
iteration 2 (block 13). A change that moves any upstream value in its last
bits may flip those bits, and so the row, without being wrong. These tests
keep that fragility in view: if one fails because a tie is gone, the row's
recorded bit errors may move with it.
"""

import numpy as np
import pytest

from chasedet import idd
from chasedet.idd import run_idd
from chasedet.simcli import SimConfig, _build_bundle, _chunk_model, _draws, chunk_blocks

_CORR64 = dict(
    mod=64, n_streams=4, n_rx=4, n_tx=4, corr_tx=0.9, corr_rx=0.9, rate=0.83,
    info_bits=64, iterations=3, snr_db=(32.0, 36.0), seed=1, blocks=30,
)


@pytest.mark.parametrize(
    "detector,iteration,bit_errors,block",
    (("lchase", 3, 604, 15), ("bchase", 2, 448, 13)),
)
def test_tie_bound_rows_hold_rounding_size_info_llrs(
    detector, iteration, bit_errors, block, monkeypatch
):
    # The 32 dB point's chunks, cut as the sweep cuts them, give the row's
    # bit errors, and the named block's decoder holds info LLRs within
    # 1e-12 of its largest |LLR| at that iteration: a tie that rounding
    # decides.
    bundle = _build_bundle(SimConfig(detector=detector, **_CORR64))
    per_point, size = bundle.cfg.blocks, chunk_blocks(bundle)
    decoded, info_llrs, errors = [], [], []

    def recorded(*args, _real=idd.bcjr_decode):
        outputs = _real(*args)
        decoded.append(outputs[1])
        return outputs

    monkeypatch.setattr(idd, "bcjr_decode", recorded)
    for lo in range(0, per_point, size):
        hi = min(lo + size, len(bundle.cfg.snr_db) * per_point)
        info, normals = _draws(bundle, lo, hi)
        decoded.clear()
        result = run_idd(_chunk_model(bundle, lo, info, normals), info, bundle.idd_cfg)
        info_llrs.append(decoded[iteration - 1])
        errors.append(result.iter_bit_errors[:, iteration - 1])
    llrs = np.concatenate(info_llrs)[:per_point]
    assert np.concatenate(errors)[:per_point].sum() == bit_errors
    magnitude = np.abs(llrs[block])
    assert magnitude.min() <= 1e-12 * magnitude.max()
