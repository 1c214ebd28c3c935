"""The shared Chase driver: detection slices and their working set."""

import tracemalloc

import numpy as np
import pytest

from chasedet import bchase, chase, lchase
from chasedet.channel import WhitenedModel
from chasedet.constellation import SUPPORTED_ORDERS, build_constellation
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
