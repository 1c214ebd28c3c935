"""The cost model: one detection pass's counts from the configuration."""

import math

import pytest

from chasedet.constellation import SUPPORTED_ORDERS, build_constellation
from chasedet.counters import DetectorStats, pass_stats


def _lchase(n, m, root):
    # (metrics, boundaries, soft stats) per detected stream: M candidates,
    # and on each of the n - 1 inner layers one set of L(L-1)/2 pairs per axis.
    return m, (n - 1) * (m - root), 0


def _bchase(n, m, root):
    # One set on the bottom inner layer, M sets on each of the n - 2 above
    # it, and M soft statistics on each of the n - 2 below the top.
    feedback = max(n - 2, 0)
    return m, (m - root) * (min(n - 1, 1) + feedback * m), feedback * m


def _maxlog(n, m, root):
    return m**n, 0, 0  # per use, not per stream


def _lmmse(n, m, root):
    return 2 * root, 0, 0


# Detector -> counts of one detected stream, or of one use for maxlog.
_PER_STREAM = {"lchase": _lchase, "bchase": _bchase, "maxlog": _maxlog, "lmmse": _lmmse}
# bchase's per-stream counts at 16-QAM as measured at n = 2, 4 and 8.
_RECORDED_BCHASE_16QAM = {2: 28, 4: 412, 8: 1180}


@pytest.mark.parametrize("detector", _PER_STREAM)
def test_pass_stats_table(detector):
    for order in SUPPORTED_ORDERS:
        c = build_constellation(order)
        root = math.isqrt(order)
        for n in range(1, 9):
            metrics, boundaries, soft = _PER_STREAM[detector](n, order, root)
            for uses in (1, 7):
                per = uses if detector == "maxlog" else uses * n
                want = DetectorStats(per * metrics, per * boundaries, per * soft, uses * n)
                assert pass_stats(detector, n, c, uses) == want, (order, n, uses)
            per_stream = pass_stats(detector, n, c, 1).metrics_per_stream
            if detector == "lchase":
                assert per_stream == n * order - (n - 1) * root
            if detector == "bchase" and order == 16 and n in _RECORDED_BCHASE_16QAM:
                assert per_stream == _RECORDED_BCHASE_16QAM[n]


def test_pass_stats_rejects_unknown_detector():
    with pytest.raises(ValueError, match="no cost model"):
        pass_stats("zf", 2, build_constellation(4), 1)
