"""tools/equivalence.py: its grid runs on this tree, and its comparison
reports every kind of difference a bit-for-bit change must not make."""

import importlib.util
import itertools
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from chasedet.bchase import BchaseStreamContext
from chasedet.codec import SUPPORTED_RATES
from chasedet.lchase import LchaseStreamContext

PATH = Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"


@pytest.fixture(scope="module")
def equivalence():
    spec = importlib.util.spec_from_file_location("_equivalence", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_runs_on_this_tree(equivalence):
    # Every (order, streams, rx, observation) point gives one LMMSE array,
    # every context field of both detectors and, per detector, one array
    # per prior kind and slice cap on the noisy observation, plus the
    # SLICED kind's dead-tail runs there and one array on each other
    # observation; max-log points one per prior kind.
    # Every IDD chunk gives the y and h of its stacked uses, every IDD run
    # its bit errors and two arrays per decoder pass (one pass for lmmse),
    # and every decode three. An array's slice caps give it bit for bit,
    # and its dead-tail runs give it on live targets and 0.0 on dead ones.
    eq = equivalence
    arrays = eq.grid()
    points = 2 * len(eq.points())
    maxlog_points = 2 * sum(o**n <= eq.MAXLOG_HYPOTHESES for o, n in eq.points())
    context_fields = len(fields(LchaseStreamContext)) + len(fields(BchaseStreamContext))
    kinds = len(eq.PRIORS) + len(eq.OBSERVATIONS) - 1
    detections = len(eq.PRIORS) * len(eq.CAPS) + len(eq.TAIL_CAPS) + len(eq.OBSERVATIONS) - 1
    detections *= 2
    per_point = len(eq.OBSERVATIONS) * (1 + context_fields) + detections
    runs = [det for _, _, dets in eq.LINKS for det in dets] * len(eq.CHUNKS)
    runs += [det for link, _, dets in eq.LINKS if link == eq.EXTREME_LINK for det in dets]
    per_run = [1 + 2 * (1 if det == "lmmse" else eq.ITERATIONS) for det in runs]
    chunks = 2 * (len(eq.LINKS) * len(eq.CHUNKS) + 1)
    decodes = 3 * len(eq.DECODER_LENGTHS) * len(SUPPORTED_RATES) * len(eq.DECODER_LLRS)
    decodes *= len(eq.DECODER_STACKS)
    assert len(arrays) == (
        points * per_point
        + maxlog_points * kinds
        + sum(per_run)
        + chunks
        + decodes
    )
    for (order, n), rx, det, kind, cap in itertools.product(
        eq.points(), (0, 2), ("lchase", "bchase"), eq.PRIORS, eq.CAPS
    ):
        key = f"{det}/{order}qam/n{n}/rx{n + rx}/noisy/{kind}/cap{cap or 'all'}"
        assert key in arrays
    # At K = 1 termination fixes coded bits whose extrinsic is -inf.
    assert all(np.isfinite(a).all() for k, a in arrays.items() if not k.startswith("bcjr/"))
    assert not any(np.isnan(a).any() for a in arrays.values())
    by_cap = {}
    for name, a in arrays.items():
        if "/cap" in name:
            by_cap.setdefault(name.rpartition("/cap")[0], []).append(a)
    for same in by_cap.values():
        assert all(np.array_equal(a, same[0]) for a in same)
    for name, a in arrays.items():
        if "/tails/" in name:
            every = arrays[name.replace("/tails", "").rpartition("/cap")[0] + "/capall"]
            dead = np.arange(eq.USES)[:, None] >= eq.live_uses(a.shape[1])
            assert np.array_equal(a[~dead], every[~dead]) and not a[dead].any()


def test_compare_names_each_difference(equivalence):
    base = {
        "a": np.array([1.0, 0.0]),
        "b": np.array([2.0, 3.0]),
        "c": np.zeros(2),
        "z": np.array([1.0 + 0.0j]),
    }
    change = {
        "a": np.array([1.0, -0.0]),  # a sign of zero
        "z": np.array([complex(1.0, -0.0)]),  # a sign of zero in an imaginary part
        "b": np.array([2.0 * (1 + 2.0**-52), 3.0]),  # one ulp
        "d": np.zeros(2),
    }
    found = dict(equivalence.compare(base, change))
    assert found["a"] == found["z"] == "1 signs differ"
    assert found["b"] == "largest relative difference 2.22e-16"
    assert found["c"] == "only in base" and found["d"] == "only in change"
    assert equivalence.compare(base, {k: v.copy() for k, v in base.items()}) == []
