"""tools/equivalence.py: its grid runs on this tree, and its comparison
reports every kind of difference a bit-for-bit change must not make."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"


@pytest.fixture(scope="module")
def equivalence():
    spec = importlib.util.spec_from_file_location("_equivalence", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_runs_on_this_tree(equivalence):
    # Every (order, streams, rx) point gives one LMMSE array and, per
    # detector, one per prior kind and slice cap; every IDD run its bit
    # errors and two arrays per decoder pass (one pass for lmmse); all
    # finite. An array's slice caps give it bit for bit.
    arrays = equivalence.grid()
    points = len(equivalence.ORDERS) * len(equivalence.STREAMS) * 2
    per_detector = points * len(equivalence.PRIORS) * len(equivalence.CAPS)
    runs = [det for _, _, dets in equivalence.LINKS for det in dets] * len(equivalence.CHUNKS)
    per_run = [1 + 2 * (1 if det == "lmmse" else equivalence.ITERATIONS) for det in runs]
    assert len(arrays) == points + 2 * per_detector + sum(per_run)
    assert all(np.isfinite(a).all() for a in arrays.values())
    by_cap = {}
    for name, a in arrays.items():
        if not name.startswith(("lmmse/", "idd/")):
            by_cap.setdefault(name.rpartition("/cap")[0], []).append(a)
    for same in by_cap.values():
        assert all(np.array_equal(a, same[0]) for a in same)


def test_compare_names_each_difference(equivalence):
    base = {"a": np.array([1.0, 0.0]), "b": np.array([2.0, 3.0]), "c": np.zeros(2)}
    change = {
        "a": np.array([1.0, -0.0]),  # a sign of zero
        "b": np.array([2.0 * (1 + 2.0**-52), 3.0]),  # one ulp
        "d": np.zeros(2),
    }
    found = dict(equivalence.compare(base, change))
    assert found["a"] == "1 signs differ"
    assert found["b"] == "largest relative difference 2.22e-16"
    assert found["c"] == "only in base" and found["d"] == "only in change"
    assert equivalence.compare(base, {k: v.copy() for k, v in base.items()}) == []
