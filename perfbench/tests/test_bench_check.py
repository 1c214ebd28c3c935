"""The benchmark's correctness check against recorded rows."""

import json

import check
from workloads import DEFAULT_SEED, WORKLOADS

LEG = dict(detector="lchase", mod=16, n_streams=4, snr_db=(8.0, 10.0), iterations=2)
ROWS = [[3, 40, 52.0], [1, 7, 52.0], [0, 0, 52.0], [0, 0, 52.0]]


def test_lchase_identity_values():
    assert check.lchase_count(4, 16) == 52
    assert check.lchase_count(4, 64) == 232
    assert check.lchase_count(2, 4) == 6


def test_matching_rows_pass():
    assert check.failed_rows(LEG, ROWS, ROWS) == 0
    assert check.failed_rows(LEG, ROWS, None) == 0


def test_perturbed_row_fails():
    for col in range(3):
        bad = [list(r) for r in ROWS]
        bad[2][col] += 1
        # A wrong lchase count also breaks the identity: still one row.
        assert check.failed_rows(LEG, bad, ROWS) == 1


def test_broken_lchase_count_fails_for_any_seed():
    bad = [list(r) for r in ROWS]
    bad[1][2] = 53.0
    bad[3][2] = 51.999
    assert check.failed_rows(LEG, bad, None) == 2
    # Other detectors have no closed-form count.
    assert check.failed_rows(dict(LEG, detector="bchase"), bad, None) == 0


def test_raised_or_short_leg_fails_every_row():
    assert check.failed_rows(LEG, None, ROWS) == 4
    assert check.failed_rows(LEG, ROWS[:3], ROWS) == 4


def test_expected_record_covers_every_workload(tmp_path):
    for name, w in WORKLOADS.items():
        legs = check.load_expected(name, DEFAULT_SEED, w.blocks)
        assert legs is not None and len(legs) == len(w.legs)
        for leg, rows in zip(w.legs, legs):
            assert len(rows) == len(leg["snr_db"]) * leg["iterations"]
            if leg["detector"] == "lchase":
                n = check.lchase_count(leg["n_streams"], leg["mod"])
                assert all(r[2] == n for r in rows)
    assert check.load_expected("gate-16qam", DEFAULT_SEED + 1, 10) is None
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"w": {"seed": 5, "blocks": 2, "legs": [ROWS]}}))
    assert check.load_expected("w", 5, 2, path) == [ROWS]
    assert check.load_expected("w", 5, 3, path) is None
