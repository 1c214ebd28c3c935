"""Correctness checks on the rows a pass produces.

A row is one CSV row of `monte_carlo` (SNR point x iteration), reduced to
the values the check compares: (block_errors, bit_errors, metric_count_mean).
A row fails when its leg raised, when it differs from the reference row for
the same seed and block count, or, for an lchase leg, when its
metric_count_mean is not the paper's n*M - (n-1)*sqrt(M).
"""

from __future__ import annotations

import json
from math import isqrt
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def lchase_count(n_streams: int, order: int) -> int:
    """Metric-plus-boundary evaluations per stream for lchase."""
    return n_streams * order - (n_streams - 1) * isqrt(order)


def leg_rows(records) -> list:
    """The compared values of each SimRecord, in CSV order."""
    return [[r.block_errors, r.bit_errors, r.metric_count_mean] for r in records]


def failed_rows(leg: dict, rows, reference) -> int:
    """Rows of one leg that fail; rows is None when the leg raised.

    leg holds the leg's SimConfig fields, reference its expected rows or
    None when nothing is recorded for this seed and block count.
    """
    attempted = len(leg["snr_db"]) * leg["iterations"]
    if rows is None:
        return attempted
    if len(rows) != attempted:
        return attempted
    identity = lchase_count(leg["n_streams"], leg["mod"])
    failed = 0
    for i, row in enumerate(rows):
        bad = reference is not None and list(row) != list(reference[i])
        bad = bad or (leg["detector"] == "lchase" and row[2] != identity)
        failed += bad
    return failed


def load_expected(workload: str, seed: int, blocks: int, path=EXPECTED_PATH):
    """Recorded rows per leg for (workload, seed, blocks), or None."""
    entry = json.loads(Path(path).read_text()).get(workload)
    if entry is None or entry["seed"] != seed or entry["blocks"] != blocks:
        return None
    return entry["legs"]
