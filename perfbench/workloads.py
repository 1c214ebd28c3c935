"""The benchmark's workloads: fixed lists of simulator legs.

A leg is one `SimConfig` minus its seed and block count, which the harness
fills in. A pass runs every leg of a workload once, with `blocks` coded
blocks per SNR point. This module imports nothing from chasedet or numpy, so
the set-up probe can load it before it starts its clock. Why each workload
was chosen is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1
SMOKE_BLOCKS = 1

_GATE = dict(mod=16, n_streams=4, n_rx=4, n_tx=4, rate=0.5, info_bits=64, iterations=3)
_CORR64 = dict(
    mod=64, n_streams=4, n_rx=4, n_tx=4, corr_tx=0.9, corr_rx=0.9,
    rate=0.83, info_bits=64, iterations=3, snr_db=(32.0, 36.0),
)
_LONG = dict(mod=4, n_streams=2, n_rx=2, n_tx=2, rate=0.83, info_bits=512, snr_db=(10.0, 12.0))


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: int  # coded blocks per SNR point in one pass
    legs: tuple  # SimConfig keyword dicts, without seed and blocks
    # Blocks per detector of a real run this workload stands for; the
    # harness projects that run's time from the measured blocks/s.
    projection: dict | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gate-16qam",
            blocks=10,
            legs=(
                dict(detector="lchase", snr_db=(8.0, 10.0, 12.0, 14.0, 16.0), **_GATE),
                dict(detector="lchase", corr_tx=0.9, corr_rx=0.9,
                     snr_db=(12.0, 16.0, 20.0, 24.0, 28.0), **_GATE),
                dict(detector="bchase", corr_tx=0.9, corr_rx=0.9,
                     snr_db=(12.0, 16.0, 20.0, 24.0, 28.0), **_GATE),
            ),
            # The two Monte Carlo acceptance gates: 2000 blocks per point.
            projection={"lchase": 20000, "bchase": 10000},
        ),
        Workload(
            name="corr-64qam",
            blocks=30,
            legs=(dict(detector="lchase", **_CORR64), dict(detector="bchase", **_CORR64)),
        ),
        Workload(
            name="long-code-2x2",
            blocks=8,
            legs=(
                dict(detector="lchase", iterations=8, **_LONG),
                dict(detector="lmmse", iterations=1, **_LONG),
            ),
        ),
    )
}
