"""Golden Monte Carlo outputs: the CSV of each pinned run must not change.

Each file under tests/golden/ is `write_csv(monte_carlo(cfg))` for one of the
configurations below, recorded before the block-chunked simulation engine
replaced the per-block loop. A diff means the simulator's results changed;
find out why rather than re-recording.
"""

from pathlib import Path

import pytest

from chasedet.simcli import SimConfig, monte_carlo, validate_config, write_csv

GOLDEN_DIR = Path(__file__).with_name("golden")

_LINKS = {
    "2x2-qpsk": dict(
        mod=4, n_streams=2, n_rx=2, n_tx=2, rate=0.5, info_bits=32,
        snr_db=(1.0, 3.0), blocks=5, iterations=3,
    ),
    "4x4-16qam": dict(
        mod=16, n_streams=4, n_rx=4, n_tx=4, corr_tx=0.5, corr_rx=0.7,
        rate=0.83, info_bits=32, snr_db=(14.0, 20.0), blocks=4, iterations=2,
    ),
}

GOLDEN = {
    f"sim_{detector}_{link}": validate_config(
        SimConfig(detector=detector, seed=2024, **params)
    )
    for detector in ("lchase", "bchase", "lmmse", "maxlog")
    for link, params in _LINKS.items()
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_monte_carlo_matches_golden_csv(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    write_csv(monte_carlo(GOLDEN[name]), out)
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()
