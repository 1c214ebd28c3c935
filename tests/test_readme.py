"""The README's library example runs as written, and its slice and chunk figures hold."""

import re
from pathlib import Path

from chasedet import bchase, chase, lchase, reference, simcli
from chasedet.constellation import SUPPORTED_ORDERS, build_constellation
from chasedet.simcli import SimConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["llrs"].shape == namespace["la"].shape
    assert namespace["result"].iter_bit_errors.shape == (1, 3)


def test_readme_contexts_per_slice_table_matches_charges():
    # Every cell of the contexts-per-slice table is SLICE_VALUES over the
    # detector's charge per context at that order.
    text = README.read_text()
    header = re.search(r"^ *\| Detector \|(.*)\|$", text, re.MULTILINE)
    names = header[1].split("|")
    orders = [4 if name.strip() == "QPSK" else int(name.split("-")[0]) for name in names]
    rows = re.findall(r"^ *\| (lchase|bchase, (\d+) streams) \|(.*)\|$", text, re.MULTILINE)
    assert orders == list(SUPPORTED_ORDERS) and len(rows) == 4
    for label, n_streams, cells in rows:
        for order, cell in zip(orders, cells.split("|"), strict=True):
            c = build_constellation(order)
            if label == "lchase":
                charge = lchase.context_values(c)
            else:
                charge = bchase.context_values(c, int(n_streams))
            want = chase.SLICE_VALUES // charge
            assert int(cell.strip().replace(",", "")) == want, (label, order)


def test_readme_maxlog_uses_per_slice_matches_charge():
    # The maxlog uses-per-slice figure is SLICE_VALUES over its charge per use.
    found = re.search(r"holds\s+([\d,]+)\s+uses\s+at\s+2x2\s+QPSK", README.read_text())
    want = chase.SLICE_VALUES // reference.use_values(build_constellation(4), 2)
    assert int(found[1].replace(",", "")) == want


def test_readme_block_charge_matches_block_values():
    # The chunk-charge bullet's per-use `streams * M` and `K * rx * (tx +
    # streams + C)`, and its per-block values per trellis step and one
    # count per iteration, are what block_values charges.
    text = README.read_text()
    found = re.search(r"`(\d+) \* rx \* \(tx \+ streams \+ (\d+)\)`", text)
    per_step = int(re.search(r"(\d+) values per\s+trellis step", text)[1])
    for cfg in (SimConfig(), SimConfig(mod=64, n_streams=3, n_rx=5, n_tx=7)):
        streams, rx, tx = cfg.n_streams, cfg.n_rx, cfg.n_tx
        per_use = streams * cfg.mod + int(found[1]) * rx * (tx + streams + int(found[2]))
        per_block = per_step * (cfg.info_bits + 2) + cfg.iterations
        assert simcli.block_values(cfg, 3) == 3 * per_use + per_block
