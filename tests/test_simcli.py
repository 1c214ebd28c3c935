"""Simulator configuration, reproducibility, chunking, and CSV output."""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chasedet import bchase, chase, idd, lchase, reference, simcli
from chasedet.channel import generate_channel
from chasedet.errors import ConfigError, NotPositiveDefiniteError, SingularMatrixError
from chasedet.idd import DETECTORS, run_idd
from chasedet.simcli import (
    CSV_HEADER,
    SimConfig,
    SimRecord,
    _build_bundle,
    _chunk_model,
    _draws,
    build_config,
    main,
    monte_carlo,
    parse_snr_grid,
    simulate_chunk,
    validate_config,
    write_csv,
)


def test_parse_snr_grid_forms():
    assert parse_snr_grid("4:2:12") == (4.0, 6.0, 8.0, 10.0, 12.0)
    assert parse_snr_grid("7") == (7.0,)
    assert parse_snr_grid("1,2.5,3") == (1.0, 2.5, 3.0)
    assert parse_snr_grid("12:-4:4") == (12.0, 8.0, 4.0)
    assert parse_snr_grid("0:3:10") == (0.0, 3.0, 6.0, 9.0)
    for bad in ("4:0:8", "1:2", "1:2:3:4", "abc", "4;8"):
        with pytest.raises(ConfigError):
            parse_snr_grid(bad)


@pytest.mark.parametrize(
    "text", ("0:1:inf", "0:1e-300:1", "0:1e-3:100", "nan", "0:inf:10", "inf", "-inf", "1,nan")
)
def test_bad_snr_grids_are_config_errors(text, monkeypatch, tmp_path, capsys):
    # Unbounded, non-finite or oversized grids fail at the config boundary,
    # and no grid is built past the point cap on the way.
    def capped_range(*args):
        assert len(range(*args)) <= simcli.MAX_SNR_POINTS
        return range(*args)

    monkeypatch.setattr(simcli, "range", capped_range, raising=False)
    with pytest.raises(ConfigError):
        build_config(None, {"snr": text})
    assert main([f"--snr={text}", "--blocks", "1", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("snr", ("301", "-301", "1e308", "-3100", "3080"))
def test_snrs_beyond_the_range_are_config_errors(snr, tmp_path, capsys):
    # Past MAX_SNR_DB in magnitude the noise variance overflows, or a noise
    # covariance's Cholesky factor or a channel's QR breaks down mid-run;
    # such an SNR fails at the config boundary, before any block runs.
    with pytest.raises(ConfigError, match="within"):
        validate_config(SimConfig(snr_db=(4.0, float(snr))))
    out = tmp_path / "x.csv"
    assert main([f"--snr={snr}", "--blocks", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("detector", DETECTORS)
def test_every_detector_runs_at_the_snr_range_limits(detector):
    limit = simcli.MAX_SNR_DB
    cfg = _tiny_config(
        detector=detector, mod=16, n_streams=3, n_rx=3, n_tx=3, corr_tx=0.9, corr_rx=0.9,
        snr_db=(-limit, limit), iterations=3,
    )
    final = [r for r in monte_carlo(cfg) if r.iteration == 3]
    assert final[0].bit_errors > 0 and final[1].bit_errors == 0


def test_snr_grid_cap_is_inclusive():
    assert len(parse_snr_grid(f"1:1:{simcli.MAX_SNR_POINTS}")) == simcli.MAX_SNR_POINTS
    with pytest.raises(ConfigError, match="more than"):
        parse_snr_grid(f"0:1:{simcli.MAX_SNR_POINTS}")


def test_grid_block_cap_is_inclusive(monkeypatch, tmp_path, capsys):
    # The cap counts (block, iteration) tallies and is checked before any
    # block runs; 10**7 blocks at the default 3 iterations fit it.
    monkeypatch.setattr(simcli, "simulate_sweep", None)
    cap = simcli.MAX_GRID_TALLIES
    at_cap = SimConfig(snr_db=(4.0, 6.0), blocks=10**7 // 2)
    assert len(at_cap.snr_db) * at_cap.blocks * at_cap.iterations == cap
    assert validate_config(at_cap) is at_cap
    with pytest.raises(ConfigError, match=f"make {cap + 1} tallies, more than {cap}$"):
        validate_config(SimConfig(snr_db=(4.0,), blocks=cap + 1, iterations=1))
    out = tmp_path / "x.csv"
    assert main(["--snr", "4,6", "--blocks", str(10**7 // 2 + 1), "--out", str(out)]) == 2
    assert f"make {cap + 6} tallies, more than {cap}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "link,match",
    (
        (dict(iterations=10**9), "tallies, more than"),
        (dict(snr_db=(4.0,), blocks=10**7, iterations=10**6), "tallies, more than"),
        (dict(snr_db=(4.0,), blocks=1, iterations=10**7), "chunk cap"),
    ),
    ids=("1e9-iterations", "1e7-blocks-1e6-iterations", "one-block-1e7-iterations"),
)
def test_iteration_counts_that_exhaust_memory_are_rejected(link, match):
    # The sweep and each chunk keep a bit error count per (block,
    # iteration): 10**9 iterations or 10**13 tallies pass no cap, and one
    # block of 10**7 iterations, under the tally cap, would not fit a chunk.
    with pytest.raises(ConfigError, match=match):
        validate_config(SimConfig(**link))


@pytest.mark.parametrize(
    "link", (dict(n_rx=1024, n_tx=1, n_streams=1), dict(info_bits=10**6), dict(info_bits=10**15))
)
def test_blocks_over_the_chunk_cap_are_rejected(link):
    # One block of these would not fit a chunk: 1024 receive antennas need a
    # 1024 x 1024 noise covariance per block, a million info bits a decoder
    # of 64 million values. validate_config rejects them; 10**15 info bits
    # is rejected without building the block's puncturing mask.
    with pytest.raises(ConfigError, match="chunk cap"):
        validate_config(SimConfig(**link))


def test_benchmark_legs_fit_one_chunk(monkeypatch):
    # perfbench's legs each run their whole grid as one chunk.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        for leg in workload.legs:
            cfg = validate_config(SimConfig(blocks=workload.blocks, **leg))
            assert len(cfg.snr_db) * cfg.blocks <= simcli.chunk_blocks(_build_bundle(cfg))


@pytest.mark.parametrize(
    "link",
    (
        dict(mod=16, n_streams=4, n_rx=4, n_tx=4),
        dict(mod=64, n_streams=4, n_rx=4, n_tx=4, corr_tx=0.9, corr_rx=0.9, rate=0.83),
        dict(mod=4, n_streams=2, n_rx=2, n_tx=2, info_bits=512, rate=0.83),
        dict(mod=4, n_streams=1, n_rx=64, n_tx=1),
        dict(mod=256, n_streams=1, n_rx=128, n_tx=1, info_bits=16),
        dict(mod=4, n_streams=1, n_rx=2, n_tx=8, info_bits=512),
        dict(mod=4, n_streams=8, n_rx=32, n_tx=32, corr_tx=0.5, corr_rx=0.5),
    ),
    ids=("gate-16qam", "corr-64qam", "long-2x2", "rx64", "rx128", "tx8", "32x32"),
)
def test_channel_stage_stays_under_block_charge(link):
    # Drawing and whitening a chunk holds between half and all of what
    # block_values charges its blocks beyond their candidate metrics,
    # decoder and bit error counts: the normals, the channel arrays and, with
    # few uses on many receive antennas (rx128), mostly the noise
    # covariances.
    cfg = validate_config(SimConfig(snr_db=(10.0,), blocks=16, **link))
    bundle = _build_bundle(cfg)
    blocks = min(simcli.chunk_blocks(bundle), 16)
    n_uses = bundle.n_uses
    charge = (
        simcli.block_values(cfg, n_uses)
        - n_uses * cfg.n_streams * cfg.mod
        - simcli.STEP_VALUES * (cfg.info_bits + 2)
        - cfg.iterations
    )
    _chunk_model(bundle, 0, *_draws(bundle, 0, 1))  # first-call caches
    tracemalloc.start()
    try:
        info, normals = _draws(bundle, 0, blocks)
        _chunk_model(bundle, 0, info, normals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert charge / 2 <= peak / (8 * blocks) <= charge


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="seed"):
        validate_config(SimConfig(seed=-1))
    out = tmp_path / "x.csv"
    assert main(["--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_missing_config_file_is_reported(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["--config", str(missing), "--out", str(tmp_path / "x.csv")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(missing) in line


@pytest.mark.parametrize("where", ("missing-dir", "dir"))
def test_unwritable_out_is_reported_before_the_run(where, tmp_path, monkeypatch, capsys):
    # An --out in a missing directory, or naming a directory, fails before
    # any block runs.
    monkeypatch.setattr(simcli, "monte_carlo", None)
    out = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    assert main(["--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")


def _run_python(*args):
    """A Python subprocess that imports this package, run to completion."""
    src = str(Path(simcli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_python_dash_m_runs_the_cli_without_warnings():
    done = _run_python("-W", "error::RuntimeWarning", "-m", "chasedet", "--help")
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.startswith("usage: chasedet")


def test_python_dash_m_simcli_fails_pointing_to_the_package():
    # The module form runs nothing: it exits non-zero with one line naming
    # the real entry point.
    done = _run_python("-W", "ignore::RuntimeWarning", "-m", "chasedet.simcli", "--help")
    assert done.returncode != 0
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert "'python -m chasedet'" in done.stderr


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "detector = bchase\n"
        "mod = 64   # inline comment\n"
        "\n"
        "snr = 0:5:10\n"
        "corr = 0.5\n"
    )
    cfg = build_config(str(path), {})
    assert cfg.detector == "bchase"
    assert cfg.mod == 64
    assert cfg.snr_db == (0.0, 5.0, 10.0)
    assert cfg.corr_tx == cfg.corr_rx == 0.5


def test_config_file_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mod = 16\nbogus = 3\n")
    with pytest.raises(ConfigError, match="line 2.*bogus"):
        build_config(str(path), {})
    path.write_text("mod sixteen\n")
    with pytest.raises(ConfigError, match="line 1"):
        build_config(str(path), {})
    path.write_text("blocks = many\n")
    with pytest.raises(ConfigError, match="invalid value"):
        build_config(str(path), {})


def test_flags_override_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("blocks = 50\nseed = 1\n")
    cfg = build_config(str(path), {"blocks": 7, "seed": None})
    assert cfg.blocks == 7
    assert cfg.seed == 1


def test_validate_config_rejections():
    good = SimConfig()
    assert validate_config(good) is good
    cases = [
        {"detector": "zf"},
        {"mod": 8},
        {"n_streams": 4},  # exceeds default 2x2 antennas
        {"n_rx": 1},
        {"corr_tx": 1.0},
        {"rate": 0.75},
        {"snr_db": ()},
        {"snr_db": (4.0, float("nan"))},
        {"snr_db": (float("inf"),)},
        {"blocks": 0},
        {"iterations": 0},
        {"workers": 0},
        {"detector": "maxlog", "mod": 64, "n_streams": 4, "n_rx": 4, "n_tx": 4},
    ]
    for kwargs in cases:
        base = {**SimConfig().__dict__, **kwargs}
        with pytest.raises(ConfigError):
            validate_config(SimConfig(**base))


def test_csv_format(tmp_path):
    rec = SimRecord(
        snr_db=6.0,
        iteration=2,
        detector="lchase",
        blocks=3,
        block_errors=1,
        bit_errors=5,
        bler=1 / 3,
        ber=5 / (3 * 64),
        metric_count_mean=30.0,
    )
    path = tmp_path / "out.csv"
    write_csv([rec], path, header_comments=("detector = lchase",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# detector = lchase"
    assert lines[1] == CSV_HEADER
    assert lines[1] == (
        "snr_db,iteration,detector,blocks,block_errors,bit_errors,"
        "bler,ber,metric_count_mean"
    )
    assert lines[2] == "6,2,lchase,3,1,5,0.333333333333,0.0260416666667,30"


def _tiny_config(**kwargs):
    base = dict(
        detector="lchase",
        mod=4,
        n_streams=2,
        n_rx=2,
        n_tx=2,
        snr_db=(2.0,),
        blocks=3,
        iterations=2,
        info_bits=16,
        seed=99,
    )
    base.update(kwargs)
    return validate_config(SimConfig(**base))


def test_monte_carlo_is_reproducible():
    cfg = _tiny_config()
    first = monte_carlo(cfg)
    second = monte_carlo(cfg)
    assert first == second
    assert len(first) == 2  # one SNR point, two iterations
    assert not first[0] == monte_carlo(_tiny_config(seed=100))[0]


def test_record_consistency():
    cfg = _tiny_config(snr_db=(0.0, 8.0), blocks=4)
    records = monte_carlo(cfg)
    assert [r.iteration for r in records] == [1, 2, 1, 2]
    assert [r.snr_db for r in records] == [0.0, 0.0, 8.0, 8.0]
    for r in records:
        assert r.detector == "lchase"
        assert r.blocks == 4
        assert r.bler == r.block_errors / 4
        assert r.ber == r.bit_errors / (4 * 16)
        # 2 streams of 4-QAM: 2*4 - 2 evaluations per detected stream.
        assert r.metric_count_mean == 6.0


def test_worker_pool_matches_serial():
    serial = monte_carlo(_tiny_config(blocks=4))
    pooled = monte_carlo(_tiny_config(blocks=4, workers=2))
    assert serial == pooled


def test_sweep_cuts_chunks_as_it_runs_them(monkeypatch):
    # At one block per chunk, the sweep holds neither a list of chunks nor
    # anything per chunk: its peak is within twice the per-block bit errors
    # it returns (8 bytes a block here), where a chunk list built up front
    # alone took over 200 bytes a block.
    cfg = SimConfig(snr_db=(0.0, 1.0, 2.0, 3.0), blocks=5000, iterations=1)
    bundle = _build_bundle(cfg)
    monkeypatch.setattr(simcli, "CHUNK_VALUES", 1)
    assert simcli.chunk_blocks(bundle) == 1

    def no_blocks_run(bundle, lo, hi):
        return np.zeros((hi - lo, 1), dtype=np.int64)

    monkeypatch.setattr(simcli, "simulate_chunk", no_blocks_run)
    monkeypatch.setattr(simcli, "run_idd", None)
    tracemalloc.start()
    try:
        bit_errors = simcli.simulate_sweep(bundle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bit_errors.shape == (4 * 5000, 1)
    assert peak <= 2 * bit_errors.nbytes


def test_pool_keeps_two_chunks_per_worker_in_flight(monkeypatch):
    # A pool stand-in that runs each chunk when it is submitted: the sweep
    # never has more than two chunks per worker submitted and not yet
    # collected, and it tallies them in grid order, as the serial sweep does.
    cfg = _tiny_config(snr_db=(0.0, 4.0, 8.0), blocks=5, workers=2)
    bundle = _build_bundle(cfg)
    monkeypatch.setattr(simcli, "CHUNK_VALUES", 1)
    monkeypatch.setattr(simcli, "_WORKER_BUNDLE", bundle)
    pending, most = set(), []

    class Pool:
        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            pending.add(future)
            most.append(len(pending))
            real = future.result

            def collect(*a):
                pending.discard(future)
                return real(*a)

            future.result = collect
            return future

    bit_errors = simcli.simulate_sweep(bundle, Pool())
    assert max(most) == 2 * cfg.workers
    assert len(most) == 15 and not pending
    want_bit_errors = simcli.simulate_sweep(bundle)
    np.testing.assert_array_equal(bit_errors, want_bit_errors)


def test_config_lines_roundtrip_keys(tmp_path):
    # A CSV's header comments, '# ' removed, are a config file that builds
    # the run's config but for its out path, SNRs exact, and a rerun from
    # it writes the same CSV byte for byte.
    argv = [
        "--mod", "4", "--streams", "2", "--rx", "3", "--corr-rx", "0.25", "--rate", "0.83",
        "--snr", "0:0.1:0.3", "--blocks", "2", "--iters", "2", "--info-bits", "16",
    ]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main([*argv, "--out", str(first)]) == 0
    header = [line[2:] for line in first.read_text().splitlines() if line.startswith("# ")]
    assert "streams = 2" in header and "snr = 0.0,0.1,0.2,0.30000000000000004" in header
    config = tmp_path / "run.cfg"
    config.write_text("\n".join(header) + "\n")
    args = vars(simcli._make_parser().parse_args([*argv, "--out", str(second)]))
    assert build_config(str(config), {"out": str(second)}) == build_config(args.pop("config"), args)
    assert main(["--config", str(config), "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


def test_config_lines_leave_out_workers(tmp_path, monkeypatch):
    # The worker count changes no result and depends on the machine: configs
    # that differ only in it write equal header lines, and the lines of a
    # two-worker run rebuild it, on one worker, on a one-CPU machine.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = validate_config(_tiny_config(workers=2))
    lines = simcli.config_lines(cfg)
    assert lines == simcli.config_lines(replace(cfg, workers=1))
    assert not any(line.startswith("workers") for line in lines)
    config = tmp_path / "run.cfg"
    config.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert build_config(str(config), {"out": cfg.out}) == replace(cfg, workers=1)


def test_main_smoke(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(
        [
            "--mod", "4", "--streams", "2", "--rx", "2", "--tx", "2",
            "--snr", "2", "--blocks", "2", "--iters", "2",
            "--info-bits", "16", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert f"wrote {out} (2 rows)" in captured.out
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == CSV_HEADER
    assert len(body) == 3
    assert any("seed = 3" in c for c in comments)


def test_main_reports_config_errors(tmp_path, capsys):
    code = main(["--streams", "4", "--rx", "2", "--tx", "4"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,text",
    (
        ("--mod", "5"),
        ("--detector", "foo"),
        ("--blocks", "many"),
        ("--rate", "0.7"),
        ("--corr", "1.0"),
    ),
)
def test_main_rejects_bad_flag_values(flag, text, tmp_path, capsys):
    # Flags go through the config converters and validate_config, so a bad
    # value is an error line naming the key and exit code 2.
    out = tmp_path / "x.csv"
    assert main([flag, text, "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    assert flag[2:] in line
    assert not out.exists()


# One value per config key, as text; each differs from SimConfig's default.
_KEY_SAMPLES = {
    "detector": "bchase",
    "mod": "64",
    "streams": "1",
    "rx": "3",
    "tx": "4",
    "corr": "0.5",
    "corr_tx": "0.25",
    "corr_rx": "0.75",
    "rate": "0.83",
    "snr": "0:5:10",
    "blocks": "7",
    "iters": "2",
    "info_bits": "32",
    "seed": "5",
    "out": "other.csv",
    "workers": "2",
}


@pytest.mark.parametrize("key", sorted(simcli._KEY_FIELDS))
def test_flag_and_config_line_build_the_same_config(key, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    text = _KEY_SAMPLES[key]
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {text}\n")
    flag = "--" + key.replace("_", "-")
    args = vars(simcli._make_parser().parse_args([flag, text]))
    assert args.pop("config") is None
    from_flag = build_config(None, args)
    assert from_flag == build_config(str(path), {})
    assert from_flag != SimConfig()


def test_parser_flags_are_the_key_table():
    parser = simcli._make_parser()
    flags = {s for action in parser._actions for s in action.option_strings}
    keys = {"--" + key.replace("_", "-") for key in simcli._KEY_FIELDS}
    assert flags == keys | {"-h", "--help", "--config"}
    assert len(keys) == 16
    help_text = parser.format_help()
    for _, _, text in simcli._KEY_FIELDS.values():
        assert " ".join(text.split()) in " ".join(help_text.split())


def test_workers_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert validate_config(SimConfig(workers=3)).workers == 3
    with pytest.raises(ConfigError, match="3 CPUs"):
        validate_config(SimConfig(workers=4))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    with pytest.raises(ConfigError, match="1 CPUs"):
        validate_config(SimConfig(workers=2))


# Tiny links per detector; 16-QAM over three streams gives bchase a
# feedback layer and lchase more than one inner layer, and 64-QAM has the
# fewest contexts per detection slice.
_CHUNK_LINKS = {
    "lchase": dict(detector="lchase", mod=16, n_streams=3, n_rx=3, n_tx=3),
    "bchase": dict(
        detector="bchase", mod=16, n_streams=3, n_rx=3, n_tx=3, corr_tx=0.5, corr_rx=0.5
    ),
    "bchase-64qam": dict(
        detector="bchase", mod=64, n_streams=3, n_rx=3, n_tx=3, corr_tx=0.5, corr_rx=0.5
    ),
    "lmmse": dict(detector="lmmse", mod=4, n_streams=2, n_rx=2, n_tx=2, rate=0.83),
    "maxlog": dict(detector="maxlog", mod=4, n_streams=2, n_rx=2, n_tx=2),
}


def _context_values(cfg, c):
    """The charge per context a detector slices by: a (stream, use) for the
    Chase detectors and a use for maxlog; lmmse does not slice, so any cap
    serves it."""
    if cfg.detector == "lchase":
        return lchase.context_values(c)
    if cfg.detector == "bchase":
        return bchase.context_values(c, cfg.n_streams)
    if cfg.detector == "maxlog":
        return reference.use_values(c, cfg.n_streams)
    return 1


# The detector entry points run_idd calls.
_DETECT_ENTRIES = (
    (lchase, "detect_all_uses"),
    (bchase, "detect_all_uses"),
    (idd, "lmmse_llrs"),
    (idd, "maxlog_llrs"),
)


def _run_recording_llrs(model, info, idd_cfg):
    """Detector LLRs shaped (passes, U, B, n, q) and decoder info-bit LLRs
    shaped (passes, B, K) of a run_idd call, whose stack of a chunk's uses
    is row u*B + b."""
    out, info_llrs = [], []
    with pytest.MonkeyPatch.context() as mp:
        for module, name in _DETECT_ENTRIES:

            def recorded(*args, _real=getattr(module, name), **kwargs):
                llrs = _real(*args, **kwargs)
                out.append(llrs.reshape((-1,) + llrs.shape[-2:]))
                return llrs

            mp.setattr(module, name, recorded)

        def decoded(*args, _real=idd.bcjr_decode):
            outputs = _real(*args)
            info_llrs.append(outputs[1])
            return outputs

        mp.setattr(idd, "bcjr_decode", decoded)
        run_idd(model, info, idd_cfg)
    llrs = np.concatenate(out).reshape((-1,) + model.h.shape[:2] + out[0].shape[1:])
    return llrs, np.stack(info_llrs)


@pytest.mark.parametrize("link", sorted(_CHUNK_LINKS))
@settings(max_examples=6, deadline=None)
@given(
    blocks=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    snr=st.floats(-2.0, 24.0),
    per_slice=st.sampled_from([1, 4, 1 << 20]),
)
def test_chunk_equals_block_by_block(link, blocks, seed, snr, per_slice):
    # One chunk of B blocks, with detection slices of one context, of a
    # few contexts or of the whole chunk, gives bit for bit the bit errors,
    # detector LLRs and decoder info-bit LLRs of B one-block runs.
    cfg = _tiny_config(
        seed=seed, snr_db=(snr,), blocks=blocks, info_bits=16, **_CHUNK_LINKS[link]
    )
    bundle = _build_bundle(cfg)
    info, normals = _draws(bundle, 0, blocks)
    cap = per_slice * _context_values(cfg, bundle.idd_cfg.constellation)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chase, "SLICE_VALUES", cap)
        bit_errors = simulate_chunk(bundle, 0, blocks)
        chunk_llrs, chunk_info_llrs = _run_recording_llrs(
            _chunk_model(bundle, 0, info, normals), info, bundle.idd_cfg
        )
    singles = [simulate_chunk(bundle, b, b + 1) for b in range(blocks)]
    np.testing.assert_array_equal(bit_errors, np.concatenate(singles))
    for b in range(blocks):
        one = slice(b, b + 1)
        alone_llrs, alone_info_llrs = _run_recording_llrs(
            _chunk_model(bundle, b, info[one], normals[one]), info[one], bundle.idd_cfg
        )
        np.testing.assert_array_equal(chunk_llrs[:, :, b], alone_llrs[:, :, 0])
        np.testing.assert_array_equal(chunk_info_llrs[:, b], alone_info_llrs[:, 0])


def test_streams_go_out_on_the_first_transmit_antennas():
    # With more transmit antennas than streams, the whitened channel of each
    # use is the drawn channel's first n_streams columns over sigma.
    cfg = _tiny_config(
        mod=4, n_streams=1, n_rx=2, n_tx=8, corr_tx=0.5, snr_db=(3.0, 9.0), blocks=2
    )
    bundle = _build_bundle(cfg)
    info, normals = _draws(bundle, 0, 4)
    model = _chunk_model(bundle, 0, info, normals)
    split = 2 * cfg.n_rx * cfg.n_tx
    per_use = normals.reshape(4, bundle.n_uses, -1)[..., :split]
    hbar = generate_channel(
        cfg.n_rx, cfg.n_tx, bundle.corr, per_use.reshape(4, bundle.n_uses, 2, cfg.n_rx, cfg.n_tx)
    )
    sigma = np.sqrt(np.repeat(bundle.sigma2, cfg.blocks))[:, None, None, None]
    assert model.h.shape == (bundle.n_uses, 4, cfg.n_rx, 1)
    np.testing.assert_allclose(model.h.swapaxes(0, 1), hbar[..., :1] / sigma, rtol=1e-14, atol=0)


def test_non_finite_whitened_model_names_point_and_block(monkeypatch):
    bundle = _build_bundle(_tiny_config(blocks=4, snr_db=(2.0, 4.0)))
    real_whiten = simcli.whiten

    def poisoned(y, ch):
        model = real_whiten(y, ch)  # use-major: (U, B, ...)
        model.y[1, 2, 0] = np.nan
        return model

    monkeypatch.setattr(simcli, "whiten", poisoned)
    with pytest.raises(FloatingPointError, match="snr point 1 block 3"):
        simulate_chunk(bundle, 5, 8)  # snr point 1, blocks 1..3


def test_simulated_chunk_reaches_prepare_without_a_copy(walk):
    # _chunk_model returns a chunk in the contiguous use-major layout
    # run_idd takes, so the stack prepare_all_uses gets is a view of the
    # simulator's model: neither y nor h is copied.
    bundle = _build_bundle(_tiny_config(blocks=3))
    info, normals = _draws(bundle, 0, 3)
    model = _chunk_model(bundle, 0, info, normals)

    def shared(uses):
        return int(np.shares_memory(uses.y, model.y)) + int(np.shares_memory(uses.h, model.h))

    walk.tally(lchase, "prepare_all_uses", "shared", shared)
    run_idd(model, info, bundle.idd_cfg)
    assert walk["shared"] == 2


def _forced_singular(monkeypatch, error):
    """Make every run_idd call fail with `error`; returns the calls' block counts."""
    calls = []

    def singular(model, info, cfg, *args, **kwargs):
        calls.append(len(info))
        raise error("forced")

    monkeypatch.setattr(simcli, "run_idd", singular)
    return calls


@pytest.mark.parametrize("error", (SingularMatrixError, NotPositiveDefiniteError))
def test_singular_chunk_raises_naming_its_blocks(monkeypatch, error):
    # A chunk that meets a singular channel fails with the same error type,
    # naming its SNR point and blocks; nothing is redrawn or re-run.
    bundle = _build_bundle(_tiny_config(blocks=4))
    calls = _forced_singular(monkeypatch, error)
    with pytest.raises(error) as raised:
        simulate_chunk(bundle, 0, 4)
    assert str(raised.value) == "forced in the chunk of snr point 0 blocks 0..3"
    assert calls == [4]


def test_singular_chunk_spanning_points_names_every_part(monkeypatch):
    # A chunk holding the tail of point 0 and the head of point 1 names both.
    bundle = _build_bundle(_tiny_config(blocks=3, snr_db=(2.0, 6.0)))
    calls = _forced_singular(monkeypatch, SingularMatrixError)
    with pytest.raises(SingularMatrixError) as raised:
        simulate_chunk(bundle, 1, 5)
    assert str(raised.value) == (
        "forced in the chunk of snr point 0 blocks 1..2, snr point 1 blocks 0..1"
    )
    assert calls == [4]


@pytest.mark.parametrize(
    "workers,where",
    (
        (1, "snr point 0 blocks 0..1, snr point 1 blocks 0..1"),
        (2, "snr point 1 blocks 0..1"),
    ),
    ids=("serial", "pooled"),
)
def test_noiseless_point_fails_loudly_serial_and_pooled(workers, where):
    # Zero noise variance (SNR inf, which validate_config rejects) leaves the
    # noise covariance without a Cholesky factor. The sweep raises that
    # error with the failing chunk's parts: one chunk over both points
    # serially, one chunk per point with two workers.
    cfg = replace(_tiny_config(blocks=2, snr_db=(2.0, 6.0), workers=workers), snr_db=(2.0, np.inf))
    with pytest.raises(NotPositiveDefiniteError) as raised:
        monte_carlo(cfg)
    assert str(raised.value).endswith(f" in the chunk of {where}")


@pytest.mark.parametrize("link", ("lchase", "bchase", "lmmse", "maxlog"))
def test_chunks_straddling_points_match_point_aligned_chunks(link, monkeypatch):
    # Three points of four blocks in 3-block chunks: every chunk after the
    # first holds the tail of one point and the head of the next. The
    # records, metric_count_mean included, equal those of a sweep in which
    # each point is one chunk of its own, and so do the per-block outcomes.
    cfg = _tiny_config(snr_db=(0.0, 4.0, 8.0), blocks=4, **_CHUNK_LINKS[link])
    bundle = _build_bundle(cfg)
    per_block = simcli.block_values(cfg, bundle.n_uses)
    real_run_idd = simcli.run_idd
    calls = []

    def counted(model, info, idd_cfg, *args, **kwargs):
        calls.append(len(info))
        return real_run_idd(model, info, idd_cfg, *args, **kwargs)

    monkeypatch.setattr(simcli, "run_idd", counted)
    records, sweeps = {}, {}
    for size in (4, 3):
        monkeypatch.setattr(simcli, "CHUNK_VALUES", size * per_block)
        assert simcli.chunk_blocks(bundle) == size
        calls.clear()
        sweeps[size] = simcli.simulate_sweep(bundle)
        assert calls == [size] * (12 // size)
        records[size] = monte_carlo(cfg)
    assert records[3] == records[4]
    assert len(records[3]) == 3 * cfg.iterations
    np.testing.assert_array_equal(sweeps[3], sweeps[4])
