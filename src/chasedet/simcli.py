"""Link-level Monte Carlo simulator and its command line front end.

Each block draws a payload, encodes, interleaves, and maps it onto U channel
uses of an n_streams MIMO channel, then runs iterative detection and
decoding and scores every iteration. The grid's blocks are numbered
point-major: grid block g is block g % blocks of SNR point g // blocks.
Per-block randomness comes from SeedSequence([seed, snr_index,
block_index]): the payload, then one standard_normal call holding, use by
use, the channel's real and imaginary parts and the noise's real and
imaginary parts. Results are therefore reproducible bit for bit regardless
of worker count, and two detectors run with the same seed see identical
payloads, channels, and noise.

The grid blocks run in chunks, each a range lo..hi-1, so a chunk may hold
the tail of one point and the head of the next: every stage, from channel
draw to decoder, handles a chunk's blocks as stacked arrays in one call,
each block at its own point's SNR. The sweep keeps (grid blocks,
iterations) bit errors, and a block errs where its count is nonzero; the
detector counts come from the cost model (counters.pass_stats), once per
run. Chunk size follows from the configuration and a fixed working-set cap,
and results do not depend on it.

SNR is per-receive-antenna Es/N0 in dB: noise variance is
n_streams * 10**(-snr/10) with unit-energy streams and unit-variance
channel entries.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import deque
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .channel import (
    ChannelRealization,
    CorrelationModel,
    WhitenedModel,
    generate_channel,
    transmit,
    whiten,
)
from .codec import SUPPORTED_RATES, CodeConfig, encode, puncture
from .constellation import SUPPORTED_ORDERS, build_constellation, modulate
from .counters import pass_stats
from .errors import ConfigError, SingularMatrixError
from .idd import DETECTORS, IddConfig, run_idd, slot_bits, uses_for_block
from .reference import MAX_EXHAUSTIVE

# Largest SNR grid a 'start:step:stop' range may expand to.
MAX_SNR_POINTS = 10_000
# Largest SNR magnitude in dB. Every detector runs cleanly up to it; far
# beyond it the noise variance overflows, or a channel's QR breaks down
# mid-run.
MAX_SNR_DB = 300.0
# Most (block, iteration) bit error counts the sweep may keep over its whole
# SNR grid until the run ends: 10**7 blocks at 3 iterations fit.
MAX_GRID_TALLIES = 3 * 10**7
# Working-set cap of one chunk, in float64 values; block_values charges
# each block, and a config one block of which exceeds the cap is rejected.
CHUNK_VALUES = 1 << 20
# Decoder charge per trellis step: its path metrics, LLRs and two fixed
# branch-term buffers take 27 to 45 values per step at the simulated
# lengths. tests/test_codec.py holds a decode of a chunk under it.
STEP_VALUES = 64


@dataclass
class SimConfig:
    detector: str = "lchase"
    mod: int = 16
    n_streams: int = 2
    n_rx: int = 2
    n_tx: int = 2
    corr_tx: float = 0.0
    corr_rx: float = 0.0
    rate: float = 0.5
    snr_db: tuple = (4.0, 6.0, 8.0, 10.0, 12.0)
    blocks: int = 100
    iterations: int = 3
    info_bits: int = 64
    seed: int = 12345
    out: str = "chasedet_results.csv"
    workers: int = 1


@dataclass(frozen=True)
class SimRecord:
    snr_db: float
    iteration: int
    detector: str
    blocks: int
    block_errors: int
    bit_errors: int
    bler: float
    ber: float
    metric_count_mean: float

    def to_row(self) -> str:
        """The CSV row: floats as %.12g, ints and strings as str, in field order."""
        values = (getattr(self, f.name) for f in fields(self))
        return ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in values)


CSV_HEADER = ",".join(f.name for f in fields(SimRecord))


def parse_snr_grid(text: str) -> tuple:
    """SNR grid from 'start:step:stop' (inclusive), a comma list, or one value."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError
            start, step, stop = (float(p) for p in parts)
            if step == 0.0 or not (stop - start) / step >= 0.0:
                raise ValueError
            count = np.floor((stop - start) / step + 1e-9) + 1
            if count > MAX_SNR_POINTS:
                raise ConfigError(
                    f"SNR grid {text!r} has {count:.3g} points, more than {MAX_SNR_POINTS}"
                )
            return tuple(start + step * i for i in range(int(count)))
        return tuple(float(p) for p in text.split(","))
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"cannot parse SNR grid {text!r}") from None


# Config file keys, each also a flag (--key, '_' as '-'): the SimConfig
# field it sets, the converter its text goes through and its --help line.
# "corr" fans out to both correlation fields.
_KEY_FIELDS = {
    "detector": ("detector", str, f"one of {', '.join(DETECTORS)}"),
    "mod": ("mod", int, f"QAM order, one of {', '.join(map(str, SUPPORTED_ORDERS))}"),
    "streams": ("n_streams", int, "spatial streams"),
    "rx": ("n_rx", int, "receive antennas"),
    "tx": ("n_tx", int, "transmit antennas"),
    "corr": (("corr_tx", "corr_rx"), float, "tx and rx correlation"),
    "corr_tx": ("corr_tx", float, "tx correlation"),
    "corr_rx": ("corr_rx", float, "rx correlation"),
    "rate": ("rate", float, f"code rate, one of {', '.join(map(str, SUPPORTED_RATES))}"),
    "snr": ("snr_db", parse_snr_grid, "grid 'start:step:stop', list, or value"),
    "blocks": ("blocks", int, "blocks per SNR point"),
    "iters": ("iterations", int, "detection iterations"),
    "info_bits": ("info_bits", int, "information bits per block"),
    "seed": ("seed", int, "master seed"),
    "out": ("out", str, "output CSV path"),
    "workers": ("workers", int, "worker processes"),
}


def _apply_key(values: dict, key: str, raw, where: str) -> None:
    if key not in _KEY_FIELDS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    dest, conv, _ = _KEY_FIELDS[key]
    try:
        value = conv(raw) if isinstance(raw, str) else raw
    except ConfigError:
        raise
    except (ValueError, TypeError):
        raise ConfigError(f"{where}: invalid value for {key}: {raw!r}") from None
    for name in dest if isinstance(dest, tuple) else (dest,):
        values[name] = value


def load_config_file(path: str) -> list:
    """Parse a 'key = value' file into (lineno, key, raw_value) entries."""
    entries = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path} line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if not key or not raw:
            raise ConfigError(f"{path} line {lineno}: expected 'key = value'")
        entries.append((lineno, key, raw))
    return entries


def validate_config(cfg: SimConfig) -> SimConfig:
    """Return cfg, or raise ConfigError naming what is wrong with it. The
    types the run builds check the detector, mod, correlations and rate."""
    if cfg.n_streams < 1:
        raise ConfigError("streams must be positive")
    if cfg.n_tx < cfg.n_streams or cfg.n_rx < cfg.n_streams:
        raise ConfigError("need tx >= streams and rx >= streams")
    if not cfg.snr_db:
        raise ConfigError("SNR grid is empty")
    if not (np.abs(cfg.snr_db) <= MAX_SNR_DB).all():
        raise ConfigError(f"SNR values must be finite and within +-{MAX_SNR_DB:g} dB")
    if cfg.blocks < 1 or cfg.iterations < 1 or cfg.info_bits < 1:
        raise ConfigError("blocks, iters, and info_bits must be positive")
    if cfg.seed < 0:
        raise ConfigError("seed must not be negative")
    tallies = len(cfg.snr_db) * cfg.blocks * cfg.iterations
    if tallies > MAX_GRID_TALLIES:
        raise ConfigError(
            f"{len(cfg.snr_db)} SNR points x {cfg.blocks} blocks x {cfg.iterations} "
            f"iterations make {tallies} tallies, more than {MAX_GRID_TALLIES}"
        )
    if cfg.workers < 1:
        raise ConfigError("workers must be positive")
    cpus = os.cpu_count() or 1
    if cfg.workers > cpus:
        raise ConfigError(f"workers must not exceed the {cpus} CPUs of this machine")
    if block_values(cfg, _build_bundle(cfg).n_uses) > CHUNK_VALUES:
        raise ConfigError(f"one block exceeds the chunk cap of {CHUNK_VALUES} float64 values")
    if cfg.detector == "maxlog" and cfg.mod**cfg.n_streams > MAX_EXHAUSTIVE:
        raise ConfigError(
            f"maxlog needs mod**streams <= {MAX_EXHAUSTIVE}, "
            f"got {cfg.mod}**{cfg.n_streams}"
        )
    return cfg


def build_config(config_path: str | None, overrides: dict) -> SimConfig:
    """Defaults, then config file entries in order, then explicit flags."""
    values = asdict(SimConfig())
    if config_path is not None:
        for lineno, key, raw in load_config_file(config_path):
            _apply_key(values, key, raw, f"{config_path} line {lineno}")
    for key, value in overrides.items():
        if value is not None:
            _apply_key(values, key, value, f"flag --{key.replace('_', '-')}")
    return validate_config(SimConfig(**values))


@dataclass
class _Bundle:
    cfg: SimConfig
    idd_cfg: IddConfig
    corr: CorrelationModel
    n_uses: int
    sigma: np.ndarray  # (points,) noise standard deviation of each SNR point


def _build_bundle(cfg: SimConfig) -> _Bundle:
    idd_cfg = IddConfig(
        constellation=build_constellation(cfg.mod),
        code=CodeConfig(cfg.info_bits, cfg.rate),
        detector=cfg.detector,
        iterations=cfg.iterations,
        interleaver_seed=cfg.seed,
    )
    return _Bundle(
        cfg=cfg,
        idd_cfg=idd_cfg,
        corr=CorrelationModel(rho_tx=cfg.corr_tx, rho_rx=cfg.corr_rx),
        n_uses=uses_for_block(idd_cfg.code, idd_cfg.constellation, cfg.n_streams),
        sigma=np.sqrt([cfg.n_streams * 10.0 ** (-snr_db / 10.0) for snr_db in cfg.snr_db]),
    )


def block_values(cfg: SimConfig, n_uses: int) -> int:
    """Float64 values a block of n_uses channel uses is charged in a chunk:
    per use its candidate metrics and its normals, channel, observation and
    noise arrays; per block its decoder and its bit error count of every
    iteration.
    tests/test_simcli.py holds a chunk's channel stage under it. Nothing is
    charged for the Chase detectors' prepare stage, whose peak over a full
    chunk is about 0.8 of the chunk's whole charge at 4 streams and 7 to
    38 times it at 16 to 64 streams (README, "Chunk size")."""
    per_use = cfg.n_streams * cfg.mod + 6 * cfg.n_rx * (cfg.n_tx + cfg.n_streams + 2)
    return n_uses * per_use + STEP_VALUES * (cfg.info_bits + 2) + cfg.iterations


def chunk_blocks(bundle: _Bundle) -> int:
    """Blocks per chunk under the CHUNK_VALUES working-set cap, at least one."""
    return max(1, CHUNK_VALUES // block_values(bundle.cfg, bundle.n_uses))


def _draws(bundle: _Bundle, lo: int, hi: int) -> tuple:
    """Payloads (B, K) and standard normals of grid blocks lo..hi-1: each
    block's generator writes its payload, then its normals, into its own
    row of the two arrays."""
    cfg = bundle.cfg
    info = np.empty((hi - lo, cfg.info_bits), dtype=np.int8)
    normals = np.empty((hi - lo, bundle.n_uses * 2 * cfg.n_rx * (cfg.n_tx + 1)))
    for row, g in enumerate(range(lo, hi)):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, *divmod(g, cfg.blocks)]))
        info[row] = rng.integers(0, 2, cfg.info_bits, dtype=np.int8)
        rng.standard_normal(out=normals[row])
    return info, normals


def _chunk_model(
    bundle: _Bundle, lo: int, info: np.ndarray, normals: np.ndarray
) -> WhitenedModel:
    """Whitened observations of grid blocks lo..lo+B-1 in run_idd's layout,
    each at its point's noise deviation, from their payloads and normals.

    A non-finite entry anywhere in the chunk raises a FloatingPointError
    naming the point and block of the first block that holds one."""
    cfg, idd_cfg = bundle.cfg, bundle.idd_cfg
    c, code = idd_cfg.constellation, idd_cfg.code
    n_blocks, n_uses, n_rx = len(info), bundle.n_uses, cfg.n_rx
    sigma = bundle.sigma[np.arange(lo, lo + n_blocks) // cfg.blocks]

    tx_bits = puncture(encode(info, code), code)[:, idd_cfg.interleaver]
    symbols = modulate(slot_bits(tx_bits, c, cfg.n_streams), c).swapaxes(0, 1)
    per_use = normals.reshape(n_blocks, n_uses, -1).swapaxes(0, 1)
    split = 2 * n_rx * cfg.n_tx
    hbar = generate_channel(
        n_rx, cfg.n_tx, bundle.corr,
        per_use[..., :split].reshape(n_uses, n_blocks, 2, n_rx, cfg.n_tx),
    )
    # The streams go out on the first n_streams transmit antennas.
    ch = ChannelRealization(hbar[..., : cfg.n_streams], sigma)
    y = transmit(ch, symbols, per_use[..., split:].reshape(n_uses, n_blocks, 2, n_rx))
    # A zero or infinite sigma (SNR +-inf, which validate_config rejects)
    # whitens to values the finite check reports with their block.
    with np.errstate(divide="ignore", invalid="ignore"):
        model = whiten(y, ch)
    if not (np.isfinite(model.y).all() and np.isfinite(model.h).all()):
        finite = np.isfinite(model.y).all(axis=(0, 2)) & np.isfinite(model.h).all(axis=(0, 2, 3))
        point, block = divmod(lo + int(np.argmin(finite)), cfg.blocks)
        raise FloatingPointError(
            f"non-finite whitened channel or observation at snr point {point} block {block}"
        )
    return model


def simulate_chunk(bundle: _Bundle, lo: int, hi: int) -> np.ndarray:
    """Grid blocks lo..hi-1, run as one stack.

    Returns their (blocks, iterations) bit errors. A singular channel
    anywhere in the chunk re-raises its error, naming each SNR point of the
    chunk and its blocks.
    """
    info, normals = _draws(bundle, lo, hi)
    try:
        result = run_idd(_chunk_model(bundle, lo, info, normals), info, bundle.idd_cfg)
    except SingularMatrixError as exc:
        per = bundle.cfg.blocks
        where = ", ".join(
            f"snr point {p} blocks {max(lo - p * per, 0)}..{min(hi - p * per, per) - 1}"
            for p in range(lo // per, (hi - 1) // per + 1)
        )
        raise type(exc)(f"{exc} in the chunk of {where}") from exc
    return result.iter_bit_errors


_WORKER_BUNDLE = None


def _init_worker(cfg: SimConfig) -> None:
    global _WORKER_BUNDLE
    _WORKER_BUNDLE = _build_bundle(cfg)


def _pool_chunk(lo: int, hi: int) -> np.ndarray:
    return simulate_chunk(_WORKER_BUNDLE, lo, hi)


def _pooled(pool, chunks, window: int):
    """(lo, outcome) of every (lo, hi) chunk in grid order, run on the pool
    with at most `window` chunks submitted and not yet collected. A chunk
    that fails cancels the ones still queued, as Executor.map does."""
    in_flight = deque()
    try:
        for lo, hi in chunks:
            in_flight.append((lo, pool.submit(_pool_chunk, lo, hi)))
            if len(in_flight) == window:
                first, future = in_flight.popleft()
                yield first, future.result()
        while in_flight:
            first, future = in_flight.popleft()
            yield first, future.result()
    finally:
        for _, future in in_flight:
            future.cancel()


def simulate_sweep(bundle: _Bundle, pool=None) -> np.ndarray:
    """Every block of the SNR grid, chunk by chunk.

    Grid block g is block g % blocks of SNR point g // blocks, and a chunk
    is a range of grid blocks, so it may span points; each is cut only when
    it is about to run. A pool gets at least as many chunks as workers and
    runs them with no barrier between points, two per worker in flight.
    Returns the (grid blocks, iterations) bit errors.
    """
    cfg = bundle.cfg
    n_blocks = len(cfg.snr_db) * cfg.blocks
    size = chunk_blocks(bundle)
    if pool is not None:
        size = min(size, -(-n_blocks // cfg.workers))
    chunks = ((lo, min(lo + size, n_blocks)) for lo in range(0, n_blocks, size))
    if pool is None:
        done = ((lo, simulate_chunk(bundle, lo, hi)) for lo, hi in chunks)
    else:
        done = _pooled(pool, chunks, 2 * cfg.workers)
    bit_errors = np.zeros((n_blocks, cfg.iterations), dtype=np.int64)
    for lo, chunk_bit_errors in done:
        bit_errors[lo : lo + len(chunk_bit_errors)] = chunk_bit_errors
    return bit_errors


def monte_carlo(cfg: SimConfig) -> list:
    """Sweep the SNR grid; returns SimRecords, grid-major, iteration-minor."""
    bundle = _build_bundle(cfg)
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(cfg.workers, initializer=_init_worker, initargs=(cfg,)) as pool:
            bit_errors = simulate_sweep(bundle, pool)
    else:
        bit_errors = simulate_sweep(bundle)
    c = bundle.idd_cfg.constellation  # every pass costs the same per stream
    metric_count = pass_stats(cfg.detector, cfg.n_streams, c, bundle.n_uses).metrics_per_stream

    shape = (len(cfg.snr_db), cfg.blocks, cfg.iterations)
    block_errors = (bit_errors > 0).reshape(shape).sum(axis=1).tolist()
    bit_errors = bit_errors.reshape(shape).sum(axis=1).tolist()
    records = []
    for p, snr_db in enumerate(cfg.snr_db):
        for t, (errors, bits) in enumerate(zip(block_errors[p], bit_errors[p])):
            records.append(
                SimRecord(
                    snr_db, t + 1, cfg.detector, cfg.blocks, errors, bits,
                    errors / cfg.blocks, bits / (cfg.blocks * cfg.info_bits),
                    metric_count,
                )
            )
    return records


def config_lines(cfg: SimConfig) -> list:
    """'key = value' lines that, as a --config file, rebuild cfg up to its
    out path and worker count: one per key that sets one field, SNRs written
    exactly. Neither of those two changes a result, and the worker count
    depends on the machine, so the lines are the same wherever the run was."""
    lines = []
    for key, (dest, _, _) in _KEY_FIELDS.items():
        if isinstance(dest, str) and key not in ("out", "workers"):
            value = getattr(cfg, dest)
            if key == "snr":
                value = ",".join(map(str, value))
            lines.append(f"{key} = {value}")
    return lines


def write_csv(records, path, header_comments=()) -> None:
    lines = [f"# {comment}" for comment in header_comments]
    lines.append(CSV_HEADER)
    lines.extend(record.to_row() for record in records)
    Path(path).write_text("\n".join(lines) + "\n")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chasedet",
        description="Monte Carlo link simulation of iterative MIMO "
        "detection and decoding.",
    )
    parser.add_argument("--config", help="key = value config file")
    for key, (_, _, text) in _KEY_FIELDS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, help=text)
    return parser


def main(argv=None) -> int:
    args = vars(_make_parser().parse_args(argv))
    config_path = args.pop("config")
    try:
        cfg = build_config(config_path, args)
        out = Path(cfg.out)
        if out.is_dir() or not out.parent.is_dir():
            raise ConfigError(f"cannot write {cfg.out}: not a file in an existing directory")
        records = monte_carlo(cfg)
        write_csv(records, cfg.out, header_comments=config_lines(cfg))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final = [r for r in records if r.iteration == cfg.iterations]
    for rec in final:
        print(
            f"snr {rec.snr_db:.12g} dB  iter {rec.iteration}  "
            f"bler {rec.bler:.4g}  ber {rec.ber:.4g}"
        )
    print(f"wrote {cfg.out} ({len(records)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit("error: chasedet.simcli has no entry point; run 'python -m chasedet'")
