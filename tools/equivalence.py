"""Bit-for-bit equivalence of detector outputs between two source trees.

    python3 tools/equivalence.py --base HEAD

Exports <rev> with `git archive` and runs one fixed grid of detections in
that tree and in the working tree, each in its own process, then compares
every array of the two with array_equal and signbit. Each array that
differs is listed with its largest relative difference; the exit status
is 1 if any array differs, else 0.

The grid: lchase and bchase LLRs at orders 4 to 256, n = 1, 2, 3, 4 and 6
streams, n or n + 2 receive antennas, four kinds of a priori LLRs (zero,
Cauchy, {0, +-LLR_CLIP}, and integers with some -0.0) and slices of 1, 5
and all contexts; the LMMSE LLRs of every (order, n, rx) point; and the
IDD loop over simulated chunks of 1 and 3 blocks on three links (LINKS),
each pass's decoder input and extrinsic output and the chunk's bit errors.
It uses only names both trees must keep: prepare_all_uses,
detect_all_uses, context_values and chase.SLICE_VALUES,
reference.lmmse_llrs, and simcli's SimConfig, _build_bundle and
simulate_chunk with the idd.bcjr_decode they call.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ORDERS = (4, 16, 64, 256)
STREAMS = (1, 2, 3, 4, 6)
PRIORS = ("zero", "cauchy", "clipped", "rounded")
CAPS = (1, 5, None)  # contexts per slice; None: every context in one slice
# (name, SimConfig fields, detectors) of the IDD links. Each pads the last
# use of a block: 12 slots at 4x4 16-QAM rate 0.5, 16 at 4x4 64-QAM rate
# 0.83 (0.9 correlation) and 3 at 2x2 QPSK with K = 512.
LINKS = (
    ("4x4-16qam", dict(mod=16, n_streams=4, n_rx=4, n_tx=4, rate=0.5, snr_db=(10.0,)),
     ("lchase", "bchase")),
    ("4x4-64qam", dict(mod=64, n_streams=4, n_rx=4, n_tx=4, corr_tx=0.9, corr_rx=0.9,
                       rate=0.83, snr_db=(32.0,)),
     ("lchase", "bchase")),
    ("2x2-qpsk-k512", dict(mod=4, n_streams=2, n_rx=2, n_tx=2, rate=0.83, info_bits=512,
                           snr_db=(10.0,)),
     ("lchase", "bchase", "lmmse")),
)
CHUNKS = (1, 3)  # blocks per chunk
ITERATIONS = 3


def _priors(rng, kind: str, shape, clip: float) -> np.ndarray:
    if kind == "cauchy":
        return np.clip(3.0 * rng.standard_cauchy(shape), -clip, clip)
    if kind == "clipped":
        return clip * rng.choice((-1.0, 0.0, 1.0), shape)
    if kind == "rounded":
        la = np.round(rng.normal(scale=3.0, size=shape))
        return np.where((la == 0.0) & (rng.random(shape) < 0.5), -0.0, la)
    return np.zeros(shape)


def grid() -> dict:
    """Every array of the grid by name, from the chasedet on sys.path."""
    return {**_detections(), **_chunks()}


def _chunks() -> dict:
    """Per IDD link, detector and chunk size: each pass's decoder input
    ("/pass<k>/channel") and extrinsic output ("/pass<k>/extrinsic"), and
    the chunk's (blocks, iterations) bit errors."""
    from chasedet import idd, simcli

    arrays, passes = {}, []
    decode = idd.bcjr_decode

    def recorded(*args, **kwargs):
        out = decode(*args, **kwargs)
        passes.append((np.array(args[0]), out[0]))  # the input may be reused
        return out

    idd.bcjr_decode = recorded
    try:
        for link, fields, detectors in LINKS:
            for detector in detectors:
                for blocks in CHUNKS:
                    key = f"idd/{link}/{detector}/B{blocks}"
                    passes.clear()
                    cfg = simcli.SimConfig(
                        detector=detector, blocks=blocks, iterations=ITERATIONS, **fields
                    )
                    errors = simcli.simulate_chunk(simcli._build_bundle(cfg), 0, blocks)
                    arrays[f"{key}/bit_errors"] = errors
                    for k, (channel, extrinsic) in enumerate(passes):
                        arrays[f"{key}/pass{k}/channel"] = channel
                        arrays[f"{key}/pass{k}/extrinsic"] = extrinsic
    finally:
        idd.bcjr_decode = decode
    return arrays


def _detections() -> dict:
    """Detector LLRs of every (order, streams, rx, priors, cap) point."""
    from chasedet import bchase, chase, lchase
    from chasedet.channel import WhitenedModel
    from chasedet.constellation import build_constellation
    from chasedet.llr import LLR_CLIP
    from chasedet.reference import lmmse_llrs

    arrays = {}
    slice_values = chase.SLICE_VALUES
    try:
        for order in ORDERS:
            c = build_constellation(order)
            for n in STREAMS:
                for rx in (n, n + 2):
                    rng = np.random.default_rng([order, n, rx])
                    uses = 2
                    shape = (uses, rx, n)
                    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 2.0
                    s = c.symbols[rng.integers(0, order, (uses, n))]
                    noise = rng.standard_normal((uses, rx)) + 1j * rng.standard_normal((uses, rx))
                    model = WhitenedModel(y=np.einsum("urt,ut->ur", h, s) + noise, h=h)
                    point = f"{order}qam/n{n}/rx{rx}"
                    arrays[f"lmmse/{point}"] = lmmse_llrs(model, c)
                    for detector in (lchase, bchase):
                        name = detector.__name__.rpartition(".")[2]
                        contexts = detector.prepare_all_uses(model)
                        charge = (
                            detector.context_values(c, n)
                            if detector is bchase
                            else detector.context_values(c)
                        )
                        for kind in PRIORS:
                            la = _priors(rng, kind, (uses, n, c.bits_per_symbol), LLR_CLIP)
                            for cap in CAPS:
                                chase.SLICE_VALUES = slice_values if cap is None else cap * charge
                                key = f"{name}/{point}/{kind}/cap{cap or 'all'}"
                                arrays[key] = detector.detect_all_uses(contexts, c, la)
    finally:
        chase.SLICE_VALUES = slice_values
    return arrays


def compare(base: dict, change: dict) -> list:
    """(name, what differs) for every array that is not the same in both,
    array_equal and signbit, NaNs equal where they sit alike."""
    found = []
    for name in sorted(base.keys() | change.keys()):
        if name not in base or name not in change:
            found.append((name, "only in " + ("change" if name in change else "base")))
            continue
        a, b = base[name], change[name]
        if a.shape != b.shape:
            found.append((name, f"shape {a.shape} -> {b.shape}"))
        elif not np.array_equal(a, b, equal_nan=True):
            with np.errstate(invalid="ignore", divide="ignore"):
                rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
            found.append((name, f"largest relative difference {np.nanmax(rel):.3g}"))
        elif not np.array_equal(np.signbit(a), np.signbit(b)):
            found.append((name, f"{np.count_nonzero(np.signbit(a) != np.signbit(b))} signs differ"))
    return found


def _run_grid(src: Path, out: Path) -> dict:
    """The grid run by the chasedet under src, in a process of its own."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--dump", str(out), "--src", str(src)]
    subprocess.run(cmd, check=True, env=env)
    with np.load(out) as data:
        return dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare the working tree with")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.dump:
        sys.path.insert(0, args.src)
        import chasedet

        if not Path(chasedet.__file__).resolve().is_relative_to(Path(args.src).resolve()):
            raise SystemExit(f"chasedet imported from {chasedet.__file__}, not {args.src}")
        np.savez(args.dump, **grid())
        return 0
    if not args.base:
        parser.error("--base is required")

    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        tree.mkdir()
        archive = Path(tmp) / "base.tar"
        subprocess.run(
            ["git", "-C", str(ROOT), "archive", "-o", str(archive), args.base], check=True
        )
        with tarfile.open(archive) as tar:
            tar.extractall(tree)
        base = _run_grid(tree / "src", Path(tmp) / "base.npz")
        change = _run_grid(ROOT / "src", Path(tmp) / "change.npz")

    found = compare(base, change)
    for name, what in found:
        print(f"{name}: {what}")
    print(f"{len(base.keys() | change.keys())} arrays compared against {args.base}: {len(found)} differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
