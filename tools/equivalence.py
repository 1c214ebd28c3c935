"""Bit-for-bit equivalence of detector and decoder arrays between two trees.

    python3 tools/equivalence.py --base HEAD

Exports <rev> with `git archive` and runs one fixed grid in that tree and
in the working tree, each in its own process, then compares every array of
the two with array_equal and signbit. Each array that differs is listed
with its largest relative difference; the exit status is 1 if any array
differs, else 0.

The grid:
- detector points: orders 4 to 256 at n = 1, 2, 3, 4 and 6 streams, and
  QPSK and 16-QAM at n = 8, each with n or n + 2 receive antennas and
  three observations of USES uses: noisy, noiseless (y = h s), and noisy
  with the last channel column nearly collinear with the first;
- at each point: every field of the lchase and bchase contexts from
  prepare_all_uses; the LMMSE LLRs; and the lchase, bchase and, where
  M**n <= MAXLOG_HYPOTHESES, max-log LLRs in one slice, under four kinds
  of a priori LLRs (zero, Cauchy, {0, +-LLR_CLIP}, and integers with some
  -0.0) on the noisy observation and under the SLICED kind on the others;
- on the noisy observation, lchase and bchase LLRs also in slices of 1
  and 5 contexts under every prior kind; and under the SLICED kind with
  dead tails (the last use of every even stream not live, see live_uses)
  in slices of 1 and all contexts;
- the IDD loop over simulated chunks of 1 and 3 blocks on three links
  (LINKS): the chunk's whitened uses as run_idd stacks them for
  lchase.prepare_all_uses, each pass's decoder input and extrinsic output,
  and the chunk's bit errors;
- bcjr_decode's three outputs at K = 1, 64 and 512, both rates, stacks
  of 1, 2 and 17 blocks, on Cauchy, small-integer and signed-zero channel
  LLRs (DECODER_LLRS), punctured positions 0.
It uses only names both trees must keep: prepare_all_uses,
detect_all_uses, context_values and chase.SLICE_VALUES, reference's
lmmse_llrs, maxlog_factors and maxlog_llrs, codec's CodeConfig and
bcjr_decode, and simcli's SimConfig, _build_bundle and simulate_chunk
with the idd.bcjr_decode and lchase.prepare_all_uses they call.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ORDERS = (4, 16, 64, 256)
STREAMS = (1, 2, 3, 4, 6)
WIDE_ORDERS = (4, 16)  # also run at n = 8
OBSERVATIONS = ("noisy", "noiseless", "collinear")
USES = 2
PRIORS = ("zero", "cauchy", "clipped", "rounded")
SLICED = "cauchy"  # the prior kind also detected with dead tails and on the other observations
CAPS = (1, 5, None)  # contexts per slice; None: every context in one slice
TAIL_CAPS = (1, None)  # the dead-tail runs' slice caps
MAXLOG_HYPOTHESES = 1 << 12
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
DECODER_LENGTHS = (1, 64, 512)
DECODER_STACKS = (1, 2, 17)
DECODER_LLRS = ("cauchy", "integer", "zeros")


def _llrs(rng, kind: str, shape, clip: float) -> np.ndarray:
    """LLRs of one kind: zero, Cauchy (some at +-clip), {0, +-clip},
    integers with some -0.0, small integers (-2 to 2, so decoder paths tie
    exactly), or signed zeros at about half the positions and in all of the
    first row (so whole decoder steps carry only +-0.0)."""
    if kind == "cauchy":
        return np.clip(3.0 * rng.standard_cauchy(shape), -clip, clip)
    if kind == "clipped":
        return clip * rng.choice((-1.0, 0.0, 1.0), shape)
    if kind == "rounded":
        la = np.round(rng.normal(scale=3.0, size=shape))
        return np.where((la == 0.0) & (rng.random(shape) < 0.5), -0.0, la)
    if kind == "integer":
        return rng.integers(-2, 3, shape).astype(float)
    if kind == "zeros":
        zeros = rng.choice((-0.0, 0.0), shape)
        llrs = np.where(rng.random(shape) < 0.5, zeros, rng.normal(scale=3.0, size=shape))
        llrs.reshape(-1, shape[-1])[0] = zeros.reshape(-1, shape[-1])[0]
        return llrs
    return np.zeros(shape)


def points() -> list:
    """(order, streams) of every detector point."""
    return [(o, n) for o in ORDERS for n in STREAMS] + [(o, 8) for o in WIDE_ORDERS]


def live_uses(n: int) -> np.ndarray:
    """Live leading uses of each of n streams in the dead-tail runs."""
    return np.where(np.arange(n) % 2, USES, USES - 1)


def grid() -> dict:
    """Every array of the grid by name, from the chasedet on sys.path."""
    return {**_detections(), **_chunks(), **_decodes()}


def _chunks() -> dict:
    """Per IDD link and chunk size: the chunk's (U*B, ...) whitened y and h
    that run_idd hands lchase.prepare_all_uses; and per detector each
    pass's decoder input ("/pass<k>/channel") and extrinsic output
    ("/pass<k>/extrinsic"), and the chunk's (blocks, iterations) bit
    errors."""
    from chasedet import idd, lchase, simcli

    arrays, passes, stacks = {}, [], []
    decode, prepare = idd.bcjr_decode, lchase.prepare_all_uses

    def recorded(*args, **kwargs):
        out = decode(*args, **kwargs)
        passes.append((np.array(args[0]), out[0]))  # the input may be reused
        return out

    def prepared(uses):
        stacks.append(uses)
        return prepare(uses)

    idd.bcjr_decode, lchase.prepare_all_uses = recorded, prepared
    try:
        for link, link_fields, detectors in LINKS:
            for blocks in CHUNKS:
                cfg = simcli.SimConfig(blocks=blocks, iterations=ITERATIONS, **link_fields)
                for detector in detectors:
                    key = f"idd/{link}/{detector}/B{blocks}"
                    passes.clear()
                    bundle = simcli._build_bundle(replace(cfg, detector=detector))
                    errors = simcli.simulate_chunk(bundle, 0, blocks)
                    arrays[f"{key}/bit_errors"] = errors
                    for k, (channel, extrinsic) in enumerate(passes):
                        arrays[f"{key}/pass{k}/channel"] = channel
                        arrays[f"{key}/pass{k}/extrinsic"] = extrinsic
                (uses,) = stacks  # every link runs lchase
                stacks.clear()
                arrays[f"chunk/{link}/B{blocks}/y"] = uses.y
                arrays[f"chunk/{link}/B{blocks}/h"] = uses.h
    finally:
        idd.bcjr_decode, lchase.prepare_all_uses = decode, prepare
    return arrays


def _observation(rng, kind: str, c, n: int, rx: int):
    """USES uses of y = h s, plus CN(0, 2) noise unless noiseless, h with
    entries of variance 8; if collinear, h's last column is its first plus
    1e-6 times a draw (at n = 1, the one column scaled by 1 + 1e-6)."""
    from chasedet.channel import WhitenedModel

    shape = (USES, rx, n)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 2.0
    if kind == "collinear":
        h[..., -1] = h[..., 0] + 1e-6 * h[..., -1]
    s = c.symbols[rng.integers(0, c.order, (USES, n))]
    y = np.einsum("urt,ut->ur", h, s)
    if kind != "noiseless":
        y += rng.standard_normal((USES, rx)) + 1j * rng.standard_normal((USES, rx))
    return WhitenedModel(y=y, h=h)


def _detections() -> dict:
    """Context fields and detector LLRs of every point and observation."""
    from chasedet import bchase, chase, lchase
    from chasedet.constellation import build_constellation
    from chasedet.llr import LLR_CLIP
    from chasedet.reference import lmmse_llrs, maxlog_factors, maxlog_llrs

    arrays = {}
    slice_values = chase.SLICE_VALUES
    try:
        for order, n in points():
            c = build_constellation(order)
            tails = live_uses(n)
            for rx in (n, n + 2):
                for obs in OBSERVATIONS:
                    rng = np.random.default_rng([order, n, rx, OBSERVATIONS.index(obs)])
                    model = _observation(rng, obs, c, n, rx)
                    shape = (USES, n, c.bits_per_symbol)
                    kinds = PRIORS if obs == "noisy" else (SLICED,)
                    priors = {kind: _llrs(rng, kind, shape, LLR_CLIP) for kind in kinds}
                    point = f"{order}qam/n{n}/rx{rx}/{obs}"
                    arrays[f"lmmse/{point}"] = lmmse_llrs(model, c)
                    if order**n <= MAXLOG_HYPOTHESES:
                        factors = maxlog_factors(model)
                        for kind, la in priors.items():
                            arrays[f"maxlog/{point}/{kind}"] = maxlog_llrs(factors, c, la)
                    for detector in (lchase, bchase):
                        name = detector.__name__.rpartition(".")[2]
                        contexts = detector.prepare_all_uses(model)
                        for field in fields(contexts):
                            arrays[f"{name}/{point}/context/{field.name}"] = getattr(
                                contexts, field.name
                            )
                        charge = (
                            detector.context_values(c, n)
                            if detector is bchase
                            else detector.context_values(c)
                        )
                        for kind, la in priors.items():
                            runs = [(None, None)]
                            if obs == "noisy":
                                runs = [(cap, None) for cap in CAPS]
                                if kind == SLICED:
                                    runs += [(cap, tails) for cap in TAIL_CAPS]
                            for cap, live in runs:
                                chase.SLICE_VALUES = slice_values if cap is None else cap * charge
                                key = f"{name}/{point}/{kind}{'/tails' * (live is not None)}"
                                arrays[f"{key}/cap{cap or 'all'}"] = detector.detect_all_uses(
                                    contexts, c, la, live
                                )
    finally:
        chase.SLICE_VALUES = slice_values
    return arrays


def _decodes() -> dict:
    """bcjr_decode's extrinsic, info-bit LLRs and hard bits of every
    (length, rate, LLR kind, stack) point."""
    from chasedet.codec import SUPPORTED_RATES, CodeConfig, bcjr_decode
    from chasedet.llr import LLR_CLIP

    arrays = {}
    for info_len in DECODER_LENGTHS:
        for rate in SUPPORTED_RATES:
            code = CodeConfig(info_len, rate)
            keep = code.keep_mask()
            rng = np.random.default_rng([info_len, SUPPORTED_RATES.index(rate)])
            for kind in DECODER_LLRS:
                for blocks in DECODER_STACKS:
                    channel = np.zeros((blocks, code.coded_len))
                    channel[:, keep] = _llrs(rng, kind, (blocks, int(keep.sum())), LLR_CLIP)
                    outputs = bcjr_decode(channel, None, code)
                    key = f"bcjr/K{info_len}/rate{rate}/{kind}/B{blocks}"
                    for part, out in zip(("extrinsic", "info", "hard"), outputs):
                        arrays[f"{key}/{part}"] = out
    return arrays


def compare(base: dict, change: dict) -> list:
    """(name, what differs) for every array that is not the same in both,
    array_equal and signbit (of both parts of a complex array), NaNs equal
    where they sit alike."""
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
        elif not np.array_equal(_signs(a), _signs(b)):
            found.append((name, f"{np.count_nonzero(_signs(a) != _signs(b))} signs differ"))
    return found


def _signs(a: np.ndarray) -> np.ndarray:
    """Sign bits of a real array, or of a complex one's real and imaginary parts."""
    return np.signbit(np.stack([a.real, a.imag]) if np.iscomplexobj(a) else a)


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
