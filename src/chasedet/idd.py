"""Iterative detection and decoding over a chunk of code blocks.

Each code block is spread over U channel uses of an n_l-stream whitened MIMO
model: the transmitted (interleaved, punctured) codeword fills the bit slots
use by use, stream 0 bits 0..q-1 first, then stream 1, and so on; leftover
slots in the last use are padded with zero bits. Each iteration runs the
soft-input detector on every use, sends its extrinsic output into the
decoder at each transmitted bit's mother-codeword position (so punctured
positions read 0), and sends the decoder's extrinsic output at those
positions back as the next round of detector a priori LLRs.

A chunk of blocks runs through that loop as stacked arrays: every block's
uses go through one detector call and every block's codeword through one
decoder call per iteration, and each block's results equal those of running
it alone. All four detectors sit behind one (prepare, detect) table. The
chunk is laid out use-major, (U, B, ...), so its uses stack as row u*B + b
for use u of block b, and each stream's padding-only targets (in a block's
last use) are the tail of its rows: they are prepared but never detected,
and their LLRs stay 0.
Transmitted bit t sits in slot t % (n_l*q) of use t // (n_l*q) in every
block's rows, so each direction of a pass is one gather and one scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bchase, lchase
from .channel import WhitenedModel
from .codec import CodeConfig, bcjr_decode, make_interleaver
from .constellation import Constellation
from .counters import pass_stats
from .errors import ConfigError
from .llr import saturate
from .reference import lmmse_llrs, maxlog_factors, maxlog_llrs

# Detector name -> (prepare(uses), detect(prepared, c, la, live) -> LLRs shaped
# like la), over a stack of uses; maxlog and lmmse detect every use, live or
# not. The lambdas look functions up at call time.
_DETECT = {
    "lchase": (lambda uses: lchase.prepare_all_uses(uses), lambda *a: lchase.detect_all_uses(*a)),
    "bchase": (lambda uses: bchase.prepare_all_uses(uses), lambda *a: bchase.detect_all_uses(*a)),
    "maxlog": (lambda uses: maxlog_factors(uses), lambda f, c, la, live: maxlog_llrs(f, c, la)),
    "lmmse": (lambda uses: uses, lambda uses, c, la, live: lmmse_llrs(uses, c)),
}
DETECTORS = tuple(_DETECT)


@dataclass(frozen=True)
class IddConfig:
    constellation: Constellation
    code: CodeConfig
    detector: str = "lchase"
    iterations: int = 3
    interleaver_seed: int = 0

    def __post_init__(self) -> None:
        if self.detector not in DETECTORS:
            raise ConfigError(f"unknown detector {self.detector!r}")
        if self.iterations < 1:
            raise ConfigError("iterations must be positive")

    @cached_property
    def interleaver(self) -> np.ndarray:
        """The bit interleaver over one transmitted codeword: transmitted
        bit t is bit interleaver[t] of the punctured codeword."""
        return make_interleaver(self.code.transmitted_len, self.interleaver_seed)

    @cached_property
    def positions(self) -> np.ndarray:
        """Mother-codeword position of each transmitted bit, in send order."""
        return np.flatnonzero(self.code.keep_mask())[self.interleaver]


@dataclass
class IddResult:
    """Per-iteration outcomes of a chunk of B blocks: each block's info-bit
    errors, the only decoder output kept, and each iteration's detector
    counts over the chunk, from counters.pass_stats."""

    iter_bit_errors: np.ndarray  # (B, iterations) int
    iter_stats: list  # DetectorStats per iteration


def uses_for_block(code: CodeConfig, c: Constellation, n_streams: int) -> int:
    """Channel uses needed to carry one transmitted codeword."""
    return -(-code.transmitted_len // (n_streams * c.bits_per_symbol))


def slot_bits(tx_bits: np.ndarray, c: Constellation, n_streams: int) -> np.ndarray:
    """Lay transmitted bits into (U, n_streams, q) slots, zero padded.

    A stack (..., n_bits) of codewords gives (..., U, n_streams, q).
    """
    tx_bits = np.asarray(tx_bits)
    lead, n_bits = tx_bits.shape[:-1], tx_bits.shape[-1]
    uses = -(-n_bits // (n_streams * c.bits_per_symbol))
    slots = np.zeros(lead + (uses * n_streams * c.bits_per_symbol,), dtype=np.int8)
    slots[..., :n_bits] = tx_bits
    return slots.reshape(lead + (uses, n_streams, c.bits_per_symbol))


def live_uses(n_bits: int, c: Constellation, n_streams: int) -> np.ndarray:
    """Leading uses (n_streams,) of each stream that carry at least one of
    n_bits transmitted bits in slot_bits' layout; the rest are padding."""
    q = c.bits_per_symbol
    return -(-(n_bits - q * np.arange(n_streams)) // (n_streams * q))


def run_idd(model: WhitenedModel, info_bits: np.ndarray, cfg: IddConfig) -> IddResult:
    """Run the detect/decode loop over a chunk and score every iteration.

    model holds the chunk's whitened observations use-major, y (U, B, n_rx)
    and h (U, B, n_rx, n); info_bits (B, K) are the true payloads, used
    only for error counting. The detector's entry in the table prepares all
    B*U uses once, and its detect call takes all of them once per pass.
    """
    c, code = cfg.constellation, cfg.code
    info_bits = np.asarray(info_bits)
    n_uses, n_blocks, n_rx, n_streams = model.h.shape
    if info_bits.shape != (n_blocks, code.info_len):
        raise ValueError(f"expected {n_blocks} x {code.info_len} info bits")
    if model.y.shape != (n_uses, n_blocks, n_rx):
        raise ValueError("y and h disagree on uses, blocks or receive antennas")
    q, n_tx = c.bits_per_symbol, code.transmitted_len
    n_slots = n_uses * n_streams * q
    if n_slots < n_tx:
        raise ValueError(f"{n_uses} uses carry {n_slots} bits, codeword needs {n_tx}")

    uses = WhitenedModel(model.y.reshape(-1, n_rx), model.h.reshape(-1, n_rx, n_streams))
    live = live_uses(n_tx, c, n_streams) * n_blocks
    prepare, detect = _DETECT[cfg.detector]
    prepared = prepare(uses)
    # The LMMSE baseline ignores a priori input, so one pass already gives
    # every iteration's outcome.
    passes = 1 if cfg.detector == "lmmse" else cfg.iterations

    result = IddResult(
        iter_bit_errors=np.zeros((n_blocks, cfg.iterations), dtype=np.int64),
        iter_stats=[pass_stats(cfg.detector, n_streams, c, n_blocks * n_uses)] * cfg.iterations,
    )

    # Transmitted bit t: its (use, slot) in every block's rows, and its
    # mother-codeword position. Padding slots and punctured positions stay 0.
    use, slot = np.divmod(np.arange(n_tx), n_streams * q)
    pos = cfg.positions
    la = np.zeros((n_uses * n_blocks, n_streams, q))
    ch_llrs = np.zeros((n_blocks, code.coded_len))
    for it in range(passes):
        det = detect(prepared, c, la, live)
        ch_llrs[:, pos] = saturate((det - la).reshape(n_uses, n_blocks, -1)[use, :, slot].T)
        dec_ext, _, hard = bcjr_decode(ch_llrs, None, code)
        # The last pass also stands for every iteration left after it.
        repeats = 1 if it + 1 < passes else cfg.iterations - it
        span = slice(it, it + repeats)
        result.iter_bit_errors[:, span] = np.sum(hard != info_bits, axis=1)[:, None]

        if it + 1 < passes:
            la.reshape(n_uses, n_blocks, -1)[use, :, slot] = saturate(dec_ext[:, pos]).T

    return result
