"""Iterative detection and decoding over a chunk of code blocks.

Each code block is spread over U channel uses of an n_l-stream whitened MIMO
model: the transmitted (interleaved, punctured) codeword fills the bit slots
use by use, stream 0 bits 0..q-1 first, then stream 1, and so on; leftover
slots in the final uses are padded with zero bits. Each iteration runs the
soft-input detector on every use, feeds its extrinsic output through the
deinterleaver and depuncturer into the decoder, and feeds the decoder's
extrinsic output back as the next round of detector a priori LLRs.

A chunk of blocks runs through that loop as stacked arrays: every block's
uses go through one detector call and every block's codeword through one
decoder call per iteration, and each block's results equal those of running
it alone. All four detectors sit behind one (prepare, detect) table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bchase, lchase
from .channel import WhitenedModel
from .codec import CodeConfig, Interleaver, bcjr_decode, depuncture, make_interleaver
from .constellation import Constellation
from .counters import pass_stats
from .errors import ConfigError
from .llr import saturate
from .reference import lmmse_llrs, maxlog_factors, maxlog_llrs

# Detector name -> (prepare(uses), detect(prepared, c, la) -> LLRs shaped like
# la), over a stack of uses. The lambdas look functions up at call time.
_DETECT = {
    "lchase": (lambda uses: lchase.prepare_all_uses(uses), lambda *a: lchase.detect_all_uses(*a)),
    "bchase": (lambda uses: bchase.prepare_all_uses(uses), lambda *a: bchase.detect_all_uses(*a)),
    "maxlog": (lambda uses: maxlog_factors(uses), lambda *a: maxlog_llrs(*a)),
    "lmmse": (lambda uses: uses, lambda uses, c, la: lmmse_llrs(uses, c)),
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
    def interleaver(self) -> Interleaver:
        """The bit interleaver over one transmitted codeword."""
        return make_interleaver(self.code.transmitted_len, self.interleaver_seed)


@dataclass
class IddResult:
    """Per-iteration outcomes of a chunk of B blocks; iter_stats are each
    iteration's detector counts over the chunk, from counters.pass_stats."""

    info_llrs: np.ndarray  # (B, iterations, K) decoder info-bit LLRs
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


def run_idd(model: WhitenedModel, info_bits: np.ndarray, cfg: IddConfig) -> IddResult:
    """Run the detect/decode loop over a chunk and score every iteration.

    model holds the chunk's whitened observations, y (B, U, n_rx) and h
    (B, U, n_rx, n); info_bits (B, K) are the true payloads, used only for
    error counting. The detector's entry in the table prepares all B*U uses
    once, and its detect call takes all of them once per pass.
    """
    c, code = cfg.constellation, cfg.code
    info_bits = np.asarray(info_bits)
    n_blocks, n_uses, n_rx, n_streams = model.h.shape
    if info_bits.shape != (n_blocks, code.info_len):
        raise ValueError(f"expected {n_blocks} x {code.info_len} info bits")
    if model.y.shape != (n_blocks, n_uses, n_rx):
        raise ValueError("y and h disagree on blocks, uses or receive antennas")
    q, n_tx = c.bits_per_symbol, code.transmitted_len
    n_slots = n_uses * n_streams * q
    if n_slots < n_tx:
        raise ValueError(f"{n_uses} uses carry {n_slots} bits, codeword needs {n_tx}")

    il, keep = cfg.interleaver, code.keep_mask()
    uses = WhitenedModel(model.y.reshape(-1, n_rx), model.h.reshape(-1, n_rx, n_streams))
    prepare, detect = _DETECT[cfg.detector]
    prepared = prepare(uses)
    # The LMMSE baseline ignores a priori input, so one pass already gives
    # every iteration's outcome.
    passes = 1 if cfg.detector == "lmmse" else cfg.iterations

    result = IddResult(
        info_llrs=np.zeros((n_blocks, cfg.iterations, code.info_len)),
        iter_bit_errors=np.zeros((n_blocks, cfg.iterations), dtype=np.int64),
        iter_stats=[pass_stats(cfg.detector, n_streams, c, n_blocks * n_uses)] * cfg.iterations,
    )

    la = np.zeros((n_blocks * n_uses, n_streams, q))
    for it in range(passes):
        det = detect(prepared, c, la)
        fwd_slots = saturate((det - la).reshape(n_blocks, n_slots))
        ch_llrs = depuncture(fwd_slots[:, :n_tx][:, il.inv], code)
        dec_ext, info_total, hard = bcjr_decode(ch_llrs, None, code)
        # The last pass also stands for every iteration left after it.
        repeats = 1 if it + 1 < passes else cfg.iterations - it
        span = slice(it, it + repeats)
        result.info_llrs[:, span] = info_total[:, None]
        result.iter_bit_errors[:, span] = np.sum(hard != info_bits, axis=1)[:, None]

        if it + 1 < passes:
            la_slots = np.zeros((n_blocks, n_slots))
            la_slots[:, :n_tx] = saturate(dec_ext[:, keep][:, il.perm])
            la = la_slots.reshape(la.shape)

    return result
