"""Iterative detection and decoding over a block of channel uses.

One code block is spread over U channel uses of an n_l-stream whitened MIMO
model: the transmitted (interleaved, punctured) codeword fills the bit slots
use by use, stream 0 bits 0..q-1 first, then stream 1, and so on; leftover
slots in the final uses are padded with zero bits. Each iteration runs the
soft-input detector on every use, feeds its (by default extrinsic) output
through the deinterleaver and depuncturer into the decoder, and feeds the
decoder's output back as the next round of detector a priori LLRs.

A chunk of blocks runs through the same loop as stacked arrays: every
block's uses go through one detector call and every block's codeword
through one decoder call per iteration, and each block's results equal
those of running it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import bchase, lchase
from .channel import WhitenedModel
from .codec import (
    CodeConfig,
    Interleaver,
    bcjr_decode,
    depuncture,
    make_interleaver,
)
from .constellation import Constellation
from .counters import DetectorStats
from .errors import ConfigError
from .llr import LLR_CLIP, saturate
from .reference import exact_maxlog_llrs, lmmse_llrs

DETECTORS = ("lchase", "bchase", "maxlog", "lmmse")
FEEDBACK_MODES = ("extrinsic", "combined")


@dataclass(frozen=True)
class IddConfig:
    constellation: Constellation
    code: CodeConfig
    detector: str = "lchase"
    iterations: int = 3
    interleaver_seed: int = 0
    feedback: str = "extrinsic"

    def __post_init__(self) -> None:
        if self.detector not in DETECTORS:
            raise ConfigError(f"unknown detector {self.detector!r}")
        if self.iterations < 1:
            raise ConfigError("iterations must be positive")
        if self.feedback not in FEEDBACK_MODES:
            raise ConfigError(f"unknown feedback mode {self.feedback!r}")


@dataclass
class IddResult:
    """Per-iteration outcomes of one block; a chunk of B blocks adds a
    leading block axis to every array, and its iter_stats sum over blocks."""

    info_llrs: np.ndarray  # (iterations, K) decoder info-bit LLRs
    decoded: np.ndarray  # (K,) hard bits from the final iteration
    iter_block_error: np.ndarray  # (iterations,) bool, any info bit wrong
    iter_bit_errors: np.ndarray  # (iterations,) int
    detector_frames: list = field(default_factory=list)  # (U, n, q) per iter
    apriori_frames: list = field(default_factory=list)  # (U, n, q) per iter
    decoder_extrinsics: list = field(default_factory=list)  # (coded_len,) per iter
    iter_stats: list = field(default_factory=list)  # DetectorStats per iter

    def block(self, b: int) -> "IddResult":
        """Block b of a chunk's result, as if it had run alone (stats excepted)."""
        return IddResult(
            info_llrs=self.info_llrs[b],
            decoded=self.decoded[b],
            iter_block_error=self.iter_block_error[b],
            iter_bit_errors=self.iter_bit_errors[b],
            detector_frames=[f[b] for f in self.detector_frames],
            apriori_frames=[f[b] for f in self.apriori_frames],
            decoder_extrinsics=[e[b] for e in self.decoder_extrinsics],
            iter_stats=self.iter_stats,
        )


def uses_for_block(code: CodeConfig, c: Constellation, n_streams: int) -> int:
    """Channel uses needed to carry one transmitted codeword."""
    per_use = n_streams * c.bits_per_symbol
    return -(-code.transmitted_len // per_use)


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


def _detect_all_uses(
    model: WhitenedModel,
    contexts,
    cfg: IddConfig,
    la: np.ndarray,
    stats: DetectorStats,
) -> np.ndarray:
    """Detector LLRs (uses, n, q) for a model stacked over uses."""
    c = cfg.constellation
    if cfg.detector == "lchase":
        return lchase.detect_all_uses(contexts, c, la, stats)
    if cfg.detector == "bchase":
        return bchase.detect_all_uses(contexts, c, la, stats)
    if cfg.detector == "lmmse":
        return lmmse_llrs(model, c, stats=stats).values
    out = np.empty(la.shape)
    for u in range(len(la)):
        use = WhitenedModel(model.y[u], model.h[u])
        out[u] = exact_maxlog_llrs(use, c, la[u], stats=stats).values
    return out


def run_idd(
    models: Sequence[WhitenedModel] | WhitenedModel,
    info_bits: np.ndarray,
    cfg: IddConfig,
    stats: DetectorStats | None = None,
    *,
    keep_frames: bool = True,
) -> IddResult:
    """Run the full detect/decode loop and report per-iteration outcomes.

    models carry the already-whitened observations of one block, one
    WhitenedModel per channel use; info_bits are the true payload used only
    for error counting. A chunk of B blocks is one WhitenedModel with y
    (B, U, n_rx) and h (B, U, n_rx, n) and info_bits (B, K); its result has
    a leading block axis (see IddResult). keep_frames=False leaves the
    per-iteration frame lists empty.
    """
    if isinstance(models, WhitenedModel):
        return _run_chunk(models, np.asarray(info_bits), cfg, stats, keep_frames)
    info_bits = np.asarray(info_bits)
    if info_bits.shape != (cfg.code.info_len,):
        raise ValueError(f"expected {cfg.code.info_len} info bits")
    if len(models) < 1:
        raise ValueError("need at least one channel use")
    chunk = WhitenedModel(
        np.stack([m.y for m in models])[None], np.stack([m.h for m in models])[None]
    )
    return _run_chunk(chunk, info_bits[None], cfg, stats, keep_frames).block(0)


def _run_chunk(
    model: WhitenedModel,
    info_bits: np.ndarray,
    cfg: IddConfig,
    stats: DetectorStats | None,
    keep_frames: bool,
) -> IddResult:
    c = cfg.constellation
    code = cfg.code
    n_blocks, n_uses, n_rx, n_streams = model.h.shape
    if info_bits.shape != (n_blocks, code.info_len):
        raise ValueError(f"expected {n_blocks} x {code.info_len} info bits")
    if model.y.shape != (n_blocks, n_uses, n_rx):
        raise ValueError("y and h disagree on blocks, uses or receive antennas")
    if n_uses < 1:
        raise ValueError("need at least one channel use")
    q = c.bits_per_symbol
    n_slots = n_uses * n_streams * q
    n_tx = code.transmitted_len
    if n_slots < n_tx:
        raise ValueError(
            f"{n_uses} uses carry {n_slots} bits, codeword needs {n_tx}"
        )

    il = make_interleaver(n_tx, cfg.interleaver_seed)
    keep = code.keep_mask()
    uses = WhitenedModel(
        model.y.reshape(-1, n_rx), model.h.reshape(-1, n_rx, n_streams)
    )

    if cfg.detector == "lchase":
        contexts = lchase.prepare_all_uses(uses)
    elif cfg.detector == "bchase":
        contexts = bchase.prepare_all_uses(uses)
    else:
        contexts = None
    # The LMMSE baseline ignores a priori input: its output is already
    # extrinsic and iterating it would just repeat the first pass, so no a
    # priori is subtracted or fed back for it.
    apriori_aware = cfg.detector != "lmmse"

    result = IddResult(
        info_llrs=np.zeros((n_blocks, cfg.iterations, code.info_len)),
        decoded=np.zeros((n_blocks, code.info_len), dtype=np.int8),
        iter_block_error=np.zeros((n_blocks, cfg.iterations), dtype=bool),
        iter_bit_errors=np.zeros((n_blocks, cfg.iterations), dtype=np.int64),
    )

    frame = (n_blocks, n_uses, n_streams, q)
    la_slots = np.zeros((n_blocks, n_slots))
    for it in range(cfg.iterations):
        iter_stats = DetectorStats()
        la = la_slots.reshape(frame)
        det = _detect_all_uses(uses, contexts, cfg, la.reshape(-1, n_streams, q), iter_stats)
        det = det.reshape(frame)
        if keep_frames:
            result.apriori_frames.append(la.copy())
            result.detector_frames.append(det)

        if cfg.feedback == "extrinsic" and apriori_aware:
            fwd_slots = saturate(det.reshape(n_blocks, -1) - la_slots)
        else:
            fwd_slots = saturate(det.reshape(n_blocks, -1))
        ch_llrs = depuncture(fwd_slots[:, :n_tx][:, il.inv], code)
        dec_ext, info_total, hard = bcjr_decode(ch_llrs, None, code)
        if keep_frames:
            result.decoder_extrinsics.append(dec_ext)
        result.info_llrs[:, it] = info_total
        result.decoded = hard
        errs = np.sum(hard != info_bits, axis=1)
        result.iter_bit_errors[:, it] = errs
        result.iter_block_error[:, it] = errs > 0
        result.iter_stats.append(iter_stats)
        if stats is not None:
            stats.add(iter_stats)

        if it + 1 < cfg.iterations and apriori_aware:
            if cfg.feedback == "extrinsic":
                back = dec_ext
            else:
                back = dec_ext + ch_llrs
            la_slots = np.zeros((n_blocks, n_slots))
            la_slots[:, :n_tx] = saturate(back[:, keep][:, il.perm])

    return result
