"""Rate-1/2 terminated convolutional code with a max-log BCJR decoder.

The mother code is the 4-state (7,5) octal feed-forward code. Two zero tail
bits terminate the trellis, so K info bits become 2*(K+2) coded bits. An
optional regular puncturing pattern thins that to roughly rate 5/6 (~0.83).
The decoder is a max-log BCJR returning per-coded-bit extrinsic LLRs
(total - channel - a priori), per-info-bit LLRs, and hard decisions. Its
forward and backward recursions run together in one loop over the trellis
steps, stacked on a direction axis, so each step costs three array
operations for every block of a chunk and both directions at once. Branch
terms are formed a span of steps at a time in two fixed-size buffers, so
they take the same memory whatever the code length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

SUPPORTED_RATES = (0.5, 0.83)

# Period-5 keep pattern (c0, c1) per trellis step for the ~0.83 selector:
# both bits on step 0, first bit only elsewhere -> 6 of 10 kept.
PUNCTURE_KEEP = np.array(
    [[1, 1], [1, 0], [1, 0], [1, 0], [1, 0]], dtype=bool
)

# Trellis: state s = 2*d1 + d2 holds the last two inputs (d1 = b(t-1),
# d2 = b(t-2)); input u emits c0 = u^d1^d2, c1 = u^d2 and moves to state
# 2*u + d1. Branch bits indexed [d1, d2, u]:
_D1, _D2, _U = np.indices((2, 2, 2))
_C0_BITS = (_U ^ _D1 ^ _D2).astype(float)
_C1_BITS = (_U ^ _D2).astype(float)
# The forward recursion lays branches out as (u, d1, d2), the backward one
# and the edge totals as (d2, d1, u); see bcjr_decode. Each coded bit's
# branch bits are stacked over the (forward, backward) direction axis.
_FWD = (2, 0, 1)
_BWD = (1, 0, 2)
_C0_DIRS, _C1_DIRS = (
    np.stack([bits.transpose(_FWD), bits.transpose(_BWD)])[..., None]
    for bits in (_C0_BITS, _C1_BITS)
)
# Edge totals are laid out (d2, d1, u). Flipping u flips every coded bit
# and the info bit, so per (d2, d1) row the two edges split into one edge
# of each coset; per bit and row, the reversal that puts the bit-0 edge
# first.
_EDGE_ORDERS = tuple(
    tuple(slice(None, None, -1 if one else 1) for one in bits.transpose(_BWD)[..., 0].ravel())
    for bits in (_C0_BITS, _C1_BITS, _U)
)
# Float64 values in each of bcjr_decode's two branch-term buffers (256 kB).
# A trellis step takes 16 per block (2 directions x 8 edges); a buffer holds
# as many steps as fit, at least one.
_BRANCH_VALUES = 1 << 15


@dataclass(frozen=True)
class CodeConfig:
    info_len: int
    rate: float = 0.5

    def __post_init__(self) -> None:
        if self.info_len < 1:
            raise ConfigError("info_len must be positive")
        if self.rate not in SUPPORTED_RATES:
            raise ConfigError(f"rate selector must be one of {SUPPORTED_RATES}")

    @property
    def steps(self) -> int:
        return self.info_len + 2

    @property
    def coded_len(self) -> int:
        return 2 * self.steps

    def keep_mask(self) -> np.ndarray:
        """Boolean mask over the mother codeword of bits actually sent."""
        if self.rate == 0.5:
            return np.ones(self.coded_len, dtype=bool)
        reps = -(-self.steps // len(PUNCTURE_KEEP))
        return np.tile(PUNCTURE_KEEP, (reps, 1))[: self.steps].reshape(-1)

    @property
    def transmitted_len(self) -> int:
        """Bits sent per block, keep_mask().sum() without building the mask:
        whole periods of PUNCTURE_KEEP, then the leftover steps."""
        if self.rate == 0.5:
            return self.coded_len
        periods, rest = divmod(self.steps, len(PUNCTURE_KEEP))
        return periods * int(PUNCTURE_KEEP.sum()) + int(PUNCTURE_KEEP[:rest].sum())


def encode(info_bits, cfg: CodeConfig) -> np.ndarray:
    """Terminated mother-code codeword, c0/c1 interleaved per step.

    info_bits is (K,) or a stack (..., K); the codewords keep its leading axes.
    """
    info_bits = np.asarray(info_bits)
    if info_bits.shape[-1:] != (cfg.info_len,):
        raise ValueError(f"expected {cfg.info_len} info bits")
    if not np.all((info_bits == 0) | (info_bits == 1)):
        raise ValueError("info bits must be 0/1")
    # Inputs padded with two zeros on each side: the two leading zeros are
    # the initial state, the two trailing ones the tail bits.
    lead = info_bits.shape[:-1]
    zeros = np.zeros(lead + (2,), dtype=np.int8)
    u = np.concatenate([zeros, info_bits.astype(np.int8), zeros], axis=-1)
    now, prev, prev2 = u[..., 2:], u[..., 1:-1], u[..., :-2]
    coded = np.empty(lead + (cfg.coded_len,), dtype=np.int8)
    coded[..., 0::2] = now ^ prev ^ prev2  # 7 octal
    coded[..., 1::2] = now ^ prev2  # 5 octal
    return coded


def puncture(coded: np.ndarray, cfg: CodeConfig) -> np.ndarray:
    """Keep only transmitted positions of a mother codeword (or LLR vector).

    Leading axes of a stack (..., coded_len) are kept.
    """
    coded = np.asarray(coded)
    if coded.shape[-1:] != (cfg.coded_len,):
        raise ValueError(f"expected {cfg.coded_len} values")
    return coded[..., cfg.keep_mask()]


def depuncture(llrs: np.ndarray, cfg: CodeConfig) -> np.ndarray:
    """Re-expand transmitted-position LLRs, zeros at punctured positions.

    Leading axes of a stack (..., transmitted_len) are kept.
    """
    llrs = np.asarray(llrs, dtype=float)
    mask = cfg.keep_mask()
    if llrs.shape[-1:] != (int(mask.sum()),):
        raise ValueError(f"expected {int(mask.sum())} values")
    full = np.zeros(llrs.shape[:-1] + (cfg.coded_len,))
    full[..., mask] = llrs
    return full


@dataclass(frozen=True)
class Interleaver:
    perm: np.ndarray
    inv: np.ndarray


def make_interleaver(length: int, seed: int) -> Interleaver:
    """Seeded pseudo-random bit permutation (a bijection by construction)."""
    perm = np.random.default_rng(seed).permutation(length)
    return Interleaver(perm=perm, inv=np.argsort(perm))


def bcjr_decode(
    channel_llrs: np.ndarray, apriori_llrs: np.ndarray | None, cfg: CodeConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-log BCJR over the terminated 4-state trellis.

    channel_llrs and apriori_llrs are per mother-coded-bit (length
    2*(K+2)); pass None for a zero a priori. A 2-D (blocks, 2*(K+2)) input
    decodes every row in one recursion; 1-D input is one block. Returns
    (extrinsic per coded bit, total LLR per info bit, hard info bits), where
    extrinsic is the total coded-bit LLR minus channel minus a priori; each
    keeps the input's leading block axis. Non-finite input raises ValueError.
    """
    channel_llrs = np.asarray(channel_llrs, dtype=float)
    if channel_llrs.ndim not in (1, 2) or channel_llrs.shape[-1] != cfg.coded_len:
        raise ValueError(f"expected {cfg.coded_len} channel LLRs")
    if not np.all(np.isfinite(channel_llrs)):
        raise ValueError("channel LLRs must be finite")
    if apriori_llrs is None:
        lam = channel_llrs
    else:
        apriori_llrs = np.asarray(apriori_llrs, dtype=float)
        if apriori_llrs.shape != channel_llrs.shape:
            raise ValueError(f"expected {cfg.coded_len} a priori LLRs")
        if not np.all(np.isfinite(apriori_llrs)):
            raise ValueError("a priori LLRs must be finite")
        lam = channel_llrs + apriori_llrs

    steps = cfg.steps
    k = cfg.info_len
    n_blocks = lam.size // cfg.coded_len
    # Both recursions run in one loop over a direction axis: index 0 is the
    # forward pass at step t = j, index 1 the backward pass at t = steps-1-j.
    # Branch terms per (j, direction, edge, block) take a path metric m as
    # (m + c0*l0) + c1*l1, the scalar recursion's order. Path metrics are
    # held as 2 x 2 arrays over the state bits: alphas as (d1, d2), betas as
    # (d2, d1), so each step broadcasts the previous one over its branches
    # and keeps the better of the two in either direction. Blocks are the
    # innermost axis, so every array operation runs over them contiguously.
    # The tail steps need no forcing of input 0: beta at the last step is
    # finite at state 0 only, so beta is -inf at every state a tail input 1
    # leads to, every such branch and edge total is -inf, and
    # max(x, -inf) == x.
    # The LLR pairs are copied once as (j, direction, bit, block); branch
    # terms are formed a span of steps at a time in two buffers reused
    # across the spans, so their size does not grow with the code.
    pairs = np.empty((steps, 2, 2, n_blocks))
    pairs[:, 0] = lam.reshape(n_blocks, steps, 2).transpose(1, 2, 0)
    pairs[:, 1] = pairs[::-1, 0]
    span = min(max(1, _BRANCH_VALUES // (16 * n_blocks)), steps)
    g0 = np.empty((span, 2, 2, 2, 2, n_blocks))
    g1 = np.empty_like(g0)

    paths = np.full((steps + 1, 2, 2, 2, n_blocks), -np.inf)
    paths[0, :, 0, 0] = 0.0
    cand = np.empty((2, 2, 2, 2, n_blocks))
    first, second = cand[:, :, :, 0], cand[:, :, :, 1]
    for j in range(0, steps, span):
        llrs = pairs[j : j + span, :, :, None, None, None]
        n = len(llrs)
        np.multiply(_C0_DIRS, llrs[:, :, 0], out=g0[:n])
        np.multiply(_C1_DIRS, llrs[:, :, 1], out=g1[:n])
        for prev, b0, b1, nxt in zip(
            paths[j : j + n, :, None], g0[:n], g1[:n], paths[j + 1 : j + n + 1]
        ):
            np.add(prev, b0, out=cand)
            np.add(cand, b1, out=cand)
            np.maximum(first, second, out=nxt)

    # Edge totals (alpha(t, s) + gamma(t, s, u)) + beta(t+1, ns) as
    # (step, d2, d1, u, block), built in place in backward-layout branch
    # terms formed again in step order; with one layout the buffers hold
    # twice the steps. Both coset maxima of a bit are one walk over the
    # (d2, d1) rows, in the order max(axis=1) over each coset's edges would
    # take them.
    g0, g1 = (g.reshape((2 * span,) + g.shape[2:]) for g in (g0, g1))
    out_llrs = np.empty((3, steps, n_blocks))
    best = np.empty((2 * span, 2, n_blocks))
    for t in range(0, steps, 2 * span):
        llrs = pairs[t : t + 2 * span, 0, :, None, None, None]
        n = len(llrs)
        totals = np.multiply(_C0_DIRS[1], llrs[:, 0], out=g0[:n])
        totals += np.multiply(_C1_DIRS[1], llrs[:, 1], out=g1[:n])
        totals += paths[t : t + n, 0].transpose(0, 2, 1, 3)[:, :, :, None]
        totals += paths[steps - t - n : steps - t, 1][::-1, None]
        rows = totals.reshape(n, 4, 2, n_blocks)
        top = best[:n]
        for out, orders in zip(out_llrs[:, t : t + n], _EDGE_ORDERS):
            np.maximum(rows[:, 0, orders[0]], rows[:, 1, orders[1]], out=top)
            for row in (2, 3):
                np.maximum(top, rows[:, row, orders[row]], out=top)
            np.subtract(top[:, 1], top[:, 0], out=out)
    llr_c0, llr_c1, llr_u = out_llrs.transpose(0, 2, 1)

    coded_total = np.empty((n_blocks, cfg.coded_len))
    coded_total[:, 0::2] = llr_c0
    coded_total[:, 1::2] = llr_c1
    extrinsic = coded_total.reshape(lam.shape) - lam
    info_total = llr_u[:, :k].reshape(lam.shape[:-1] + (k,))
    hard = (info_total > 0).astype(np.int8)
    return extrinsic, info_total, hard
