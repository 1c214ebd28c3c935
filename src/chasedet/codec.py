"""Rate-1/2 terminated convolutional code with a max-log BCJR decoder.

The mother code is the 4-state (7,5) octal feed-forward code. Two zero tail
bits terminate the trellis, so K info bits become 2*(K+2) coded bits. An
optional regular puncturing pattern thins that to roughly rate 5/6 (~0.83).
The decoder is a max-log BCJR returning per-coded-bit extrinsic LLRs
(total - channel - a priori), per-info-bit LLRs, and hard decisions. Its
forward and backward recursions run together in one loop over the trellis
steps, stacked on a direction axis, so each step costs two array operations
(three where either direction's c1 bit was sent) for every block of a chunk
and both directions at once. Branch terms and edge totals are formed a span
of steps at a time in two fixed-size buffers, so they take the same memory
whatever the code length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Keep pattern (c0, c1) per trellis step of each rate selector, repeated
# over the steps: rate 1/2 sends both bits of every step; ~0.83 has period 5,
# both bits on step 0 and the first bit only elsewhere -> 6 of 10 kept.
KEEP_PATTERNS = {
    0.5: np.array([[1, 1]], dtype=bool),
    0.83: np.array([[1, 1], [1, 0], [1, 0], [1, 0], [1, 0]], dtype=bool),
}
SUPPORTED_RATES = tuple(KEEP_PATTERNS)

# Trellis: state s = 2*d1 + d2 holds the last two inputs (d1 = b(t-1),
# d2 = b(t-2)); input u emits c0 = u^d1^d2, c1 = u^d2 and moves to state
# 2*u + d1. bcjr_decode indexes a step's branches by (z, a, b): z the state
# bit the step maximises out, a the one it keeps, b the new one. Forward
# that is (d2, d1, u), backward and in the edge totals (u, d1, d2); either
# way c0 = z^a^b and c1 = z^b. Per branch, its coded bits as c0 + 2*c1:
_Z, _A, _B = np.indices((2, 2, 2)).reshape(3, 8)
_CODES = (_Z ^ _A ^ _B) + 2 * (_Z ^ _B)
_C0_ONES, _C1_ONES = np.flatnonzero(_CODES % 2), np.flatnonzero(_CODES // 2)
_BY_CODE = tuple(np.flatnonzero(_CODES == code) for code in range(4))
# Float64 values in each of bcjr_decode's two buffers (256 kB). A trellis
# step takes 16 per block of branch terms (2 directions x 8 edges) and 8 of
# edge totals; a buffer holds the branch terms of as many steps as fit, at
# least one and at most the code's, and the totals of twice that.
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
        pattern = KEEP_PATTERNS[self.rate]
        reps = -(-self.steps // len(pattern))
        return np.tile(pattern, (reps, 1))[: self.steps].reshape(-1)

    @property
    def transmitted_len(self) -> int:
        """Bits sent per block, keep_mask().sum() by whole periods of the
        rate's keep pattern and the leftover steps, so validate_config can
        size a block too long to build the mask for (10**15 info bits)."""
        pattern = KEEP_PATTERNS[self.rate]
        periods, rest = divmod(self.steps, len(pattern))
        return periods * int(pattern.sum()) + int(pattern[:rest].sum())


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


def make_interleaver(length: int, seed: int) -> np.ndarray:
    """Seeded pseudo-random bit permutation (a bijection by construction)."""
    return np.random.default_rng(seed).permutation(length)


def bcjr_decode(
    channel_llrs: np.ndarray, apriori_llrs: np.ndarray | None, cfg: CodeConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-log BCJR over the terminated 4-state trellis.

    channel_llrs and apriori_llrs are per mother-coded-bit (length
    2*(K+2)); pass None for a zero a priori. A 2-D (blocks, 2*(K+2)) input
    decodes every row in one recursion (an empty stack gives empty outputs);
    1-D input is one block. Returns (extrinsic per coded bit, total LLR per
    info bit, hard info bits), where extrinsic is the total coded-bit LLR
    minus channel minus a priori; each keeps the input's leading block axis.
    Non-finite input raises ValueError.
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
    # Path metrics are held per step as (z, a, direction, block) over the
    # state bits the next step maximises out and keeps: alphas as (d2, d1),
    # betas as (d1, d2). A step's candidates (z, a, b, direction, block)
    # take a path metric m as (m + c0*l0) + c1*l1, the scalar recursion's
    # order, and the next path metrics are the larger of the two z halves.
    # Path metrics are never -0.0, so m + (+-0.0) == m: a bit-0 branch term
    # is +0.0 instead of 0*l, and a step skips its c0 or c1 add where that
    # LLR is +-0.0 in every block and both directions (a punctured bit).
    # The tail steps need no forcing of input 0: beta at the last step is
    # finite at state 0 only, so beta is -inf at every state a tail input 1
    # leads to, every such branch and edge total is -inf, and
    # max(x, -inf) == x. The LLRs are copied once as (bit, step, block).
    by_step = lam.reshape(n_blocks, steps, 2)
    llrs = by_step.transpose(2, 1, 0).copy()
    sent = by_step.any(axis=0)
    unsent = (~(sent | sent[::-1])).tolist()
    span = min(max(1, _BRANCH_VALUES // (16 * max(n_blocks, 1))), steps)
    g0 = np.zeros((span, 8, 2, n_blocks))
    g1 = np.zeros((span, 8, 2, n_blocks))

    paths = np.empty((steps + 1, 2, 2, 2, n_blocks))
    paths[0] = -np.inf
    paths[0, 0, 0] = 0.0
    cand = np.empty((2, 2, 2, 2, n_blocks))
    first, second = cand
    for j in range(0, steps, span):
        n = min(span, steps - j)
        for g, bit, ones in ((g0, llrs[0], _C0_ONES), (g1, llrs[1], _C1_ONES)):
            g[:n, ones, 0] = bit[j : j + n, None]
            g[:n, ones, 1] = bit[::-1][j : j + n, None]
        for prev, b0, b1, (zero0, zero1), nxt in zip(
            paths[j : j + n, :, :, None],
            g0[:n].reshape(n, 2, 2, 2, 2, n_blocks),
            g1[:n].reshape(n, 2, 2, 2, 2, n_blocks),
            unsent[j : j + n],
            paths[j + 1 : j + n + 1],
        ):
            np.add(prev, b1 if zero0 else b0, out=cand)
            if not (zero0 or zero1):
                np.add(cand, b1, out=cand)
            np.maximum(first, second, out=nxt)

    # Edge totals ((c0*l0 + c1*l1) + alpha(t, s)) + beta(t+1, ns) as
    # (u, d1, d2, step, block), twice a span of steps at a time in the same
    # two buffers: the branch sums, then the maxima over d1, as (u, d2), and
    # over the edges of equal d1^d2, as (u, d1^d2), since c1 = u^d2 and
    # c0 = u^(d1^d2); the totals, then the coset maxima. Each coset maximum
    # is over the same four edges in any order, and totals are never -0.0,
    # so it is the same maximum.
    out_llrs = np.empty((3, steps, n_blocks))
    for t in range(0, steps, 2 * span):
        n = min(2 * span, steps - t)
        sums, totals = (g.reshape(-1)[: 8 * n * n_blocks].reshape(2, 2, 2, n, n_blocks) for g in (g0, g1))
        l0, l1 = llrs[:, t : t + n]
        flat = sums.reshape(8, n, n_blocks)
        for edges, term in zip(_BY_CODE, (0.0, l0, l1, l0 + l1)):
            flat[edges] = term
        np.add(sums, paths[t : t + n, :, :, 0].transpose(2, 1, 0, 3), out=totals)
        totals += paths[steps - t - n : steps - t, :, :, 1][::-1].transpose(1, 2, 0, 3)[:, :, None]
        rows = totals.reshape(2, 4, n * n_blocks)
        by_d2, by_parity = sums.reshape(2, 2, 2, n * n_blocks)
        np.maximum(rows[:, 0:2], rows[:, 2:4], out=by_d2)
        np.maximum(rows[:, 0:2], rows[:, 3:1:-1], out=by_parity)
        for out, x, y, cosets in (
            (out_llrs[0], by_parity[:, 0], by_parity[::-1, 1], rows[:, 0]),
            (out_llrs[1], by_d2[:, 0], by_d2[::-1, 1], by_parity[:, 0]),
            (out_llrs[2], by_d2[:, 0], by_d2[:, 1], by_parity[:, 0]),
        ):
            np.maximum(x, y, out=cosets)
            np.subtract(cosets[1], cosets[0], out=out[t : t + n].reshape(-1))

    extrinsic = np.empty(lam.shape)
    coded = extrinsic.reshape(n_blocks, steps, 2)
    np.subtract(out_llrs[:2].transpose(2, 1, 0), by_step, out=coded)
    info_total = out_llrs[2, :k].T.reshape(lam.shape[:-1] + (k,))
    hard = (info_total > 0).astype(np.int8)
    return extrinsic, info_total, hard
