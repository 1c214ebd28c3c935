"""What the two Chase detectors share: stacked contexts and the row loop.

A detector prepares one context per (target stream, channel use). The
contexts of many uses live in one struct-of-arrays whose fields share their
leading axes: (streams, uses), stream-major, from prepare_all_uses. Indexing
a context indexes every field, so ctx[i][u] is the context of stream i on
use u and ctx[i][u][None] a one-row stack. Detection walks the flattened
contexts in slices whose largest temporaries fit SLICE_VALUES float64
values, which bounds the working set however many uses are stacked.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .channel import WhitenedModel, require_finite
from .constellation import Constellation
from .counters import DetectorStats

# Working-set cap of one detection slice, in float64 values. Each context is
# charged context_values(c), its largest temporary.
SLICE_VALUES = 3 << 15


def context_values(c: Constellation) -> int:
    """Values charged per context: M * sqrt(M) * q.

    soft_symbol_stats holds two (candidate, level, bit) products of
    M * sqrt(M) * q/2 values per axis, the largest temporaries of either
    detector; the slicer's (candidate, level) arrays are smaller.
    """
    return c.order * c.real_axis.nlevels * c.bits_per_symbol


class StackedContext:
    """Mixin for frozen dataclasses whose `stream` field fixes the batch axes."""

    def __len__(self) -> int:
        return len(self.stream)

    def __getitem__(self, idx):
        return type(self)(**{f.name: getattr(self, f.name)[idx] for f in fields(self)})

    def flat(self):
        """The same contexts with every batch axis folded into one row axis."""
        lead, rows = np.ndim(self.stream), np.size(self.stream)
        folded = {}
        for f in fields(self):
            value = getattr(self, f.name)
            folded[f.name] = np.reshape(value, (rows,) + np.shape(value)[lead:])
        return type(self)(**folded)


def stack_streams(per_stream: list):
    """One stream-major context from per-stream contexts stacked over uses."""
    first = per_stream[0]
    return type(first)(
        **{
            f.name: np.stack([getattr(ctx, f.name) for ctx in per_stream])
            for f in fields(first)
        }
    )


def stacked_model(models) -> tuple[np.ndarray, np.ndarray]:
    """(h, y) stacked over uses from a stacked WhitenedModel or a sequence.

    Non-finite entries raise ValueError.
    """
    if not isinstance(models, WhitenedModel):
        models = WhitenedModel(np.stack([m.y for m in models]), np.stack([m.h for m in models]))
    require_finite(models)
    return models.h, models.y


def detect_rows_in_slices(
    detect_rows,
    contexts,
    c: Constellation,
    la: np.ndarray,
    stats: DetectorStats | None,
) -> np.ndarray:
    """Run detect_rows over stream-major contexts; returns (uses, streams, q).

    detect_rows(ctx_rows, c, la, use_idx, stats) detects a flat slice of
    contexts whose la rows are use_idx.
    """
    n_streams, n_uses = np.shape(contexts.stream)
    flat = contexts.flat()
    total = n_streams * n_uses
    out = np.empty((total, c.bits_per_symbol))
    step = max(1, SLICE_VALUES // context_values(c))
    for start in range(0, total, step):
        stop = min(start + step, total)
        use_idx = np.arange(start, stop) % n_uses
        out[start:stop] = detect_rows(flat[start:stop], c, la, use_idx, stats)
    return out.reshape(n_streams, n_uses, -1).transpose(1, 0, 2)


def candidate_priors(la_rows: np.ndarray, c: Constellation) -> np.ndarray:
    """A priori term sum_k label_k * La_k of every candidate: (rows, q) -> (rows, M).

    One matrix product. numpy hands a one-row product to gemv, which rounds
    differently from gemm, so a lone row is padded to two: results must not
    depend on how the rows are sliced.
    """
    if len(la_rows) == 1:
        return (np.concatenate([la_rows, la_rows]) @ c.bit_labels_f.T)[:1]
    return la_rows @ c.bit_labels_f.T


def coset_llrs(total: np.ndarray, c: Constellation) -> np.ndarray:
    """Max-log bit LLRs from per-candidate metrics (rows, M)."""
    llrs = np.empty((len(total), c.bits_per_symbol))
    for k, (zeros, ones) in enumerate(c.bit_coset_idx):
        llrs[:, k] = total[:, ones].max(axis=1) - total[:, zeros].max(axis=1)
    return llrs
