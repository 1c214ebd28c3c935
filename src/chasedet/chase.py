"""The Chase detector both list detectors run: one skeleton, two inner resolvers.

A detector prepares one context per (target stream, channel use). The
contexts of many uses live in one struct-of-arrays whose fields share their
leading axes: (streams, uses), stream-major, from prepare_all_uses. Indexing
a context indexes every field, so ctx[i][u] is the context of stream i on
use u and ctx[i][u][None] a one-row stack. Every context exposes y_last and
pivot, the last row of its triangularized system, where the target stream
sits alone.

Detection searches the target stream exhaustively: each of its M candidate
values gets its a priori term and last-row metric, the detector's
inner_layers adds the best metric of every other layer under that candidate
(linear nulling with slicing for lchase, ordered soft feedback for bchase),
and bit LLRs are coset maxima over the candidates. The flattened contexts
are walked in slices whose largest temporaries fit SLICE_VALUES float64
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


def prepare_all_uses(prepare_stream_uses, models: WhitenedModel):
    """One (streams, uses) context for a WhitenedModel stacked over uses.

    prepare_stream_uses(h, y, stream) prepares one target stream for every
    use. A non-finite model raises ValueError.
    """
    require_finite(models)
    per_stream = [
        prepare_stream_uses(models.h, models.y, i) for i in range(models.n_streams)
    ]
    first = per_stream[0]
    return type(first)(
        **{
            f.name: np.stack([getattr(ctx, f.name) for ctx in per_stream])
            for f in fields(first)
        }
    )


def detect_all_uses(
    inner_layers,
    contexts,
    c: Constellation,
    la: np.ndarray,
    stats: DetectorStats | None,
) -> np.ndarray:
    """Max-log LLRs of every stream of every use: (uses, streams, q).

    contexts is the (streams, uses) stack from prepare_all_uses and la the
    a priori LLRs (uses, streams, q). inner_layers(ctx_rows, c, la, use_idx,
    total, stats) returns total, the (rows, M) candidate metrics, with the
    inner layers' best metrics added; use_idx maps each row to its la row.
    """
    n_streams, n_uses = np.shape(contexts.stream)
    flat = contexts.flat()
    rows = n_streams * n_uses
    out = np.empty((rows, c.bits_per_symbol))
    step = max(1, SLICE_VALUES // context_values(c))
    for start in range(0, rows, step):
        ctx = flat[start : start + step]
        use_idx = np.arange(start, start + len(ctx)) % n_uses
        prior = candidate_priors(la[use_idx, ctx.stream, :], c)
        total = prior - np.abs(ctx.y_last[:, None] - ctx.pivot[:, None] * c.symbols) ** 2
        if stats is not None:
            stats.metric_evals += len(ctx) * c.order
            stats.streams += len(ctx)
        total = inner_layers(ctx, c, la, use_idx, total, stats)
        out[start : start + len(ctx)] = coset_llrs(total, c)
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
