"""The Chase detector both list detectors run: one skeleton, two inner resolvers.

A detector prepares one context per (target stream, channel use). Each
detector's prepare_all_uses lays the column orders of all its (stream, use)
pairs stream-major along one row axis, factors them in one pass and reshapes
the result to leading axes (streams, uses): a struct-of-arrays whose fields
share those axes. Indexing a context indexes every field, so ctx[i][u] is
the context of stream i on use u and ctx[i][u][None] a one-row stack. Every
context exposes y_last and pivot, the last row of its triangularized system,
where the target stream sits alone.

Detection searches the target stream exhaustively: each of its M candidate
values gets its a priori term and last-row metric, the detector's
inner_layers adds the best metric of every other layer under that candidate
(linear nulling with slicing for lchase, ordered soft feedback for bchase),
and bit LLRs are coset maxima over the candidates. The flattened contexts
are walked in slices. Each detector charges a context a bound on the float64
values it keeps live (lchase.context_values, bchase.context_values), and a
slice holds as many contexts as fit SLICE_VALUES, which bounds the working
set however many uses are stacked.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .constellation import Constellation

# Cap on the float64 values one detection slice keeps live at once (3.1 MB).
# A slice takes as many contexts as fit under it at the detector's charge.
SLICE_VALUES = 3 << 17


class StackedContext:
    """Mixin for frozen dataclasses whose `layers` field, each context's
    column order (..., n), fixes the batch axes.

    A detector's prepare_all_uses builds its context with one stream-major
    row axis and returns it reshaped to (streams, uses); detection folds it
    back into rows.
    """

    @property
    def stream(self) -> np.ndarray:
        """The target stream of each context, last in its column order."""
        return self.layers[..., -1]

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx):
        return type(self)(**{f.name: getattr(self, f.name)[idx] for f in fields(self)})

    def reshape(self, *batch):
        """The same contexts with their batch axes reshaped to `batch`, as
        np.reshape takes a shape: reshape(-1) folds them into one row axis and
        reshape(n_streams, n_uses) unfolds stream-major rows."""
        lead = np.ndim(self.stream)
        batch = np.reshape(self.stream, batch).shape  # -1 resolved on `stream`
        shaped = {}
        for f in fields(self):
            value = getattr(self, f.name)
            shaped[f.name] = np.reshape(value, batch + np.shape(value)[lead:])
        return type(self)(**shaped)


def detect_all_uses(
    inner_layers,
    context_values: int,
    contexts,
    c: Constellation,
    la: np.ndarray,
) -> np.ndarray:
    """Max-log LLRs of every stream of every use: (uses, streams, q).

    contexts is a detector's (streams, uses) stack and la the
    a priori LLRs (uses, streams, q). inner_layers(ctx_rows, c, la, use_idx,
    total) adds the inner layers' best metrics to total, the (rows, M)
    candidate metrics, in place; use_idx maps each row to its la row.
    context_values is the detector's charge in float64 values per context,
    which sizes the slices under SLICE_VALUES. A non-finite la raises
    ValueError.
    """
    if not np.isfinite(la).all():
        raise ValueError("a priori LLRs must be finite")
    n_streams, n_uses = np.shape(contexts.stream)
    flat = contexts.reshape(-1)
    rows = n_streams * n_uses
    step = max(1, SLICE_VALUES // context_values)
    # Freeing an untouched block of a slice's working set raises glibc's mmap
    # and heap-trim thresholds above it (mallopt(3)), so slice temporaries
    # reuse heap pages instead of faulting them back in on every slice.
    np.empty(min(step, rows) * context_values)
    out = np.empty((rows, c.bits_per_symbol))
    for start in range(0, rows, step):
        ctx = flat[start : start + step]
        use_idx = np.arange(start, start + len(ctx)) % n_uses
        total = candidate_priors(la[use_idx, ctx.stream, :], c)
        total -= np.abs(ctx.y_last[:, None] - ctx.pivot[:, None] * c.symbols) ** 2
        inner_layers(ctx, c, la, use_idx, total)
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


def add_axis_metrics(total: np.ndarray, best: np.ndarray) -> None:
    """Add a (2, rows, M) stack of per-axis layer metrics to total in place,
    the real axis first, so the sum rounds as two per-axis passes did."""
    total += best[0]
    total += best[1]


def coset_llrs(total: np.ndarray, c: Constellation) -> np.ndarray:
    """Max-log bit LLRs from per-candidate metrics (rows, M)."""
    llrs = np.empty((len(total), c.bits_per_symbol))
    for k, (zeros, ones) in enumerate(c.bit_coset_idx):
        llrs[:, k] = total[:, ones].max(axis=1) - total[:, zeros].max(axis=1)
    return llrs
