"""The Chase detector both list detectors run: one skeleton, two inner resolvers.

A detector prepares one context per (target stream, channel use). Each
detector's prepare_all_uses stacks the column orders of all its (stream,
use) pairs on leading axes (streams, uses) and factors them in one pass: a
struct-of-arrays whose fields share those axes. Indexing a context indexes
every field, so ctx[i][u] is the context of stream i on use u and
ctx[i][u][None] a one-row stack. Every context exposes y_last and pivot,
the last row of its triangularized system, where the target stream sits
alone.

Detection searches the target stream exhaustively: each of its M candidate
values gets its a priori term and last-row metric, the detector's
inner_layers adds the best metric of every other layer under that candidate,
and bit LLRs are coset maxima over the candidates. A candidate's index is
its bit label, so its a priori terms are constellation.label_priors of the
target's a priori LLRs as they stand, and its cosets are halves of a bit
axis of the candidate axis split per bit (coset_llrs). The working set is
candidate-major: a slice's totals are (M, rows), so every pass that
broadcasts a per-row value (a variance, a coupling, level priors) runs over
contiguous rows rather than over the M candidates. The detectors differ only
in each inner layer's observation and variance (linear nulling for lchase,
ordered soft feedback for bchase); add_layer_metric takes the layer's
prior-aware maximum for both. The flattened contexts are walked in slices.
Each detector charges a context a bound on the float64 values it keeps live
(lchase.context_values, bchase.context_values), and a slice holds as many
contexts as fit SLICE_VALUES, which bounds the working set however many
uses are stacked.

Detection takes each stream's count of live leading uses; the targets after
them carry only padding, are never detected, and get LLRs of exactly 0.0.
Slices are views of consecutive live rows, which run on from stream to
stream and end where a stream's dead tail starts, so no context is gathered.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .constellation import Constellation, axis_parts, label_priors, level_walk

# Cap on the float64 values one detection slice keeps live at once (3.1 MB).
# A slice takes as many contexts as fit under it at the detector's charge.
SLICE_VALUES = 3 << 17


class StackedContext:
    """Mixin for frozen dataclasses whose `layers` field, each context's
    column order (..., n), fixes the batch axes.

    A detector's prepare_all_uses builds its context on leading axes
    (streams, uses), every field contiguous, so detection folds them into
    one row axis without a copy (ravel).
    """

    @property
    def stream(self) -> np.ndarray:
        """The target stream of each context, last in its column order."""
        return self.layers[..., -1]

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx):
        return type(self)(**{f.name: getattr(self, f.name)[idx] for f in fields(self)})

    def ravel(self):
        """The same contexts with their batch axes folded into one row axis,
        stream-major for a (streams, uses) stack: a view of every field."""
        lead, rows = np.ndim(self.stream), np.size(self.stream)
        folded = {}
        for f in fields(self):
            value = getattr(self, f.name)
            folded[f.name] = value.reshape((rows,) + value.shape[lead:])
        return type(self)(**folded)


def detect_all_uses(
    inner_layers,
    context_values: int,
    contexts,
    c: Constellation,
    la: np.ndarray,
    live=None,
) -> np.ndarray:
    """Max-log LLRs of every stream of every use: (uses, streams, q).

    contexts is a detector's (streams, uses) stack and la the a priori LLRs
    (uses, n, q), n the length of each context's column order, that is the
    streams of every use. inner_layers(ctx_rows, c, la, use_idx,
    total) adds the inner layers' best metrics to total, the (M, rows)
    candidate metrics, in place; use_idx maps each row to its la row.
    context_values is the detector's charge in float64 values per context,
    which sizes the slices under SLICE_VALUES. live holds each stream's
    count of live leading uses (all of them if None): the targets after
    them are dead, never detected, and their LLRs are 0.0. An la of another
    shape, or a non-finite one, raises ValueError.
    """
    n_streams, n_uses = np.shape(contexts.stream)
    expected = (n_uses, contexts.layers.shape[-1], c.bits_per_symbol)
    if np.shape(la) != expected:
        raise ValueError(f"expected a priori shape {expected}, got {np.shape(la)}")
    if not np.isfinite(la).all():
        raise ValueError("a priori LLRs must be finite")
    live = np.full(n_streams, n_uses) if live is None else live
    flat = contexts.ravel()
    rows = n_streams * n_uses
    step = max(1, SLICE_VALUES // context_values)
    # Freeing an untouched block of a slice's working set raises glibc's mmap
    # and heap-trim thresholds above it (mallopt(3)), so slice temporaries
    # reuse heap pages instead of faulting them back in on every slice.
    np.empty(min(step, rows) * context_values)
    out = np.zeros((rows, c.bits_per_symbol))
    runs, first = [], 0
    for i, n_live in enumerate(live):
        if n_live < n_uses or i + 1 == n_streams:
            runs.append((first, i * n_uses + n_live))
            first = (i + 1) * n_uses
    for lo, end in runs:
        for start in range(lo, end, step):
            ctx = flat[start : min(start + step, end)]
            use_idx = np.arange(start, start + len(ctx)) % n_uses
            total = label_priors(la[use_idx, ctx.stream, :])
            total -= np.abs(ctx.y_last - ctx.pivot * c.symbols[:, None]) ** 2
            inner_layers(ctx, c, la, use_idx, total)
            out[start : start + len(ctx)] = coset_llrs(total, c)
    return out.reshape(n_streams, n_uses, -1).transpose(1, 0, 2)


def add_layer_metric(total, parts, noise_var, la_layer, c: Constellation, cosets=False):
    """Add one inner layer's best metric under each candidate to total in place.

    parts is the layer's observation under each candidate as stacked real
    and imaginary parts (2, M, rows) (constellation.stack_axes), noise_var
    its variance, (M, rows) or (rows,); la_layer holds the layer's a
    priori LLRs (rows, q), whose level priors are formed once, level-major.
    Both PAM axes are walked at once, and the real axis's metric is added
    first, so the sum rounds as two per-axis passes did. With cosets, the
    same walk also returns both axes' coset gap, (nbits, 2, M, rows) (see
    constellation.level_walk); else None.
    """
    prior = c.axis.level_priors(axis_parts(la_layer))[:, :, None, :]
    best, gap = level_walk(parts, c.axis, prior, noise_var, cosets)
    total += best[0]
    total += best[1]
    return gap


def coset_llrs(total: np.ndarray, c: Constellation) -> np.ndarray:
    """Max-log bit LLRs (rows, q) from per-candidate metrics (M, rows).

    A candidate's index is its label, so splitting the candidate axis into
    one axis per bit, MSB first, puts bit k's cosets at index 0 and 1 of
    axis k: their maxima are maxima over the other bit axes, exact in any
    order. total should be contiguous; a strided one reduces far slower.
    """
    q = c.bits_per_symbol
    split = total.reshape((2,) * q + total.shape[1:])
    llrs = np.empty((total.shape[1], q))
    for k in range(q):
        best = split.max(axis=tuple(j for j in range(q) if j != k))
        np.subtract(best[1], best[0], out=llrs[:, k])
    return llrs
