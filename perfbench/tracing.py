"""Spans around calls into chasedet's modules, taken from outside.

Each traced function is replaced, for the length of a `with` block, at the
module attribute its caller looks up (`chasedet.lchase.qr`, not
`chasedet.linalg.qr`), so a shared helper is split by calling module. A span
is named after the per-layer metric its self time feeds; spans nest strictly
because the simulator runs in one thread.
"""

from __future__ import annotations

import logging
from collections import Counter
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter


def _count_bcjr(counts, args, result):
    counts["codec.bcjr_calls"] += 1
    counts["codec.bcjr_steps"] += args[2].steps


def _count_contexts(det):
    def count(counts, args, result):
        counts[f"{det}.contexts"] += len(args[0]) * len(args[0][0])

    return count


def _count_idd(counts, args, result):
    det = args[2].detector
    counts["idd.iterations"] += len(result.iter_stats)
    for s in result.iter_stats:
        counts["counters.metric_evals"] += s.metric_evals
        counts["counters.boundary_evals"] += s.boundary_evals
        counts["counters.soft_stat_evals"] += s.soft_stat_evals
        counts["counters.streams"] += s.streams
        counts[f"counters.{det}.evals"] += s.metric_evals + s.boundary_evals
        counts[f"counters.{det}.streams"] += s.streams


def _count_calls(name):
    def count(counts, args, result):
        counts[name] += 1

    return count


# (module, attribute, span name, counter or None)
WRAPS = (
    ("simcli", "monte_carlo", "simcli.self_s", None),
    ("simcli", "generate_channel", "channel.draw_s", _count_calls("channel.uses")),
    ("simcli", "ChannelRealization", "channel.realize_s", None),
    ("simcli", "transmit", "channel.transmit_s", None),
    ("simcli", "whiten", "channel.whiten_s", None),
    ("simcli", "encode", "codec.encode_s", None),
    ("simcli", "puncture", "codec.encode_s", None),
    ("simcli", "run_idd", "idd.self_s", _count_idd),
    ("idd", "bcjr_decode", "codec.bcjr_s", _count_bcjr),
    ("idd", "lmmse_llrs", "reference.lmmse_s", _count_calls("reference.lmmse_calls")),
    ("lchase", "prepare_all_uses", "lchase.prepare_s", None),
    ("lchase", "detect_all_uses", "lchase.detect_s", _count_contexts("lchase")),
    ("bchase", "prepare_all_uses", "bchase.prepare_s", None),
    ("bchase", "detect_all_uses", "bchase.detect_s", _count_contexts("bchase")),
    ("bchase", "layer_post_llrs", "bchase.post_llrs_s", None),
    ("lchase", "pam_boundaries", "constellation.lchase.boundaries_s", None),
    ("lchase", "slice_pam", "constellation.lchase.slice_s", None),
    ("lchase", "pam_metric", "constellation.lchase.metric_s", None),
    ("bchase", "pam_boundaries", "constellation.bchase.boundaries_s", None),
    ("bchase", "slice_pam", "constellation.bchase.slice_s", None),
    ("bchase", "pam_metric", "constellation.bchase.metric_s", None),
    ("bchase", "soft_symbol_stats", "constellation.bchase.soft_stats_s", None),
    ("lchase", "qr", "linalg.lchase.qr_s", None),
    ("lchase", "back_substitute", "linalg.lchase.back_substitute_s", None),
    ("bchase", "qr", "linalg.bchase.qr_s", None),
    ("channel", "cholesky", "linalg.channel.cholesky_s", None),
    ("channel", "back_substitute", "linalg.channel.back_substitute_s", None),
)
SPAN_NAMES = tuple(dict.fromkeys(w[2] for w in WRAPS))


class Tracer:
    """Spans and counts of one traced pass, kept in memory.

    A span is (name, start, end, parent), parent being the index of the
    enclosing span or -1.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> dict:
    """Seconds per span name: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(SPAN_NAMES, 0.0)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


@contextmanager
def installed(tracer: Tracer):
    """Wrap every entry of WRAPS for the block, then put the originals back."""
    saved = []
    try:
        for module, attr, name, count in WRAPS:
            mod = import_module(f"chasedet.{module}")
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


class RedrawCounter(logging.Handler):
    """Counts the simulator's 'redrawing channel' warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.redraws = 0

    def emit(self, record):
        if record.getMessage().startswith("redrawing channel"):
            self.redraws += 1


@contextmanager
def counting_redraws():
    handler = RedrawCounter()
    logger = logging.getLogger("chasedet.sim")
    logger.addHandler(handler)
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
