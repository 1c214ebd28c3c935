"""The benchmark's tracer: self time and wrapper restoration."""

import importlib
import time

import pytest

import tracing


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_subtracts_nested_children():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(0.01))

    def middle():
        _busy(0.01)
        leaf()
        leaf()

    mid = tracer.wrap("mid", middle)

    def outer():
        mid()
        leaf()

    tracer.wrap("outer", outer)()
    spans = tracer.spans
    assert [s[0] for s in spans] == ["outer", "mid", "leaf", "leaf", "leaf"]
    assert [s[3] for s in spans] == [-1, 0, 1, 1, 0]
    times = tracing.self_times(spans)
    duration = {i: s[2] - s[1] for i, s in enumerate(spans)}
    assert times["leaf"] == pytest.approx(duration[2] + duration[3] + duration[4])
    assert times["mid"] == pytest.approx(duration[1] - duration[2] - duration[3])
    assert times["outer"] == pytest.approx(duration[0] - duration[1] - duration[4])
    # Self times partition the root span exactly.
    assert sum(times.values()) == pytest.approx(duration[0])
    assert times["mid"] > 0.005 and times["leaf"] > 0.025


def test_span_is_recorded_when_the_call_raises():
    tracer = tracing.Tracer()

    def fail():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("fail", fail)()
    assert len(tracer.spans) == 1 and tracer.spans[0][0] == "fail"
    assert tracer._stack == []


def test_wrappers_are_installed_and_restored():
    modules = {m: importlib.import_module(f"chasedet.{m}") for m, *_ in tracing.WRAPS}
    originals = {(m, a): getattr(modules[m], a) for m, a, *_ in tracing.WRAPS}
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            for (m, a), fn in originals.items():
                assert getattr(modules[m], a) is not fn
                assert getattr(modules[m], a).__wrapped__ is fn
            raise RuntimeError("restore even when the pass fails")
    for (m, a), fn in originals.items():
        assert getattr(modules[m], a) is fn


def test_redraw_counter_counts_only_redraw_warnings():
    import logging

    log = logging.getLogger("chasedet.sim")
    with tracing.counting_redraws() as counter:
        log.warning("redrawing channel for snr point %d block %d: %s", 0, 3, "x")
        log.warning("something else")
    log.warning("redrawing channel after the block")
    assert counter.redraws == 1
    assert counter not in log.handlers
