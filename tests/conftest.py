"""Test-local helper modules (draws.py) import under any pytest import mode,
and the `walk` fixture tallies the work a detection pass does."""

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


class Walk(Counter):
    """Units of work tallied by module functions wrapped for one test."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch

    def tally(self, module, name, key, units):
        """Wrap module.name, where its caller looks it up, so that each call
        adds units(*args, **kwargs) to self[key]."""
        real = getattr(module, name)

        def counted(*args, **kwargs):
            self[key] += units(*args, **kwargs)
            return real(*args, **kwargs)

        self._monkeypatch.setattr(module, name, counted)


@pytest.fixture
def walk(monkeypatch):
    return Walk(monkeypatch)
