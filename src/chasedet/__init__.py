"""Soft-input soft-output list detection for iterative MIMO receivers.

The package provides two reduced-complexity list detectors (a one-shot
parallel variant and a decision-feedback variant), exhaustive max-log and
LMMSE references, a small terminated convolutional codec with a max-log
decoder, the iterative detection-and-decoding loop that ties them together,
and a reproducible link-level Monte Carlo simulator with a CLI front end.

The top level exports what it takes to code, map and run one chunk through
the detect/decode loop, plus the simulator's config; everything else is
imported from its submodule.
"""

from .channel import WhitenedModel
from .codec import CodeConfig, encode, make_interleaver, puncture
from .constellation import build_constellation, modulate
from .idd import IddConfig, run_idd, slot_bits
from .simcli import SimConfig

__all__ = [
    "CodeConfig",
    "IddConfig",
    "SimConfig",
    "WhitenedModel",
    "build_constellation",
    "encode",
    "make_interleaver",
    "modulate",
    "puncture",
    "run_idd",
    "slot_bits",
]
