"""Soft-input soft-output list detection for iterative MIMO receivers.

The package provides two reduced-complexity list detectors (a one-shot
parallel variant and a decision-feedback variant), exhaustive max-log and
LMMSE references, a small terminated convolutional codec with a max-log
decoder, the iterative detection-and-decoding loop that ties them together,
and a reproducible link-level Monte Carlo simulator with a CLI front end.
"""

from .bchase import BchaseStreamContext
from .channel import (
    ChannelRealization,
    CorrelationModel,
    WhitenedModel,
    generate_channel,
    transmit,
    whiten,
)
from .codec import (
    CodeConfig,
    Interleaver,
    bcjr_decode,
    depuncture,
    encode,
    make_interleaver,
    puncture,
)
from .constellation import (
    SUPPORTED_ORDERS,
    BoundarySet,
    Constellation,
    PamAxis,
    build_constellation,
    coset_min_sqdist,
    modulate,
    pam_boundaries,
    pam_metric,
    slice_pam,
    soft_symbol_stats,
)
from .counters import DetectorStats
from .errors import ConfigError, NotPositiveDefiniteError, SingularMatrixError
from .idd import DETECTORS, IddConfig, IddResult, run_idd, slot_bits, uses_for_block
from .lchase import LchaseStreamContext
from .linalg import back_substitute, cholesky, qr
from .llr import LLR_CLIP, saturate
from .reference import brute_pam_argmax, exact_maxlog_llrs, lmmse_llrs
from .simcli import SimConfig, SimRecord, monte_carlo, parse_snr_grid, write_csv

__version__ = "0.1.0"

__all__ = [
    "BchaseStreamContext",
    "BoundarySet",
    "ChannelRealization",
    "CodeConfig",
    "ConfigError",
    "Constellation",
    "CorrelationModel",
    "DETECTORS",
    "DetectorStats",
    "IddConfig",
    "IddResult",
    "Interleaver",
    "LLR_CLIP",
    "LchaseStreamContext",
    "NotPositiveDefiniteError",
    "PamAxis",
    "SUPPORTED_ORDERS",
    "SimConfig",
    "SimRecord",
    "SingularMatrixError",
    "WhitenedModel",
    "back_substitute",
    "bcjr_decode",
    "brute_pam_argmax",
    "build_constellation",
    "cholesky",
    "coset_min_sqdist",
    "depuncture",
    "encode",
    "exact_maxlog_llrs",
    "generate_channel",
    "lmmse_llrs",
    "make_interleaver",
    "modulate",
    "monte_carlo",
    "pam_boundaries",
    "pam_metric",
    "parse_snr_grid",
    "puncture",
    "qr",
    "run_idd",
    "saturate",
    "slice_pam",
    "slot_bits",
    "soft_symbol_stats",
    "transmit",
    "uses_for_block",
    "whiten",
    "write_csv",
]
