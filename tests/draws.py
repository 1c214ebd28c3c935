"""Random draws shared by the tests."""

import numpy as np


def iid_complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) entries: unit total variance split across real and imaginary."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
