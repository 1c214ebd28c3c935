"""Random draws and model builders shared by the tests."""

import numpy as np

from chasedet.channel import WhitenedModel
from chasedet.llr import LLR_CLIP


def iid_complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) entries: unit total variance split across real and imaginary."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def apriori(rng: np.random.Generator, kind: str, shape) -> np.ndarray:
    """A priori LLRs of one kind: "zero", "cauchy" (clipped at +-LLR_CLIP),
    "clipped" (at 0 and +-LLR_CLIP) or "rounded" (integers); the last two
    tie PAM levels exactly."""
    if kind == "cauchy":
        return np.clip(3.0 * rng.standard_cauchy(shape), -LLR_CLIP, LLR_CLIP)
    if kind == "clipped":
        return LLR_CLIP * rng.choice((-1.0, 0.0, 1.0), shape)
    if kind == "rounded":
        return np.round(rng.normal(scale=3.0, size=shape))
    assert kind == "zero", kind
    return np.zeros(shape)


def random_model(rng, n_rx, n, scale=1.0) -> WhitenedModel:
    """One channel use: an n_rx x n CN(0, scale^2) channel, then a CN(0, 1) observation."""
    h = scale * iid_complex_gaussian(rng, (n_rx, n))
    y = iid_complex_gaussian(rng, n_rx)
    return WhitenedModel(y=y, h=h)


def stack(models) -> WhitenedModel:
    """One WhitenedModel stacked over a sequence of channel uses."""
    return WhitenedModel(y=np.stack([m.y for m in models]), h=np.stack([m.h for m in models]))


def detect(detector, model, c, la) -> np.ndarray:
    """LLRs (n, q) of every stream of one channel use, by lchase or bchase."""
    la = np.asarray(la, dtype=float)[None]
    return detector.detect_all_uses(detector.prepare_all_uses(stack([model])), c, la)[0]
