"""Random draws and model builders shared by the tests."""

import numpy as np

from chasedet.channel import WhitenedModel
from chasedet.llr import LLR_CLIP
from chasedet.reference import maxlog_factors, maxlog_llrs


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


def exact_maxlog_llrs(model, c, apriori=None) -> np.ndarray:
    """Exhaustive max-log LLRs of one use or a stack of uses, factored here;
    a priori LLRs default to zeros."""
    if apriori is None:
        apriori = np.zeros(model.y.shape[:-1] + (model.n_streams, c.bits_per_symbol))
    return maxlog_llrs(maxlog_factors(model), c, apriori)


def detect(detector, model, c, la) -> np.ndarray:
    """LLRs (n, q) of every stream of one channel use, by lchase or bchase."""
    la = np.asarray(la, dtype=float)[None]
    return detector.detect_all_uses(detector.prepare_all_uses(stack([model])), c, la)[0]


def brute_pam_argmax(z, axis, apriori, noise_var) -> np.ndarray:
    """Index of the metric-maximizing level of a PamAxis by direct evaluation.

    Same metric as the threshold slicer: per-level prior minus squared
    distance over the noise variance, ties to the smaller index.
    """
    z = np.asarray(z, dtype=float)
    prior = np.moveaxis(axis.level_priors(np.asarray(apriori, dtype=float)), 0, -1)
    var = np.asarray(noise_var, dtype=float)
    metric = prior - ((z[..., None] - axis.levels) ** 2) / var[..., None]
    return metric.argmax(axis=-1)


def brute_coset_minima(z, axis) -> tuple:
    """Per-bit minimum squared distances (d0, d1), each z.shape + (nbits,),
    from z to the levels whose bit is 0 and to those whose bit is 1, each
    coset's distances formed and reduced at once."""
    z = np.asarray(z, dtype=float)
    d0, d1 = np.empty(z.shape + (axis.nbits,)), np.empty(z.shape + (axis.nbits,))
    for n, column in enumerate(axis.sub_labels.T):
        for d, bit in ((d0, 0), (d1, 1)):
            d[..., n] = ((z[..., None] - axis.levels[column == bit]) ** 2).min(axis=-1)
    return d0, d1
