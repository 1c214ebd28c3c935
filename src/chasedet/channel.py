"""Spatially correlated flat Rayleigh MIMO channel with noise whitening.

The observation model is y = H s + n, where H holds the columns of
Hbar = Rr^(1/2) Hw Rt^(1/2) that carry the streams, Hw is i.i.d. CN(0,1) and
n ~ CN(0, C_nn). Detection happens on the whitened model y_tilde = L^-1 y,
H_tilde = L^-1 H, where C_nn = L L^H is the Cholesky factorization: the
whitener L^-1 has L^-H L^-1 = C_nn^-1, and the whitened noise L^-1 n is
CN(0, I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .linalg import back_substitute, cholesky


@dataclass(frozen=True)
class CorrelationModel:
    """Exponential (Kronecker) antenna correlation, entry rho^|a-b| per side."""

    rho_tx: float = 0.0
    rho_rx: float = 0.0

    def __post_init__(self) -> None:
        for rho in (self.rho_tx, self.rho_rx):
            if not 0.0 <= rho < 1.0:
                raise ConfigError(f"correlation magnitude {rho} outside [0, 1)")

    def tx_matrix(self, n: int) -> np.ndarray:
        return _exponential_matrix(self.rho_tx, n)

    def rx_matrix(self, n: int) -> np.ndarray:
        return _exponential_matrix(self.rho_rx, n)


def _exponential_matrix(rho: float, n: int) -> np.ndarray:
    idx = np.arange(n)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition."""
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _complex_normal(normals: np.ndarray, axis: int) -> np.ndarray:
    """CN(0, 1) entries from standard normals, real parts at index 0 of axis."""
    re, im = np.take(normals, 0, axis), np.take(normals, 1, axis)
    return (re + 1j * im) / np.sqrt(2.0)


def generate_channel(
    n_r: int, n_t: int, corr: CorrelationModel, normals: np.ndarray
) -> np.ndarray:
    """Hbar = Rr^(1/2) Hw Rt^(1/2), entries unit-variance complex Gaussian.

    normals are standard normals shaped (..., 2, n_r, n_t), real parts before
    imaginary parts; each leading index gives one (n_r, n_t) channel.
    """
    if normals.shape[-3:] != (2, n_r, n_t):
        raise ValueError(f"expected normals shaped (..., 2, {n_r}, {n_t})")
    h_w = _complex_normal(normals, -3)
    if corr.rho_rx > 0.0:
        h_w = _sym_sqrt(corr.rx_matrix(n_r)) @ h_w
    if corr.rho_tx > 0.0:
        h_w = h_w @ _sym_sqrt(corr.tx_matrix(n_t))
    return h_w


@dataclass(frozen=True)
class WhitenedModel:
    """Observation after noise whitening: y = h s + n with n ~ CN(0, I).

    y is (n_rx,) and h (n_rx, n_streams) for one channel use; a stack of uses
    carries the same leading axes on both.
    """

    y: np.ndarray
    h: np.ndarray

    @property
    def n_streams(self) -> int:
        return self.h.shape[-1]


def require_finite(model: WhitenedModel) -> None:
    """Raise ValueError unless every entry of model.h and model.y is finite."""
    if not (np.isfinite(model.h).all() and np.isfinite(model.y).all()):
        raise ValueError("whitened channel and observation must be finite")


class ChannelRealization:
    """One channel draw plus everything needed to transmit and whiten on it.

    h is the (..., n_r, n_streams) channel the streams see, one matrix or a
    stack of draws, and c_nn one (n_r, n_r) noise covariance or a stack whose
    leading axes broadcast against h's, such as (B, n_r, n_r) for B blocks'
    uses, h (U, B, n_r, n_streams): each covariance's noise factor and
    whitener are factored once, for every draw it applies to, and the
    covariance itself is not kept.
    """

    def __init__(self, h: np.ndarray, c_nn: np.ndarray):
        self.h = np.asarray(h, dtype=complex)
        n_r = self.h.shape[-2]
        c_nn = np.asarray(c_nn, dtype=complex)
        if c_nn.shape[-2:] != (n_r, n_r):
            raise ConfigError("noise covariance must be N_r x N_r")

        # The whitener is L^-1 for the noise factor L, the adjoint of the
        # L^-H that back substitution on L^H gives.
        self._noise_factor = cholesky(c_nn)
        self.whitener = _adjoint(
            back_substitute(_adjoint(self._noise_factor), np.eye(n_r, dtype=complex))
        )

    @property
    def n_streams(self) -> int:
        return self.h.shape[-1]


def transmit(ch: ChannelRealization, s: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """y = H s + n with n drawn from CN(0, C_nn).

    s is (n_streams,) or a stack matching a stacked realization. The noise is
    made from standard normals shaped (..., 2, n_r), real parts before
    imaginary parts.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape[-1:] != (ch.n_streams,):
        raise ValueError(f"expected {ch.n_streams} stream symbols")
    n_r = ch.h.shape[-2]
    if normals.shape[-2:] != (2, n_r):
        raise ValueError(f"expected normals shaped (..., 2, {n_r})")
    w = _complex_normal(normals, -2)
    return _apply(ch.h, s) + _apply(ch._noise_factor, w)


def whiten(y: np.ndarray, ch: ChannelRealization) -> WhitenedModel:
    """Apply the realization's whitener to an observation (or a stack)."""
    y = np.asarray(y, dtype=complex)
    return WhitenedModel(_apply(ch.whitener, y), ch.whitener @ ch.h)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.swapaxes(a, -2, -1).conj()


def _apply(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector products a @ x over any leading axes, as stacked matmul."""
    return (a @ x[..., None])[..., 0]
