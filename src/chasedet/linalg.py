"""Small dense linear algebra with the exact conventions the detectors need.

QR returns the thin factor R, with its diagonal normalized to be real and
positive, which makes the factorization unique and reproducible, and the
observation rotated by the matching Q; Q itself is never returned. Triangular
systems are solved by substitution; no routine here ever forms a matrix
inverse.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefiniteError, SingularMatrixError

RANK_RTOL = 1e-12


def qr(a: np.ndarray, y: np.ndarray) -> tuple:
    """R and z = Q^H y of a thin QR A = QR with positive real diagonal of R.

    Requires rows >= cols and numerical full column rank: any |R_kk| below
    1e-12 * ||A||_F raises SingularMatrixError. Leading batch dimensions are
    factored together in one call (and a batch fails as a whole if any member
    is rank deficient); y (..., rows) broadcasts over them, so one observation
    serves every column order of its channel. Q never leaves this function.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] < a.shape[-1]:
        raise ValueError("qr expects tall or square matrices")
    if not np.all(np.isfinite(a)):
        raise ValueError("qr input must be finite")
    q, r = np.linalg.qr(a, mode="reduced")
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    scale = np.sqrt((np.abs(a) ** 2).sum(axis=(-2, -1)))
    floor = RANK_RTOL * np.maximum(scale, np.finfo(float).tiny)
    if np.any(np.abs(diag) < floor[..., None]):
        raise SingularMatrixError("matrix is numerically rank deficient")
    phase = diag / np.abs(diag)
    q = q * phase[..., None, :]
    r = phase.conj()[..., :, None] * r
    # Scrub rounding residue so the advertised structure holds exactly.
    n = r.shape[-1]
    below = np.tril_indices(n, -1)
    r[..., below[0], below[1]] = 0.0
    r[..., np.arange(n), np.arange(n)] = np.abs(diag)
    return r, np.einsum("...ji,...j->...i", q.conj(), y)


def back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve R X = B for upper-triangular R by back substitution.

    B holds the right-hand sides as columns; passing the identity is the
    supported way to materialize R^-1. Leading batch dimensions of r and b
    broadcast.
    """
    r = np.asarray(r)
    b = np.asarray(b)
    n = r.shape[-1]
    if r.ndim < 2 or r.shape[-2] != n:
        raise ValueError("R must be square")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    if np.any(np.abs(diag) == 0.0):
        raise SingularMatrixError("zero pivot in back substitution")
    if b.ndim < 2 or b.shape[-2] != n:
        raise ValueError("right-hand sides must be columns as long as R")
    batch = np.broadcast_shapes(r.shape[:-2], b.shape[:-2])
    x = np.zeros(batch + b.shape[-2:], dtype=np.result_type(r, b, float))
    for i in range(n - 1, -1, -1):
        acc = b[..., i, :] - np.einsum(
            "...j,...jk->...k", r[..., i, i + 1 :], x[..., i + 1 :, :]
        )
        x[..., i, :] = acc / diag[..., i, None]
    return x


def cholesky(b: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L L^H = B for Hermitian positive definite B.

    Leading batch dimensions are factored together in one call, each matrix
    checked for symmetry against its own scale (and a batch fails as a whole
    if any member is not Hermitian or not positive definite).
    """
    b = np.asarray(b, dtype=complex)
    if b.ndim < 2 or b.shape[-2] != b.shape[-1]:
        raise ValueError("cholesky expects square matrices")
    b_h = np.swapaxes(b, -2, -1).conj()
    scale = np.maximum(1.0, np.abs(b).max(axis=(-2, -1), initial=0.0))
    if np.any(np.abs(b - b_h).max(axis=(-2, -1), initial=0.0) > 1e-10 * scale):
        raise ValueError("matrix is not Hermitian")
    try:
        return np.linalg.cholesky((b + b_h) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from None
