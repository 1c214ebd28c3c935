"""QR conventions, triangular solves, and Cholesky factors."""

import numpy as np
import pytest

from chasedet.errors import NotPositiveDefiniteError, SingularMatrixError
from chasedet.linalg import back_substitute, cholesky, qr


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("shape", [(3, 3), (5, 3), (4, 1)])
def test_qr_reconstruction_and_conventions(shape):
    rng = np.random.default_rng(sum(shape))
    a = _random_complex(rng, shape)
    q, r = qr(a)
    np.testing.assert_allclose(q @ r, a, atol=1e-12)
    np.testing.assert_allclose(
        q.conj().T @ q, np.eye(shape[1]), atol=1e-12
    )
    d = np.diagonal(r)
    assert np.all(d.imag == 0.0) and np.all(d.real > 0.0)
    # Exact zeros below the diagonal, not just small values.
    assert np.all(r[np.tril_indices(shape[1], -1)] == 0.0)


def test_qr_stacked_matches_loop():
    rng = np.random.default_rng(2)
    a = _random_complex(rng, (6, 4, 3))
    q, r = qr(a)
    for k in range(6):
        qk, rk = qr(a[k])
        np.testing.assert_allclose(q[k], qk, atol=1e-13)
        np.testing.assert_allclose(r[k], rk, atol=1e-13)


def test_qr_rejects_bad_inputs():
    with pytest.raises(ValueError):
        qr(np.ones((2, 3)))
    with pytest.raises(ValueError):
        qr(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        qr(np.array([[1.0, 1.0], [1.0, 1.0]]))
    # One singular member fails the whole stack.
    stack = np.stack([np.eye(2), np.ones((2, 2))])
    with pytest.raises(SingularMatrixError):
        qr(stack)


def test_back_substitute_vector_and_matrix():
    rng = np.random.default_rng(7)
    r = np.triu(_random_complex(rng, (5, 5))) + 2.0 * np.eye(5)
    # A vector goes in as one column.
    b = _random_complex(rng, 5)
    x = back_substitute(r, b[:, None])[:, 0]
    np.testing.assert_allclose(x, np.linalg.solve(r, b), atol=1e-12)
    with pytest.raises(ValueError):
        back_substitute(r, b)
    bm = _random_complex(rng, (5, 3))
    np.testing.assert_allclose(back_substitute(r, bm), np.linalg.solve(r, bm), atol=1e-12)
    # R^-1 through the identity.
    inv = back_substitute(r, np.eye(5, dtype=complex))
    np.testing.assert_allclose(inv @ r, np.eye(5), atol=1e-12)


def test_back_substitute_batched():
    rng = np.random.default_rng(8)
    r = np.triu(_random_complex(rng, (4, 3, 3)))
    r += 2.0 * np.eye(3)
    b = _random_complex(rng, (4, 3))
    x = back_substitute(r, b[..., None])
    assert x.shape == (4, 3, 1)
    for k in range(4):
        np.testing.assert_allclose(x[k, :, 0], np.linalg.solve(r[k], b[k]), atol=1e-12)
    # Broadcast one right-hand-side matrix over the whole stack.
    xm = back_substitute(r, np.eye(3, dtype=complex)[None])
    for k in range(4):
        np.testing.assert_allclose(xm[k] @ r[k], np.eye(3), atol=1e-12)


def test_back_substitute_zero_pivot():
    r = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(SingularMatrixError):
        back_substitute(r, np.ones((2, 1)))


def test_back_substitute_empty_system():
    x = back_substitute(np.zeros((0, 0)), np.zeros((0, 1)))
    assert x.shape == (0, 1)


def test_cholesky_matches_numpy_and_validates():
    rng = np.random.default_rng(3)
    a = _random_complex(rng, (4, 4))
    b = a @ a.conj().T + np.eye(4)
    l = cholesky(b)
    np.testing.assert_allclose(l @ l.conj().T, b, atol=1e-12)
    with pytest.raises(ValueError):
        cholesky(a)  # not Hermitian
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(-np.eye(3))


def test_cholesky_factors_a_stack_matrix_by_matrix():
    # A stack is factored as numpy factors each member alone, and one
    # non-Hermitian member fails the whole stack.
    rng = np.random.default_rng(4)
    a = _random_complex(rng, (3, 2, 4, 4))
    b = a @ np.swapaxes(a, -2, -1).conj() + np.eye(4)
    l = cholesky(b)
    assert l.shape == b.shape
    for idx in np.ndindex(b.shape[:-2]):
        np.testing.assert_array_equal(l[idx], np.linalg.cholesky(b[idx]))
    b[2, 1, 0, 3] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        cholesky(b)

