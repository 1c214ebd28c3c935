"""Correlated channel generation, noise model, and whitening."""

import numpy as np
import pytest

from chasedet.channel import (
    ChannelRealization,
    CorrelationModel,
    generate_channel,
    transmit,
    whiten,
)
from chasedet.errors import ConfigError


def test_correlation_matrices_exponential():
    corr = CorrelationModel(rho_tx=0.5, rho_rx=0.9)
    tx = corr.tx_matrix(3)
    np.testing.assert_allclose(
        tx, [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]], atol=1e-15
    )
    rx = corr.rx_matrix(2)
    np.testing.assert_allclose(rx, [[1.0, 0.9], [0.9, 1.0]], atol=1e-15)
    uncorr = CorrelationModel(0.0, 0.0)
    np.testing.assert_array_equal(uncorr.rx_matrix(4), np.eye(4))


def test_correlation_validated():
    with pytest.raises(ConfigError):
        CorrelationModel(rho_tx=1.0, rho_rx=0.0)
    with pytest.raises(ConfigError):
        CorrelationModel(rho_tx=0.0, rho_rx=-0.1)


def test_generate_channel_statistics():
    corr = CorrelationModel(0.0, 0.0)
    rng = np.random.default_rng(42)
    draws = np.stack(
        [generate_channel(2, 2, corr, rng.standard_normal((2, 2, 2))) for _ in range(4000)]
    )
    power = np.mean(np.abs(draws) ** 2)
    assert abs(power - 1.0) < 0.05
    assert abs(np.mean(draws)) < 0.05


def test_generate_channel_receive_correlation():
    corr = CorrelationModel(rho_tx=0.0, rho_rx=0.8)
    rng = np.random.default_rng(7)
    acc = np.zeros((2, 2), dtype=complex)
    n = 6000
    for _ in range(n):
        h = generate_channel(2, 3, corr, rng.standard_normal((2, 2, 3)))
        acc += h @ h.conj().T
    sample = acc / (n * 3)
    np.testing.assert_allclose(sample, corr.rx_matrix(2), atol=0.05)


def test_realization_validates_dimensions():
    hbar = np.eye(2, dtype=complex)
    with pytest.raises(ConfigError):
        ChannelRealization(hbar, np.eye(3))
    with pytest.raises(ConfigError):
        ChannelRealization(hbar, np.eye(2), w=np.ones((3, 1)))


def test_white_noise_shortcut():
    # For c_nn = sigma^2 I the whitener must be I / sigma.
    hbar = np.array([[1.0 + 1j, 0.3], [0.2, 2.0 - 1j]])
    sigma2 = 0.25
    ch = ChannelRealization(hbar, sigma2 * np.eye(2))
    np.testing.assert_allclose(ch.whitener, np.eye(2) / np.sqrt(sigma2), atol=1e-12)


def test_whitened_noise_covariance():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c_nn = a @ a.conj().T + 0.5 * np.eye(3)
    hbar = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    ch = ChannelRealization(hbar, c_nn)
    s = np.zeros(2, dtype=complex)
    n = 4000
    acc = np.zeros((3, 3), dtype=complex)
    for _ in range(n):
        model = whiten(transmit(ch, s, rng.standard_normal((2, 3))), ch)
        acc += np.outer(model.y, model.y.conj())
    np.testing.assert_allclose(acc / n, np.eye(3), atol=0.12)


def test_whiten_consistency():
    # Whitening transforms y and h together: residual y - h s is exactly the
    # whitened noise for the transmitted s.
    rng = np.random.default_rng(9)
    hbar = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    c_nn = 0.3 * np.eye(4)
    ch = ChannelRealization(hbar, c_nn)
    s = np.array([1 + 1j, -1 + 0j]) / np.sqrt(2)
    y = transmit(ch, s, rng.standard_normal((2, 4)))
    model = whiten(y, ch)
    np.testing.assert_allclose(model.h, ch.whitener @ ch.h, atol=1e-12)
    np.testing.assert_allclose(
        model.y - model.h @ s, ch.whitener @ (y - ch.h @ s), atol=1e-12
    )
    assert model.n_streams == 2


@pytest.mark.parametrize("n_r", range(1, 7))
@pytest.mark.parametrize("colored", (False, True), ids=("white", "colored"))
def test_stacked_noise_covariances_match_per_block_realizations(n_r, colored):
    # A (B, 1, n_r, n_r) stack of noise covariances over a (B, U, n_r, n_t)
    # stack of channels transmits and whitens bit for bit as B realizations
    # of one block each.
    rng = np.random.default_rng(n_r)
    blocks, uses, n_t = 3, 5, n_r + 1
    corr = CorrelationModel(0.5, 0.5)
    hbar = generate_channel(n_r, n_t, corr, rng.standard_normal((blocks, uses, 2, n_r, n_t)))
    c_nn = rng.uniform(0.1, 2.0, (blocks, 1, 1, 1)) * np.eye(n_r)
    if colored:
        a = rng.normal(size=(blocks, 1, n_r, n_r)) + 1j * rng.normal(size=(blocks, 1, n_r, n_r))
        c_nn = c_nn + a @ np.swapaxes(a, -2, -1).conj()
    w = np.eye(n_t, n_r, dtype=complex)
    s = rng.normal(size=(blocks, uses, n_r)) + 1j * rng.normal(size=(blocks, uses, n_r))
    normals = rng.standard_normal((blocks, uses, 2, n_r))
    stacked = ChannelRealization(hbar, c_nn, w)
    y = transmit(stacked, s, normals)
    model = whiten(y, stacked)
    for b in range(blocks):
        alone = ChannelRealization(hbar[b], c_nn[b, 0], w)
        y_alone = transmit(alone, s[b], normals[b])
        assert np.array_equal(y[b], y_alone)
        model_alone = whiten(y_alone, alone)
        assert np.array_equal(model.y[b], model_alone.y)
        assert np.array_equal(model.h[b], model_alone.h)


@pytest.mark.parametrize("n_r", range(1, 7))
def test_whitener_inverts_the_noise_factor(n_r):
    # The whitener is L^-1 for C_nn = L L^H, so it undoes the factor that
    # colours the noise to within rounding of the substitution: the largest
    # entry error seen over 20 seeds is about 4 ulp at n_r = 5.
    rng = np.random.default_rng(n_r)
    a = rng.normal(size=(3, 1, n_r, n_r)) + 1j * rng.normal(size=(3, 1, n_r, n_r))
    c_nn = rng.uniform(0.1, 2.0, (3, 1, 1, 1)) * np.eye(n_r) + a @ np.swapaxes(a, -2, -1).conj()
    ch = ChannelRealization(np.ones((3, 2, n_r, n_r), dtype=complex), c_nn)
    product = ch.whitener @ ch._noise_factor
    identity = np.broadcast_to(np.eye(n_r), product.shape)
    np.testing.assert_allclose(product, identity, rtol=0, atol=8 * np.finfo(float).eps)


def test_precoder_selects_streams():
    hbar = np.arange(6, dtype=float).reshape(2, 3) + 0j
    w = np.eye(3, 2, dtype=complex)
    ch = ChannelRealization(hbar, np.eye(2), w=w)
    np.testing.assert_array_equal(ch.h, hbar[:, :2])
