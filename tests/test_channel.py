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
    # sigma is one value or one per draw of a stack: its shape broadcasts
    # against the channel's leading axes without adding to them.
    hbar = np.ones((5, 3, 2, 2), dtype=complex)
    for sigma in (0.5, np.ones(3), np.ones((5, 1)), np.ones((5, 3))):
        assert ChannelRealization(hbar, sigma).sigma.shape == np.shape(sigma)
    for sigma in (np.ones(4), np.ones((2, 5, 3)), np.eye(2)):
        with pytest.raises(ConfigError):
            ChannelRealization(hbar, sigma)
    with pytest.raises(ConfigError):
        ChannelRealization(np.eye(2, dtype=complex), np.eye(3))


def test_white_noise_shortcut():
    # White noise sigma^2 I has the noise factor sigma I and the whitener
    # I / sigma. Transmitting by sigma and whitening by a multiply by
    # 1 / sigma gives bit for bit what those diagonal matrices give as
    # stacked matmuls, one per block, at every receive antenna count.
    rng = np.random.default_rng(3)
    uses, blocks = 4, 3
    for n_r in range(1, 7):
        hbar = generate_channel(
            n_r, n_r, CorrelationModel(0.5, 0.5), rng.standard_normal((uses, blocks, 2, n_r, n_r))
        )
        sigma = 10.0 ** rng.uniform(-15.0, 15.0, blocks)
        s = rng.normal(size=(uses, blocks, n_r)) + 1j * rng.normal(size=(uses, blocks, n_r))
        normals = rng.standard_normal((uses, blocks, 2, n_r))
        w = (normals[..., 0, :] + 1j * normals[..., 1, :]) / np.sqrt(2.0)
        ch = ChannelRealization(hbar, sigma)
        factor = (np.eye(n_r) * sigma[:, None, None]).astype(complex)
        whitener = (np.eye(n_r) * (1.0 / sigma)[:, None, None]).astype(complex)

        y = transmit(ch, s, normals)
        assert np.array_equal(y, (hbar @ s[..., None])[..., 0] + (factor @ w[..., None])[..., 0])
        model = whiten(y, ch)
        assert np.array_equal(model.y, (whitener @ y[..., None])[..., 0])
        assert np.array_equal(model.h, whitener @ hbar)


def test_whitened_noise_covariance():
    rng = np.random.default_rng(5)
    hbar = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    ch = ChannelRealization(hbar, 0.7)
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
    sigma = np.sqrt(0.3)
    ch = ChannelRealization(hbar, sigma)
    s = np.array([1 + 1j, -1 + 0j]) / np.sqrt(2)
    y = transmit(ch, s, rng.standard_normal((2, 4)))
    model = whiten(y, ch)
    np.testing.assert_allclose(model.h, ch.h / sigma, atol=1e-12)
    np.testing.assert_allclose(model.y - model.h @ s, (y - ch.h @ s) / sigma, atol=1e-12)
    assert model.n_streams == 2


@pytest.mark.parametrize("n_r", range(1, 7), ids=lambda n_r: f"white-{n_r}")
def test_stacked_noise_covariances_match_per_block_realizations(n_r):
    # A (B, 1) stack of noise standard deviations over a (B, U, n_r, n_t)
    # stack of channels transmits and whitens bit for bit as B realizations
    # of one block each.
    rng = np.random.default_rng(n_r)
    blocks, uses, n_t = 3, 5, n_r + 1
    corr = CorrelationModel(0.5, 0.5)
    hbar = generate_channel(n_r, n_t, corr, rng.standard_normal((blocks, uses, 2, n_r, n_t)))
    sigma = np.sqrt(rng.uniform(0.1, 2.0, (blocks, 1)))
    s = rng.normal(size=(blocks, uses, n_r)) + 1j * rng.normal(size=(blocks, uses, n_r))
    normals = rng.standard_normal((blocks, uses, 2, n_r))
    stacked = ChannelRealization(hbar[..., :n_r], sigma)
    y = transmit(stacked, s, normals)
    model = whiten(y, stacked)
    for b in range(blocks):
        alone = ChannelRealization(hbar[b, ..., :n_r], sigma[b, 0])
        y_alone = transmit(alone, s[b], normals[b])
        assert np.array_equal(y[b], y_alone)
        model_alone = whiten(y_alone, alone)
        assert np.array_equal(model.y[b], model_alone.y)
        assert np.array_equal(model.h[b], model_alone.h)


@pytest.mark.parametrize("n_r", range(1, 7))
def test_whitener_inverts_the_noise_factor(n_r):
    # Whitening multiplies by 1 / sigma the noise that transmit drew as
    # sigma w, so it gives back w to within three roundings (1.5 ulp) at
    # every sigma the simulator reaches, about 1e-15 to 1e15 at
    # +-MAX_SNR_DB.
    rng = np.random.default_rng(n_r)
    sigma = 10.0 ** rng.uniform(-15.0, 15.0, 3)
    ch = ChannelRealization(np.ones((2, 3, n_r, n_r), dtype=complex), sigma)
    normals = rng.standard_normal((2, 3, 2, n_r))
    noise = whiten(transmit(ch, np.zeros((2, 3, n_r)), normals), ch).y
    w = (normals[..., 0, :] + 1j * normals[..., 1, :]) / np.sqrt(2.0)
    for part in ("real", "imag"):
        np.testing.assert_allclose(
            getattr(noise, part), getattr(w, part), rtol=2 * np.finfo(float).eps, atol=0
        )
