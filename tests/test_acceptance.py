"""Acceptance gates: oracle equivalences, counter identities, noise
statistics, codec integrity, Monte Carlo behavior, and reproducibility.

Each test prints one `ACCEPTANCE <name>: PASS|FAIL` line (visible under
`pytest -s`). The two Monte Carlo gates run thousands of coded blocks and
take a few minutes combined; everything else finishes in seconds.
"""

import math
from fractions import Fraction

import numpy as np

from chasedet import bchase, lchase
from chasedet.channel import ChannelRealization, WhitenedModel, transmit, whiten
from chasedet.codec import CodeConfig, bcjr_decode, encode
from chasedet.constellation import (
    axis_parts,
    build_constellation,
    pam_boundaries,
    pam_metric,
    slice_pam,
)
from chasedet.counters import pass_stats
from chasedet.simcli import (
    SimConfig,
    _build_bundle,
    monte_carlo,
    simulate_sweep,
    validate_config,
    write_csv,
)

from draws import brute_pam_argmax, exact_maxlog_llrs, iid_complex_gaussian, stack

MC_BLOCKS = 2000
GAIN_GRID = (8.0, 10.0, 12.0, 14.0, 16.0)
CORR_GRID = (12.0, 16.0, 20.0, 24.0, 28.0)


def _report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _binom_tail_le(k: int, n: int) -> float:
    """Exact P[X <= k] for X ~ Binomial(n, 1/2); 1.0 when n == 0."""
    if n == 0:
        return 1.0
    total = sum(math.comb(n, i) for i in range(min(k, n) + 1))
    return float(Fraction(total, 2**n))


def test_slicer_equals_brute_argmax():
    # 1e5 random (observation, priors, variance) draws per order: the
    # interval slicer must return the brute-force metric argmax every time.
    rng = np.random.default_rng(101)
    ok = True
    for order in (4, 16, 64):
        axis = build_constellation(order).axis
        n = 100_000
        z = rng.uniform(-4.0, 4.0, n)
        la = rng.uniform(-10.0, 10.0, (n, axis.nbits))
        var = np.exp(rng.uniform(np.log(0.05), np.log(10.0), n))
        got = slice_pam(z, axis, pam_boundaries(axis, la, var))
        ref = brute_pam_argmax(z, axis, la, var)
        ok = ok and bool(np.all(got == ref))
    _report("slicer-exactness", ok)


def test_single_stream_detectors_match_oracle():
    # With one stream both list detectors degenerate to the exhaustive
    # search; 1e4 random instances per order, random finite priors, 1e-9.
    rng = np.random.default_rng(102)
    worst = 0.0
    for order in (4, 16, 64):
        c = build_constellation(order)
        n = 10_000
        models = []
        for _ in range(n):
            h = (0.3 + 1.7 * rng.random()) * iid_complex_gaussian(rng, (2, 1))
            models.append(WhitenedModel(y=iid_complex_gaussian(rng, 2), h=h))
        la = rng.normal(scale=3.0, size=(n, 1, c.bits_per_symbol))
        uses = stack(models)
        l_out = lchase.detect_all_uses(lchase.prepare_all_uses(uses), c, la)
        b_out = bchase.detect_all_uses(bchase.prepare_all_uses(uses), c, la)
        for u, model in enumerate(models):
            ref = exact_maxlog_llrs(model, c, la[u])
            worst = max(
                worst,
                float(np.abs(l_out[u] - ref).max()),
                float(np.abs(b_out[u] - ref).max()),
            )
    _report("single-stream-equivalence", worst <= 1e-9)


def test_two_stream_detectors_agree():
    # With two streams the feedback chain is empty and both detectors
    # evaluate the same per-candidate metric; 1e3 instances per order, 1e-6.
    rng = np.random.default_rng(103)
    worst = 0.0
    for order in (4, 16):
        c = build_constellation(order)
        n = 1000
        models = []
        for _ in range(n):
            h = iid_complex_gaussian(rng, (2, 2))
            models.append(WhitenedModel(y=iid_complex_gaussian(rng, 2), h=h))
        la = rng.normal(scale=3.0, size=(n, 2, c.bits_per_symbol))
        uses = stack(models)
        l_out = lchase.detect_all_uses(lchase.prepare_all_uses(uses), c, la)
        b_out = bchase.detect_all_uses(bchase.prepare_all_uses(uses), c, la)
        worst = max(worst, float(np.abs(l_out - b_out).max()))
    _report("two-stream-crosscheck", worst <= 1e-6)


def test_layer_metric_max_is_exact():
    # The sliced per-axis layer term must equal the brute-force prior-aware
    # max over all M symbols; 1e4 random layer instances per order, 1e-12.
    rng = np.random.default_rng(104)
    worst = 0.0
    for order in (4, 16, 64):
        c = build_constellation(order)
        n = 10_000
        zc = rng.uniform(-4.0, 4.0, n) + 1j * rng.uniform(-4.0, 4.0, n)
        la = rng.uniform(-10.0, 10.0, (n, c.bits_per_symbol))
        var = np.exp(rng.uniform(np.log(0.05), np.log(10.0), n))
        total = np.zeros(n)
        axis = c.axis
        for cols, z in zip(axis_parts(np.arange(c.bits_per_symbol)), (zc.real, zc.imag)):
            la_axis = la[:, cols]
            idx = slice_pam(z, axis, pam_boundaries(axis, la_axis, var))
            total += pam_metric(axis, idx, z, la_axis, var)
        prior_tab = la @ c.bit_labels.T
        brute = prior_tab - np.abs(zc[:, None] - c.symbols) ** 2 / var[:, None]
        worst = max(worst, float(np.abs(total - brute.max(axis=1)).max()))
    _report("layer-max-exactness", worst <= 1e-12)


def test_list_detector_count_identity():
    # The cost model's metric-plus-boundary count per detected stream equals
    # n*M - (n-1)*sqrt(M) exactly for n in 1..4 and M in {4, 16, 64}.
    ok = True
    seen = {}
    for n in range(1, 5):
        for order in (4, 16, 64):
            per_stream = pass_stats("lchase", n, build_constellation(order), 1).metrics_per_stream
            expected = n * order - (n - 1) * math.isqrt(order)
            seen[(n, order)] = per_stream
            ok = ok and per_stream == expected
    ok = ok and seen[(4, 64)] == 232.0
    _report("metric-count-identity", ok)


def test_whitened_noise_covariance_is_identity():
    # Noise drawn through transmit at sigma from 1e-3 to 1e3 and whitened:
    # the residual y - h s of the whitened model has a sample covariance
    # within 0.05 entrywise of the identity, 1e5 samples each.
    rng = np.random.default_rng(106)
    samples = 100_000
    ok = True
    for n_r in (2, 4):
        for sigma in (1e-3, 0.5, 3.0, 1e3):
            ch = ChannelRealization(iid_complex_gaussian(rng, (n_r, n_r)), sigma)
            s = iid_complex_gaussian(rng, (samples, n_r))
            model = whiten(transmit(ch, s, rng.standard_normal((samples, 2, n_r))), ch)
            noise = model.y - (model.h @ s[..., None])[..., 0]
            cov = noise.T @ noise.conj() / samples
            ok = ok and float(np.abs(cov - np.eye(n_r)).max()) <= 0.05
    _report("noise-whitening", ok)


def test_codec_noiseless_and_extrinsic_decomposition():
    # Noiseless decoding of 1e3 random K=64 blocks, then the decomposition
    # identity: decoder extrinsic plus its input equals the exhaustive
    # coded-bit max-log totals (checked on a fully enumerable K).
    rng = np.random.default_rng(109)
    code = CodeConfig(64, 0.5)
    ok = True
    for _ in range(1000):
        info = rng.integers(0, 2, 64, dtype=np.int8)
        lam = 25.0 * (2.0 * encode(info, code) - 1.0)
        _, _, hard = bcjr_decode(lam, None, code)
        ok = ok and bool(np.array_equal(hard, info))

    small = CodeConfig(10, 0.5)
    words = np.array(
        [[(w >> (9 - i)) & 1 for i in range(10)] for w in range(1024)], dtype=np.int8
    )
    rows = np.stack([encode(np.eye(10, dtype=np.int8)[i], small) for i in range(10)])
    codewords = words @ rows % 2
    worst = 0.0
    for _ in range(50):
        lam = rng.normal(scale=2.0, size=small.coded_len)
        ext, _, _ = bcjr_decode(lam, None, small)
        metrics = codewords @ lam
        totals = np.empty(small.coded_len)
        for j in range(small.coded_len):
            ones = metrics[codewords[:, j] == 1].max()
            zeros = metrics[codewords[:, j] == 0].max()
            totals[j] = ones - zeros
        worst = max(worst, float(np.abs(ext + lam - totals).max()))
    ok = ok and worst <= 1e-9
    _report("codec-integrity", ok)


def _per_block_flags(detector, corr, grid, seed):
    """Block error flags (any info bit wrong), shaped (points, blocks, iterations)."""
    cfg = validate_config(
        SimConfig(
            detector=detector,
            mod=16,
            n_streams=4,
            n_rx=4,
            n_tx=4,
            corr_tx=corr,
            corr_rx=corr,
            snr_db=grid,
            blocks=MC_BLOCKS,
            iterations=3,
            info_bits=64,
            seed=seed,
        )
    )
    bit_errors = simulate_sweep(_build_bundle(cfg))
    return (bit_errors > 0).reshape(len(grid), MC_BLOCKS, -1)


def test_iteration_gain_uncorrelated_channel():
    # 4x4, 16-QAM, rate 1/2, uncorrelated Rayleigh: third-iteration BLER
    # never above first-iteration BLER on the grid, and strictly below with
    # 95% confidence (exact one-sided sign test on discordant blocks) at
    # one or more interior points.
    flags = _per_block_flags("lchase", 0.0, GAIN_GRID, seed=424242)
    bler1 = flags[:, :, 0].mean(axis=1)
    bler3 = flags[:, :, 2].mean(axis=1)
    never_worse = bool(np.all(bler3 <= bler1))
    significant = False
    for p in range(1, len(GAIN_GRID) - 1):
        improved = int(np.sum(flags[p, :, 0] & ~flags[p, :, 2]))
        worsened = int(np.sum(~flags[p, :, 0] & flags[p, :, 2]))
        if _binom_tail_le(worsened, improved + worsened) < 0.05:
            significant = True
    print(
        "iteration gain bler1="
        + np.array2string(bler1, precision=4)
        + " bler3="
        + np.array2string(bler3, precision=4)
    )
    _report("idd-iteration-gain", never_worse and significant)


def test_feedback_detector_wins_under_correlation():
    # Same link with 0.9 exponential correlation on both sides, common
    # random numbers across detectors: at the two highest SNR points the
    # feedback detector's BLER is never above the nulling detector's, and
    # pooled over those points it is lower with 95% paired confidence.
    seed = 515151
    l_err = _per_block_flags("lchase", 0.9, CORR_GRID, seed=seed)[:, :, 2]
    b_err = _per_block_flags("bchase", 0.9, CORR_GRID, seed=seed)[:, :, 2]
    top = (len(CORR_GRID) - 2, len(CORR_GRID) - 1)
    ordered = all(b_err[p].mean() <= l_err[p].mean() for p in top)
    better = sum(int(np.sum(l_err[p] & ~b_err[p])) for p in top)
    worse = sum(int(np.sum(~l_err[p] & b_err[p])) for p in top)
    significant = _binom_tail_le(worse, better + worse) < 0.05
    print(
        f"correlated ordering top points: nulling bler "
        f"{[float(l_err[p].mean()) for p in top]}, feedback bler "
        f"{[float(b_err[p].mean()) for p in top]}, discordant {better}/{worse}"
    )
    _report("correlated-detector-ordering", ordered and significant)


def test_deterministic_csv_output(tmp_path):
    # Identical (seed, config) gives byte-identical CSV, serial or pooled.
    base = dict(
        detector="lchase",
        mod=4,
        n_streams=2,
        n_rx=2,
        n_tx=2,
        snr_db=(2.0, 6.0),
        blocks=6,
        iterations=2,
        info_bits=16,
        seed=31,
    )
    outputs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 2)):
        cfg = validate_config(SimConfig(**base, workers=workers))
        path = tmp_path / f"{name}.csv"
        write_csv(monte_carlo(cfg), path)
        outputs.append(path.read_bytes())
    _report("csv-determinism", outputs[0] == outputs[1] == outputs[2])
