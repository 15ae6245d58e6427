"""Tests for the mixture-Gaussian and alpha-stable noise generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from inofdm.noise_models import (
    BGNoise,
    MCANoise,
    SASNoise,
    complex_gaussian,
    mca_component,
    sample_noise,
)


def mixture_pdf(spec, x):
    """Evaluate the complex mixture density at x (scalar or array).

    Each component contributes weight * exp(-|x|^2/sigma2) / (pi * sigma2),
    the circularly-symmetric complex Gaussian density in the total-power
    convention.

    Raises:
        AttributeError: For stable specs (no closed-form density here).
    """
    weights, variances = spec.mixture_weights()
    mag2 = np.abs(np.asarray(x)) ** 2
    dens = np.tensordot(weights / (np.pi * variances),
                        np.exp(-np.multiply.outer(1.0 / variances, mag2)), axes=1)
    return dens if dens.ndim else float(dens)

# 0.75-quantile of a unit-scale symmetric stable law with alpha = 1.5,
# obtained by Gil-Pelaez inversion of exp(-|t|^1.5) at 30-digit precision
# and bisection on the CDF.
STABLE_15_Q75 = 0.9689331817135830

# Hand-evaluated mixture densities (30-digit arithmetic, independent of the
# implementation):  BG with eps=1/2, sigma_w2=sigma_i2=1 at the origin is
# (1/2)(1/pi) + (1/2)(1/(2 pi)) = 3/(4 pi).
BG_HALF_PDF_AT_0 = 0.2387324146378430
BG_HALF_PDF_AT_1P1J = 0.0508141950640082
MCA_PDF_AT_0 = 0.8606077910339952
MCA_PDF_AT_1P1J = 0.0309905854145442


def test_mca_component_j0_collapses_to_background():
    weight, variance = mca_component(1.0, 0.2, 1.2, 0)
    assert weight == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert variance == pytest.approx(0.2, rel=1e-15)


def test_mca_component_frozen_j1():
    # 0.5 e^{-0.5} and (1/0.5 + 1)/(1 + 1) * 2 evaluated by hand.
    weight, variance = mca_component(0.5, 1.0, 2.0, 1)
    assert weight == pytest.approx(0.3032653298563167, rel=1e-14)
    assert variance == pytest.approx(3.0, rel=1e-14)


def test_mca_component_high_order_term():
    weight, _ = mca_component(1.0, 0.2, 1.0, 10)
    assert weight == pytest.approx(math.exp(-1.0) / math.factorial(10), rel=1e-13)


def test_mca_component_rejects_negative_index():
    with pytest.raises(ValueError):
        mca_component(1.0, 0.2, 1.0, -1)


def test_bg_pdf_degenerate_is_pure_gaussian():
    spec = BGNoise(epsilon=0.0, sigma_w2=1.0, sigma_i2=5.0)
    assert mixture_pdf(spec, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_bg_pdf_frozen_values():
    spec = BGNoise(epsilon=0.5, sigma_w2=1.0, sigma_i2=1.0)
    assert mixture_pdf(spec, 0.0) == pytest.approx(BG_HALF_PDF_AT_0, rel=1e-12)
    assert mixture_pdf(spec, 1.0 + 1.0j) == pytest.approx(
        BG_HALF_PDF_AT_1P1J, rel=1e-12)


def test_mca_pdf_frozen_values():
    spec = MCANoise(overlap_a=1.0, gamma=0.2, sigma_n2=1.0, j_trunc=10)
    assert mixture_pdf(spec, 0.0) == pytest.approx(MCA_PDF_AT_0, rel=1e-12)
    assert mixture_pdf(spec, 1.0 + 1.0j) == pytest.approx(
        MCA_PDF_AT_1P1J, rel=1e-12)


@pytest.mark.parametrize("spec", [
    BGNoise(epsilon=0.1, sigma_w2=1.0, sigma_i2=10.0),
    BGNoise(epsilon=0.5, sigma_w2=0.3, sigma_i2=2.0),
    MCANoise(overlap_a=1.0, gamma=0.2, sigma_n2=1.0, j_trunc=10),
])
def test_mixture_pdf_integrates_to_one(spec):
    """2-D quadrature of the circularly-symmetric density over a wide disc."""
    _, variances = spec.mixture_weights()
    radius = 10.0 * math.sqrt(variances.max())
    total, _ = integrate.quad(
        lambda r: 2.0 * math.pi * r * mixture_pdf(spec, r), 0.0, radius,
        limit=200)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_mixture_pdf_rejects_stable_spec():
    # Stable noise is no Gaussian mixture, so its spec has no weights.
    with pytest.raises(AttributeError):
        mixture_pdf(SASNoise(alpha=1.5), 0.0)


def test_mca_weights_renormalized_and_ratio_consistent():
    spec = MCANoise(overlap_a=1.0, gamma=0.2, sigma_n2=1.0, j_trunc=10)
    weights, variances = spec.mixture_weights()
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    # Renormalization preserves the Poisson ratio p_{j+1}/p_j = A/(j+1).
    for j in range(len(weights) - 1):
        assert weights[j + 1] / weights[j] == pytest.approx(
            1.0 / (j + 1), rel=1e-12)
    assert np.all(np.diff(variances) > 0)


def test_mca_truncation_mass_guard():
    MCANoise(overlap_a=1.0, gamma=0.2, sigma_n2=1.0, j_trunc=10)  # fine
    with pytest.raises(ValueError, match="mass"):
        MCANoise(overlap_a=3.0, gamma=0.2, sigma_n2=1.0, j_trunc=10)


@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_bg_epsilon_range_checked(bad):
    with pytest.raises(ValueError):
        BGNoise(epsilon=bad, sigma_w2=1.0, sigma_i2=1.0)


def test_bg_variances_must_be_positive():
    with pytest.raises(ValueError):
        BGNoise(epsilon=0.1, sigma_w2=0.0, sigma_i2=1.0)
    with pytest.raises(ValueError):
        BGNoise(epsilon=0.1, sigma_w2=1.0, sigma_i2=-2.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, 2.1])
def test_sas_alpha_range_checked(alpha):
    with pytest.raises(ValueError):
        SASNoise(alpha=alpha)


def test_sas_parameter_checks():
    with pytest.raises(ValueError):
        SASNoise(alpha=1.5, beta=1.5)
    with pytest.raises(ValueError):
        SASNoise(alpha=1.5, scale=0.0)


class TestSamplerMoments:
    """Monte Carlo moment checks against the closed-form mixture moments."""

    N = 10 ** 6

    def test_bg_degenerate_background_only(self):
        spec = BGNoise(epsilon=0.0, sigma_w2=2.0, sigma_i2=1.0)
        samples, labels = spec.sample(self.N, np.random.default_rng(1))
        assert not labels.any()
        power = np.mean(np.abs(samples) ** 2)
        assert power == pytest.approx(2.0, rel=0.01)

    def test_bg_degenerate_all_impulse(self):
        spec = BGNoise(epsilon=1.0, sigma_w2=1.0, sigma_i2=3.0)
        samples, labels = spec.sample(self.N, np.random.default_rng(2))
        assert labels.all()
        power = np.mean(np.abs(samples) ** 2)
        assert power == pytest.approx(4.0, rel=0.01)

    def test_bg_label_rate_binomial_window(self):
        spec = BGNoise(epsilon=0.05, sigma_w2=1.0, sigma_i2=10.0)
        _, labels = spec.sample(self.N, np.random.default_rng(3))
        half_width = 3.0 * math.sqrt(0.05 * 0.95 / self.N)
        assert abs(labels.mean() - 0.05) < half_width

    def test_bg_second_moment(self):
        spec = BGNoise(epsilon=0.1, sigma_w2=1.0, sigma_i2=10.0)
        samples, _ = spec.sample(self.N, np.random.default_rng(4))
        expected = 0.9 * 1.0 + 0.1 * 11.0
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(
            expected, rel=0.02)

    def test_mca_second_moment(self):
        spec = MCANoise(overlap_a=1.0, gamma=0.2, sigma_n2=1.0, j_trunc=10)
        weights, variances = spec.mixture_weights()
        expected = float(weights @ variances)
        samples, _ = spec.sample(self.N, np.random.default_rng(5))
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(
            expected, rel=0.02)
        # Truncation barely moves the average power off sigma_n2.
        assert expected == pytest.approx(1.0, rel=0.01)

    def test_sas_alpha2_is_gaussian(self):
        samples, labels = SASNoise(alpha=2.0, beta=0.0, scale=1.0).sample(
            self.N, np.random.default_rng(6))
        assert labels is None
        # alpha = 2 with unit dispersion gives N(0, 2) per real dimension.
        assert np.var(samples.real) == pytest.approx(2.0, rel=0.02)
        assert np.var(samples.imag) == pytest.approx(2.0, rel=0.02)
        # Excess kurtosis of a Gaussian is 0; sampling std at 1e6 is ~0.005.
        centered = samples.real - samples.real.mean()
        kurt = np.mean(centered ** 4) / np.var(centered) ** 2 - 3.0
        assert abs(kurt) < 0.05

    def test_sas_location_shift(self):
        samples, _ = SASNoise(alpha=1.5, loc=5.0).sample(
            10 ** 5, np.random.default_rng(7))
        assert np.median(samples.real) == pytest.approx(5.0, abs=0.05)

    def test_sas_quantile_matches_cf_inversion(self):
        samples, _ = SASNoise(alpha=1.5, beta=0.0, scale=1.0).sample(
            self.N, np.random.default_rng(8))
        q = np.quantile(samples.real, 0.75)
        assert q == pytest.approx(STABLE_15_Q75, rel=0.02)

    def test_bursty_marginal_rate(self):
        spec = BGNoise(epsilon=0.06, sigma_w2=1.0, sigma_i2=10.0, burst_len=4)
        _, labels = spec.sample(self.N, np.random.default_rng(9))
        # Starts at rate eps/4, each covering 4 samples with merged overlaps:
        # marginal rate 1 - (1 - 0.015)^4 = 0.058659...
        expected = 1.0 - (1.0 - 0.06 / 4) ** 4
        assert labels.mean() == pytest.approx(expected, rel=0.02)
        assert labels.mean() == pytest.approx(0.06, rel=0.05)


def test_bursty_runs_have_full_length_away_from_edges():
    spec = BGNoise(epsilon=0.06, sigma_w2=1.0, sigma_i2=10.0, burst_len=4)
    _, labels = spec.sample(50_000, np.random.default_rng(11))
    padded = np.concatenate([[0], labels, [0]])
    starts = np.flatnonzero(np.diff(padded) == 1)
    ends = np.flatnonzero(np.diff(padded) == -1)
    lengths = ends - starts
    interior = ends < len(labels)  # runs cut off by the block end exempt
    assert np.all(lengths[interior] >= 4)
    # Most runs do not overlap another burst and are exactly Num long.
    assert np.mean(lengths[interior] == 4) > 0.9


def test_bursty_length_one_matches_plain_bg():
    spec = BGNoise(epsilon=0.05, sigma_w2=1.0, sigma_i2=10.0)
    # The unbursted Bernoulli-Gaussian draw, written out: one uniform per
    # sample for the label, then the Gaussian samples.
    for count in (0, 1, 7, 10_000):
        rng = np.random.default_rng(42)
        labels = (rng.random(count) < spec.epsilon).astype(np.uint8)
        sigma2 = np.where(labels == 1, spec.sigma_w2 + spec.sigma_i2,
                          spec.sigma_w2)
        samples = complex_gaussian(rng, count, sigma2)
        for drawn in (spec.sample(count, np.random.default_rng(42)),
                      sample_noise(spec, count, np.random.default_rng(42))):
            assert drawn[1].dtype == np.uint8
            assert drawn[1].tobytes() == labels.tobytes()
            assert drawn[0].tobytes() == samples.tobytes()


def test_bursty_rejects_bad_burst_len():
    with pytest.raises(ValueError, match="burst_len"):
        BGNoise(epsilon=0.05, sigma_w2=1.0, sigma_i2=10.0, burst_len=0)


@pytest.mark.parametrize("seed, starts, labels", [
    (3, "1000", "1111"),
    (16, "0010", "0011"),
    (5, "000010011", "000011111"),
    (5, "", ""),
])
def test_bursts_longer_than_the_block_truncate_at_its_end(seed, starts, labels):
    # Bursts of 7 in blocks of at most 9: the burst starts are the uniform
    # draws below eps / 7, and each covers itself and the next six samples
    # up to the block end.  A burst longer than the block used to fail to
    # broadcast.
    spec = BGNoise(epsilon=1.0, sigma_w2=1.0, sigma_i2=10.0, burst_len=7)
    count = len(labels)
    drawn = np.random.default_rng(seed).random(count) < 1.0 / 7
    assert "".join(map(str, drawn.astype(int))) == starts
    samples, got = spec.sample(count, np.random.default_rng(seed))
    assert "".join(map(str, got)) == labels
    assert samples.shape == (count,)


def test_samplers_are_reproducible():
    bg = BGNoise(epsilon=0.1, sigma_w2=1.0, sigma_i2=10.0)
    mca = MCANoise(overlap_a=1.0, gamma=0.2, sigma_n2=1.0, j_trunc=10)
    sas = SASNoise(alpha=1.8)
    for spec in (bg, mca, sas):
        first = sample_noise(spec, 4096, np.random.default_rng(1234))
        second = sample_noise(spec, 4096, np.random.default_rng(1234))
        np.testing.assert_array_equal(first[0], second[0])
        if first[1] is not None:
            np.testing.assert_array_equal(first[1], second[1])


def test_sample_noise_dispatch_and_burst_guard():
    bg = BGNoise(epsilon=0.06, sigma_w2=1.0, sigma_i2=10.0, burst_len=4)
    _, labels = sample_noise(bg, 1000, np.random.default_rng(0))
    assert labels is not None
    # Bursts are a Bernoulli-Gaussian field: no other spec can hold one.
    with pytest.raises(TypeError):
        MCANoise(1.0, 0.2, 1.0, 10, burst_len=4)
    with pytest.raises(TypeError):
        SASNoise(alpha=1.5, burst_len=4)
    with pytest.raises(ValueError):
        sample_noise(bg, -1, np.random.default_rng(0))


def test_mca_labels_mark_nonzero_terms():
    spec = MCANoise(overlap_a=1.0, gamma=0.2, sigma_n2=1.0, j_trunc=10)
    samples, labels = spec.sample(10 ** 5, np.random.default_rng(13))
    # Label rate equals 1 - p_0 (renormalized) up to binomial noise.
    weights, _ = spec.mixture_weights()
    expected = 1.0 - weights[0]
    assert labels.mean() == pytest.approx(expected, abs=0.01)
    # Labeled samples carry visibly more power than background ones.
    on = np.abs(samples[labels == 1]) ** 2
    off = np.abs(samples[labels == 0]) ** 2
    assert on.mean() > 3.0 * off.mean()


@given(
    epsilon=st.floats(0.0, 1.0),
    sigma_w2=st.floats(0.01, 100.0),
    sigma_i2=st.floats(0.01, 100.0),
)
@settings(max_examples=50, deadline=None)
def test_bg_weights_property(epsilon, sigma_w2, sigma_i2):
    weights, variances = BGNoise(epsilon, sigma_w2, sigma_i2).mixture_weights()
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(variances > 0)
    assert variances[1] > variances[0]


@given(x=st.floats(0.0, 20.0), y=st.floats(0.0, 20.0))
@settings(max_examples=100, deadline=None)
def test_pdf_radially_decreasing(x, y):
    """A zero-mean circular Gaussian mixture density falls off with radius."""
    spec = BGNoise(epsilon=0.1, sigma_w2=1.0, sigma_i2=10.0)
    near, far = sorted([x, y])
    assert mixture_pdf(spec, near) >= mixture_pdf(spec, far) - 1e-15


@given(count=st.integers(0, 300), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_block_shapes_consistent(count, seed):
    spec = BGNoise(epsilon=0.3, sigma_w2=1.0, sigma_i2=4.0)
    samples, labels = spec.sample(count, np.random.default_rng(seed))
    assert samples.shape == (count,)
    assert labels.shape == (count,)
    assert samples.dtype == np.complex128
    assert set(np.unique(labels)).issubset({0, 1})
