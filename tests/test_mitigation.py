"""Tests for impulse detection/suppression: threshold selection and its
false-alarm calibration, blanking and clipping semantics, detector/suppressor
composition, and the per-block gain normalization of the learned detector."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inofdm.config import load_config
from inofdm.dnn import MlpParams, load_model
from inofdm.features import FeatureNormalizer, extract_features
from inofdm.link import build_policy
from inofdm.mitigation import (
    Blank,
    Clip,
    DnnDetector,
    MitigationPolicy,
    ThresholdDetector,
    blank,
    clip,
    detect,
    detector_features,
    estimate_clean_power,
    mitigate,
    np_threshold,
    threshold_detect,
)

MODEL_PATH = Path(__file__).resolve().parent.parent / "models" / "detector.txt"


def rayleigh_block(seed, n, sigma2=1.0):
    """Complex Gaussian samples with total power sigma2 (Rayleigh envelope)."""
    rng = np.random.default_rng(seed)
    return np.sqrt(sigma2 / 2.0) * (rng.standard_normal(n)
                                    + 1j * rng.standard_normal(n))


def magnitude_gate_params(knee=3.5, gain=10.0):
    """Hand-built network that flags samples with |r| above ``knee``.

    Routes the magnitude feature through one unit per layer so the output is
    sigmoid(gain * (x1 - knee) ... ) >= 0.5 exactly when x1 >= knee + 0.5.
    A deterministic stand-in for a trained model in composition tests.
    """
    shapes = {"w1": (20, 3), "b1": (20,), "w2": (10, 20), "b2": (10,),
              "w3": (1, 10), "b3": (1,)}
    blocks = {k: np.zeros(s) for k, s in shapes.items()}
    blocks["w1"][0, 0] = gain
    blocks["b1"][0] = -gain * knee
    blocks["w2"][0, 0] = 1.0
    blocks["w3"][0, 0] = 1.0
    blocks["b3"][0] = -gain * 0.5
    norm = FeatureNormalizer(mean=np.zeros(3), std=np.ones(3))
    return MlpParams(normalizer=norm, **blocks)


# ---------------------------------------------------------------------------
# threshold selection


def test_np_threshold_closed_form_anchor():
    # p_fa = e^-1 and unit power: T = sqrt(-ln e^-1) = 1.
    assert np_threshold(1.0, math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)


def test_np_threshold_grows_as_p_fa_shrinks():
    t = [np_threshold(2.0, p) for p in (0.2, 0.1, 0.05, 0.025)]
    assert np.all(np.diff(t) > 0)


def test_np_threshold_scales_with_sqrt_power():
    assert np_threshold(4.0, 0.01) == pytest.approx(2.0 * np_threshold(1.0, 0.01),
                                                    rel=1e-12)


def test_np_threshold_rejects_bad_arguments():
    for p_fa in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(ValueError):
            np_threshold(1.0, p_fa)
    with pytest.raises(ValueError):
        np_threshold(0.0, 0.01)
    with pytest.raises(ValueError):
        np_threshold(-1.0, 0.01)


@pytest.mark.parametrize("p_fa", [0.05, 0.01])
def test_false_alarm_rate_calibrated_within_10_percent(p_fa):
    # On impulse-free Rayleigh samples the measured flag rate must sit within
    # 10% relative of the requested p_fa (binomial SE at 1e6 is ~1% of 0.01).
    sigma2 = 2.3
    samples = rayleigh_block(0, 1_000_000, sigma2)
    mask = threshold_detect(samples, np_threshold(sigma2, p_fa))
    assert np.mean(mask) == pytest.approx(p_fa, rel=0.10)


# ---------------------------------------------------------------------------
# robust clean-power estimate


def test_estimate_clean_power_exact_on_known_median():
    # |r|^2 values {1, 4, 9}: median 4, estimate 4 / ln 2.
    phases = np.exp(1j * np.array([0.3, -1.2, 2.5]))
    samples = np.array([1.0, 2.0, 3.0]) * phases
    assert estimate_clean_power(samples) == pytest.approx(4.0 / math.log(2.0),
                                                          rel=1e-12)


def test_estimate_clean_power_recovers_rayleigh_power():
    sigma2 = 3.7
    est = estimate_clean_power(rayleigh_block(1, 1_000_000, sigma2))
    assert est == pytest.approx(sigma2, rel=0.01)


def test_estimate_clean_power_ignores_minority_impulses():
    clean = rayleigh_block(2, 100_000, 1.0)
    contaminated = clean.copy()
    hit = np.random.default_rng(3).random(clean.size) < 0.05
    contaminated[hit] *= 40.0
    assert estimate_clean_power(contaminated) == pytest.approx(
        estimate_clean_power(clean), rel=0.10)


def test_estimate_clean_power_is_per_block():
    blocks = np.stack([rayleigh_block(4, 4096, 1.0),
                       rayleigh_block(5, 4096, 9.0)])
    est = estimate_clean_power(blocks)
    assert est.shape == (2,)
    assert est[0] == pytest.approx(1.0, rel=0.1)
    assert est[1] == pytest.approx(9.0, rel=0.1)


def test_estimate_clean_power_rejects_empty():
    with pytest.raises(ValueError):
        estimate_clean_power(np.zeros((3, 0)))


# ---------------------------------------------------------------------------
# threshold detection


def test_threshold_detect_agrees_with_direct_comparison():
    rng = np.random.default_rng(6)
    samples = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    mask = threshold_detect(samples, 1.3)
    assert mask.dtype == np.uint8
    assert np.array_equal(mask, (np.abs(samples) > 1.3).astype(np.uint8))


def test_threshold_detect_extremes():
    samples = rayleigh_block(7, 100)
    assert not np.any(threshold_detect(samples, np.inf))
    assert np.all(threshold_detect(samples, 1e-300) == 1)


def test_threshold_detect_is_strict_inequality():
    # A sample sitting exactly at the level is not flagged.
    assert np.array_equal(threshold_detect(np.array([2.0, 2.0 + 1e-9]), 2.0),
                          [0, 1])


def test_threshold_detect_broadcasts_per_block_levels():
    blocks = np.ones((2, 4)) * np.array([[1.0], [10.0]])
    mask = threshold_detect(blocks, np.array([[5.0], [5.0]]))
    assert np.array_equal(mask, [[0, 0, 0, 0], [1, 1, 1, 1]])


def test_threshold_detect_rejects_nonpositive_levels():
    with pytest.raises(ValueError):
        threshold_detect(np.ones(4), 0.0)
    with pytest.raises(ValueError):
        threshold_detect(np.ones(4), -1.0)


# ---------------------------------------------------------------------------
# suppressors


def test_blank_zero_mask_is_identity():
    samples = rayleigh_block(8, 64)
    out = blank(samples, np.zeros(64, dtype=np.uint8))
    assert np.array_equal(out, samples)


def test_blank_full_mask_zeroes_everything():
    assert np.all(blank(rayleigh_block(9, 64), np.ones(64, dtype=np.uint8)) == 0)


def test_blank_mixed_mask_matches_elementwise_formula():
    samples = rayleigh_block(10, 200)
    mask = (np.random.default_rng(11).random(200) < 0.3).astype(np.uint8)
    out = blank(samples, mask)
    assert np.array_equal(out, np.where(mask == 1, 0, samples))


def test_blank_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        blank(np.ones(5), np.ones(4, dtype=np.uint8))


def test_clip_clamps_magnitude_and_keeps_phase():
    sample = 10.0 * np.exp(1j * 0.7)
    out = clip(np.array([sample]), np.array([1], dtype=np.uint8), 2.0)
    assert abs(out[0]) == pytest.approx(2.0, rel=1e-12)
    assert np.angle(out[0]) == pytest.approx(0.7, rel=1e-12)


def test_clip_leaves_small_flagged_samples_alone():
    # Clamp semantics: flagged but already under the ceiling -> unchanged.
    samples = np.array([0.5 + 0.5j, 0.0 + 0.0j])
    out = clip(samples, np.array([1, 1], dtype=np.uint8), 2.0)
    assert np.array_equal(out, samples)


def test_clip_never_touches_unflagged_samples():
    samples = np.array([100.0 + 0j, 50.0j])
    out = clip(samples, np.zeros(2, dtype=np.uint8), 1.0)
    assert np.array_equal(out, samples)


def test_clip_validation():
    with pytest.raises(ValueError):
        clip(np.ones(3), np.ones(3, dtype=np.uint8), 0.0)
    with pytest.raises(ValueError):
        clip(np.ones(3), np.ones(2, dtype=np.uint8), 1.0)


def test_clip_broadcasts_a_per_block_level():
    blocks = np.array([[3.0, 0.5j, -4.0], [3.0, 0.5j, -4.0]])
    mask = np.ones(blocks.shape, dtype=np.uint8)
    out = clip(blocks, mask, np.array([[1.0], [3.5]]))
    np.testing.assert_allclose(out, [[1.0, 0.5j, -1.0], [3.0, 0.5j, -3.5]],
                               rtol=1e-12)
    # The same level in every block equals the scalar level.
    assert np.array_equal(clip(blocks, mask, np.full((2, 1), 2.0)),
                          clip(blocks, mask, 2.0))
    with pytest.raises(ValueError):
        clip(blocks, mask, np.array([[1.0], [0.0]]))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_blank_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    mask = (rng.random(32) < 0.4).astype(np.uint8)
    once = blank(samples, mask)
    assert np.array_equal(blank(once, mask), once)


# ---------------------------------------------------------------------------
# detector configuration and the per-block level


def test_detector_validation():
    with pytest.raises(ValueError):
        ThresholdDetector(p_fa=0.0)
    with pytest.raises(ValueError):
        ThresholdDetector(p_fa=1.0)
    with pytest.raises(ValueError):
        DnnDetector(params=magnitude_gate_params(), half_width=0)
    with pytest.raises(ValueError):
        Clip(p_fa=0.0)
    with pytest.raises(ValueError):
        Clip(p_fa=1.0)


def test_in_situ_route_estimates_power_per_block():
    blocks = np.stack([rayleigh_block(14, 2048, 1.0),
                       rayleigh_block(15, 2048, 25.0)])
    det = ThresholdDetector(p_fa=0.01)
    mask = detect(blocks, det)
    levels = np_threshold(estimate_clean_power(blocks), 0.01)
    expected = threshold_detect(blocks, levels[:, None])
    assert np.array_equal(mask, expected)
    # Both blocks get flagged near p_fa despite the 25x power gap.
    assert np.mean(mask[0]) == pytest.approx(0.01, abs=0.01)
    assert np.mean(mask[1]) == pytest.approx(0.01, abs=0.01)


def test_in_situ_route_is_scale_invariant():
    samples = rayleigh_block(16, 4096)
    det = ThresholdDetector(p_fa=0.01)
    base = detect(samples, det)
    for scale in (1e-3, 0.1, 7.0, 1e3):
        assert np.array_equal(detect(scale * samples, det), base)


def test_detect_rejects_unknown_types():
    with pytest.raises(TypeError):
        detect(np.ones(4), object())


# ---------------------------------------------------------------------------
# learned-detector features


def test_detector_features_composes_estimate_and_extraction():
    samples = rayleigh_block(17, 1024)
    feats = detector_features(samples, 5)
    scale = np.sqrt(estimate_clean_power(samples))
    np.testing.assert_array_equal(feats, extract_features(samples / scale, n=5))
    assert feats.shape == (1024, 3)


def test_detector_features_are_gain_invariant():
    # The whole point of per-block normalization: a block-level gain change
    # must not move the features the classifier sees.
    samples = rayleigh_block(18, 512)
    base = detector_features(samples, 5)
    for scale in (1e-2, 0.5, 40.0):
        np.testing.assert_allclose(detector_features(scale * samples, 5), base,
                                   rtol=1e-10, atol=1e-12)


def test_detector_features_handle_all_zero_blocks():
    feats = detector_features(np.zeros(64, dtype=complex), 5)
    assert np.all(np.isfinite(feats))
    assert np.all(feats == 0.0)


def test_dnn_detector_to_classifier_composition():
    params = magnitude_gate_params()
    samples = rayleigh_block(19, 2048)
    det = DnnDetector(params=params, half_width=5)
    mask = detect(samples, det)
    feats = detector_features(samples, 5)
    # Gate trips exactly when the normalized magnitude clears knee + 0.5.
    assert np.array_equal(mask, (feats[:, 0] >= 4.0).astype(np.uint8))


def test_dnn_detector_is_gain_invariant():
    det = DnnDetector(params=magnitude_gate_params(), half_width=5)
    clean = rayleigh_block(20, 2048)
    hit = np.random.default_rng(21).random(2048) < 0.03
    samples = np.where(hit, clean * 25.0, clean)
    base = detect(samples, det)
    assert base.sum() > 0
    for scale in (1e-3, 1e3):
        assert np.array_equal(detect(scale * samples, det), base)


def test_dnn_detector_rarely_fires_on_clean_blocks():
    det = DnnDetector(params=magnitude_gate_params(), half_width=5)
    blocks = rayleigh_block(22, 100_000).reshape(100, 1000)
    altered = np.mean(mitigate(blocks, MitigationPolicy(det, Blank())) != blocks)
    # P(|r| > 4 sigma_est) ~ exp(-16) on Rayleigh; allow generous slack.
    assert altered < 1e-3


def test_dnn_detector_blanks_injected_impulses():
    det = DnnDetector(params=magnitude_gate_params(), half_width=5)
    block = rayleigh_block(23, 4096)
    where = np.random.default_rng(24).choice(4096, size=40, replace=False)
    block[where] = 30.0 * np.exp(1j * np.linspace(0, 6, 40))
    out = mitigate(block, MitigationPolicy(det, Blank()))
    assert np.all(out[where] == 0.0)


# ---------------------------------------------------------------------------
# composition


def test_mitigate_blank_equals_manual_composition():
    samples = rayleigh_block(25, 2048)
    det = ThresholdDetector(p_fa=0.05)
    out = mitigate(samples, MitigationPolicy(det, Blank()))
    assert np.array_equal(out, blank(samples, detect(samples, det)))


def test_threshold_blank_policy_is_classic_blanking():
    samples = rayleigh_block(26, 2048, sigma2=4.0)
    det = ThresholdDetector(p_fa=0.01)
    out = mitigate(samples, MitigationPolicy(det, Blank()))
    level = np_threshold(float(estimate_clean_power(samples)), 0.01)
    assert np.array_equal(out, np.where(np.abs(samples) > level, 0, samples))


def test_clip_with_tiny_level_approaches_blanking():
    samples = rayleigh_block(27, 1024)
    mask = detect(samples, ThresholdDetector(p_fa=0.05))
    np.testing.assert_allclose(clip(samples, mask, 1e-12),
                               blank(samples, mask), atol=2e-12)


def test_clip_policy_lands_flagged_samples_on_detection_level():
    # Clip-at-threshold: with one p_fa for both, every flagged magnitude
    # lands exactly on the detector's per-block level.
    samples = rayleigh_block(32, 1024)
    samples[::50] *= 30.0
    det = ThresholdDetector(p_fa=0.01)
    out = mitigate(samples, MitigationPolicy(det, Clip(p_fa=0.01)))
    flagged = detect(samples, det) == 1
    level = np_threshold(float(estimate_clean_power(samples)), 0.01)
    assert flagged.sum() >= 21
    np.testing.assert_allclose(np.abs(out[flagged]), level, rtol=1e-12)
    assert np.array_equal(out[~flagged], samples[~flagged])


def test_clip_default_level_tracks_per_block_estimate():
    blocks = np.stack([rayleigh_block(28, 2048, 1.0),
                       rayleigh_block(29, 2048, 100.0)])
    det = ThresholdDetector(p_fa=0.01)
    out = mitigate(blocks, MitigationPolicy(det, Clip(p_fa=0.01)))
    levels = np_threshold(estimate_clean_power(blocks), 0.01)
    for b in range(2):
        assert np.max(np.abs(out[b])) <= levels[b] * (1 + 1e-12)


def test_clip_default_level_with_network_detector():
    # The ceiling is the Neyman-Pearson level at the clip's own false-alarm
    # rate; only flagged samples feel it.
    det = DnnDetector(params=magnitude_gate_params(), half_width=5)
    block = rayleigh_block(30, 4096)
    block[::100] = 50.0
    out = mitigate(block, MitigationPolicy(det, Clip(p_fa=0.02)))
    ceiling = np_threshold(float(estimate_clean_power(block)), 0.02)
    np.testing.assert_allclose(np.abs(out[::100]), ceiling, rtol=1e-12)


def test_pass_through_policy_copies_input():
    samples = rayleigh_block(31, 64)
    out = mitigate(samples, MitigationPolicy(None, Blank(), name="none"))
    assert np.array_equal(out, samples)
    out[0] = 0.0
    assert samples[0] != 0.0  # the input buffer is not shared


def test_mitigate_rejects_unknown_suppressor():
    with pytest.raises(TypeError):
        mitigate(np.ones(8), MitigationPolicy(ThresholdDetector(0.01), "zap"))


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["bln", "clp", "clp-0.3"]))
@settings(max_examples=30, deadline=None)
def test_mitigate_never_increases_any_magnitude(seed, kind):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    samples[rng.random(256) < 0.05] *= 20.0
    det = ThresholdDetector(p_fa=0.05)
    suppressor = {"bln": Blank(), "clp": Clip(p_fa=0.05),
                  "clp-0.3": Clip(p_fa=0.3)}[kind]
    out = mitigate(samples, MitigationPolicy(det, suppressor))
    assert np.all(np.abs(out) <= np.abs(samples) * (1 + 1e-12))


@pytest.mark.parametrize("name", ["none", "bln", "clp", "dnn", "dnn-clp"])
def test_policies_handle_blocks_with_zero_median(name):
    # An all-zero block, and one that is mostly zeros, have a median |r|^2
    # of 0.  Every policy must still return finite samples and leave the
    # zero samples at zero.
    cfg = load_config(None, {})
    policy = build_policy(cfg, name, load_model(MODEL_PATH))
    mostly_zero = rayleigh_block(40, 256)
    mostly_zero[np.random.default_rng(41).permutation(256)[:160]] = 0.0
    blocks = np.stack([np.zeros(256, dtype=complex), mostly_zero])
    out = mitigate(blocks, policy)
    assert np.all(np.isfinite(out))
    assert np.all(out[blocks == 0] == 0)


@pytest.mark.parametrize("name, calls", [("none", 0), ("bln", 1), ("clp", 1),
                                         ("dnn", 1), ("dnn-clp", 1)])
def test_mitigate_estimates_block_power_once(monkeypatch, name, calls):
    # Detection and the clip ceiling share one per-block median, and the
    # output equals detection and suppression composed by hand.
    cfg = load_config(None, {})
    policy = build_policy(cfg, name, load_model(MODEL_PATH))
    blocks = np.stack([rayleigh_block(42, 512), 30.0 * rayleigh_block(43, 512)])
    blocks[:, ::37] *= 25.0
    expected = blocks.copy()
    if policy.detector is not None:
        mask = detect(blocks, policy.detector)
        if isinstance(policy.suppressor, Clip):
            level = np_threshold(estimate_clean_power(blocks), cfg.p_fa)[:, None]
            expected = clip(blocks, mask, level)
        else:
            expected = blank(blocks, mask)
    seen = []

    def counting(samples):
        seen.append(samples.shape)
        return estimate_clean_power(samples)

    monkeypatch.setattr("inofdm.mitigation.estimate_clean_power", counting)
    out = mitigate(blocks, policy)
    assert len(seen) == calls
    assert np.array_equal(out, expected)
