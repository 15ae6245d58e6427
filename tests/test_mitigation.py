"""Tests for impulse detection/suppression: threshold selection and its
false-alarm calibration, blanking and clipping semantics, the one-pass
mitigation of every named policy, non-finite input, and the per-block gain
normalization of the learned detector."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inofdm import dnn
from inofdm.config import load_config
from inofdm.dnn import MlpParams, load_model
from inofdm.features import FeatureNormalizer, extract_features
from inofdm.mitigation import (
    POLICY_NAMES,
    DetectorSettings,
    detect,
    detector_features,
    estimate_clean_power,
    mitigate,
)

MODEL_PATH = Path(__file__).resolve().parent.parent / "models" / "detector.txt"


def np_level(sigma2, p_fa):
    """Neyman-Pearson level with false-alarm rate p_fa on a clean Rayleigh
    block: for impulse-free samples of total complex power sigma2,
    P(|r| > T) = exp(-T^2 / sigma2), so T = sqrt(-sigma2 ln p_fa)."""
    return np.sqrt(-np.asarray(sigma2) * math.log(p_fa))


def threshold_mask(samples, p_fa, power):
    """The threshold detector's mask at a given per-block power."""
    return detect(samples, "threshold", DetectorSettings(p_fa), power)


def constant_envelope_block(seed, n):
    """Unit-magnitude samples (+-1, +-1j): every |r| is exactly 1, so the
    per-block power is exactly 1 / ln 2 while fewer than half the samples
    are changed."""
    phases = np.random.default_rng(seed).integers(0, 4, n)
    return (1j ** phases).astype(complex)


def detect_alone(samples, kind, settings):
    """:func:`detect` with the blocks' own power estimate."""
    return detect(samples, kind, settings, estimate_clean_power(samples))


def mitigate_one(samples, name, settings):
    """One policy's cleaned samples from :func:`mitigate`."""
    return mitigate(samples, (name,), settings)[0][0]


def shipped_settings():
    cfg = load_config(None, {})
    return DetectorSettings(cfg.p_fa, load_model(MODEL_PATH), cfg.half_width)


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
    theta = np.zeros(dnn.N_PARAMS)
    layers = dnn.blocks(theta)
    layers["w1"][0, 0] = gain
    layers["b1"][0] = -gain * knee
    layers["w2"][0, 0] = 1.0
    layers["w3"][0, 0] = 1.0
    layers["b3"][0] = -gain * 0.5
    return MlpParams(theta, FeatureNormalizer(mean=np.zeros(3), std=np.ones(3)))


# ---------------------------------------------------------------------------
# threshold selection


def test_np_threshold_closed_form_anchor():
    # p_fa = e^-1 and unit power: T = sqrt(-ln e^-1) = 1.
    mask = threshold_mask(np.array([1.0 - 1e-9, 1.0 + 1e-9]), math.exp(-1.0),
                          np.float64(1.0))
    assert np.array_equal(mask, [0, 1])


def test_np_threshold_grows_as_p_fa_shrinks():
    samples = rayleigh_block(0, 20_000, 2.0)
    flagged = [int(threshold_mask(samples, p, np.float64(2.0)).sum())
               for p in (0.2, 0.1, 0.05, 0.025)]
    assert np.all(np.diff(flagged) < 0)


def test_np_threshold_scales_with_sqrt_power():
    # Four times the power doubles the level exactly.
    samples = rayleigh_block(1, 4096)
    assert np.array_equal(threshold_mask(2.0 * samples, 0.01, np.float64(4.0)),
                          threshold_mask(samples, 0.01, np.float64(1.0)))


@pytest.mark.parametrize("p_fa", [0.05, 0.01])
def test_false_alarm_rate_calibrated_within_10_percent(p_fa):
    # On impulse-free Rayleigh samples the measured flag rate must sit within
    # 10% relative of the requested p_fa (binomial SE at 1e6 is ~1% of 0.01).
    sigma2 = 2.3
    samples = rayleigh_block(0, 1_000_000, sigma2)
    mask = threshold_mask(samples, p_fa, np.float64(sigma2))
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
    mask = threshold_mask(samples, 0.1, np.float64(0.8))
    assert mask.dtype == np.uint8
    assert np.array_equal(mask,
                          (np.abs(samples) > np_level(0.8, 0.1)).astype(np.uint8))


def test_threshold_detect_extremes():
    samples = rayleigh_block(7, 100)
    assert not np.any(threshold_mask(samples, 0.01, np.float64(np.inf)))
    assert np.all(threshold_mask(samples, 0.01, np.finfo(float).tiny) == 1)


def test_threshold_detect_is_strict_inequality():
    # A sample sitting exactly at the level is not flagged.
    level = np_level(2.0, 0.01)
    samples = np.array([level, level * (1 + 1e-9)])
    assert np.array_equal(threshold_mask(samples, 0.01, np.float64(2.0)), [0, 1])


def test_threshold_detect_broadcasts_per_block_levels():
    blocks = np.full((2, 4), 3.0)
    power = np.array([1.0, 25.0]) / -math.log(0.01)   # levels 1 and 5
    mask = threshold_mask(blocks, 0.01, power)
    assert np.array_equal(mask, [[1, 1, 1, 1], [0, 0, 0, 0]])


# ---------------------------------------------------------------------------
# suppressors


def test_blank_zero_mask_is_identity():
    # Every |r| is 1, under the level sqrt(ln 100 / ln 2): nothing is blanked.
    samples = constant_envelope_block(8, 64)
    out = mitigate_one(samples, "bln", DetectorSettings(0.01))
    assert np.array_equal(out, samples)


def test_blank_full_mask_zeroes_everything():
    # A gate below every normalized magnitude flags every sample.
    settings = DetectorSettings(0.01, magnitude_gate_params(knee=-1.0), 5)
    assert np.all(mitigate_one(rayleigh_block(9, 64), "dnn", settings) == 0)


def test_blank_mixed_mask_matches_elementwise_formula():
    settings = DetectorSettings(0.01, magnitude_gate_params(), 5)
    samples = rayleigh_block(10, 200)
    samples[np.random.default_rng(11).random(200) < 0.3] *= 25.0
    mask = detect_alone(samples, "dnn", settings)
    assert 0 < mask.sum() < 200
    out = mitigate_one(samples, "dnn", settings)
    assert np.array_equal(out, np.where(mask == 1, 0, samples))


def test_clip_clamps_magnitude_and_keeps_phase():
    # Above the level: onto it, phase kept.  At the level (sample 6) or
    # below it (every other |r| is 1): unchanged.
    samples = constant_envelope_block(12, 64)
    level = float(np_level(1.0 / math.log(2.0), 0.01))
    samples[5] = 10.0 * np.exp(1j * 0.7)
    samples[6] = level
    out = mitigate_one(samples, "clp", DetectorSettings(0.01))
    assert abs(out[5]) == pytest.approx(level, rel=1e-12)
    assert np.angle(out[5]) == pytest.approx(0.7, rel=1e-12)
    rest = np.arange(64) != 5
    assert np.array_equal(out[rest], samples[rest])


def test_clip_broadcasts_a_per_block_level():
    # Each block clamps onto its own level: 3.5 times the gain, 3.5 times
    # the ceiling.
    block = constant_envelope_block(15, 256)
    block[::16] = 10.0 * np.exp(1j * np.arange(16))
    out = mitigate_one(np.stack([block, 3.5 * block]), "clp",
                       DetectorSettings(0.01))
    level = np_level(1.0 / math.log(2.0), 0.01)
    np.testing.assert_allclose(np.abs(out[:, ::16]),
                               [[level] * 16, [3.5 * level] * 16], rtol=1e-12)
    assert np.array_equal(out[0, 1::16], block[1::16])


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_blank_is_idempotent(seed):
    # On a constant-envelope block the blanked zeros, a minority, leave the
    # median and so the level alone: a second pass changes nothing.
    rng = np.random.default_rng(seed)
    samples = constant_envelope_block(seed, 32)
    samples[rng.random(32) < 0.3] *= rng.uniform(5.0, 50.0)
    once = mitigate_one(samples, "bln", DetectorSettings(0.01))
    assert np.array_equal(mitigate_one(once, "bln", DetectorSettings(0.01)), once)


# ---------------------------------------------------------------------------
# detector settings and the per-block level


def test_detector_validation():
    for p_fa in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            DetectorSettings(p_fa=p_fa)
    with pytest.raises(ValueError):
        DetectorSettings(0.01, magnitude_gate_params(), half_width=0)
    with pytest.raises(ValueError):
        DetectorSettings(0.01, half_width=-3)
    DetectorSettings(0.01, half_width=1)   # the smallest window is valid


def test_in_situ_route_estimates_power_per_block():
    blocks = np.stack([rayleigh_block(14, 2048, 1.0),
                       rayleigh_block(15, 2048, 25.0)])
    mask = detect_alone(blocks, "threshold", DetectorSettings(p_fa=0.01))
    levels = np_level(estimate_clean_power(blocks), 0.01)
    expected = (np.abs(blocks) > levels[:, None]).astype(np.uint8)
    assert np.array_equal(mask, expected)
    # Both blocks get flagged near p_fa despite the 25x power gap.
    assert np.mean(mask[0]) == pytest.approx(0.01, abs=0.01)
    assert np.mean(mask[1]) == pytest.approx(0.01, abs=0.01)


def test_in_situ_route_is_scale_invariant():
    samples = rayleigh_block(16, 4096)
    settings = DetectorSettings(p_fa=0.01)
    base = detect_alone(samples, "threshold", settings)
    for scale in (1e-3, 0.1, 7.0, 1e3):
        assert np.array_equal(detect_alone(scale * samples, "threshold",
                                           settings), base)


def test_detect_rejects_unknown_types():
    for kind in ("bln", "zap", ""):
        with pytest.raises(ValueError, match="unknown detector"):
            detect(np.ones(4), kind, DetectorSettings(0.01), np.ones(()))


# ---------------------------------------------------------------------------
# learned-detector features


def test_detector_features_composes_estimate_and_extraction():
    samples = rayleigh_block(17, 1024)
    feats = detector_features(samples, 5, estimate_clean_power(samples))
    scale = np.sqrt(estimate_clean_power(samples))
    np.testing.assert_array_equal(feats, extract_features(samples / scale, n=5))
    assert feats.shape == (1024, 3)


def test_detector_features_are_gain_invariant():
    # The whole point of per-block normalization: a block-level gain change
    # must not move the features the classifier sees.
    samples = rayleigh_block(18, 512)
    base = detector_features(samples, 5, estimate_clean_power(samples))
    for scale in (1e-2, 0.5, 40.0):
        scaled = scale * samples
        np.testing.assert_allclose(
            detector_features(scaled, 5, estimate_clean_power(scaled)), base,
            rtol=1e-10, atol=1e-12)


def test_detector_features_handle_all_zero_blocks():
    zeros = np.zeros(64, dtype=complex)
    feats = detector_features(zeros, 5, estimate_clean_power(zeros))
    assert np.all(np.isfinite(feats))
    assert np.all(feats == 0.0)


def test_dnn_detector_to_classifier_composition():
    params = magnitude_gate_params()
    samples = rayleigh_block(19, 2048)
    mask = detect_alone(samples, "dnn", DetectorSettings(0.01, params, 5))
    feats = detector_features(samples, 5, estimate_clean_power(samples))
    # Gate trips exactly when the normalized magnitude clears knee + 0.5.
    assert np.array_equal(mask, (feats[:, 0] >= 4.0).astype(np.uint8))


def test_dnn_detector_is_gain_invariant():
    settings = DetectorSettings(0.01, magnitude_gate_params(), 5)
    clean = rayleigh_block(20, 2048)
    hit = np.random.default_rng(21).random(2048) < 0.03
    samples = np.where(hit, clean * 25.0, clean)
    base = detect_alone(samples, "dnn", settings)
    assert base.sum() > 0
    for scale in (1e-3, 1e3):
        assert np.array_equal(detect_alone(scale * samples, "dnn", settings),
                              base)


def test_dnn_detector_rarely_fires_on_clean_blocks():
    settings = DetectorSettings(0.01, magnitude_gate_params(), 5)
    blocks = rayleigh_block(22, 100_000).reshape(100, 1000)
    altered = np.mean(mitigate_one(blocks, "dnn", settings) != blocks)
    # P(|r| > 4 sigma_est) ~ exp(-16) on Rayleigh; allow generous slack.
    assert altered < 1e-3


def test_dnn_detector_blanks_injected_impulses():
    settings = DetectorSettings(0.01, magnitude_gate_params(), 5)
    block = rayleigh_block(23, 4096)
    where = np.random.default_rng(24).choice(4096, size=40, replace=False)
    block[where] = 30.0 * np.exp(1j * np.linspace(0, 6, 40))
    out = mitigate_one(block, "dnn", settings)
    assert np.all(out[where] == 0.0)


# ---------------------------------------------------------------------------
# composition


def test_mitigate_blank_equals_manual_composition():
    samples = rayleigh_block(25, 2048)
    settings = DetectorSettings(p_fa=0.05)
    out = mitigate_one(samples, "bln", settings)
    mask = detect_alone(samples, "threshold", settings)
    assert np.array_equal(out, np.where(mask == 1, 0, samples))


def test_threshold_blank_policy_is_classic_blanking():
    samples = rayleigh_block(26, 2048, sigma2=4.0)
    out = mitigate_one(samples, "bln", DetectorSettings(p_fa=0.01))
    level = np_level(float(estimate_clean_power(samples)), 0.01)
    assert np.array_equal(out, np.where(np.abs(samples) > level, 0, samples))


def test_clip_policy_lands_flagged_samples_on_detection_level():
    # Clip-at-threshold: with one p_fa for both, every flagged magnitude
    # lands exactly on the detector's per-block level.
    samples = rayleigh_block(32, 1024)
    samples[::50] *= 30.0
    settings = DetectorSettings(p_fa=0.01)
    out = mitigate_one(samples, "clp", settings)
    flagged = detect_alone(samples, "threshold", settings) == 1
    level = np_level(float(estimate_clean_power(samples)), 0.01)
    assert flagged.sum() >= 21
    np.testing.assert_allclose(np.abs(out[flagged]), level, rtol=1e-12)
    assert np.array_equal(out[~flagged], samples[~flagged])


def test_clip_default_level_tracks_per_block_estimate():
    blocks = np.stack([rayleigh_block(28, 2048, 1.0),
                       rayleigh_block(29, 2048, 100.0)])
    out = mitigate_one(blocks, "clp", DetectorSettings(p_fa=0.01))
    levels = np_level(estimate_clean_power(blocks), 0.01)
    for b in range(2):
        assert np.max(np.abs(out[b])) <= levels[b] * (1 + 1e-12)


def test_pass_through_policy_copies_input():
    samples = rayleigh_block(31, 64)
    out = mitigate_one(samples, "none", DetectorSettings(0.01))
    assert np.array_equal(out, samples)
    out[0] = 0.0
    assert samples[0] != 0.0  # the input buffer is not shared


def test_mitigate_rejects_unknown_policy():
    for names in (("zap",), ("bln", "threshold"), ("none", "DNN")):
        with pytest.raises(ValueError, match="unknown policy"):
            mitigate(np.ones(8), names, DetectorSettings(0.01))


def test_mitigate_requires_model_for_network_policies():
    with pytest.raises(ValueError, match="model parameters"):
        mitigate(rayleigh_block(33, 64), ("bln", "dnn"), DetectorSettings(0.01))
    # The other policies need no model.
    out = mitigate(rayleigh_block(33, 64), ("none", "bln", "clp"),
                   DetectorSettings(0.01))
    assert len(out) == 3


def test_mitigate_returns_one_output_per_name_in_order():
    settings = shipped_settings()
    blocks = rayleigh_block(34, 2048).reshape(2, 1024)
    blocks[:, ::41] *= 30.0
    names = ("clp", "none", "bln", "dnn", "clp", "bln")
    outs = mitigate(blocks, names, settings)
    assert len(outs) == len(names)
    for name, (out, mask) in zip(names, outs):
        alone, alone_mask = mitigate(blocks, (name,), settings)[0]
        assert np.array_equal(out, alone)
        assert np.array_equal(mask, alone_mask)
    assert np.array_equal(outs[2][0], outs[5][0])
    assert np.array_equal(outs[0][0], outs[4][0])
    assert mitigate(blocks, (), settings) == []


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["bln", "clp"]))
@settings(max_examples=30, deadline=None)
def test_mitigate_never_increases_any_magnitude(seed, kind):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    samples[rng.random(256) < 0.05] *= 20.0
    out = mitigate_one(samples, kind, DetectorSettings(p_fa=0.05))
    assert np.all(np.abs(out) <= np.abs(samples) * (1 + 1e-12))


@pytest.mark.parametrize("name", ["none", "bln", "clp", "dnn"])
def test_policies_handle_blocks_with_zero_median(name):
    # An all-zero block, and one that is mostly zeros, have a median |r|^2
    # of 0.  Every policy must still return finite samples and leave the
    # zero samples at zero.
    mostly_zero = rayleigh_block(40, 256)
    mostly_zero[np.random.default_rng(41).permutation(256)[:160]] = 0.0
    blocks = np.stack([np.zeros(256, dtype=complex), mostly_zero])
    out = mitigate_one(blocks, name, shipped_settings())
    assert np.all(np.isfinite(out))
    assert np.all(out[blocks == 0] == 0)


@pytest.mark.parametrize("name, calls", [("none", 0), ("bln", 1), ("clp", 1),
                                         ("dnn", 1), ("all", 1)])
def test_mitigate_estimates_block_power_once(monkeypatch, name, calls):
    # Every policy shares one per-block median, each detector runs once, and
    # each output equals suppression of a mask built by hand, which comes
    # back with it: all False for none, the threshold mask for bln and clp.
    names = POLICY_NAMES if name == "all" else (name,)
    settings = shipped_settings()
    blocks = np.stack([rayleigh_block(42, 512), 30.0 * rayleigh_block(43, 512)])
    blocks[:, ::37] *= 25.0
    power = estimate_clean_power(blocks)
    level = np_level(power, settings.p_fa)[:, None]
    mags = np.abs(blocks)
    masks = {"threshold": mags > level,
             "dnn": dnn.classify(settings.params, extract_features(
                 blocks / np.sqrt(power)[:, None], n=settings.half_width)) == 1}

    expected = {"none": blocks,
                "bln": np.where(masks["threshold"], 0, blocks),
                "clp": np.where(masks["threshold"], blocks * (level / mags),
                                blocks),
                "dnn": np.where(masks["dnn"], 0, blocks)}
    seen = {"power": 0, "threshold": 0, "dnn": 0}

    def counting_power(samples):
        seen["power"] += 1
        return estimate_clean_power(samples)

    def counting_detect(samples, kind, *args):
        seen[kind] += 1
        return detect(samples, kind, *args)

    monkeypatch.setattr("inofdm.mitigation.estimate_clean_power", counting_power)
    monkeypatch.setattr("inofdm.mitigation.detect", counting_detect)
    outs = mitigate(blocks, names, settings)
    assert seen == {"power": calls,
                    "threshold": int(bool({"bln", "clp"} & set(names))),
                    "dnn": int("dnn" in names)}
    masks["none"] = np.zeros(blocks.shape, bool)
    masks["bln"] = masks["clp"] = masks["threshold"]
    for n, (out, mask) in zip(names, outs):
        assert np.array_equal(out, expected[n]), n
        assert mask.dtype == bool and mask.shape == blocks.shape, n
        assert np.array_equal(mask, masks[n]), n


# ---------------------------------------------------------------------------
# non-finite input


def test_detecting_policies_zero_non_finite_samples():
    # One inf in row 0, one nan in row 1: no policy returns them, the
    # pass-through included, so none reaches the receiver's DFT.
    blocks = rayleigh_block(44, 2048).reshape(2, 1024)
    blocks[0, 100] = np.inf
    blocks[1, 700] = np.nan
    outs = mitigate(blocks, POLICY_NAMES, shipped_settings())
    for name, (out, _) in zip(POLICY_NAMES, outs):
        bad = (~np.isfinite(out)).sum(axis=1).tolist()
        assert bad == [0, 0], name
        assert out[0, 100] == 0 and out[1, 700] == 0


_NON_FINITE = (np.inf, -np.inf, np.nan)
#: Finite, but |r|^2 overflows: a saturated front end.
_SATURATED = (1e300, -1e300)


@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 255),
                          st.sampled_from(_NON_FINITE + _SATURATED),
                          st.booleans()),
                min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_non_finite_samples_come_out_zero(seed, injections):
    # +-inf, nan or +-1e300 in the real or imaginary part: every detecting
    # policy returns finite samples, zero at the non-finite positions,
    # saturated samples blanked or clipped, and rows without an injection
    # exactly as in the uninjected run.
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((4, 256)) + 1j * rng.standard_normal((4, 256))
    blocks[rng.random((4, 256)) < 0.03] *= 20.0
    hit = blocks.copy()
    for row, col, value, imaginary in injections:
        if imaginary:
            hit[row, col] = complex(hit[row, col].real, value)
        else:
            hit[row, col] = complex(value, hit[row, col].imag)
    non_finite = ~np.isfinite(hit)
    saturated = np.isfinite(hit) & (np.abs(hit) >= 1e300)
    untouched = ~(non_finite | saturated).any(axis=1)
    names = POLICY_NAMES[1:]
    settings = shipped_settings()
    outs = mitigate(hit, names, settings)
    for name, (out, _), (base, _) in zip(names, outs,
                                         mitigate(blocks, names, settings)):
        assert np.all(np.isfinite(out)), name
        assert np.all(out[non_finite] == 0), name
        if name == "clp":
            assert np.all(np.abs(out[saturated]) < 1e3), name
        else:
            assert np.all(out[saturated] == 0), name
        assert out[untouched].tobytes() == base[untouched].tobytes(), name


def test_block_whose_median_saturates_gets_infinite_power():
    # Most samples at 1e300: |r|^2 overflows at the median, so the power
    # is inf, the detectors flag nothing, and nothing warns.
    block = rayleigh_block(45, 1024)
    block[:600] = 1e300
    blocks = np.stack([block, rayleigh_block(46, 1024)])
    power = estimate_clean_power(blocks)
    assert power[0] == np.inf and np.isfinite(power[1])
    assert power[1] == estimate_clean_power(blocks[1])
    for name, (out, _) in zip(POLICY_NAMES, mitigate(blocks, POLICY_NAMES,
                                                     shipped_settings())):
        assert out[0].tobytes() == blocks[0].tobytes(), name
