"""Tests for OFDM modulation, the sparse fading channel, and equalization."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from inofdm.ofdm import (
    PILOT_VALUE,
    assemble_active,
    ChannelProfile,
    ChannelRealization,
    OfdmConfig,
    channel_apply,
    channel_generate,
    equalize,
    estimate_channel,
    ofdm_demodulate,
    ofdm_modulate,
    qpsk_llr,
    qpsk_map,
)

SQRT2 = math.sqrt(2.0)


def qpsk_hard(symbols):
    """Nearest-constellation-point bit decisions (inverse of qpsk_map)."""
    symbols = np.asarray(symbols)
    out = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=np.uint8)
    out[..., 0::2] = symbols.real < 0
    out[..., 1::2] = symbols.imag < 0
    return out


@pytest.fixture(scope="module")
def cfg():
    return OfdmConfig()


# ---------------------------------------------------------------------------
# QPSK


def test_qpsk_anchor_points():
    np.testing.assert_allclose(qpsk_map(np.array([0, 0])),
                               [(1 + 1j) / SQRT2], atol=1e-15)
    np.testing.assert_allclose(qpsk_map(np.array([0, 0, 1, 1])),
                               [(1 + 1j) / SQRT2, (-1 - 1j) / SQRT2],
                               atol=1e-15)


def test_qpsk_all_four_points_unit_energy():
    bits = np.array([0, 0, 0, 1, 1, 0, 1, 1])
    symbols = qpsk_map(bits)
    np.testing.assert_allclose(np.abs(symbols), 1.0, atol=1e-15)
    assert len(set(np.round(symbols, 12))) == 4


def test_qpsk_map_rejects_odd_length():
    with pytest.raises(ValueError):
        qpsk_map(np.array([0, 1, 0]))


@given(arrays(np.uint8, st.integers(1, 64).map(lambda n: 2 * n),
              elements=st.integers(0, 1)))
def test_qpsk_hard_inverts_map(bits):
    np.testing.assert_array_equal(qpsk_hard(qpsk_map(bits)), bits)


def test_qpsk_llr_signs_are_hard_decisions():
    bits = np.array([0, 1, 1, 0, 1, 1, 0, 0])
    symbols = qpsk_map(bits)
    llr = qpsk_llr(symbols, 0.1)
    assert np.array_equal((llr < 0).astype(np.uint8), bits)


def test_qpsk_llr_origin_is_erasure():
    np.testing.assert_array_equal(qpsk_llr(np.array([0.0 + 0.0j]), 0.5),
                                  [0.0, 0.0])


def test_qpsk_llr_scales_inversely_with_noise():
    symbol = np.array([0.3 - 0.7j])
    np.testing.assert_allclose(qpsk_llr(symbol, 0.1),
                               4.0 * qpsk_llr(symbol, 0.4), rtol=1e-12)


def test_qpsk_llr_infinite_noise_gives_zero():
    llr = qpsk_llr(np.array([1.0 + 1.0j]), np.inf)
    np.testing.assert_array_equal(llr, [0.0, 0.0])


# ---------------------------------------------------------------------------
# Carrier grid


def test_default_partition_sizes(cfg):
    assert cfg.n_fft == 1024
    assert len(cfg.data_carriers) == 672
    assert len(cfg.pilot_carriers) == 256
    assert len(cfg.null_carriers) == 96
    assert cfg.cp_len == 64
    assert cfg.symbol_len == 1088


def test_partition_is_exact_cover(cfg):
    merged = np.concatenate(
        [cfg.data_carriers, cfg.pilot_carriers, cfg.null_carriers])
    np.testing.assert_array_equal(np.sort(merged), np.arange(1024))


def test_pilots_equally_spaced(cfg):
    np.testing.assert_array_equal(np.diff(np.sort(cfg.pilot_carriers)), 4)


def test_nulls_sit_at_band_edges(cfg):
    # Guard carriers are the lowest/highest non-pilot indices.
    assert cfg.null_carriers.max() == 1023
    assert np.all((cfg.null_carriers < 64) | (cfg.null_carriers >= 960))


ROOT = Path(__file__).resolve().parent.parent

#: A command's set-up: import the package, load a config and its model,
#: build the carrier grid; prints whether numpy.ma got imported.
SETUP_CODE = """\
import sys
from inofdm import cli, config, dnn
cfg = config.load_config("configs/bg_sir0.cfg")
dnn.load_model(cfg.model_path)
cfg.ofdm.null_carriers, cfg.ofdm.data_carriers, cfg.ofdm.active_carriers
print("numpy.ma" in sys.modules)
"""


def setdiff1d_carriers(cfg):
    """(null, data) carriers built with np.setdiff1d, as the grid once was."""
    others = np.setdiff1d(np.arange(cfg.n_fft), cfg.pilot_carriers)
    half = cfg.n_null // 2
    null = np.concatenate([others[:half], others[len(others) - half:]])
    data = np.setdiff1d(np.arange(cfg.n_fft),
                        np.concatenate([cfg.pilot_carriers, null]))
    return null, data


def test_carrier_grid_leaves_numpy_ma_unloaded_and_unchanged():
    # np.setdiff1d imports numpy.ma through np.unique: 9-12 ms of a launch.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
    for n_fft in (8, 64, 1024):
        for spacing in (1, 2, 3, 4, 7):
            non_pilot = n_fft - len(range(0, n_fft, spacing))
            for n_null in {0, 2, non_pilot // 4 * 2, non_pilot // 2 * 2}:
                if n_null > non_pilot:
                    continue
                grid = OfdmConfig(n_fft=n_fft, cp_len=1, pilot_spacing=spacing,
                                  n_null=n_null)
                null, data = setdiff1d_carriers(grid)
                for got, want in ((grid.null_carriers, null),
                                  (grid.data_carriers, data)):
                    assert got.dtype == want.dtype, (n_fft, spacing, n_null)
                    np.testing.assert_array_equal(got, want)


def test_invalid_partition_rejected():
    with pytest.raises(ValueError):
        OfdmConfig(n_null=95)  # odd guard count
    with pytest.raises(ValueError):
        OfdmConfig(n_fft=8, cp_len=2, pilot_spacing=2, n_null=6)  # 4 non-pilots


def test_pilot_symbols_fixed_pattern(cfg):
    """The pilot phases are deterministic and magnitude-preserving."""
    other = OfdmConfig()
    np.testing.assert_array_equal(cfg.pilot_symbols, other.pilot_symbols)
    np.testing.assert_allclose(np.abs(cfg.pilot_symbols), 1.0, atol=1e-15)
    # Every pilot is the base value rotated by a multiple of 90 degrees.
    turns = cfg.pilot_symbols / PILOT_VALUE
    np.testing.assert_allclose(np.abs(turns.real) + np.abs(turns.imag), 1.0,
                               atol=1e-12)
    # The pattern actually varies (it is not the constant comb).
    assert len(np.unique(np.round(turns, 6))) == 4


# ---------------------------------------------------------------------------
# Modulate / demodulate


def test_single_carrier_is_complex_exponential(cfg):
    active = np.zeros(cfg.n_active, dtype=complex)
    slot = 100
    active[slot] = 1.0
    k = cfg.active_carriers[slot]
    body = ofdm_modulate(cfg, active)[cfg.cp_len:]
    t = np.arange(cfg.n_fft)
    expected = np.exp(2j * np.pi * k * t / cfg.n_fft) / math.sqrt(cfg.n_fft)
    np.testing.assert_allclose(body, expected, atol=1e-12)


def test_all_zero_inputs(cfg):
    out = ofdm_modulate(cfg, np.zeros(cfg.n_active))
    np.testing.assert_array_equal(out, 0)


def test_modulate_rejects_wrong_width(cfg):
    with pytest.raises(ValueError):
        ofdm_modulate(cfg, np.zeros(cfg.n_active - 1))
    with pytest.raises(ValueError):
        ofdm_demodulate(cfg, np.zeros(777))
    with pytest.raises(ValueError):
        ofdm_demodulate(cfg, np.zeros(cfg.symbol_len))  # prefix not removed


def test_roundtrip_identity(cfg):
    rng = np.random.default_rng(0)
    active = qpsk_map(rng.integers(0, 2, size=(8, 2 * cfg.n_active)))
    carriers = ofdm_demodulate(cfg, ofdm_modulate(cfg, active)[..., cfg.cp_len:])
    np.testing.assert_allclose(carriers[..., cfg.active_carriers], active,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(carriers[..., cfg.null_carriers], 0, atol=1e-12)


def test_cyclic_prefix_copies_tail(cfg):
    rng = np.random.default_rng(2)
    tx = ofdm_modulate(cfg, qpsk_map(rng.integers(0, 2, size=2 * cfg.n_active)))
    np.testing.assert_array_equal(tx[:cfg.cp_len], tx[-cfg.cp_len:])


def test_modulator_is_linear(cfg):
    rng = np.random.default_rng(3)
    a = rng.standard_normal(cfg.n_active) + 1j * rng.standard_normal(cfg.n_active)
    b = rng.standard_normal(cfg.n_active) + 1j * rng.standard_normal(cfg.n_active)
    lhs = ofdm_modulate(cfg, 2.0 * a - 0.5j * b)
    rhs = 2.0 * ofdm_modulate(cfg, a) - 0.5j * ofdm_modulate(cfg, b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_parseval_energy_match(cfg):
    rng = np.random.default_rng(4)
    active = qpsk_map(rng.integers(0, 2, size=2 * cfg.n_active))
    body = ofdm_modulate(cfg, active)[cfg.cp_len:]
    assert np.sum(np.abs(body) ** 2) == pytest.approx(
        np.sum(np.abs(active) ** 2), rel=1e-12)


def test_average_sample_power_is_active_fraction(cfg):
    """Mean body-sample power over 1000 random symbols is |S_A|/N."""
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=(1000, 2 * cfg.n_active))
    body = ofdm_modulate(cfg, qpsk_map(bits))[..., cfg.cp_len:]
    power = np.mean(np.abs(body) ** 2)
    assert power == pytest.approx(cfg.n_active / cfg.n_fft, rel=0.01)


# ---------------------------------------------------------------------------
# Channel


def test_identity_channel_passthrough():
    ch = ChannelRealization(gains=np.array([1.0 + 0j]),
                            delays=np.array([0]))
    x = np.arange(10, dtype=complex)
    np.testing.assert_array_equal(channel_apply(x, ch), x)


def test_pure_delay_shifts():
    ch = ChannelRealization(gains=np.array([1.0 + 0j]), delays=np.array([3]))
    x = np.arange(1, 8, dtype=complex)
    out = channel_apply(x, ch)
    np.testing.assert_array_equal(out[:3], 0)
    np.testing.assert_array_equal(out[3:], x[:4])


@pytest.mark.parametrize("n_taps", [2, 10])
def test_channel_apply_matches_dense_convolution(n_taps):
    rng = np.random.default_rng(6)
    delays = np.sort(rng.choice(40, size=n_taps, replace=False))
    gains = rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
    ch = ChannelRealization(gains=gains, delays=delays)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    dense = np.zeros(delays.max() + 1, dtype=complex)
    dense[delays] = gains
    oracle = np.convolve(x, dense)[:64]
    np.testing.assert_allclose(channel_apply(x, ch), oracle, atol=1e-12)


def test_channel_generate_single_tap():
    rng = np.random.default_rng(7)
    powers = []
    for _ in range(4000):
        ch = channel_generate(rng, ChannelProfile(n_taps=1))
        assert ch.delays.tolist() == [0]
        powers.append(abs(ch.gains[0]) ** 2)
    assert np.mean(powers) == pytest.approx(1.0, rel=0.05)


def test_channel_generate_delay_structure():
    rng = np.random.default_rng(8)
    for _ in range(200):
        ch = channel_generate(rng, max_delay=64)
        assert ch.delays[0] == 0
        assert np.all(np.diff(ch.delays) >= 1)
        assert ch.delays[-1] < 64


def test_channel_power_profile_decays():
    """Tap power binned by delay reproduces the exponential decay trend."""
    rng = np.random.default_rng(9)
    profile = ChannelProfile(n_taps=10, mean_arrival=6.0, decay=20.0)
    delays, powers = [], []
    for _ in range(10_000):
        ch = channel_generate(rng, profile)
        delays.append(ch.delays)
        powers.append(np.abs(ch.gains) ** 2)
    delays = np.concatenate(delays)
    powers = np.concatenate(powers)
    bins = [0, 8, 16, 24, 32, 40, 64]
    means = [powers[(delays >= lo) & (delays < hi)].mean()
             for lo, hi in zip(bins[:-1], bins[1:])]
    assert np.all(np.diff(means) < 0)


def test_channel_total_power_normalized():
    rng = np.random.default_rng(10)
    total = np.mean([np.sum(np.abs(channel_generate(rng).gains) ** 2)
                     for _ in range(20_000)])
    assert total == pytest.approx(1.0, rel=0.02)


def test_channel_generate_gives_up_when_spread_cannot_fit():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError, match="channel.mean_arrival"):
        channel_generate(rng, ChannelProfile(n_taps=10, mean_arrival=1000.0),
                         max_delay=64)


def test_channel_profile_validation():
    with pytest.raises(ValueError):
        ChannelProfile(n_taps=0)
    with pytest.raises(ValueError):
        ChannelProfile(mean_arrival=-1.0)


def test_frequency_domain_model_matches_time_convolution(cfg):
    """Y[k] = H[k] X[k] once the CP absorbs the channel spread."""
    rng = np.random.default_rng(12)
    active = qpsk_map(rng.integers(0, 2, size=2 * cfg.n_active))
    tx = ofdm_modulate(cfg, active)
    ch = channel_generate(rng, max_delay=cfg.cp_len)
    rx = channel_apply(tx, ch)
    got = ofdm_demodulate(cfg, rx[cfg.cp_len:])
    grid = np.zeros(cfg.n_fft, dtype=complex)
    grid[cfg.active_carriers] = active
    expected = ch.frequency_response(cfg.n_fft) * grid
    np.testing.assert_allclose(got, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# Estimation and equalization


def test_flat_channel_estimated_exactly(cfg):
    rng = np.random.default_rng(13)
    active = assemble_active(cfg, qpsk_map(rng.integers(0, 2, size=2 * cfg.n_data)))
    c = 0.7 - 1.3j
    carriers = ofdm_demodulate(cfg, c * ofdm_modulate(cfg, active)[cfg.cp_len:])
    est = estimate_channel(cfg, carriers)
    np.testing.assert_allclose(est, c, atol=1e-12)


def test_two_tap_channel_estimate_tracks_exact_response(cfg):
    rng = np.random.default_rng(14)
    active = assemble_active(cfg, qpsk_map(rng.integers(0, 2, size=2 * cfg.n_data)))
    ch = ChannelRealization(gains=np.array([0.8 + 0.1j, 0.3 - 0.4j]),
                            delays=np.array([0, 7]))
    rx = channel_apply(ofdm_modulate(cfg, active), ch)
    carriers = ofdm_demodulate(cfg, rx[cfg.cp_len:])
    est = estimate_channel(cfg, carriers)
    exact = ch.frequency_response(cfg.n_fft)
    err = np.abs(est - exact)[cfg.data_carriers]
    # Noiseless linear interpolation of a smooth response: small curvature
    # error between pilots, exact at the pilots themselves.
    assert err.max() < 5e-3
    pilots = np.sort(cfg.pilot_carriers)
    np.testing.assert_allclose(est[pilots], exact[pilots], atol=1e-10)


def test_estimation_error_grows_with_pilot_spacing():
    rng = np.random.default_rng(15)
    ch = ChannelRealization(
        gains=np.array([0.7 + 0.2j, 0.4 - 0.3j, 0.2 + 0.5j]),
        delays=np.array([0, 11, 23]))
    errors = {}
    for spacing in (4, 16):
        cfg_s = OfdmConfig(pilot_spacing=spacing)
        active = assemble_active(
            cfg_s, qpsk_map(rng.integers(0, 2, size=2 * cfg_s.n_data)))
        rx = channel_apply(ofdm_modulate(cfg_s, active), ch)
        est = estimate_channel(cfg_s, ofdm_demodulate(cfg_s, rx[cfg_s.cp_len:]))
        exact = ch.frequency_response(cfg_s.n_fft)
        errors[spacing] = np.abs(est - exact)[cfg_s.data_carriers].max()
    assert errors[4] < errors[16]


def test_estimate_channel_input_checks(cfg):
    with pytest.raises(ValueError):
        estimate_channel(cfg, np.zeros(cfg.n_fft - 1))


def test_equalize_identity_and_scaling():
    y = np.array([1.0 + 1.0j, -2.0 + 0.5j])
    eq, scale = equalize(y, np.ones(2))
    np.testing.assert_array_equal(eq, y)
    np.testing.assert_array_equal(scale, 1.0)
    eq, scale = equalize(y, 2.0 * np.ones(2))
    np.testing.assert_allclose(eq, y / 2.0, atol=1e-15)
    np.testing.assert_allclose(scale, 0.25, atol=1e-15)


def test_equalize_erases_dead_carriers():
    y = np.array([1.0 + 0j, 1.0 + 0j])
    eq, scale = equalize(y, np.array([1e-12, 1.0]))
    assert eq[0] == 0
    assert scale[0] == np.inf
    assert eq[1] == 1.0


def test_equalize_inverts_random_channel(cfg):
    rng = np.random.default_rng(16)
    x = qpsk_map(rng.integers(0, 2, size=2 * cfg.n_fft))
    h = rng.standard_normal(cfg.n_fft) + 1j * rng.standard_normal(cfg.n_fft)
    h[np.abs(h) < 0.1] = 0.5  # keep all carriers comfortably invertible
    eq, _ = equalize(h * x, h)
    np.testing.assert_allclose(eq, x, atol=1e-10)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_roundtrip_property_random_payloads(seed):
    cfg = OfdmConfig(n_fft=64, cp_len=8, pilot_spacing=4, n_null=8)
    rng = np.random.default_rng(seed)
    active = qpsk_map(rng.integers(0, 2, size=2 * cfg.n_active))
    carriers = ofdm_demodulate(cfg, ofdm_modulate(cfg, active)[cfg.cp_len:])
    np.testing.assert_allclose(carriers[cfg.active_carriers], active,
                               atol=1e-12)
