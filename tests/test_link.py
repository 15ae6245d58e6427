"""End-to-end link tests: power conventions, noise-spec algebra, the
noiseless chain, seeded determinism, paired-sweep bookkeeping, dataset
generation, curve serialization and detector scoring.

Full-size symbols (N=1024) are slow, so structural sweep tests run on a
scaled-down grid (N=128 with a 3-tap channel); physics checks that depend on
the published dimensioning use the default configuration.
"""

import ctypes
import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from inofdm import config as config_mod
from inofdm import dnn, link, workers
from inofdm.coding import viterbi_decode_soft
from inofdm.mitigation import (DetectorSettings, detect, detector_features,
                               estimate_clean_power, mitigate)
from inofdm.noise_models import BGNoise, MCANoise, SASNoise, sample_noise

MODEL_PATH = Path(__file__).resolve().parent.parent / "models" / "detector.txt"

#: Scaled-down link for structural tests: same code and chain, 128 carriers,
#: short prefix, 3-tap channel that always fits it.
SMALL = {
    "ofdm.n_fft": "128", "ofdm.cp_len": "16", "ofdm.n_null": "12",
    "interleaver.tx_rows": "8", "interleaver.tx_cols": "22",
    "channel.n_taps": "3", "channel.mean_arrival": "2", "channel.decay": "5",
}


def small_config(**overrides):
    merged = {**SMALL, **{k: str(v) for k, v in overrides.items()}}
    return config_mod.load_config(None, merged)


def default_config(**overrides):
    return config_mod.load_config(None, {k: str(v) for k, v in overrides.items()})


def cleaned(cfg, batch, name, params=None):
    """One policy's mitigated receiver samples of a batch, mitigated alone."""
    settings = DetectorSettings(cfg.p_fa, params, cfg.half_width)
    return mitigate(batch.rx, (name,), settings)[0][0]


# ---------------------------------------------------------------------------
# power conventions


def test_bits_per_symbol_default_dimensioning():
    # 672 data carriers -> 1344 coded bits -> 672 trellis bits - 6 tail.
    assert link.bits_per_symbol(default_config()) == 666


def test_awgn_power_closed_form():
    # N0 = 1 / (2 R Eb/N0), R = 1/2: 0 dB -> 1, 10 dB -> 0.1.
    assert link.awgn_power(0.0) == pytest.approx(1.0, rel=1e-12)
    assert link.awgn_power(10.0) == pytest.approx(0.1, rel=1e-12)


def test_signal_power_is_active_fraction():
    assert link.signal_power(default_config()) == pytest.approx(928 / 1024, rel=1e-12)


def test_bg_spec_ties_impulse_power_to_sir():
    cfg = default_config()
    spec = link.noise_spec_for(cfg, 10.0)
    assert isinstance(spec, BGNoise)
    assert spec.sigma_w2 == pytest.approx(0.1, rel=1e-12)
    # SIR 0 dB: epsilon * sigma_i2 equals the time-domain signal power.
    assert spec.epsilon * spec.sigma_i2 == pytest.approx(928 / 1024, rel=1e-12)
    quieter = link.noise_spec_for(default_config(**{"noise.sir_db": 10}), 10.0)
    assert quieter.sigma_i2 == pytest.approx(spec.sigma_i2 / 10.0, rel=1e-12)


@pytest.mark.parametrize("epsilon", [0.05, 0])
def test_bg_spec_carries_the_configured_burst_length(epsilon):
    cfg = default_config(**{"noise.epsilon": epsilon, "noise.burst_len": 4})
    assert link.noise_spec_for(cfg, 10.0).burst_len == 4
    assert link.noise_spec_for(default_config(), 10.0).burst_len == 1


@pytest.mark.parametrize("epsilon, sir_db", [
    (1e-300, -300),     # epsilon * SIR underflows: ZeroDivisionError
    (5e-324, 0),        # signal power / epsilon overflows: an inf variance
])
def test_bg_spec_rejects_an_infinite_impulse_power(epsilon, sir_db):
    cfg = default_config(**{"noise.epsilon": epsilon, "noise.sir_db": sir_db})
    with pytest.raises(ValueError, match="infinite impulse power"):
        link.noise_spec_for(cfg, 10.0)


def test_degenerate_bg_spec_is_pure_awgn():
    cfg = default_config(**{"noise.epsilon": 0})
    spec = link.noise_spec_for(cfg, 0.0)
    assert spec.epsilon == 0.0
    assert spec.sigma_w2 == pytest.approx(1.0)


@pytest.mark.parametrize("gamma", [5e-324, 1e-310])
def test_mca_spec_rejects_an_infinite_noise_power(gamma):
    # N0 (1 + gamma) / gamma overflows; the sampler would draw inf noise.
    cfg = default_config(**{"noise.model": "mca", "noise.gamma": gamma})
    with pytest.raises(ValueError, match="noise.gamma .* Eb/N0 10 dB"):
        link.noise_spec_for(cfg, 10.0)


def test_mca_spec_background_equals_thermal_power():
    # sigma_n2 = N0 (1+Gamma)/Gamma makes the Poisson-0 background term N0.
    cfg = default_config(**{"noise.model": "mca"})
    spec = link.noise_spec_for(cfg, 10.0)
    assert isinstance(spec, MCANoise)
    assert spec.sigma_n2 == pytest.approx(0.1 * 1.2 / 0.2, rel=1e-12)
    assert spec.thermal_power == pytest.approx(0.1, rel=1e-12)


def test_sas_spec_reduces_to_thermal_power_at_alpha_2():
    cfg = default_config(**{"noise.model": "sas", "noise.scale": 1})
    spec = link.noise_spec_for(cfg, 10.0)
    assert isinstance(spec, SASNoise)
    assert spec.scale == pytest.approx(math.sqrt(0.1) / 2.0, rel=1e-12)
    # Gaussian-equivalent power gamma^2 * N0, i.e. N0 at unit dispersion.
    assert spec.thermal_power == pytest.approx(0.1, rel=1e-12)


def test_measured_sir_within_a_fifth_of_a_decibel():
    # Energy accounting: the impulse power of generated noise must land within
    # 0.2 dB of the configured SIR over 1e6 samples (impulse samples also
    # carry background variance, which is subtracted out).
    cfg = default_config()
    spec = link.noise_spec_for(cfg, 10.0)
    samples, labels = sample_noise(spec, 1_000_000, np.random.default_rng(99))
    lab = labels.astype(bool)
    in_power = (np.sum(np.abs(samples[lab]) ** 2) / lab.size
                - lab.mean() * spec.sigma_w2)
    sir_db = 10.0 * np.log10(link.signal_power(cfg) / in_power)
    assert abs(sir_db - cfg.sir_db) <= 0.2


# ---------------------------------------------------------------------------
# batch simulation and stream domains


def test_simulate_batch_shapes_and_labels():
    cfg = small_config()
    batch = link.simulate_batch(cfg, 10.0, 5, np.random.default_rng(1))
    assert batch.tx_bits.shape == (5, link.bits_per_symbol(cfg))
    assert batch.rx.shape == (5, 128)
    assert batch.labels.shape == (5, 128)
    assert len(batch.channels) == 5
    assert set(np.unique(batch.tx_bits)) <= {0, 1}


def test_simulate_batch_is_seed_deterministic():
    cfg = small_config()
    a = link.simulate_batch(cfg, 8.0, 3, np.random.default_rng(7))
    b = link.simulate_batch(cfg, 8.0, 3, np.random.default_rng(7))
    assert np.array_equal(a.tx_bits, b.tx_bits)
    assert np.array_equal(a.rx, b.rx)
    assert np.array_equal(a.labels, b.labels)


def test_simulate_batch_rejects_empty():
    with pytest.raises(ValueError):
        link.simulate_batch(small_config(), 10.0, 0, np.random.default_rng(0))


def test_noise_power_matches_spec_in_expectation():
    # Bits and channels are drawn before the noise, so a noiseless twin from
    # the same seed carries the same signal.
    cfg = small_config(**{"noise.epsilon": 0.05})
    batch = link.simulate_batch(cfg, 6.0, 400, np.random.default_rng(2))
    twin = link.simulate_batch(small_config(**{"noise.epsilon": 0}), 300.0,
                               400, np.random.default_rng(2))
    assert np.array_equal(twin.tx_bits, batch.tx_bits)
    spec = batch.spec
    measured = np.mean(np.abs(batch.rx - twin.rx) ** 2)
    expected = spec.sigma_w2 + spec.epsilon * spec.sigma_i2
    assert measured == pytest.approx(expected, rel=0.05)


def test_plain_batch_holds_the_symbol_bodies():
    cfg = small_config()
    batch = link.simulate_batch(cfg, 10.0, 2, np.random.default_rng(3))
    assert batch.rx.shape == batch.labels.shape == (2, 128)


def test_time_interleaved_batch_holds_the_full_stream():
    cfg = small_config(**{"interleaver.time_enabled": True,
                          "interleaver.time_rows": 8,
                          "interleaver.time_cols": 18})
    batch = link.simulate_batch(cfg, 10.0, 2, np.random.default_rng(4))
    assert batch.rx.shape == batch.labels.shape == (2, 144)


def test_plain_batch_is_the_body_of_an_identity_interleaved_batch():
    # A 1x144 time interleaver leaves the stream in natural order, so the
    # plain batch must be the same draws with the 16 prefix samples dropped.
    plain = link.simulate_batch(small_config(), 10.0, 3,
                                np.random.default_rng(8))
    full = link.simulate_batch(
        small_config(**{"interleaver.time_enabled": True,
                        "interleaver.time_rows": 1,
                        "interleaver.time_cols": 144}),
        10.0, 3, np.random.default_rng(8))
    assert full.rx.shape == (3, 144)
    assert np.array_equal(plain.rx, full.rx[:, 16:])
    assert np.array_equal(plain.labels, full.labels[:, 16:])


# ---------------------------------------------------------------------------
# chain correctness


def test_noiseless_chain_decodes_exactly():
    # Impulses off and 300 dB Eb/N0 leave the noise ~1e-15 of the
    # constellation: every branch of the chain (encode/interleave/modulate/
    # channel/estimate/decode) must line up for the decoder to return the
    # exact transmitted bits.  (Impulse power rides on SIR, not Eb/N0, so
    # epsilon really has to be zero here.)
    cfg = small_config(**{"noise.epsilon": 0})
    batch = link.simulate_batch(cfg, 300.0, 8, np.random.default_rng(5))
    decoded = link.receive_batch(cfg, batch, cleaned(cfg, batch, "none"))
    assert np.array_equal(decoded, batch.tx_bits)


def test_noiseless_chain_with_time_interleaver_decodes_exactly():
    cfg = small_config(**{"noise.epsilon": 0,
                          "interleaver.time_enabled": True,
                          "interleaver.time_rows": 8,
                          "interleaver.time_cols": 18})
    batch = link.simulate_batch(cfg, 300.0, 8, np.random.default_rng(6))
    assert np.array_equal(
        link.receive_batch(cfg, batch, cleaned(cfg, batch, "none")),
        batch.tx_bits)


@pytest.mark.parametrize("chain", [
    {},
    {"interleaver.time_enabled": True, "interleaver.time_rows": 8,
     "interleaver.time_cols": 18},
], ids=["plain", "time_interleaved"])
def test_none_policy_takes_an_inf_sample_through_the_receiver(chain):
    # The pass-through used to keep the inf, and the receiver's DFT warned
    # 'invalid value encountered in fft'.
    cfg = small_config(**chain, **{"noise.epsilon": 0})
    batch = link.simulate_batch(cfg, 300.0, 8, np.random.default_rng(5))
    stream = batch.rx.copy()
    stream[0, 40] = np.inf
    settings = DetectorSettings(cfg.p_fa, None, cfg.half_width)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = mitigate(stream, ("none",), settings)[0][0]
        decoded = viterbi_decode_soft(link.receive_llrs(cfg, batch, out))
    assert out[0, 40] == 0 and np.isfinite(out).all()
    assert np.array_equal(decoded[1:], batch.tx_bits[1:])


def test_noiseless_chain_with_perfect_csi():
    cfg = small_config(**{"noise.epsilon": 0, "sweep.perfect_csi": True})
    assert cfg.perfect_csi
    batch = link.simulate_batch(cfg, 300.0, 4, np.random.default_rng(7))
    assert np.array_equal(
        link.receive_batch(cfg, batch, cleaned(cfg, batch, "none")),
        batch.tx_bits)


def test_awgn_baseline_regression_pin():
    """Frozen coded-QPSK waterfall of this chain (fading channel, pilot
    estimation, no impulses): seeded sweep at 10/12 dB, integer error counts
    pinned from the run that froze them.  The curve passes 1e-3 between the
    two points — the steep fading waterfall, not the pure-AWGN one."""
    cfg = default_config(**{"noise.epsilon": 0, "sweep.policies": "none",
                            "grid.ebn0_db": "10", "sweep.min_errors": 200,
                            "sweep.max_bits": 1_000_000})
    point = link.ber_sweep(cfg)["none"].points[0]
    assert (point.errors, point.bits) == (298, 63936)
    assert point.ber == pytest.approx(4.661e-3, rel=1e-3)

    cfg12 = default_config(**{"noise.epsilon": 0, "sweep.policies": "none",
                              "grid.ebn0_db": "12", "sweep.min_errors": 200,
                              "sweep.max_bits": 400_000})
    point12 = link.ber_sweep(cfg12)["none"].points[0]
    assert (point12.errors, point12.bits) == (45, 404928)
    assert point12.ber < 1e-3


# ---------------------------------------------------------------------------
# dataset generation


def test_dataset_row_count_and_base_rate():
    cfg = small_config(**{"train.ebn0_db": "10", "train.sir_db": "0",
                          "train.epsilon": "0.08", "train.symbols": 40})
    features, labels = link.generate_dataset(cfg)
    # One row per body sample: prefix samples carry no feature rows.
    assert features.shape == (40 * 128, 3)
    assert labels.shape == (40 * 128,)
    assert set(np.unique(labels)) <= {0.0, 1.0}
    # Binomial check: 5120 draws at eps=0.08 -> 3 sigma ~ 0.011.
    assert labels.mean() == pytest.approx(0.08, abs=0.02)


def test_dataset_is_deterministic():
    cfg = small_config(**{"train.ebn0_db": "6,10", "train.sir_db": "0",
                          "train.epsilon": "0.05,0.1", "train.symbols": 12})
    f1, l1 = link.generate_dataset(cfg)
    f2, l2 = link.generate_dataset(cfg)
    assert np.array_equal(f1, f2)
    assert np.array_equal(l1, l2)


def test_dataset_rows_are_shuffled():
    # Labels must not arrive grouped by grid combo: with two very different
    # epsilons the first and second half would otherwise differ massively.
    cfg = small_config(**{"train.ebn0_db": "10", "train.sir_db": "0",
                          "train.epsilon": "0.01,0.2", "train.symbols": 40})
    _, labels = link.generate_dataset(cfg)
    half = len(labels) // 2
    assert labels[:half].mean() == pytest.approx(labels[half:].mean(), abs=0.03)


def shuffled_after_simulation(cfg):
    """The dataset as it was built before rows were written to their
    shuffled positions: every grid point's rows, concatenated in grid
    order, then indexed by the shuffle permutation."""
    combos = list(itertools.product(cfg.train_ebn0_db, cfg.train_sir_db,
                                    cfg.train_epsilon))
    base, extra = divmod(cfg.train_symbols, len(combos))
    features, labels = [], []
    for ci, (ebn0, sir, eps) in enumerate(combos):
        point_cfg = dataclasses.replace(cfg, noise_model="bg", sir_db=sir,
                                        epsilon=eps, burst_len=1,
                                        time_interleaver=None)
        rng = np.random.default_rng(np.random.SeedSequence(
            (cfg.seed, link._TAG_DATASET, ci)))
        batch = link.simulate_batch(point_cfg, ebn0, base + (ci < extra), rng)
        features.append(detector_features(
            batch.rx, cfg.half_width, estimate_clean_power(batch.rx)
        ).reshape(-1, 3))
        labels.append(batch.labels.reshape(-1))
    features, labels = np.concatenate(features), np.concatenate(labels)
    order = np.random.default_rng(np.random.SeedSequence(
        (cfg.seed, link._TAG_SHUFFLE))).permutation(len(labels))
    return features[order], labels[order]


@pytest.mark.parametrize("cpus", [1, 2])
def test_dataset_rows_land_where_the_shuffle_put_them(monkeypatch, cpus):
    # Four grid points, the first with one symbol more than the others.
    cfg = small_config(**{"train.ebn0_db": "6,10", "train.sir_db": "0",
                          "train.epsilon": "0.05,0.1", "train.symbols": 13,
                          "seed": 5})
    want_f, want_l = shuffled_after_simulation(cfg)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
    features, labels = link.generate_dataset(cfg)
    assert features.dtype == np.float64 and features.flags.c_contiguous
    assert labels.dtype == np.uint8
    assert features.tobytes() == want_f.tobytes()
    assert labels.tobytes() == want_l.tobytes()


def test_dataset_generation_allocates_under_16_bytes_per_row(
        monkeypatch, traced_bytes_per_row):
    # On one CPU, where every grid point runs in this process: the int32
    # inverse permutation, made from the permutation and one index vector
    # (12 bytes a row).  In intp they took 24, and shuffling after
    # simulation copied the rows: 33.
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
    cfg = small_config(**{"train.symbols": 1600})
    assert traced_bytes_per_row(lambda: link.generate_dataset(cfg),
                                1600 * 128) <= 16


def test_dataset_requires_enough_symbols_for_the_grid():
    cfg = small_config(**{"train.symbols": 2})  # default grid has 72 combos
    with pytest.raises(ValueError):
        link.generate_dataset(cfg)


# ---------------------------------------------------------------------------
# BER sweeps


def test_sweep_curves_bookkeeping():
    cfg = small_config(**{"noise.epsilon": 0.05, "grid.ebn0_db": "4,8,12",
                          "sweep.policies": "none,bln",
                          "sweep.min_errors": 150, "sweep.max_bits": 60_000})
    lines = []
    curves = link.ber_sweep(cfg, log=lines.append)
    assert set(curves) == {"none", "bln"}
    for curve in curves.values():
        assert [p.ebn0_db for p in curve.points] == [4.0, 8.0, 12.0]
        assert curve.config_hash == cfg.config_hash
        for p in curve.points:
            assert p.ber == p.errors / p.bits
            assert p.errors >= 150 or p.bits >= 60_000
    assert len(lines) == 3  # one progress line per grid point


def test_sweep_unmitigated_is_worst_under_strong_impulses():
    cfg = small_config(**{"noise.epsilon": 0.05, "grid.ebn0_db": "8,12",
                          "sweep.policies": "none,bln,clp",
                          "sweep.min_errors": 150, "sweep.max_bits": 60_000})
    curves = link.ber_sweep(cfg)
    for ebn0 in (8.0, 12.0):
        worst = curves["none"].ber_at(ebn0)
        assert worst >= curves["bln"].ber_at(ebn0)
        assert worst >= curves["clp"].ber_at(ebn0)


def test_sweep_policies_share_realizations():
    # Common random numbers: adding a policy must not change what the others
    # decode, down to the integer error counts.
    base = {"noise.epsilon": 0.05, "grid.ebn0_db": "8",
            "sweep.min_errors": 100, "sweep.max_bits": 30_000}
    alone = link.ber_sweep(small_config(**base, **{"sweep.policies": "bln"}))
    paired = link.ber_sweep(small_config(**base, **{"sweep.policies": "bln,none"}))
    p_alone = alone["bln"].points[0]
    p_paired = paired["bln"].points[0]
    assert (p_alone.errors, p_alone.bits) == (p_paired.errors, p_paired.bits)


@pytest.mark.parametrize("chain", [
    {},
    {"interleaver.time_enabled": True, "interleaver.time_rows": 8,
     "interleaver.time_cols": 18},
], ids=["plain", "time_interleaved"])
def test_sweep_counts_equal_per_policy_receive_batch(chain):
    # The sweep decodes every policy's rows of a batch in one call; each
    # policy's counts must still be those of decoding its own rows alone.
    n_batches = 3
    batch_bits = link.BATCH_SYMBOLS * link.bits_per_symbol(small_config())
    cfg = small_config(**chain, **{
        "noise.epsilon": 0.05, "grid.ebn0_db": "6,10",
        "sweep.policies": "none,bln,clp", "sweep.min_errors": 10 ** 9,
        "sweep.max_bits": n_batches * batch_bits})
    curves = link.ber_sweep(cfg)
    for point_idx, ebn0 in enumerate(cfg.ebn0_db):
        expected = dict.fromkeys(cfg.policies, 0)
        for batch_idx in range(n_batches):
            rng = np.random.default_rng(np.random.SeedSequence(
                (cfg.seed, link._TAG_SWEEP, point_idx, batch_idx)))
            batch = link.simulate_batch(cfg, ebn0, link.BATCH_SYMBOLS, rng)
            for name in cfg.policies:
                decoded = link.receive_batch(cfg, batch,
                                             cleaned(cfg, batch, name))
                expected[name] += int(np.sum(decoded != batch.tx_bits))
        points = [curves[name].points[point_idx] for name in cfg.policies]
        assert [p.bits for p in points] == [n_batches * batch_bits] * 3
        assert [p.errors for p in points] == list(expected.values())
        assert len(set(expected.values())) > 1   # a row mix-up would show


def reference_ber_sweep(cfg, params=None):
    """One decoder call per batch: the sweep loop before batches were
    decoded a chunk at a time (oracle).

    Returns:
        {policy: [(ebn0_db, bits, errors), ...]}, one tuple per grid point.
    """
    m = link.bits_per_symbol(cfg)
    names = tuple(dict.fromkeys(cfg.policies))
    settings = DetectorSettings(cfg.p_fa, params, cfg.half_width)
    points = {name: [] for name in names}
    for point_idx, ebn0 in enumerate(cfg.ebn0_db):
        errors = dict.fromkeys(names, 0)
        bits = 0
        batch_idx = 0
        while True:
            rng = np.random.default_rng(np.random.SeedSequence(
                (cfg.seed, link._TAG_SWEEP, point_idx, batch_idx)))
            batch = link.simulate_batch(cfg, ebn0, link.BATCH_SYMBOLS, rng)
            decoded = viterbi_decode_soft(np.concatenate(
                [link.receive_llrs(cfg, batch, stream) for stream, _ in
                 mitigate(batch.rx, names, settings)]))
            for name, policy_bits in zip(names, np.split(decoded, len(names))):
                errors[name] += int(np.sum(policy_bits != batch.tx_bits))
            bits += link.BATCH_SYMBOLS * m
            batch_idx += 1
            if bits >= cfg.max_bits or min(errors.values()) >= cfg.min_errors:
                break
        for name in names:
            points[name].append((ebn0, bits, errors[name]))
    return points


_TIME_INTERLEAVED = {"interleaver.time_enabled": True,
                     "interleaver.time_rows": 8, "interleaver.time_cols": 18}
_SMALL_BATCH_BITS = link.BATCH_SYMBOLS * 78   # 78 information bits a symbol


@pytest.mark.parametrize("chain, case, discards", [
    # Six batches of one policy: a chunk of four, then the two left.
    ({}, {"grid.ebn0_db": "10", "sweep.policies": "bln",
          "sweep.min_errors": 10 ** 9,
          "sweep.max_bits": 5 * _SMALL_BATCH_BITS + 1}, False),
    (_TIME_INTERLEAVED, {"grid.ebn0_db": "10", "sweep.policies": "bln",
                         "sweep.min_errors": 10 ** 9,
                         "sweep.max_bits": 5 * _SMALL_BATCH_BITS + 1}, False),
    # min_errors is reached inside a chunk; the rest of it is discarded.
    ({}, {"grid.ebn0_db": "14", "sweep.policies": "bln", "seed": 2,
          "sweep.min_errors": 30, "sweep.max_bits": 200_000}, True),
    (_TIME_INTERLEAVED, {"grid.ebn0_db": "14", "sweep.policies": "bln",
                         "sweep.min_errors": 30,
                         "sweep.max_bits": 200_000}, True),
    # Several points, two policies, both stop rules.
    ({}, {"grid.ebn0_db": "4,8,12", "sweep.policies": "none,bln",
          "sweep.min_errors": 150, "sweep.max_bits": 60_000}, None),
    (_TIME_INTERLEAVED, {"grid.ebn0_db": "4,8,12",
                         "sweep.policies": "none,bln",
                         "sweep.min_errors": 150, "sweep.max_bits": 60_000},
     None),
], ids=["budget-plain", "budget-ti", "mid_chunk-plain", "mid_chunk-ti",
        "grid-plain", "grid-ti"])
def test_chunked_sweep_equals_one_decode_per_batch(chain, case, discards):
    cfg = small_config(**chain, **{"noise.epsilon": 0.05, **case})
    assert link.BATCH_SYMBOLS * link.bits_per_symbol(cfg) == _SMALL_BATCH_BITS
    lines = []
    curves = link.ber_sweep(cfg, log=lines.append)
    expected = reference_ber_sweep(cfg)
    for name, curve in curves.items():
        assert [(p.ebn0_db, p.bits, p.errors) for p in curve.points] == \
            expected[name], name
        assert [p.ber for p in curve.points] == [e / b for _, b, e in
                                                 expected[name]]
    if discards is not None:
        assert any("discarded=0 " not in line for line in lines) == discards


def _counting(monkeypatch, name, record):
    """Wrap ``link.<name>`` so each call appends its positional arguments
    to ``record``.  A call made in a forked worker would not reach
    ``record``, so this also pins the sweep to one usable CPU."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
    inner = getattr(link, name)

    def wrapped(*args, **kwargs):
        record.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(link, name, wrapped)


def test_fixed_budget_network_point_decodes_once_at_decode_rows(monkeypatch):
    # A budget of exactly one full decoder call.
    calls = []
    _counting(monkeypatch, "viterbi_decode_soft", calls)
    batches = link.DECODE_ROWS // link.BATCH_SYMBOLS
    cfg = small_config(**{"noise.epsilon": 0.05, "grid.ebn0_db": "10",
                          "sweep.policies": "dnn", "sweep.min_errors": 10 ** 9,
                          "sweep.max_bits": batches * _SMALL_BATCH_BITS})
    lines = []
    point = link.ber_sweep(cfg, dnn.load_model(MODEL_PATH),
                           log=lines.append)["dnn"].points[0]
    assert point.bits == batches * _SMALL_BATCH_BITS
    assert [args[0].shape[0] for args in calls] == [link.DECODE_ROWS]
    assert "decodes=1 discarded=0 " in lines[0]


def test_point_stopped_by_its_first_batch_simulates_one_batch(monkeypatch):
    batches = []
    _counting(monkeypatch, "simulate_batch", batches)
    cfg = small_config(**{"noise.epsilon": 0.05, "grid.ebn0_db": "4",
                          "sweep.policies": "bln", "sweep.min_errors": 50,
                          "sweep.max_bits": 10 ** 6})
    point = link.ber_sweep(cfg)["bln"].points[0]
    assert point.errors >= 50 and point.bits == _SMALL_BATCH_BITS
    assert len(batches) == 1


def test_later_chunks_follow_the_observed_error_rate(monkeypatch):
    # About 380 errors a batch: the first batch alone, then the two that
    # 1000 errors need at that rate, with none discarded.
    calls = []
    _counting(monkeypatch, "viterbi_decode_soft", calls)
    cfg = small_config(**{"noise.epsilon": 0.05, "grid.ebn0_db": "6",
                          "sweep.policies": "bln", "sweep.min_errors": 1000,
                          "sweep.max_bits": 10 ** 6})
    lines = []
    point = link.ber_sweep(cfg, log=lines.append)["bln"].points[0]
    assert [args[0].shape[0] for args in calls] == [32, 64]
    assert point.bits == 3 * _SMALL_BATCH_BITS and point.errors >= 1000
    assert "decodes=2 discarded=0 " in lines[0]


def _sweep_on(monkeypatch, cpus, cfg, params=None):
    """Sweep with ``cpus`` usable CPUs; returns the curves as tuples, the
    log lines, and (workers, start method) of every pool the sweep made."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
    pools = []
    real_pool = workers.Pool

    def pool(n_workers, job, state=()):
        made = real_pool(n_workers, job, state)
        pools.append((len(made.processes), made.processes[0]._start_method))
        return made
    monkeypatch.setattr(workers, "Pool", pool)
    lines = []
    curves = link.ber_sweep(cfg, params, log=lines.append)
    assert multiprocessing.active_children() == []
    return ({name: [(p.ebn0_db, p.bits, p.errors, p.ber) for p in c.points]
             for name, c in curves.items()},
            lines, pools)


@pytest.mark.parametrize("chain, case, forks", [
    # Six batches of four policies: one batch a chunk, one chunk per CPU.
    ({}, {"grid.ebn0_db": "10", "sweep.policies": "none,dnn,bln,clp",
          "sweep.min_errors": 10 ** 9,
          "sweep.max_bits": 5 * _SMALL_BATCH_BITS + 1}, True),
    # Six batches of one policy: 3+3 on two CPUs, 2+2+2 on three.
    (_TIME_INTERLEAVED, {"grid.ebn0_db": "10", "sweep.policies": "bln",
                         "sweep.min_errors": 10 ** 9,
                         "sweep.max_bits": 5 * _SMALL_BATCH_BITS + 1}, True),
    # min_errors is reached inside a chunk.
    ({}, {"grid.ebn0_db": "14", "sweep.policies": "bln", "seed": 2,
          "sweep.min_errors": 30, "sweep.max_bits": 200_000}, True),
    # The same, then a second point on the workers still running the
    # first point's discarded chunks.
    ({}, {"grid.ebn0_db": "14,14", "sweep.policies": "bln", "seed": 2,
          "sweep.min_errors": 30, "sweep.max_bits": 200_000}, True),
    ({}, {"grid.ebn0_db": "4,8,12", "sweep.policies": "none,bln",
          "sweep.min_errors": 300, "sweep.max_bits": 60_000}, True),
    # Stopped by its first batch: nothing to run beside it, nothing forked.
    ({}, {"grid.ebn0_db": "4", "sweep.policies": "bln",
          "sweep.min_errors": 50, "sweep.max_bits": 10 ** 6}, False),
], ids=["budget-4pol", "budget-ti", "mid_chunk", "mid_chunk_then_point",
        "grid", "first_batch"])
def test_sweep_does_not_depend_on_the_cpu_count(monkeypatch, chain, case,
                                                 forks):
    cfg = small_config(**chain, **{"noise.epsilon": 0.05, **case})
    params = dnn.load_model(MODEL_PATH)
    one, one_lines, one_forks = _sweep_on(monkeypatch, 1, cfg, params)
    assert one_forks == []
    for cpus in (2, 3):
        curves, lines, pools = _sweep_on(monkeypatch, cpus, cfg, params)
        assert curves == one, cpus
        # Bits, BERs and rate tokens; decodes and discards may differ.
        assert [line.split()[2:3] + line.split()[5:] for line in lines] == \
            [line.split()[2:3] + line.split()[5:] for line in one_lines], cpus
        assert pools == ([(cpus, "fork")] if forks else []), cpus


@pytest.mark.parametrize("cpus, decodes, pools", [
    (1, 1, []), (2, 2, [(2, "fork")]), (3, 3, [(3, "fork")]),
    (8, 4, [(4, "fork")]),
])
def test_fixed_budget_splits_evenly_over_the_cpus(monkeypatch, cpus, decodes,
                                                   pools):
    # Four batches of one policy: 4 on one CPU, 2+2 on two, 2+1+1 on three,
    # and four workers of one batch each on eight.
    cfg = small_config(**{"noise.epsilon": 0.05, "grid.ebn0_db": "10",
                          "sweep.policies": "bln", "sweep.min_errors": 10 ** 9,
                          "sweep.max_bits": 4 * _SMALL_BATCH_BITS})
    _, lines, made = _sweep_on(monkeypatch, cpus, cfg)
    assert f"decodes={decodes} discarded=0 " in lines[0]
    assert made == pools


class WorkerFailure(Exception):
    """Raised on purpose inside a sweep worker."""


@pytest.mark.parametrize("cpus", [1, 2])
def test_worker_exception_reaches_the_caller(monkeypatch, cpus):
    # One policy and four batches: on two CPUs, batches 2-3 are the second
    # worker's chunk.
    def failing(cfg, ebn0, point_idx, batch_idx, names, settings, llrs,
                counts):
        raise WorkerFailure(f"batch {batch_idx}")
    real_sweep_batch = link._sweep_batch
    monkeypatch.setattr(link, "_sweep_batch", lambda *args: (
        failing if args[3] == 2 else real_sweep_batch)(*args))
    monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
    cfg = small_config(**{"grid.ebn0_db": "10", "sweep.policies": "bln",
                          "sweep.min_errors": 10 ** 9,
                          "sweep.max_bits": 4 * _SMALL_BATCH_BITS})
    with pytest.raises(WorkerFailure, match="batch 2"):
        link.ber_sweep(cfg)
    assert multiprocessing.active_children() == []


def _within(seconds, call):
    """``call()``, failed with ``TimeoutError`` if it runs over ``seconds``
    (a hang)."""
    def expired(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("caller", ["ber_sweep", "ordered_map"])
def test_worker_that_dies_names_its_exit_code(monkeypatch, caller):
    # On two CPUs the job that exits runs in the second worker.
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    if caller == "ber_sweep":
        real_sweep_batch = link._sweep_batch
        monkeypatch.setattr(link, "_sweep_batch", lambda *args: (
            os._exit(3) if args[3] == 2 else real_sweep_batch(*args)))
        cfg = small_config(**{"grid.ebn0_db": "10", "sweep.policies": "bln",
                              "sweep.min_errors": 10 ** 9,
                              "sweep.max_bits": 4 * _SMALL_BATCH_BITS})
        call = lambda: link.ber_sweep(cfg)
    else:
        call = lambda: list(workers.ordered_map(
            lambda state, i: os._exit(3) if i == 1 else i, [(0,), (1,), (2,)]))
    with pytest.raises(RuntimeError, match="exited with code 3 "):
        _within(60, call)
    assert multiprocessing.active_children() == []


def test_pool_sends_work_to_a_worker_once_its_skipped_job_is_done():
    # A skipped job's reply, once it has arrived, is not work still
    # running; counted as such, every later job would go to the first
    # worker, and a sweep that discarded a chunk would run on one CPU.
    with closing(workers.Pool(2, lambda state, i: os.getpid())) as pool:
        first, _skipped = pool.submit(0), pool.submit(1)
        pool.result(first)
        # Two jobs at a time, until the skipped one has replied.
        deadline = time.monotonic() + 10
        while True:
            tickets = [pool.submit(i) for i in (2, 3)]
            pids = {pool.result(ticket) for ticket in tickets}
            if len(pids) == 2 or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert len(pids) == 2
    assert multiprocessing.active_children() == []


def test_discarded_chunks_leave_stderr_empty(monkeypatch, capfd):
    # The mid_chunk case: min_errors is reached inside a chunk while the
    # other worker runs one that is discarded.
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    cfg = small_config(**{"noise.epsilon": 0.05, "grid.ebn0_db": "14",
                          "sweep.policies": "bln", "seed": 2,
                          "sweep.min_errors": 30, "sweep.max_bits": 200_000})
    lines = []
    _within(60, lambda: link.ber_sweep(cfg, log=lines.append))
    assert "discarded=0 " not in lines[0]
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""


_BLAS_THREADS = """
import ctypes, json
import numpy
from inofdm import workers
with open("/proc/self/maps") as fh:
    paths = {line.split(maxsplit=5)[-1].rstrip() for line in fh
             if "openblas" in line}
getters = [getattr(library, name) for library in map(ctypes.CDLL, paths)
           for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "scipy_openblas_get_num_threads64_")
           if hasattr(library, name)]
before = [get() for get in getters]
workers._init_worker()
print(json.dumps([before, [get() for get in getters]]))
"""


def test_worker_set_up_leaves_openblas_one_thread():
    # Run in a fresh interpreter allowed two BLAS threads, so that this
    # process keeps its own.
    if not (hasattr(os, "sched_getaffinity") and Path("/proc/self/maps").exists()):
        pytest.skip("no affinity mask or /proc here, so no sweep workers")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=str(Path(link.__file__).parents[1]))
    before, after = json.loads(subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS], env=env, capture_output=True,
        text=True, check=True).stdout)
    if max(before, default=1) < 2:
        pytest.skip("no OpenBLAS here that runs more than one thread")
    assert after == [1] * len(after)


_LAZY_MODULES = """
import json, sys
from contextlib import closing
from inofdm import workers
lazy = ("numpy.fft", "numpy.ma", "numpy.random")

def loaded(state):
    return [name for name in lazy if name in sys.modules]

before = loaded(())
with closing(workers.Pool(2, loaded)) as pool:
    print(json.dumps([before, pool.result(pool.submit())]))
"""


def test_pool_workers_start_with_numpy_lazy_modules_loaded():
    # A sweep's np.median loads numpy.ma, and set-up code no longer does:
    # a worker importing it anew took 12-17 ms of every sweep.
    env = dict(os.environ, PYTHONPATH=str(Path(link.__file__).parents[1]))
    before, in_worker = json.loads(subprocess.run(
        [sys.executable, "-c", _LAZY_MODULES], env=env, capture_output=True,
        text=True, check=True).stdout)
    assert before == []
    assert in_worker == ["numpy.fft", "numpy.ma", "numpy.random"]


_TRIMMED_FORK = """
import json
import numpy as np
import numpy.fft, numpy.ma, numpy.random    # as the pool does before it forks
from inofdm import workers

def anonymous_rss(*args):
    # The resident pages a fork copies into the child's resident set.
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh
                    if line.startswith("RssAnon:"))

# Freeing an 8 MB array (its own mapping) raises glibc's mmap and trim
# thresholds, so ten 1 MB arrays then come from the heap, and freeing them
# leaves 10 MB of free, resident heap.
np.ones(1 << 20)
arrays = [np.ones(1 << 17) for _ in range(10)]
del arrays
print(json.dumps([anonymous_rss(),
                  list(workers.ordered_map(anonymous_rss, [(0,), (1,)]))]))
"""


def test_pool_workers_fork_from_a_trimmed_heap():
    # A worker starts with every anonymous resident page of its parent,
    # free heap included: after a train in the same process, gen-dataset's
    # workers started with the 9.6 MB the train had freed.  (A child's
    # ru_maxrss is no measure of this: it counts the file pages the child
    # touches, not those the parent holds.)
    if workers._usable_cpus() < 2:
        pytest.skip("one CPU: ordered_map forks no worker")
    if not (Path("/proc/self/status").exists()
            and hasattr(ctypes.CDLL(None), "malloc_trim")):
        pytest.skip("no glibc malloc_trim or /proc here")
    env = dict(os.environ, PYTHONPATH=str(Path(link.__file__).parents[1]))
    parent, in_workers = json.loads(subprocess.run(
        [sys.executable, "-c", _TRIMMED_FORK], env=env, capture_output=True,
        text=True, check=True).stdout)
    assert max(in_workers) <= parent - 5 * 2**20


def test_sweep_applies_configured_p_fa():
    """bln/clp detect at the configured false-alarm rate, and clp clips at
    the per-block level of that rate."""
    params = dnn.load_model(MODEL_PATH)
    batch_bits = link.BATCH_SYMBOLS * link.bits_per_symbol(small_config())
    counts = {}
    for p_fa in (0.01, 0.2):
        cfg = small_config(**{
            "noise.epsilon": 0.05, "grid.ebn0_db": "10", "sweep.p_fa": p_fa,
            "sweep.policies": "bln,clp", "sweep.min_errors": 10 ** 9,
            "sweep.max_bits": batch_bits})
        curves = link.ber_sweep(cfg, params)
        rng = np.random.default_rng(np.random.SeedSequence(
            (cfg.seed, link._TAG_SWEEP, 0, 0)))
        batch = link.simulate_batch(cfg, 10.0, link.BATCH_SYMBOLS, rng)
        counts[p_fa] = {}
        for name in cfg.policies:
            decoded = link.receive_batch(cfg, batch,
                                         cleaned(cfg, batch, name, params))
            counts[p_fa][name] = int(np.sum(decoded != batch.tx_bits))
            assert curves[name].points[0].errors == counts[p_fa][name]
    for name in ("bln", "clp"):
        assert counts[0.01][name] != counts[0.2][name], name


@pytest.mark.parametrize("chain, expected", [
    ({}, {"none": 3773, "bln": 611, "clp": 1158, "dnn": 362}),
    ({"interleaver.time_enabled": True, "interleaver.time_rows": 8,
      "interleaver.time_cols": 18, "noise.burst_len": 4},
     {"none": 3020, "bln": 440, "clp": 1296, "dnn": 520}),
    ({"noise.model": "mca"},
     {"none": 3079, "bln": 591, "clp": 954, "dnn": 459}),
    # alpha = 1 takes the stable sampler's drift branch.  At 10 dB this
    # point is near 50% BER for every policy, so it is pinned at 20 dB.
    ({"noise.model": "sas", "noise.alpha": 1, "noise.beta": 0.5,
      "grid.ebn0_db": "20"},
     {"none": 3903, "bln": 323, "clp": 902, "dnn": 288}),
], ids=["plain", "time_interleaved", "class_a", "stable_alpha1"])
def test_all_policies_error_counts_pinned(chain, expected):
    # Regression pin for every policy the CLI builds, with the shipped
    # model, at one seeded grid point and a fixed 4-batch budget.  The
    # Class A and alpha = 1 stable draws appear in no other golden output.
    n_batches = 4
    batch_bits = link.BATCH_SYMBOLS * link.bits_per_symbol(small_config())
    cfg = small_config(**{
        "noise.epsilon": 0.05, "noise.sir_db": 0, "grid.ebn0_db": "10",
        "sweep.policies": "none,bln,clp,dnn",
        "sweep.min_errors": 10 ** 9, "sweep.max_bits": n_batches * batch_bits,
        "seed": 11, **chain})
    curves = link.ber_sweep(cfg, dnn.load_model(MODEL_PATH))
    points = {name: curve.points[0] for name, curve in curves.items()}
    assert {name: p.bits for name, p in points.items()} == dict.fromkeys(
        expected, n_batches * batch_bits)
    assert {name: p.errors for name, p in points.items()} == expected


def test_sweep_budget_stops_after_whole_batches():
    cfg = small_config(**{"grid.ebn0_db": "8", "sweep.policies": "none",
                          "sweep.min_errors": 1, "sweep.max_bits": 1})
    point = link.ber_sweep(cfg)["none"].points[0]
    assert point.bits == link.BATCH_SYMBOLS * link.bits_per_symbol(cfg)


def test_sweep_estimate_stable_under_budget_doubling():
    # Doubling the bit budget only appends batches (seeded per batch index),
    # so the estimate moves by sampling noise.  Coded bit errors arrive in
    # per-symbol bursts, so the binomial unit is the symbol decode failure,
    # not the bit: bound the drift by 2/sqrt(failed symbols).
    base = {"noise.epsilon": 0.05, "grid.ebn0_db": "12",
            "sweep.policies": "bln", "sweep.min_errors": 10 ** 9}
    cfg = small_config(**base, **{"sweep.max_bits": 25_000})
    p1 = link.ber_sweep(cfg)["bln"].points[0]
    p2 = link.ber_sweep(small_config(**base, **{"sweep.max_bits": 50_000}))[
        "bln"].points[0]
    assert p2.bits > 1.8 * p1.bits

    rng = np.random.default_rng(123)
    failures = 0
    n_batches = p1.bits // (link.BATCH_SYMBOLS * link.bits_per_symbol(cfg))
    for _ in range(n_batches):
        batch = link.simulate_batch(cfg, 12.0, link.BATCH_SYMBOLS, rng)
        decoded = link.receive_batch(cfg, batch, cleaned(cfg, batch, "bln"))
        failures += int(np.sum(np.any(decoded != batch.tx_bits, axis=1)))
    assert failures > 0
    assert abs(p2.ber - p1.ber) / p1.ber < 2.0 / math.sqrt(failures)


def test_sweep_curve_monotone_within_two_standard_errors():
    cfg = small_config(**{"noise.epsilon": 0.05, "grid.ebn0_db": "4,8,12",
                          "sweep.policies": "bln",
                          "sweep.min_errors": 150, "sweep.max_bits": 60_000})
    points = link.ber_sweep(cfg)["bln"].points
    for lo, hi in zip(points, points[1:]):
        se = math.hypot(math.sqrt(max(lo.errors, 1)) / lo.bits,
                        math.sqrt(max(hi.errors, 1)) / hi.bits)
        assert hi.ber <= lo.ber + 2.0 * se


# ---------------------------------------------------------------------------
# curve files


def test_curve_csv_roundtrip_is_exact(tmp_path):
    curve = link.BerCurve(
        detector="bln",
        points=[link.BerPoint(10.0, 298 / 63936, 63936, 298),
                link.BerPoint(12.0, 5 / 404928, 404928, 5)],
        config_hash="abc123def456", seed=7)
    path = tmp_path / "curve_bln.csv"
    link.write_curve_csv(path, curve)
    back = link.read_curve_csv(path)
    assert back.detector == "bln"
    assert back.config_hash == "abc123def456"
    assert back.seed == 7
    for orig, loaded in zip(curve.points, back.points):
        assert loaded.ebn0_db == orig.ebn0_db
        assert loaded.ber == orig.ber  # 17 significant digits round-trip
        assert (loaded.bits, loaded.errors) == (orig.bits, orig.errors)


def test_curve_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("# seed=0\nsnr,policy,ber\n1,bln,0.1\n")
    with pytest.raises(ValueError):
        link.read_curve_csv(path)


_CURVE_HEAD = "# config_hash=abc\n# seed=0\nebn0_db,detector,ber,bits,errors\n"


def curve_error(path, text):
    """The message of the ValueError that reading ``text`` raises."""
    path.write_text(text)
    with pytest.raises(ValueError) as exc_info:
        link.read_curve_csv(path)
    return str(exc_info.value)


def test_malformed_curve_row_names_file_and_line(tmp_path):
    # The error read only "not enough values to unpack (expected 5, got 3)".
    path = tmp_path / "curve_bln.csv"
    assert curve_error(path, _CURVE_HEAD + "10,bln,0.1,100,10\n\n12,bln,0.01\n"
                       ).startswith(f"{path}, line 6: not enough values")
    assert curve_error(path, _CURVE_HEAD + "10,bln,x,100,10\n").startswith(
        f"{path}, line 4: could not convert")


def test_curve_rows_of_two_detectors_are_rejected(tmp_path):
    # The detector was taken from the last row only.
    path = tmp_path / "curve_bln.csv"
    assert curve_error(path, _CURVE_HEAD + "10,dnn,0.1,100,10\n"
                       "12,bln,0.01,100,1\n") == \
        f"{path}: rows name more than one detector: bln, dnn"


def test_curve_file_without_rows_is_rejected(tmp_path):
    # A header-only file gave a curve of detector "".
    path = tmp_path / "curve_bln.csv"
    assert curve_error(path, _CURVE_HEAD) == f"{path}: curve file has no rows"


def test_ber_at_unknown_point_raises():
    curve = link.BerCurve("bln", [link.BerPoint(10.0, 1e-3, 1000, 1)], "", 0)
    assert curve.ber_at(10.0) == 1e-3
    with pytest.raises(KeyError):
        curve.ber_at(11.0)


# ---------------------------------------------------------------------------
# detection and false-alarm rates in the sweep log


def rate_tokens(line):
    """The ``key=value`` tokens after a sweep log line's policy BERs."""
    tokens = dict(t.split("=") for t in line.split()[5:])
    return {k: v for k, v in tokens.items() if k in ("impulses", "clean")
            or k.endswith((".det", ".fa"))}


def test_sweep_rate_tokens_consistency():
    # Two full-size batches (666 information bits a symbol) at 10 dB.
    cfg = default_config(**{"grid.ebn0_db": "10", "sweep.policies": "bln",
                            "sweep.min_errors": 10 ** 9,
                            "sweep.max_bits": 2 * link.BATCH_SYMBOLS * 666})
    assert cfg.p_fa == 0.01
    lines = []
    link.ber_sweep(cfg, log=lines.append)
    tokens = rate_tokens(lines[0])
    assert int(tokens["impulses"]) + int(tokens["clean"]) == 64 * 1024
    # BG impulses at SIR 0 dB tower over the signal; most are caught, and the
    # robust per-block level keeps false alarms near the requested rate.
    assert 0.6 < float(tokens["bln.det"]) < 0.95
    assert 0.003 < float(tokens["bln.fa"]) < 0.02


@pytest.mark.parametrize("chain", [{}, _TIME_INTERLEAVED],
                         ids=["plain", "time_interleaved"])
def test_rate_tokens_equal_detect_masks_against_labels(monkeypatch, chain):
    # Oracle: the threshold and network detectors run on each counted
    # batch's samples, their masks scored against the batch's labels.  On
    # one CPU the 14 dB point stops inside a chunk, whose last batch is
    # discarded: its flags must not count.  The rates on more CPUs are
    # those on one (test_sweep_does_not_depend_on_the_cpu_count).
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
    params = dnn.load_model(MODEL_PATH)
    cfg = small_config(**chain, **{
        "noise.epsilon": 0.05, "grid.ebn0_db": "10,14",
        "sweep.policies": "none,bln,clp,dnn", "sweep.min_errors": 60,
        "sweep.max_bits": 200_000})
    settings = DetectorSettings(cfg.p_fa, params, cfg.half_width)
    lines = []
    curves = link.ber_sweep(cfg, params, log=lines.append)
    batches = set()
    for point_idx, (ebn0, line) in enumerate(zip(cfg.ebn0_db, lines)):
        n_batches = curves["none"].points[point_idx].bits // _SMALL_BATCH_BITS
        batches.add(n_batches)
        impulses = clean = 0
        hits = dict.fromkeys(("threshold", "dnn"), 0)
        false_alarms = dict.fromkeys(("threshold", "dnn"), 0)
        for batch_idx in range(n_batches):
            rng = np.random.default_rng(np.random.SeedSequence(
                (cfg.seed, link._TAG_SWEEP, point_idx, batch_idx)))
            batch = link.simulate_batch(cfg, ebn0, link.BATCH_SYMBOLS, rng)
            impulse = batch.labels == 1
            impulses += int(impulse.sum())
            clean += int((~impulse).sum())
            for kind in hits:
                mask = detect(batch.rx, kind, settings,
                              estimate_clean_power(batch.rx)) == 1
                hits[kind] += int((mask & impulse).sum())
                false_alarms[kind] += int((mask & ~impulse).sum())
        tokens = rate_tokens(line)
        assert (int(tokens["impulses"]), int(tokens["clean"])) == \
            (impulses, clean)
        assert impulses + clean == n_batches * link.BATCH_SYMBOLS * (
            cfg.ofdm.symbol_len if chain else cfg.ofdm.n_fft)
        assert "none.det" not in tokens and "none.fa" not in tokens
        for name, kind in (("bln", "threshold"), ("clp", "threshold"),
                           ("dnn", "dnn")):
            # Six significant digits pin each count exactly.
            assert round(float(tokens[f"{name}.det"]) * impulses) == \
                hits[kind], name
            assert round(float(tokens[f"{name}.fa"]) * clean) == \
                false_alarms[kind], name
        assert hits["threshold"] != hits["dnn"]   # a mask mix-up would show
    assert len(batches) > 1
    assert "discarded=1 " in lines[1]


def test_stable_noise_sweep_prints_no_rate_tokens():
    # Stable noise has no impulse labels to score the masks against.
    cfg = small_config(**{"noise.model": "sas", "grid.ebn0_db": "10",
                          "sweep.policies": "none,bln,clp",
                          "sweep.max_bits": 1})
    lines = []
    link.ber_sweep(cfg, log=lines.append)
    fields = lines[0].split()
    assert [f.split("=")[0] for f in fields[5:]] == ["none", "bln", "clp"]
