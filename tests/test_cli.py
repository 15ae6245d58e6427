"""Command-line interface tests: every subcommand end to end on a
scaled-down link, byte-identical reruns under a fixed seed, and config
diagnostics that name the offending key."""

import subprocess
import sys

import numpy as np
import pytest

from inofdm import config as config_mod
from inofdm.cli import main
from inofdm.dnn import load_model
from inofdm.features import read_dataset
from inofdm.link import read_curve_csv

CFG_TEXT = """\
# scaled-down link: same chain, 128 carriers, 3-tap channel
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


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(CFG_TEXT)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# gen-dataset


def test_gen_dataset_writes_labeled_rows(cfg_file, tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert run_cli("gen-dataset", "--config", cfg_file, "--out", out) == 0
    assert "wrote 2048 rows" in capsys.readouterr().out
    features, labels, meta = read_dataset(out)
    assert features.shape == (16 * 128, 3)
    assert set(np.unique(labels)) <= {0, 1}
    assert "config_hash" in meta and meta["seed"] == "0"


def test_gen_dataset_reruns_are_byte_identical(cfg_file, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("gen-dataset", "--config", cfg_file, "--seed", 3, "--out", a)
    run_cli("gen-dataset", "--config", cfg_file, "--seed", 3, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_is_shorthand_for_set_override(cfg_file, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("gen-dataset", "--config", cfg_file, "--seed", 5, "--out", a)
    run_cli("gen-dataset", "--config", cfg_file, "--set", "seed=5", "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seeds_change_the_dataset(cfg_file, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("gen-dataset", "--config", cfg_file, "--seed", 1, "--out", a)
    run_cli("gen-dataset", "--config", cfg_file, "--seed", 2, "--out", b)
    assert a.read_bytes() != b.read_bytes()


# ---------------------------------------------------------------------------
# train


@pytest.fixture
def trained_model(cfg_file, tmp_path):
    data = tmp_path / "data.csv"
    model = tmp_path / "model.txt"
    run_cli("gen-dataset", "--config", cfg_file, "--out", data)
    rc = run_cli("train", "--config", cfg_file, "--data", data, "--out", model)
    assert rc == 0
    return model


def test_train_writes_model_and_loss_trace(trained_model, tmp_path):
    params = load_model(trained_model)
    assert params.train_seed == 0
    loss_csv = (str(trained_model) + ".loss.csv")
    lines = open(loss_csv).read().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[2] == "epoch,loss"
    assert len(lines) == 3 + 3  # three epochs
    losses = [float(ln.split(",")[1]) for ln in lines[3:]]
    assert losses[-1] <= losses[0]


def test_train_reruns_are_byte_identical(cfg_file, tmp_path):
    data = tmp_path / "data.csv"
    run_cli("gen-dataset", "--config", cfg_file, "--out", data)
    m1 = tmp_path / "m1.txt"
    m2 = tmp_path / "m2.txt"
    run_cli("train", "--config", cfg_file, "--data", data, "--out", m1,
            "--loss-out", tmp_path / "l1.csv")
    run_cli("train", "--config", cfg_file, "--data", data, "--out", m2,
            "--loss-out", tmp_path / "l2.csv")
    assert m1.read_bytes() == m2.read_bytes()
    assert (tmp_path / "l1.csv").read_bytes() == (tmp_path / "l2.csv").read_bytes()


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_threshold_detector_prints_rates(cfg_file, capsys):
    rc = run_cli("evaluate", "--config", cfg_file, "--detector", "threshold",
                 "--epsilon", 0.1, "--ebn0", 10, "--symbols", 32)
    assert rc == 0
    out = capsys.readouterr().out
    for field in ("detection_rate=", "false_alarm_rate=",
                  "missed_detection_rate=", "impulse_samples="):
        assert field in out


def test_evaluate_network_detector(trained_model, cfg_file, capsys):
    rc = run_cli("evaluate", "--config", cfg_file, "--detector", "dnn",
                 "--model", trained_model, "--ebn0", 10, "--symbols", 16)
    assert rc == 0
    assert "detection_rate=" in capsys.readouterr().out


def test_evaluate_output_is_deterministic(cfg_file, capsys):
    args = ("evaluate", "--config", cfg_file, "--detector", "threshold",
            "--symbols", 16)
    run_cli(*args)
    first = capsys.readouterr().out
    run_cli(*args)
    assert capsys.readouterr().out == first


def test_evaluate_dnn_without_model_fails_with_diagnostic(cfg_file, capsys):
    rc = run_cli("evaluate", "--config", cfg_file, "--detector", "dnn",
                 "--symbols", 4)
    assert rc == 2
    assert "--model" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ber-sweep and plot-data


def test_ber_sweep_writes_one_csv_per_policy(cfg_file, tmp_path, capsys):
    out = tmp_path / "curves"
    assert run_cli("ber-sweep", "--config", cfg_file, "--out", out) == 0
    files = sorted(p.name for p in out.glob("curve_*.csv"))
    assert files == ["curve_bln.csv", "curve_none.csv"]
    curve = read_curve_csv(out / "curve_bln.csv")
    assert [p.ebn0_db for p in curve.points] == [6.0, 10.0]
    assert curve.seed == 0


def test_ber_sweep_reruns_are_byte_identical(cfg_file, tmp_path):
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    run_cli("ber-sweep", "--config", cfg_file, "--out", out1)
    run_cli("ber-sweep", "--config", cfg_file, "--out", out2)
    for name in ("curve_none.csv", "curve_bln.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_ber_sweep_network_policy_needs_model(cfg_file, tmp_path, capsys):
    rc = run_cli("ber-sweep", "--config", cfg_file,
                 "--set", "sweep.policies=dnn", "--out", tmp_path / "c")
    assert rc == 2
    assert "model" in capsys.readouterr().err


def test_ber_sweep_with_trained_model(trained_model, cfg_file, tmp_path):
    out = tmp_path / "curves"
    rc = run_cli("ber-sweep", "--config", cfg_file, "--model", trained_model,
                 "--set", "sweep.policies=dnn,bln",
                 "--set", "sweep.max_bits=3000", "--out", out)
    assert rc == 0
    assert (out / "curve_dnn.csv").exists()


def test_ber_sweep_perfect_csi_flag(cfg_file, tmp_path):
    out = tmp_path / "curves"
    rc = run_cli("ber-sweep", "--config", cfg_file, "--perfect-csi",
                 "--set", "sweep.max_bits=3000", "--out", out)
    assert rc == 0
    # the flag flows into the config hash stamped on the artifacts
    flagged = read_curve_csv(out / "curve_bln.csv").config_hash
    run_cli("ber-sweep", "--config", cfg_file,
            "--set", "sweep.max_bits=3000", "--out", tmp_path / "plain")
    plain = read_curve_csv(tmp_path / "plain" / "curve_bln.csv").config_hash
    assert flagged != plain


def test_plot_data_merges_curves(cfg_file, tmp_path, capsys):
    curves = tmp_path / "curves"
    run_cli("ber-sweep", "--config", cfg_file, "--out", curves)
    table = tmp_path / "merged.csv"
    assert run_cli("plot-data", "--curves", curves, "--out", table) == 0
    lines = table.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[2] == "ebn0_db,bln,none"
    assert len(lines) == 5  # meta x2, header, two grid rows

    again = tmp_path / "again.csv"
    run_cli("plot-data", "--curves", curves, "--out", again)
    assert table.read_bytes() == again.read_bytes()


def test_plot_data_rejects_mixed_configs(tmp_path, capsys):
    curves = tmp_path / "curves"
    curves.mkdir()
    body = "ebn0_db,detector,ber,bits,errors\n10,{d},0.1,100,10\n"
    (curves / "curve_a.csv").write_text("# config_hash=aaa\n# seed=0\n"
                                        + body.format(d="a"))
    (curves / "curve_b.csv").write_text("# config_hash=bbb\n# seed=0\n"
                                        + body.format(d="b"))
    assert run_cli("plot-data", "--curves", curves, "--out", tmp_path / "t.csv") == 2
    assert "different configs" in capsys.readouterr().err


def test_plot_data_empty_directory_fails(tmp_path, capsys):
    assert run_cli("plot-data", "--curves", tmp_path,
                   "--out", tmp_path / "t.csv") == 2
    assert "no curve" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config diagnostics


def test_unknown_config_key_names_key_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("ofdm.n_fft = 128\nnoise.epsilonn = 0.1\n")
    rc = run_cli("gen-dataset", "--config", bad, "--out", tmp_path / "d.csv")
    assert rc == 2
    err = capsys.readouterr().err
    assert "noise.epsilonn" in err and ":2" in err


def test_uncastable_value_names_key(cfg_file, tmp_path, capsys):
    rc = run_cli("gen-dataset", "--config", cfg_file,
                 "--set", "noise.epsilon=lots", "--out", tmp_path / "d.csv")
    assert rc == 2
    assert "noise.epsilon" in capsys.readouterr().err


def test_unknown_policy_named_in_diagnostic(cfg_file, tmp_path, capsys):
    rc = run_cli("ber-sweep", "--config", cfg_file,
                 "--set", "sweep.policies=bln,zap", "--out", tmp_path / "c")
    assert rc == 2
    assert "zap" in capsys.readouterr().err


@pytest.mark.parametrize("p_fa", ["0", "1", "-0.1", "1.5", "nan"])
def test_out_of_range_p_fa_names_key_at_load(cfg_file, tmp_path, capsys, p_fa):
    # Rejected when the config loads, whichever policies are configured:
    # none and dnn-clp would otherwise run and ignore it.
    rc = run_cli("ber-sweep", "--config", cfg_file,
                 "--set", "sweep.policies=none,dnn-clp",
                 "--set", f"sweep.p_fa={p_fa}", "--out", tmp_path / "c")
    assert rc == 2
    assert "sweep.p_fa" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("key, value", [
    ("noise.epsilon", "1.5"),
    ("noise.epsilon", "-0.01"),
    ("train.epsilon", "0.05,1.01"),
    ("train.epsilon", "nan"),
    ("train.epochs", "0"),
    ("train.batch_size", "0"),
    ("detector.half_width", "0"),
    ("detector.half_width", "64"),  # window 129 > ofdm.n_fft = 128
])
def test_out_of_range_value_names_key_at_load(cfg_file, tmp_path, capsys,
                                              key, value):
    # Each of these used to pass the load: some failed later with a message
    # that names no key, the others ran without a word.
    rc = run_cli("gen-dataset", "--config", cfg_file, "--set", f"{key}={value}",
                 "--out", tmp_path / "d.csv")
    assert rc == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_range_limits_are_inclusive(cfg_file):
    # The edges of every range load: epsilon 0 and 1, one epoch, batches of
    # one row, and the widest window that fits the 128-sample block.
    config_mod.load_config(cfg_file, {
        "noise.epsilon": "1", "train.epsilon": "0,1", "train.epochs": "1",
        "train.batch_size": "1", "detector.half_width": "63"})
    config_mod.load_config(cfg_file, {"noise.epsilon": "0",
                                      "detector.half_width": "1"})


def test_malformed_override_is_rejected(cfg_file, tmp_path, capsys):
    rc = run_cli("gen-dataset", "--config", cfg_file, "--set", "seed:5",
                 "--out", tmp_path / "d.csv")
    assert rc == 2
    assert "seed:5" in capsys.readouterr().err


def test_missing_config_file_fails_cleanly(tmp_path, capsys):
    rc = run_cli("gen-dataset", "--config", tmp_path / "nope.cfg",
                 "--out", tmp_path / "d.csv")
    assert rc == 2


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_runs_in_a_subprocess(cfg_file, tmp_path):
    out = tmp_path / "curves"
    proc = subprocess.run(
        [sys.executable, "-m", "inofdm", "ber-sweep", "--config", str(cfg_file),
         "--set", "sweep.max_bits=3000", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "curve_bln.csv").exists()
    assert "wrote 2 curve files" in proc.stdout
