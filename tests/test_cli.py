"""Command-line interface tests: every subcommand end to end on a
scaled-down link, byte-identical reruns under a fixed seed, and config
diagnostics that name the offending key."""

import multiprocessing
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from inofdm import cli, dnn, link, workers
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
    lines = Path(loss_csv).read_text().splitlines()
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


def test_recipe_does_not_depend_on_the_cpu_count(cfg_file, tmp_path,
                                                  monkeypatch):
    # 72 symbols of 128 samples: 9,216 rows, three dataset blocks, so every
    # stage of the recipe forks with two or three CPUs.
    outputs, pools = {}, []
    real_pool = workers.Pool
    monkeypatch.setattr(workers, "Pool", lambda n, job, state=(): (
        pools.append(n), real_pool(n, job, state))[1])
    for cpus in (1, 2, 3):
        monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
        pools.clear()
        out = tmp_path / f"cpus{cpus}"
        out.mkdir()
        assert run_cli("gen-dataset", "--config", cfg_file, "--set",
                       "train.symbols=72", "--out", out / "data.csv") == 0
        assert run_cli("train", "--config", cfg_file, "--set",
                       "train.epochs=2", "--data", out / "data.csv",
                       "--out", out / "model.txt") == 0
        assert multiprocessing.active_children() == []
        # Simulation, writer and reader, each on every CPU.
        assert pools == ([] if cpus == 1 else [cpus] * 3), cpus
        outputs[cpus] = [(out / name).read_bytes() for name in
                         ("data.csv", "model.txt", "model.txt.loss.csv")]
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]


@pytest.mark.parametrize("label", ["2", "-1", "0.5"])
def test_train_rejects_labels_other_than_0_and_1(tmp_path, capsys, label):
    # The reader turned -1 into 255 and 0.5 into 0, and train wrote a model.
    data = tmp_path / "data.csv"
    rows = "".join(f"0.{i},1.{i},2.{i},{i % 2}\n" for i in range(600))
    data.write_text("x1,x2,x3,label\n" + rows + f"9,9,9,{label}\n")
    rc = run_cli("train", "--set", "train.epochs=1", "--data", data,
                 "--out", tmp_path / "model.txt")
    assert rc == 2
    assert "line 602: label" in capsys.readouterr().err
    assert not (tmp_path / "model.txt").exists()


@pytest.mark.parametrize("command, args, missing", [
    ("gen-dataset", ["--out", "nodir/data.csv"], "nodir/data.csv"),
    ("train", ["--data", "data.csv", "--out", "nodir/model.txt"],
     "nodir/model.txt"),
    ("train", ["--data", "data.csv", "--out", "model.txt", "--loss-out",
               "nodir/loss.csv"], "nodir/loss.csv"),
])
def test_missing_output_directory_exits_2_before_any_work(
        cfg_file, tmp_path, monkeypatch, capsys, command, args, missing):
    # train found it only after every epoch, gen-dataset after simulating.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("x1,x2,x3,label\n1,2,3,0\n")

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output check")
    for module, name in ((link, "generate_dataset"), (dnn, "train"),
                         (cli, "read_dataset")):
        monkeypatch.setattr(module, name, no_work)
    rc = run_cli(command, "--config", cfg_file, *args)
    assert rc == 2
    assert missing in capsys.readouterr().err
    assert not (tmp_path / "nodir").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "small.cfg"]


@pytest.mark.parametrize("args, message", [
    (["--out", "model.txt", "--loss-out", "model.txt"],
     "'model.txt' is the same file as the output 'model.txt'"),
    (["--out", "./model.txt", "--loss-out", "sub/../model.txt"],
     "'sub/../model.txt' is the same file as the output './model.txt'"),
    (["--out", "data.csv"], "'data.csv' is the same file as the input"),
    (["--out", "link.csv"], "'link.csv' is the same file as the input"),
    (["--out", "model.txt", "--loss-out", "data.csv"],
     "'data.csv' is the same file as the input"),
    (["--out", "model.txt", "--loss-out", "sub"], "'sub' is a directory"),
    (["--out", "sub"], "'sub' is a directory"),
], ids=["loss-is-model", "loss-is-model-by-another-path", "model-is-data",
        "model-is-a-link-to-data", "loss-is-data", "loss-is-a-directory",
        "model-is-a-directory"])
def test_train_outputs_that_clash_exit_2_before_any_work(
        cfg_file, tmp_path, monkeypatch, capsys, args, message):
    # The loss trace overwrote the model, the model the dataset (both
    # exit 0), and a directory failed only after every epoch.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    dataset = "x1,x2,x3,label\n" + "".join(
        f"0.{i},1.{i},2.{i},{i % 2}\n" for i in range(64))
    (tmp_path / "data.csv").write_text(dataset)
    (tmp_path / "link.csv").symlink_to("data.csv")

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output check")
    for module, name in ((dnn, "train"), (cli, "read_dataset")):
        monkeypatch.setattr(module, name, no_work)
    rc = run_cli("train", "--config", cfg_file, "--data", "data.csv", *args)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert (tmp_path / "data.csv").read_text() == dataset
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "data.csv", "link.csv", "small.cfg", "sub"]
    assert list((tmp_path / "sub").iterdir()) == []


def test_gen_dataset_into_a_directory_exits_2_before_any_work(
        cfg_file, tmp_path, monkeypatch, capsys):
    # It simulated the whole dataset, then failed to open the directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output check")
    monkeypatch.setattr(link, "generate_dataset", no_work)
    rc = run_cli("gen-dataset", "--config", cfg_file, "--out", "sub")
    assert rc == 2
    assert "'sub' is a directory" in capsys.readouterr().err
    assert list((tmp_path / "sub").iterdir()) == []


@pytest.mark.parametrize("out", ["data.csv", "data.csv/curves"])
def test_sweep_output_at_or_below_a_file_exits_2_before_any_work(
        cfg_file, tmp_path, monkeypatch, capsys, out):
    # The sweep ran every grid point, then failed with "File exists".
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("x1,x2,x3,label\n1,2,3,0\n")

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output check")
    monkeypatch.setattr(link, "ber_sweep", no_work)
    rc = run_cli("ber-sweep", "--config", cfg_file, "--set",
                 "sweep.policies=bln", "--out", out)
    assert rc == 2
    assert repr(out) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "small.cfg"]
    assert (tmp_path / "data.csv").is_file()


def test_plot_data_missing_output_directory_exits_2_before_reading(
        tmp_path, monkeypatch, capsys):
    # plot-data read every curve, then failed with a bare "[Errno 2]".
    monkeypatch.chdir(tmp_path)
    (tmp_path / "curves").mkdir()
    (tmp_path / "curves" / "curve_none.csv").write_text("")

    def no_work(*args, **kwargs):
        raise AssertionError("curves read before the output check")
    monkeypatch.setattr(link, "read_curve_csv", no_work)
    rc = run_cli("plot-data", "--curves", "curves", "--out", "nodir/table.csv")
    assert rc == 2
    assert ("output directory 'nodir' of 'nodir/table.csv' does not exist"
            in capsys.readouterr().err)
    assert not (tmp_path / "nodir").exists()


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


def test_ber_sweep_log_lines_are_deterministic(cfg_file, tmp_path, capsys):
    logs = []
    for out in ("c1", "c2"):
        run_cli("ber-sweep", "--config", cfg_file, "--out", tmp_path / out)
        logs.append(capsys.readouterr().err)
    assert logs[0] == logs[1] and "bln.det=" in logs[0]


def test_ber_sweep_log_prints_rate_tokens(cfg_file, tmp_path, capsys):
    rc = run_cli("ber-sweep", "--config", cfg_file, "--set", "noise.epsilon=0.1",
                 "--out", tmp_path / "c")
    assert rc == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2      # one per grid point
    for line in lines:
        keys = [field.split("=")[0] for field in line.split()[5:]]
        assert keys == ["none", "bln", "impulses", "clean", "bln.det", "bln.fa"]


def test_deleted_evaluate_subcommand_is_rejected(cfg_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("evaluate", "--config", cfg_file)
    assert exit_info.value.code == 2
    assert "invalid choice: 'evaluate'" in capsys.readouterr().err


def test_ber_sweep_network_policy_needs_model(cfg_file, tmp_path, capsys):
    rc = run_cli("ber-sweep", "--config", cfg_file,
                 "--set", "sweep.policies=dnn", "--out", tmp_path / "c")
    assert rc == 2
    assert "model" in capsys.readouterr().err


def test_ber_sweep_without_model_names_flag_and_key(cfg_file, tmp_path,
                                                   capsys):
    out = tmp_path / "c"
    rc = run_cli("ber-sweep", "--config", cfg_file,
                 "--set", "sweep.policies=dnn,bln", "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert "--model" in err and "model.path" in err
    assert not list(out.glob("curve_*.csv"))


def test_ber_sweep_with_trained_model(trained_model, cfg_file, tmp_path):
    out = tmp_path / "curves"
    rc = run_cli("ber-sweep", "--config", cfg_file, "--model", trained_model,
                 "--set", "sweep.policies=dnn,bln",
                 "--set", "sweep.max_bits=3000", "--out", out)
    assert rc == 0
    assert (out / "curve_dnn.csv").exists()


def test_ber_sweep_network_policy_prints_rate_tokens(trained_model, cfg_file,
                                                     tmp_path, capsys):
    rc = run_cli("ber-sweep", "--config", cfg_file, "--model", trained_model,
                 "--set", "noise.epsilon=0.1", "--set", "sweep.policies=dnn",
                 "--set", "sweep.max_bits=3000", "--out", tmp_path / "c")
    assert rc == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2      # one per grid point
    for line in lines:
        keys = [field.split("=")[0] for field in line.split()[5:]]
        assert keys == ["dnn", "impulses", "clean", "dnn.det", "dnn.fa"]


def test_channel_that_never_fits_the_prefix_names_its_keys(cfg_file, tmp_path,
                                                           capsys):
    # Arrivals 100 samples apart never fit a 16-sample prefix; this used to
    # end in an uncaught RuntimeError traceback.
    rc = run_cli("ber-sweep", "--config", cfg_file,
                 "--set", "channel.mean_arrival=100", "--out", tmp_path / "c")
    assert rc == 2
    err = capsys.readouterr().err
    for key in ("channel.mean_arrival", "channel.n_taps", "ofdm.cp_len"):
        assert key in err
    assert "Traceback" not in err


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


def test_plot_data_onto_one_of_its_curves_exits_2_before_writing(
        cfg_file, tmp_path, capsys):
    # plot-data replaced the curve with the merged table and exited 0.
    curves = tmp_path / "curves"
    run_cli("ber-sweep", "--config", cfg_file, "--out", curves)
    before = (curves / "curve_bln.csv").read_bytes()
    capsys.readouterr()
    rc = run_cli("plot-data", "--curves", curves,
                 "--out", curves / "curve_bln.csv")
    assert rc == 2
    assert "same file as the input" in capsys.readouterr().err
    assert (curves / "curve_bln.csv").read_bytes() == before


def test_plot_data_rejects_two_curves_of_one_detector(tmp_path, capsys):
    # The header read ebn0_db,bln,bln and one file's 12 dB point was lost.
    curves = tmp_path / "curves"
    curves.mkdir()
    head = "# config_hash=aaa\n# seed=0\nebn0_db,detector,ber,bits,errors\n"
    (curves / "curve_a.csv").write_text(head + "10,bln,0.1,100,10\n")
    (curves / "curve_b.csv").write_text(head + "12,bln,0.01,100,1\n")
    out = tmp_path / "t.csv"
    assert run_cli("plot-data", "--curves", curves, "--out", out) == 2
    err = capsys.readouterr().err
    assert "curve_a.csv" in err and "curve_b.csv" in err and "'bln'" in err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["gen-dataset", "ber-sweep"])
def test_config_key_set_twice_names_key_and_both_lines(tmp_path, capsys,
                                                      command):
    # The second value used to win without a word.
    bad = tmp_path / "twice.cfg"
    bad.write_text("noise.epsilon = 0.05\n# impulse rate\nnoise.epsilon = 0.5\n")
    rc = run_cli(command, "--config", bad, "--out", tmp_path / "o")
    assert rc == 2
    err = capsys.readouterr().err
    assert "'noise.epsilon'" in err and ":3" in err and "line 1" in err
    assert not (tmp_path / "o").exists()


def test_repeated_override_keeps_its_last_value(cfg_file):
    args = cli.build_parser().parse_args(
        ["ber-sweep", "--config", str(cfg_file), "--out", "unused",
         "--set", "noise.epsilon=0.5", "--set", "noise.epsilon=0.1"])
    assert cli._load(args).epsilon == 0.1


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


def test_deleted_dnn_clp_policy_is_rejected(cfg_file, tmp_path, capsys):
    rc = run_cli("ber-sweep", "--config", cfg_file,
                 "--set", "sweep.policies=dnn-clp", "--out", tmp_path / "c")
    assert rc == 2
    err = capsys.readouterr().err
    assert "sweep.policies" in err and "dnn-clp" in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("p_fa", ["0", "1", "-0.1", "1.5", "nan"])
def test_out_of_range_p_fa_names_key_at_load(cfg_file, tmp_path, capsys, p_fa):
    # Rejected when the config loads, whichever policies are configured:
    # none and dnn would otherwise run and ignore it.
    rc = run_cli("ber-sweep", "--config", cfg_file,
                 "--set", "sweep.policies=none,dnn",
                 "--set", f"sweep.p_fa={p_fa}", "--out", tmp_path / "c")
    assert rc == 2
    assert "sweep.p_fa" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


#: (key, value) rows, or (key, value, other overrides the check needs).
_OUT_OF_RANGE = [
    ("noise.epsilon", "1.5"),
    ("noise.epsilon", "-0.01"),
    ("train.epsilon", "0.05,1.01"),
    ("train.epsilon", "nan"),
    ("train.epochs", "0"),
    ("train.batch_size", "0"),
    ("detector.half_width", "0"),
    ("detector.half_width", "64"),  # window 129 > ofdm.n_fft = 128
    ("noise.burst_len", "0"),
    ("noise.burst_len", "-1"),
    ("interleaver.tx_rows", "0"),
    ("interleaver.tx_cols", "0"),
    ("interleaver.time_rows", "0"),
    ("interleaver.time_cols", "-2"),
    ("ofdm.pilot_spacing", "0"),    # used to die with ZeroDivisionError
    ("ofdm.pilot_spacing", "-4"),   # no pilots; the interleaver took the blame
    ("ofdm.pilot_spacing", "128"),  # one pilot; estimation needs two
    ("ofdm.n_null", "-2"),
    ("ofdm.n_null", "3"),
    ("ofdm.n_null", "90"),          # 6 data carriers cannot carry the tail
    ("channel.n_taps", "0"),
    ("channel.n_taps", "17"),       # delays 0..16 overrun the 16-sample prefix
    ("channel.mean_arrival", "0"),  # these failed in ChannelProfile,
    ("channel.decay", "-1"),        # naming no key
    ("channel.decay", "nan"),
    ("sweep.min_errors", "0"),      # these ran and wrote a one-batch point
    ("sweep.min_errors", "-1"),
    ("sweep.max_bits", "0"),
    ("sweep.max_bits", "-5"),
    ("noise.a", "0"),
    ("noise.a", "inf"),
    ("noise.gamma", "0"),           # used to die with ZeroDivisionError
    ("noise.j_trunc", "0"),
    ("noise.j_trunc", "2"),         # 2 terms hold 0.9988 of the mass at a = 0.05
    ("noise.j_trunc", "172"),       # 171! overflows a float
    ("noise.alpha", "2.5"),
    ("noise.beta", "2"),
    ("noise.scale", "0"),
    ("noise.burst_len", "4", {"noise.model": "mca"}),  # bursts are BG only
    # Non-finite floats: each used to load.
    ("grid.ebn0_db", "nan"),        # wrote curves at BER 0.501 without a word
    ("grid.ebn0_db", "0,-inf"),     # died with ZeroDivisionError
    ("grid.ebn0_db", "inf"),        # failed at run time naming no key
    ("channel.mean_arrival", "inf"),  # ran on a garbage channel
    ("noise.loc", "nan"),           # all-NaN noise, zeroed by mitigation
    ("noise.sir_db", "nan"),
    ("noise.sir_db", "inf"),
    ("train.eta", "nan"),           # these failed only as "training diverged"
    ("train.lam", "nan"),
    ("train.eta", "0"),             # these failed in TrainConfig, naming
    ("train.lam", "-1"),            # no key
    # dB keys: 10 ** (dB / 10) overflowed or reached 0.
    ("grid.ebn0_db", "4000"),       # ber-sweep died with OverflowError
    ("grid.ebn0_db", "-4000"),      # ber-sweep died with ZeroDivisionError
    ("noise.sir_db", "4000"),
    ("noise.sir_db", "-4000"),
    ("train.ebn0_db", "6,4000"),    # these failed the same way in gen-dataset
    ("train.sir_db", "-4000"),
]


@pytest.mark.parametrize("key, value, context",
                         [(*row, {})[:3] for row in _OUT_OF_RANGE],
                         ids=[f"{row[0]}-{row[1]}" for row in _OUT_OF_RANGE])
def test_out_of_range_value_names_key_at_load(cfg_file, tmp_path, capsys,
                                              key, value, context):
    # Each of these used to pass the load: some failed later with a message
    # that names no key, the others ran without a word.
    sets = [arg for k, v in {**context, key: value}.items()
            for arg in ("--set", f"{k}={v}")]
    rc = run_cli("gen-dataset", "--config", cfg_file, *sets,
                 "--out", tmp_path / "d.csv")
    assert rc == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_range_limits_are_inclusive(cfg_file):
    # The edges of every range load: epsilon 0 and 1, one epoch, batches of
    # one row, and the widest window that fits the 128-sample block.
    config_mod.load_config(cfg_file, {
        "noise.epsilon": "1", "train.epsilon": "0,1", "train.epochs": "1",
        "train.batch_size": "1", "detector.half_width": "63",
        "train.lam": "0", "train.eta": "5e-324"})
    config_mod.load_config(cfg_file, {"noise.epsilon": "0",
                                      "detector.half_width": "1"})
    # One carrier more than the 6 tail bits, and a channel that fills the
    # prefix.
    cfg = config_mod.load_config(cfg_file, {"ofdm.n_null": "88",
                                            "channel.n_taps": "16"})
    assert cfg.ofdm.n_data == 8
    # A one-bit budget, a one-error target, and the least positive spacing
    # and decay.
    cfg = config_mod.load_config(cfg_file, {
        "sweep.max_bits": "1", "sweep.min_errors": "1",
        "channel.mean_arrival": "5e-324", "channel.decay": "5e-324"})
    assert (cfg.max_bits, cfg.min_errors) == (1, 1)
    assert cfg.channel.mean_arrival == cfg.channel.decay == 5e-324
    # Pilots on carriers 0 and 127, the two that channel estimation needs.
    cfg = config_mod.load_config(cfg_file, {
        "ofdm.pilot_spacing": "127", "ofdm.n_null": "0",
        "interleaver.tx_enabled": "false"})
    assert cfg.ofdm.pilot_carriers.tolist() == [0, 127]
    # The noise edges: a one-term Class A series (at noise.a = 0.001 it
    # holds 0.9990 of the mass), the most terms a float allows, stable
    # alpha 2 and beta +-1, the least positive gamma and scale, and bursts
    # under BG noise.
    config_mod.load_config(cfg_file, {
        "noise.model": "mca", "noise.a": "0.001", "noise.j_trunc": "1",
        "noise.gamma": "5e-324", "noise.alpha": "2", "noise.beta": "-1",
        "noise.scale": "5e-324"})
    config_mod.load_config(cfg_file, {
        "noise.j_trunc": "171", "noise.beta": "1", "noise.burst_len": "4"})
    # The dB edges; the noiseless chain tests run at 300 dB.
    config_mod.load_config(cfg_file, {
        "grid.ebn0_db": "-300,300", "noise.sir_db": "-300",
        "train.ebn0_db": "-300,300", "train.sir_db": "-300,300"})


@pytest.mark.parametrize("command, sets", [
    ("ber-sweep", {"noise.epsilon": "1e-300", "noise.sir_db": "-300",
                   "sweep.max_bits": "1"}),
    ("gen-dataset", {"train.epsilon": "1e-300", "train.sir_db": "-300"}),
])
def test_infinite_impulse_power_exits_2(cfg_file, tmp_path, capsys, command,
                                        sets):
    # Each key is in range, but epsilon * SIR underflows to 0: this died
    # with ZeroDivisionError.
    args = [arg for k, v in sets.items() for arg in ("--set", f"{k}={v}")]
    rc = run_cli(command, "--config", cfg_file, *args,
                 "--out", tmp_path / "out")
    assert rc == 2
    assert "infinite impulse power" in capsys.readouterr().err


@pytest.mark.parametrize("command, args", [
    ("ber-sweep", ["--set", "sweep.max_bits=1", "--out", "curves"]),
])
@pytest.mark.parametrize("gamma", ["5e-324", "1e-310"])
def test_infinite_class_a_noise_power_exits_2(cfg_file, tmp_path, monkeypatch,
                                              capsys, command, args, gamma):
    # gamma passes its > 0 load check, but N0 (1 + gamma) / gamma overflows:
    # ber-sweep wrote BER 0.5 curves.
    monkeypatch.chdir(tmp_path)
    rc = run_cli(command, "--config", cfg_file, "--set", "noise.model=mca",
                 "--set", f"noise.gamma={gamma}", "--set", "grid.ebn0_db=10",
                 *args)
    assert rc == 2
    err = capsys.readouterr().err
    assert "noise.gamma" in err and "infinite Class A noise power" in err
    assert not (tmp_path / "curves").exists()


def test_burst_longer_than_a_noise_block(tmp_path, capsys):
    # A 32-symbol batch draws 34,816 noise samples at the default grid; a
    # longer burst died with a numpy broadcast error naming no key.
    out = tmp_path / "curves"
    rc = run_cli("ber-sweep", "--set", "noise.burst_len=40000",
                 "--set", "grid.ebn0_db=10", "--set", "sweep.policies=none",
                 "--set", "sweep.max_bits=1", "--out", out)
    assert rc == 0, capsys.readouterr().err
    assert read_curve_csv(out / "curve_none.csv").points[0].bits > 0


SHIPPED_MODEL = Path(__file__).resolve().parent.parent / "models" / "detector.txt"


@pytest.mark.parametrize("keep, missing", [
    (0, "inofdm-model 1"), (1, "seed"), (6, "'w1'"),
], ids=["empty", "first-line", "normalizer-only"])
@pytest.mark.parametrize("command, args", [
    ("ber-sweep", ["--set", "sweep.policies=dnn", "--out", "curves"]),
])
def test_truncated_model_file_exits_2(cfg_file, tmp_path, monkeypatch, capsys,
                                      command, args, keep, missing):
    # Each of these died with IndexError and a traceback.
    monkeypatch.chdir(tmp_path)
    model = tmp_path / "cut.txt"
    model.write_text("".join(
        SHIPPED_MODEL.read_text().splitlines(keepends=True)[:keep]))
    rc = run_cli(command, "--config", cfg_file, "--model", model, *args)
    assert rc == 2
    assert missing in capsys.readouterr().err


#: (line index, token index, value, block): norm_std's first value, w1's second.
_NON_FINITE = [(5, 0, "nan", "'norm_std'"), (7, 1, "inf", "'w1'")]


@pytest.mark.parametrize("line, token, value, block", _NON_FINITE,
                         ids=["nan-norm-std", "inf-w1"])
@pytest.mark.parametrize("command, args", [
    ("ber-sweep", ["--set", "sweep.policies=dnn", "--out", "curves"]),
])
def test_non_finite_model_file_exits_2(cfg_file, tmp_path, monkeypatch, capsys,
                                       command, args, line, token, value,
                                       block):
    # These ran: ber-sweep wrote dnn curves in which nothing was blanked.
    monkeypatch.chdir(tmp_path)
    lines = SHIPPED_MODEL.read_text().splitlines()
    tokens = lines[line].split()
    tokens[token] = value
    lines[line] = " ".join(tokens)
    model = tmp_path / "bad.txt"
    model.write_text("\n".join(lines) + "\n")
    rc = run_cli(command, "--config", cfg_file, "--model", model, *args)
    assert rc == 2
    assert f"block {block} holds a non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "curves").exists()


@pytest.mark.parametrize("value", ["0", "-64"])
def test_fft_size_below_one_names_its_key(cfg_file, value):
    # n_fft = 0 used to blame ofdm.pilot_spacing.  At 1 the key passes its
    # own check, and a later key (here the pilot spacing) is at fault.
    with pytest.raises(ValueError, match="config key 'ofdm.n_fft'"):
        config_mod.load_config(cfg_file, {"ofdm.n_fft": value})
    with pytest.raises(ValueError) as edge:
        config_mod.load_config(cfg_file, {"ofdm.n_fft": "1", "ofdm.cp_len": "0"})
    assert "'ofdm.n_fft'" not in str(edge.value)
    assert "config key 'ofdm.pilot_spacing'" in str(edge.value)


@pytest.mark.parametrize("overrides", [
    {"ofdm.cp_len": "-1"},                       # blamed channel.n_taps
    {"ofdm.cp_len": "128"},                      # a prefix as long as n_fft
    {"ofdm.n_fft": "64", "ofdm.cp_len": "80", "ofdm.n_null": "0",
     "detector.half_width": "5", "interleaver.tx_enabled": "false"},
])
def test_prefix_outside_fft_size_names_its_key(cfg_file, overrides):
    # The longer-than-n_fft prefix used to fail in OfdmConfig naming no key.
    # The edges load: a prefix one sample shorter than n_fft, and a zero
    # prefix, which fails only because no channel tap then fits in it.
    with pytest.raises(ValueError, match="config key 'ofdm.cp_len'"):
        config_mod.load_config(cfg_file, overrides)
    assert config_mod.load_config(cfg_file, {"ofdm.cp_len": "127"}).ofdm.cp_len == 127
    with pytest.raises(ValueError, match="config key 'channel.n_taps'"):
        config_mod.load_config(cfg_file, {"ofdm.cp_len": "0"})


def test_channel_longer_than_prefix_names_both_keys(tmp_path, capsys):
    # Delays rise strictly from 0, so 10 taps can never fit a 4-sample
    # prefix; this used to fail mid-run with 'no channel fit'.
    rc = run_cli("ber-sweep", "--set", "ofdm.n_fft=16", "--set", "ofdm.cp_len=4",
                 "--set", "ofdm.n_null=0", "--set", "detector.half_width=2",
                 "--set", "interleaver.tx_enabled=false",
                 "--set", "sweep.policies=none", "--out", tmp_path / "c")
    assert rc == 2
    err = capsys.readouterr().err
    assert "'channel.n_taps'" in err and "ofdm.cp_len" in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("which, overrides", [
    # 2 * 84 = 168 coded bits per symbol of the small link; 7x22 holds 154.
    ("tx", {"interleaver.tx_rows": "7"}),
    # 128 + 16 = 144 samples per symbol; 12x11 holds 132.
    ("time", {"interleaver.time_enabled": "true", "interleaver.time_rows": "12",
              "interleaver.time_cols": "11"}),
])
def test_interleaver_too_small_for_a_symbol_names_keys_at_load(
        cfg_file, tmp_path, capsys, which, overrides):
    # Before, the run failed mid-sweep with 'sequence of N exceeds RxC grid'.
    sets = [arg for key, value in overrides.items()
            for arg in ("--set", f"{key}={value}")]
    rc = run_cli("gen-dataset", "--config", cfg_file, *sets,
                 "--out", tmp_path / "d.csv")
    assert rc == 2
    err = capsys.readouterr().err
    assert f"'interleaver.{which}_rows'" in err
    assert f"'interleaver.{which}_cols'" in err
    assert not (tmp_path / "d.csv").exists()


def test_interleaver_that_exactly_holds_a_symbol_loads(cfg_file):
    cfg = config_mod.load_config(cfg_file, {
        "interleaver.tx_rows": "8", "interleaver.tx_cols": "21",
        "interleaver.time_enabled": "true", "interleaver.time_rows": "12",
        "interleaver.time_cols": "12", "noise.burst_len": "1"})
    assert cfg.tx_interleaver.capacity == 2 * cfg.ofdm.n_data
    assert cfg.time_interleaver.capacity == cfg.ofdm.symbol_len


def test_disabled_interleaver_grid_is_not_sized(cfg_file):
    cfg = config_mod.load_config(cfg_file, {"interleaver.tx_enabled": "false",
                                            "interleaver.tx_rows": "1"})
    assert cfg.tx_interleaver is None


@pytest.mark.parametrize("path, digest", [
    (None, "f071dcca593f"),
    ("configs/bg_sir0.cfg", "73473291a620"),
    ("configs/bursty_time_interleaved.cfg", "a6300efafba7"),
    ("configs/sas_mismatch.cfg", "272f090eae81"),
])
def test_shipped_config_hashes_are_pinned(path, digest):
    # Load-time checks must not change the hash of a valid configuration.
    root = Path(__file__).resolve().parent.parent
    assert config_mod.load_config(
        None if path is None else root / path).config_hash == digest


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
