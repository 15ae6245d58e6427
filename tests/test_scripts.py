"""The scripts under scripts/ sit outside the package, so a renamed or
deleted package name would only show when someone runs one.  Each script
must answer ``--help``, and every name it takes from the ``inofdm``
package, including each ``module.attribute`` it reads through an imported
module, must resolve; the scan reads the scripts with ``ast`` without
running them.  Each study script must run ``inofdm ber-sweep`` once per
swept value, on its config with only that value, the grid and the seed
set, and stop with the sweep's exit code 2 before any work on bad input."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from inofdm import link
from inofdm.config import load_config

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PACKAGE = "inofdm"
MODEL_PATH = ROOT / "models" / "detector.txt"

#: script -> (its config, swept flag, config key, output tag, two values).
STUDIES = {
    "run_impulsivity_comparison.py": ("bg_sir0.cfg", "--epsilon",
                                      "noise.epsilon", "eps", (0.02, 0.1)),
    "run_stable_mismatch.py": ("sas_mismatch.cfg", "--alpha", "noise.alpha",
                               "alpha", (1.5, 1.8)),
    "run_burst_lengths.py": ("bursty_time_interleaved.cfg", "--lengths",
                             "noise.burst_len", "num", (1, 3)),
}


def package_names(path):
    """(module, name) pairs the script uses: each name imported from the
    package, and each attribute read through an imported package module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}      # local alias -> dotted module name
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module or "").partition(".")[0] == PACKAGE:
            for alias in node.names:
                used.append((node.module, alias.name))
                qualified = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(qualified)
                except ImportError:
                    continue      # an attribute, not a module
                modules[alias.asname or alias.name] = qualified
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.append((modules[node.value.id], node.attr))
    return used


def test_every_script_is_scanned():
    assert len(SCRIPTS) >= 4
    assert all(package_names(path) for path in SCRIPTS)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_names_resolve(path):
    for module_name, name in package_names(path):
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"{path.name}: {module_name}.{name}"


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_zero(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(path), "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        f"script_{Path(name).stem}", ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def sweeps(monkeypatch):
    """Replace the sweep with a stub that records each config and returns
    one-point curves of every configured policy."""
    seen = []

    def fake_sweep(cfg, params=None, log=None):
        assert params is not None
        seen.append(cfg)
        point = link.BerPoint(cfg.ebn0_db[0], 0.25, 8, 2)
        return {name: link.BerCurve(name, [point], cfg.config_hash, cfg.seed)
                for name in cfg.policies}

    monkeypatch.setattr(link, "ber_sweep", fake_sweep)
    return seen


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_runs_one_ber_sweep_per_value(name, sweeps, tmp_path):
    config, flag, key, tag, values = STUDIES[name]
    grid, seed = "9,11", 5
    rc = load_script(name).run([
        "--model", str(MODEL_PATH), "--out", str(tmp_path / "out"),
        "--seed", str(seed), "--grid", grid, flag, *map(str, values)])
    assert rc == 0
    # The script's config with the swept key, the grid and the seed set.
    assert [cfg.config_hash for cfg in sweeps] == [
        load_config(ROOT / "configs" / config, {
            key: repr(value), "grid.ebn0_db": grid, "seed": str(seed),
        }).config_hash for value in values]
    for value, cfg in zip(values, sweeps):
        for policy in cfg.policies:
            curve = link.read_curve_csv(
                tmp_path / "out" / f"{tag}{value:g}" / f"curve_{policy}.csv")
            assert curve.config_hash == cfg.config_hash


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_out_under_a_file_exits_2_before_any_sweep(name, sweeps,
                                                         tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    _, flag, _, _, values = STUDIES[name]
    rc = load_script(name).run([
        "--model", str(MODEL_PATH), "--out", str(tmp_path / "afile" / "y"),
        flag, str(values[0])])
    assert rc == 2
    assert "is not a directory" in capsys.readouterr().err
    assert sweeps == []
