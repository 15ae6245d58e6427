"""The study scripts under scripts/ run outside the CLI and its tests, so a
renamed or deleted package name would only show when someone runs one.
Each script must answer ``--help``, and every name it takes from the
``inofdm`` package, including each ``module.attribute`` it reads through an
imported module, must resolve.  The scan reads the scripts with ``ast``
without running them."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PACKAGE = "inofdm"


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
