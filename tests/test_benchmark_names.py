"""The benchmark's tracer looks up every ``module.function`` it times by
attribute, so a renamed or deleted function breaks traced runs.  This reads
the list from perfbench/run.py without importing it and checks each name."""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def trace_targets():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACE_TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACE_TARGETS in {RUN_PY}")


def test_trace_targets_are_listed():
    assert len(trace_targets()) >= 30


@pytest.mark.parametrize("target", trace_targets())
def test_trace_target_resolves(target):
    module_name, func_name = target.rsplit(".", 1)
    module = importlib.import_module(f"inofdm.{module_name}")
    assert callable(getattr(module, func_name, None)), target
