"""The benchmark's timing wrappers still find every function they wrap."""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "sweepbench" / "child.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("sweepbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.WRAP_POINTS


@pytest.mark.parametrize("module, attr, span", _wrap_points())
def test_wrap_point_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
