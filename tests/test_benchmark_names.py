"""The benchmark's traced names resolve against the library, so a rename or
deletion of a traced function fails here rather than in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name", list(tracing.TRACED_FUNCTIONS))
def test_traced_function_resolves(name):
    owner, attr = tracing._resolve(name)
    assert callable(vars(owner)[attr])
