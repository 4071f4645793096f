"""Every name the benchmark's tracer patches still exists in the program.

``perfbench/tracing.py`` wraps the functions listed in its ``TRACED`` table
by name.  This reads the table from the file's syntax tree, without
importing or running the tracer, so a refactor that renames or drops a
traced function fails here rather than in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

from clusterforge import protocol

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced() -> dict:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


TRACED_NAMES = [f"{layer}.{fn}" for layer, fns in _traced().items() for fn in fns]


@pytest.mark.parametrize("name", TRACED_NAMES)
def test_traced_name_resolves(name):
    layer, _, path = name.partition(".")
    owner = importlib.import_module(f"clusterforge.{layer}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_traced_oracle_keeps_its_cache():
    # the tracer counts cache hits through cache_info()
    assert "protocol.enumerate_success_sequences" in TRACED_NAMES
    assert callable(protocol.enumerate_success_sequences.cache_info)
