"""The bench tracer's hooks name functions the package still defines.

`bench/tracer.py` wraps each `module.function` in its TRACED table through a
bare getattr, so a function deleted or renamed in the package makes
`bench/run.py --trace 1` fail.  This reads the table from the tracer as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_hooks() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, fn) for module, functions in tracer.TRACED.items() for fn in functions]


@pytest.mark.parametrize("module, function", traced_hooks())
def test_traced_function_resolves(module, function):
    target = getattr(importlib.import_module(f"socialchoice.{module}"), function, None)
    assert callable(target), f"bench/tracer.py traces missing socialchoice.{module}.{function}"
