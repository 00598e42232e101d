"""The benchmark's traced run wraps package functions by name.

`benchmarks/tracing.py` lists them in its `WRAPPED` table as (module,
function, span name) triples.  It is read here with `ast`, without importing
the benchmark, so a rename or removal in the package fails tier-1 instead of
breaking `benchmarks/run.py --trace 1`.
"""
import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _wrapped_table():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/tracing.py defines no WRAPPED table")


def test_every_traced_function_is_a_callable_of_its_module():
    table = _wrapped_table()
    assert table
    for module, function, _ in table:
        mod = importlib.import_module(f"equifred.{module}")
        assert callable(getattr(mod, function, None)), f"equifred.{module}.{function}"
