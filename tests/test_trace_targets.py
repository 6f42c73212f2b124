"""Every function and method the benchmark's tracer wraps must exist.

perfbench/spans.py names its targets as (layer, attribute path) pairs and
resolves them when a traced run starts; a rename in rankgap would make
`perfbench/run.py --trace 1` fail with a KeyError.  This loads the tracer
module read-only and resolves each name against the package.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize(
    "layer, path", [(layer, path) for layer, path, _ in spans.TARGETS],
    ids=[f"{layer}.{path}" for layer, path, _ in spans.TARGETS],
)
def test_trace_target_resolves(layer, path):
    holder, attr, raw = spans._resolve(layer, path)
    assert callable(raw) or isinstance(raw, (classmethod, staticmethod))


@pytest.mark.parametrize("path", spans.COUNTED)
def test_counted_field_operation_resolves(path):
    _, _, raw = spans._resolve("gfarith", path)
    assert callable(raw)

