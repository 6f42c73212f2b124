"""Every function and method the benchmark's tracer wraps must exist,
and a traced run must finish.

perfbench/spans.py names its targets as (layer, attribute path) pairs and
resolves them when a traced run starts; a rename in rankgap would make
`perfbench/run.py --trace 1` fail with a KeyError.  This loads the tracer
module read-only and resolves each name against the package, then runs
the tracer over both reductions in a child process.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankgap
from rankgap.boolalg import basis_make, basis_size
from rankgap.moment import localizing_row_count
from rankgap.superposition import MultiplicativityEquations, expected_equation_count

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



TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from rankgap.cli import main
from rankgap.subspace import SubspaceSpec

work = Path(sys.argv[2])
(work / "f.cnf").write_text("p cnf 2 1\\n1 2 0\\n")
(work / "f.qe").write_text("field: GF(2)\\nx1 + x2\\n")
tracer = spans.Tracer()
tracer.install()
tracer.begin(0)
try:
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            main(["reduce", "--mode", "superposition", "--input", str(work / "f.cnf"),
                  "--output", str(work / "cnf.json")]),
            main(["reduce", "--mode", "direct", "--input", str(work / "f.qe"),
                  "--output", str(work / "qe.json")]),
            main(["minrank", "--input", str(work / "qe.json")]),
        ]
        SubspaceSpec.from_text((work / "qe.json").read_text()).dense_rows()
finally:
    tracer.uninstall()
stats = tracer.requests[0]
print(json.dumps({"codes": codes, "calls": {name: stats.calls[name] for name in spans.PROBES},
                  "sizes": dict(stats.sizes)}))
"""


def test_traced_reduce_records_every_probe(tmp_path):
    """A traced run of both reductions (and of the one minrank and
    dense_rows call the remaining probes need) finishes, and every probe
    records its sizes.  A probe runs while the tracer holds its lock, so a
    probe that calls a traced function hangs the run: the child process
    is killed after 20 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(rankgap.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", TRACED_RUN, str(SPANS), str(tmp_path)],
                          capture_output=True, text=True, timeout=20, env=env)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0, 0]
    assert all(result["calls"].values()), result["calls"]
    assert result["sizes"] == {
        "constant_free_equations": expected_equation_count(2, 1, 8),
        "multiplicativity": len(MultiplicativityEquations(basis_make(2, 8, "U"))),
        "superposition_rows": expected_equation_count(2, 1, 8),
        "moment_rows": localizing_row_count(2, 1, 1),
        "dense_nonzeros": 2,
        "dense_entries": localizing_row_count(2, 1, 1) * basis_size(2, 2, "V"),
        # x1 + x2 = 0 is one row on four coordinates: 2^3 - 1 nonzero members
        "scan_members": 7,
        "kernel_dimension": 3,
    }
