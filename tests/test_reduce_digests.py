"""reduce writes the instance bytes the benchmark recorded.

perfbench/digests.json holds the sha256 of each command's output on the
first default-seed instances of every workload, smoke and timed corpus.
This rebuilds those instances with perfbench/corpus.py (loaded read-only),
runs reduce on each through rankgap.cli.main and compares the instance
file's digest with the recorded "reduce" entry, so a row writer that
changes one byte fails here and not only in a benchmark run.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from rankgap.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", PERFBENCH / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


corpus = load_corpus()
RECORDED = json.loads((PERFBENCH / "digests.json").read_text())
CASES = [
    (name, size, index, digests["reduce"])
    for name, sizes in RECORDED.items()
    for size, entries in sizes.items()
    for index, digests in enumerate(entries)
]


@pytest.mark.parametrize("name, size, index, digest", CASES,
                         ids=[f"{name}-{size}-{index}" for name, size, index, _ in CASES])
def test_reduce_output_matches_the_recorded_digest(tmp_path, name, size, index, digest):
    work = corpus.WORKLOADS[name]
    inst = work.instance(corpus.DEFAULT_SEED, index, smoke=size == "smoke")
    src, out = tmp_path / "source", tmp_path / "instance.json"
    src.write_text(inst.text, encoding="utf-8")
    if work.kind == "cnf":
        argv = ["reduce", "--mode", "superposition", "--input", str(src), "--output", str(out)]
    else:
        argv = ["reduce", "--mode", "direct", "--input", str(src), "--k", str(work.k),
                "--output", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
