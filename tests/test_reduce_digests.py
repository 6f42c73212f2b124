"""Every command writes the bytes the benchmark recorded.

perfbench/digests.json holds the sha256 of each command's output on the
first default-seed instances of every workload, smoke and timed corpus:
reduce's instance file, the verify, minrank and decode reports, and
minrank's refusal on stderr.  This loads perfbench/corpus.py and
perfbench/pipeline.py read-only, runs each instance's pipeline once
through rankgap.cli.main, as the benchmark does, and compares the whole
digest dict with the recorded one, so a change of one byte in any report
fails here and not only in a benchmark run.  The test keeps its first
name, from when it checked the reduce entry alone.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rankgap import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses, and pipeline's "from corpus import", look it up there
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


corpus = load("corpus")
pipeline = load("pipeline")
RECORDED = json.loads((PERFBENCH / "digests.json").read_text())
CASES = [
    (name, size, index, digests)
    for name, sizes in RECORDED.items()
    for size, entries in sizes.items()
    for index, digests in enumerate(entries)
]


@pytest.mark.parametrize("name, size, index, digests", CASES,
                         ids=[f"{name}-{size}-{index}" for name, size, index, _ in CASES])
def test_reduce_output_matches_the_recorded_digest(tmp_path, name, size, index, digests):
    work = corpus.WORKLOADS[name]
    inst = work.instance(corpus.DEFAULT_SEED, index, smoke=size == "smoke")
    out = pipeline.run_instance(pipeline.Runner(cli, tmp_path, repeats=1), work, inst, "t")
    assert out.errors == {}
    assert out.digests == digests
