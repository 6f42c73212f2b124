"""Tests of the benchmark itself, on the smoke corpora.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run as bench  # noqa: E402


def _declared(key: str) -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_a_correct_result(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    names = _declared("end_to_end" if trace == "0" else "per_layer")
    assert list(result["metrics"]) == names
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_expected_verdict_is_counted(monkeypatch):
    """Instance 0 claims the opposite satisfiability: its minrank verdict
    must count as a failed operation."""
    real = corpus.Workload.instance

    def flipped(self, seed, index, smoke=False):
        inst = real(self, seed, index, smoke)
        return dataclasses.replace(inst, sat=not inst.sat) if index == 0 else inst

    monkeypatch.setattr(corpus.Workload, "instance", flipped)
    record = bench.run(corpus.WORKLOADS["minrank_gf2"], seed=1, seconds=0.2, trace=False, smoke=True)
    assert record["failed"] >= 1
    assert record["metrics"]["failed_frac"]["value"] == record["failed"] / record["attempted"] > 0
    assert any("minrank" in message for message in record["errors"])


def test_changed_output_bytes_are_counted():
    """An output that differs from the recorded default-seed digest fails."""
    work = corpus.WORKLOADS["minrank_gf2"]
    cli = bench.load_cli()
    with bench.workdir() as path:
        out = bench.run_instance(bench.Runner(cli, path), work, work.instance(0, 0, smoke=True), "x")
    assert out.failed == 0
    digests = dict(out.digests, minrank="0" * 64)
    out.compare(digests, "a tampered digest")
    assert out.failed == 1 and list(out.errors) == ["minrank"]


def test_recorded_digests_cover_every_workload():
    recorded = json.loads(bench.DIGESTS.read_text())
    assert set(recorded) == set(corpus.WORKLOADS)
    for name, sizes in recorded.items():
        assert [len(sizes[s]) for s in ("smoke", "timed")] == [4, 4], name


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "minrank_gf2", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_closed_form_sizes_match_known_instances():
    # the README's examples: pair.cnf (n=3, m=2, d=8) and and.qe (n=2, m=1, k=2)
    assert corpus.superposition_sizes(3, 2, 8) == {"coord_count": 15, "matrix_side": 15, "rows": 80}
    assert corpus.direct_sizes(2, 1, 2) == {"coord_count": 4, "matrix_side": 4, "rows": 4}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_small_field_is_a_field(q):
    f = corpus.SmallField(q)
    for a in range(1, q):
        assert f.mul(a, f.inv_table[a]) == 1
        for b in range(q):
            for c in range(q):
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_corpus_is_seeded_and_labels_hold():
    for work in corpus.WORKLOADS.values():
        for index in range(len(work.classes)):
            a = work.instance(5, index)
            assert a == work.instance(5, index)
            if a.kind == "quad":
                found = corpus.solutions(corpus.SmallField(a.q), a.equations, a.n)
                assert bool(found) == a.sat
            else:
                assert corpus.cnf_satisfied(a.clauses, a.point)
    assert corpus.WORKLOADS["minrank_gf2"].instance(5, 0) != corpus.WORKLOADS["minrank_gf2"].instance(6, 0)
