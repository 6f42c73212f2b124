"""One instance's CLI pipeline, timed per command and checked.

Commands run in-process through rankgap.cli.main on real files in a work
directory.  Each command is one operation; it fails when its exit code is
unexpected, its verdict disagrees with the answer corpus.py computed, or
its output bytes differ from an earlier run of the same input.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from corpus import (
    Instance,
    SmallField,
    Workload,
    direct_sizes,
    evaluate,
    is_member,
    member_rank,
    superposition_sizes,
)

# commands faster than SHORT_S are repeated REPEATS times and timed by their median
SHORT_S = 0.05
REPEATS = 9
_REFUSAL = re.compile(r"kernel dimension (\d+) means (\d+) members, budget allows (\d+)")


@dataclass
class Outcome:
    """Timings, verdicts and output digests of one pipeline run."""

    instance: Instance
    seconds: dict = field(default_factory=dict)
    reference_s: float = 0.0
    digests: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    instance_bytes: int = 0
    report_bytes: int = 0
    scanned: int = 0
    refused: int = 0
    members: int = 0

    @property
    def pipeline_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.seconds if self.errors.get(op))

    def fail(self, op: str, message: str) -> None:
        self.errors.setdefault(op, []).append(message)

    def compare(self, expected: dict, what: str) -> None:
        """Record a failure for every output whose digest differs."""
        for op, digest in expected.items():
            if self.digests.get(op) != digest:
                self.fail(op, f"{op} output differs from {what}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Calls the CLI in-process with its output captured, one file set per
    tag.  main is looked up on the module at each call, so a tracer that
    rebinds it sees every command."""

    def __init__(self, cli_module, workdir: Path, repeats: int = REPEATS):
        self.cli = cli_module
        self.workdir = workdir
        self.repeats = repeats

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def call(self, out: Outcome, op: str, argv: list[str], expect_rc=(0,)):
        """Run one command and return (exit code, stdout, stderr).  A command
        faster than SHORT_S runs self.repeats times, is timed by its median,
        and must print and write the same bytes every time."""
        output = Path(argv[argv.index("--output") + 1])
        times, first = [], None
        while not times or (len(times) < self.repeats and times[0] < SHORT_S):
            output.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                rc = self.cli.main(argv)
                times.append(time.perf_counter() - start)
            result = (rc, stdout.getvalue(), stderr.getvalue(), output.read_bytes() if output.exists() else None)
            if first is None:
                first = result
            elif result != first and not out.errors.get(op):
                out.fail(op, f"{op} output differs between repetitions")
        out.seconds[op] = statistics.median(times)
        if first[0] not in expect_rc:
            out.fail(op, f"{op} exited {first[0]}: {first[2].strip()[:200]}")
        return first[:3]

    def report(self, out: Outcome, op: str, path: str) -> dict | None:
        """Digest and parse a JSON report the CLI wrote."""
        try:
            data = Path(path).read_bytes()
        except OSError:
            out.fail(op, f"{op} wrote no report")
            return None
        out.digests[op] = _sha(data)
        out.report_bytes += len(data)
        return json.loads(data)

    def instance_file(self, out: Outcome, path: str, stdout: str, sizes: dict, d: int) -> None:
        """Check a compiled instance against the closed-form sizes."""
        try:
            data = Path(path).read_bytes()
        except OSError:
            out.fail("reduce", "reduce wrote no instance file")
            return
        out.digests["reduce"] = _sha(data)
        out.instance_bytes = len(data)
        doc = json.loads(data)
        summary = f"coordinates: {sizes['coord_count']}\nconstraints: {sizes['rows']}\nd: {d}\n"
        if stdout != summary:
            out.fail("reduce", f"reduce summary {stdout!r}, expected {summary!r}")
        got = {"coord_count": doc["coord_count"], "matrix_side": doc["matrix_side"], "rows": len(doc["rows"])}
        if got != sizes or doc["d"] != d:
            out.fail("reduce", f"instance sizes {got} at d={doc['d']}, expected {sizes} at d={d}")


def run_cnf(runner: Runner, work: Workload, inst: Instance, tag: str, workers: int) -> Outcome:
    """reduce --mode superposition -> verify --assignment -> minrank --budget 1."""
    out = Outcome(inst)
    src, instance = runner.path(f"{tag}.cnf"), runner.path(f"{tag}.inst.json")
    Path(src).write_text(inst.text, encoding="utf-8")
    rc, stdout, _ = runner.call(out, "reduce", ["reduce", "--mode", "superposition", "--input", src, "--output", instance])
    if rc != 0:
        return out
    runner.instance_file(out, instance, stdout, superposition_sizes(inst.n, inst.m, work.degree), work.degree)

    report = runner.path(f"{tag}.verify.json")
    bits = ",".join(map(str, inst.point))
    rc, _, _ = runner.call(out, "verify", ["verify", "--input", instance, "--assignment", bits, "--output", report])
    doc = runner.report(out, "verify", report) if rc == 0 else None
    if doc is not None and (doc["ok"], doc["rank"], doc["zero"]) != (True, 1, False):
        out.fail("verify", f"planted point gave ok={doc['ok']} rank={doc['rank']}, expected a rank-1 member")

    # a satisfiable CNF has a nonzero member, so every kernel is larger
    # than a budget of one member and minrank must refuse after extracting it
    report = runner.path(f"{tag}.minrank.json")
    argv = ["minrank", "--input", instance, "--budget", str(work.budget), "--workers", str(workers), "--output", report]
    rc, _, stderr = runner.call(out, "minrank", argv, expect_rc=(3,))
    if rc == 3:
        out.refused += 1
        out.digests["minrank"] = _sha(stderr.encode())
        match = _REFUSAL.search(stderr)
        if not match or int(match[1]) < 1 or int(match[2]) != 2 ** int(match[1]) or int(match[3]) != work.budget:
            out.fail("minrank", f"refusal does not match the budget: {stderr.strip()[:200]}")
    return out


def run_quad(runner: Runner, work: Workload, inst: Instance, tag: str, workers: int) -> Outcome:
    """reduce --mode direct -> minrank -> verify --vector <witness> -> decode."""
    out = Outcome(inst)
    field_ = SmallField(inst.q)
    src, instance = runner.path(f"{tag}.qe"), runner.path(f"{tag}.inst.json")
    Path(src).write_text(inst.text, encoding="utf-8")
    argv = ["reduce", "--mode", "direct", "--input", src, "--k", str(work.k), "--output", instance]
    rc, stdout, _ = runner.call(out, "reduce", argv)
    if rc != 0:
        return out
    sizes = direct_sizes(inst.n, inst.m, work.k)
    runner.instance_file(out, instance, stdout, sizes, work.k)

    report = runner.path(f"{tag}.minrank.json")
    rc, _, _ = runner.call(out, "minrank", ["minrank", "--input", instance, "--workers", str(workers), "--output", report])
    doc = runner.report(out, "minrank", report) if rc == 0 else None
    if doc is None:
        return out
    kernel = sizes["coord_count"] - inst.m
    witness = doc["witness"]
    out.scanned += 1
    out.members += doc["enumerated"]
    if (doc["status"], doc["kernel_dimension"], doc["enumerated"]) != ("ok", kernel, inst.q ** kernel - 1):
        out.fail("minrank", f"status={doc['status']} kernel={doc['kernel_dimension']} enumerated={doc['enumerated']}, "
                 f"expected a full scan of kernel dimension {kernel}")
    if inst.sat and doc["minrank"] != 1:
        out.fail("minrank", f"satisfiable instance gave minrank {doc['minrank']}, expected 1")
    if not inst.sat and not (doc["minrank"] or 0) > work.k:
        out.fail("minrank", f"unsatisfiable instance gave minrank {doc['minrank']} <= k={work.k}")
    if not witness or len(witness) != sizes["coord_count"] or not any(witness):
        out.fail("minrank", "minrank reported no nonzero witness")
        return out
    if not is_member(field_, inst.n, inst.equations, witness) or member_rank(field_, inst.n, witness) != doc["minrank"]:
        out.fail("minrank", "witness is not a member of the stated rank")

    vector, report = runner.path(f"{tag}.witness.txt"), runner.path(f"{tag}.verify.json")
    Path(vector).write_text(",".join(map(str, witness)) + "\n", encoding="utf-8")
    rc, _, _ = runner.call(out, "verify", ["verify", "--input", instance, "--vector", vector, "--output", report])
    vdoc = runner.report(out, "verify", report) if rc == 0 else None
    if vdoc is not None and (vdoc["ok"], vdoc["rank"], vdoc["zero"]) != (True, doc["minrank"], False):
        out.fail("verify", f"witness gave ok={vdoc['ok']} rank={vdoc['rank']}, expected a rank-{doc['minrank']} member")

    if doc["minrank"] is not None and doc["minrank"] <= work.k:
        report = runner.path(f"{tag}.decode.json")
        rc, _, _ = runner.call(out, "decode", ["decode", "--source", src, "--vector", vector, "--output", report])
        ddoc = runner.report(out, "decode", report) if rc == 0 else None
        if ddoc is not None:
            point = tuple(ddoc["assignment"] or ())
            if not ddoc["ok"] or len(point) != inst.n or any(
                evaluate(field_, eq, point) for eq in inst.equations
            ):
                out.fail("decode", f"decoded {ddoc['assignment']} does not satisfy the source")
    return out


PIPELINES = {"cnf": run_cnf, "quad": run_quad}


def run_instance(runner: Runner, work: Workload, inst: Instance, tag: str, workers: int | None = None) -> Outcome:
    return PIPELINES[work.kind](runner, work, inst, tag, work.workers if workers is None else workers)
