"""Malformed instance files through the command line.

A valid small instance is mutated (wrong JSON types, big and negative n
and d, bad rows, field descriptors, truncated text) and every mutant goes
through minrank, verify --vector and descend --instance, in-process.  Each
run must end in exit 0, 2 or 3 with no exception escaping cli.main (which
would print a traceback), and one mutant's three runs must take at most
LIMIT_S seconds together; a timer interrupts them past that.
"""

import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import rankgap
from rankgap.boolalg import basis_size
from rankgap.cli import main
from rankgap.frontends import parse_quadeq
from rankgap.moment import build_moment_subspace

LIMIT_S = 2.0

# x1 + x2 over GF(2) at d = 1: four coordinates [{}, {1}, {2}, {1,2}], side 3
BASE = json.loads(build_moment_subspace(parse_quadeq("field: GF(2)\nx1 + x2\n"), 1).to_text())
# the honest vector of x = (1, 1), and its expansion: a member and its matrix
VECTOR = "1,1,1,1\n"
MATRIX = "3 3 GF(2)\n1 1 1\n1 1 1\n1 1 1\n"

KEYS = ("format", "field", "variant", "n", "d", "coord_count", "matrix_side", "rows", "provenance")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
SIZES = st.integers(1, 63) | st.integers(-3, 0) | st.sampled_from([64, 1 << 40, -(1 << 70), 10**100])
FIELDS = st.sampled_from([
    "GF(2)", "GF(3)", "GF(2^2)", "GF(2^2; 1,0,1)", "GF(257)", "GF(4)", "GF(1)", "GF(2^0)",
    "GF(2^16)", "GF(2^40)", "GF(3^30)", "GF(2^99999999999)", "GF(16777259)",
    "GF(" + "7" * 5000 + ")", "GF(", "",
]) | st.text(max_size=10)
ENTRIES = st.integers(-2, 5) | st.sampled_from([1 << 40, 10**100]) | JSON_VALUES
ROWS = st.lists(st.lists(st.lists(ENTRIES, min_size=2, max_size=3), max_size=4), max_size=4)

MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(KEYS), JSON_VALUES),
    st.tuples(st.just("resize"), SIZES, SIZES, st.sampled_from(("keep", "drop", "declare"))),
    st.tuples(st.just("set"), st.just("field"), FIELDS),
    st.tuples(st.just("set"), st.just("variant"), st.sampled_from(("U", "V", "W", ""))),
    st.tuples(st.just("set"), st.just("rows"), ROWS),
    st.tuples(st.just("del"), st.sampled_from(KEYS)),
    st.tuples(st.just("replace"), JSON_VALUES),
    st.tuples(st.just("cut"), st.floats(0, 1)),
    st.tuples(st.just("long"), st.sampled_from(KEYS)),
)


def mutant_text(ops) -> str:
    """BASE with each op applied, as text.  "resize" sets n and d, and
    keeps coord_count and matrix_side, drops them, or declares the sizes
    n and d truly give, where they give any; "replace" puts any JSON value
    in the document's place; "cut" keeps that fraction of the text; "long"
    writes 5,000 nines in front of a value, past the digits int() reads."""
    doc, keep, long = dict(BASE), 1.0, []
    for op in ops:
        if op[0] == "replace":
            doc = op[1]
        elif op[0] == "cut":
            keep = min(keep, op[1])
        elif op[0] == "long":
            long.append(op[1])
        elif not isinstance(doc, dict):
            continue
        elif op[0] == "set":
            doc[op[1]] = op[2]
        elif op[0] == "del":
            doc.pop(op[1], None)
        else:
            _, doc["n"], doc["d"], sizes = op
            if sizes == "drop":
                doc.pop("coord_count", None)
                doc.pop("matrix_side", None)
            elif sizes == "declare":
                try:
                    doc["coord_count"] = basis_size(doc["n"], 2 * doc["d"], doc["variant"])
                    doc["matrix_side"] = basis_size(doc["n"], doc["d"], doc["variant"])
                except (KeyError, TypeError, ValueError):
                    pass
    text = json.dumps(doc)
    for key in long:
        text = text.replace(f'"{key}": ', f'"{key}": ' + "9" * 5000, 1)
    return text[: int(len(text) * keep)]


class Overtime(BaseException):
    """Raised by the timer; no handler in rankgap catches it."""


def _overtime(signum, frame):
    raise Overtime(f"over {LIMIT_S} s")


def run_all(runs) -> list[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of each argv in runs, under one timer."""
    results = []
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return results


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "member.vec").write_text(VECTOR)
    (work / "member.mat").write_text(MATRIX)
    return work


def test_the_unmutated_instance_passes_every_command(workdir):
    text = json.dumps(BASE)
    (workdir / "base.json").write_text(text)
    inst = str(workdir / "base.json")
    runs = [
        ["minrank", "--input", inst],
        ["verify", "--input", inst, "--vector", str(workdir / "member.vec")],
        ["descend", "--input", str(workdir / "member.mat"), "--instance", inst],
    ]
    assert [code for code, _, _ in run_all(runs)] == [0, 0, 0]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(ops=st.lists(MUTATIONS, min_size=1, max_size=3))
# a space past any budget, its sizes declared truthfully or left out
@example(ops=[("resize", 40, 20, "declare")])
@example(ops=[("resize", 63, 40, "drop"), ("set", "variant", "U")])
@example(ops=[("set", "field", "GF(2^40)")])
@example(ops=[("set", "field", "GF(2^99999999999)")])
@example(ops=[("long", "n")])
def test_mutated_instances_end_in_a_clean_exit(workdir, ops):
    (workdir / "mutant.json").write_text(mutant_text(ops))
    inst = str(workdir / "mutant.json")
    runs = [
        ["minrank", "--input", inst],
        ["verify", "--input", inst, "--vector", str(workdir / "member.vec")],
        ["descend", "--input", str(workdir / "member.mat"), "--instance", inst],
    ]
    start = time.perf_counter()
    results = run_all(runs)
    assert time.perf_counter() - start <= LIMIT_S
    for argv, (code, stdout, stderr) in zip(runs, results):
        assert code in (0, 2, 3), (argv[0], stderr)
        assert "Traceback" not in stderr
        if code:
            assert stdout == "" and stderr.startswith("error: ")


def test_verify_assignment_refuses_a_truthfully_declared_huge_instance(tmp_path):
    """The honest vector has one value per declared coordinate, so verify
    --assignment applies its budget before building it."""
    doc = dict(BASE, n=40, d=20, coord_count=basis_size(40, 40, "V"),
               matrix_side=basis_size(40, 20, "V"), rows=[])
    (tmp_path / "huge.json").write_text(json.dumps(doc))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(rankgap.__file__).resolve().parent.parent))
    argv = ["verify", "--input", "huge.json", "--assignment", ",".join(["1"] * 40)]
    try:
        done = subprocess.run([sys.executable, "-m", "rankgap", *argv], capture_output=True,
                              text=True, timeout=LIMIT_S, preexec_fn=cap, env=env, cwd=tmp_path)
    except subprocess.TimeoutExpired:
        pytest.fail(f"verify --assignment ran past {LIMIT_S} s")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (f"error: instance needs about {1 << 40} coordinates or "
                           f"constraints, budget allows {1 << 20}\n")


def test_verify_vector_refuses_a_member_whose_rank_is_past_the_budget(tmp_path):
    """616,666 coordinates fit the default budget, but ranking the all-ones
    member would read 21,700 x 21,700 entries of its matrix; verify --vector
    refuses before it ranks, within seconds (parsing and checking the
    vector takes about two on one core)."""
    doc = {key: BASE[key] for key in ("format", "field", "variant")}
    doc.update(n=20, d=5, rows=[])
    (tmp_path / "wide.json").write_text(json.dumps(doc))
    (tmp_path / "ones.vec").write_text(",".join(["1"] * basis_size(20, 10, "V")))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(rankgap.__file__).resolve().parent.parent))
    argv = ["verify", "--input", "wide.json", "--vector", "ones.vec"]
    try:
        done = subprocess.run([sys.executable, "-m", "rankgap", *argv], capture_output=True,
                              text=True, timeout=15, preexec_fn=cap, env=env, cwd=tmp_path)
    except subprocess.TimeoutExpired:
        pytest.fail("verify --vector ran past 15 s")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (f"error: ranking the member reads 21700 x 21700 matrix entries, "
                           f"budget allows {1 << 20}\n")
