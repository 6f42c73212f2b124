"""Command-line surface: subcommand behavior, exit codes, determinism."""

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from itertools import product
from pathlib import Path

import pytest

import rankgap.cli
import rankgap.moment
import rankgap.oracles
from rankgap.boolalg import basis_size
from rankgap.cli import main
from rankgap.errors import InternalConsistencyError
from rankgap.gfarith import make_field
from rankgap.gflinalg import FFMatrix
from rankgap.subspace import SubspaceSpec, honest_moment_vector

GF2 = make_field(2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_capped(tmp_path, *argv, seconds=10, memory=1 << 30):
    """(exit code, stdout, stderr, wall seconds) of the CLI in a child
    process limited to `memory` bytes of address space and killed after
    `seconds`, for inputs that a regression would let run away."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    env = dict(os.environ, PYTHONPATH=str(Path(rankgap.__file__).resolve().parent.parent))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "rankgap", *argv], capture_output=True,
                          text=True, timeout=seconds, preexec_fn=cap, env=env, cwd=tmp_path)
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


LINE_SRC = "field: GF(2)\nx1 + x2\n"
ONE_CLAUSE = "p cnf 2 1\n1 2 0\n"


# -- reduce -------------------------------------------------------------------


def test_reduce_direct_frozen_counts(tmp_path, capsys):
    src = write(tmp_path, "line.qe", LINE_SRC)
    out = str(tmp_path / "line.subspace.json")
    code, stdout, _ = run(capsys, "reduce", "--mode", "direct", "--input", src,
                          "--output", out)
    assert code == 0
    assert stdout == "coordinates: 4\nconstraints: 1\nd: 1\n"
    doc = json.loads((tmp_path / "line.subspace.json").read_text())
    assert doc["coord_count"] == 4
    assert doc["provenance"]["construction"] == "direct"
    assert doc["provenance"]["field"] == "GF(2)"


def test_reduce_superposition_chooses_d8(tmp_path, capsys):
    src = write(tmp_path, "one.cnf", ONE_CLAUSE)
    out = str(tmp_path / "one.subspace.json")
    code, stdout, _ = run(capsys, "reduce", "--mode", "superposition",
                          "--input", src, "--output", out)
    assert code == 0
    assert stdout.endswith("d: 8\n")
    doc = json.loads((tmp_path / "one.subspace.json").read_text())
    assert doc["provenance"]["regime"] == "faithful"
    assert doc["provenance"]["r"] == 1
    assert doc["provenance"]["k"] == 1


def test_reduce_k_zero_is_usage_error(tmp_path, capsys):
    src = write(tmp_path, "line.qe", LINE_SRC)
    code, _, err = run(capsys, "reduce", "--mode", "direct", "--input", src,
                       "--output", str(tmp_path / "x.json"), "--k", "0")
    assert code == 2
    assert "at least 1" in err


def test_reduce_relaxed_gate(tmp_path, capsys):
    src = write(tmp_path, "one.cnf", ONE_CLAUSE)
    out = str(tmp_path / "gate.json")
    code, _, err = run(capsys, "reduce", "--mode", "superposition", "--input", src,
                       "--output", out, "--degree", "4")
    assert code == 2
    assert "relaxed" in err
    code, stdout, _ = run(capsys, "reduce", "--mode", "superposition", "--input", src,
                          "--output", out, "--degree", "4", "--relaxed")
    assert code == 0
    assert json.loads((tmp_path / "gate.json").read_text())["provenance"]["regime"] == "relaxed"


def test_reduce_budget_refusal(tmp_path, capsys):
    src = write(tmp_path, "one.cnf", ONE_CLAUSE)
    code, _, err = run(capsys, "reduce", "--mode", "superposition", "--input", src,
                       "--output", str(tmp_path / "x.json"), "--budget", "3")
    assert code == 3
    assert "budget allows 3" in err


@pytest.mark.parametrize("mode, text, need", [
    ("superposition", ONE_CLAUSE, 24),  # 1 * (1 + 7) clause rows, 2 * (1 + 7) booleanity rows
    ("direct", LINE_SRC, 4),  # four coordinates over x1, x2 at d = 1
])
def test_reduce_budget_refusal_message(tmp_path, capsys, mode, text, need):
    src = write(tmp_path, "source.txt", text)
    code, stdout, err = run(capsys, "reduce", "--mode", mode, "--input", src,
                            "--output", str(tmp_path / "x.json"), "--budget", "3")
    assert (code, stdout) == (3, "")
    assert err == f"error: instance needs about {need} coordinates or constraints, budget allows 3\n"


@pytest.mark.parametrize("argv, expected", [
    (("--c", "inf"), 2),
    (("--c", "1e308"), 0),
    (("--c", "1e6"), 0),
    (("--degree", "100000000"), 0),
], ids=["c-inf", "c-1e308", "c-1e6", "degree-1e8"])
def test_huge_cnf_degrees_refuse_or_finish(tmp_path, argv, expected):
    """A degree rule that asks for a huge or infinite d ends at once: the
    binomial C(d+1, floor((d+1)/2)) is never formed for such d."""
    write(tmp_path, "three.cnf", "p cnf 3 1\n1 2 3 0\n")
    code, _, err, seconds = run_capped(tmp_path, "reduce", "--mode", "superposition",
                                       "--input", "three.cnf", "--output", "out.json", *argv)
    assert code == expected
    assert "Traceback" not in err
    if expected == 2:
        assert err == "error: the soundness constant inf gives no finite degree\n"
    assert seconds < 1.0


def test_reduce_parse_error_surfaces(tmp_path, capsys):
    src = write(tmp_path, "bad.cnf", "p cnf 2 1\n1 2\n")
    code, _, err = run(capsys, "reduce", "--mode", "superposition", "--input", src,
                       "--output", str(tmp_path / "x.json"))
    assert code == 2
    assert "unterminated" in err


# -- verify -------------------------------------------------------------------


def instance(tmp_path, capsys, name="line"):
    src = write(tmp_path, f"{name}.qe", LINE_SRC)
    out = str(tmp_path / f"{name}.subspace.json")
    assert run(capsys, "reduce", "--mode", "direct", "--input", src,
               "--output", out)[0] == 0
    return out


def test_verify_honest_assignment(tmp_path, capsys):
    inst = instance(tmp_path, capsys)
    code, stdout, _ = run(capsys, "verify", "--input", inst, "--assignment", "1,1")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "member, rank 1"
    doc = json.loads("\n".join(lines[1:]))
    assert doc["ok"] is True and doc["rank"] == 1 and doc["zero"] is False


def test_verify_zero_vector_wording(tmp_path, capsys):
    inst = instance(tmp_path, capsys)
    vec = write(tmp_path, "zero.vec", "0,0,0,0\n")
    code, stdout, _ = run(capsys, "verify", "--input", inst, "--vector", vec)
    assert code == 0
    assert stdout.splitlines()[0] == "member (trivially), excluded from minrank"


def test_verify_perturbed_vector_reports_constraint(tmp_path, capsys):
    inst = instance(tmp_path, capsys)
    vec = write(tmp_path, "bent.vec", "1,1,0,1\n")
    code, stdout, _ = run(capsys, "verify", "--input", inst, "--vector", vec)
    assert code == 0
    assert stdout.splitlines()[0] == "not a member: constraint 0 violated"


def test_verify_bounds_the_rank_of_a_vector(tmp_path, capsys):
    """A member is refused when its rank would read more matrix entries than
    the budget allows, whether it comes from --vector or --assignment; the
    rank reads only the sets inside the vector's support."""
    inst = instance(tmp_path, capsys)
    vec = write(tmp_path, "honest.vec", "1,1,1,1\n")
    code, stdout, err = run(capsys, "verify", "--input", inst, "--vector", vec, "--budget", "8")
    assert (code, stdout) == (3, "")
    assert err == "error: ranking the member reads 3 x 3 matrix entries, budget allows 8\n"
    zero = write(tmp_path, "zero.vec", "0,0,0,0\n")
    assert run(capsys, "verify", "--input", inst, "--vector", zero, "--budget", "8")[0] == 0
    code, stdout, err = run(capsys, "verify", "--input", inst, "--assignment", "1,1", "--budget", "8")
    assert (code, stdout) == (3, "")
    assert err == "error: ranking the member reads 3 x 3 matrix entries, budget allows 8\n"


def test_verify_bounds_the_elimination_over_gf3(tmp_path, capsys):
    """Over q > 2 the rank eliminates through the field's tables, up to
    side^3 steps, so a member is refused when that passes the budget even
    where its side^2 entries do not; over GF(2) side^2 stays the bound."""
    src = write(tmp_path, "equal.qe", "field: GF(3)\nx1 + 2*x2\n")
    inst = str(tmp_path / "equal.subspace.json")
    assert run(capsys, "reduce", "--mode", "direct", "--input", src, "--output", inst)[0] == 0
    # the honest vector of (1, 1) has side 3: 9 entries, 27 steps
    for args in (("--assignment", "1,1"), ("--vector", write(tmp_path, "honest.vec", "1,1,1,1\n"))):
        code, stdout, err = run(capsys, "verify", "--input", inst, *args, "--budget", "26")
        assert (code, stdout) == (3, "")
        assert err == "error: ranking the member takes up to 3^3 = 27 elimination steps, budget allows 26\n"
        code, stdout, _ = run(capsys, "verify", "--input", inst, *args, "--budget", "27")
        assert code == 0 and stdout.splitlines()[0] == "member, rank 1"
    gf2 = instance(tmp_path, capsys)
    code, stdout, _ = run(capsys, "verify", "--input", gf2, "--assignment", "1,1", "--budget", "9")
    assert code == 0 and stdout.splitlines()[0] == "member, rank 1"
    # no rows over GF(3) at n = 18, d = 3, and a random vector: side 988,
    # whose 976,144 entries the default budget allows, but whose rank
    # would take about 15 s of table elimination (2 cores)
    wide = SubspaceSpec(make_field(3), "V", 18, 3, ())
    rng = random.Random(18)
    write(tmp_path, "wide.json", wide.to_text())
    write(tmp_path, "wide.vec", ",".join(str(rng.randrange(3)) for _ in range(wide.coord_count)))
    code, stdout, err, _ = run_capped(tmp_path, "verify", "--input", "wide.json", "--vector", "wide.vec")
    assert (code, stdout) == (3, "")
    assert err == ("error: ranking the member takes up to 988^3 = 964430272 elimination steps, "
                   "budget allows 1048576\n")


def test_verify_needs_exactly_one_mode(tmp_path, capsys):
    inst = instance(tmp_path, capsys)
    code, _, err = run(capsys, "verify", "--input", inst)
    assert code == 2 and "exactly one" in err


# -- minrank ------------------------------------------------------------------


def test_minrank_command(tmp_path, capsys):
    inst = instance(tmp_path, capsys)
    code, stdout, _ = run(capsys, "minrank", "--input", inst)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "minrank 1 over 7 members"
    doc = json.loads("\n".join(lines[1:]))
    assert doc["witness"] == [1, 0, 0, 0]


def test_minrank_budget_exit_code(tmp_path, capsys):
    inst = instance(tmp_path, capsys)
    code, _, err = run(capsys, "minrank", "--input", inst, "--budget", "7")
    assert code == 3
    assert "8 members" in err


def test_minrank_refuses_before_hashing(tmp_path, capsys, monkeypatch):
    # a reduced CNF has more rows than coordinates, so loading it refuses
    # nothing; minrank refuses it without hashing it first
    src = write(tmp_path, "one.cnf", ONE_CLAUSE)
    inst = str(tmp_path / "one.subspace.json")
    assert run(capsys, "reduce", "--mode", "superposition", "--input", src,
               "--output", inst)[0] == 0

    def no_digest(space):
        raise AssertionError("minrank hashed an instance it refuses")

    monkeypatch.setattr(rankgap.oracles, "subspace_digest", no_digest)
    code, stdout, err = run(capsys, "minrank", "--input", inst, "--budget", "1")
    assert (code, stdout) == (3, "")
    assert err == "error: kernel dimension 3 means 8 members, budget allows 1\n"


def test_minrank_refuses_repeated_rows_before_the_kernel(tmp_path, capsys, monkeypatch):
    # 16 coordinates and one row written 20 times: the repeats take no
    # further dimension off the kernel, so the early refusal must see 15
    doc = {"format": "subspace", "field": "GF(2)", "variant": "V", "n": 4, "d": 2,
           "rows": [[[0, 1]]] * 20}
    inst = write(tmp_path, "repeats.json", json.dumps(doc))

    def no_kernel(space):
        raise AssertionError("minrank built the kernel of a space it refuses")

    monkeypatch.setattr(SubspaceSpec, "kernel_basis", no_kernel)
    code, stdout, err = run(capsys, "minrank", "--input", inst, "--budget", "1")
    assert (code, stdout) == (3, "")
    assert err == "error: kernel dimension 15 means 32768 members, budget allows 1\n"


def test_minrank_refuses_a_huge_kernel_before_building_it(tmp_path, capsys):
    # 2^40 coordinates and no rows: the kernel alone is past any budget
    doc = {"format": "subspace", "field": "GF(2)", "variant": "V", "n": 40, "d": 20,
           "coord_count": 1 << 40, "rows": []}
    huge = write(tmp_path, "huge.json", json.dumps(doc))
    start = time.perf_counter()
    code, stdout, err = run(capsys, "minrank", "--input", huge, "--budget", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert stdout == ""
    assert err == (f"error: kernel dimension {1 << 40} means 2^{1 << 40} members, "
                   "budget allows 1\n")


def test_minrank_early_refusal_reads_like_the_late_one(tmp_path, capsys):
    # refused before its basis is built, a space still names its exact
    # kernel dimension: a repeated row does not lower the rank
    doc = json.loads(open(instance(tmp_path, capsys)).read())
    doc["rows"] *= 2
    twice = write(tmp_path, "twice.json", json.dumps(doc))
    code, _, err = run(capsys, "minrank", "--input", twice, "--budget", "2")
    assert code == 3
    assert err == "error: kernel dimension 3 means 8 members, budget allows 2\n"
    # a budget of exactly q^m is enough, even where the rows are independent
    code, stdout, _ = run(capsys, "minrank", "--input", instance(tmp_path, capsys), "--budget", "8")
    assert code == 0
    assert stdout.startswith("minrank 1 over 7 members\n")


def test_minrank_empty_subspace(tmp_path, capsys):
    src = write(tmp_path, "unsat.qe", "field: GF(2)\nx1\nx1 + 1\n")
    out = str(tmp_path / "unsat.subspace.json")
    assert run(capsys, "reduce", "--mode", "direct", "--input", src,
               "--output", out)[0] == 0
    code, stdout, _ = run(capsys, "minrank", "--input", out)
    assert code == 0
    assert stdout.splitlines()[0] == "empty subspace"


def test_minrank_of_an_unsatisfiable_n8_cnf(tmp_path, capsys):
    # the first space here whose member rows pass 256 bits: at n = 8, d = 8
    # the reduction has 511 coordinates and a 510-side expansion.  No point
    # satisfies this seeded 3-CNF, so the kernel is one vector, the
    # coordinate of the top monomial, and its expansion has full rank
    rng = random.Random(0)
    clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 9), 3)]
               for _ in range(80)]
    assert not any(all(any(point[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses)
                   for point in product((0, 1), repeat=8))
    src = write(tmp_path, "unsat8.cnf",
                "p cnf 8 80\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses))
    inst = str(tmp_path / "unsat8.subspace.json")
    assert run(capsys, "reduce", "--mode", "superposition", "--input", src, "--output", inst)[0] == 0
    code, stdout, _ = run(capsys, "minrank", "--input", inst)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "minrank 510 over 1 members"
    doc = json.loads("\n".join(lines[1:]))
    assert (doc["kernel_dimension"], doc["minrank"]) == (1, 510)
    assert doc["witness"] == [0] * 510 + [1]


# -- decode -------------------------------------------------------------------


def test_decode_command_round_trip(tmp_path, capsys):
    src = write(tmp_path, "line.qe", LINE_SRC)
    vec = write(tmp_path, "honest.vec", "1,1,1,1\n")
    code, stdout, _ = run(capsys, "decode", "--source", src, "--vector", vec)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "assignment: 1,1"
    doc = json.loads("\n".join(lines[1:]))
    assert doc["ok"] is True and doc["assignment"] == [1, 1]
    assert doc["provenance"]["degree"] == 1


def test_decode_rejects_non_member(tmp_path, capsys):
    src = write(tmp_path, "line.qe", LINE_SRC)
    vec = write(tmp_path, "bad.vec", "1,1,0,1\n")
    code, _, err = run(capsys, "decode", "--source", src, "--vector", vec)
    assert code == 2
    assert "not a subspace member" in err


def test_decode_checks_the_vector_length_before_building_a_basis(tmp_path):
    # degree 20 over 40 variables means 2^40 coordinates: counted, not built
    src = write(tmp_path, "wide.qe", "field: GF(2)\nx1*x40 + 1\n")
    vec = write(tmp_path, "short.vec", "1,0,1\n")
    code, stdout, err, seconds = run_capped(tmp_path, "decode", "--source", src,
                                            "--vector", vec, "--degree", "20")
    assert (code, stdout) == (2, "")
    assert err == f"error: vector has 3 coordinates, degree 20 needs {1 << 40}\n"
    assert seconds < 1.0


def test_decode_refuses_an_instance_reduce_would_refuse(tmp_path):
    # 2,000 equations at n = 12, d = 3 mean 2,000 x 794 localizing rows,
    # past reduce's default budget: counted, not built
    rng = random.Random(12)
    equations = "".join(
        "x{} + x{}*x{} + 1\n".format(*rng.sample(range(1, 13), 3)) for _ in range(2000)
    )
    src = write(tmp_path, "many.qe", "field: GF(2)\n" + equations)
    vec = write(tmp_path, "zero.vec", ",".join("0" * basis_size(12, 6, "V")) + "\n")
    code, stdout, err, _ = run_capped(tmp_path, "decode", "--source", src, "--vector", vec,
                                      "--degree", "3")
    assert (code, stdout) == (3, "")
    assert err == f"error: decoding rebuilds {2000 * 794} localizing rows, budget allows {1 << 20}\n"


# -- unreadable inputs and unwritable outputs -----------------------------------


UNDECODABLE = "error: cannot read bad: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


@pytest.mark.parametrize("command", [
    ("reduce", "--mode", "direct", "--input", "bad", "--output", "out.json"),
    ("verify", "--input", "bad", "--assignment", "1,1"),
    ("verify", "--input", "line.json", "--vector", "bad"),
    ("minrank", "--input", "bad"),
    ("decode", "--source", "bad", "--vector", "honest.vec"),
    ("decode", "--source", "line.qe", "--vector", "bad"),
    ("decompose", "--input", "bad"),
    ("descend", "--input", "bad"),
    ("descend", "--input", "id.mat", "--instance", "bad"),
    ("isolate", "--points", "bad", "--target", "1,1", "--rho", "2"),
], ids=lambda c: f"{c[0]}{c[c.index('bad') - 1]}")
def test_an_undecodable_input_is_refused(tmp_path, capsys, monkeypatch, command):
    """Every file-reading option reads UTF-8 and refuses other bytes with
    exit 2; the other files each command reads are valid."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "line.qe", LINE_SRC)
    assert run(capsys, "reduce", "--mode", "direct", "--input", "line.qe",
               "--output", "line.json")[0] == 0
    write(tmp_path, "honest.vec", "1,1,1,1\n")
    write(tmp_path, "id.mat", FFMatrix(GF2, [[1, 0], [0, 1]]).to_text())
    (tmp_path / "bad").write_bytes(b"\xff\xfe" + "x1 + x2\n".encode("utf-16-le"))
    assert run(capsys, *command) == (2, "", UNDECODABLE)


@pytest.mark.parametrize("command, stdout", [
    (("reduce", "--mode", "direct", "--input", "line.qe", "--output", "missing/out.json"), ""),
    (("verify", "--input", "line.json", "--assignment", "1,1", "--output", "missing/out.json"), ""),
], ids=["reduce", "verify"])
def test_an_unwritable_output_is_refused(tmp_path, capsys, command, stdout):
    write(tmp_path, "line.qe", LINE_SRC)
    assert run(capsys, "reduce", "--mode", "direct", "--input", str(tmp_path / "line.qe"),
               "--output", str(tmp_path / "line.json"))[0] == 0
    code, out, err, _ = run_capped(tmp_path, *command)
    assert (code, out) == (2, stdout)
    assert err == ("error: cannot write missing/out.json: [Errno 2] "
                   "No such file or directory: 'missing/out.json'\n")
    assert not (tmp_path / "missing").exists()


# -- instance files that reduce does not write --------------------------------


TWO_CLAUSES = "p cnf 3 2\n1 2 3 0\n-1 2 -3 0\n"  # 80 rows, 12 distinct: a canonical text
INSTANCE_COMMANDS = {
    "verify": ("verify", "--assignment", "0,1,0", "--input"),
    "minrank": ("minrank", "--input"),
    "descend": ("descend", "--input", "member.mat", "--instance"),
}


def instance_files(written: bytes) -> dict:
    """The reduced file as written, and files made from it that reduce
    does not write; "directory" and "missing" name no file."""
    doc = json.loads(written)
    doc["provenance"]["note"] = "Grüße ☃"
    return {
        "written": written,
        "nul": b"\0" + written,
        "bom": b"\xef\xbb\xbf" + written,
        "crlf": written.replace(b"\n", b"\r\n"),
        "cr": written.replace(b"\n", b"\r"),
        "non-ascii": (json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode(),
        "invalid-utf8": written.replace(b'"provenance": {', b'"provenance": {"\xff": 1,', 1),
    }


def instance_outcome(tmp_path, capsys, monkeypatch, command, case):
    """(exit code, stdout, stderr, sha256 of the report or None) of command
    given the instance file of case."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "two.cnf", TWO_CLAUSES)
    assert run(capsys, "reduce", "--mode", "superposition", "--input", "two.cnf",
               "--output", "two.json")[0] == 0
    written = (tmp_path / "two.json").read_bytes()
    space = SubspaceSpec.from_text(written.decode())
    honest = honest_moment_vector(GF2, (1, 0, 1, 0), 3, 2 * space.d, "U")
    write(tmp_path, "member.mat", space.expand(honest.values).to_text())
    files = instance_files(written)
    if case in files:
        (tmp_path / "instance.json").write_bytes(files[case])
    elif case == "directory":
        (tmp_path / "instance.json").mkdir()
    code, out, err = run(capsys, *INSTANCE_COMMANDS[command], "instance.json",
                         "--output", "report.json")
    report = tmp_path / "report.json"
    digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
    return code, out, err, digest


# each outcome as the commands gave it when they read every file as text
NOT_READ, BAD_JSON = "error: cannot read instance.json: ", "error: bad JSON: "
INSTANCE_OUTCOMES = {
    ("verify", "written"):
        (0, "member, rank 1\n", "", "948174d59c0f16f21df30a6fbefa10eb6b0a1426002aaecac1e89cfbb9b28171"),
    ("verify", "nul"):
        (2, "", BAD_JSON + "Expecting value: line 1 column 1 (char 0)\n", None),
    ("verify", "bom"):
        (2, "", BAD_JSON + "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n", None),
    ("verify", "crlf"):
        (0, "member, rank 1\n", "", "948174d59c0f16f21df30a6fbefa10eb6b0a1426002aaecac1e89cfbb9b28171"),
    ("verify", "cr"):
        (0, "member, rank 1\n", "", "948174d59c0f16f21df30a6fbefa10eb6b0a1426002aaecac1e89cfbb9b28171"),
    ("verify", "non-ascii"):
        (0, "member, rank 1\n", "", "4caabd02efeb6fa3cc62b334cb0f715b78bd2ddba85d7c55f512d9ca211ac529"),
    ("verify", "invalid-utf8"):
        (2, "", NOT_READ + "'utf-8' codec can't decode byte 0xff in position 126: invalid start byte\n", None),
    ("verify", "directory"):
        (2, "", NOT_READ + "[Errno 21] Is a directory: 'instance.json'\n", None),
    ("verify", "missing"):
        (2, "", NOT_READ + "[Errno 2] No such file or directory: 'instance.json'\n", None),
    ("minrank", "written"):
        (0, "minrank 1 over 63 members\n", "", "e436ba288d1e7701939d8bd6e973d83938aefc4c0d0c9d671f5c2619df4b2b0c"),
    ("minrank", "nul"):
        (2, "", BAD_JSON + "Expecting value: line 1 column 1 (char 0)\n", None),
    ("minrank", "bom"):
        (2, "", BAD_JSON + "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n", None),
    ("minrank", "crlf"):
        (0, "minrank 1 over 63 members\n", "", "e436ba288d1e7701939d8bd6e973d83938aefc4c0d0c9d671f5c2619df4b2b0c"),
    ("minrank", "cr"):
        (0, "minrank 1 over 63 members\n", "", "e436ba288d1e7701939d8bd6e973d83938aefc4c0d0c9d671f5c2619df4b2b0c"),
    ("minrank", "non-ascii"):
        (0, "minrank 1 over 63 members\n", "", "b438a2f7a35971faedc7279b7572c9a7a50f7a99b09cc514f7cf6e76b7185348"),
    ("minrank", "invalid-utf8"):
        (2, "", NOT_READ + "'utf-8' codec can't decode byte 0xff in position 126: invalid start byte\n", None),
    ("minrank", "directory"):
        (2, "", NOT_READ + "[Errno 21] Is a directory: 'instance.json'\n", None),
    ("minrank", "missing"):
        (2, "", NOT_READ + "[Errno 2] No such file or directory: 'instance.json'\n", None),
    ("descend", "written"):
        (0, "rank 1 over GF(2) descends to rank 1 over GF(2)\n", "", "7144e81ded80070eb809b7d7b9350b5bb9a18a9a0c6a8751d8585ac5daf19c4d"),
    ("descend", "nul"):
        (2, "", BAD_JSON + "Expecting value: line 1 column 1 (char 0)\n", None),
    ("descend", "bom"):
        (2, "", BAD_JSON + "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n", None),
    ("descend", "crlf"):
        (0, "rank 1 over GF(2) descends to rank 1 over GF(2)\n", "", "7144e81ded80070eb809b7d7b9350b5bb9a18a9a0c6a8751d8585ac5daf19c4d"),
    ("descend", "cr"):
        (0, "rank 1 over GF(2) descends to rank 1 over GF(2)\n", "", "7144e81ded80070eb809b7d7b9350b5bb9a18a9a0c6a8751d8585ac5daf19c4d"),
    ("descend", "non-ascii"):
        (0, "rank 1 over GF(2) descends to rank 1 over GF(2)\n", "", "2c494de5b97a396f0005908639ba4f193b1a1b64bcf587ee7f600d6d0e00f874"),
    ("descend", "invalid-utf8"):
        (2, "", NOT_READ + "'utf-8' codec can't decode byte 0xff in position 126: invalid start byte\n", None),
    ("descend", "directory"):
        (2, "", NOT_READ + "[Errno 21] Is a directory: 'instance.json'\n", None),
    ("descend", "missing"):
        (2, "", NOT_READ + "[Errno 2] No such file or directory: 'instance.json'\n", None),
}


@pytest.mark.parametrize("command, case", list(INSTANCE_OUTCOMES),
                         ids=[f"{c}-{k}" for c, k in INSTANCE_OUTCOMES])
def test_instance_files_give_the_outcomes_of_a_text_read(tmp_path, capsys, monkeypatch,
                                                         command, case):
    """verify, minrank and descend --instance read a file that is ASCII
    with no carriage return as bytes, and any other as text; either way
    each file gives the exit code, output, error and report bytes it gave
    when every file was read as text."""
    assert (instance_outcome(tmp_path, capsys, monkeypatch, command, case)
            == INSTANCE_OUTCOMES[command, case])


# -- decompose / descend / isolate --------------------------------------------


def test_decompose_command(tmp_path, capsys):
    text = FFMatrix(GF2, [[0, 1], [1, 0]]).to_text()
    mat = write(tmp_path, "swap.mat", text)
    code, stdout, _ = run(capsys, "decompose", "--input", mat)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "3 rank-one terms for a rank-2 matrix"
    doc = json.loads("\n".join(lines[1:]))
    assert doc["vectors"] == [[0, 1], [1, 0], [1, 1]]


def test_descend_command(tmp_path, capsys):
    gf4 = make_field(2, 2)
    alpha = 2
    text = FFMatrix(gf4, [[alpha, 0], [0, 0]]).to_text()
    mat = write(tmp_path, "ext.mat", text)
    code, stdout, _ = run(capsys, "descend", "--input", mat)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "rank 1 over GF(2^2; 1,1,1) descends to rank 1 over GF(2)"
    doc = json.loads("\n".join(lines[1:]))
    assert doc["rows"] == [[1, 0], [0, 0]]


def test_descend_field_flag_lifts_gf2_files(tmp_path, capsys):
    text = FFMatrix(GF2, [[1, 0], [0, 1]]).to_text()
    mat = write(tmp_path, "id.mat", text)
    code, stdout, _ = run(capsys, "descend", "--input", mat, "--field", "GF(2^2)")
    assert code == 0
    assert "over GF(2^2; 1,1,1)" in stdout.splitlines()[0]


def test_isolate_command(tmp_path, capsys):
    pts = write(tmp_path, "pts.txt", "0,0\n1,1\n")
    code, stdout, _ = run(capsys, "isolate", "--points", pts, "--target", "1,1",
                          "--rho", "2")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "x0"
    doc = json.loads("\n".join(lines[1:]))
    assert doc["support"] == [[0]]
    assert doc["degree"] == 1


def test_isolate_takes_a_huge_degree_bound(tmp_path, capsys):
    # the size test never forms 2^rho; past n + 1 the bound changes nothing
    pts = write(tmp_path, "pts.txt", "0,0,1\n1,1,0\n1,0,1\n")
    code, stdout, _ = run(capsys, "isolate", "--points", pts, "--target", "1,0,1",
                          "--rho", "3")
    assert code == 0
    code, huge, err, _ = run_capped(tmp_path, "isolate", "--points", pts, "--target",
                                    "1,0,1", "--rho", "100000000000")
    assert (code, err) == (0, "")
    assert huge.splitlines()[0] == stdout.splitlines()[0]


@pytest.mark.parametrize("rho, monomials", [(4, 597_619), (12, 2_800_171_409_071)])
def test_isolate_refuses_wide_points_before_building_a_basis(tmp_path, rho, monomials):
    # 62 coordinates: the kernel would take about monomials^2 bits
    pts = write(tmp_path, "wide.txt", "1" + ",0" * 61 + "\n" + ",".join("0" * 62) + "\n")
    code, stdout, err, _ = run_capped(tmp_path, "isolate", "--points", pts, "--target",
                                      "1" + ",0" * 61, "--rho", str(rho))
    assert (code, stdout) == (3, "")
    assert err == (f"error: isolation at degree {rho} over 62 variables needs {monomials} "
                   f"monomials, at most {1 << 16} are allowed\n")


# -- determinism and environment ----------------------------------------------


def test_environment_changes_no_output(tmp_path, capsys, monkeypatch):
    src = write(tmp_path, "line.qe", LINE_SRC)
    inst = tmp_path / "line.subspace.json"

    def outputs():
        reduced = run(capsys, "reduce", "--mode", "direct", "--input", src,
                      "--output", str(inst))
        return reduced, inst.read_bytes(), run(capsys, "minrank", "--input", str(inst))

    plain = outputs()
    assert plain[0][0] == plain[2][0] == 0
    for name, value in [("K", "0"), ("BUDGET", "1"), ("FIELD", "GF(3)"), ("C", "x"),
                        ("DEGREE", "9"), ("WORKERS", "0")]:
        monkeypatch.setenv("RANKGAP_" + name, value)
    assert outputs() == plain


def test_minrank_worker_counts_agree(tmp_path, capsys, monkeypatch):
    # the search runs in one process: no worker count may start a thread
    def no_threads(self):
        raise AssertionError("minrank started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    src = write(tmp_path, "three.qe", "field: GF(2)\nx1*x2 + x3\n")
    inst = str(tmp_path / "three.subspace.json")
    assert run(capsys, "reduce", "--mode", "direct", "--input", src,
               "--output", inst)[0] == 0
    alone = run(capsys, "minrank", "--input", inst, "--workers", "1")
    assert alone[0] == 0
    for w in ("2", "3", "5"):
        assert run(capsys, "minrank", "--input", inst, "--workers", w) == alone
    code, stdout, err = run(capsys, "minrank", "--input", inst, "--workers", "0")
    assert (code, stdout, err) == (2, "", "error: worker count must be positive\n")


def test_minrank_checks_workers_before_reading_the_instance(tmp_path, capsys):
    missing = str(tmp_path / "missing.subspace.json")
    code, stdout, err = run(capsys, "minrank", "--input", missing, "--workers", "0")
    assert (code, stdout, err) == (2, "", "error: worker count must be positive\n")


def test_reruns_are_byte_identical(tmp_path, capsys):
    src = write(tmp_path, "line.qe", LINE_SRC)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        code, stdout, _ = run(capsys, "reduce", "--mode", "direct", "--input", src,
                              "--output", str(out))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()

    inst = str(first)
    outs = []
    for w in ("1", "3"):
        code, stdout, _ = run(capsys, "minrank", "--input", inst, "--workers", w)
        assert code == 0
        outs.append(stdout)
    assert outs[0] == outs[1]


def test_direct_row_count_drift_is_internal_error(tmp_path, capsys, monkeypatch):
    real = rankgap.moment.localizing_row_count
    monkeypatch.setattr(rankgap.moment, "localizing_row_count",
                        lambda n, m, d: real(n, m, d) + 1)
    src = write(tmp_path, "line.qe", LINE_SRC)
    code, stdout, err = run(capsys, "reduce", "--mode", "direct", "--input", src,
                            "--output", str(tmp_path / "out.json"))
    assert code == 4
    assert "drifted from the formula" in err
    assert "Traceback" not in err


# -- corrupt instance files ---------------------------------------------------


@pytest.mark.parametrize("command", [
    ("verify", "--assignment", ",".join(["1"] * 40)),
    ("minrank", "--budget", "1"),
])
def test_declared_size_checked_before_any_basis_is_built(tmp_path, capsys, command):
    doc = {"format": "subspace", "field": "GF(2)", "variant": "U", "n": 40, "d": 20,
           "coord_count": 1, "rows": [], "provenance": {}}
    bad = write(tmp_path, "big.json", json.dumps(doc))
    start = time.perf_counter()
    code, stdout, err = run(capsys, command[0], "--input", bad, *command[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert stdout == ""
    assert "coord_count says 1, the (U, n=40, d=20) families give" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("variant", [["U"], {"U": 1}], ids=["list", "object"])
@pytest.mark.parametrize("command", [
    ("verify", "--assignment", "1,1"),
    ("minrank",),
])
def test_variant_checked_before_any_basis_is_built(tmp_path, capsys, variant, command):
    doc = json.loads(open(instance(tmp_path, capsys)).read())
    doc["variant"] = variant
    del doc["coord_count"], doc["matrix_side"]
    bad = write(tmp_path, "bad.json", json.dumps(doc))
    code, stdout, err = run(capsys, command[0], "--input", bad, *command[1:])
    assert code == 2
    assert stdout == ""
    assert 'variant must be "U" or "V"' in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("rows", [[[0.7, 1]]]),
    ("rows", [[[1, "1"], [2, 1]]]),
    ("rows", [[[True, 1], [2, 1]]]),
    ("n", 2.0),
    ("d", True),
    ("coord_count", "4"),
])
@pytest.mark.parametrize("command", [
    ("verify", "--assignment", "1,1"),
    ("minrank",),
])
def test_non_integer_instance_values_are_parse_errors(tmp_path, capsys, field, value, command):
    doc = json.loads(open(instance(tmp_path, capsys)).read())
    doc[field] = value
    bad = write(tmp_path, "bad.json", json.dumps(doc))
    code, stdout, err = run(capsys, command[0], "--input", bad, *command[1:])
    assert code == 2
    assert stdout == ""
    assert "must be a JSON integer" in err
    assert "Traceback" not in err


# -- inputs past every bound --------------------------------------------------

# 103 bytes that declare 2^40 coordinates and no rows
HUGE_INSTANCE = ('{"format":"subspace","field":"GF(2)","variant":"V","n":40,"d":20,'
                 '"coord_count":1099511627776,"rows":[]}')


@pytest.mark.parametrize("command, err", [
    (("verify", "--input", "huge.json", "--vector", "two.vec"),
     f"error: vector has 2 coordinates, the subspace has {1 << 40}\n"),
    (("descend", "--input", "two.mat", "--instance", "huge.json"),
     "error: matrix shape (2, 2) does not match the index family "
     f"(side {basis_size(40, 20, 'V')})\n"),
], ids=["verify", "descend"])
def test_a_huge_instance_is_refused_without_its_bases(tmp_path, command, err):
    write(tmp_path, "huge.json", HUGE_INSTANCE)
    write(tmp_path, "two.vec", "1,0\n")
    write(tmp_path, "two.mat", FFMatrix.identity(GF2, 2).to_text())
    code, stdout, stderr, seconds = run_capped(tmp_path, *command)
    assert (code, stdout, stderr) == (2, "", err)
    assert seconds < 1.0


# 16777259 is the least prime above 2^24
@pytest.mark.parametrize("descriptor", ["GF(2^40)", "GF(2^99999999999)", "GF(16777259)"])
@pytest.mark.parametrize("command", [
    ("reduce", "--mode", "direct", "--input", "big.qe", "--output", "out.json"),
    ("minrank", "--input", "big.json"),
    ("verify", "--input", "big.json", "--assignment", "1,1"),
], ids=["reduce", "minrank", "verify"])
def test_fields_past_the_size_bound_are_refused(tmp_path, descriptor, command):
    write(tmp_path, "big.qe", f"field: {descriptor}\nx1 + x2\n")
    doc = {"format": "subspace", "field": descriptor, "variant": "V", "n": 2, "d": 1, "rows": []}
    write(tmp_path, "big.json", json.dumps(doc))
    code, stdout, err, seconds = run_capped(tmp_path, *command)
    assert (code, stdout) == (2, "")
    assert f"{descriptor} has more than 2^24 elements, the largest field supported\n" in err
    assert seconds < 1.0


@pytest.mark.parametrize("command", ["decompose", "descend"])
def test_a_packed_row_narrower_than_its_header_is_refused(tmp_path, command):
    # 26 bytes that promise 99,999,999,999 columns
    write(tmp_path, "wide.mat", "1 99999999999 GF(2) hex\n1\n")
    code, stdout, stderr, seconds = run_capped(tmp_path, command, "--input", "wide.mat")
    assert (code, stdout) == (2, "")
    assert stderr == ("error: line 2: hex row is 1 characters wide, "
                      "99999999999 columns need 25000000000 digits\n")
    assert seconds < 1.0


LONG = "1" * 5000


@pytest.mark.parametrize("source, err", [
    (f"field: GF(2)\nx{LONG} + x2\n", "variable index of 5000 digits exceeds the cap of 61"),
    (f"field: GF(2)\nn: {LONG}\nx1 + x2\n", "n of 5000 digits exceeds the cap of 61"),
], ids=["index", "n"])
@pytest.mark.parametrize("command", [
    ("reduce", "--mode", "direct", "--input", "long.qe", "--output", "out.json"),
    ("decode", "--source", "long.qe", "--vector", "three.vec"),
], ids=["reduce", "decode"])
def test_long_digit_strings_in_a_source_are_refused(tmp_path, monkeypatch, capsys, source, err, command):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "long.qe", source)
    write(tmp_path, "three.vec", "1,0,0\n")
    assert run(capsys, *command) == (2, "", f"error: {err}\n")


GF4 = make_field(2, 2)


def descend_member(tmp_path, capsys, source, vector):
    """descend --instance on the direct reduction of source and the
    expansion of one of its members."""
    inst = str(tmp_path / "src.json")
    code, _, _ = run(capsys, "reduce", "--mode", "direct", "--input",
                     write(tmp_path, "src.qe", source), "--output", inst)
    assert code == 0
    space = SubspaceSpec.from_text(Path(inst).read_text())
    assert space.contains(vector)
    mat = write(tmp_path, "member.mat", space.expand(vector).to_text())
    return run(capsys, "descend", "--input", mat, "--instance", inst)


def test_descend_refuses_an_instance_not_defined_over_gf2(tmp_path, capsys):
    # the minrank witness of this source; its rows carry the coefficients 2 and 3
    source = "field: GF(2^2)\nn: 2\n1\n2*x1 + 3*x2 + 2*x1*x2\n"
    assert descend_member(tmp_path, capsys, source, (0, 0, 1, 2)) == (
        2, "", "error: rank descent needs a GF(2)-defined subspace; "
               "constraint row 1 has a coefficient outside GF(2)\n")


def test_descend_takes_a_gf2_defined_instance_over_an_extension(tmp_path, capsys):
    # the member 2*(0,1,1,0) + (0,1,0,1) has entries outside GF(2)
    code, stdout, _ = descend_member(tmp_path, capsys, "field: GF(2^2)\nn: 2\nx1 + x2 + x1*x2\n",
                                     (0, 3, 2, 1))
    assert code == 0
    assert stdout.splitlines()[0] == "rank 3 over GF(2^2; 1,1,1) descends to rank 2 over GF(2)"


# -- parser -------------------------------------------------------------------


def test_main_reuses_one_parser_with_the_bytes_of_fresh_runs(tmp_path, capsys, monkeypatch):
    """Bad arguments, a failing command and good commands in one process
    build the argparse parser at most once, and print and write what each
    command gives in a process of its own."""
    calls = [
        ["minrank", "--bogus"],
        ["reduce", "--mode", "direct", "--input", "line.qe", "--output", "line.json"],
        ["verify", "--input", "line.json"],
        ["reduce"],
        ["verify", "--input", "line.json", "--assignment", "1,1", "--output", "verify.json"],
        ["minrank", "--input", "line.json"],
    ]
    outputs = ("line.json", "verify.json")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "rankgap":
            built.append(self)
        init(self, *args, **kwargs)

    here, fresh = tmp_path / "here", tmp_path / "fresh"
    for work in (here, fresh):
        work.mkdir()
        (work / "line.qe").write_text(LINE_SRC)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.chdir(here)
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        in_process.append((code, out, err, *((here / name).read_bytes() for name in outputs
                                              if (here / name).exists())))
    monkeypatch.undo()
    assert len(built) <= 1

    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(Path(rankgap.__file__).resolve().parent.parent))
    separate = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "rankgap", *argv], capture_output=True,
                              text=True, env=env, cwd=fresh)
        separate.append((done.returncode, done.stdout, done.stderr,
                         *((fresh / name).read_bytes() for name in outputs if (fresh / name).exists())))
    assert in_process == separate
    assert [result[0] for result in separate] == [2, 0, 2, 2, 0, 0]


# -- the cyclic collector -------------------------------------------------------


LINE_REDUCE = ["reduce", "--mode", "direct", "--input", "line.qe", "--output", "line.json"]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, raises, outcome", [
    (LINE_REDUCE, None, 0),
    (["verify", "--input", "missing.json", "--assignment", "1"], None, 2),
    ([*LINE_REDUCE, "--budget", "3"], None, 3),
    (["minrank", "--input", "line.json"], InternalConsistencyError("drifted"), 4),
    (["minrank", "--input", "line.json"], RuntimeError("escapes main"), RuntimeError),
    (["minrank", "--bogus"], None, SystemExit),
], ids=["exit-0", "exit-2", "exit-3", "exit-4", "runtime-error", "usage-error"])
def test_main_gives_the_caller_back_its_collector_setting(tmp_path, capsys, monkeypatch,
                                                         enabled, argv, raises, outcome):
    """main runs a command with the collector paused and leaves
    gc.isenabled() as it found it, on every exit code and on an exception
    that escapes it."""
    (tmp_path / "line.qe").write_text(LINE_SRC)
    monkeypatch.chdir(tmp_path)
    assert main(LINE_REDUCE) == 0
    seen = []

    def failing(*args, **kwargs):
        seen.append(gc.isenabled())
        raise raises

    if raises is not None:
        monkeypatch.setattr(rankgap.cli, "minrank_bruteforce", failing)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([False] if raises is not None else [])


def _load_perfbench(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # pipeline's "from corpus import" looks it up there
    spec.loader.exec_module(module)
    return module


def test_commands_leave_few_objects_in_cycles(tmp_path):
    """Every command of the benchmark's three pipelines, at smoke sizes,
    leaves fewer than 1,000 objects that only the cyclic collector can
    free (at most a few hundred: JSON encoder closures and the candidate
    pass), so a cycle of two objects made per row of the 672-row CNF
    instance would show here and not hide behind the paused collector."""
    corpus, pipeline = _load_perfbench("corpus"), _load_perfbench("pipeline")
    left = []

    class Counting:
        def main(self, argv):
            gc.collect()
            code = main(argv)
            left.append((argv[0], gc.collect()))
            return code

    was = gc.isenabled()
    gc.disable()
    try:
        for work in corpus.WORKLOADS.values():
            runner = pipeline.Runner(Counting(), tmp_path, repeats=1)
            for index in range(len(work.smoke_classes)):
                inst = work.instance(corpus.DEFAULT_SEED, index, smoke=True)
                out = pipeline.run_instance(runner, work, inst, f"{work.name}{index}")
                assert out.errors == {}
    finally:
        if was:
            gc.enable()
    assert {command for command, _ in left} == {"reduce", "verify", "minrank", "decode"}
    assert max(count for _, count in left) < 1000, left
