"""A CNF reduced over GF(2^r) against its GF(2) twin.

The superposition reduction writes every row with coefficients 1 whatever
the field, so the GF(2^2) and GF(2^3) instances of a CNF must hold the
GF(2) instance's rows, and, since the reduced echelon basis of a space
defined over GF(2) is unique and has GF(2) entries, its kernel basis.  A
GF(2) member is a GF(2^r) member of the same rank, and rank descent maps a
GF(2^r) member of rank t to a GF(2) member of rank at most r·t, so
minrank_{2^r} <= minrank_2 <= r·minrank_{2^r} wherever both searches fit
the budget.  rankgap descend --instance, given the expansion of the
GF(2^r) witness and the GF(2) instance, must check both ends against that
instance and keep the bound.  The extension minrank may be strictly
lower; none of these CNFs has one, and the test does not ask."""

import json
import random

from rankgap.cli import main
from rankgap.errors import BudgetExceededError
from rankgap.gfarith import make_field
from rankgap.gflinalg import FFMatrix
from rankgap.oracles import minrank_bruteforce
from rankgap.subspace import SubspaceSpec

GF2 = make_field(2)
EXTENSIONS = [(2, "GF(2^2)"), (3, "GF(2^3)")]
# (n, clauses, degree), each CNF drawn from its own seed; the n = 6 kernel
# of 29 is past the budget, and three of the others have minrank 14 or 30
CASES = [(3, 10, 3), (3, 14, 3), (3, 14, 4), (4, 20, 3), (4, 30, 3), (4, 24, 4), (4, 40, 4), (5, 60, 4), (6, 60, 4)]


def random_cnf(rng, n, m):
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), 3)
        clauses.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in variables) + " 0")
    return f"p cnf {n} {m}\n" + "\n".join(clauses) + "\n"


def reduce(tmp_path, capsys, cnf, field, degree):
    out = tmp_path / f"{field}.json"
    argv = ["reduce", "--mode", "superposition", "--input", str(cnf), "--field", field,
            "--degree", str(degree), "--relaxed", "--output", str(out)]
    assert main(argv) == 0, capsys.readouterr().err
    return out, SubspaceSpec.from_text(out.read_text())


def minrank(space):
    try:
        report = minrank_bruteforce(space, budget=1 << 16)
    except BudgetExceededError:
        return None
    return report if report.status == "ok" else None


def test_extension_instances_are_their_gf2_twins(tmp_path, capsys):
    searched = 0
    for n, m, degree in CASES:
        rng = random.Random(f"extension twins/{n}/{m}/{degree}")
        cnf = tmp_path / "source.cnf"
        cnf.write_text(random_cnf(rng, n, m))
        base_path, base = reduce(tmp_path, capsys, cnf, "GF(2)", degree)
        base_report = minrank(base)
        for r, name in EXTENSIONS:
            _, ext = reduce(tmp_path, capsys, cnf, name, degree)
            assert ext.rows == base.rows
            assert ext.kernel_basis() == base.kernel_basis()
            report = minrank(ext)
            if base_report is None or report is None:
                continue
            searched += 1
            t = report.minrank
            assert t <= base_report.minrank <= r * t
            matrix = ext.vector(report.witness).expand(ext.d)
            mat, out = tmp_path / "witness.mat", tmp_path / "descended.json"
            mat.write_text(matrix.to_text())
            argv = ["descend", "--input", str(mat), "--instance", str(base_path), "--output", str(out)]
            assert main(argv) == 0, capsys.readouterr().err
            doc = json.loads(out.read_text())
            assert doc["rank_extension"] == t and 0 < doc["rank_gf2"] <= r * t
            assert base.matrix_violation(FFMatrix(GF2, doc["rows"])) is None
    capsys.readouterr()
    # most cases reach the searches; which ones is fixed by the seeds
    assert searched == 13, searched
