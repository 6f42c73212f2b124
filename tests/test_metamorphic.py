"""Metamorphic relations: a CNF restated must give the same answers.

Shuffling the clauses, shuffling the literals within each clause, or
repeating a clause states the same formula with the same clause
polynomials, so the reduction must give the same set of distinct
constraint rows, and, the reduced echelon kernel being unique for a row
space, the same kernel basis.  minrank must then refuse at budget 1 with
the same text and, at a budget its kernel fits, give the same report
apart from the hashes that name the instance.  Each relation is checked
in process, on the space the reduction builds, and through
rankgap.cli.main, on the files reduce writes.  A repeated clause is put
in at any position, the front included, so that the first source itself
changes.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import settings, strategies as st, given

from rankgap.cli import main
from rankgap.errors import BudgetExceededError
from rankgap.frontends import parse_dimacs
from rankgap.gfarith import make_field
from rankgap.oracles import minrank_bruteforce
from rankgap.superposition import (
    build_constant_free_system,
    build_matrix_subspace,
    build_monomial_quad_system,
    choose_degree,
)

GF2 = make_field(2)
D = choose_degree(1, 1, 4.0).d


@st.composite
def cnfs(draw):
    """(n, clauses): 1 to 2n clauses of 1 to 3 distinct literals over
    n <= 5 variables, each satisfied by a planted point, so the kernel
    holds its honest vector and minrank has members to search."""
    n = draw(st.integers(2, 5))
    point = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True).flatmap(
        lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs])
    )

    def satisfied(c):
        if any(point[abs(lit) - 1] == (lit > 0) for lit in c):
            return c
        return (-c[0], *c[1:])

    return n, draw(st.lists(clause.map(satisfied), min_size=1, max_size=2 * n))


def shuffled_clauses(clauses, draw):
    return draw(st.permutations(clauses))


def shuffled_literals(clauses, draw):
    return [tuple(draw(st.permutations(clause))) for clause in clauses]


def repeated_clause(clauses, draw):
    copy = draw(st.sampled_from(clauses))
    at = draw(st.integers(0, len(clauses)))
    return [*clauses[:at], copy, *clauses[at:]]


RELATIONS = [shuffled_clauses, shuffled_literals, repeated_clause]


def dimacs(n, clauses):
    return f"p cnf {n} {len(clauses)}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)


def build(n, clauses):
    """The space reduce builds, shorter clauses padded as parse_dimacs pads
    them."""
    quad = build_monomial_quad_system(build_constant_free_system(parse_dimacs(dimacs(n, clauses)), D))
    return build_matrix_subspace(quad, field=GF2)


def minrank_outcome(space, budget):
    """minrank's report less its hash, or its refusal."""
    try:
        report = minrank_bruteforce(space, budget=budget)
    except BudgetExceededError as exc:
        return ("refused", str(exc))
    return ("ok", report.to_json() | {"subspace_hash": None})


def in_process(n, clauses, budget):
    space = build(n, clauses)
    return (
        {row for _, row in space.distinct_rows},
        space.kernel_basis(),
        minrank_outcome(space, 1),
        minrank_outcome(space, budget),
    )


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def through_cli(n, clauses, budget):
    """minrank at budget 1 and at budget on the file reduce writes: each
    run's exit code, stdout and stderr, and its report less its hashes."""
    with tempfile.TemporaryDirectory() as work:
        src, inst = os.path.join(work, "f.cnf"), os.path.join(work, "f.json")
        with open(src, "w") as handle:
            handle.write(dimacs(n, clauses))
        assert run("reduce", "--mode", "superposition", "--input", src, "--output", inst)[0] == 0
        outcomes = []
        for allowed in (1, budget):
            report = os.path.join(work, f"{allowed}.json")
            outcome = run("minrank", "--input", inst, "--budget", str(allowed), "--output", report)
            doc = None
            if os.path.exists(report):
                with open(report) as handle:
                    doc = json.load(handle)
                doc["subspace_hash"] = doc["provenance"]["instance_sha256"] = None
            outcomes.append((outcome, doc))
        return outcomes


def fitting_budget(n, clauses):
    return GF2.q ** build(n, clauses).dimension()


@pytest.mark.parametrize("restate", RELATIONS, ids=lambda f: f.__name__)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(cnfs(), st.data())
def test_a_restated_cnf_builds_the_same_space(restate, cnf, data):
    n, clauses = cnf
    budget = fitting_budget(n, clauses)
    assert in_process(n, restate(clauses, data.draw), budget) == in_process(n, clauses, budget)


@pytest.mark.parametrize("restate", RELATIONS, ids=lambda f: f.__name__)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(cnfs(), st.data())
def test_a_restated_cnf_gives_the_same_minrank_answers(restate, cnf, data):
    n, clauses = cnf
    budget = fitting_budget(n, clauses)
    got = through_cli(n, restate(clauses, data.draw), budget)
    assert got == through_cli(n, clauses, budget)
    (refused, _), (fits, report) = got
    assert refused[0] == 3 and fits[0] == 0 and report["status"] == "ok"
