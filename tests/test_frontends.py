"""CNF and quadratic-system frontends: parsing, padding, polynomial forms."""

import random

import pytest

from rankgap.boolalg import mask_of
from rankgap.errors import ParseError, PreconditionError
from rankgap.frontends import (
    QuadSystemSource,
    booleanity_polynomial,
    clause_polynomial,
    parse_dimacs,
    parse_quadeq,
)
from rankgap.gfarith import make_field

GF2 = make_field(2)
GF3 = make_field(3)


def test_parse_dimacs_basic():
    f = parse_dimacs("c a comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    assert f.n == 3 and f.m == 2
    assert f.clauses == ((1, -2, 3), (-1, 2, -3))


def test_parse_dimacs_pads_short_clauses():
    f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert f.clauses == ((1, -2, -2),)
    g = parse_dimacs("p cnf 2 1\n-1 0\n")
    assert g.clauses == ((-1, -1, -1),)


def test_parse_dimacs_clause_spanning_lines():
    f = parse_dimacs("p cnf 3 1\n1\n2\n3 0\n")
    assert f.clauses == ((1, 2, 3),)


def test_parse_dimacs_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2: .*4 literals"):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    with pytest.raises(ParseError, match="line 2: literal 5 out of range"):
        parse_dimacs("p cnf 3 1\n5 0\n")
    with pytest.raises(ParseError, match="line 1: malformed header"):
        parse_dimacs("p cnf x 1\n")
    with pytest.raises(ParseError, match="line 1: clause before"):
        parse_dimacs("1 2 3 0\np cnf 3 1\n")
    with pytest.raises(ParseError, match="unterminated clause"):
        parse_dimacs("p cnf 3 1\n1 2 3\n")
    with pytest.raises(ParseError, match="promises 2 clauses, found 1"):
        parse_dimacs("p cnf 3 2\n1 2 3 0\n")
    with pytest.raises(ParseError, match="empty clause"):
        parse_dimacs("p cnf 3 1\n0\n")


def test_dimacs_round_trip():
    f = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-3 -3 1 0\n")
    assert parse_dimacs(f.to_dimacs()) == f
    assert f.source_hash() == parse_dimacs(f.to_dimacs()).source_hash()


def test_satisfied_by():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    assert f.satisfied_by((1, 0))
    assert f.satisfied_by((0, 1))
    assert not f.satisfied_by((0, 0))
    assert not f.satisfied_by((1, 1))
    with pytest.raises(PreconditionError):
        f.satisfied_by((1,))


def test_clause_polynomial_frozen():
    # all-positive single-variable clause collapses to x0 + x1
    p = clause_polynomial((1, 1, 1), 1)
    assert p.coeffs == {mask_of([0]): 1, mask_of([1]): 1}
    # all-negative collapses to x1
    q = clause_polynomial((-1, -1, -1), 1)
    assert q.coeffs == {mask_of([1]): 1}
    # mixed: (x0 + x1) * x2 * x2 = x0 x2 + x1 x2
    r = clause_polynomial((1, -2, -2), 2)
    assert r.coeffs == {mask_of([0, 2]): 1, mask_of([1, 2]): 1}


def test_clause_polynomial_is_falsity_indicator():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(3, 6)
        clause = tuple(
            rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3)
        )
        p = clause_polynomial(clause, n)
        assert p.degree <= 3
        for _ in range(10):
            z = tuple(rng.randint(0, 1) for _ in range(n))
            sat = any((z[abs(l) - 1] == 1) == (l > 0) for l in clause)
            val = p.evaluate((1,) + z)
            assert (val == 0) == sat


def test_clause_polynomial_rejects_bad_input():
    with pytest.raises(PreconditionError):
        clause_polynomial((1, 2), 2)
    with pytest.raises(PreconditionError):
        clause_polynomial((1, 2, 4), 3)
    with pytest.raises(PreconditionError):
        clause_polynomial((0, 1, 1), 2)


def test_booleanity_polynomial():
    b = booleanity_polynomial(1, 3)
    assert b.coeffs == {mask_of([1]): 1, mask_of([0, 1]): 1}
    # vanishes on homogenized Boolean points, not on the a0=0 slice with x1=1
    assert b.evaluate((1, 0, 0, 0)) == 0
    assert b.evaluate((1, 1, 1, 0)) == 0
    assert b.evaluate((0, 1, 0, 0)) == 1
    with pytest.raises(PreconditionError):
        booleanity_polynomial(4, 3)


def test_parse_quadeq_basic():
    s = parse_quadeq("GF(2)\nx1 + 1; x1*x2\n")
    assert s.field == GF2
    assert s.n == 2 and s.m == 2
    assert s.equations[0].coeffs == {0: 1, mask_of([1]): 1}
    assert s.equations[1].coeffs == {mask_of([1, 2]): 1}


def test_parse_quadeq_field_prefix_and_n_pin():
    s = parse_quadeq("field: GF(3); n: 4; x1 - x2\n")
    assert s.field == GF3
    assert s.n == 4
    assert s.equations[0].coeffs == {mask_of([1]): 1, mask_of([2]): 2}


def test_parse_quadeq_round_trip():
    s = parse_quadeq("GF(2^2; 1,1,1)\nn: 3\n2*x1*x3 + x2 + 1\nx3\n")
    t = parse_quadeq(s.to_text())
    assert t == s
    assert t.source_hash() == s.source_hash()


def test_parse_quadeq_errors():
    with pytest.raises(ParseError, match="field descriptor"):
        parse_quadeq("x1 + x2\n")
    with pytest.raises(ParseError):
        parse_quadeq("")
    with pytest.raises(ParseError, match="no equations"):
        parse_quadeq("GF(2)\n")
    with pytest.raises(ParseError, match="x0 is reserved"):
        parse_quadeq("GF(2)\nx0 + x1\n")
    with pytest.raises(ParseError, match="smaller than the largest"):
        parse_quadeq("GF(2); n: 1; x1*x2\n")
    with pytest.raises(PreconditionError, match="degree 3"):
        parse_quadeq("GF(2)\nx1*x2*x3\n")


def test_quad_system_satisfied_by():
    s = parse_quadeq("GF(3)\nx1 + 2*x2\nx1*x2\n")
    # x1 + 2 x2 = 0 over GF(3) at Boolean points: (0,0) and (1,1); x1 x2 kills (1,1)
    assert s.satisfied_by((0, 0))
    assert not s.satisfied_by((1, 1))
    assert not s.satisfied_by((1, 0))
    with pytest.raises(PreconditionError, match="Boolean"):
        s.satisfied_by((2, 0))


def test_quad_system_validation():
    with pytest.raises(PreconditionError, match="different field"):
        QuadSystemSource(
            field=GF2,
            n=2,
            equations=(parse_quadeq("GF(3)\nx1\n").equations[0],),
        )
    with pytest.raises(PreconditionError, match="outside"):
        QuadSystemSource(
            field=GF2,
            n=1,
            equations=(parse_quadeq("GF(2)\nx1*x2\n").equations[0],),
        )
