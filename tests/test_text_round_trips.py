"""Every text form reads back as the object that wrote it, and writes the
same bytes again: polynomials, matrices (plain and hex), instance files
and DIMACS."""

import random

from hypothesis import given, settings, strategies as st

from rankgap.boolalg import SquarefreePoly, basis_make, format_monomial, format_poly, parse_poly
from rankgap.frontends import CnfFormula, QuadSystemSource, parse_dimacs
from rankgap.gfarith import format_field, make_field
from rankgap.gflinalg import FFMatrix
from rankgap.moment import build_moment_subspace
from rankgap.subspace import SubspaceSpec
from rankgap.superposition import (
    build_constant_free_system,
    build_matrix_subspace,
    build_monomial_quad_system,
)

FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5), make_field(3, 2)]


def polys(field, masks):
    return st.dictionaries(st.sampled_from(masks), st.integers(0, field.q - 1), max_size=6).map(
        lambda coeffs: SquarefreePoly(field, coeffs))


@st.composite
def fields_and_polys(draw):
    field = draw(st.sampled_from(FIELDS))
    masks = (0, *basis_make(5, 6, "U").masks)
    return field, draw(polys(field, masks))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(fields_and_polys())
def test_poly_text_round_trip(case):
    field, poly = case
    text = format_poly(poly)
    assert parse_poly(text, field) == poly
    assert format_poly(parse_poly(text, field)) == text


def per_term_text(f):
    """A polynomial's text written one term at a time, each term placed by
    terms() and each monomial written by format_monomial: the writer that
    format_poly and QuadSystemSource.to_text must agree with."""
    parts = []
    for mask, c in f.terms():
        if mask == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(format_monomial(mask))
        else:
            parts.append(f"{c}*{format_monomial(mask)}")
    return " + ".join(parts) if parts else "0"


def test_source_text_is_the_per_term_text():
    """to_text sorts and writes each distinct monomial once for the whole
    system; on random systems over GF(2), GF(3), GF(4) and GF(5), zero
    equations included, it gives the per-term bytes, and so does
    format_poly on polynomials of any degree."""
    rng = random.Random(43)
    for field in FIELDS[:4]:
        for _ in range(50):
            n = rng.randint(1, 6)
            masks = [0, *basis_make(n, 2, "V").masks]
            equations = tuple(
                SquarefreePoly(field, {
                    mask: rng.randrange(field.q)
                    for mask in rng.sample(masks, rng.randint(0, len(masks)))
                })
                for _ in range(rng.randint(1, 5))
            )
            source = QuadSystemSource(field, n, equations)
            lines = [f"field: {format_field(field)}", f"n: {n}", *map(per_term_text, equations)]
            assert source.to_text() == "\n".join(lines) + "\n"
            wide = [0, *basis_make(n + 1, n + 1, "U").masks]
            poly = SquarefreePoly(field, {
                mask: rng.randrange(field.q) for mask in rng.sample(wide, min(8, len(wide)))
            })
            assert format_poly(poly) == per_term_text(poly)


@st.composite
def matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(st.integers(0, field.q - 1), min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return FFMatrix(field, rows, ncols)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(matrices())
def test_matrix_text_round_trip(matrix):
    forms = [False, True] if matrix.field.q == 2 else [False]
    for packed in forms:
        text = matrix.to_text(packed=packed)
        back = FFMatrix.from_text(text)
        assert back == matrix
        assert back.to_text(packed=packed) == text


@st.composite
def cnfs(draw, max_n=6, max_m=8):
    n = draw(st.integers(1, max_n))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.tuples(literal, literal, literal), max_size=max_m))
    return CnfFormula(n, tuple(clauses))


@st.composite
def spaces(draw):
    """A direct space over any of the fields, or a superposition space over
    GF(2) or GF(4) from a CNF of one or two clauses at d = 4."""
    if draw(st.booleans()):
        field = draw(st.sampled_from(FIELDS))
        n = draw(st.integers(1, 3))
        masks = (0, *basis_make(n, 2, "V").masks)
        equations = tuple(draw(st.lists(polys(field, masks), min_size=1, max_size=3)))
        return build_moment_subspace(QuadSystemSource(field, n, equations), draw(st.integers(1, 2)),
                                     provenance={"construction": "direct", "k": 1})
    cnf = draw(cnfs(max_n=3, max_m=2))
    field = draw(st.sampled_from([FIELDS[0], FIELDS[2]]))
    quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
    return build_matrix_subspace(quad, field=field, provenance={"source_sha256": cnf.source_hash()})


@settings(derandomize=True, max_examples=60, deadline=None)
@given(spaces())
def test_instance_text_round_trip(space):
    text = space.to_text()
    back = SubspaceSpec.from_text(text)
    assert back == space
    assert back.provenance == space.provenance
    assert back.to_text() == text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cnfs())
def test_dimacs_round_trip(cnf):
    text = cnf.to_dimacs()
    back = parse_dimacs(text)
    assert back == cnf
    assert back.to_dimacs() == text
