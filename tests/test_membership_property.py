"""Sparse membership against the independent oracle, on random small spaces.

SubspaceSpec.membership_violation sums each sparse constraint row through
the field.  oracles.check_membership uses other arithmetic: over GF(2) a
row's value is the parity of its hits on the vector's support, with no
field operation, and over other fields each row is expanded to a dense row
of its own.  For any vector both must name the same first violated row:
random vectors, which mostly violate one, the honest vectors of Boolean
points, which are members exactly when the point satisfies the source, and
vectors that violate only a late row.  The GF(2) spaces include the CNF
reduction's, which hold empty rows.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rankgap.boolalg import SquarefreePoly, basis_make
from rankgap.frontends import QuadSystemSource, parse_dimacs
from rankgap.gfarith import FieldSpec, make_field
from rankgap.gflinalg import FFMatrix
from rankgap.moment import build_moment_subspace
from rankgap.oracles import check_membership
from rankgap.subspace import SubspaceSpec, honest_moment_vector
from rankgap.superposition import (
    build_constant_free_system,
    build_matrix_subspace,
    build_monomial_quad_system,
)

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


@st.composite
def sources(draw):
    """A direct source of one to three equations of at most four terms over
    one to three variables, and k = 1 or 2."""
    field = make_field(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(1, 3))
    masks = (0, *basis_make(n, 2, "V").masks)
    equations = tuple(
        SquarefreePoly(field, draw(st.dictionaries(
            st.sampled_from(masks), st.integers(0, field.q - 1), max_size=4)))
        for _ in range(draw(st.integers(1, 3)))
    )
    return QuadSystemSource(field, n, equations), draw(st.integers(1, 2))


def assert_oracles_agree(space, values):
    violated = space.membership_violation(values)
    assert check_membership(values, space).violated_row == violated
    return violated


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sources(), st.randoms(use_true_random=False))
def test_sparse_and_dense_membership_agree_on_random_vectors(source, rng):
    src, k = source
    space = build_moment_subspace(src, k)
    q = space.field.q
    for _ in range(5):
        assert_oracles_agree(space, [rng.randrange(q) for _ in range(space.coord_count)])
    assert assert_oracles_agree(space, [0] * space.coord_count) is None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sources())
def test_sparse_and_dense_membership_agree_on_honest_vectors(source):
    src, k = source
    space = build_moment_subspace(src, k)
    for point in product((0, 1), repeat=src.n):
        honest = honest_moment_vector(space.field, point, space.n, 2 * space.d, space.variant)
        violated = assert_oracles_agree(space, honest.values)
        assert (violated is None) == src.satisfied_by(point)


# -- GF(2): the parity of each row's hits on the support ------------------------

GF2 = make_field(2)


@st.composite
def cnf_spaces(draw):
    """The CNF reduction's space over GF(2) of one to four clauses of width
    one to three over n <= 5 variables, at d = 3 or 4, with the formula."""
    n = draw(st.integers(3, 5))
    clauses = [
        [v if draw(st.booleans()) else -v
         for v in draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))]
        for _ in range(draw(st.integers(1, 4)))
    ]
    text = f"p cnf {n} {len(clauses)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in clauses)
    cnf = parse_dimacs(text)
    d = draw(st.sampled_from((3, 4)))
    quad = build_monomial_quad_system(build_constant_free_system(cnf, d))
    return build_matrix_subspace(quad, GF2), cnf


@st.composite
def gf2_direct_spaces(draw):
    """The moment space of a GF(2) source over two to four variables, with
    up to three empty rows inserted, and the source.  Rows are only ever
    added, never blanked, so the honest vector of a point is a member
    exactly when the point satisfies the source."""
    n = draw(st.integers(2, 4))
    masks = (0, *basis_make(n, 2, "V").masks)
    equations = tuple(
        SquarefreePoly(GF2, {m: 1 for m in draw(st.sets(st.sampled_from(masks), max_size=5))})
        for _ in range(draw(st.integers(1, 3)))
    )
    src = QuadSystemSource(GF2, n, equations)
    space = build_moment_subspace(src, draw(st.integers(1, 2)))
    rows = list(space.rows)
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), ())
    return SubspaceSpec(GF2, space.variant, space.n, space.d, tuple(rows)), src


def honest(space, point):
    full = (1, *point) if space.variant == "U" else point
    return honest_moment_vector(GF2, full, space.n, 2 * space.d, space.variant).values


def late_violators(space, rng):
    """Vectors whose first violated row is the last distinct row that does
    not follow from the ones before it: a member of the earlier rows'
    kernel, from the dense matrix's kernel basis, that the row takes to 1."""
    distinct = space.distinct_rows
    for at in reversed(range(len(distinct))):
        k, row = distinct[at]
        dense = [[0] * space.coord_count for _ in range(at)]
        for entries, (_, earlier) in zip(dense, distinct):
            for pos, _ in earlier:
                entries[pos] = 1
        kernel = FFMatrix(GF2, dense, space.coord_count).kernel_basis()
        hits = [v for v in kernel if sum(v[pos] for pos, _ in row) % 2]
        if hits:
            out = []
            for _ in range(3):
                vec = list(hits[rng.randrange(len(hits))])
                for v in kernel:
                    if rng.random() < 0.5:
                        vec = [a ^ b for a, b in zip(vec, v)]
                # an even number of hits from the rest keeps row k at 1
                if sum(vec[pos] for pos, _ in row) % 2 == 0:
                    vec = [a ^ b for a, b in zip(vec, hits[0])]
                out.append((k, vec))
            return out
    return []


def assert_gf2_oracles_agree(space, rng, points):
    for _ in range(5):
        assert_oracles_agree(space, [rng.randrange(2) for _ in range(space.coord_count)])
    assert assert_oracles_agree(space, [0] * space.coord_count) is None
    for point, satisfied in points:
        violated = assert_oracles_agree(space, honest(space, point))
        assert (violated is None) == satisfied
    for k, vec in late_violators(space, rng):
        assert assert_oracles_agree(space, vec) == k


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cnf_spaces(), st.randoms(use_true_random=False))
def test_gf2_parity_agrees_on_cnf_spaces(space_cnf, rng):
    space, cnf = space_cnf
    assert any(not row for row in space.rows)
    points = [(z, cnf.satisfied_by(z)) for z in product((0, 1), repeat=cnf.n)]
    assert_gf2_oracles_agree(space, rng, points)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(gf2_direct_spaces(), st.randoms(use_true_random=False))
def test_gf2_parity_agrees_on_direct_spaces(space_src, rng):
    space, src = space_src
    points = [(z, src.satisfied_by(z)) for z in product((0, 1), repeat=src.n)]
    assert_gf2_oracles_agree(space, rng, points)


def test_gf2_membership_calls_no_field_operation(monkeypatch):
    cnf = parse_dimacs("p cnf 4 3\n1 -2 3 0\n-1 2 4 0\n2 3 -4 0\n")
    space = build_matrix_subspace(
        build_monomial_quad_system(build_constant_free_system(cnf, 4)), GF2)
    member = honest(space, (1, 1, 1, 1))
    outsider = honest(space, (0, 1, 0, 1))
    want = [space.membership_violation(v) for v in (member, outsider)]
    assert want[0] is None and want[1] is not None

    def refuse(*args):
        raise AssertionError("field operation called")

    monkeypatch.setattr(FieldSpec, "add", refuse)
    monkeypatch.setattr(FieldSpec, "mul", refuse)
    with pytest.raises(AssertionError, match="field operation"):
        space.membership_violation(outsider)
    assert [check_membership(v, space).violated_row for v in (member, outsider)] == want
