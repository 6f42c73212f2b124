"""localizing_rows builds each distinct row once and returns what the
plain loop returns.

The plain loop, kept here as the reference, multiplies each source by each
of its shifts, ranks and sorts every product and then shares equal rows.
localizing_rows multiplies a source only on its own variables and reuses
a row whose (product, outer shift) pair it has seen.  Both must give the
same rows in the same order, the same sharing of row objects, and the
same first error on a term outside the coordinates; localizing_rows also
reports where each distinct row first appears.
"""

from functools import reduce
from operator import or_

import pytest
from hypothesis import assume, given, settings, strategies as st

from rankgap.boolalg import SquarefreePoly, basis_make, mask_of
from rankgap.errors import PreconditionError
from rankgap.gfarith import make_field
from rankgap.subspace import localizing_rows

FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5)]
GF2, GF3 = FIELDS[:2]


def reference_rows(coords, sources):
    """Every source times every shift: f.shift(w), ranked and sorted, and
    only then equal rows shared, first-seen object kept."""
    rank, shared = coords.rank, {}
    rows = (
        tuple(sorted(zip(map(rank, p.coeffs), p.coeffs.values())))
        for f, shifts in sources
        for p in map(f.shift, shifts)
    )
    return tuple(shared.setdefault(row, row) for row in rows)


def sharing(rows):
    """For each row, the index of the first row that is the same object."""
    first = {}
    return [first.setdefault(id(row), k) for k, row in enumerate(rows)]


def outcome(build, coords, sources):
    try:
        return build(coords, sources), None
    except PreconditionError as exc:
        return None, str(exc)


def assert_same_rows(coords, sources):
    expected, expected_error = outcome(reference_rows, coords, sources)
    built, error = outcome(localizing_rows, coords, sources)
    assert error == expected_error
    if expected is not None:
        got, distinct = built
        assert got == expected
        assert sharing(got) == sharing(expected)
        first = sorted(set(sharing(got)))
        assert [k for k, _ in distinct] == first
        assert all(row is got[k] for k, row in distinct)


@st.composite
def cases(draw):
    """Coordinates of one variant and degree, and up to six sources drawn
    from a pool of three polynomials over at most three of the variables,
    constant terms allowed, each with shifts in any order, repeats
    included.  Shifts may push a product past the coordinates' degree."""
    field = draw(st.sampled_from(FIELDS))
    variant = draw(st.sampled_from("UV"))
    n = draw(st.integers(1, 4))
    degree = draw(st.integers(1, 4))
    coords = basis_make(n, degree, variant)
    symbols = list(range(n + 1)) if variant == "U" else list(range(1, n + 1))
    own = draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=3, unique=True))
    monomials = [0] + [mask_of(s) for s in _subsets(own) if s]
    poly = st.dictionaries(
        st.sampled_from(monomials), st.integers(1, field.q - 1), min_size=1, max_size=4
    ).map(lambda coeffs: SquarefreePoly(field, coeffs))
    pool = draw(st.lists(poly, min_size=1, max_size=3))
    masks = [0] + [mask_of(s) for s in _subsets(symbols) if 0 < len(s) <= 2]
    shift_lists = st.lists(st.sampled_from(masks), max_size=12).map(tuple)
    sources = draw(st.lists(st.tuples(st.sampled_from(pool), shift_lists), min_size=1, max_size=6))
    return coords, sources


def _subsets(items):
    return [[x for i, x in enumerate(items) if bits >> i & 1] for bits in range(1 << len(items))]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(cases())
def test_rows_match_the_plain_loop(case):
    coords, sources = case
    assert_same_rows(coords, sources)


def own_variables(f):
    return reduce(or_, f.coeffs, 0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(cases())
def test_each_source_is_multiplied_only_on_its_own_variables(case):
    coords, sources = case
    made = []
    real_shift = SquarefreePoly.shift

    def shift(self, mask):
        made.append((self, mask))
        return real_shift(self, mask)

    SquarefreePoly.shift = shift
    try:
        outcome(localizing_rows, coords, sources)
    finally:
        SquarefreePoly.shift = real_shift
    assert all(not mask & ~own_variables(f) for f, mask in made)
    assert len(made) <= sum(2 ** own_variables(f).bit_count() for f, _ in sources)


@pytest.mark.parametrize("field, variant, n, coeffs, shifts", [
    # (x_1 + x_0 x_1) x_0 = x_0 x_1 + x_0 x_1 = 0 over GF(2)
    (GF2, "U", 2, {mask_of([1]): 1, mask_of([0, 1]): 1}, (0, mask_of([0]), mask_of([2]), mask_of([0, 2]))),
    # (x1 + 2 x1 x2) x2 = x1 x2 + 2 x1 x2 = 0 over GF(3)
    (GF3, "V", 2, {mask_of([1]): 1, mask_of([1, 2]): 2}, (mask_of([2]), 0, mask_of([2]), mask_of([1]))),
])
def test_cancelled_products_are_empty_rows(field, variant, n, coeffs, shifts):
    coords = basis_make(n, 4, variant)
    f = SquarefreePoly(field, coeffs)
    rows, _ = localizing_rows(coords, [(f, shifts), (f, shifts[::-1])])
    assert () in rows
    assert_same_rows(coords, [(f, shifts), (f, shifts[::-1])])


def test_first_out_of_range_term_is_named():
    """A constant term shifted by nothing has no U coordinate, and a
    product past the degree has none either; the error names the first
    such term the plain loop meets."""
    f = SquarefreePoly(GF3, {0: 1, mask_of([1, 2]): 2})
    coords = basis_make(3, 3, "U")
    with pytest.raises(PreconditionError, match="not in this basis"):
        localizing_rows(coords, [(f, (mask_of([3]), 0))])
    assert_same_rows(coords, [(f, (mask_of([3]), 0))])
    assert_same_rows(coords, [(f, (mask_of([0]), mask_of([0, 3]), mask_of([1, 3])))])


def test_a_later_row_names_the_first_bad_term_in_product_order():
    """A product's later row ranks in coordinate order, where x0 x1 x3
    comes before x0 x1 x2 x3; the plain loop meets x0 x1 x2 x3 first."""
    g = SquarefreePoly(GF2, {mask_of([1, 2]): 1, mask_of([1]): 1})
    coords = basis_make(3, 2, "U")
    with pytest.raises(PreconditionError, match="x0\\*x1\\*x2\\*x3"):
        localizing_rows(coords, [(g, (0, mask_of([0, 3])))])
    assert_same_rows(coords, [(g, (0, mask_of([0, 3])))])


@st.composite
def disjoint_shifts(draw):
    """A whole basis_make family, two distinct masks m and m' inside a set
    S of at least two symbols, and a mask o outside S; every m is in the
    family (nonempty in U)."""
    variant = draw(st.sampled_from("UV"))
    n = draw(st.integers(2, 6))
    symbols = list(range(n + 1)) if variant == "U" else list(range(1, n + 1))
    inside = draw(st.lists(st.sampled_from(symbols), min_size=2, max_size=len(symbols), unique=True))
    outside = [s for s in symbols if s not in inside]
    subsets = st.lists(st.sampled_from(inside), min_size=variant == "U", unique=True).map(mask_of)
    m, m2 = draw(subsets), draw(subsets)
    assume(m != m2)
    o = mask_of(draw(st.lists(st.sampled_from(outside), unique=True)) if outside else [])
    return basis_make(n, len(symbols), variant), m, m2, o


@settings(derandomize=True, max_examples=400, deadline=None)
@given(disjoint_shifts())
def test_a_disjoint_shift_keeps_the_coordinate_order(case):
    """The lemma localizing_rows sorts each product by once: m | o and
    m' | o rank in the order m and m' do when o misses both."""
    coords, m, m2, o = case
    assert (coords.rank(m) < coords.rank(m2)) == (coords.rank(m | o) < coords.rank(m2 | o))
