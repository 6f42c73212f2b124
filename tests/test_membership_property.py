"""Sparse membership against the dense oracle, on random small spaces.

SubspaceSpec.membership_violation evaluates the sparse constraint rows;
oracles.check_membership expands each row to a dense row of its own.  For
any vector both must name the same first violated row: random vectors,
which mostly violate one, and the honest vectors of Boolean points, which
are members exactly when the point satisfies the source.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from rankgap.boolalg import SquarefreePoly, basis_make
from rankgap.frontends import QuadSystemSource
from rankgap.gfarith import make_field
from rankgap.moment import build_moment_subspace
from rankgap.oracles import check_membership
from rankgap.subspace import honest_moment_vector

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
