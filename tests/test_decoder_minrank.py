"""The direct decoder against the minrank oracle.

Two independent routes answer the same question about a small direct
instance: minrank_bruteforce ranks every nonzero member, and
decode_assignment rounds one member back to a Boolean point.  Whenever
the oracle finds a member of rank at most d, decoding its witness must
succeed with a common zero of the source; and a source with a Boolean
common zero, found here by trying every point, must have minrank 1.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from rankgap.boolalg import SquarefreePoly, basis_make
from rankgap.decoder import decode_assignment
from rankgap.frontends import QuadSystemSource
from rankgap.gfarith import make_field
from rankgap.moment import build_moment_subspace
from rankgap.oracles import minrank_bruteforce

FIELDS = [(2, 1), (3, 1), (2, 2)]


@st.composite
def planted_sources(draw):
    """(source, k): one to three equations of at most four terms over
    GF(2), GF(3) or GF(4) in one to three variables, at k = 1 or 2.  When
    plant is drawn, each equation's constant term is set so that a drawn
    Boolean point is a common zero."""
    field = make_field(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(1, 3))
    plant = draw(st.booleans())
    point = draw(st.tuples(*[st.integers(0, 1)] * n))
    masks = basis_make(n, 2, "V").masks
    equations = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.dictionaries(st.sampled_from(masks), st.integers(0, field.q - 1), max_size=4))
        poly = SquarefreePoly(field, coeffs)
        if plant:
            coeffs[0] = field.sub(coeffs.get(0, 0), poly.evaluate(point, first_var=1))
            poly = SquarefreePoly(field, coeffs)
        equations.append(poly)
    return QuadSystemSource(field, n, tuple(equations)), draw(st.integers(1, 2))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(planted_sources())
def test_decoder_rounds_every_low_rank_witness(case):
    src, k = case
    space = build_moment_subspace(src, k)
    report = minrank_bruteforce(space, budget=1 << 16)
    satisfiable = any(src.satisfied_by(a) for a in product((0, 1), repeat=src.n))
    if satisfiable:
        assert (report.status, report.minrank) == ("ok", 1)
    if report.status == "ok" and report.minrank <= space.d:
        decoded = decode_assignment(space.vector(report.witness), src)
        assert decoded.ok
        assert src.satisfied_by(decoded.assignment)
