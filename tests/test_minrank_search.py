"""The level-by-level minrank search against the plain Gray-code scan.

minrank_bruteforce decides low levels with the candidate pass and hands
the rest to the scan with a lower bound.  On random small direct specs
its answer must equal the scan's alone, run with no lower bound over the
kernel exactly as space.kernel_basis() returns it.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

import rankgap.oracles as oracles
from rankgap.boolalg import SquarefreePoly, basis_make
from rankgap.frontends import QuadSystemSource
from rankgap.gfarith import make_field
from rankgap.moment import build_moment_subspace

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


@st.composite
def direct_specs(draw):
    """(space, level): a direct space of one to three equations of at most
    four terms, at k = 1 or 2, planted with a Boolean zero when sat is
    drawn, and a level in 0..d.  Fields past GF(4) get two variables so
    kernels stay small."""
    p, e = draw(st.sampled_from(FIELDS))
    field = make_field(p, e)
    n = draw(st.integers(1, 3 if field.q <= 4 else 2))
    k = draw(st.integers(1, 2))
    sat = draw(st.booleans())
    point = draw(st.tuples(*[st.integers(0, 1)] * n))
    masks = basis_make(n, 2, "V").masks
    equations = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.dictionaries(st.sampled_from(masks), st.integers(0, field.q - 1), max_size=4))
        poly = SquarefreePoly(field, coeffs)
        if sat:
            coeffs[0] = field.sub(coeffs.get(0, 0), poly.evaluate(point, first_var=1))
            poly = SquarefreePoly(field, coeffs)
        equations.append(poly)
    space = build_moment_subspace(QuadSystemSource(field, n, tuple(equations)), k)
    return space, draw(st.integers(0, space.d))


def test_search_matches_scan(monkeypatch):
    calls = Counter()
    real_pass, real_scan = oracles._candidate_pass, oracles._scan

    def counted_pass(*args):
        least = real_pass(*args)
        calls["pass decided" if least is not None else "pass ruled out"] += 1
        return least

    def counted_scan(*args):
        calls["scan"] += 1
        return real_scan(*args)

    monkeypatch.setattr(oracles, "_candidate_pass", counted_pass)
    monkeypatch.setattr(oracles, "_scan", counted_scan)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(direct_specs())
    def check(spec):
        space, level = spec
        report = oracles.minrank_bruteforce(space, level=level, budget=1 << 12)
        if report.status != "ok":
            return
        kernel = space.kernel_basis()
        positions = oracles._expansion_positions(space, level)
        minrank, witness = real_scan(space.field, kernel, positions, space.coord_count)
        enumerated = space.field.q ** len(kernel) - 1
        assert (report.minrank, report.witness, report.enumerated) == (minrank, witness, enumerated)

    check()
    assert calls["pass decided"] and calls["pass ruled out"] and calls["scan"], calls
