"""The level-by-level minrank search against a naive enumeration.

minrank_bruteforce decides low levels with the candidate pass and hands
the rest to the scan with a lower bound.  On random small direct specs
its answer must equal the one read straight off the definition: every
nonzero combination of the kernel vectors, ranked by plain Gaussian
elimination over the field, the least coordinate vector winning among
the rank minimizers.  The reference checks the kernel it is handed and
shares nothing with the search but the field arithmetic.
"""

from collections import Counter
from itertools import product

from hypothesis import given, settings, strategies as st

import rankgap.oracles as oracles
from rankgap.boolalg import SquarefreePoly, basis_make
from rankgap.errors import BudgetExceededError
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


def naive_rank(field, rows):
    """Rank by forward elimination, one column at a time."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = field.inv(rows[rank][col])
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                scale = field.mul(rows[i][col], inverse)
                rows[i] = [field.sub(a, field.mul(scale, b)) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def naive_minrank(space, level):
    """(minrank, least minimizer) over every nonzero kernel member, after
    checking that space.kernel_basis() is a basis of the kernel."""
    field, count = space.field, space.coord_count
    kernel = space.kernel_basis()
    dense = []
    for row in space.rows:
        line = [0] * count
        for pos, coeff in row:
            line[pos] = coeff
        dense.append(line)
    assert len(kernel) == count - naive_rank(field, dense) == naive_rank(field, kernel)
    for vec in kernel:
        for line in dense:
            acc = 0
            for a, v in zip(line, vec):
                acc = field.add(acc, field.mul(a, v))
            assert acc == 0
    # the level's index family: coordinate monomials of at most level variables
    index = [mask for mask in space.coords.masks if mask.bit_count() <= level]
    where = {mask: c for c, mask in enumerate(space.coords.masks)}
    best = None
    for combo in product(range(field.q), repeat=len(kernel)):
        if not any(combo):
            continue
        y = [0] * count
        for c, vec in zip(combo, kernel):
            for i, v in enumerate(vec):
                y[i] = field.add(y[i], field.mul(c, v))
        matrix = [[y[where[s | t]] for t in index] for s in index]
        candidate = (naive_rank(field, matrix), tuple(y))
        if best is None or candidate < best:
            best = candidate
    return best


def test_search_matches_scan(monkeypatch):
    calls = Counter()
    real_pass = oracles._candidate_pass

    def counted_pass(*args):
        least = real_pass(*args)
        calls["pass decided" if least is not None else "pass ruled out"] += 1
        return least

    monkeypatch.setattr(oracles, "_candidate_pass", counted_pass)
    for system in (oracles._PackedSystem, oracles._TableSystem):
        real_scan = system.scan

        def counted_scan(self, lo, real_scan=real_scan, name=system.__name__):
            rank, least = real_scan(self, lo)
            calls[name, "stopped early" if rank == lo else "walked every member"] += 1
            return rank, least

        monkeypatch.setattr(system, "scan", counted_scan)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(direct_specs())
    def check(spec):
        space, level = spec
        try:
            report = oracles.minrank_bruteforce(space, level=level, budget=1 << 12)
        except BudgetExceededError:
            return
        if report.status != "ok":
            return
        minrank, witness = naive_minrank(space, level)
        enumerated = space.field.q ** report.kernel_dimension - 1
        assert (report.minrank, report.witness, report.enumerated) == (minrank, witness, enumerated)

    check()
    # each class's scan is reached both ways; no benchmark workload runs
    # the packed scan, so this is its guard
    assert set(calls) == {
        "pass decided",
        "pass ruled out",
        *((name, outcome) for name in ("_PackedSystem", "_TableSystem")
          for outcome in ("stopped early", "walked every member")),
    }, calls
