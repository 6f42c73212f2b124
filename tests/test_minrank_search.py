"""The level-by-level minrank search against a naive enumeration.

minrank_bruteforce decides rank one at level d from the Boolean points
when they are fewer than the members and every other level with the
candidate pass, whose root hands every member to the scan when they are
no more than its candidates.  On random small specs its answer must
equal the one read straight off the definition: every nonzero
combination of the kernel vectors, ranked by plain Gaussian elimination
over the field, the least coordinate vector winning among the rank
minimizers.  The reference checks the kernel it is handed and shares
nothing with the search but the field arithmetic.
The lemma the points rest on, that the rank-one members at level d are
the multiples of honest vectors in the space, is checked the same way.
"""

import json
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import rankgap.oracles as oracles
from rankgap.boolalg import SquarefreePoly, basis_make
from rankgap.cli import main
from rankgap.errors import BudgetExceededError
from rankgap.frontends import QuadSystemSource
from rankgap.gfarith import make_field
from rankgap.moment import build_moment_subspace
from rankgap.subspace import SubspaceSpec, expansion_positions

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]
GF2 = make_field(2)


@st.composite
def direct_specs(draw, fields=FIELDS):
    """A direct space of one to three equations of at most four terms, at
    k = 1 or 2, planted with a Boolean zero when sat is drawn.  Fields
    past GF(4) get two variables so kernels stay small."""
    p, e = draw(st.sampled_from(fields))
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
    return build_moment_subspace(QuadSystemSource(field, n, tuple(equations)), k)


@st.composite
def gf2_u_specs(draw):
    """A hand-built U space over GF(2), n = 1 to 3 at d = 1 and n = 1 or 2
    at d = 2, with 2 to 8 fewer random rows than coordinates.  When sat is
    drawn, each row is made to vanish on the honest vector of a planted
    nonzero point by toggling that point's first singleton."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3 if d == 1 else 2))
    masks = basis_make(n, 2 * d, "U").masks
    point = draw(st.integers(1, (2 << n) - 1))
    first = masks.index(point & -point)
    sat = draw(st.booleans())
    rows = []
    for _ in range(max(0, len(masks) - draw(st.integers(2, 8)))):
        picks = draw(st.lists(st.booleans(), min_size=len(masks), max_size=len(masks)))
        row = {c for c, pick in enumerate(picks) if pick}
        if sat and sum(1 for c in row if not masks[c] & ~point) % 2:
            row ^= {first}
        rows.append(tuple((c, 1) for c in sorted(row)))
    return SubspaceSpec(GF2, "U", n, d, tuple(rows))


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


def dense_constraints(space):
    count = space.coord_count
    dense = []
    for row in space.rows:
        line = [0] * count
        for pos, coeff in row:
            line[pos] = coeff
        dense.append(line)
    return dense


def is_member(space, y):
    field = space.field
    for line in dense_constraints(space):
        acc = 0
        for a, v in zip(line, y):
            acc = field.add(acc, field.mul(a, v))
        if acc:
            return False
    return True


def naive_members(space):
    """Every nonzero member, after checking that space.kernel_basis() is a
    basis of the kernel."""
    field, count = space.field, space.coord_count
    kernel = space.kernel_basis()
    dense = dense_constraints(space)
    assert len(kernel) == count - naive_rank(field, dense) == naive_rank(field, kernel)
    assert all(is_member(space, vec) for vec in kernel)
    members = []
    for combo in product(range(field.q), repeat=len(kernel)):
        if not any(combo):
            continue
        y = [0] * count
        for c, vec in zip(combo, kernel):
            for i, v in enumerate(vec):
                y[i] = field.add(y[i], field.mul(c, v))
        members.append(tuple(y))
    return members


def naive_layout(space, level):
    """The coordinate at each cell (S, T) of H_level(y), the index family
    being the coordinate monomials of at most level variables."""
    index = [mask for mask in space.coords.masks if mask.bit_count() <= level]
    where = {mask: c for c, mask in enumerate(space.coords.masks)}
    return [[where[s | t] for t in index] for s in index]


def naive_ranks(space, members, level):
    """rank H_level(y) for each member y."""
    layout = naive_layout(space, level)
    return [naive_rank(space.field, [[y[c] for c in row] for row in layout]) for y in members]


def naive_minrank(space, level, members):
    """(minrank, least minimizer) over the nonzero members."""
    return min(zip(naive_ranks(space, members, level), members))


def honest_multiples(space):
    """λh(z) for each Boolean point z (not 0 in U) and nonzero λ, read
    straight off the definition: coordinate R is λ when z is 1 throughout
    R, else 0."""
    field, masks = space.field, space.coords.masks
    symbols = range(space.n + 1) if space.variant == "U" else range(1, space.n + 1)
    out = set()
    for bits in product((0, 1), repeat=len(symbols)):
        ones = sum(1 << i for i, b in zip(symbols, bits) if b)
        if space.variant == "U" and not ones:
            continue
        for scale in range(1, field.q):
            out.add(tuple(scale if mask & ones == mask else 0 for mask in masks))
    return out


@settings(derandomize=True, max_examples=120, deadline=None)
@given(direct_specs(fields=[(2, 1), (3, 1), (2, 2), (5, 1)]) | gf2_u_specs())
def test_rank_one_members_are_the_member_multiples_of_honest_vectors(space):
    """At level d, the members of rank one are exactly the multiples of
    honest vectors that the space contains: V over GF(2), GF(3), GF(4)
    and GF(5), and U over GF(2)."""
    if space.field.q ** space.dimension() > 1 << 10:
        return
    members = naive_members(space)
    rank_one = {y for y, rank in zip(members, naive_ranks(space, members, space.d)) if rank == 1}
    assert rank_one == {y for y in honest_multiples(space) if is_member(space, y)}


@pytest.fixture
def routes(monkeypatch):
    """A count of which route decided each minrank call: the points, the
    candidate pass, or each class's scan, stopped at its lower bound or
    run through every member; and of each node scan inside the pass,
    which finds a member of rank at most its bound or none.  A pass whose
    root scans counts as that scan, not as a pass."""
    calls = Counter()
    real_points = oracles._honest_member
    real_pass = oracles._candidate_pass
    root_scans = 0

    def counted_points(space):
        witness = real_points(space)
        calls["points decided" if witness is not None else "points ruled out"] += 1
        return witness

    def counted_pass(*args):
        before = root_scans
        rank, least = real_pass(*args)
        if root_scans == before:
            calls["pass decided" if least is not None else "pass ruled out"] += 1
        return rank, least

    monkeypatch.setattr(oracles, "_honest_member", counted_points)
    monkeypatch.setattr(oracles, "_candidate_pass", counted_pass)
    for system in (oracles._PackedSystem, oracles._TableSystem):
        real_scan = system.scan

        def counted_scan(self, basis, lo, hi=None, real_scan=real_scan, name=system.__name__):
            nonlocal root_scans
            rank, least = real_scan(self, basis, lo, hi)
            if hi is not None:
                calls[name, "node found a member" if least is not None else "node found none"] += 1
            else:
                root_scans += 1
                calls[name, "stopped early" if rank == lo else "walked every member"] += 1
            return rank, least

        monkeypatch.setattr(system, "scan", counted_scan)
    return calls


def test_points_rule_out_the_u_counterexample_over_gf3(routes):
    """Over GF(3), y = (1, 1, 2) on the U coordinates {0}, {1}, {0, 1} has
    H_1(y) = [[1, 2], [2, 1]] = uu^T for u = (1, 2), and is no multiple of
    an honest vector.  The kernel of y_0 + y_1 + 2y_01 = 0 holds it and no
    honest multiple, so the points would rule rank one out; the candidate
    pass finds it."""
    space = SubspaceSpec(make_field(3), "U", 1, 1, (((0, 1), (1, 1), (2, 2)),))
    members = naive_members(space)
    assert (1, 1, 2) in members and not honest_multiples(space) & set(members)
    report = oracles.minrank_bruteforce(space)
    assert (report.minrank, report.witness) == naive_minrank(space, 1, members)
    assert report.minrank == 1 and routes == {"pass decided": 1}
    assert oracles._honest_member(space) is None


def check_levels(space, levels, budget):
    """minrank_bruteforce at each of the levels against the naive minrank."""
    try:
        top = oracles.minrank_bruteforce(space, budget=budget)
    except BudgetExceededError:
        return
    if top.status != "ok":
        return
    members = naive_members(space)
    enumerated = space.field.q ** top.kernel_dimension - 1
    for level in levels:
        report = top if level == space.d else oracles.minrank_bruteforce(space, level=level, budget=budget)
        minrank, witness = naive_minrank(space, level, members)
        assert (report.minrank, report.witness, report.enumerated) == (minrank, witness, enumerated)


def test_search_matches_scan(routes):
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(direct_specs().flatmap(lambda space: st.tuples(st.just(space), st.integers(0, space.d))))
    def check(spec):
        space, level = spec
        check_levels(space, {level, space.d}, 1 << 12)

    check()
    # every route is reached, each class's scan both ways; no benchmark
    # workload runs the packed scan, so this is its guard.  The pass's
    # node scans are rare here and reach one outcome per class;
    # test_node_scans_refute_and_the_pass_keeps_its_answer reaches both
    # outcomes of both classes
    assert set(routes) == {
        "points decided",
        "points ruled out",
        "pass decided",
        "pass ruled out",
        *((name, outcome) for name in ("_PackedSystem", "_TableSystem")
          for outcome in ("stopped early", "walked every member")),
        ("_PackedSystem", "node found none"),
        ("_TableSystem", "node found a member"),
    }, routes


def test_minrank_on_gf2_u_spaces(routes):
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(gf2_u_specs())
    def check(space):
        check_levels(space, range(space.d + 1), 1 << 10)

    check()
    assert {"points decided", "points ruled out"} <= set(routes), routes


def unsat_direct_space(rng, field, n, m):
    """A direct space at k = 1 of m equations, each nonzero on a random
    half of the monomials, drawn again until no Boolean point is a common
    zero: rank one is then ruled out and the pass runs from rank 2, as on
    the unsatisfiable instances of the benchmark."""
    masks = basis_make(n, 2, "V").masks
    points = list(product((0, 1), repeat=n))
    while True:
        equations = tuple(
            SquarefreePoly(field, {
                mask: rng.randrange(1, field.q) for mask in masks if rng.random() < 0.5
            })
            for _ in range(m)
        )
        if not any(all(f.evaluate(z, first_var=1) == 0 for f in equations) for z in points):
            return build_moment_subspace(QuadSystemSource(field, n, equations), 1)


# (p, e, n, m, instances): kernels of 5 over GF(3) and GF(4) at n = 3 and
# 7 over GF(3) at n = 4.  GF(2) takes a kernel of 10 at n = 5: with 5 to 8
# the rank-2 level goes straight to the scan or its node scans all find a
# member, while 1,023 members outnumber the [6, 2]_2 = 651 candidates
UNSAT_CLASSES = [(2, 1, 5, 6, 12), (3, 1, 3, 2, 10), (3, 1, 4, 4, 4), (2, 2, 3, 2, 10)]


def test_node_scans_refute_and_the_pass_keeps_its_answer(routes):
    """On unsat-like direct spaces, nodes of the rank-2 candidate pass
    scan their solutions, and some of those scans find no member of rank
    at most 2; the search must still give the naive minrank and least
    minimizer."""
    for p, e, n, m, count in UNSAT_CLASSES:
        field = make_field(p, e)
        rng = random.Random(f"node scans/{field.q}/{n}/{m}")
        for _ in range(count):
            space = unsat_direct_space(rng, field, n, m)
            report = oracles.minrank_bruteforce(space)
            assert (report.minrank, report.witness) == naive_minrank(space, space.d, naive_members(space))
    assert {
        (name, outcome) for name in ("_PackedSystem", "_TableSystem")
        for outcome in ("node found a member", "node found none")
    } <= set(routes), routes


def search_system(space, level):
    """The system minrank_bruteforce searches at the level, and the side
    of H."""
    field = space.field
    kernel = space.kernel_basis()[::-1]
    positions = expansion_positions(space.coords, basis_make(space.n, level, space.variant).masks)
    system = (oracles._PackedSystem if field.q == 2 else oracles._TableSystem)(field, kernel, positions)
    return system, len(positions)


def test_a_pass_whose_root_scans_settles_every_higher_rank():
    """At rank 1 on these unsat-like spaces the members are no more than
    the root's candidates, so the root scans, with no upper bound, and no
    member has rank 1.  The pass must still give the least member of
    least rank, which the naive enumeration puts at rank 2 or 3."""
    ranks = set()
    for p, n, m, count in [(2, 3, 3, 3), (3, 2, 3, 8)]:
        field = make_field(p)
        rng = random.Random(f"root scans/{p}/{n}/{m}")
        for _ in range(count):
            space = unsat_direct_space(rng, field, n, m)
            system, side = search_system(space, space.d)
            assert p ** system.m - 1 <= oracles._candidates(p, side, side - 1, 0, side)
            rank, least = oracles._candidate_pass(system, p, side, 1)
            minrank, witness = naive_minrank(space, space.d, naive_members(space))
            assert (rank, system.member(least)) == (minrank, witness) and minrank > 1
            ranks.add(rank)
    assert ranks == {2, 3}


# kernels of one vector over fields too large for operation tables: at
# level 1 the points rule rank one out and the root scans every member,
# at level 0 the pass eliminates its candidates' equations
LARGE_FIELD_SYSTEMS = [
    ("GF(2^9)", "x1 + 3*x2 + 5\nx1*x2 + 2\n7*x1 + x2\n"),
    ("GF(3^6)", "x1 + x2\nx1*x2 + x1\nx2 + 1\n"),
]


@pytest.mark.parametrize("field, equations", LARGE_FIELD_SYSTEMS, ids=[f for f, _ in LARGE_FIELD_SYSTEMS])
def test_minrank_past_the_table_limit(tmp_path, capsys, field, equations):
    """reduce --mode direct, then minrank at each level, against the naive
    minrank and least minimizer."""
    src, inst = tmp_path / "tiny.qe", tmp_path / "tiny.json"
    src.write_text(f"field: {field}\nn: 2\n{equations}")
    assert main(["reduce", "--mode", "direct", "--input", str(src), "--output", str(inst)]) == 0
    space = SubspaceSpec.from_text(inst.read_text())
    members = naive_members(space)
    assert len(members) == space.field.q - 1
    for level in range(space.d + 1):
        report = tmp_path / f"level{level}.json"
        argv = ["minrank", "--input", str(inst), "--level", str(level), "--output", str(report)]
        assert main(argv) == 0
        doc = json.loads(report.read_text())
        assert (doc["minrank"], tuple(doc["witness"])) == naive_minrank(space, level, members)
