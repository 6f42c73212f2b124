"""Ground-truth routines: membership, exhaustive minrank, superposition
sums, point isolators, sums of points."""

import random
import tracemalloc
from itertools import product

import pytest

import rankgap.oracles as oracles
from rankgap.boolalg import SquarefreePoly, basis_make, basis_size, mask_of
from rankgap.errors import BudgetExceededError, InternalConsistencyError, PreconditionError
from rankgap.frontends import parse_quadeq
from rankgap.gfarith import make_field
from rankgap.gflinalg import FFMatrix
from rankgap.moment import build_moment_subspace
from rankgap.oracles import (
    MonomialAssignment,
    PointSet,
    _PackedSystem,
    _PlaneSystem,
    _TableSystem,
    check_membership,
    minrank_bruteforce,
    point_isolator,
    subspace_digest,
    sum_of_points,
    superposition_check,
)
from rankgap.subspace import expansion_positions, honest_moment_vector
from rankgap.superposition import build_monomial_quad_system

GF2 = make_field(2)
GF3 = make_field(3)


# -- membership ---------------------------------------------------------------


def test_membership_frozen_paths():
    src = parse_quadeq("GF(2)\nx1 + x2\n")
    space = build_moment_subspace(src, 1)
    assert check_membership((0, 0, 0, 0), space).ok

    honest = honest_moment_vector(GF2, (1, 1), n=2, degree=2)
    assert check_membership(honest.values, space) == check_membership(honest.values, space)
    assert check_membership(honest.values, space).ok

    bent = list(honest.values)
    bent[1] ^= 1
    report = check_membership(tuple(bent), space)
    assert not report.ok
    assert report.violated_row == 0

    with pytest.raises(PreconditionError, match="coordinates"):
        check_membership((1, 0), space)


def test_membership_agrees_with_sparse_rows():
    rng = random.Random(50)
    for _ in range(20):
        field = rng.choice([GF2, GF3])
        n = rng.randint(1, 3)
        eqs = []
        for _ in range(rng.randint(1, 2)):
            coeffs = {
                mask: rng.randrange(field.q)
                for mask in basis_make(n, 2, "V").masks
                if mask
            }
            eqs.append(SquarefreePoly(field, coeffs))
        from rankgap.frontends import QuadSystemSource

        src = QuadSystemSource(field=field, n=n, equations=tuple(eqs))
        space = build_moment_subspace(src, 1)
        y = tuple(rng.randrange(field.q) for _ in range(space.coord_count))
        report = check_membership(y, space)
        assert report.ok == (space.membership_violation(y) is None)
        if not report.ok:
            assert report.violated_row == space.membership_violation(y)


# -- minrank ------------------------------------------------------------------


def test_minrank_frozen_examples():
    unsat = parse_quadeq("GF(2)\nx1\nx1 + 1\n")
    empty = minrank_bruteforce(build_moment_subspace(unsat, 1))
    assert empty.status == "empty"
    assert empty.kernel_dimension == 0
    assert empty.minrank is None

    line = parse_quadeq("GF(2)\nx1 + x2\n")
    report = minrank_bruteforce(build_moment_subspace(line, 1))
    assert report.status == "ok"
    assert report.kernel_dimension == 3
    assert report.enumerated == 7
    assert report.minrank == 1
    assert report.witness == (1, 0, 0, 0)

    single = parse_quadeq("GF(2)\nx1\n")
    report = minrank_bruteforce(build_moment_subspace(single, 1))
    assert (report.minrank, report.witness) == (1, (1, 0))


def test_minrank_budget_refusal(monkeypatch):
    # the refusal comes as soon as the kernel dimension is known, before
    # the space is hashed
    def no_digest(space):
        raise AssertionError("minrank hashed a space it refuses")

    monkeypatch.setattr(oracles, "subspace_digest", no_digest)
    src = parse_quadeq("GF(2)\nx1 + x2\n")
    space = build_moment_subspace(src, 1)
    with pytest.raises(BudgetExceededError) as info:
        minrank_bruteforce(space, budget=7)
    assert str(info.value) == "kernel dimension 3 means 8 members, budget allows 7"


def naive_members(space, level=None):
    """(rank, member) for every nonzero member, straight from the
    definition: each member rebuilt from its digits, ranked through its
    FFMatrix expansion."""
    field = space.field
    kernel = space.kernel_basis()
    found = []
    for combo in product(range(field.q), repeat=len(kernel)):
        if not any(combo):
            continue
        y = [0] * space.coord_count
        for c, vec in zip(combo, kernel):
            for i, v in enumerate(vec):
                y[i] = field.add(y[i], field.mul(c, v))
        found.append((space.expand(tuple(y), level).rank(), tuple(y)))
    return found


def naive_minimizers(space, level=None):
    """(minrank, every rank-minimizing nonzero member, sorted)."""
    found = naive_members(space, level)
    best = min(r for r, _ in found)
    return best, sorted(y for r, y in found if r == best)


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_minrank_matches_naive_scan(p, e):
    from rankgap.frontends import QuadSystemSource

    field = make_field(p, e)
    rng = random.Random(51)
    for _ in range(5):
        n = 2
        coeffs = {
            mask: rng.randrange(field.q) for mask in basis_make(n, 2, "V").masks if mask
        }
        src = QuadSystemSource(
            field=field, n=n, equations=(SquarefreePoly(field, coeffs),)
        )
        space = build_moment_subspace(src, 1)
        report = minrank_bruteforce(space, budget=1 << 14)
        if report.status == "empty":
            assert space.dimension() == 0
            continue
        best, minimizers = naive_minimizers(space)
        assert (report.minrank, report.witness) == (best, minimizers[0])


def test_minrank_untabulated_field():
    # past 256 elements the scan calls the field instead of building tables
    field = make_field(257)
    src = parse_quadeq("GF(257)\nx1 + x2 + 3\nx1 + 2*x2 + 5\nx1*x2 + 9\n")
    space = build_moment_subspace(src, 1)
    report = minrank_bruteforce(space)
    assert report.kernel_dimension == 1 and report.enumerated == field.q - 1
    best, minimizers = naive_minimizers(space)
    assert (report.minrank, report.witness) == (best, minimizers[0])


@pytest.mark.parametrize(
    "text, minrank, ties, witness",
    [
        ("GF(2)\nx1*x2 + x1*x3 + x2*x3 + 1\n", 1, 4, (1, 0, 1, 1, 0, 0, 1)),
        ("GF(5)\nx1*x2 + 2\n", 2, 28, (0, 0, 1, 0)),
    ],
    ids=["gf2", "gf5"],
)
def test_minrank_witness_is_lex_min_among_ties(text, minrank, ties, witness):
    # in both, several minimizers tie, and the report names the least of
    # them whichever route (candidate pass or scan) decides
    space = build_moment_subspace(parse_quadeq(text), 1)
    report = minrank_bruteforce(space)
    best, minimizers = naive_minimizers(space)
    assert (best, len(minimizers), minimizers[0]) == (minrank, ties, witness)
    assert (report.minrank, report.witness) == (minrank, witness)


@pytest.mark.parametrize(
    "text", ["GF(2)\nx1*x2 + x3\n", "GF(2^2)\nx1*x2 + x1\n"], ids=["gf2", "gf4"]
)
def test_minrank_lower_levels_match_naive_scan(text):
    # level 0 has rank-0 members, which nothing can beat
    space = build_moment_subspace(parse_quadeq(text), 2)
    for level in range(space.d + 1):
        report = minrank_bruteforce(space, level=level)
        best, minimizers = naive_minimizers(space, level)
        assert (report.minrank, report.witness) == (best, minimizers[0])


FIELD_NAMES = {2: "GF(2)", 3: "GF(3)", 4: "GF(2^2)", 5: "GF(5)"}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_gray_walk_visits_every_nonzero_vector_once(q, m, monkeypatch):
    # the name is the Gray walk's, which the ascending walk replaced.  Over
    # m unit kernel vectors, handed over reversed as minrank does, each
    # member is its own coefficient vector; one 1 x m row ranks every
    # member 1, so lo = 0 is never reached and the walk must rank once, in
    # increasing order, each nonzero vector whose first nonzero entry is 1
    # (a multiple λy has y's rank and comes after y): all q^m - 1 over GF(2)
    field = make_field(*{4: (2, 2)}.get(q, (q,)))
    if m == 0:
        # no nonzero vector: minrank reports the empty space, walking nothing
        text = f"{FIELD_NAMES[q]}\nx1\nx1 + 1\n"
        report = minrank_bruteforce(build_moment_subspace(parse_quadeq(text), 1))
        assert (report.status, report.kernel_dimension, report.enumerated) == ("empty", 0, 0)
        return
    kernel = [[int(c == b) for c in range(m)] for b in reversed(range(m))]
    system = (_PackedSystem if q == 2 else _TableSystem)(field, kernel, [list(range(m))])
    real_rank = oracles.packed_rank if q == 2 else oracles.table_rank
    ranked = []

    def recording_rank(*args):
        (row,) = args[-2]
        # packed rows hold column j at bit m - 1 - j
        ranked.append(tuple(row >> (m - 1 - j) & 1 for j in range(m)) if q == 2 else tuple(row))
        return real_rank(*args)

    monkeypatch.setattr(oracles, real_rank.__name__, recording_rank)
    rank, least = system.scan(list(system.solutions({})), 0)
    monic = [v for v in sorted(product(range(q), repeat=m))[1:] if next(filter(None, v)) == 1]
    assert len(monic) == (q**m - 1) // (q - 1)
    assert ranked == monic
    assert (rank, system.member(least)) == (1, (0,) * (m - 1) + (1,))


SCAN_SPACES = {
    2: "GF(2)\nx1*x2 + x1*x3 + x2*x3 + 1\n",
    3: "GF(3)\nx1*x3 + x2 + 2\n",
    4: "GF(2^2)\nx1*x2 + x1\n",
    5: "GF(5)\nx1*x2 + 2\n",
}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_scan_ranks_members_in_increasing_order(q, monkeypatch):
    # a recording rank reads each ranked member back off its expansion
    space = build_moment_subspace(parse_quadeq(SCAN_SPACES[q]), 1)
    field = space.field
    kernel = space.kernel_basis()[::-1]
    positions = expansion_positions(space.coords, space.index.masks)
    system = (_PackedSystem if q == 2 else _TableSystem)(field, kernel, positions)
    real_rank = oracles.packed_rank if q == 2 else oracles.table_rank
    ranked = []

    def recording_rank(*args):
        y = [None] * space.coord_count
        for row, prow in zip(args[-2], positions):
            for j, c in enumerate(prow):
                y[c] = row >> (len(prow) - 1 - j) & 1 if q == 2 else row[j]
        ranked.append(tuple(y))
        return real_rank(*args)

    monkeypatch.setattr(oracles, real_rank.__name__, recording_rank)
    members = sorted(y for _, y in naive_members(space))
    best, minimizers = naive_minimizers(space)
    assert len(members) == q ** len(kernel) - 1 and best > 0
    # below the minimum rank, every member whose first nonzero coordinate
    # is 1 is ranked once, in order: the others are multiples of these
    monic = [y for y in members if next(filter(None, y)) == 1]
    unit = list(system.solutions({}))
    rank, least = system.scan(unit, best - 1)
    assert ranked == monic
    assert (rank, system.member(least)) == (best, minimizers[0])
    # from the minimum rank, the walk ends at the least minimizer
    ranked.clear()
    rank, least = system.scan(unit, best)
    assert ranked == monic[:monic.index(minimizers[0]) + 1]
    assert (rank, system.member(least)) == (best, minimizers[0])


def test_packed_system_builds_only_what_its_route_reads():
    # the scan reads the coordinate spots, the candidate pass the cells;
    # a system that one route decides builds nothing for the other
    space = build_moment_subspace(parse_quadeq(SCAN_SPACES[2]), 1)
    kernel = space.kernel_basis()[::-1]
    positions = expansion_positions(space.coords, space.index.masks)
    scanned = _PackedSystem(GF2, kernel, positions)
    scanned.scan(list(scanned.solutions({})), 0)
    assert "_spots" in vars(scanned) and "_cells" not in vars(scanned)
    passed = _PackedSystem(GF2, kernel, positions)
    passed.extend({}, (1,) + (0,) * (len(positions) - 1))
    assert "_cells" in vars(passed) and "_spots" not in vars(passed)


def test_minrank_rechecks_its_witness(monkeypatch):
    # every route ends in the re-check.  This GF(3) space has 2 members,
    # no more than its 4 points, so the points do not decide it, and its
    # 13 candidate lines at rank 1 outnumber the members: the scan decides
    # it.  A scan that calls its member rank 0 is caught, in the plane
    # system minrank picks over GF(3) and in the table system
    space = build_moment_subspace(parse_quadeq("GF(3)\nx1 + x2\nx1*x2 + 1\nx1 + 1\n"), 1)
    assert space.dimension() == 1
    for system in (_PlaneSystem, _TableSystem):
        real_scan = system.scan
        with monkeypatch.context() as patch:
            patch.setattr(system, "scan", lambda self, *args, real_scan=real_scan: (0, real_scan(self, *args)[1]))
            patch.setattr(oracles, "_system", lambda field, system=system: system)
            with pytest.raises(InternalConsistencyError, match="witness"):
                minrank_bruteforce(space)
    # below level d, the candidate pass decides rank 0 of every space with
    # more than one nonzero member.  At d = 2 this space is y_1 = y_2 =
    # y_12, and a solver that never rules a candidate out calls its least
    # member (0, 1, 1, 1) rank 0 at level 1
    space = build_moment_subspace(parse_quadeq("GF(2)\nx1 + x2\n"), 2)
    assert space.dimension() == 2
    with monkeypatch.context() as patch:
        patch.setattr(_PackedSystem, "extend", lambda self, pivots, p: pivots)
        with pytest.raises(InternalConsistencyError, match="witness"):
            minrank_bruteforce(space, level=1)
    # at d = 1 its 4 points, fewer than its 7 members, decide rank one.  An
    # honest vector outside the space has rank one all the same, so the
    # re-rank passes it; the membership re-check catches it
    space = build_moment_subspace(parse_quadeq("GF(2)\nx1 + x2\n"), 1)
    outside = honest_moment_vector(GF2, (1, 0), n=2, degree=2).values
    assert not space.contains(outside)
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_honest_member", lambda space: outside)
        with pytest.raises(InternalConsistencyError, match="witness violates constraint row 0"):
            minrank_bruteforce(space)


def test_minrank_least_witness_across_candidates():
    # the rank-1 minimizers have four different annihilators, each with its
    # own least member; the witness is the least of those four
    space = build_moment_subspace(parse_quadeq("GF(3)\nx1*x3 + x2 + 2\n"), 1)
    best, minimizers = naive_minimizers(space)
    least_by_annihilator = {}
    for y in minimizers:
        annihilator = tuple(space.expand(y).kernel_basis())
        least_by_annihilator.setdefault(annihilator, y)
    leasts = sorted(least_by_annihilator.values())
    assert (best, len(leasts)) == (1, 4)
    report = minrank_bruteforce(space)
    assert (report.minrank, report.witness) == (1, leasts[0]) == (1, (1, 0, 1, 0, 0, 0, 0))


def test_minrank_dichotomy_on_tiny_corpus():
    # satisfiable sources give minrank 1, witnessed at rank 1 by an honest
    # vector; the subspace of an unsatisfiable source is empty or has no
    # rank-1 member
    from rankgap.frontends import QuadSystemSource

    rng = random.Random(52)
    sat_seen = unsat_seen = 0
    while sat_seen < 6 or unsat_seen < 3:
        field = rng.choice([GF2, GF3])
        n = rng.randint(1, 2)
        eqs = []
        for _ in range(rng.randint(1, 3)):
            coeffs = {
                mask: rng.randrange(field.q)
                for mask in basis_make(n, 2, "V").masks
                if rng.random() < 0.7
            }
            eqs.append(SquarefreePoly(field, coeffs))
        src = QuadSystemSource(field=field, n=n, equations=tuple(eqs))
        satisfiable = any(
            src.satisfied_by(pt) for pt in product((0, 1), repeat=n)
        )
        space = build_moment_subspace(src, 1)
        report = minrank_bruteforce(space, budget=1 << 16)
        assert report.status in ("ok", "empty")
        if satisfiable:
            sat_seen += 1
            assert report.status == "ok" and report.minrank == 1
        else:
            unsat_seen += 1
            if report.status == "ok":
                assert report.minrank > 1


def test_minrank_report_json():
    src = parse_quadeq("GF(2)\nx1\n")
    space = build_moment_subspace(src, 1)
    doc = minrank_bruteforce(space).to_json()
    assert doc["status"] == "ok"
    assert doc["subspace_hash"] == subspace_digest(space)
    assert doc["witness"] == [1, 0]
    assert doc["kernel_dimension"] == 1


# -- superposition ------------------------------------------------------------


def one_clause_system():
    from rankgap.frontends import CnfFormula
    from rankgap.superposition import build_constant_free_system

    cnf = CnfFormula(n=2, clauses=((1, 2, 2),))
    return build_monomial_quad_system(build_constant_free_system(cnf, 4))


def satisfying_tau(quad, z):
    point = (1,) + z
    ones = mask_of(i for i, v in enumerate(point) if v)
    return tuple(1 if m & ~ones == 0 else 0 for m in quad.basis.masks)


def test_superposition_check_frozen_paths():
    quad = one_clause_system()
    good = satisfying_tau(quad, (1, 0))
    assert superposition_check([good], quad).ok
    assert superposition_check([good, good], quad).ok
    assert superposition_check([], quad).ok

    bad = satisfying_tau(quad, (0, 0))
    report = superposition_check([bad], quad)
    assert not report.ok
    assert report.violated_equation is not None

    mixed = superposition_check([good, bad], quad)
    assert not mixed.ok
    assert mixed.violated_equation == report.violated_equation

    with pytest.raises(PreconditionError, match="entries"):
        superposition_check([(0, 1)], quad)
    with pytest.raises(PreconditionError, match="non-bit"):
        superposition_check([(2,) * len(quad.basis)], quad)


def test_superposition_check_agrees_with_pipeline_evaluator():
    quad = one_clause_system()
    rng = random.Random(53)
    width = len(quad.basis)
    for _ in range(30):
        fam = [
            tuple(rng.randint(0, 1) for _ in range(width))
            for _ in range(rng.randint(1, 3))
        ]
        report = superposition_check(fam, quad)
        slow = None
        for idx, eq in enumerate(quad.equations):
            total = 0
            for tau in fam:
                total ^= eq.value(tau, quad.basis)
            if total:
                slow = idx
                break
        assert report.ok == (slow is None)
        assert report.violated_equation == slow


# -- point isolation ----------------------------------------------------------


def test_isolator_frozen_examples():
    lone = PointSet(1, ((1, 0),))
    q = point_isolator(lone, (1, 0), 1)
    assert q == SquarefreePoly.constant(GF2, 1)

    pair = PointSet(1, ((0, 0), (1, 0)))
    q = point_isolator(pair, (1, 0), 2)
    assert q == SquarefreePoly.variable(GF2, 0)

    diag = PointSet(1, ((0, 0), (1, 1)))
    q = point_isolator(diag, (1, 1), 2)
    assert q == SquarefreePoly.variable(GF2, 0)


def test_isolator_preconditions():
    pair = PointSet(1, ((0, 0), (1, 0)))
    with pytest.raises(PreconditionError, match="not in the point set"):
        point_isolator(pair, (1, 1), 2)
    with pytest.raises(PreconditionError, match="2\\^rho"):
        point_isolator(pair, (1, 0), 1)


def test_a_wide_isolator_keeps_its_kernel_packed():
    """Two points at rho = 4 over 15 variables give 1,941 monomials,
    nearly all of them free columns of the isolation system.  Packed,
    the kernel takes about width^2 / 2 bits; one list slot per entry
    would take 128 times that."""
    rng = random.Random(56)
    n, rho = 14, 4
    pts = PointSet(n, tuple(tuple(rng.randint(0, 1) for _ in range(n + 1)) for _ in range(2)))
    width = basis_size(n, rho, "U") + 1
    tracemalloc.start()
    try:
        q = point_isolator(pts, pts.points[0], rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [q.evaluate(b) for b in pts] == [1, 0]
    # four bits per entry of a width x width matrix
    assert peak < width * width // 2


def test_isolator_random_sweep():
    rng = random.Random(54)
    for _ in range(60):
        n = rng.randint(1, 3)
        universe = list(product((0, 1), repeat=n + 1))
        size = rng.randint(1, min(len(universe), 6))
        pts = PointSet(n, tuple(rng.sample(universe, size)))
        a = rng.choice(pts.points)
        rho = 1
        while 1 << rho <= len(pts):
            rho += 1
        q = point_isolator(pts, a, rho)
        assert q.degree <= rho
        for b in pts:
            assert q.evaluate(b) == (1 if b == a else 0)


def test_isolator_support_is_minimal_on_small_instances():
    # exhaust all degree-bounded polynomials and confirm the returned
    # support sequence is the lexicographic minimum; at n = 2 the kernel
    # holds up to 7 vectors, among up to 2^8 candidates at rho = 3
    rng = random.Random(55)
    for n, rho in [(1, 2)] * 12 + [(2, 2)] * 12 + [(2, 3)] * 12:
        universe = list(product((0, 1), repeat=n + 1))
        size = rng.randint(1, (1 << rho) - 1)
        pts = PointSet(n, tuple(rng.sample(universe, size)))
        a = rng.choice(pts.points)
        q = point_isolator(pts, a, rho)
        monomials = [0] + list(basis_make(n, rho, "U").masks)
        got = tuple(sorted(monomials.index(m) for m in q.support()))
        best = None
        for bits in product((0, 1), repeat=len(monomials)):
            cand = SquarefreePoly(
                GF2, {m: b for m, b in zip(monomials, bits) if b}
            )
            if all(cand.evaluate(b) == (1 if b == a else 0) for b in pts):
                seq = tuple(i for i, b in enumerate(bits) if b)
                if best is None or seq < best:
                    best = seq
        assert got == best


def random_system(rng, max_width, max_height):
    """A random GF(2) matrix, packed as _support_lex_min reads vectors (bit
    j holds column j), with solve()'s solution of a consistent target."""
    width, height = rng.randint(1, max_width), rng.randint(1, max_height)
    rows = [[rng.getrandbits(1) for _ in range(width)] for _ in range(height)]
    matrix = FFMatrix(GF2, rows, width)
    target = matrix.mat_vec([rng.getrandbits(1) for _ in range(width)])
    particular = sum(v << j for j, v in enumerate(matrix.solve(target)))
    return matrix, target, particular


def test_support_lex_min_from_the_particular_solution():
    # point_isolator starts from solve()'s particular solution
    rng = random.Random(56)
    for _ in range(200):
        matrix, target, particular = random_system(rng, 7, 5)
        best = min(
            tuple(j for j, v in enumerate(x) if v)
            for x in product((0, 1), repeat=matrix.ncols)
            if matrix.mat_vec(x) == target
        )
        got = oracles._support_lex_min(particular, matrix.kernel_basis(packed=True))
        assert tuple(j for j in range(matrix.ncols) if got >> j & 1) == best


def support_lex_min_with_span_test(particular, kernel, rows):
    """_support_lex_min as it was before its docstring's proof: it stopped
    once every packed row annihilated the rest of the vector."""
    p, bit, ks = particular, 1, iter(kernel)
    lead = next(ks, 0)
    while True:
        tail = p & -bit
        if not any((row & tail).bit_count() & 1 for row in rows):
            return p ^ tail
        if lead & bit:
            if not p & bit:
                p ^= lead
            lead = next(ks, 0)
        bit <<= 1


def test_support_lex_min_needs_no_span_test_from_the_particular_solution():
    """Past the sizes brute force reaches, stopping at a zero rest gives
    what stopping at a rest in the kernel gave."""
    rng = random.Random(57)
    for _ in range(3000):
        matrix, _, particular = random_system(rng, 16, 12)
        kernel = matrix.kernel_basis(packed=True)
        rows = [sum(v << j for j, v in enumerate(row)) for row in matrix.rows]
        assert (oracles._support_lex_min(particular, kernel)
                == support_lex_min_with_span_test(particular, kernel, rows))


# -- sums of points -----------------------------------------------------------


def test_sum_of_points_frozen_examples():
    honest = MonomialAssignment(2, 2, honest_moment_vector(GF2, (1, 0, 1), 2, 2, "U").values)
    beta = sum_of_points(honest)
    for mask in [0] + list(honest.basis.masks):
        acc = 0
        for b in beta:
            ones = mask_of(i for i, v in enumerate(b) if v)
            acc ^= 1 if mask & ~ones == 0 else 0
        assert acc == honest.value(mask)

    flat = MonomialAssignment(1, 2, (0, 0, 0))
    assert sum_of_points(flat) == PointSet(1, ((0, 0),))

    twisted = MonomialAssignment(1, 2, (0, 1, 1))
    beta = sum_of_points(twisted)
    assert beta == PointSet(1, ((0, 0), (1, 0), (1, 1)))
    for pt in product((0, 1), repeat=2):
        single = MonomialAssignment(1, 2, honest_moment_vector(GF2, pt, 1, 2, "U").values)
        assert single != twisted


def test_sum_of_points_budget():
    sigma = MonomialAssignment(2, 1, (1, 0, 0))
    with pytest.raises(BudgetExceededError, match="indicator columns"):
        sum_of_points(sigma, budget=4)


def poly_value(sigma: MonomialAssignment, f: SquarefreePoly) -> int:
    """The reference: sigma applied linearly to a GF(2) polynomial."""
    if f.field.q != 2:
        raise PreconditionError("monomial assignments live over GF(2)")
    acc = 0
    for mask, c in f.terms():
        if c:
            acc ^= sigma.value(mask)
    return acc


def test_sum_of_points_random_sweep():
    rng = random.Random(56)
    for _ in range(40):
        n = rng.randint(1, 3)
        d = rng.randint(1, n + 1)
        basis = basis_make(n, d, "U")
        sigma = MonomialAssignment(
            n, d, tuple(rng.randint(0, 1) for _ in range(len(basis)))
        )
        beta = sum_of_points(sigma)
        assert len(beta) % 2 == 1
        # spot-check with random low-degree polynomials as well
        for _ in range(5):
            f = SquarefreePoly(
                GF2,
                {m: rng.randint(0, 1) for m in basis.masks},
            )
            want = poly_value(sigma, f)
            got = 0
            for b in beta:
                got ^= f.evaluate(b)
            assert got == want


def solved_sum_of_points(sigma: MonomialAssignment) -> PointSet:
    """The reference: solve for an indicator over all 2^{n+1} points, one
    equation per monomial of degree <= d and one for the empty monomial,
    free variables set to zero."""
    all_points = list(product((0, 1), repeat=sigma.n + 1))
    masks = [0] + list(sigma.basis.masks)
    rows = [
        [1 if mask & ~mask_of(i for i, v in enumerate(b) if v) == 0 else 0 for b in all_points]
        for mask in masks
    ]
    indicator = FFMatrix(GF2, rows, ncols=len(all_points)).solve([sigma.value(m) for m in masks])
    return PointSet(sigma.n, tuple(b for b, v in zip(all_points, indicator) if v))


def test_sum_of_points_is_the_solved_point_set():
    rng = random.Random(57)
    for _ in range(200):
        n = rng.randint(1, 5)
        d = rng.randint(1, n + 1)
        size = len(basis_make(n, d, "U"))
        sigma = MonomialAssignment(n, d, tuple(rng.randint(0, 1) for _ in range(size)))
        assert sum_of_points(sigma) == solved_sum_of_points(sigma)


def test_monomial_assignment_validation():
    with pytest.raises(PreconditionError, match="needs 3 values"):
        MonomialAssignment(1, 2, (1, 0))
    with pytest.raises(PreconditionError, match="bits"):
        MonomialAssignment(1, 2, (1, 0, 2))
    sigma = MonomialAssignment(2, 2, honest_moment_vector(GF2, (1, 1, 0), 2, 2, "U").values)
    assert sigma.value(0) == 1
    assert sigma.value(mask_of([0, 1])) == 1
    assert sigma.value(mask_of([2])) == 0


def test_point_set_validation():
    with pytest.raises(PreconditionError, match="twice"):
        PointSet(1, ((0, 0), (0, 0)))
    with pytest.raises(PreconditionError, match="coordinates"):
        PointSet(1, ((0, 0, 0),))
    ps = PointSet(1, ((1, 1), (0, 0)))
    assert ps.points == ((0, 0), (1, 1))
    assert (1, 1) in ps
