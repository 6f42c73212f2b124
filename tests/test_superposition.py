"""The 3SAT-side pipeline: degree choice, polynomial systems, linearization,
subspace construction, decomposition-to-superposition, rank certificates."""

import json
import math
import random
import tracemalloc
from functools import reduce
from itertools import product
from operator import or_

import pytest

from rankgap.boolalg import SquarefreePoly, basis_make, mask_of
from rankgap.cli import main
from rankgap.errors import InternalConsistencyError, PreconditionError
from rankgap.frontends import parse_dimacs
from rankgap.gfarith import make_field
from rankgap.subspace import PseudoMomentVector, honest_moment_vector
from rankgap.superposition import (
    ConstantFreeSystem,
    QuadEquation,
    build_constant_free_system,
    build_matrix_subspace,
    build_monomial_quad_system,
    choose_degree,
    degree_regime,
    expected_equation_count,
    low_rank_to_superposition,
    rank_certificate,
)

GF2 = make_field(2)
GF4 = make_field(2, 2)


def random_cnf(rng, n, m):
    clauses = []
    for _ in range(m):
        clauses.append(
            " ".join(
                str(rng.choice([1, -1]) * rng.randint(1, n)) for _ in range(3)
            )
            + " 0"
        )
    return parse_dimacs(f"p cnf {n} {m}\n" + "\n".join(clauses) + "\n")


def satisfying_points(cnf):
    return [
        z for z in product((0, 1), repeat=cnf.n) if cnf.satisfied_by(z)
    ]


def honest_values(subspace, z):
    y = honest_moment_vector(
        GF2, (1,) + tuple(z), subspace.n, 2 * subspace.d, "U"
    )
    return y.values


# -- degree choice ------------------------------------------------------------


def test_choose_degree_frozen():
    c1 = choose_degree(1)
    assert (c1.k0, c1.t, c1.d) == (1, 1, 8)
    c2 = choose_degree(2)
    assert (c2.t, c2.d) == (3, 8)
    c100 = choose_degree(100)
    assert (c100.t, c100.d) == (150, 32)
    assert c100.regime == "faithful"
    # extension degree multiplies the target before anything else
    c_ext = choose_degree(2, r=3)
    assert (c_ext.k0, c_ext.t) == (6, 9)
    assert c_ext.d == 16  # 4*log2(10) = 13.28..., next multiple of 4


def test_choose_degree_properties():
    for k, r, c in [(1, 1, 4.0), (5, 2, 4.0), (17, 1, 2.5), (3, 3, 9.0)]:
        choice = choose_degree(k, r, c)
        assert choice.d % 4 == 0 and choice.d >= 8
        assert choice.d >= c * math.log2(choice.t + 1)
        assert math.comb(choice.d + 1, (choice.d + 1) // 2) > choice.k0
        assert choice.regime == "faithful"
        # minimality: one step of 4 down breaks something
        smaller = choice.d - 4
        assert (
            smaller < 8
            or smaller < c * math.log2(choice.t + 1)
            or math.comb(smaller + 1, (smaller + 1) // 2) <= choice.k0
        )


def test_degree_regime():
    assert degree_regime(8, 1) == "faithful"
    assert degree_regime(4, 1) == "relaxed"
    assert degree_regime(10, 1) == "relaxed"
    assert degree_regime(8, 126) == "relaxed"  # C(9,4) = 126 not > 126


def test_choose_degree_rejects_bad_input():
    with pytest.raises(PreconditionError):
        choose_degree(0)
    with pytest.raises(PreconditionError):
        choose_degree(1, r=0)
    with pytest.raises(PreconditionError):
        choose_degree(1, c=0.0)


# -- constant-free system -----------------------------------------------------


def test_build_system_frozen_count():
    cnf = parse_dimacs("p cnf 1 1\n1 1 1 0\n")
    system = build_constant_free_system(cnf, 4)
    assert len(system.equations) == 7 == expected_equation_count(1, 1, 4)
    # the first equation is the unshifted clause polynomial x0 + x1
    assert next(iter(system.equations)).coeffs == {mask_of([0]): 1, mask_of([1]): 1}
    # every equation is constant-free with degree at most d
    for f in system.equations:
        assert f.constant_term() == 0
        assert f.degree <= 4


def test_build_system_counts_match_formula():
    rng = random.Random(21)
    for _ in range(10):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        cnf = random_cnf(rng, n, m)
        for d in (3, 4, 8):
            system = build_constant_free_system(cnf, d)
            assert len(system.equations) == expected_equation_count(n, m, d)


def test_constant_free_system_checks_each_source():
    x0, x1 = mask_of([0]), mask_of([1])
    with pytest.raises(PreconditionError, match="not over GF.2."):
        ConstantFreeSystem(n=1, d=4, sources=((SquarefreePoly(make_field(3), {x0: 1}), (0,)),))
    with pytest.raises(InternalConsistencyError, match="constant term"):
        ConstantFreeSystem(n=1, d=4, sources=((SquarefreePoly(GF2, {0: 1, x0: 1}), (x1,)),))
    with pytest.raises(InternalConsistencyError, match="reaches degree 3 > 2"):
        ConstantFreeSystem(n=2, d=2, sources=((SquarefreePoly(GF2, {x0: 1}), (0, mask_of([1, 2]))),))
    with pytest.raises(PreconditionError, match="beyond x1"):
        ConstantFreeSystem(n=1, d=4, sources=((SquarefreePoly(GF2, {x0: 1}), (mask_of([2]),)),))


@pytest.mark.parametrize("polys, shifts, d, message", [
    # the second source's own degree takes it past d
    ([{mask_of([0]): 1}, {mask_of([1, 2, 3]): 1}], (0, mask_of([1, 2])), 4, "source 1 reaches degree 5 > 4"),
    # the second source's own monomial names x4
    ([{mask_of([0]): 1}, {mask_of([4]): 1}], (0, mask_of([1, 2])), 8, "source 1 mentions a variable beyond x3"),
    # the shared shifts are too wide, or name x4, from the first source on
    ([{mask_of([0]): 1}, {mask_of([1]): 1}], (0, mask_of([1, 2, 3])), 3, "source 0 reaches degree 4 > 3"),
    ([{mask_of([0]): 1}, {mask_of([1]): 1}], (mask_of([4]), 0), 8, "source 0 mentions a variable beyond x3"),
])
def test_shared_shifts_give_the_errors_of_unshared_copies(polys, shifts, d, message):
    def error(sources):
        with pytest.raises((InternalConsistencyError, PreconditionError)) as info:
            ConstantFreeSystem(n=3, d=d, sources=tuple(sources))
        return type(info.value), str(info.value)

    polys = [SquarefreePoly(GF2, coeffs) for coeffs in polys]
    shared = error((f, shifts) for f in polys)
    copies = [tuple(list(shifts)) for _ in polys]
    assert copies[0] is not copies[1]
    assert shared == error(zip(polys, copies))
    assert shared[1] == message


def test_each_shift_tuple_is_checked_on_its_own():
    f = SquarefreePoly(GF2, {mask_of([0]): 1})
    narrow = (0, mask_of([1]))
    with pytest.raises(InternalConsistencyError, match="source 2 reaches degree 4 > 3"):
        ConstantFreeSystem(n=3, d=3, sources=((f, narrow), (f, narrow), (f, (mask_of([1, 2, 3]),))))
    with pytest.raises(PreconditionError, match="source 2 mentions a variable beyond x3"):
        ConstantFreeSystem(n=3, d=3, sources=((f, narrow), (f, narrow), (f, (mask_of([4]),))))


def test_equation_count_shifts_nothing(monkeypatch):
    cnf = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    system = build_constant_free_system(cnf, 8)

    def refuse(self, mask):
        raise AssertionError("len(system.equations) shifted a polynomial")

    monkeypatch.setattr(SquarefreePoly, "shift", refuse)
    assert len(system.equations) == expected_equation_count(3, 2, 8)


def test_build_system_rejects_tiny_degree():
    cnf = parse_dimacs("p cnf 1 1\n1 1 1 0\n")
    with pytest.raises(PreconditionError):
        build_constant_free_system(cnf, 2)


def test_satisfying_point_zeroes_every_equation():
    rng = random.Random(22)
    hits = 0
    while hits < 12:
        cnf = random_cnf(rng, rng.randint(2, 5), rng.randint(1, 5))
        points = satisfying_points(cnf)
        if not points:
            continue
        hits += 1
        system = build_constant_free_system(cnf, 4)
        a = (1,) + rng.choice(points)
        for f in system.equations:
            assert f.evaluate(a) == 0


# -- linearization ------------------------------------------------------------


def test_quad_system_shape():
    cnf = parse_dimacs("p cnf 1 1\n1 1 1 0\n")
    quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
    assert len(quad.basis) == sum(math.comb(2, j) for j in range(1, 5)) == 3
    assert len(quad.linearized) == 7
    # zero polynomials linearize to empty equations but are kept
    assert any(not eq.linear for eq in quad.linearized)


def test_multiplicativity_enumeration_frozen():
    # n=1, d=2: variables {0}, {1}, {0,1}; six pairs keep their union in range
    quad = build_monomial_quad_system(ConstantFreeSystem(n=1, d=2, sources=()))
    assert len(quad.multiplicativity) == 6
    pairs = {(s, t) for eq in quad.multiplicativity for s, t, _ in eq.quad}
    assert pairs == {
        (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
    }
    for eq in quad.multiplicativity:
        ((s, t, c),) = eq.quad
        assert eq.linear == ((s | t, 1),)


def reference_multiplicativity(basis):
    """The eager nested loop the lazy sequence replaced."""
    masks = basis.masks
    out = []
    for a in range(len(masks)):
        for b in range(a, len(masks)):
            union = masks[a] | masks[b]
            if union in basis:
                out.append(QuadEquation(quad=((masks[a], masks[b], 1),), linear=((union, 1),)))
    return out


def test_multiplicativity_count_and_order_match_the_nested_loop():
    for n in range(1, 7):
        for d in range(0, 10):
            quad = build_monomial_quad_system(ConstantFreeSystem(n=n, d=d, sources=()))
            reference = reference_multiplicativity(quad.basis)
            assert len(quad.multiplicativity) == len(reference)
            assert list(quad.multiplicativity) == reference
            assert list(quad.equations) == reference


def test_multiplicativity_is_counted_not_built():
    tracemalloc.start()
    try:
        quad = build_monomial_quad_system(ConstantFreeSystem(n=10, d=8, sources=()))
        count = len(quad.multiplicativity)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 1_141_536
    assert peak < 10 * 2**20
    small = build_monomial_quad_system(ConstantFreeSystem(n=7, d=8, sources=()))
    assert len(small.multiplicativity) == 32_640


def test_multiplicativity_respects_degree_cap():
    quad = build_monomial_quad_system(ConstantFreeSystem(n=3, d=2, sources=()))
    for eq in quad.multiplicativity:
        ((s, t, _),) = eq.quad
        assert bin(s | t).count("1") <= 2


def test_honest_assignment_satisfies_quad_system():
    rng = random.Random(23)
    hits = 0
    while hits < 8:
        cnf = random_cnf(rng, rng.randint(2, 4), rng.randint(1, 4))
        points = satisfying_points(cnf)
        if not points:
            continue
        hits += 1
        quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
        a = (1,) + rng.choice(points)
        u = tuple(
            1 if all(a[i] for i in range(cnf.n + 1) if mask >> i & 1) else 0
            for mask in quad.basis.masks
        )
        for eq in quad.equations:
            assert eq.value(u, quad.basis) == 0


# -- subspace -----------------------------------------------------------------


def test_subspace_rows_and_sizes():
    cnf = parse_dimacs("p cnf 1 1\n1 1 1 0\n")
    quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
    space = build_matrix_subspace(quad)
    assert space.variant == "U"
    assert len(space.rows) == 7
    assert space.matrix_side == len(quad.basis)
    assert space.coord_count == sum(math.comb(2, j) for j in range(1, 9))
    assert space.provenance["multiplicativity_cancelled"] == len(quad.multiplicativity)
    # n=1: the only member direction is the all-ones honest vector
    assert space.dimension() == 1
    assert space.contains((1, 1, 1))


def test_rows_are_the_linearized_equations():
    rng = random.Random(25)
    for _ in range(6):
        cnf = random_cnf(rng, rng.randint(1, 5), rng.randint(1, 5))
        quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
        space = build_matrix_subspace(quad)
        rank = space.coords.rank
        assert space.rows == tuple(
            tuple(sorted((rank(mask), c) for mask, c in eq.linear)) for eq in quad.linearized
        )


def test_reduce_builds_no_per_equation_objects(tmp_path, monkeypatch):
    """The CLI reduce path writes one row per shift without a QuadEquation
    and without keeping the shifted polynomials: each is dropped once the
    next is made, so no more than two are ever alive.  A source is shifted
    only on its own variables, at most 2^|vars(f)| times, however many
    shifts it has."""
    alive, peak, made = [0], [0], []

    class Counted(SquarefreePoly):
        __slots__ = ()

        def __del__(self):
            alive[0] -= 1

    real_shift = SquarefreePoly.shift

    def shift(self, mask):
        out = real_shift(self, mask)
        alive[0] += 1
        peak[0] = max(peak[0], alive[0])
        made.append(mask)
        return Counted(out.field, out.coeffs)

    def refuse(self, *args, **kwargs):
        raise AssertionError("reduce built a QuadEquation")

    monkeypatch.setattr(SquarefreePoly, "shift", shift)
    monkeypatch.setattr(QuadEquation, "__init__", refuse)
    text = "p cnf 4 6\n1 -2 3 0\n-1 2 4 0\n2 3 -4 0\n-3 -4 1 0\n1 2 3 0\n-2 -3 -4 0\n"
    (tmp_path / "f.cnf").write_text(text)
    out = tmp_path / "f.json"
    assert main(["reduce", "--mode", "superposition", "--input", str(tmp_path / "f.cnf"),
                 "--output", str(out)]) == 0
    rows = len(json.loads(out.read_text())["rows"])
    assert rows == expected_equation_count(4, 6, 8)
    sources = build_constant_free_system(parse_dimacs(text), 8).sources
    own_shifts = sum(2 ** reduce(or_, f.coeffs).bit_count() for f, _ in sources)
    assert len(made) <= own_shifts < rows
    assert peak[0] <= 2


def test_subspace_same_rows_over_extensions():
    cnf = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
    over2 = build_matrix_subspace(quad, GF2)
    over4 = build_matrix_subspace(quad, GF4)
    assert over2.rows == over4.rows
    assert over4.field == GF4
    with pytest.raises(PreconditionError, match="characteristic two"):
        build_matrix_subspace(quad, make_field(3))


def test_completeness_small_sweep():
    rng = random.Random(24)
    hits = 0
    while hits < 10:
        cnf = random_cnf(rng, rng.randint(1, 4), rng.randint(1, 4))
        points = satisfying_points(cnf)
        if not points:
            continue
        hits += 1
        quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
        space = build_matrix_subspace(quad)
        for z in points:
            y = honest_values(space, z)
            assert space.contains(y)
            assert space.expand(y).rank() == 1


# -- decomposition to superposition -------------------------------------------


def test_honest_member_gives_single_assignment():
    cnf = parse_dimacs("p cnf 1 1\n1 1 1 0\n")
    quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
    space = build_matrix_subspace(quad)
    y = honest_values(space, (1,))
    witness = low_rank_to_superposition(y, space, quad)
    assert witness.matrix_rank == 1
    assert witness.vectors == (y[: space.matrix_side],)
    assert witness.aggregate == y[: space.matrix_side]


def test_zero_member_gives_empty_family():
    cnf = parse_dimacs("p cnf 1 1\n1 1 1 0\n")
    quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
    space = build_matrix_subspace(quad)
    witness = low_rank_to_superposition((0,) * space.coord_count, space, quad)
    assert witness.vectors == ()
    assert witness.aggregate == (0,) * space.matrix_side
    assert witness.matrix_rank == 0


def test_sum_of_two_honest_members():
    cnf = parse_dimacs("p cnf 2 1\n1 2 0\n")
    quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
    space = build_matrix_subspace(quad)
    za, zb = (1, 0), (0, 1)
    ya, yb = honest_values(space, za), honest_values(space, zb)
    mixed = tuple(a ^ b for a, b in zip(ya, yb))
    witness = low_rank_to_superposition(mixed, space, quad)
    va = ya[: space.matrix_side]
    vb = yb[: space.matrix_side]
    assert witness.aggregate == tuple(a ^ b for a, b in zip(va, vb))
    assert len(witness.vectors) <= 3 * witness.matrix_rank // 2


def test_random_members_decompose_in_superposition():
    rng = random.Random(25)
    built = 0
    while built < 6:
        cnf = random_cnf(rng, rng.randint(2, 3), rng.randint(1, 3))
        quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
        space = build_matrix_subspace(quad)
        kernel = space.kernel_basis()
        if not kernel:
            continue
        built += 1
        for _ in range(5):
            coeffs = [rng.randint(0, 1) for _ in kernel]
            y = [0] * space.coord_count
            for c, vec in zip(coeffs, kernel):
                if c:
                    y = [a ^ b for a, b in zip(y, vec)]
            witness = low_rank_to_superposition(tuple(y), space, quad)
            assert len(witness.vectors) <= 3 * witness.matrix_rank // 2
            diag = [space.expand(y).entry(i, i) for i in range(space.matrix_side)]
            assert witness.aggregate == tuple(diag)


def test_non_member_is_rejected():
    cnf = parse_dimacs("p cnf 1 1\n1 1 1 0\n")
    quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
    space = build_matrix_subspace(quad)
    with pytest.raises(PreconditionError, match="not a subspace member"):
        low_rank_to_superposition((1, 0, 0), space, quad)


# -- rank certificate ---------------------------------------------------------


def test_certificate_frozen_examples():
    only_pair = PseudoMomentVector(GF2, basis_make(2, 2, "V"), (0, 0, 0, 1))
    cert = rank_certificate(only_pair)
    assert (cert.mask, cert.size, cert.bound, cert.applies) == (
        mask_of([1, 2]), 2, 2, True,
    )
    assert only_pair.expand(1).rank() >= cert.bound

    honest = honest_moment_vector(GF2, (1, 0), n=2, degree=2)
    cert = rank_certificate(honest)
    assert (cert.mask, cert.size, cert.bound) == (0, 0, 1)

    zero = PseudoMomentVector(GF2, basis_make(2, 2, "V"), (0, 0, 0, 0))
    assert rank_certificate(zero) is None


def test_certificate_on_planted_minima():
    rng = random.Random(26)
    for _ in range(40):
        n = rng.randint(2, 5)
        d = rng.randint(1, 2)
        basis = basis_make(n, 2 * d, "V")
        size = rng.randint(0, min(2 * d, n))
        planted = sorted(rng.sample(range(1, n + 1), size))
        mask = mask_of(planted)
        pos = basis.rank(mask)
        values = (
            (0,) * pos
            + (1,)
            + tuple(rng.randint(0, 1) for _ in range(len(basis) - pos - 1))
        )
        y = PseudoMomentVector(GF2, basis, values)
        cert = rank_certificate(y)
        assert cert.size == size
        assert cert.bound == math.comb(size, size // 2)
        if cert.applies:
            assert y.expand(d).rank() >= cert.bound
