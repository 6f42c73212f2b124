"""Monomial basis and squarefree algebra checks."""

import math
import random

import pytest

from rankgap.boolalg import (
    SquarefreePoly,
    basis_make,
    basis_size,
    format_monomial,
    format_poly,
    indices_of,
    mask_of,
    parse_monomial,
    parse_poly,
)
from rankgap.errors import ParseError, PreconditionError
from rankgap.gfarith import make_field

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)


def u_size(n, d):
    return sum(math.comb(n + 1, j) for j in range(1, d + 1))


def v_size(n, d):
    return sum(math.comb(n, j) for j in range(0, d + 1))


def test_basis_sizes_match_binomial_sums():
    for n in range(1, 9):
        for d in range(0, 2 * n + 3):
            assert len(basis_make(n, d, "U")) == u_size(n, d) == basis_size(n, d, "U")
            assert len(basis_make(n, d, "V")) == v_size(n, d) == basis_size(n, d, "V")
    # d = 0 and d beyond the universe
    assert basis_size(3, 0, "U") == 0 and basis_size(3, 0, "V") == 1
    assert basis_size(3, 50, "U") == 15 and basis_size(3, 50, "V") == 8
    assert basis_size(61, 61, "V") == 1 << 61


def test_basis_graded_lex_order():
    b = basis_make(2, 2, "U")
    # sizes 1..2 over symbols {0,1,2}
    expected = [
        mask_of([0]), mask_of([1]), mask_of([2]),
        mask_of([0, 1]), mask_of([0, 2]), mask_of([1, 2]),
    ]
    assert list(b) == expected
    v = basis_make(2, 1, "V")
    assert list(v) == [0, mask_of([1]), mask_of([2])]


def test_low_degree_basis_is_prefix():
    for variant in "UV":
        big = basis_make(3, 4, variant)
        for e in range(0, 5):
            small = basis_make(3, e, variant)
            assert big.masks[: len(small)] == small.masks


def test_rank_unrank_round_trip():
    b = basis_make(4, 3, "V")
    for i, mask in enumerate(b):
        assert b.rank(mask) == i
        assert b.masks[i] == mask
    with pytest.raises(PreconditionError):
        b.rank(mask_of([1, 2, 3, 4]))  # size 4 > degree


def test_degree_may_exceed_universe():
    # sizes beyond the universe simply do not occur
    b = basis_make(1, 4, "U")
    assert list(b) == [1, 2, 3]
    assert len(basis_make(2, 7, "V")) == 4


def test_basis_validation():
    with pytest.raises(PreconditionError):
        basis_make(0, 1, "U")
    with pytest.raises(PreconditionError):
        basis_make(2, -1, "V")
    with pytest.raises(PreconditionError):
        basis_make(2, 2, "W")
    with pytest.raises(PreconditionError):
        basis_make(70, 1, "V")


@pytest.mark.parametrize("args", [(0, 1, "U"), (2, -1, "V"), (2, 2, "W"), (62, 1, "U")])
def test_basis_size_validates_like_basis_make(args):
    with pytest.raises(PreconditionError) as made:
        basis_make(*args)
    with pytest.raises(PreconditionError) as sized:
        basis_size(*args)
    assert str(sized.value) == str(made.value)


def test_squarefree_product_collapses_repeats():
    x1 = SquarefreePoly.variable(GF2, 1)
    assert x1 * x1 == x1
    f = SquarefreePoly(GF2, {mask_of([0]): 1, mask_of([1]): 1})  # x0 + x1
    # (x0 + x1)^2 = x0 + x1 over GF(2) squarefree
    assert f * f == f


def test_ring_laws_random():
    rng = random.Random(21)
    for field in (GF2, GF3, GF4):
        for _ in range(25):
            polys = []
            for _ in range(3):
                coeffs = {
                    rng.randrange(32): rng.randrange(1, field.q)
                    for _ in range(rng.randrange(5))
                }
                polys.append(SquarefreePoly(field, coeffs))
            f, g, h = polys
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h


def test_eval_is_multiplicative_at_boolean_points():
    rng = random.Random(22)
    for field in (GF2, GF3, GF4):
        for _ in range(25):
            f = SquarefreePoly(
                field,
                {rng.randrange(16): rng.randrange(1, field.q) for _ in range(3)},
            )
            g = SquarefreePoly(
                field,
                {rng.randrange(16): rng.randrange(1, field.q) for _ in range(3)},
            )
            pt = [rng.randrange(2) for _ in range(4)]
            fg = f * g
            assert fg.evaluate(pt) == field.mul(f.evaluate(pt), g.evaluate(pt))
            s = (f + g).evaluate(pt)
            assert s == field.add(f.evaluate(pt), g.evaluate(pt))


def test_eval_frozen_examples():
    x1x2 = SquarefreePoly.monomial(GF2, mask_of([1, 2]))
    assert x1x2.evaluate((1, 1, 1)) == 1
    x0_plus_x1 = SquarefreePoly(GF2, {1: 1, 2: 1})
    assert x0_plus_x1.evaluate((1, 0)) == 1


def test_eval_first_var_offset():
    f = SquarefreePoly.variable(GF3, 2)
    assert f.evaluate((0, 1), first_var=1) == 1
    assert f.evaluate((0, 0, 1), first_var=0) == 1
    with pytest.raises(PreconditionError, match="x2"):
        f.evaluate((1,), first_var=0)


def test_mixed_field_polys_rejected():
    with pytest.raises(PreconditionError):
        SquarefreePoly.variable(GF2, 1) + SquarefreePoly.variable(GF3, 1)


def test_monomial_text():
    assert format_monomial(0) == "1"
    assert format_monomial(mask_of([0, 3, 7])) == "x0*x3*x7"
    assert parse_monomial("x0*x3*x7") == mask_of([0, 3, 7])
    assert parse_monomial("1") == 0
    with pytest.raises(ParseError):
        parse_monomial("y2")


def test_poly_text_round_trip():
    rng = random.Random(23)
    for field in (GF2, GF3, GF4):
        for _ in range(20):
            f = SquarefreePoly(
                field,
                {rng.randrange(64): rng.randrange(1, field.q) for _ in range(4)},
            )
            assert parse_poly(format_poly(f), field) == f
    assert format_poly(SquarefreePoly.zero(GF2)) == "0"
    assert parse_poly("0", GF3).is_zero()


def test_poly_text_frozen():
    f = SquarefreePoly(GF3, {mask_of([1, 2]): 2, 0: 1})
    assert format_poly(f) == "1 + 2*x1*x2"
    assert parse_poly("2*x1*x2 + 1", GF3) == f
    # minus joiner applies field negation
    assert parse_poly("x1 - x2", GF3) == SquarefreePoly(GF3, {2: 1, 4: 2})
    # oversized prime-field coefficients reduce
    assert parse_poly("7*x1", make_field(5)) == SquarefreePoly(
        make_field(5), {2: 2}
    )


def test_shift_is_monomial_multiplication():
    rng = random.Random(24)
    for _ in range(20):
        f = SquarefreePoly(
            GF2, {rng.randrange(32): 1 for _ in range(rng.randrange(1, 5))}
        )
        mask = rng.randrange(32)
        assert f.shift(mask) == f * SquarefreePoly.monomial(GF2, mask)


def test_support_and_degree():
    f = SquarefreePoly(GF2, {mask_of([1, 2]): 1, mask_of([3]): 1, 0: 1})
    assert f.support() == (0, mask_of([3]), mask_of([1, 2]))
    assert f.degree == 2
    assert SquarefreePoly.zero(GF2).degree == -1
    assert f.constant_term() == 1
    assert indices_of(mask_of([5, 9])) == (5, 9)
