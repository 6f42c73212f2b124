"""Field arithmetic checks: frozen small-field values plus law sweeps.

Laws are checked exhaustively: pure-python triple loops for tiny fields,
numpy table algebra for everything up to q = 256.
"""

import numpy as np
import pytest

from rankgap.errors import ParseError, PreconditionError
from rankgap.gfarith import (
    _irreducible_witness,
    format_field,
    make_field,
    make_linear_functional,
    parse_field_descriptor,
)

GF2 = make_field(2)
GF4 = make_field(2, 2)
GF5 = make_field(5)


def test_gf4_generator_square():
    # alpha * alpha = alpha + 1 under x^2 + x + 1; encodings 2 and 3
    assert GF4.modulus == (1, 1, 1)
    assert GF4.mul(2, 2) == 3
    assert GF4.add(2, 1) == 3


def test_gf5_inverse():
    assert GF5.inv(2) == 3
    assert GF5.mul(2, 3) == 1


def test_canonical_moduli():
    assert make_field(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1


def test_reducible_modulus_rejected_with_witness():
    with pytest.raises(PreconditionError, match="reducible"):
        make_field(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2


def _trial_division_witness(coeffs, p):
    """The first monic factor of degree 1..deg//2 that divides coeffs (low
    degree first), trying degrees in turn and, within one, the low-to-high
    coefficient words in increasing order; None when there is none."""
    deg = len(coeffs) - 1
    for fdeg in range(1, deg // 2 + 1):
        for word in range(p**fdeg):
            den = [word // p**i % p for i in range(fdeg)] + [1]
            rem = list(coeffs)
            while len(rem) > fdeg:
                lead, shift = rem.pop(), len(rem) - fdeg
                for i, c in enumerate(den[:-1]):
                    rem[shift + i] = (rem[shift + i] - lead * c) % p
            if not any(rem):
                return tuple(den)
    return None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_witness_matches_trial_division_on_every_monic_polynomial(p):
    # degree-1 factors are found from roots, the rest by division; both
    # must name the factor plain trial division names first
    for deg in range(2, 6):
        for word in range(p**deg):
            coeffs = tuple(word // p**i % p for i in range(deg)) + (1,)
            assert _irreducible_witness(coeffs, p) == _trial_division_witness(coeffs, p), coeffs


def test_modulus_must_be_monic():
    with pytest.raises(PreconditionError, match="monic"):
        make_field(3, 2, (1, 0, 2))


def test_non_prime_characteristic_rejected():
    with pytest.raises(PreconditionError, match="not prime"):
        make_field(6)


def test_fields_past_2_to_the_24_are_refused_before_any_search():
    assert make_field(2, 24).q == 1 << 24
    for p, e in ((2, 25), (3, 30), (16777259, 1), (10**30 + 57, 1), (2, 99999999999)):
        with pytest.raises(PreconditionError, match="more than 2\\^24 elements"):
            make_field(p, e)
    # past the digits int() reads (Python 3.11 and later), or past the bound
    with pytest.raises(PreconditionError):
        parse_field_descriptor("GF(" + "7" * 5000 + ")")


@pytest.mark.parametrize("p, e", [(2, 9), (3, 6)])
def test_inverses_past_the_table_limit(p, e):
    """Fields of more than 256 elements keep no tables: inv goes through
    pow, and the rows tables() hands out call into the field."""
    field = make_field(p, e)
    inv = field.tables()[3]
    for a in range(1, field.q):
        b = field.inv(a)
        assert field.mul(a, b) == 1 and inv[a] == b


def test_inverse_of_zero():
    for field in (GF2, GF4, GF5):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)


def test_coeff_round_trip():
    for field in (GF4, make_field(3, 2), make_field(2, 3)):
        for a in range(field.q):
            assert field.from_coeffs(field.coeffs(a)) == a


def test_descriptor_round_trip():
    for field in (GF2, GF4, GF5, make_field(2, 3), make_field(3, 2), make_field(7)):
        assert parse_field_descriptor(format_field(field)) == field
    assert format_field(GF4) == "GF(2^2; 1,1,1)"
    assert format_field(GF5) == "GF(5)"
    assert parse_field_descriptor("GF(2^3)") == make_field(2, 3)
    with pytest.raises(ParseError):
        parse_field_descriptor("GF(four)")


def _tables(field):
    q = field.q
    add = np.array([[field.add(a, b) for b in range(q)] for a in range(q)], dtype=np.uint16)
    mul = np.array([[field.mul(a, b) for b in range(q)] for a in range(q)], dtype=np.uint16)
    return add, mul


@pytest.mark.parametrize(
    "p,e",
    [
        (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (31, 1), (61, 1),
        (127, 1), (251, 1),
        (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
        (3, 2), (3, 3), (3, 4), (3, 5),
        (5, 2), (5, 3), (7, 2), (11, 2), (13, 2),
    ],
)
def test_field_laws_exhaustive(p, e):
    """Associativity, commutativity, distributivity and the inverse law,
    exhaustively over all elements (table algebra keeps q = 256 cheap)."""
    field = make_field(p, e)
    q = field.q
    add, mul = _tables(field)

    assert (add == add.T).all()
    assert (mul == mul.T).all()
    # a + (b + c) == (a + b) + c  and the same for *
    assert np.array_equal(add[add], add[:, add])
    assert np.array_equal(mul[mul], mul[:, mul])
    # a * (b + c) == a*b + a*c
    lhs = mul[:, add]
    rhs = add[mul[:, :, None], mul[:, None, :]]
    assert np.array_equal(lhs, rhs)
    # identities and inverses
    assert np.array_equal(add[0], np.arange(q))
    assert np.array_equal(mul[1], np.arange(q))
    for a in range(1, q):
        assert field.mul(a, field.inv(a)) == 1
    for a in range(q):
        assert field.add(a, field.neg(a)) == 0


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (7, 2), (5, 3), (3, 5), (2, 8)])
def test_operation_tables_match_the_field(p, e):
    """Every table entry equals the operation it stands for, products
    formed by polynomial multiplication."""
    field = make_field(p, e)
    add, sub, mul, inv = field.tables()
    elems = range(field.q)
    assert add == [[field.add(a, b) for b in elems] for a in elems]
    assert sub == [[field.sub(a, b) for b in elems] for a in elems]
    assert mul == [[field._mul_poly(a, b) for b in elems] for a in elems]
    assert inv[0] == 0
    assert all(mul[a][inv[a]] == 1 for a in elems[1:])


def test_functional_keyed_to_lowest_nonzero_coordinate():
    # alpha's coefficient vector is (0, 1): the functional extracts coeff 2
    phi = make_linear_functional(GF4, 2)
    assert phi.row == (0, 1)
    assert phi(2) == 1

    phi1 = make_linear_functional(GF4, 1)
    assert phi1.row == (1, 0)
    assert phi1(1) == 1 and phi1(2) == 0 and phi1(3) == 1


def test_functional_additivity_exhaustive():
    for field in (GF4, make_field(2, 3)):
        for t in range(1, field.q):
            phi = make_linear_functional(field, t)
            assert phi(t) == 1
            for x in range(field.q):
                for y in range(field.q):
                    assert phi(field.add(x, y)) == phi(x) ^ phi(y)


def test_functional_requires_char2_and_nonzero_key():
    with pytest.raises(PreconditionError):
        make_linear_functional(GF5, 1)
    with pytest.raises(PreconditionError):
        make_linear_functional(GF4, 0)


def test_gf2_identity_functional():
    phi = make_linear_functional(GF2, 1)
    assert phi(0) == 0 and phi(1) == 1


def test_element_validation():
    with pytest.raises(PreconditionError):
        GF4.validate(4)
    with pytest.raises(PreconditionError):
        GF4.validate(-1)
