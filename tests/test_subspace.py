"""Quotient-coordinate subspaces: expansion, membership, instance files."""

import json
import random

import pytest

from rankgap import boolalg, subspace
from rankgap.boolalg import basis_make, basis_size, mask_of
from rankgap.cli import main
from rankgap.errors import ParseError, PreconditionError
from rankgap.gfarith import make_field
from rankgap.gflinalg import FFMatrix, rank_descent
from rankgap.subspace import PseudoMomentVector, SubspaceSpec, honest_moment_vector

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)


def tiny_spec(field=GF2, rows=(((1, 1), (2, 1)),), provenance=None):
    """V-variant, n=2, d=1: coordinates [emptyset, {1}, {2}, {1,2}]."""
    return SubspaceSpec(field, "V", 2, 1, rows, provenance or {})


# -- honest vectors -----------------------------------------------------------


def test_honest_vector_frozen_values():
    y = honest_moment_vector(GF2, (0, 0), n=2, degree=2)
    assert y.values == (1, 0, 0, 0)
    y = honest_moment_vector(GF2, (1, 1), n=2, degree=2)
    assert y.values == (1, 1, 1, 1)
    # U variant takes the homogenizing slot first
    y = honest_moment_vector(GF2, (1, 0), n=1, degree=2, variant="U")
    assert y.basis.masks == (mask_of([0]), mask_of([1]), mask_of([0, 1]))
    assert y.values == (1, 0, 0)


def test_honest_vector_products():
    rng = random.Random(5)
    for field in (GF2, GF3, GF4):
        for _ in range(20):
            n = rng.randint(1, 5)
            a = tuple(rng.randint(0, 1) for _ in range(n))
            y = honest_moment_vector(field, a, n=n, degree=4)
            for mask, v in zip(y.basis.masks, y.values):
                prod = 1
                for i in range(1, n + 1):
                    if mask >> i & 1:
                        prod *= a[i - 1]
                assert v == prod


def test_honest_vector_rejects_non_boolean():
    with pytest.raises(PreconditionError, match="not Boolean"):
        honest_moment_vector(GF3, (2, 0), n=2, degree=2)
    with pytest.raises(PreconditionError, match="needs 3 assignment entries"):
        honest_moment_vector(GF2, (1, 0), n=2, degree=2, variant="U")


# -- expansion ----------------------------------------------------------------


def test_expand_frozen_matrices():
    y = PseudoMomentVector(GF2, basis_make(2, 2, "V"), (1, 0, 0, 0))
    h = y.expand(1)
    assert h.rows == ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    assert h.rank() == 1

    ones = honest_moment_vector(GF2, (1, 1), n=2, degree=2).expand(1)
    assert ones.rows == ((1, 1, 1), (1, 1, 1), (1, 1, 1))
    assert ones.rank() == 1

    offdiag = PseudoMomentVector(GF2, basis_make(2, 2, "V"), (0, 0, 0, 1))
    h = offdiag.expand(1)
    assert h.rows == ((0, 0, 0), (0, 0, 1), (0, 1, 0))
    assert h.rank() == 2


def test_expand_is_symmetric_and_level_checked():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        basis = basis_make(n, 4, "V")
        y = PseudoMomentVector(
            GF3, basis, tuple(rng.randrange(3) for _ in range(len(basis)))
        )
        for level in (0, 1, 2):
            assert y.expand(level).is_symmetric()
        with pytest.raises(PreconditionError, match="level 3"):
            y.expand(3)


def test_honest_expansion_is_outer_product():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = tuple(rng.randint(0, 1) for _ in range(n))
        y = honest_moment_vector(GF3, a, n=n, degree=4)
        h = y.expand(2)
        v = [y.value(mask) for mask in basis_make(n, 2, "V").masks]
        expected = [[x * z % 3 for z in v] for x in v]
        assert h.rows == tuple(tuple(r) for r in expected)
        assert h.rank() == 1  # v is nonzero: the empty-set entry is 1


def test_truncated_column():
    y = honest_moment_vector(GF2, (1, 0), n=2, degree=2)
    assert y.truncated_column(0, 1) == (1, 1, 0)
    assert y.truncated_column(mask_of([2]), 1) == (0, 0, 0)
    assert y.truncated_column(mask_of([1]), 1) == (1, 1, 0)
    with pytest.raises(PreconditionError, match="beyond degree"):
        y.truncated_column(mask_of([1, 2]), 1)
    with pytest.raises(PreconditionError, match="outside the variable range"):
        y.truncated_column(mask_of([0]), 1)


def test_vector_validation():
    with pytest.raises(PreconditionError, match="values for a basis"):
        PseudoMomentVector(GF2, basis_make(2, 2, "V"), (1, 0))
    with pytest.raises(PreconditionError):
        PseudoMomentVector(GF2, basis_make(2, 2, "V"), (2, 0, 0, 0))


def test_support_order():
    y = PseudoMomentVector(GF2, basis_make(2, 2, "V"), (0, 1, 0, 1))
    assert y.support() == (mask_of([1]), mask_of([1, 2]))
    assert not y.is_zero()
    assert PseudoMomentVector(GF2, basis_make(2, 2, "V"), (0, 0, 0, 0)).is_zero()


# -- subspace membership ------------------------------------------------------


def test_membership_and_kernel():
    # single constraint y_{1} + y_{2} = 0 on four coordinates
    spec = tiny_spec()
    assert spec.contains((1, 1, 1, 0))
    assert spec.membership_violation((1, 1, 0, 0)) == 0
    kernel = spec.kernel_basis()
    assert len(kernel) == 3 == spec.dimension()
    for y in kernel:
        assert spec.contains(y)


def test_empty_row_is_kept_and_vacuous():
    spec = tiny_spec(rows=((), ((1, 1), (2, 1))))
    assert len(spec.rows) == 2
    assert spec.contains((1, 1, 1, 1))
    assert spec.membership_violation((0, 1, 0, 0)) == 1


def test_expand_extract_round_trip():
    rng = random.Random(13)
    for field in (GF2, GF3):
        for _ in range(10):
            spec = tiny_spec(field=field)
            y = tuple(rng.randrange(field.q) for _ in range(4))
            assert spec.extract_vector(spec.expand(y)) == y


def test_matrix_violation():
    spec = tiny_spec()
    member = spec.expand((1, 1, 1, 0))
    assert spec.matrix_violation(member) is None

    nonmember = spec.expand((1, 1, 0, 0))
    assert spec.matrix_violation(nonmember) == "row 0"

    rows = [list(r) for r in member.rows]
    rows[0][1] = 0  # break the tie with the symmetric entry
    assert spec.matrix_violation(FFMatrix(GF2, rows)).startswith("equal-union tie")

    with pytest.raises(PreconditionError, match="shape"):
        spec.matrix_violation(FFMatrix.identity(GF2, 2))
    with pytest.raises(PreconditionError, match="cannot be checked"):
        tiny_spec(field=GF3).matrix_violation(FFMatrix.identity(GF2, 3))


def test_matrix_violation_accepts_extensions_of_gf2():
    spec = tiny_spec()
    alpha = 2
    member = FFMatrix(
        GF4, [[GF4.mul(alpha, v) for v in row] for row in spec.expand((1, 1, 1, 0)).rows]
    )
    assert spec.matrix_violation(member) is None
    descended = rank_descent(member, spec)
    assert descended.rank() <= 2 * member.rank()
    assert spec.matrix_violation(descended) is None


def test_spec_validation_errors():
    with pytest.raises(PreconditionError, match="matrix degree must be at least 1, got 0"):
        SubspaceSpec(GF2, "V", 2, 0, ())
    with pytest.raises(PreconditionError, match="unknown basis variant 'W'"):
        SubspaceSpec(GF2, "W", 2, 1, ())
    with pytest.raises(PreconditionError, match="strictly increasing"):
        tiny_spec(rows=(((2, 1), (1, 1)),))
    with pytest.raises(PreconditionError, match="zero coefficient"):
        tiny_spec(rows=(((1, 0),),))
    with pytest.raises(PreconditionError, match="coordinates for a basis"):
        tiny_spec().contains((1, 0))


# -- instance files -----------------------------------------------------------


def test_instance_file_round_trip():
    spec = tiny_spec(
        field=GF4,
        rows=(((0, 1), (3, 2)), ()),
        provenance={"source": "abc123", "k": 1, "regime": "faithful"},
    )
    text = spec.to_text()
    back = SubspaceSpec.from_text(text)
    assert back == spec
    assert back.provenance == spec.provenance
    assert back.to_text() == text  # byte-for-byte stable


def test_instance_file_errors():
    with pytest.raises(ParseError, match="bad JSON"):
        SubspaceSpec.from_text("{nope")
    with pytest.raises(ParseError, match="JSON object"):
        SubspaceSpec.from_text("[1,2]")
    with pytest.raises(ParseError, match="not a subspace document"):
        SubspaceSpec.from_text('{"format": "poem"}')
    doc = tiny_spec().to_json()
    doc["coord_count"] = 17
    with pytest.raises(ParseError, match="coord_count says 17"):
        SubspaceSpec.from_json(doc)
    doc = tiny_spec().to_json()
    del doc["n"]
    with pytest.raises(ParseError, match="malformed subspace"):
        SubspaceSpec.from_json(doc)
    # past the digits int() reads (Python 3.11 and later)
    with pytest.raises(ParseError):
        SubspaceSpec.from_text('{"n": ' + "9" * 5000 + "}")


def test_loading_builds_no_basis(monkeypatch):
    def no_basis(*args):
        raise AssertionError(f"basis_make{args} called")

    monkeypatch.setattr(boolalg, "basis_make", no_basis)
    monkeypatch.setattr(subspace, "basis_make", no_basis)
    # 103 bytes that declare 2^40 coordinates
    text = ('{"format":"subspace","field":"GF(2)","variant":"V","n":40,"d":20,'
            '"coord_count":1099511627776,"rows":[]}')
    space = SubspaceSpec.from_text(text)
    assert (space.coord_count, space.matrix_side) == (1 << 40, basis_size(40, 20, "V"))
    assert json.loads(space.to_text())["matrix_side"] == space.matrix_side


@pytest.mark.parametrize(
    "bad, verify_message",
    [
        (True, "bad vector entry 'True'"),
        (2, "2 is not an element of GF(2)"),
        (-1, "-1 is not an element of GF(2)"),
        (1.0, "bad vector entry '1.0'"),
    ],
)
def test_every_coordinate_check_names_the_bad_value(tmp_path, capsys, bad, verify_message):
    """verify --vector reads integers from text, so True and 1.0 fail to
    parse there; the library checks name the value itself."""
    spec = tiny_spec()
    values = (1, bad, 0, 0)
    message = f"{bad!r} is not an element of GF(2)"
    with pytest.raises(PreconditionError) as exc:
        spec.contains(values)
    assert str(exc.value) == message
    with pytest.raises(PreconditionError) as exc:
        PseudoMomentVector(GF2, spec.coords, values)
    assert str(exc.value) == message
    inst, vec = tmp_path / "space.json", tmp_path / "member.vec"
    inst.write_text(spec.to_text())
    vec.write_text(f"1,{bad},0,0\n")
    assert main(["verify", "--input", str(inst), "--vector", str(vec)]) == 2
    assert capsys.readouterr().err == f"error: {verify_message}\n"
