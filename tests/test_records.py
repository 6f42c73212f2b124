"""The record decorator: construction, equality, hashing, repr and
immutability of the package's value classes."""

from functools import cached_property

import pytest

from rankgap import subspace
from rankgap.errors import PreconditionError
from rankgap.frontends import CnfFormula
from rankgap.gfarith import make_field
from rankgap.oracles import MembershipReport, MinrankReport, PointSet, SuperpositionReport
from rankgap.records import record, uncompared
from rankgap.subspace import SubspaceSpec
from rankgap.superposition import QuadEquation

GF2 = make_field(2)
ROW = ((1, 1), (2, 1))


@record
class Pair:
    left: int
    right: int = 0
    tags: list = uncompared(list)

    def __post_init__(self):
        if self.left < 0:
            raise ValueError("left must be non-negative")


def space(provenance):
    return SubspaceSpec(GF2, "V", 2, 1, (ROW,), provenance)


def test_provenance_is_shown_but_not_compared():
    a, b = space({"seed": 1}), space({"seed": 2})
    assert a == b and hash(a) == hash(b)
    assert "provenance={'seed': 1}" in repr(a)
    assert repr(a).startswith("SubspaceSpec(field=FieldSpec(GF(2)), variant='V', n=2, d=1, ")
    assert a != SubspaceSpec(GF2, "V", 2, 1, (), {"seed": 1})


def test_an_omitted_provenance_is_a_fresh_dict():
    a, b = SubspaceSpec(GF2, "V", 2, 1, ()), SubspaceSpec(GF2, "V", 2, 1, ())
    assert a.provenance == {} and a.provenance is not b.provenance
    assert "provenance" not in SubspaceSpec.__dict__


def test_equal_records_hash_equally():
    pairs = [
        (QuadEquation(((1, 2, 1),), ((4, 1),)), QuadEquation(((1, 2, 1),), ((4, 1),))),
        (CnfFormula(3, ((1, -2, 3),)), CnfFormula(n=3, clauses=((1, -2, 3),))),
        (MinrankReport("ok", "ab", 2, 8, 1, (1, 0)), MinrankReport("ok", "ab", 2, 8, minrank=1, witness=(1, 0))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    assert QuadEquation((), ((4, 1),)) != QuadEquation((), ((2, 1),))


def test_equality_needs_one_class():
    assert MembershipReport(True, None) != SuperpositionReport(True, None)
    assert MembershipReport(True, None) != (True, None)
    assert MembershipReport(True, None) == MembershipReport(ok=True, violated_row=None)


def test_minrank_report_defaults():
    report = MinrankReport("empty", "ab", 0, 0)
    assert (report.minrank, report.witness) == (None, None)
    assert report == MinrankReport(status="empty", subspace_hash="ab", kernel_dimension=0, enumerated=0)
    assert repr(report) == (
        "MinrankReport(status='empty', subspace_hash='ab', kernel_dimension=0, "
        "enumerated=0, minrank=None, witness=None)"
    )


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("ok", "ab", 2), {}, "missing argument 'enumerated'"),
        (("ok", "ab", 2, 8), {"rank": 1}, "has no argument 'rank'"),
        (("ok", "ab", 2, 8), {"status": "empty"}, "got two values for argument 'status'"),
        (("ok", "ab", 2, 8, 1, (1,), 3), {}, "takes 6 arguments, 7 given"),
    ],
)
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        MinrankReport(*args, **kwargs)


def test_records_are_immutable():
    report = MembershipReport(True, None)
    with pytest.raises(AttributeError):
        report.ok = False
    with pytest.raises(AttributeError):
        report.extra = 1
    with pytest.raises(AttributeError):
        del report.ok
    assert report.ok is True and not hasattr(report, "extra")


def test_post_init_refusals_reach_the_caller():
    with pytest.raises(PreconditionError, match="matrix degree must be at least 1"):
        SubspaceSpec(GF2, "V", 2, 0, ())
    with pytest.raises(PreconditionError, match="appears twice"):
        PointSet(1, ((0, 1), (0, 1)))


def test_post_init_may_set_a_field_through_object():
    assert PointSet(1, ((1, 1), (0, 1))).points == ((0, 1), (1, 1))


def test_a_loaded_space_keeps_the_loaders_distinct_rows(monkeypatch):
    text = SubspaceSpec(GF2, "V", 2, 1, (ROW,) * 100, {}).to_text()
    seen = []

    def canonical_parts(text):
        parts = read(text)
        seen.append(parts)
        return parts

    read = subspace._canonical_parts
    monkeypatch.setattr(subspace, "_canonical_parts", canonical_parts)
    loaded = SubspaceSpec.from_text(text)
    assert seen and seen[0] is not None
    assert loaded.distinct_rows is seen[0][2]
    assert loaded.distinct_rows == ((0, ROW),)


def test_defaults_factories_and_post_init_of_a_new_record():
    assert Pair(1) == Pair(1, 0, ["x"]) and Pair(1) != Pair(1, 2)
    assert Pair(1).tags == [] and Pair(1).tags is not Pair(1).tags
    assert repr(Pair(1, tags=["x"])) == "Pair(left=1, right=0, tags=['x'])"
    with pytest.raises(ValueError, match="left must be non-negative"):
        Pair(-1)


@record
class Resolved:
    left: int
    right: tuple
    tags: list = uncompared(list)

    @cached_property
    def right(self):
        return (self.left,) * 2


def test_a_field_resolved_on_first_read_compares_hashes_and_prints_as_one_given():
    """A field left to its cached_property is computed by the first read,
    whichever of ==, hash, repr or an attribute read that is, and stored
    as a given field is; given, it is taken as it is."""
    given = Resolved(3, (3, 3))
    firsts = [
        lambda r: r == given,
        lambda r: given == r,
        lambda r: hash(r) == hash(given),
        lambda r: repr(r) == repr(given) == "Resolved(left=3, right=(3, 3), tags=[])",
        lambda r: r.right == (3, 3),
    ]
    for first in firsts:
        left_out = Resolved(3)
        assert "right" not in left_out.__dict__
        assert first(left_out)
        assert left_out.__dict__["right"] == (3, 3)
    assert Resolved(left=3, tags=["x"]) == given and len({Resolved(3), given}) == 1
    assert Resolved(3, (1,)) != given and Resolved(3, (1,)).right == (1,)
    with pytest.raises(AttributeError, match="cannot assign"):
        Resolved(3).right = (3, 3)
    with pytest.raises(TypeError, match="missing argument 'left'"):
        Resolved(right=(1,))


def test_a_loaded_space_builds_its_rows_on_first_read():
    """A space from_text reads by the canonical route keeps a function that
    builds its rows, not the rows; its first read of rows calls it and
    lets it go, and a space given neither is refused as any record missing
    a field is."""
    rows = (ROW, ((0, 1),)) * 50
    loaded = SubspaceSpec.from_text(SubspaceSpec(GF2, "V", 2, 1, rows).to_text())
    assert "rows" not in loaded.__dict__ and "_build_rows" in loaded.__dict__
    assert loaded.rows == rows and loaded.rows[0] is loaded.rows[2]
    assert "_build_rows" not in loaded.__dict__
    with pytest.raises(TypeError, match="missing argument 'rows'"):
        SubspaceSpec(GF2, "V", 2, 1)
