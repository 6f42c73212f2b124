"""Repeated constraint rows are checked, decided and rendered once.

The CNF reduction writes one row per clause and shift, so most rows repeat.
Loading gives equal rows one shared tuple, and SubspaceSpec.distinct_rows
lists each row object once with the index where it first appears:
construction checks, check_membership and membership_violation evaluate,
kernel_basis eliminates and to_text renders each distinct row once.  Here
each is held to the all-rows form it replaces, on spaces whose rows are
drawn from a small pool with empty rows mixed in.  The two builders hand
over the first appearances localizing_rows saw, and those are held to the
walk the property makes over the rows.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import rankgap.gflinalg
from rankgap.boolalg import SquarefreePoly, basis_make, basis_size
from rankgap.cli import main
from rankgap.errors import BudgetExceededError, ParseError, PreconditionError
from rankgap.frontends import CnfFormula, QuadSystemSource
from rankgap.gfarith import make_field
from rankgap.moment import build_moment_subspace
from rankgap.oracles import check_membership, minrank_bruteforce
from rankgap.subspace import SubspaceSpec
from rankgap.superposition import (
    build_constant_free_system,
    build_matrix_subspace,
    build_monomial_quad_system,
)

FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5)]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def spaces(draw, fields=FIELDS):
    """A space over one of fields of up to 40 rows, each drawn from a pool
    of at most four rows and the empty row, with JSON provenance."""
    field = draw(st.sampled_from(fields))
    variant = draw(st.sampled_from("UV"))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    ncoords = basis_size(n, 2 * d, variant)
    row = st.dictionaries(
        st.integers(0, ncoords - 1), st.integers(1, field.q - 1), max_size=4
    ).map(lambda entries: tuple(sorted(entries.items())))
    pool = draw(st.lists(row, min_size=1, max_size=4)) + [()]
    rows = draw(st.lists(st.sampled_from(pool), max_size=40))
    provenance = draw(st.dictionaries(st.text(max_size=4), json_values, max_size=3))
    return SubspaceSpec(field, variant, n, d, tuple(rows), provenance)


def first_violated_row(space, values):
    """The dense oracle before it skipped repeats: every row, in order."""
    f = space.field
    for k, row in enumerate(space.rows):
        dense = [0] * space.coord_count
        for pos, coeff in row:
            dense[pos] = coeff
        acc = 0
        for a, v in zip(dense, values):
            acc = f.add(acc, f.mul(a, v))
        if acc:
            return k
    return None


def assert_same_violated_row(space, values):
    expected = first_violated_row(space, values)
    assert check_membership(values, space).violated_row == expected
    assert space.membership_violation(values) == expected


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spaces(), st.randoms(use_true_random=False))
def test_membership_names_the_first_violated_row(space, rng):
    f = space.field
    kernel = space.kernel_basis()
    for _ in range(4):
        assert_same_violated_row(space, [rng.randrange(f.q) for _ in range(space.coord_count)])
        # a planted member, then the same member with one coordinate moved
        member = [0] * space.coord_count
        for vec in kernel:
            c = rng.randrange(f.q)
            member = [f.add(a, f.mul(c, b)) for a, b in zip(member, vec)]
        assert_same_violated_row(space, member)
        pos = rng.randrange(space.coord_count)
        member[pos] = f.add(member[pos], rng.randrange(1, f.q))
        assert_same_violated_row(space, member)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spaces())
def test_kernel_matches_the_dense_rows(space):
    assert space.kernel_basis() == space.dense_rows().kernel_basis()


def encoder_text(space):
    return json.dumps(space.to_json(), indent=2, sort_keys=True) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spaces())
def test_instance_text_is_the_encoders(space):
    assert space.to_text() == encoder_text(space)


def test_instance_text_on_chosen_provenance_and_rows():
    gf3 = make_field(3)
    row = ((0, 1), (3, 2))
    provenances = [
        {},
        {"a": {"b": [1, {"c": []}], "d": {}}, "e": [[], [[]]]},
        {"x": 0.1, "y": -2.5e-300, "z": float("inf")},
        {"name": "Grüße ☃ \"quoted\"\n\t", "é": ["😀"]},
        {"rows": [[1, 2]], "variant": "\n  \"variant\": "},
    ]
    for rows in [(), ((),), (row, (), row, row, ((2, 1),), ())]:
        for provenance in provenances:
            space = SubspaceSpec(gf3, "V", 2, 1, rows, provenance)
            assert space.to_text() == encoder_text(space)
    assert '"rows": []' in SubspaceSpec(gf3, "V", 2, 1, ()).to_text()


def reduced_cnf(tmp_path):
    src, out = tmp_path / "two.cnf", tmp_path / "two.json"
    src.write_text("p cnf 3 2\n1 2 3 0\n-1 2 -3 0\n")
    assert main(["reduce", "--mode", "superposition", "--input", str(src), "--output", str(out)]) == 0
    return out.read_text()


def test_cnf_kernel_eliminates_each_distinct_row_once(tmp_path, monkeypatch):
    space = SubspaceSpec.from_text(reduced_cnf(tmp_path))
    distinct = set(space.rows)
    assert len(distinct) < len(space.rows)

    seen = []
    packed_rank = rankgap.gflinalg.packed_rank

    def recording(rows, *args, **kwargs):
        rows = list(rows)
        seen.append(rows)
        return packed_rank(rows, *args, **kwargs)

    monkeypatch.setattr(rankgap.gflinalg, "packed_rank", recording)
    kernel = space.kernel_basis()
    assert [len(rows) for rows in seen] == [len(distinct)]
    assert len(set(seen[0])) == len(distinct)
    monkeypatch.undo()
    assert kernel == space.dense_rows().kernel_basis()


def test_loaded_equal_rows_are_one_object(tmp_path):
    space = SubspaceSpec.from_text(reduced_cnf(tmp_path))
    first = {}
    for row in space.rows:
        assert first.setdefault(row, row) is row
    assert len(first) < len(space.rows)
    assert [row for _, row in space.distinct_rows] == list(first)
    assert [k for k, _ in space.distinct_rows] == [space.rows.index(row) for row in first]


GF3 = make_field(3)
GOOD, BAD = ((0, 1), (2, 2)), ((2, 1), (1, 1))


@pytest.mark.parametrize("rows, message", [
    ([GOOD, BAD, GOOD, BAD, BAD], "row 1: positions must be strictly increasing"),
    ([BAD, GOOD, BAD], "row 0: positions must be strictly increasing"),
    ([GOOD, ((3, 0),), GOOD, ((3, 0),)], "row 1: zero coefficient stored"),
    # equal to a valid row under ==, and still refused where it stands
    ([GOOD, ((0.0, 1), (2, 2)), GOOD], "row 1 position must be a JSON integer, got 0.0"),
    ([GOOD, ((0, True), (2, 2))], "row 1 coefficient must be a JSON integer, got True"),
    ([((0, 1.0), (2, 2)), GOOD], "row 0 coefficient must be a JSON integer, got 1.0"),
], ids=["bad-repeated", "bad-first", "zero-repeated", "float-after-int", "bool-after-int", "float-before-int"])
def test_a_bad_row_is_named_by_its_first_index(rows, message):
    with pytest.raises(PreconditionError, match=message):
        SubspaceSpec(GF3, "V", 2, 1, tuple(rows))
    doc = json.loads(SubspaceSpec(GF3, "V", 2, 1, ()).to_text())
    doc["rows"] = [[list(pair) for pair in row] for row in rows]
    with pytest.raises(PreconditionError, match=message):
        SubspaceSpec.from_text(json.dumps(doc))


def test_malformed_rows_give_the_same_parse_errors():
    doc = json.loads(SubspaceSpec(GF3, "V", 2, 1, ()).to_text())
    for rows, message in [
        ([[[0, 1]], [[0, 1, 1]], [[0, 1, 1]]], "too many values to unpack"),
        ([[[0, 1]], [5], [5]], "cannot unpack non-iterable int object"),
        ([[[0, 1]], 5], "'int' object is not iterable"),
    ]:
        doc["rows"] = rows
        with pytest.raises(ParseError, match=f"malformed subspace document: {message}"):
            SubspaceSpec.from_text(json.dumps(doc))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spaces(), st.randoms(use_true_random=False))
def test_membership_oracles_agree_on_sparse_and_dense_supports(space, rng):
    f = space.field
    for _ in range(4):
        sparse = [0] * space.coord_count
        for pos in rng.sample(range(space.coord_count), rng.randint(1, min(3, space.coord_count))):
            sparse[pos] = rng.randrange(1, f.q)
        dense = [rng.randrange(1, f.q) for _ in range(space.coord_count)]
        for values in (sparse, dense):
            assert check_membership(values, space).violated_row == space.membership_violation(values)
            assert space.membership_violation(values) == first_violated_row(space, values)


@st.composite
def built_spaces(draw):
    """A space from either builder: a direct quadratic system at k = 1 or
    2, or a 3-CNF at d = 3 or 4.  Both give empty rows: a booleanity
    polynomial times x_0 cancels, and so do direct products such as
    (x1 + 2 x1 x2) x2 over GF(3)."""
    if draw(st.booleans()):
        field = draw(st.sampled_from(FIELDS))
        n = draw(st.integers(1, 3))
        support = basis_make(n, 2, "V").masks
        poly = st.dictionaries(st.sampled_from(support), st.integers(1, field.q - 1), max_size=4)
        equations = draw(st.lists(poly, min_size=1, max_size=3))
        src = QuadSystemSource(field, n, tuple(SquarefreePoly(field, c) for c in equations))
        return build_moment_subspace(src, draw(st.integers(1, 2)))
    n = draw(st.integers(3, 4))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literal, min_size=3, max_size=3, unique_by=abs).map(tuple)
    cnf = CnfFormula(n, tuple(draw(st.lists(clause, min_size=1, max_size=3))))
    system = build_constant_free_system(cnf, draw(st.integers(3, 4)))
    return build_matrix_subspace(build_monomial_quad_system(system), draw(st.sampled_from([None, FIELDS[2]])))


def assert_handed_over_as_walked(space):
    """The first appearances a builder handed over are those the property
    finds walking a fresh space's rows: same indices, same row objects."""
    walked = SubspaceSpec(space.field, space.variant, space.n, space.d, space.rows, space.provenance).distinct_rows
    assert [k for k, _ in space.distinct_rows] == [k for k, _ in walked]
    assert all(a is b for (_, a), (_, b) in zip(space.distinct_rows, walked))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(built_spaces())
def test_builders_hand_over_the_first_appearances_a_walk_finds(space):
    assert_handed_over_as_walked(space)


@pytest.mark.parametrize("build", ["direct", "superposition"])
def test_handed_over_first_appearances_include_the_empty_row(build):
    if build == "direct":
        x1, x12 = 1 << 1, (1 << 1) | (1 << 2)
        f = SquarefreePoly(GF3, {x1: 1, x12: 2})
        space = build_moment_subspace(QuadSystemSource(GF3, 2, (f,)), 2)
    else:
        system = build_constant_free_system(CnfFormula(3, ((1, -2, 3),)), 4)
        space = build_matrix_subspace(build_monomial_quad_system(system))
    assert () in space.rows
    assert_handed_over_as_walked(space)



@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_minrank_inserts_each_distinct_row_once(field, data):
    """minrank eliminates the distinct rows once, whether the lower bound
    refuses, the rank refuses or the search runs: the rows the field's
    engine is handed are the distinct rows, each once, in order."""
    space = data.draw(spaces([field]))
    distinct = [row for _, row in space.distinct_rows]
    members = field.q ** space.dimension()
    engine = rankgap.gflinalg.field_engine
    for budget in (1, members) if members <= 1 << 10 else (1,):
        handed = []

        class Counting:
            def __init__(self, field):
                self.real = engine(field)

            def __getattr__(self, name):
                return getattr(self.real, name)

            def sparse(self, rows, *args):
                rows = list(rows)
                handed.extend(rows)
                return self.real.sparse(rows, *args)

        rankgap.gflinalg.field_engine = Counting
        try:
            report = minrank_bruteforce(space, budget=budget)
        except BudgetExceededError:
            report = None
        finally:
            rankgap.gflinalg.field_engine = engine
        assert handed == distinct
        assert (report is None) == (budget < members)
        if report is not None:
            assert report.kernel_dimension == space.coord_count - space.dense_rows().rank()
