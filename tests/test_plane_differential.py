"""The bit-plane engine against the table engine, and the plane minrank
system against the table system.

Each matrix over GF(3), GF(4), GF(8) and GF(16) goes to gflinalg twice:
packed into bit planes for PlaneEngine, and as int lists eliminated
through the field's FieldSpec.tables().  Both must give the same rank at
every limit, the same pivot rows when earlier rows were passed in, the
same reduced echelon form and pivots, kernel, independent rows and sparse
rank.  Every matrix is also ranked, at every limit, through rank_cut,
whose elimination is written out for two planes (GF(3), GF(4)), so that
loop and the general one are both covered.  Then whole
minrank reports, witness included, from direct spaces in V and hand-built
spaces in U over GF(3) and GF(4), at every level, must be the same whether
minrank searches with the plane system it picks or the table system."""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

import rankgap.oracles as oracles
from rankgap.boolalg import SquarefreePoly, basis_make
from rankgap.errors import BudgetExceededError
from rankgap.frontends import QuadSystemSource
from rankgap.gfarith import make_field
from rankgap.gflinalg import (
    FFMatrix,
    PlaneEngine,
    TableEngine,
    _eliminate,
    _pivot_kernel,
    _rref,
    field_engine,
    independent_rows,
    sparse_kernel_basis,
    sparse_rank,
    table_rank,
)
from rankgap.moment import build_moment_subspace
from rankgap.subspace import SubspaceSpec

FIELDS = [make_field(3), make_field(2, 2), make_field(2, 3), make_field(2, 4)]
SETTINGS = settings(derandomize=True, database=None, max_examples=120, deadline=None)


@st.composite
def matrices(draw):
    """A field and rows over it of one density, some rows combinations of
    earlier ones, so that the rank falls short of both the height and the
    width."""
    field = draw(st.sampled_from(FIELDS))
    width = draw(st.integers(0, 40))
    density = draw(st.sampled_from((0.1, 0.5, 0.9)))
    rng = draw(st.randoms(use_true_random=False))
    rows = []
    add, _, mul, _ = field.tables()
    for _ in range(draw(st.integers(0, 14))):
        if rows and rng.random() < 0.3:
            row = [0] * width
            for other in rng.sample(rows, rng.randint(1, len(rows))):
                scale = mul[rng.randrange(1, field.q)]
                row = [add[a][scale[b]] for a, b in zip(row, other)]
        else:
            row = [rng.randrange(1, field.q) if rng.random() < density else 0 for _ in range(width)]
        rows.append(row)
    return field, width, rows


def table_pivots(tables, rows, limit=None, pivots=None):
    if pivots is None:
        pivots = {}
    return table_rank(tables, rows, limit, pivots), pivots


def plane_pivots(engine, rows, width, limit=None, pivots=None):
    """rank, and the pivot rows scaled to a leading 1 as table_rank keys
    them, by leading column."""
    if pivots is None:
        pivots = {}
    rank = engine.rank([engine.pack(row) for row in rows], limit, pivots)
    return rank, pivots


def side_by_side(packed, width):
    """Rows of planes held side by side in one row of planes, and the
    shifts that cut them out in order."""
    shifts = range((len(packed) - 1) * width, -1, -width)
    return tuple(sum(plane << s for plane, s in zip(planes, shifts)) for planes in zip(*packed)), shifts


def as_table(engine, pivots, width):
    return {width - top: list(engine.unpack(mults[1], width)) for top, mults in pivots.items()}


@SETTINGS
@given(matrices(), st.data())
def test_plane_engine_matches_table_engine(matrix, data):
    field, width, rows = matrix
    engine, tables, table = field_engine(field), field.tables(), TableEngine(field)
    packed = [engine.pack(row) for row in rows]
    assert [engine.unpack(row, width) for row in packed] == [tuple(row) for row in rows]
    rank = table_rank(tables, rows)
    for limit in range(rank + 2):
        assert engine.rank(packed, limit) == table_rank(tables, rows, limit)
    # rows inserted earlier are passed in, and receive the new pivots
    split = data.draw(st.integers(0, len(rows)))
    want_pivots = table_pivots(tables, rows[:split])[1]
    got_pivots = plane_pivots(engine, rows[:split], width)[1]
    assert as_table(engine, got_pivots, width) == want_pivots
    limit = data.draw(st.none() | st.integers(0, width))
    want = table_pivots(tables, rows[split:], limit, want_pivots)
    got = plane_pivots(engine, rows[split:], width, limit, got_pivots)
    assert (got[0], as_table(engine, got[1], width)) == (want[0], want[1])
    # the same rows side by side in one row of planes, cut as inserted
    if packed and width:
        mask = (1 << width) - 1
        for at_most in range(rank + 2):
            assert engine.rank_cut(*side_by_side(packed, width), mask, at_most) == table_rank(tables, rows, at_most)
        if split < len(rows):
            cut_pivots = plane_pivots(engine, rows[:split], width)[1]
            cut = engine.rank_cut(*side_by_side(packed[split:], width), mask, limit, cut_pivots)
            assert (cut, as_table(engine, cut_pivots, width)) == (want[0], want[1])
    want_rows, want_cols = _rref(table, rows, width)
    got_rows, got_cols = _rref(engine, packed, width)
    assert ([list(engine.unpack(row, width)) for row in got_rows], got_cols) == (want_rows, want_cols)
    kernel = _pivot_kernel(table, _eliminate(table, rows), width)
    assert _pivot_kernel(engine, _eliminate(engine, packed), width) == kernel
    pivots = {}
    kept = [i for i, row in enumerate(rows) if len(pivots) < table_rank(tables, (row,), pivots=pivots)]
    assert independent_rows(field, rows) == kept
    sparse = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
    assert sparse_rank(field, sparse) == rank
    assert sparse_kernel_basis(field, sparse, width) == FFMatrix(field, rows, width).kernel_basis()


def test_gf3_plane_arithmetic():
    """Addition, subtraction, the dot product and the multiples over
    GF(3), entry by entry for every pair of entries."""
    field = make_field(3)
    engine = field_engine(field)
    values = [a for a in range(3) for _ in range(3)]
    others = [b for _ in range(3) for b in range(3)]
    a, b = engine.pack(values), engine.pack(others)
    assert engine.unpack(engine.add(a, b), 9) == tuple((x + y) % 3 for x, y in zip(values, others))
    assert engine.unpack(engine.sub(a, b), 9) == tuple((x - y) % 3 for x, y in zip(values, others))
    assert engine.dot(a, b) == sum(x * y for x, y in zip(values, others)) % 3
    units = [engine.pack([x]) for x in range(3)]
    assert all(engine.dot(units[x], units[y]) == x * y % 3 for x in range(3) for y in range(3))
    for lead in (1, 2):
        mults = engine.multiples(b, lead)
        for v in (1, 2):
            scale = v * field.inv(lead) % 3
            assert engine.unpack(mults[v], 9) == tuple(scale * y % 3 for y in others)


def test_char2_plane_arithmetic():
    """The multiples and the dot product over GF(4), GF(8), GF(16) and
    GF(256), against the field's own arithmetic: the dot product of every
    pair of one-entry rows is the product of the entries."""
    for field in (*FIELDS[1:], make_field(2, 8)):
        engine = field_engine(field)
        row = list(range(field.q))
        packed = engine.pack(row)
        for lead in (1, 2, field.q - 1):
            mults = engine.multiples(packed, lead)
            for v in range(1, field.q):
                scale = field.mul(v, field.inv(lead))
                assert engine.unpack(mults[v], field.q) == tuple(field.mul(scale, x) for x in row)
        units = [engine.pack([x]) for x in row]
        assert all(engine.dot(units[x], units[y]) == field.mul(x, y) for x in row for y in row)
        other = engine.pack(row[::-1])
        want = 0
        for x, y in zip(row, row[::-1]):
            want = field.add(want, field.mul(x, y))
        assert engine.dot(packed, other) == want


def test_only_gf3_and_small_gf2r_take_planes():
    assert [isinstance(field_engine(make_field(p, e)), PlaneEngine) for p, e in
            [(2, 1), (3, 1), (2, 2), (2, 8), (2, 9), (5, 1), (3, 2), (7, 1)]] == [
        False, True, True, True, False, False, False, False]


@contextmanager
def table_system():
    """minrank searching with the table system on every field but GF(2)."""
    with mock.patch.object(
        oracles, "_system", lambda field: oracles._PackedSystem if field.q == 2 else oracles._TableSystem
    ):
        yield


@st.composite
def direct_spaces(draw):
    """A direct space in V over GF(3) or GF(4): one to three equations of
    at most five terms over one to three variables, at k = 1 or 2."""
    field = draw(st.sampled_from(FIELDS[:2]))
    n = draw(st.integers(1, 3))
    masks = basis_make(n, 2, "V").masks
    equations = tuple(
        SquarefreePoly(field, draw(st.dictionaries(st.sampled_from(masks), st.integers(1, field.q - 1), max_size=5)))
        for _ in range(draw(st.integers(1, 3)))
    )
    return build_moment_subspace(QuadSystemSource(field, n, equations), draw(st.integers(1, 2)))


@st.composite
def u_spaces(draw):
    """A hand-built space in U over GF(3) or GF(4): n = 1 to 3 at d = 1,
    n = 1 or 2 at d = 2, with 2 to 6 fewer random rows than coordinates."""
    field = draw(st.sampled_from(FIELDS[:2]))
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3 if d == 1 else 2))
    count = len(basis_make(n, 2 * d, "U").masks)
    rows = []
    for _ in range(max(0, count - draw(st.integers(2, 6)))):
        values = draw(st.lists(st.integers(0, field.q - 1), min_size=count, max_size=count))
        rows.append(tuple((c, v) for c, v in enumerate(values) if v))
    return SubspaceSpec(field, "U", n, d, tuple(rows))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(direct_spaces() | u_spaces())
def test_plane_system_reports_match_the_table_system(space):
    for level in range(space.d + 1):
        try:
            report = oracles.minrank_bruteforce(space, level=level, budget=1 << 10)
        except BudgetExceededError:
            return
        with table_system():
            assert oracles.minrank_bruteforce(space, level=level, budget=1 << 10) == report
