"""The packed GF(2) engine against the table engine.  Each matrix goes to
gflinalg twice: as bit-packed ints, leading column in the top bit, and as
int lists eliminated through GF(2)'s FieldSpec.tables(), each through the
shared rref and kernel.  Both must give
the same rank at every limit, the same reduced echelon form and pivots,
free-column kernel, solutions and independent rows, from dense and from
sparse rows, and the kernel's reduced echelon basis must match one derived
here by a column sweep.
The widths straddle the word and byte boundaries where a packing slip
would show, up to rows of about a thousand bits."""

import random

import pytest

from rankgap.gfarith import make_field
from rankgap.gflinalg import (
    FFMatrix,
    TableEngine,
    _dense_rows,
    _eliminate,
    _pack_row,
    _pivot_kernel,
    _rref,
    _unpack_row,
    field_engine,
    independent_rows,
    packed_kernel_basis,
    packed_rank,
    sparse_kernel_basis,
    sparse_rank,
    table_rank,
)

GF2 = make_field(2)
TABLES = GF2.tables()
PACKED, TABLE = field_engine(GF2), TableEngine(GF2)
WIDTHS = [0, 1, 29, 30, 31, *range(59, 66), 255, 256, 257, 1030]


def random_rows(rng, width):
    """Rows of one density, a quarter of them sums of earlier rows, so that
    the rank falls short of both the height and the width."""
    nrows = rng.randint(0, min(width + 3, 12 if width > 300 else 36))
    density = rng.choice((0.02, 0.2, 0.5, 0.95))
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.25:
            picks = rng.sample(rows, rng.randint(1, len(rows)))
            rows.append([sum(col) % 2 for col in zip(*picks)])
        else:
            rows.append([int(rng.random() < density) for _ in range(width)])
    return rows


def echelon_kernel(rows, width):
    """The kernel's reduced echelon basis, derived without gflinalg: a
    column sweep of the rows from the last column, then each free column's
    vector by back-substitution, 1 there, 0 at every other free column and
    0 left of it."""
    work = [list(row) for row in rows]
    pivots = {}
    for col in reversed(range(width)):
        row = next((r for r in work if r[col]), None)
        if row is None:
            continue
        work.remove(row)
        for other in work + list(pivots.values()):
            if other[col]:
                other[:] = [a ^ b for a, b in zip(other, row)]
        pivots[col] = row
    basis = []
    for free in range(width):
        if free not in pivots:
            vec = [0] * width
            vec[free] = 1
            for col, row in pivots.items():
                vec[col] = row[free]
            basis.append(tuple(vec))
    return basis


def table_solve(rows, width, targets):
    """solve_columns through the table engine: one elimination of the rows
    with the targets appended as columns."""
    aug = [list(row) + [t[i] for t in targets] for i, row in enumerate(rows)]
    rref, pivots = _rref(TABLE, aug, width + len(targets))
    if any(p >= width for p in pivots):
        return None
    out = []
    for tcol in range(width, width + len(targets)):
        x = [0] * width
        for prow, pcol in zip(rref, pivots):
            x[pcol] = prow[tcol]
        out.append(tuple(x))
    return out


@pytest.mark.parametrize("width", WIDTHS)
def test_packed_engine_matches_table_engine(width):
    rng = random.Random(f"packed/{width}")
    for _ in range(6):
        rows = random_rows(rng, width)
        packed = [_pack_row(row) for row in rows]
        assert [_unpack_row(p, width) for p in packed] == [tuple(row) for row in rows]
        assert all(p >> width == 0 for p in packed)

        rank = table_rank(TABLES, rows)
        for limit in range(rank + 2):
            assert packed_rank(packed, limit) == table_rank(TABLES, rows, limit)
        assert packed_rank(packed) == rank

        want_rows, want_pivots = _rref(TABLE, rows, width)
        got_rows, got_pivots = _rref(PACKED, packed, width)
        assert ([list(_unpack_row(r, width)) for r in got_rows], got_pivots) == (want_rows, want_pivots)
        matrix = FFMatrix(GF2, rows, width)
        assert matrix.rref() == (FFMatrix(GF2, want_rows, width), tuple(want_pivots))

        kernel = _dense_rows(_pivot_kernel(TABLE, _eliminate(TABLE, rows), width), width)
        assert [list(_unpack_row(v, width)) for v in packed_kernel_basis(packed, width)] == kernel
        echelon = echelon_kernel(rows, width)
        assert matrix.kernel_basis() == echelon
        assert matrix.kernel_basis(packed=True) == [_pack_row(v[::-1]) for v in echelon]
        sparse = [[(j, 1) for j, v in enumerate(row) if v] for row in rows]
        assert sparse_kernel_basis(GF2, sparse, width) == echelon
        assert sparse_rank(GF2, sparse) == rank

        pivots = {}
        kept = [i for i, row in enumerate(rows) if len(pivots) < table_rank(TABLES, (row,), pivots=pivots)]
        assert independent_rows(GF2, rows) == kept

        # targets in the column space and arbitrary ones, which a rank short
        # of the height leaves mostly inconsistent
        x = [rng.getrandbits(1) for _ in range(width)]
        reachable = list(matrix.mat_vec(x))
        for targets in ([reachable], [reachable, [rng.getrandbits(1) for _ in rows]]):
            solved = matrix.solve_columns(targets)
            assert solved == table_solve(rows, width, targets)
            if solved is not None:
                assert [list(matrix.mat_vec(s)) for s in solved] == [list(t) for t in targets]
