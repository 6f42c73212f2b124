"""gflinalg's three engines behind one interface.

One engine of each kind, as field_engine picks it: packed over GF(2);
planes over GF(3), GF(4) and GF(8); tables over GF(5), GF(9) and GF(2^9).
On random matrices, empty, all-zero and one-column ones among them, the
shared eliminate, rref and kernel, and each engine's pack, sparse and
walk over a row's trailing entries, must agree with FFMatrix, which
eliminates on its own reference engines (packed over GF(2), tables
otherwise).  A rebinding of
gflinalg.packed_rank, as the benchmark's tracer makes one, must see every
GF(2) elimination."""

import random

import pytest

import rankgap.gflinalg as gflinalg
from rankgap.gfarith import make_field
from rankgap.gflinalg import (
    FFMatrix,
    PackedEngine,
    PlaneEngine,
    TableEngine,
    _dense_rows,
    _echelon_kernel,
    _eliminate,
    _pivot_kernel,
    _rref,
    field_engine,
    independent_rows,
    sparse_rank,
)

CASES = [
    ((2, 1), PackedEngine),
    ((3, 1), PlaneEngine),
    ((2, 2), PlaneEngine),
    ((2, 3), PlaneEngine),
    ((5, 1), TableEngine),
    ((3, 2), TableEngine),
    ((2, 9), TableEngine),
]


def shapes(rng):
    """(nrows, ncols, density): the edge shapes, then random ones."""
    yield from [(0, 0, 0.5), (0, 4, 0.5), (3, 0, 0.5), (4, 5, 0.0), (5, 1, 0.5), (1, 1, 1.0)]
    for _ in range(25):
        yield rng.randint(0, 9), rng.randint(1, 12), rng.choice((0.1, 0.4, 0.8, 1.0))


def random_matrix(rng, field, nrows, ncols, density):
    """Rows of one density, a few of them copies or multiples of earlier
    ones, so that the rank falls short of both the height and the width."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.25:
            c = rng.randrange(1, field.q)
            rows.append([field.mul(c, v) for v in rng.choice(rows)])
        else:
            rows.append([rng.randrange(1, field.q) if rng.random() < density else 0 for _ in range(ncols)])
    return rows


def free_kernel(field, rref, pivots, ncols):
    """One vector per free column of a reduced echelon form, 1 there, 0 at
    every other free column and -rref[pcol][free] at each pivot column."""
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [0] * ncols
            vec[free] = 1
            for row, pcol in zip(rref, pivots):
                vec[pcol] = field.neg(row[free])
            basis.append(tuple(vec))
    return basis


@pytest.mark.parametrize("pe, kind", CASES, ids=["gf2", "gf3", "gf4", "gf8", "gf5", "gf9", "gf512"])
def test_shared_elimination_agrees_with_ffmatrix(pe, kind):
    field = make_field(*pe)
    engine = field_engine(field)
    assert type(engine) is kind and field_engine(make_field(*pe)) is engine
    rng = random.Random(f"engines/{field.q}")
    for nrows, ncols, density in shapes(rng):
        rows = random_matrix(rng, field, nrows, ncols, density)
        matrix = FFMatrix(field, rows, ncols)
        packed = [engine.pack(row) for row in rows]
        assert [engine.unpack(row, ncols) for row in packed] == [tuple(row) for row in rows]
        assert [list(engine.trailing(row, ncols)) for row in packed] == [
            [(j, v) for j, v in enumerate(row) if v][1:] for row in rows
        ]
        sparse = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
        assert engine.sparse(sparse, ncols, range(ncols)) == packed
        assert engine.sparse(sparse, ncols) == [engine.pack(row[::-1]) for row in rows]

        want_rows, want_pivots = matrix.rref()
        assert len(_eliminate(engine, packed)) == matrix.rank() == len(want_pivots)
        got_rows, got_pivots = _rref(engine, packed, ncols)
        assert (tuple(engine.unpack(row, ncols) for row in got_rows), tuple(got_pivots)) == (
            want_rows.rows,
            want_pivots,
        )
        kernel = _pivot_kernel(engine, _eliminate(engine, packed), ncols)
        assert [tuple(v) for v in _dense_rows(kernel, ncols)] == free_kernel(field, want_rows.rows, want_pivots, ncols)
        reversed_rows = [engine.pack(row[::-1]) for row in rows]
        assert _echelon_kernel(engine, _eliminate(engine, reversed_rows), ncols) == matrix.kernel_basis()


def test_a_rebound_packed_rank_sees_every_gf2_elimination(monkeypatch):
    """independent_rows inserts each row with a call of its own, and
    sparse_rank eliminates in one."""
    gf2 = make_field(2)
    calls = []
    real = gflinalg.packed_rank

    def counting(rows, *args, **kwargs):
        rows = list(rows)
        calls.append(len(rows))
        return real(rows, *args, **kwargs)

    monkeypatch.setattr(gflinalg, "packed_rank", counting)
    assert independent_rows(gf2, [[1, 1, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]]) == [0, 2]
    assert calls == [1, 1, 1, 1]
    calls.clear()
    assert sparse_rank(gf2, [[(0, 1), (9, 1)], [(9, 1)], [(0, 1)]]) == 2
    assert calls == [3]
