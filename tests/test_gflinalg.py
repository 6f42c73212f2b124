"""Linear algebra checks: frozen rank/decomposition values, elimination
properties over several fields, descent invariants, text round-trips."""

import random

import pytest

from rankgap.errors import ParseError, PreconditionError
from rankgap.gfarith import format_field, make_field
from rankgap.gflinalg import (
    FFMatrix,
    independent_rows,
    packed_kernel_basis,
    packed_rank,
    rank_descent,
    sparse_kernel_basis,
    symmetric_rank_one_decomposition,
    table_rank,
)

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)
GF5 = make_field(5)
GF8 = make_field(2, 3)

FIELDS = [GF2, GF3, GF4, GF5, GF8]


def rand_matrix(rng, field, nrows, ncols):
    return FFMatrix(
        field, [[rng.randrange(field.q) for _ in range(ncols)] for _ in range(nrows)]
    )


def test_rank_frozen():
    assert FFMatrix(GF2, [[0, 1], [1, 0]]).rank() == 2
    assert FFMatrix(GF2, [[1, 1], [1, 1]]).rank() == 1
    assert FFMatrix.identity(GF5, 4).rank() == 4
    assert FFMatrix(GF3, [[0] * 5] * 3).rank() == 0


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for field in FIELDS:
        for _ in range(20):
            m = rand_matrix(rng, field, rng.randrange(1, 7), rng.randrange(1, 7))
            assert m.rank() == FFMatrix.from_columns(field, m.rows).rank()


def test_rank_subadditivity():
    rng = random.Random(12)
    for field in FIELDS:
        for _ in range(15):
            a = rand_matrix(rng, field, 5, 5)
            b = rand_matrix(rng, field, 5, 5)
            total = FFMatrix(field, [
                [field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)
            ])
            assert total.rank() <= a.rank() + b.rank()


def test_rank_invariant_under_lift():
    rng = random.Random(13)
    for _ in range(20):
        m = rand_matrix(rng, GF2, 5, 6)
        assert m.rank() == m.lifted(GF4).rank() == m.lifted(GF8).rank()


def test_kernel_basis_annihilates():
    rng = random.Random(14)
    for field in FIELDS:
        for _ in range(15):
            m = rand_matrix(rng, field, rng.randrange(1, 6), rng.randrange(1, 7))
            basis = m.kernel_basis()
            assert len(basis) == m.ncols - m.rank()
            for vec in basis:
                assert all(v == 0 for v in m.mat_vec(vec))
            # basis vectors are independent
            if basis:
                assert FFMatrix(field, basis).rank() == len(basis)


def test_packed_helpers_agree_with_generic():
    rng = random.Random(15)
    for _ in range(25):
        m = rand_matrix(rng, GF2, rng.randrange(1, 8), rng.randrange(1, 9))
        assert packed_rank(m.packed_rows()) == m.rank()
        for limit in range(m.nrows + 1):
            want = m.rank() if m.rank() <= limit else None
            assert packed_rank(m.packed_rows(), limit) == want
        kb = packed_kernel_basis(m.packed_rows(), m.ncols)
        assert len(kb) == len(m.kernel_basis())


def test_rref_pivots():
    m = FFMatrix(GF2, [[1, 1, 0], [1, 1, 1]])
    red, pivots = m.rref()
    assert pivots == (0, 2)
    assert red.rows == ((1, 1, 0), (0, 0, 1))
    # duplicate column is skipped by the pivot scan, and by independent_rows
    # over the columns
    dup = FFMatrix(GF5, [[2, 2, 1], [1, 1, 0]])
    assert dup.rref()[1] == (0, 2)
    assert independent_rows(GF5, zip(*dup.rows)) == [0, 2]
    assert independent_rows(GF2, zip(*m.rows)) == [0, 2]
    assert independent_rows(GF2, []) == independent_rows(GF5, [(0, 0)]) == []


def test_solve_round_trip():
    rng = random.Random(16)
    for field in FIELDS:
        for _ in range(15):
            m = rand_matrix(rng, field, 4, 5)
            x = [rng.randrange(field.q) for _ in range(5)]
            b = m.mat_vec(x)
            got = m.solve(b)
            assert got is not None
            assert m.mat_vec(got) == b


def test_solve_detects_inconsistency():
    m = FFMatrix(GF2, [[1, 0], [1, 0]])
    assert m.solve([1, 0]) is None
    assert m.solve([1, 1]) == (1, 0)


def test_solve_columns_multi():
    m = FFMatrix(GF3, [[1, 1], [0, 1]])
    sols = m.solve_columns([[2, 1], [0, 0]])
    assert sols is not None
    for x, b in zip(sols, [(2, 1), (0, 0)]):
        assert m.mat_vec(x) == b


@pytest.mark.parametrize("field", [make_field(2, 9), make_field(3, 6)], ids=format_field)
def test_elimination_past_the_table_limit(field):
    """table_rank, sparse_kernel_basis and solve_columns over fields too
    large for operation tables, on seeded products of two random factors:
    rank + nullity is the width, the kernel vectors are independent and
    vanish under the matrix, and every solution substitutes back."""
    rng = random.Random(f"past the table limit/{field.q}")
    tables = field.tables()
    for _ in range(8):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        inner = rng.randint(1, min(nrows, ncols))
        m = rand_matrix(rng, field, nrows, inner) @ rand_matrix(rng, field, inner, ncols)
        rank = table_rank(tables, m.rows)
        assert rank <= inner and rank == table_rank(tables, zip(*m.rows))
        sparse = [[(j, v) for j, v in enumerate(row) if v] for row in m.rows]
        kernel = sparse_kernel_basis(field, sparse, ncols)
        assert rank + len(kernel) == ncols
        assert table_rank(tables, kernel) == len(kernel)
        assert all(not any(m.mat_vec(x)) for x in kernel)
        targets = [m.mat_vec([rng.randrange(field.q) for _ in range(ncols)]) for _ in range(2)]
        assert [m.mat_vec(x) for x in m.solve_columns(targets)] == targets
        # a zero row with a nonzero target is inconsistent
        padded = FFMatrix(field, [*m.rows, [0] * ncols])
        assert padded.solve_columns([[*targets[0], 1]]) is None


def test_matmul_identity():
    rng = random.Random(17)
    for field in FIELDS:
        m = rand_matrix(rng, field, 3, 3)
        assert m @ FFMatrix.identity(field, 3) == m
        assert FFMatrix.identity(field, 3) @ m == m


def test_decomposition_frozen_unit_diagonal():
    dec = symmetric_rank_one_decomposition(FFMatrix(GF2, [[1, 0], [0, 0]]))
    assert dec.vectors == ((1, 0),)


def test_decomposition_frozen_permutation():
    m = FFMatrix(GF2, [[0, 1], [1, 0]])
    dec = symmetric_rank_one_decomposition(m)
    assert len(dec) == 3 == (3 * m.rank()) // 2
    assert set(dec.vectors) == {(0, 1), (1, 0), (1, 1)}
    # emission rule: column i, column j, their sum, for the row-major first
    # off-diagonal entry (i, j)
    assert dec.vectors == ((0, 1), (1, 0), (1, 1))
    assert dec.reassemble() == m


def test_decomposition_random():
    rng = random.Random(18)
    for _ in range(100):
        n = rng.randrange(1, 16)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randrange(2)
                rows[i][j] = rows[j][i] = v
        m = FFMatrix(GF2, rows)
        dec = symmetric_rank_one_decomposition(m)
        assert dec.reassemble() == m
        assert len(dec) <= (3 * m.rank()) // 2
        # deterministic
        again = symmetric_rank_one_decomposition(m)
        assert again.vectors == dec.vectors


def test_decomposition_rejects_bad_input():
    with pytest.raises(PreconditionError, match="symmetric"):
        symmetric_rank_one_decomposition(FFMatrix(GF2, [[0, 1], [0, 0]]))
    with pytest.raises(PreconditionError, match="GF"):
        symmetric_rank_one_decomposition(FFMatrix(GF3, [[1, 0], [0, 1]]))


ENTRIES_EQUAL = [
    [1, 1, 0, 0],  # A00 = A01
    [1, 0, 1, 0],  # A00 = A10
    [1, 0, 0, 1],  # A00 = A11
]


def test_rank_descent_scaled_all_ones():
    # alpha * J satisfies "all entries equal"; the functional keyed to alpha
    # sends every entry to 1
    a = FFMatrix(GF4, [[2, 2], [2, 2]])
    b = rank_descent(a, ENTRIES_EQUAL)
    assert b.rows == ((1, 1), (1, 1))
    assert b.rank() == 1 <= 2 * a.rank()


def test_rank_descent_binary_entries_pass_through():
    a = FFMatrix(GF4, [[1, 0], [0, 1]])
    b = rank_descent(a, [])
    assert b.rows == ((1, 0), (0, 1))


def test_rank_descent_gf2_is_identity():
    a = FFMatrix(GF2, [[1, 1], [0, 1]])
    assert rank_descent(a, []).rows == a.rows


def test_rank_descent_errors():
    with pytest.raises(PreconditionError, match="nonzero"):
        rank_descent(FFMatrix(GF4, [[0, 0], [0, 0]]), [])
    with pytest.raises(PreconditionError, match="constraint 1"):
        # A00 = A01 holds, A00 = A10 fails
        rank_descent(FFMatrix(GF4, [[2, 2], [1, 2]]), ENTRIES_EQUAL)
    with pytest.raises(PreconditionError, match="characteristic 2"):
        rank_descent(FFMatrix(GF3, [[1]]), [])


def test_rank_descent_random_members():
    rng = random.Random(19)
    for field in (GF4, GF8):
        r = field.e
        for _ in range(20):
            m = rng.randrange(2, 5)
            ncon = rng.randrange(1, 4)
            cons = [
                [rng.randrange(2) for _ in range(m * m)] for _ in range(ncon)
            ]
            con_mat = FFMatrix(GF2, cons)
            members = con_mat.kernel_basis()
            if not members:
                continue
            flat = [0] * (m * m)
            while all(v == 0 for v in flat):
                flat = [0] * (m * m)
                for vec in members:
                    c = rng.randrange(field.q)
                    for idx, bit in enumerate(vec):
                        if bit:
                            flat[idx] = field.add(flat[idx], c)
            a = FFMatrix(field, [flat[i * m : (i + 1) * m] for i in range(m)])
            b = rank_descent(a, cons)
            assert not b.is_zero()
            assert b.rank() <= r * a.rank()


def test_text_round_trip():
    rng = random.Random(20)
    for field in FIELDS:
        m = rand_matrix(rng, field, 3, 4)
        assert FFMatrix.from_text(m.to_text()) == m
    g = rand_matrix(rng, GF2, 5, 9)
    assert FFMatrix.from_text(g.to_text(packed=True)) == g
    assert "hex" in g.to_text(packed=True).splitlines()[0]


def test_packed_text_is_frozen():
    # the hex form holds column j at bit j, whatever order elimination
    # packs rows in: column 0 alone is the low digit, column 69 the high one
    rows = [
        [int(j == 0) for j in range(70)],
        [int(j == 69) for j in range(70)],
        [int((j * j + 3 * j) % 7 < 3) for j in range(70)],
    ]
    m = FFMatrix(GF2, rows)
    text = "3 70 GF(2) hex\n000000000000000001\n200000000000000000\n089122448912244891\n"
    assert m.to_text(packed=True) == text
    assert FFMatrix.from_text(text) == m


def test_text_errors():
    with pytest.raises(ParseError):
        FFMatrix.from_text("")
    with pytest.raises(ParseError, match="line 2"):
        FFMatrix.from_text("1 2 GF(2)\n0 1 1\n")
    with pytest.raises(ParseError):
        FFMatrix.from_text("2 2 GF(2)\n0 1\n")
    with pytest.raises(PreconditionError):
        FFMatrix(GF4, [[1, 2], [3, 4]])


def test_entry_access_and_from_columns():
    m = FFMatrix(GF5, [[1, 2, 3], [4, 0, 1]])
    assert m.entry(1, 2) == 1 and m.entry(0, 1) == 2
    # the rows taken as columns give the transpose
    assert FFMatrix.from_columns(GF5, m.rows) == FFMatrix(GF5, [[1, 4], [2, 0], [3, 1]])
    assert FFMatrix.from_columns(GF5, []).shape == (0, 0)


def test_entries_checked_per_row_keep_validate_semantics():
    class Small(int):
        pass

    m = FFMatrix(GF3, [[0, Small(2)], [1, 1]])
    assert type(m.entry(0, 1)) is Small and m.rows == ((0, 2), (1, 1))
    for bad in (True, 3, -1, 1.0, "1"):
        with pytest.raises(PreconditionError) as got:
            FFMatrix(GF3, [[0, 1], [1, bad]])
        with pytest.raises(PreconditionError) as want:
            GF3.validate(bad)
        assert str(got.value) == str(want.value)
