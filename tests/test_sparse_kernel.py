"""Kernel extraction from the sparse rows against the dense path, and the
row-insertion echelon forms (packed over GF(2), table-driven over every
other field) against a column sweep."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from rankgap.boolalg import basis_make, basis_size
from rankgap.errors import PreconditionError
from rankgap.frontends import parse_dimacs
from rankgap.gfarith import make_field
from rankgap.gflinalg import FFMatrix, _packed_rref, _table_rref, sparse_kernel_basis, table_rank
from rankgap.subspace import SubspaceSpec
from rankgap.superposition import (
    build_constant_free_system,
    build_matrix_subspace,
    build_monomial_quad_system,
)

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)
GF5 = make_field(5)
GF9 = make_field(3, 2)
GF257 = make_field(257)
GF512 = make_field(2, 9)

SHAPES = [(v, n, d) for v in "UV" for n in (2, 3, 4) for d in (1, 2)]


def column_sweep_rref(rows, ncols):
    """Reference echelon form of packed rows, column j at bit ncols - 1 - j:
    for each column in turn, pivot on the first remaining row with that bit
    and clear it from every other row."""
    work = list(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        bit = 1 << (ncols - 1 - col)
        sel = next((i for i in range(r, len(work)) if work[i] & bit), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        for i in range(len(work)):
            if i != r and work[i] & bit:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
    return work[:r], pivots


def field_column_sweep_rref(field, rows, ncols):
    """Reference echelon form over any field: for each column in turn, pivot
    on the first remaining row with a nonzero entry there, scale it to a
    leading 1 and clear the column from every other row."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, len(work)):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = field.inv(work[r][col])
        if inv != 1:
            work[r] = [field.mul(inv, v) for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                row_i, row_r = work[i], work[r]
                for j in range(ncols):
                    if row_r[j]:
                        row_i[j] = field.sub(row_i[j], field.mul(c, row_r[j]))
        pivots.append(col)
        r += 1
    return work[:r], pivots


def reference_kernel(field, rows, ncols):
    """The kernel's reduced echelon basis, in increasing leading column:
    the column sweep runs over the rows read right to left, and each free
    column's vector, found by back-substitution, is 1 there, 0 at every
    other free column and 0 left of it."""
    rref, pivots = field_column_sweep_rref(field, [row[::-1] for row in rows], ncols)
    basis = []
    for free in reversed(range(ncols)):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for prow, pcol in zip(rref, pivots):
            vec[pcol] = field.neg(prow[free])
        basis.append(tuple(vec[::-1]))
    return basis


def spec_with_rows(variant, n, d, rows, field=GF2):
    return SubspaceSpec(field, variant, n, d, tuple(tuple(row) for row in rows))


def random_rows(rng, ncoords, count, density, field=GF2):
    rows = []
    for _ in range(count):
        picked = sorted(p for p in range(ncoords) if rng.random() < density)
        rows.append([(p, rng.randrange(1, field.q)) for p in picked])
    return rows


def assert_matches_dense(spec):
    dense = spec.dense_rows()
    assert spec.kernel_basis() == dense.kernel_basis()
    assert spec.dimension() == spec.coord_count - dense.rank()


def superposition_instance(field=GF2):
    cnf = parse_dimacs("p cnf 4 3\n1 -2 3 0\n-1 2 4 0\n2 3 -4 0\n")
    quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
    return build_matrix_subspace(quad, field)


# -- SubspaceSpec.kernel_basis over GF(2) -------------------------------------


def test_sparse_kernel_matches_dense_on_random_specs():
    rng = random.Random(31)
    for _ in range(120):
        variant, n, d = rng.choice(SHAPES)
        ncoords = len(basis_make(n, 2 * d, variant))
        count = rng.randint(0, 2 * ncoords)
        rows = random_rows(rng, ncoords, count, rng.choice((0.1, 0.3, 0.6)))
        assert_matches_dense(spec_with_rows(variant, n, d, rows))


def test_sparse_kernel_edge_cases():
    ncoords = len(basis_make(3, 4, "U"))
    rng = random.Random(5)
    some = random_rows(rng, ncoords, 4, 0.4)
    cases = {
        "no rows": [],
        "cancelled rows": [[], [], []],
        "cancelled among live": [[]] + some + [[]],
        "duplicates": some + some + some[:1],
        "full rank": [[(p, 1)] for p in reversed(range(ncoords))],
        "full rank, dense": [
            [(q, 1) for q in range(p, ncoords)] for p in range(ncoords)
        ],
    }
    for rows in cases.values():
        assert_matches_dense(spec_with_rows("U", 3, 2, rows))
    assert spec_with_rows("U", 3, 2, []).dimension() == ncoords
    assert spec_with_rows("U", 3, 2, cases["full rank"]).kernel_basis() == []


def test_sparse_kernel_matches_dense_on_superposition_instance():
    space = superposition_instance()
    assert len(space.rows) > space.coord_count
    assert_matches_dense(space)
    kernel = space.kernel_basis()
    assert kernel
    assert all(space.contains(v) for v in kernel)


def test_gf4_kernel_matches_gf2_kernel():
    # the superposition rows are 0/1, so extending the field keeps the kernel
    over4 = superposition_instance(GF4)
    over2 = superposition_instance(GF2)
    assert over4.kernel_basis() == over2.kernel_basis()
    assert over4.dimension() == over2.dimension()


def test_gf2_kernel_builds_no_dense_matrix(monkeypatch):
    # the GF(2) kernel reads the sparse rows: no FFMatrix may be built
    specs = [
        superposition_instance(),
        spec_with_rows("V", 4, 2, random_rows(random.Random(8), 16, 9, 0.3)),
        spec_with_rows("U", 2, 1, []),
    ]
    want = [(s.kernel_basis(), s.dimension()) for s in specs]

    def no_dense(self, *args, **kwargs):
        raise AssertionError("kernel extraction built an FFMatrix")

    monkeypatch.setattr(FFMatrix, "__init__", no_dense)
    assert [(s.kernel_basis(), s.dimension()) for s in specs] == want
    with pytest.raises(AssertionError, match="built an FFMatrix"):
        specs[0].dense_rows()


def test_kernel_builds_no_dense_matrix_over_any_field(monkeypatch):
    # every field's kernel reads the sparse rows: no FFMatrix may be built
    specs = [
        superposition_instance(GF4),
        spec_with_rows("V", 4, 2, random_rows(random.Random(9), 16, 9, 0.3, GF3), GF3),
        spec_with_rows("U", 3, 2, random_rows(random.Random(10), 15, 8, 0.3, GF4), GF4),
        spec_with_rows("U", 2, 1, [], GF3),
    ]
    want = [(s.kernel_basis(), s.dimension()) for s in specs]
    assert want == [(s.dense_rows().kernel_basis(), len(k)) for s, (k, _) in zip(specs, want)]

    def no_dense(self, *args, **kwargs):
        raise AssertionError("kernel extraction built an FFMatrix")

    monkeypatch.setattr(FFMatrix, "__init__", no_dense)
    assert [(s.kernel_basis(), s.dimension()) for s in specs] == want


# -- one kernel contract: the reduced echelon basis ---------------------------


@st.composite
def sparse_spaces(draw, field):
    """A space of one of SHAPES over the field, with up to ncols + 4 sparse
    rows of up to six terms, some of them repeated."""
    variant, n, d = draw(st.sampled_from(SHAPES))
    ncols = basis_size(n, 2 * d, variant)
    terms = st.dictionaries(st.integers(0, ncols - 1), st.integers(1, field.q - 1), max_size=6)
    rows = draw(st.lists(terms.map(lambda row: sorted(row.items())), max_size=ncols + 4))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return spec_with_rows(variant, n, d, rows, field)


@pytest.mark.parametrize(
    "field", [GF2, GF3, GF4, GF5, GF512], ids=["gf2", "gf3", "gf4", "gf5", "gf512"]
)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_bases_agree_in_reduced_echelon_form(field, data):
    # GF(2^9) is past the operation tables' size limit, so its elimination
    # calls into the field
    space = data.draw(sparse_spaces(field))
    ncols = space.coord_count
    dense = [list(row) for row in space.dense_rows().rows]
    matrix = FFMatrix(field, dense, ncols)
    kernel = space.kernel_basis()
    assert sparse_kernel_basis(field, space.rows, ncols) == kernel
    assert matrix.kernel_basis() == kernel
    leads = [next(j for j, v in enumerate(vec) if v) for vec in kernel]
    assert all(a < b for a, b in zip(leads, leads[1:]))
    for vec, lead in zip(kernel, leads):
        assert vec[lead] == 1
        assert all(other[lead] == 0 for other in kernel if other is not vec)
        for row in dense:
            acc = 0
            for a, v in zip(row, vec):
                acc = field.add(acc, field.mul(a, v))
            assert acc == 0
    assert len(kernel) == ncols - len(field_column_sweep_rref(field, dense, ncols)[0])
    if field.q == 2:
        packed = [sum(v << j for j, v in enumerate(vec)) for vec in kernel]
        assert matrix.kernel_basis(packed=True) == packed
    else:
        with pytest.raises(PreconditionError, match="only exist over GF\\(2\\)"):
            matrix.kernel_basis(packed=True)


# -- table-driven elimination over fields other than GF(2) ---------------------


def random_field_matrix(rng, field):
    """Random int-list rows; tall shapes, zero rows and columns, duplicate
    rows and rank-deficient products all turn up."""
    ncols = rng.randint(0, 6 if field.q > 256 else 9)
    nrows = rng.randint(0, 3 * ncols + 2)
    density = rng.choice((0.1, 0.4, 0.8, 1.0))
    rows = [
        [rng.randrange(1, field.q) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if ncols and rng.random() < 0.3:
        dead = rng.randrange(ncols)
        for row in rows:
            row[dead] = 0
    if rows and rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
    if rows and rng.random() < 0.3:
        rows += [list(r) for r in rng.choices(rows, k=rng.randint(1, 4))]
    if rows and rng.random() < 0.2:
        c = rng.randrange(1, field.q)
        rows.append([field.mul(c, v) for v in rng.choice(rows)])
    return rows, ncols


@pytest.mark.parametrize(
    "field", [GF3, GF4, GF5, GF9, GF257], ids=["gf3", "gf4", "gf5", "gf9", "gf257"]
)
def test_table_elimination_matches_column_sweep(field):
    rng = random.Random(f"table/{field.p}/{field.e}")
    tables = field.tables()
    for _ in range(120):
        rows, ncols = random_field_matrix(rng, field)
        before = [list(r) for r in rows]
        want = field_column_sweep_rref(field, rows, ncols)
        assert _table_rref(tables, rows) == want
        rank = len(want[0])
        assert table_rank(tables, rows) == rank
        for limit in range(ncols + 2):
            assert table_rank(tables, rows, limit) == (rank if rank <= limit else None)
        assert rows == before
        matrix = FFMatrix(field, rows, ncols)
        assert matrix.rank() == rank
        assert matrix.rref() == (FFMatrix(field, want[0], ncols), tuple(want[1]))
        kernel = reference_kernel(field, rows, ncols)
        assert matrix.kernel_basis() == kernel
        sparse = [[(j, v) for j, v in enumerate(r) if v] for r in rows]
        assert sparse_kernel_basis(field, sparse, ncols) == kernel


def test_table_elimination_edge_shapes():
    tables = GF3.tables()
    assert _table_rref(tables, []) == ([], [])
    assert _table_rref(tables, [[], []]) == ([], [])
    assert _table_rref(tables, [[0, 0, 0]] * 3) == ([], [])
    assert table_rank(tables, [[0, 0, 0]] * 3, 0) == 0
    tall = [[2, 1], [1, 2], [0, 1], [2, 2], [1, 1]]
    assert _table_rref(tables, tall) == field_column_sweep_rref(GF3, tall, 2) == ([[1, 0], [0, 1]], [0, 1])
    assert table_rank(tables, tall, 1) is None
    assert table_rank(tables, tall, 2) == 2
    assert sparse_kernel_basis(GF3, [], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


# -- _packed_rref --------------------------------------------------------------


def test_packed_rref_matches_column_sweep():
    rng = random.Random(17)
    for _ in range(600):
        ncols = rng.randint(0, 24)
        nrows = rng.randint(0, 3 * ncols + 2)
        density = rng.choice((0.05, 0.2, 0.5, 0.9))
        rows = [
            sum(1 << j for j in range(ncols) if rng.random() < density)
            for _ in range(nrows)
        ]
        if rows and rng.random() < 0.3:
            rows += rng.choices(rows, k=rng.randint(1, 4))
        assert _packed_rref(rows, ncols) == column_sweep_rref(rows, ncols)


def test_packed_rref_edge_shapes():
    assert _packed_rref([], 0) == ([], [])
    assert _packed_rref([0, 0, 0], 0) == ([], [])
    assert _packed_rref([0, 0], 5) == ([], [])
    tall = [0b111, 0b011, 0b110, 0b101, 0b001, 0b111]
    assert _packed_rref(tall, 3) == column_sweep_rref(tall, 3) == ([4, 2, 1], [0, 1, 2])
    wide = [0b1010_0000, 0b1000_0110]
    assert _packed_rref(wide, 8) == column_sweep_rref(wide, 8)
