"""Dense exact linear algebra over the fields from gfarith.

FFMatrix is an immutable dense matrix of int-encoded entries.  Elimination
produces the reduced row echelon form, which is unique for a row space, so
ranks, kernels and solutions are deterministic functions of the input
whatever order the elimination works in.  GF(2) work is routed through
bit-packed rows (one int per row, bit j = column j) and eliminates by row
insertion: each row is reduced against pivots keyed by their lowest set
bit.  The packed helpers are exposed because the brute-force oracles and
the sparse subspace rows want to drive them directly.

Also here: the symmetric rank-one decomposition over GF(2) with its 3k/2
length guarantee, and the entrywise-functional rank descent that carries a
matrix over GF(2^r) down to GF(2) without leaving a GF(2)-defined subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InternalConsistencyError, ParseError, PreconditionError
from .gfarith import (
    FieldSpec,
    format_field,
    make_field,
    make_linear_functional,
    parse_field_descriptor,
)

__all__ = [
    "FFMatrix",
    "RankOneDecomposition",
    "rank",
    "kernel_basis",
    "symmetric_rank_one_decomposition",
    "rank_descent",
    "packed_rank",
    "packed_kernel_basis",
]

_GF2 = make_field(2)


# -- packed GF(2) engine -----------------------------------------------------


def packed_rank(rows: Iterable[int], limit: int | None = None) -> int | None:
    """Rank of a GF(2) matrix given as bit-packed rows (bit j = column j).

    With a limit, elimination stops as soon as the rank would pass it and
    the answer is None.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            other = pivots.get(low)
            if other is None:
                if len(pivots) == limit:
                    return None
                pivots[low] = row
                break
            row ^= other
    return len(pivots)


def _packed_rref(rows: Sequence[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Rows must have no bits at or above ncols.  Each row is inserted against
    the pivot rows found so far, keyed by their lowest set bit, then the
    pivot rows are back-substituted from the highest pivot down.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            other = pivots.get(low)
            if other is None:
                pivots[low] = row
                break
            row ^= other
    # a pivot row holds no pivot bit below its own, and every pivot row
    # above it is already reduced: one XOR per pivot bit clears it.  The
    # keys are distinct single bits, so their sum is their union.
    pivot_bits = sum(pivots)
    order = sorted(pivots)
    for low in reversed(order):
        row = pivots[low]
        hits = (row & pivot_bits) ^ low
        while hits:
            bit = hits & -hits
            row ^= pivots[bit]
            hits ^= bit
        pivots[low] = row
    return [pivots[low] for low in order], [low.bit_length() - 1 for low in order]


def packed_kernel_basis(rows: Sequence[int], ncols: int) -> list[int]:
    """Right-kernel basis of a packed GF(2) matrix, one packed vector per
    free column, ordered by free column index."""
    rref, pivots = _packed_rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = 1 << free
        fbit = 1 << free
        for prow, pcol in zip(rref, pivots):
            if prow & fbit:
                vec |= 1 << pcol
        basis.append(vec)
    return basis


def _pack_row(entries: Sequence[int]) -> int:
    m = 0
    for j, v in enumerate(entries):
        if v:
            m |= 1 << j
    return m


def _unpack_row(mask: int, ncols: int) -> tuple[int, ...]:
    return tuple((mask >> j) & 1 for j in range(ncols))


# -- generic elimination -----------------------------------------------------


def _generic_rref(
    field: FieldSpec, rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[list[int]], list[int]]:
    work = [list(r) for r in rows]
    pivots: list[int] = []
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


class FFMatrix:
    """Immutable dense matrix over a FieldSpec with exact entry access."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, rows: Iterable[Iterable[int]], ncols: int | None = None):
        # one pass per row for plain ints; validate names the first bad entry
        q = field.q
        mat = tuple(
            row if all(type(v) is int and 0 <= v < q for v in row)
            else tuple(field.validate(v) for v in row)
            for row in map(tuple, rows)
        )
        if mat:
            ncols = len(mat[0])
            if any(len(r) != ncols for r in mat):
                raise PreconditionError("ragged rows")
        elif ncols is None:
            ncols = 0
        self.field = field
        self.rows = mat
        self.nrows = len(mat)
        self.ncols = ncols

    # -- constructors --

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "FFMatrix":
        return cls(field, [[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "FFMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, field: FieldSpec, cols: Sequence[Sequence[int]], nrows: int | None = None) -> "FFMatrix":
        if not cols:
            return cls(field, [[] for _ in range(nrows or 0)], 0)
        nrows = len(cols[0])
        return cls(field, [[col[i] for col in cols] for i in range(nrows)])

    # -- access --

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.rows[i][j]

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FFMatrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"FFMatrix({format_field(self.field)}, {self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return all(not v for row in self.rows for v in row)

    def is_symmetric(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i)
        )

    def packed_rows(self) -> list[int]:
        if self.field.q != 2:
            raise PreconditionError("packed rows only exist over GF(2)")
        return [_pack_row(r) for r in self.rows]

    # -- arithmetic --

    def _same_field(self, other: "FFMatrix") -> None:
        if self.field != other.field:
            raise PreconditionError("matrices live in different fields")

    def __add__(self, other: "FFMatrix") -> "FFMatrix":
        self._same_field(other)
        if self.shape != other.shape:
            raise PreconditionError(f"shape mismatch {self.shape} vs {other.shape}")
        f = self.field
        return FFMatrix(
            f,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.ncols,
        )

    def __sub__(self, other: "FFMatrix") -> "FFMatrix":
        self._same_field(other)
        if self.shape != other.shape:
            raise PreconditionError(f"shape mismatch {self.shape} vs {other.shape}")
        f = self.field
        return FFMatrix(
            f,
            [
                [f.sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.ncols,
        )

    def scale(self, c: int) -> "FFMatrix":
        f = self.field
        f.validate(c)
        return FFMatrix(f, [[f.mul(c, v) for v in row] for row in self.rows], self.ncols)

    def __matmul__(self, other: "FFMatrix") -> "FFMatrix":
        self._same_field(other)
        if self.ncols != other.nrows:
            raise PreconditionError(f"shape mismatch {self.shape} @ {other.shape}")
        f = self.field
        out = []
        for ra in self.rows:
            row = [0] * other.ncols
            for k, a in enumerate(ra):
                if a:
                    rb = other.rows[k]
                    for j in range(other.ncols):
                        if rb[j]:
                            row[j] = f.add(row[j], f.mul(a, rb[j]))
            out.append(row)
        return FFMatrix(f, out, other.ncols)

    def mat_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.ncols:
            raise PreconditionError("vector length mismatch")
        f = self.field
        out = []
        for row in self.rows:
            acc = 0
            for a, v in zip(row, vec):
                if a and v:
                    acc = f.add(acc, f.mul(a, v))
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "FFMatrix":
        return FFMatrix(
            self.field,
            [self.column(j) for j in range(self.ncols)],
            self.nrows,
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "FFMatrix":
        return FFMatrix(
            self.field,
            [[self.rows[i][j] for j in col_idx] for i in row_idx],
            len(col_idx),
        )

    def lifted(self, big: FieldSpec) -> "FFMatrix":
        """Reinterpret a prime-field matrix inside an extension of the same
        characteristic; entry encodings 0..p-1 are the constant polynomials,
        so this is the canonical embedding."""
        if self.field.e != 1 or big.p != self.field.p:
            raise PreconditionError(
                f"can only lift GF({self.field.p}) into GF({big.p}^{big.e})"
            )
        return FFMatrix(big, self.rows, self.ncols)

    # -- elimination-backed queries --

    def rank(self) -> int:
        if self.field.q == 2:
            return packed_rank(self.packed_rows())
        return len(_generic_rref(self.field, self.rows, self.ncols)[0])

    def rref(self) -> tuple["FFMatrix", tuple[int, ...]]:
        if self.field.q == 2:
            rows, pivots = _packed_rref(self.packed_rows(), self.ncols)
            mat = FFMatrix(self.field, [_unpack_row(r, self.ncols) for r in rows], self.ncols)
            return mat, tuple(pivots)
        rows, pivots = _generic_rref(self.field, self.rows, self.ncols)
        return FFMatrix(self.field, rows, self.ncols), tuple(pivots)

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Right kernel, one basis vector per free column of the reduced
        echelon form, ordered by free column index."""
        if self.field.q == 2:
            return [
                _unpack_row(v, self.ncols)
                for v in packed_kernel_basis(self.packed_rows(), self.ncols)
            ]
        rref, pivots = _generic_rref(self.field, self.rows, self.ncols)
        pivot_set = set(pivots)
        f = self.field
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            vec = [0] * self.ncols
            vec[free] = 1
            for prow, pcol in zip(rref, pivots):
                if prow[free]:
                    vec[pcol] = f.neg(prow[free])
            basis.append(tuple(vec))
        return basis

    def solve(self, rhs: Sequence[int]) -> tuple[int, ...] | None:
        """One solution of self @ x = rhs (free variables set to zero), or
        None when the system is inconsistent."""
        sols = self.solve_columns([list(rhs)])
        return None if sols is None else sols[0]

    def solve_columns(
        self, targets: Sequence[Sequence[int]]
    ) -> list[tuple[int, ...]] | None:
        """Solve self @ x = t for several targets with one elimination.
        Returns None as soon as any target is inconsistent."""
        if any(len(t) != self.nrows for t in targets):
            raise PreconditionError("target length mismatch")
        k = len(targets)
        aug_rows = [
            list(self.rows[i]) + [t[i] for t in targets] for i in range(self.nrows)
        ]
        if self.field.q == 2:
            packed = [_pack_row(r) for r in aug_rows]
            rref, pivots = _packed_rref(packed, self.ncols + k)
        else:
            rref, pivots = _generic_rref(self.field, aug_rows, self.ncols + k)
        if any(p >= self.ncols for p in pivots):
            return None
        out = []
        for t in range(k):
            x = [0] * self.ncols
            tcol = self.ncols + t
            for prow, pcol in zip(rref, pivots):
                if self.field.q == 2:
                    x[pcol] = (prow >> tcol) & 1
                else:
                    x[pcol] = prow[tcol]
            out.append(tuple(x))
        return out

    def independent_columns(self) -> tuple[int, ...]:
        """Indices of the lexicographically first maximal independent column
        set, i.e. the pivot columns of the reduced echelon form."""
        return self.rref()[1]

    # -- text form --

    def to_text(self, packed: bool = False) -> str:
        """Header "nrows ncols GF(...)" then one line per row.  Entries are
        comma-joined coefficient digits, high degree first (a single digit
        for prime fields).  packed=True writes GF(2) rows as hex words."""
        header = f"{self.nrows} {self.ncols} {format_field(self.field)}"
        lines = [header + (" hex" if packed else "")]
        if packed:
            if self.field.q != 2:
                raise PreconditionError("hex packing is a GF(2) form")
            width = max(1, (self.ncols + 3) // 4)
            for mask in self.packed_rows():
                lines.append(format(mask, f"0{width}x"))
        else:
            for row in self.rows:
                lines.append(
                    " ".join(
                        ",".join(str(c) for c in reversed(self.field.coeffs(v)))
                        for v in row
                    )
                )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FFMatrix":
        lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
        if not lines:
            raise ParseError("empty matrix text")
        head = lines[0].split()
        packed = head and head[-1] == "hex"
        if packed:
            head = head[:-1]
        if len(head) < 3:
            raise ParseError(f"bad matrix header {lines[0]!r}", line=1)
        try:
            nrows, ncols = int(head[0]), int(head[1])
        except ValueError as exc:
            raise ParseError(f"bad matrix header {lines[0]!r}", line=1) from exc
        field = parse_field_descriptor(" ".join(head[2:]))
        body = lines[1:]
        if len(body) != nrows:
            raise ParseError(f"expected {nrows} rows, found {len(body)}")
        rows = []
        for lineno, ln in enumerate(body, start=2):
            if packed:
                try:
                    mask = int(ln, 16)
                except ValueError as exc:
                    raise ParseError(f"bad hex row {ln!r}", line=lineno) from exc
                if mask >> ncols:
                    raise ParseError(f"row has bits beyond column {ncols}", line=lineno)
                rows.append(_unpack_row(mask, ncols))
                continue
            entries = []
            toks = ln.split()
            if len(toks) != ncols:
                raise ParseError(f"expected {ncols} entries, found {len(toks)}", line=lineno)
            for tok in toks:
                digs = tok.split(",")
                if len(digs) != field.e:
                    raise ParseError(f"entry {tok!r} needs {field.e} digits", line=lineno)
                try:
                    coeffs = [int(d) for d in reversed(digs)]
                except ValueError as exc:
                    raise ParseError(f"bad entry {tok!r}", line=lineno) from exc
                entries.append(field.from_coeffs(coeffs))
            rows.append(entries)
        return cls(field, rows, ncols)


# -- module-level conveniences matching the operation names ------------------


def rank(matrix: FFMatrix) -> int:
    return matrix.rank()


def kernel_basis(matrix: FFMatrix) -> list[tuple[int, ...]]:
    return matrix.kernel_basis()


# -- symmetric rank-one decomposition over GF(2) -----------------------------


@dataclass(frozen=True)
class RankOneDecomposition:
    """Vectors u with A = sum of u u^T over GF(2), in emission order."""

    size: int
    vectors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.vectors)

    def reassemble(self) -> FFMatrix:
        rows = [0] * self.size
        for vec in self.vectors:
            mask = _pack_row(vec)
            for i in range(self.size):
                if vec[i]:
                    rows[i] ^= mask
        return FFMatrix(_GF2, [_unpack_row(r, self.size) for r in rows], self.size)


def symmetric_rank_one_decomposition(matrix: FFMatrix) -> RankOneDecomposition:
    """Write a symmetric GF(2) matrix as a sum of at most floor(3k/2)
    symmetric rank-one terms, k = rank(A).

    Peeling rule: while the residue is nonzero, take the lowest index i with
    a set diagonal bit and peel a_i a_i^T (rank drops by one); if the whole
    diagonal is zero, take the row-major first set entry (i, j) and peel
    a_i a_j^T + a_j a_i^T as the three terms a_i, a_j, a_i + a_j (rank drops
    by two).  Columns are read from the current residue, not the input.
    """
    if matrix.field.q != 2:
        raise PreconditionError("decomposition is defined over GF(2)")
    if matrix.nrows != matrix.ncols or not matrix.is_symmetric():
        raise PreconditionError("matrix must be symmetric")
    n = matrix.nrows
    rows = matrix.packed_rows()
    start_rank = packed_rank(rows)
    vectors: list[int] = []

    def peel_outer(u: int, v: int) -> None:
        # add u v^T + v u^T (or u u^T when u == v) to the residue
        for i in range(n):
            if (u >> i) & 1:
                rows[i] ^= v
            if u != v and (v >> i) & 1:
                rows[i] ^= u

    steps = 0
    while any(rows):
        steps += 1
        if steps > n + 1:
            raise InternalConsistencyError("peeling failed to drain the matrix")
        diag = next((i for i in range(n) if (rows[i] >> i) & 1), None)
        if diag is not None:
            u = rows[diag]
            vectors.append(u)
            peel_outer(u, u)
            continue
        i = next(i for i in range(n) if rows[i])
        j = (rows[i] & -rows[i]).bit_length() - 1
        u, v = rows[i], rows[j]
        vectors.extend((u, v, u ^ v))
        peel_outer(u, v)

    if len(vectors) > (3 * start_rank) // 2:
        raise InternalConsistencyError(
            f"decomposition used {len(vectors)} terms for rank {start_rank}"
        )
    result = RankOneDecomposition(
        size=n, vectors=tuple(_unpack_row(v, n) for v in vectors)
    )
    if result.reassemble() != matrix:
        raise InternalConsistencyError("decomposition does not reassemble the input")
    return result


# -- rank descent GF(2^r) -> GF(2) -------------------------------------------


def _constraint_violation(
    matrix: FFMatrix, rows: Sequence[Sequence[tuple[int, int]]] | Sequence[Sequence[int]]
) -> int | None:
    """First index of a violated homogeneous constraint on the flattened
    entries, or None.  A constraint is either a dense 0/1 row of length
    nrows*ncols or a sparse list of (flat index, coefficient) pairs."""
    f = matrix.field
    flat = [v for row in matrix.rows for v in row]
    for idx, con in enumerate(rows):
        acc = 0
        if con and isinstance(con[0], tuple):
            pairs = con
        else:
            pairs = [(k, c) for k, c in enumerate(con) if c]
        for k, c in pairs:
            if flat[k]:
                acc = f.add(acc, f.mul(f.validate(c), flat[k]))
        if acc:
            return idx
    return None


def rank_descent(matrix: FFMatrix, constraints) -> FFMatrix:
    """Map a nonzero matrix over GF(2^r) to a nonzero GF(2) matrix in the
    same GF(2)-defined subspace, with rank over GF(2) at most r times the
    rank over GF(2^r).

    The map applies, entry by entry, the coordinate functional keyed to the
    first nonzero entry in row-major order; that entry maps to 1, so the
    output cannot vanish.  constraints is either an object exposing
    matrix_violation(A) (a subspace description) or a list of homogeneous
    0/1 rows over the flattened entries.  Both the input and the output are
    checked against the constraints; the rank inequality is recomputed and
    asserted rather than trusted.
    """
    field = matrix.field
    if field.p != 2:
        raise PreconditionError("rank descent requires characteristic 2")
    if matrix.is_zero():
        raise PreconditionError("rank descent needs a nonzero matrix")

    def check(m: FFMatrix) -> int | None:
        if hasattr(constraints, "matrix_violation"):
            return constraints.matrix_violation(m)
        return _constraint_violation(m, constraints)

    bad = check(matrix)
    if bad is not None:
        raise PreconditionError(f"input violates constraint {bad}")

    target = next(v for row in matrix.rows for v in row if v)
    phi = make_linear_functional(field, target)
    out = FFMatrix(_GF2, [[phi(v) for v in row] for row in matrix.rows], matrix.ncols)

    if out.is_zero():
        raise InternalConsistencyError("descent produced the zero matrix")
    bad = check(out.lifted(field) if field.e > 1 else out)
    if bad is not None:
        raise InternalConsistencyError(f"descent output violates constraint {bad}")
    r = field.e
    if out.rank() > r * matrix.rank():
        raise InternalConsistencyError("descent exceeded the rank bound")
    return out
