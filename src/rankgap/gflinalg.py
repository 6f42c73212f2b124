"""Exact linear algebra over the fields from gfarith: the one module that
eliminates.

Each field kind has one elimination by row insertion: a row is reduced
against the pivot rows found so far, keyed by leading column, and what is
left becomes a pivot row.  GF(2) rows are bit-packed ints reduced by XOR,
leading column first: column j of an ncols-wide row is bit ncols - 1 - j,
so a row's leading column is its top bit and bit_length() finds it.  Every
other field reduces int lists through its operation tables
(FieldSpec.tables()) and scales pivot rows to a leading 1.
Each has a rank that stops once it would pass a limit (packed_rank,
table_rank) and a reduced echelon form that back-substitutes the pivot rows
from the highest pivot down.  That form is unique for a row space, so
ranks, kernels and solutions do not depend on the order rows arrive in.

FFMatrix is an immutable dense matrix of validated int-encoded entries;
sparse_kernel_basis takes trusted sparse rows to a kernel without one.
Both return the kernel's reduced echelon basis, from one elimination that
starts at the last column; packed_kernel_basis keeps the free-column basis
of the rows as given.

Also here: the symmetric rank-one decomposition over GF(2) with its 3k/2
length guarantee, and the entrywise-functional rank descent that carries a
matrix over GF(2^r) down to GF(2) without leaving a GF(2)-defined subspace.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import partial

from .errors import InternalConsistencyError, ParseError, PreconditionError
from .gfarith import (
    FieldSpec,
    format_field,
    make_field,
    make_linear_functional,
    parse_field_descriptor,
)
from .records import record

__all__ = [
    "FFMatrix",
    "RankOneDecomposition",
    "independent_rows",
    "symmetric_rank_one_decomposition",
    "rank_descent",
    "packed_rank",
    "packed_kernel_basis",
    "sparse_kernel_basis",
    "sparse_rank",
    "table_rank",
]

_GF2 = make_field(2)


# -- packed GF(2) engine -----------------------------------------------------


def packed_rank(
    rows: Iterable[int], limit: int | None = None, pivots: dict[int, int] | None = None
) -> int | None:
    """Rank of a GF(2) matrix given as bit-packed rows, leading column in
    the top bit (column j of an ncols-wide row at bit ncols - 1 - j).

    With a limit, elimination stops as soon as the rank would pass it and
    the answer is None.  pivots, when given, holds the pivot rows of rows
    inserted earlier, keyed by bit_length() (ncols - j for a pivot at
    column j), and receives the new ones; the rank then counts them all.
    """
    if pivots is None:
        pivots = {}
    for row in rows:
        while row:
            top = row.bit_length()
            other = pivots.get(top)
            if other is None:
                if len(pivots) == limit:
                    return None
                pivots[top] = row
                break
            row ^= other
    return len(pivots)


def _packed_rref(rows: Sequence[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Rows must have no bits at or above ncols.  packed_rank inserts each
    row against the pivot rows found so far, keyed by their top bit, then
    the pivot rows are back-substituted from the highest pivot column (the
    lowest bit) down.
    """
    pivots: dict[int, int] = {}
    packed_rank(rows, pivots=pivots)
    # a pivot row holds no bit above its own top bit, and every pivot row
    # below it is already reduced: one XOR per pivot bit clears it
    pivot_bits = sum(1 << (top - 1) for top in pivots)
    order = sorted(pivots)
    for top in order:
        row = pivots[top]
        hits = (row & pivot_bits) ^ (1 << (top - 1))
        while hits:
            hit = hits.bit_length()
            row ^= pivots[hit]
            hits ^= 1 << (hit - 1)
        pivots[top] = row
    order.reverse()
    return [pivots[top] for top in order], [ncols - top for top in order]


def packed_kernel_basis(rows: Sequence[int], ncols: int) -> list[int]:
    """Right-kernel basis of a packed GF(2) matrix, one packed vector per
    free column, ordered by free column index; vectors are packed as rows
    are, column j at bit ncols - 1 - j."""
    rref, pivots = _packed_rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = fbit = 1 << (ncols - 1 - free)
        for prow, pcol in zip(rref, pivots):
            if prow & fbit:
                vec |= 1 << (ncols - 1 - pcol)
        basis.append(vec)
    return basis


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack_row(entries: Sequence[int]) -> int:
    """GF(2) entries as an int, entry j at bit len(entries) - 1 - j."""
    return int(b"0" + bytes(entries).translate(_BIT_DIGITS), 2)


def _unpack_row(mask: int, ncols: int) -> tuple[int, ...]:
    # a marker bit at ncols keeps the leading zeros, and makes ncols = 0 give ()
    return tuple(format(mask | 1 << ncols, "b")[1:].encode().translate(_DIGIT_BITS))


# -- table-driven elimination over any field ---------------------------------


def table_rank(
    tables: Sequence,
    rows: Iterable[Sequence[int]],
    limit: int | None = None,
    pivots: dict[int, list[int]] | None = None,
) -> int | None:
    """Rank of a matrix given as int-list rows over the field whose
    FieldSpec.tables() these are.  Each row is inserted against the pivot
    rows so far, keyed by leading column and scaled to a leading 1.  With
    a limit, elimination stops as soon as the rank would pass it and the
    answer is None.  pivots, when given, holds the pivot rows of rows
    inserted earlier, keyed by leading column, and receives the new ones;
    the rank then counts them all."""
    _, sub, mul, inv = tables
    if pivots is None:
        pivots = {}
    for row in rows:
        width = len(row)
        col = 0
        while col < width:
            v = row[col]
            if v:
                pivot = pivots.get(col)
                if pivot is None:
                    if len(pivots) == limit:
                        return None
                    scale = mul[inv[v]]
                    pivots[col] = [scale[x] for x in row]
                    break
                scale = mul[v]
                row = [sub[x][scale[p]] for x, p in zip(row, pivot)]
            col += 1
    return len(pivots)


def _table_rref(
    tables: Sequence, rows: Iterable[Sequence[int]]
) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    The inserted pivot rows are back-substituted from the highest pivot
    down: every pivot row above the current one is already reduced, so
    one subtraction per pivot column clears it.
    """
    pivots: dict[int, list[int]] = {}
    table_rank(tables, rows, pivots=pivots)
    _, sub, mul, _ = tables
    order = sorted(pivots)
    for k, col in reversed(list(enumerate(order))):
        row = pivots[col]
        for other in order[k + 1:]:
            v = row[other]
            if v:
                scale = mul[v]
                row = [sub[x][scale[p]] for x, p in zip(row, pivots[other])]
        pivots[col] = row
    return [pivots[col] for col in order], order


def _table_kernel(
    tables: Sequence, rows: Iterable[Sequence[int]], ncols: int
) -> list[tuple[int, ...]]:
    """Right kernel, one basis vector per free column of the reduced
    echelon form, ordered by free column index."""
    rref, pivots = _table_rref(tables, rows)
    _, sub, _, _ = tables
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for prow, pcol in zip(rref, pivots):
            if prow[free]:
                vec[pcol] = sub[0][prow[free]]
        basis.append(tuple(vec))
    return basis


def _echelon_kernel(field: FieldSpec, rows: Sequence, ncols: int, packed: bool = False) -> list:
    """Reduced echelon basis of the right kernel, leading columns increasing,
    of rows laid out last column first: GF(2) rows packed with column j at
    bit j (as the vectors stay with packed=True), other fields' int lists
    reversed.  Eliminated from the last column, each free column's vector
    is 0 left of it, so the free-column basis, reversed, is that form."""
    if field.q != 2:
        return [v[::-1] for v in reversed(_table_kernel(field.tables(), rows, ncols))]
    kernel = packed_kernel_basis(rows, ncols)[::-1]
    return kernel if packed else [_unpack_row(v, ncols)[::-1] for v in kernel]


def _dense_rows(rows: Iterable[Sequence[tuple[int, int]]], ncols: int) -> list[list[int]]:
    dense = []
    for row in rows:
        entries = [0] * ncols
        for pos, coeff in row:
            entries[pos] = coeff
        dense.append(entries)
    return dense


def independent_rows(field: FieldSpec, rows: Iterable[Sequence[int]]) -> list[int]:
    """Indices of the lexicographically first maximal independent set of
    rows: each row is inserted against the ones kept so far, bit-packed over
    GF(2) and through FieldSpec.tables() otherwise, and kept when it raises
    the rank.  For a symmetric matrix these are also the pivot columns of
    its reduced echelon form."""
    if field.q == 2:
        rank, rows = packed_rank, map(_pack_row, rows)
    else:
        rank = partial(table_rank, field.tables())
    pivots: dict = {}
    # len(pivots) is read before the row goes in, and rank returns it after
    return [i for i, row in enumerate(rows) if len(pivots) < rank((row,), pivots=pivots)]


def sparse_kernel_basis(
    field: FieldSpec, rows: Iterable[Sequence[tuple[int, int]]], ncols: int
) -> list[tuple[int, ...]]:
    """Reduced echelon basis of the right kernel of sparse rows, each a
    sequence of (column, nonzero coefficient) pairs the caller has already
    validated.  Over GF(2) every coefficient is 1 and a row packs straight
    into an int; other fields eliminate plain int lists.  Same basis as
    FFMatrix.kernel_basis."""
    if field.q == 2:
        packed = []
        for row in rows:
            bits = 0
            for pos, _ in row:
                bits |= 1 << pos
            packed.append(bits)
        return _echelon_kernel(field, packed, ncols)
    return _echelon_kernel(field, [row[::-1] for row in _dense_rows(rows, ncols)], ncols)


def sparse_rank(field: FieldSpec, rows: Iterable[Sequence[tuple[int, int]]]) -> int:
    """Rank of validated sparse rows.  Only the columns the rows use are
    kept, renumbered in order, so the cost does not grow with the width of
    the space."""
    rows = list(rows)
    column = {pos: j for j, pos in enumerate(sorted({pos for row in rows for pos, _ in row}))}
    if field.q == 2:
        top = len(column) - 1
        packed = []
        for row in rows:
            bits = 0
            for pos, _ in row:
                bits |= 1 << (top - column[pos])
            packed.append(bits)
        return packed_rank(packed)
    rows = [[(column[pos], coeff) for pos, coeff in row] for row in rows]
    return table_rank(field.tables(), _dense_rows(rows, len(column)))


class FFMatrix:
    """Immutable dense matrix over a FieldSpec with exact entry access."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, rows: Iterable[Iterable[int]], ncols: int | None = None):
        mat = tuple(map(field.validate_all, rows))
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
    def identity(cls, field: FieldSpec, n: int) -> "FFMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, field: FieldSpec, cols: Sequence[Sequence[int]]) -> "FFMatrix":
        return cls(field, zip(*cols), len(cols))

    # -- access --

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

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
        """The rows as packed_rank takes them: column j at bit ncols - 1 - j."""
        if self.field.q != 2:
            raise PreconditionError("packed rows only exist over GF(2)")
        return [_pack_row(r) for r in self.rows]

    # -- arithmetic --

    def __matmul__(self, other: "FFMatrix") -> "FFMatrix":
        if self.field != other.field:
            raise PreconditionError("matrices live in different fields")
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
        return table_rank(self.field.tables(), self.rows)

    def rref(self) -> tuple["FFMatrix", tuple[int, ...]]:
        if self.field.q == 2:
            rows, pivots = _packed_rref(self.packed_rows(), self.ncols)
            rows = [_unpack_row(r, self.ncols) for r in rows]
        else:
            rows, pivots = _table_rref(self.field.tables(), self.rows)
        return FFMatrix(self.field, rows, self.ncols), tuple(pivots)

    def kernel_basis(self, packed: bool = False) -> list:
        """Reduced echelon basis of the right kernel, leading columns
        increasing: each vector has a leading 1, where the others have 0.
        packed=True gives GF(2) vectors as ints, bit j holding column j."""
        if self.field.q == 2:
            return _echelon_kernel(self.field, [_pack_row(r[::-1]) for r in self.rows], self.ncols, packed)
        if packed:
            raise PreconditionError("packed vectors only exist over GF(2)")
        return _echelon_kernel(self.field, [r[::-1] for r in self.rows], self.ncols)

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
            rref, pivots = _packed_rref([_pack_row(r) for r in aug_rows], self.ncols + k)
            rref = [_unpack_row(r, self.ncols + k) for r in rref]
        else:
            rref, pivots = _table_rref(self.field.tables(), aug_rows)
        if any(p >= self.ncols for p in pivots):
            return None
        out = []
        for tcol in range(self.ncols, self.ncols + k):
            x = [0] * self.ncols
            for prow, pcol in zip(rref, pivots):
                x[pcol] = prow[tcol]
            out.append(tuple(x))
        return out

    # -- text form --

    def to_text(self, packed: bool = False) -> str:
        """Header "nrows ncols GF(...)" then one line per row.  Entries are
        comma-joined coefficient digits, high degree first (a single digit
        for prime fields).  packed=True writes GF(2) rows as hex words, bit j
        holding column j: the reverse of the packing elimination uses."""
        header = f"{self.nrows} {self.ncols} {format_field(self.field)}"
        lines = [header + (" hex" if packed else "")]
        if packed:
            if self.field.q != 2:
                raise PreconditionError("hex packing is a GF(2) form")
            width = max(1, (self.ncols + 3) // 4)
            for row in self.rows:
                lines.append(format(_pack_row(row[::-1]), f"0{width}x"))
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
        # a packed row is at least as wide as to_text writes it, so the text
        # bounds the matrix here too, not only the header's column count
        width = max(1, (ncols + 3) // 4)
        for lineno, ln in enumerate(body, start=2):
            if packed:
                if len(ln) < width:
                    raise ParseError(
                        f"hex row is {len(ln)} characters wide, {ncols} columns need {width} digits",
                        line=lineno,
                    )
                try:
                    mask = int(ln, 16)
                except ValueError as exc:
                    raise ParseError(f"bad hex row {ln!r}", line=lineno) from exc
                if mask >> ncols:
                    raise ParseError(f"row has bits beyond column {ncols}", line=lineno)
                rows.append(_unpack_row(mask, ncols)[::-1])
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


# -- symmetric rank-one decomposition over GF(2) -----------------------------


@record
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
        # add u v^T + v u^T (or u u^T when u == v) to the residue; entry i
        # of a packed vector is bit n - 1 - i
        for i in range(n):
            if (u >> (n - 1 - i)) & 1:
                rows[i] ^= v
            if u != v and (v >> (n - 1 - i)) & 1:
                rows[i] ^= u

    steps = 0
    while any(rows):
        steps += 1
        if steps > n + 1:
            raise InternalConsistencyError("peeling failed to drain the matrix")
        diag = next((i for i in range(n) if (rows[i] >> (n - 1 - i)) & 1), None)
        if diag is not None:
            u = rows[diag]
            vectors.append(u)
            peel_outer(u, u)
            continue
        i = next(i for i in range(n) if rows[i])
        j = n - rows[i].bit_length()
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


def _constraint_violation(matrix: FFMatrix, rows: Sequence[Sequence[int]]) -> int | None:
    """First index of a violated homogeneous constraint on the flattened
    entries, or None.  A constraint is a dense 0/1 row, one entry per
    matrix entry in row-major order."""
    f = matrix.field
    flat = [v for row in matrix.rows for v in row]
    for idx, con in enumerate(rows):
        acc = 0
        for k, c in enumerate(con):
            if c and flat[k]:
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
    matrix_violation(A) and its distinct_rows (a subspace description) or a
    list of dense homogeneous 0/1 rows, one entry per matrix entry in
    row-major order.  A subspace row with a coefficient other than 1 is
    refused once the input is checked: the descended matrix is only sure
    to stay in a GF(2)-defined space.  Both the input and the output are
    checked against the constraints; the rank inequality is recomputed
    and asserted rather than trusted.
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
    if hasattr(constraints, "matrix_violation"):
        for k, row in constraints.distinct_rows:
            if any(coeff != 1 for _, coeff in row):
                raise PreconditionError(
                    f"rank descent needs a GF(2)-defined subspace; constraint "
                    f"row {k} has a coefficient outside GF(2)"
                )

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
