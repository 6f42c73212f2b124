"""Exact linear algebra over the fields from gfarith: the one module that
eliminates.

Every elimination is by row insertion: a row is reduced against the pivot
rows found so far, keyed by leading column, and what is left becomes a
pivot row.  Three engines share one interface: pack(entries), unpack(row,
ncols) and sparse(rows, width, column) build rows in the engine's form;
rank(rows, limit, pivots) inserts rows into pivots, and stops with None
once the rank would pass limit; back_substitute(pivots, ncols) gives the
reduced echelon form (rows, pivot columns), from the highest pivot column
down; trailing(row, ncols) walks the nonzero (column, value) entries
right of a row's leading one; neg[v] is -v.  _eliminate, _rref and
_pivot_kernel (the free-column kernel of a set of pivots, as sparse
rows, so that a wide kernel is packed or made dense only as its caller
needs) are written once over it.  The reduced echelon form is unique for
a row space, so ranks, kernels and solutions do not depend on the engine
or the order rows arrive in.  field_engine picks:
- GF(2): PackedEngine, each row one int, reduced by XOR (packed_rank).  It
  is the plane layout with one plane, kept apart because its step is a
  single XOR with no multiple to look up, and the CNF kernels and the
  GF(2) scan lean on it.
- GF(3) and GF(2^r) for 2 <= r <= 8: PlaneEngine, each row one int per bit
  plane, each pivot kept with its q - 1 multiples, so a step is one plane
  subtraction with no field operation (Boothby and Bradshaw, "Bitslicing
  and the Method of Four Russians Over Larger Finite Fields",
  arXiv:0901.1413).
- every other field (prime q >= 5, odd extension fields, and GF(2^r) past
  r = 8, whose entries no longer fit a byte of planes): TableEngine, int
  lists through FieldSpec.tables(), pivot rows scaled to a leading 1
  (table_rank).
Packed and plane rows lay column j of an ncols-wide row at bit
ncols - 1 - j, so bit_length() finds a row's leading column and keys its
pivot; table pivots are keyed by column.

FFMatrix is an immutable dense matrix of validated int-encoded entries,
eliminated on reference engines, packed over GF(2) and the tables
otherwise, never planes: the reference the plane engine is tested
against.  sparse_kernel_basis takes trusted sparse rows to a kernel
without one, in the two steps sparse_pivots (the elimination, whose
pivots count the rank) and kernel_from_pivots (the back-substitution), so
a caller that needs the rank first eliminates once either way.  Both
return the kernel's reduced echelon basis, from one elimination that
starts at the last column; packed_kernel_basis keeps the free-column
basis of the rows as given.

Also here: the symmetric rank-one decomposition over GF(2) with its 3k/2
length guarantee, and the entrywise-functional rank descent that carries a
matrix over GF(2^r) down to GF(2) without leaving a GF(2)-defined subspace.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from operator import xor

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
    "PackedEngine",
    "PlaneEngine",
    "RankOneDecomposition",
    "TableEngine",
    "field_engine",
    "independent_rows",
    "kernel_from_pivots",
    "symmetric_rank_one_decomposition",
    "rank_descent",
    "packed_rank",
    "packed_kernel_basis",
    "sparse_kernel_basis",
    "sparse_pivots",
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


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_bytes(mask: int, ncols: int) -> bytes:
    """Bit ncols - 1 - j of mask as byte j, 0 or 1."""
    # a marker bit at ncols keeps the leading zeros, and makes ncols = 0 give b""
    return format(mask | 1 << ncols, "b")[1:].encode().translate(_DIGIT_BITS)


def _pack_row(entries: Sequence[int]) -> int:
    """GF(2) entries as an int, entry j at bit len(entries) - 1 - j."""
    return int(b"0" + bytes(entries).translate(_BIT_DIGITS), 2)


def _unpack_row(mask: int, ncols: int) -> tuple[int, ...]:
    return tuple(_bit_bytes(mask, ncols))


class PackedEngine:
    """GF(2): each row one int, reduced by XOR through packed_rank."""

    neg = (0, 1)
    pack = staticmethod(_pack_row)
    unpack = staticmethod(_unpack_row)

    @property
    def rank(self):
        """packed_rank, looked up on each use, so that a rebinding of it
        sees every GF(2) elimination."""
        return packed_rank

    @staticmethod
    def back_substitute(pivots: dict[int, int], ncols: int) -> tuple[list[int], list[int]]:
        """The reduced echelon form of the pivot rows rank inserted,
        back-substituted from the highest pivot column (the lowest bit)
        down: (rows, pivot column indices).  pivots is spent."""
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

    @staticmethod
    def trailing(row: int, ncols: int):
        row ^= 1 << row.bit_length() >> 1
        while row:
            top = row.bit_length()
            yield ncols - top, 1
            row ^= 1 << (top - 1)

    @staticmethod
    def sparse(rows, width, column=None):
        """Sparse (position, coefficient) rows as packed ints: position pos
        at column column[pos] of a width-wide row, or at bit pos when
        column is None (the last-column-first layout _echelon_kernel
        takes)."""
        packed = []
        if column is None:
            for row in rows:
                bits = 0
                for pos, _ in row:
                    bits |= 1 << pos
                packed.append(bits)
            return packed
        top = width - 1
        for row in rows:
            bits = 0
            for pos, _ in row:
                bits |= 1 << (top - column[pos])
            packed.append(bits)
        return packed


# -- bit-plane engine: GF(3) and GF(2^r) -------------------------------------


def _value(row: tuple[int, ...], s: int) -> int:
    """The entry at bit s of a row of planes: bit i of it is bit s of plane i."""
    v = 0
    for i, plane in enumerate(row):
        v |= (plane >> s & 1) << i
    return v


def _xor(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(xor, a, b))


def _xor2(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] ^ b[0], a[1] ^ b[1]


def _gf3_add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a + b over GF(3), each a pair of planes (ones, twos), in seven word
    operations: 1 + 1 = 2, 2 + 2 = 1 and 1 + 2 = 0 at every column."""
    a1, a2 = a
    b1, b2 = b
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _gf3_sub(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a - b over GF(3): _gf3_add with the planes of -b, which are b's
    swapped."""
    a1, a2 = a
    n2, n1 = b
    t = (a1 | n2) ^ (a2 | n1)
    return (a2 | n2) ^ t, (a1 | n1) ^ t


def _gf3_dot(a: tuple[int, int], b: tuple[int, int]) -> int:
    """The dot product of two GF(3) rows: 1·1 = 2·2 = 1 and 1·2 = 2."""
    a1, a2 = a
    b1, b2 = b
    ones = (a1 & b1).bit_count() + (a2 & b2).bit_count()
    return (ones + 2 * ((a1 & b2).bit_count() + (a2 & b1).bit_count())) % 3


def _gf4_dot(a: tuple[int, int], b: tuple[int, int]) -> int:
    """The dot product of two GF(4) rows: the parities of plane products
    are coefficients of 1, alpha and alpha^2 = alpha + 1."""
    a0, a1 = a
    b0, b1 = b
    high = (a1 & b1).bit_count()
    one = (a0 & b0).bit_count() + high
    alpha = (a0 & b1).bit_count() + (a1 & b0).bit_count() + high
    return (one & 1) | (alpha & 1) << 1


def _gf3_multiples(row: tuple[int, int], lead: int = 1) -> tuple:
    other = (row[1], row[0])
    return (None, row, other) if lead == 1 else (None, other, row)


# a byte holds one entry of every plane
_MAX_PLANES = 8


class PlaneEngine:
    """Elimination over GF(3), or GF(2^r) with 2 <= r <= 8, on bit planes.

    A row is a tuple of ints, one per plane, each laid out as packed GF(2)
    rows are (column j of an ncols-wide row at bit ncols - 1 - j), and
    plane i holds bit i of every entry.  GF(2^r) entries are the field's
    ints, so an entry's r bits are its polynomial's coefficients and adding
    rows XORs their planes.  GF(3) takes two planes, the columns holding 1
    and those holding 2, added by _gf3_add.  A row's leading column is the
    top bit of the OR of its planes.

    Each pivot keeps its q - 1 multiples, indexed by their entry at the
    pivot's column, so a row with value v there is reduced by subtracting
    the multiple indexed v: one plane subtraction per step, with no field
    operation.  Over GF(3) the multiples are the pivot and its planes
    swapped.  Over GF(2^r), multiplying by alpha maps plane i to plane
    i + 1 and feeds the top plane back along the modulus, and c times a row
    is the XOR of alpha^i times it over the bits i of c.
    """

    def __init__(self, field: FieldSpec):
        self.q = q = field.q
        self.count = count = 2 if field.p == 3 else field.e
        self._digits = [
            bytes.maketrans(bytes(range(256)), bytes(48 + (v >> i & 1) for v in range(256)))
            for i in range(count)
        ]
        if field.p == 3:
            self.add, self.sub, self.dot, self.multiples = _gf3_add, _gf3_sub, _gf3_dot, _gf3_multiples
            self.neg = (0, 2, 1)
            return
        self.neg = range(q)
        mul = field.tables()[2]
        if count == 2:
            # GF(4) written out on its two planes: x^2 + x + 1 is the one
            # quadratic modulus, so alpha (lo, hi) is (hi, lo ^ hi) and
            # alpha^2 (lo, hi) is (lo ^ hi, lo).  The general multiples
            # below made minrank on perfbench's minrank_gfq 10% slower, the
            # general add, dot and at (which minrank's solutions use) 5-6%.
            alpha, alpha2 = mul[2], mul[3]

            def multiples2(row, lead=1):
                lo, hi = row
                mults = [None] * 4
                mults[lead], mults[alpha[lead]], mults[alpha2[lead]] = row, (hi, lo ^ hi), (lo ^ hi, lo)
                return mults

            self.add = self.sub = _xor2
            self.multiples, self.dot = multiples2, _gf4_dot
            return
        self.add = self.sub = add = _xor
        # alpha^k for k up to 2r - 2: the dot product sums the parity of
        # planes i and j of the two rows as the coefficient of alpha^(i + j)
        powers = [1]
        while len(powers) < 2 * count - 1:
            powers.append(mul[2][powers[-1]])

        def dot(a, b):
            v = 0
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    if (x & y).bit_count() & 1:
                        v ^= powers[i + j]
            return v

        self.dot = dot
        # the modulus's low coefficients, each 0 or -1 (every bit set)
        feed = [-c for c in field.modulus[:count]]

        def multiples(row, lead=1):
            powers = [row]
            for _ in range(1, count):
                top = row[-1]
                row = (top & feed[0], *[p ^ (top & f) for p, f in zip(row, feed[1:])])
                powers.append(row)
            mults = [None] * q
            for c in range(1, q):
                rest = c & (c - 1)
                power = powers[(c ^ rest).bit_length() - 1]
                mults[mul[c][lead]] = add(mults[mul[rest][lead]], power) if rest else power
            return mults

        self.multiples = multiples

    def pack(self, entries: Sequence[int]) -> tuple[int, ...]:
        data = bytes(entries)
        return tuple([int(b"0" + data.translate(digits), 2) for digits in self._digits])

    def unpack(self, row: tuple[int, ...], ncols: int) -> tuple[int, ...]:
        # each plane's bits as bytes: with at most 8 planes their sum, each
        # shifted by its plane, carries into no other entry's byte
        total = 0
        for i, plane in enumerate(row):
            total |= int.from_bytes(_bit_bytes(plane, ncols), "big") << i
        return tuple(total.to_bytes(ncols, "big"))

    def trailing(self, row: tuple[int, ...], ncols: int):
        occupied = 0
        for plane in row:
            occupied |= plane
        occupied ^= 1 << occupied.bit_length() >> 1
        while occupied:
            top = occupied.bit_length()
            yield ncols - top, _value(row, top - 1)
            occupied ^= 1 << (top - 1)

    def sparse(self, rows, width: int, column=None) -> list[tuple[int, ...]]:
        """As PackedEngine.sparse, each coefficient's bits on the planes."""
        top, count = width - 1, self.count
        out = []
        for row in rows:
            planes = [0] * count
            for pos, coeff in row:
                bit = 1 << (pos if column is None else top - column[pos])
                i = 0
                while coeff:
                    if coeff & 1:
                        planes[i] |= bit
                    coeff >>= 1
                    i += 1
            out.append(tuple(planes))
        return out

    def at(self, v: int, bit: int) -> tuple[int, ...]:
        """The row with v at bit and 0 elsewhere."""
        if self.count == 2:
            return (v & 1) << bit, (v >> 1) << bit
        return tuple([(v >> i & 1) << bit for i in range(self.count)])

    def rank(self, rows, limit: int | None = None, pivots: dict | None = None) -> int | None:
        """As packed_rank, over rows of planes: pivots are keyed by the
        bit_length() of their leading column and hold their multiples.
        Rows of two planes go through rank_cut's elimination: through the
        loop here the GF(2^2) CNF kernel took 1.5 to 2 times as long at
        n = 7 and n = 9, d = 8."""
        if pivots is None:
            pivots = {}
        if self.count == 2:
            for row in rows:
                if self.rank_cut(row, (0,), -1, limit, pivots) is None:
                    return None
            return len(pivots)
        sub, value, multiples = self.sub, _value, self.multiples
        for row in rows:
            while True:
                occupied = 0
                for plane in row:
                    occupied |= plane
                if not occupied:
                    break
                top = occupied.bit_length()
                v = value(row, top - 1)
                mults = pivots.get(top)
                if mults is None:
                    if len(pivots) == limit:
                        return None
                    pivots[top] = multiples(row, v)
                    break
                row = sub(row, mults[v])
        return len(pivots)

    def rank_cut(
        self, planes: tuple[int, ...], shifts, mask: int, limit: int | None = None, pivots: dict | None = None
    ) -> int | None:
        """As rank, of the rows held side by side in planes, each mask wide,
        at the shifts given, cut as they are inserted.  Over two planes,
        GF(3) and GF(4), the elimination is written out here: the scans'
        rank tests are a few rows each, and through rank's loop minrank on
        perfbench's minrank_gfq took 17% longer."""
        if pivots is None:
            pivots = {}
        if self.count != 2:
            return self.rank((tuple([plane >> s & mask for plane in planes]) for s in shifts), limit, pivots)
        gf3, multiples = self.q == 3, self.multiples
        low, high = planes
        for s in shifts:
            lo, hi = low >> s & mask, high >> s & mask
            while lo | hi:
                top = (lo | hi).bit_length()
                t = top - 1
                v = (lo >> t & 1) | (hi >> t & 1) << 1
                mults = pivots.get(top)
                if mults is None:
                    if len(pivots) == limit:
                        return None
                    pivots[top] = multiples((lo, hi), v)
                    break
                a, b = mults[v]
                if gf3:
                    # _gf3_sub
                    u = (lo | a) ^ (hi | b)
                    lo, hi = (hi | a) ^ u, (lo | b) ^ u
                else:
                    lo ^= a
                    hi ^= b
        return len(pivots)

    def back_substitute(self, pivots: dict, ncols: int) -> tuple[list[tuple[int, ...]], list[int]]:
        """As PackedEngine.back_substitute: the pivot rows, scaled to a
        leading 1, are back-substituted from the highest pivot column
        down, and each reduced one keeps its multiples for the rows above
        it."""
        sub, value, multiples = self.sub, _value, self.multiples
        pivot_bits = sum(1 << (top - 1) for top in pivots)
        reduced: dict = {}
        for top in sorted(pivots):
            row = pivots[top][1]
            occupied = 0
            for plane in row:
                occupied |= plane
            hits = (occupied & pivot_bits) ^ (1 << (top - 1))
            while hits:
                hit = hits.bit_length()
                row = sub(row, reduced[hit][value(row, hit - 1)])
                hits ^= 1 << (hit - 1)
            reduced[top] = multiples(row)
        order = sorted(reduced, reverse=True)
        return [reduced[top][1] for top in order], [ncols - top for top in order]


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


def _dense_rows(rows: Iterable[Sequence[tuple[int, int]]], ncols: int) -> list[list[int]]:
    dense = []
    for row in rows:
        entries = [0] * ncols
        for pos, coeff in row:
            entries[pos] = coeff
        dense.append(entries)
    return dense


class TableEngine:
    """Any field: each row an int list, reduced through the field's
    operation tables by table_rank."""

    def __init__(self, field: FieldSpec):
        self.tables = tables = field.tables()
        self.neg = tables[1][0]

    def rank(self, rows, limit=None, pivots=None):
        return table_rank(self.tables, rows, limit, pivots)

    def back_substitute(self, pivots: dict[int, list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
        """As PackedEngine.back_substitute: every pivot row of a higher
        pivot column is already reduced, so one subtraction per pivot
        column clears it."""
        _, sub, mul, _ = self.tables
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

    @staticmethod
    def pack(entries):
        return entries

    @staticmethod
    def unpack(row, ncols):
        return tuple(row)

    @staticmethod
    def trailing(row, ncols):
        return [(j, v) for j, v in enumerate(row) if v][1:]

    @staticmethod
    def sparse(rows, width, column=None):
        if column is None:
            column = range(width - 1, -1, -1)
        return _dense_rows(([(column[pos], coeff) for pos, coeff in row] for row in rows), width)


_PACKED = PackedEngine()


@lru_cache(maxsize=None)
def field_engine(field: FieldSpec) -> PackedEngine | PlaneEngine | TableEngine:
    """The engine that eliminates over a field, built once per field:
    packed for GF(2), planes for GF(3) and GF(2^r) with 2 <= r <= 8, the
    operation tables otherwise."""
    if field.q == 2:
        return _PACKED
    if field.q == 3 or (field.p == 2 and field.e <= _MAX_PLANES):
        return PlaneEngine(field)
    return TableEngine(field)


def _reference(field: FieldSpec) -> PackedEngine | TableEngine:
    """FFMatrix's engine: packed over GF(2), the tables otherwise."""
    return _PACKED if field.q == 2 else TableEngine(field)


# -- eliminate, rref and kernel, once over every engine ----------------------


def _eliminate(engine, rows) -> dict:
    """The pivots engine.rank inserts rows into, from none."""
    pivots: dict = {}
    engine.rank(rows, pivots=pivots)
    return pivots


def _rref(engine, rows, ncols: int) -> tuple[list, list[int]]:
    """Reduced row echelon form of the engine's rows, ncols wide: (rows,
    pivot column indices)."""
    return engine.back_substitute(_eliminate(engine, rows), ncols)


def _pivot_kernel(engine, pivots: dict, ncols: int) -> list[list[tuple[int, int]]]:
    """Right kernel of the rows engine.rank inserted into pivots, which is
    spent, as sparse (column, value) rows: one vector per free column of
    the reduced echelon form, ordered by free column index, 1 there, 0 at
    every other free column and -rref[pcol][free] at each pivot column
    pcol, in increasing pcol.  Right of its pivot, a reduced row is
    nonzero only at free columns, so one walk over each row's trailing
    entries fills the basis: walking the pivots too made the n = 9 GF(2^2)
    CNF kernel 7% slower than testing every row at every free column, and
    this walk is faster than both.  Sparse, a vector costs its nonzero
    entries, however wide the rows are."""
    rows, columns = engine.back_substitute(pivots, ncols)
    pivot_set = set(columns)
    basis = {free: [(free, 1)] for free in range(ncols) if free not in pivot_set}
    neg, trailing = engine.neg, engine.trailing
    for row, pcol in zip(rows, columns):
        for col, v in trailing(row, ncols):
            basis[col].append((pcol, neg[v]))
    return list(basis.values())


def _echelon_kernel(engine, pivots: dict, ncols: int) -> list[tuple[int, ...]]:
    """Reduced echelon basis of the right kernel, leading columns increasing,
    of the rows engine.rank inserted into pivots, which this spends, laid
    out last column first: column j at bit j (at entry ncols - 1 - j of a
    table row).  Eliminated from the last column, each free column's
    vector is 0 left of it, so the free-column basis, reversed, is that
    form."""
    return [tuple(v[::-1]) for v in reversed(_dense_rows(_pivot_kernel(engine, pivots, ncols), ncols))]


def packed_kernel_basis(rows: Sequence[int], ncols: int) -> list[int]:
    """Right-kernel basis of a packed GF(2) matrix, one packed vector per
    free column, ordered by free column index; vectors are packed as rows
    are, column j at bit ncols - 1 - j."""
    return _PACKED.sparse(_pivot_kernel(_PACKED, _eliminate(_PACKED, rows), ncols), ncols, range(ncols))


def independent_rows(field: FieldSpec, rows: Iterable[Sequence[int]]) -> list[int]:
    """Indices of the lexicographically first maximal independent set of
    rows: each row is inserted, in the field's engine, against the ones
    kept so far, and kept when it raises the rank.  For a symmetric matrix
    these are also the pivot columns of its reduced echelon form."""
    engine = field_engine(field)
    rank = engine.rank
    pivots: dict = {}
    # len(pivots) is read before the row goes in, and rank returns it after
    return [i for i, row in enumerate(map(engine.pack, rows)) if len(pivots) < rank((row,), pivots=pivots)]


def sparse_pivots(field: FieldSpec, rows: Iterable[Sequence[tuple[int, int]]], ncols: int) -> dict:
    """The pivot rows of sparse rows, each a sequence of (column, nonzero
    coefficient) pairs the caller has already validated, eliminated once
    in the field's engine straight from the pairs, laid out last column
    first as the kernel's reduced echelon form needs.  Their number is the
    rows' rank; kernel_from_pivots goes on to the kernel from them."""
    engine = field_engine(field)
    return _eliminate(engine, engine.sparse(rows, ncols))


def kernel_from_pivots(field: FieldSpec, pivots: dict, ncols: int) -> list[tuple[int, ...]]:
    """Reduced echelon basis of the right kernel of the rows sparse_pivots
    eliminated into pivots, by back-substituting them; pivots is spent."""
    return _echelon_kernel(field_engine(field), pivots, ncols)


def sparse_kernel_basis(
    field: FieldSpec, rows: Iterable[Sequence[tuple[int, int]]], ncols: int
) -> list[tuple[int, ...]]:
    """Reduced echelon basis of the right kernel of validated sparse rows:
    sparse_pivots, then kernel_from_pivots.  Same basis as
    FFMatrix.kernel_basis."""
    return kernel_from_pivots(field, sparse_pivots(field, rows, ncols), ncols)


def sparse_rank(field: FieldSpec, rows: Iterable[Sequence[tuple[int, int]]]) -> int:
    """Rank of validated sparse rows.  Only the columns the rows use are
    kept, renumbered in order, so the cost does not grow with the width of
    the space."""
    rows = list(rows)
    column = {pos: j for j, pos in enumerate(sorted({pos for row in rows for pos, _ in row}))}
    engine = field_engine(field)
    return engine.rank(engine.sparse(rows, len(column), column))


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
        engine = _reference(self.field)
        return engine.rank(map(engine.pack, self.rows))

    def rref(self) -> tuple["FFMatrix", tuple[int, ...]]:
        engine = _reference(self.field)
        rows, pivots = _rref(engine, map(engine.pack, self.rows), self.ncols)
        return FFMatrix(self.field, [engine.unpack(r, self.ncols) for r in rows], self.ncols), tuple(pivots)

    def kernel_basis(self, packed: bool = False) -> list:
        """Reduced echelon basis of the right kernel, leading columns
        increasing: each vector has a leading 1, where the others have 0.
        packed=True gives GF(2) vectors as ints, bit j holding column j."""
        engine = _reference(self.field)
        reversed_rows = [engine.pack(r[::-1]) for r in self.rows]
        if not packed:
            return _echelon_kernel(engine, _eliminate(engine, reversed_rows), self.ncols)
        if engine is not _PACKED:
            raise PreconditionError("packed vectors only exist over GF(2)")
        # the free-column basis of the reversed rows, packed as they are
        return packed_kernel_basis(reversed_rows, self.ncols)[::-1]

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
        width = self.ncols + len(targets)
        engine = _reference(self.field)
        aug_rows = [engine.pack([*row, *(t[i] for t in targets)]) for i, row in enumerate(self.rows)]
        rref, pivots = _rref(engine, aug_rows, width)
        if any(p >= self.ncols for p in pivots):
            return None
        rref = [engine.unpack(r, width) for r in rref]
        out = []
        for tcol in range(self.ncols, width):
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
