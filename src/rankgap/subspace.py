"""Quotient-coordinate subspaces of symmetric matrices, and the vectors
that live in them.

Both reductions output a linear space of matrices whose entries are tied
together: the entry at (S, T) depends only on the union S ∪ T.  Rather
than store full matrices with those ties as explicit pairwise constraints,
everything here works in quotient coordinates: one value y_R per
achievable union set R, expanded on demand to the matrix H(y) with
H[S][T] = y_{S ∪ T}.  The ties then hold identically and membership in
the subspace is a homogeneous linear condition on y alone.  Both
reductions write those conditions with localizing_rows: one row per
source polynomial f and shift x^W, the terms of f * x^W read as y's.
A row is ranked once per (product of f with the part of W on f's
variables S, part of W outside S) pair, so f is multiplied at most
2^|S| times however many shifts it has, and each product is sorted into
coordinate order once, since the part outside S never changes that order.

SubspaceSpec is a shape (variant, n, d) and sparse constraint rows over
the coordinates.  Its two bases, the coordinates (degree 2d) and the
matrix-side index (degree d), are functions of the shape, built on first
use; sizes come from boolalg.basis_size, so loading, validating and
writing an instance builds neither.  Its kernel comes from the sparse
rows through gflinalg, over every field, without a dense matrix;
dense_rows() is only a reference form.  Every row is kept, since row
indices name violated constraints, but the CNF reduction repeats most of
them: loading and localizing_rows share one tuple among equal rows,
localizing_rows and the canonical reader hand the space the index where
each distinct row first appears, and each distinct row is checked,
evaluated, eliminated and rendered once.
from_text reads a text, str or bytes, laid out as to_text writes it, with
rows that mostly repeat, by parsing each distinct row text once
(_canonical_parts).
It accepts the text only when writing back what it parsed gives the text
byte for byte, so it holds what json.loads would have read; every other
text goes through json.loads and from_json.
expansion_positions lays out H(y) cell by cell, and every rank of an H(y)
is the number of labels PseudoMomentVector.independent_sets returns, read
from only the sets inside the union of y's support.  honest_moment_vector
builds the rank-one point y_R = prod_{i in R} a_i from a Boolean assignment.
"""

from __future__ import annotations

import json
import marshal
import re
from functools import cache, cached_property, reduce
from itertools import accumulate, chain

from .boolalg import MonomialBasis, basis_make, basis_size, format_monomial, indices_of
from .errors import ParseError, PreconditionError
from .gfarith import FieldSpec, format_field, parse_field_descriptor
from .gflinalg import FFMatrix, _dense_rows, independent_rows, sparse_kernel_basis
from .records import record, uncompared

__all__ = [
    "PseudoMomentVector",
    "SubspaceSpec",
    "expansion_positions",
    "honest_moment_vector",
    "localizing_rows",
]


def expansion_positions(coords: MonomialBasis, masks) -> list[list[int]]:
    """The layout of H(y) on the index sets masks: positions[i][j] is the
    coordinate of masks[i] ∪ masks[j], whose value is entry (i, j)."""
    rank = coords.rank
    return [[rank(s | t) for t in masks] for s in masks]


def _json_int(value, what: str) -> int:
    """value itself if it is a JSON integer; floats, strings and booleans
    are refused rather than coerced."""
    if type(value) is not int:
        raise ParseError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _split_union(mask: int) -> tuple[int, int]:
    """Some (S, T) with S ∪ T = mask, both halves of size <= ceil(|mask|/2);
    both are nonempty when mask is, so the split is legal in either
    variant."""
    idx = indices_of(mask)
    if not idx:
        return 0, 0
    if len(idx) == 1:
        return mask, mask
    half = (len(idx) + 1) // 2
    s = 0
    for i in idx[:half]:
        s |= 1 << i
    # the complement is nonempty since half < len(idx), so U stays legal
    return s, mask ^ s


def _check_rows(field: FieldSpec, indexed_rows, ncoords: int) -> None:
    q = field.q
    for k, row in indexed_rows:
        prev = -1
        for pos, coeff in row:
            if type(pos) is not int or type(coeff) is not int:
                _json_int(pos, f"row {k} position")
                _json_int(coeff, f"row {k} coefficient")
            if not prev < pos < ncoords:
                raise PreconditionError(
                    f"row {k}: positions must be strictly increasing and in range"
                )
            # an int is a nonzero element when 0 < coeff < q; validate words
            # the refusal of any other
            if not 0 < coeff < q and field.validate(coeff) == 0:
                raise PreconditionError(f"row {k}: zero coefficient stored")
            prev = pos


# to_text's layout of the "rows" array; a JSON string cannot hold a raw
# newline, so none of these can fall inside one
_ROWS_OPEN = '\n  "rows": [\n    '
_ROWS_CLOSE = '\n  ],\n  "variant": '
_ROW_SEP = ",\n    ["  # between rows: inside one, ",\n" is followed by 6 or 8 spaces


class _Layout:
    """to_text's layout as the reader meets it in a text of one type: str,
    or bytes, in which the layout is its ASCII.  cast turns a str piece of
    the layout into that type; split(text) gives text.split(sep)'s pieces,
    faster (see _canonical_parts)."""

    def __init__(self, cast):
        self.cast = cast
        self.open, self.close, self.sep = map(cast, (_ROWS_OPEN, _ROWS_CLOSE, _ROW_SEP))
        self.split = re.compile(re.escape(self.sep)).split


_LAYOUTS = {str: _Layout(str), bytes: _Layout(str.encode)}
# the fewest rows _canonical_parts reads itself
_CANONICAL_ROWS = 64
# distinct rows parsed per json.loads, and rendered per % in to_text: one
# text of all 920 distinct rows of an n = 7 CNF instance raised the
# benchmark's peak RSS from 31.4 to 34-35 MB, and rendering all 874 of
# another at once raised that of repeated reduces by 2 MB
_PARSE_ROWS = 256


@cache
def _row_layout(size: int) -> str:
    """A constraint row of size pairs as json.dumps(indent=2) writes it
    inside "rows", as a %-template over its positions and coefficients in
    order: %d writes an int as json.dumps does, and 1.0 or True not."""
    if not size:
        return "[]"
    pairs = ",\n".join(["      [\n        %d,\n        %d\n      ]"] * size)
    return f"[\n{pairs}\n    ]"


def _read_rows(texts, layout: _Layout) -> list:
    """Row texts of layout's type, each without its leading "[", parsed
    into tuples of pairs; ValueError unless _row_layout writes the rows
    back byte for byte, which its %d never does for 1.0, true or a
    string.  A bytes template % ints renders each %d as str's does."""
    cast = layout.cast
    joined = cast("[") + layout.sep.join(texts)
    parsed = json.loads(cast("[") + joined + cast("]"))
    sizes = list(map(len, parsed))
    values = tuple(chain.from_iterable(chain.from_iterable(parsed)))
    # rows start with "[" and hold no _ROW_SEP, so equal joins mean equal rows
    if cast(",\n    ".join(map(_row_layout, sizes))) % values != joined:
        raise ValueError("rows not laid out as to_text writes them")
    pairs = iter(values)
    pairs = tuple(zip(pairs, pairs))
    bounds = list(accumulate(sizes, initial=0))
    return list(map(pairs.__getitem__, map(slice, bounds, bounds[1:])))


def _canonical_parts(text):
    """(head, rows, distinct_rows) of a document laid out exactly as to_text
    writes one, else None.  Equal row texts share one tuple, and each
    distinct one is parsed once; for such texts, equal text means equal
    marshal bytes, as in _shared_rows.  A text is accepted only when
    writing back what was parsed gives it byte for byte: the head through
    json.dumps, the distinct rows through _row_layout.  The text is then
    json.dumps of the parsed document, so json.loads would have returned
    that same document.

    The text is str or bytes, as the CLI reads an ASCII instance file, and
    the layout is looked for in its type (_LAYOUTS).  It is split once on
    _ROW_SEP by a compiled literal pattern, which gives the pieces
    text.split does: on the bytes of the 8,299 rows of an n = 7 CNF
    instance in 0.6-0.7 ms against 1.1-1.3 ms (str: 0.7 against 1.2 ms;
    CPython 3.11), the largest single step of loading one.  The head and
    tail are trimmed off the first and last pieces, so the rows are never
    copied out first.  No separator can straddle either boundary: the six
    characters before the first row end in "[", and the tail starts with
    a newline and "  ]".  A text whose head or tail holds a separator, as a top-level
    list of lists does, is left to json.loads.  One dict over the pieces
    gives the distinct texts in first-appearance order, and a forward
    walk where each first appears; the same dict then maps each to its
    parsed row.

    Texts of fewer than _CANONICAL_ROWS rows, or where fewer than half
    the rows repeat, are left to json.loads.  Timed against it on random
    rows of 2 and 10 pairs, this route breaks even at 50-65% distinct rows
    on texts of 512 rows or more; below 64 rows its fixed cost, 30-60 us
    for the separate head, loses at any share.  Finding that share, a
    split and a dict over the rows, costs a text sent to json.loads
    10-13% of its load (512 or 4,096 distinct rows of 2 or 10 pairs;
    12-20% with str.split), so the first _CANONICAL_ROWS separators are
    looked for first."""
    layout = _LAYOUTS[type(text)]
    cast, sep = layout.cast, layout.sep
    start, end = text.find(layout.open), text.rfind(layout.close)
    body = start + len(layout.open)
    if start < 0 or end < body or text[body : body + 1] != cast("[") or text[-1:] != cast("\n"):
        return None
    at = body
    for _ in range(_CANONICAL_ROWS - 1):  # not count(): it reads a long text to its end
        at = text.find(sep, at, end)
        if at < 0:
            return None
        at += len(sep)
    pieces = layout.split(text)
    tail = len(text) - end
    if len(pieces[0]) < body or len(pieces[-1]) < tail:
        return None  # a separator in the head or the tail
    pieces[0] = pieces[0][body + 1 :]  # each row text but its "["
    pieces[-1] = pieces[-1][:-tail]
    first = dict.fromkeys(pieces)
    if 2 * len(first) > len(pieces):
        return None
    texts, starts, k = tuple(first), [], -1
    for row_text in texts:  # first appearances increase in this order
        k = pieces.index(row_text, k + 1)
        starts.append(k)
    head_text = text[:start] + text[end + 5 : -1]  # less "\n  ]," and the last newline
    try:
        head = json.loads(head_text)
        if (
            type(head) is not dict
            or "rows" in head
            or cast(json.dumps(head, indent=2, sort_keys=True)) != head_text
        ):
            return None
        distinct = []
        for at in range(0, len(texts), _PARSE_ROWS):
            distinct += _read_rows(texts[at : at + _PARSE_ROWS], layout)
    except (ValueError, TypeError, OverflowError, RecursionError):
        return None
    first.update(zip(texts, distinct))
    rows = tuple(map(first.__getitem__, pieces))
    return head, rows, tuple(zip(starts, distinct))


def localizing_rows(coords: MonomialBasis, sources) -> tuple[tuple, tuple]:
    """(rows, distinct).  rows holds one row per (polynomial f, shift masks)
    source and shift w: the terms of f * x^w ranked into coords, sorted by
    position.  Terms that cancel are dropped, so a row may be empty.  Equal
    rows are one shared tuple, and distinct lists (index of first
    appearance, row) for each, in order, as SubspaceSpec.distinct_rows
    does.

    Each distinct row is built once.  With S the union of f's monomials,
    f * x^w = (f * x^inner) * x^outer for inner = w & S and outer = w & ~S,
    and the outer part only ORs onto each term: no two terms meet, none
    cancels, and the terms keep their order.  So f is multiplied once per
    distinct inner, at most 2^|S| times.  A product is kept as x^c times
    the terms left when c, the monomial all its terms share, is taken out
    of each; c joins the outer part.  Equal term tuples share one _Product,
    so equal polynomials from other sources and shifts mostly meet under
    one (product, outer) pair, and a row is ranked only the first time its
    pair appears.

    Each product is sorted once.  basis_make orders coordinates by size,
    then lexicographically: of two equal-size sets, the one holding the
    least element of their symmetric difference comes first.  An outer o
    is disjoint from every term, so adding it to each moves all sizes by
    |o| and leaves each symmetric difference as it was: the terms m | o
    rank in the same order for every o.  A product's first row ranks its
    terms in the product's own order, so an out-of-range term raises the
    error the plain loop would, and fixes the order the product's later
    rows are ranked in."""
    shared, products, out, distinct = {}, {}, [], []
    for f, shifts in sources:
        own = reduce(int.__or__, f.coeffs, 0)
        by_inner: dict[int, tuple[_Product, int]] = {}
        for w in shifts:
            inner = w & own
            found = by_inner.get(inner)
            if found is None:
                found = by_inner[inner] = _Product.factored(f.shift(inner).coeffs, products)
            product, common = found
            outer = (w ^ inner) | common
            row = product.rows.get(outer)
            if row is None:
                row = product.ranked(coords, outer)
                seen = shared.get(row)
                if seen is None:
                    shared[row] = row
                    distinct.append((len(out), row))
                else:
                    row = seen
                product.rows[outer] = row
            out.append(row)
    return tuple(out), tuple(distinct)


class _Product:
    """A product's terms with their common monomial taken out: terms in the
    product's own order, and masks and coeffs in coordinate order, read off
    its first row once a second is needed; rows maps an outer shift to its
    row, in the order they were ranked."""

    __slots__ = ("terms", "masks", "coeffs", "rows")

    def __init__(self, terms: tuple):
        self.terms, self.masks, self.coeffs, self.rows = terms, None, None, {}

    @classmethod
    def factored(cls, coeffs: dict, products: dict) -> tuple["_Product", int]:
        """(product, c) with coeffs = x^c times product, the one in products
        with those terms."""
        common = reduce(int.__and__, coeffs, -1) if coeffs else 0
        terms = tuple([(m ^ common, c) for m, c in coeffs.items()] if common else coeffs.items())
        product = products.get(terms)
        if product is None:
            product = products[terms] = cls(terms)
        return product, common

    def ranked(self, coords: MonomialBasis, outer: int) -> tuple:
        """The row of this product times x^outer, sorted by position."""
        if self.masks is None and self.rows:  # a second row: keep the first one's order
            first_outer, first = next(iter(self.rows.items()))
            # each term is its coordinate's set less the outer part, which it misses
            self.masks = [coords.masks[r] ^ first_outer for r, _ in first]
            self.coeffs = [c for _, c in first]
        index = coords._rank
        try:
            if self.masks is not None:
                return tuple(zip([index[m | outer] for m in self.masks], self.coeffs))
            return tuple(sorted([(index[m | outer], c) for m, c in self.terms]))
        except KeyError:  # rank() names the term the product's own order meets first
            return tuple(sorted([(coords.rank(m | outer), c) for m, c in self.terms]))


def _shared_rows(raw):
    """Rows as tuples of pairs, shared when their marshal bytes match: == would
    merge a refused 1.0 or True into a valid 1."""
    shared: dict = {}
    for row in raw:
        key = marshal.dumps(row, 2)
        if key not in shared:
            # from a list, not a generator: 1-3 us less per few-KB load
            shared[key] = tuple([(pos, coeff) for pos, coeff in row])
        yield shared[key]


def _row_value(field: FieldSpec, row, values) -> int:
    acc = 0
    for pos, coeff in row:
        acc = field.add(acc, field.mul(coeff, values[pos]))
    return acc


@record
class PseudoMomentVector:
    """Coordinate values y_R over a union-set basis, typically degree 2d."""

    field: FieldSpec
    basis: MonomialBasis
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.basis):
            raise PreconditionError(
                f"{len(self.values)} values for a basis of size {len(self.basis)}"
            )
        self.field.validate_all(self.values)

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def variant(self) -> str:
        return self.basis.variant

    @property
    def matrix_degree(self) -> int:
        """Largest level e with H_e(y) fully determined by these coordinates."""
        return self.basis.degree // 2

    def is_zero(self) -> bool:
        return not any(self.values)

    def value(self, mask: int) -> int:
        return self.values[self.basis.rank(mask)]

    def support(self) -> tuple[int, ...]:
        """Masks with nonzero value, in the basis (graded-lex) order."""
        return tuple(
            m for m, v in zip(self.basis.masks, self.values) if v
        )

    def _family(self, level: int) -> MonomialBasis:
        """The level-truncated family that indexes H_level(y)."""
        if level < 0 or 2 * level > self.basis.degree:
            raise PreconditionError(
                f"level {level} needs coordinates up to degree {2 * level}, "
                f"have {self.basis.degree}"
            )
        return self.basis.prefix(level)

    def _rows_on(self, masks):
        return ([self.values[c] for c in prow] for prow in expansion_positions(self.basis, masks))

    def expand(self, level: int) -> FFMatrix:
        """H_level(y): the symmetric matrix indexed by the level-truncated
        family, entry (S, T) = y_{S ∪ T}."""
        family = self._family(level)
        return FFMatrix(self.field, self._rows_on(family.masks), len(family))

    def support_sets(self, level: int) -> tuple[int, ...]:
        """The sets of the level family inside the union of y's support, in
        order.  Entry (S, T) of H_level(y) is zero unless S ∪ T lies inside
        that union, so every other row and column of it is zero."""
        inside = reduce(int.__or__, self.support(), 0)
        return tuple(s for s in self._family(level).masks if not s & ~inside)

    def independent_sets(self, level: int) -> tuple[int, ...]:
        """The sets labelling the lexicographically first maximal independent
        rows of H_level(y), which is symmetric, so its columns too; their
        number is rank H_level(y).  Only the support sets are expanded."""
        masks = self.support_sets(level)
        return tuple(masks[i] for i in independent_rows(self.field, self._rows_on(masks)))

    def truncated_column(self, mask: int, level: int) -> tuple[int, ...]:
        """c_level(A) = (y_{R ∪ A}) over all R in the level-truncated family."""
        if mask >> (self.n + 1) or (self.variant == "V" and mask & 1):
            raise PreconditionError(
                f"monomial {format_monomial(mask)} is outside the variable range"
            )
        if bin(mask).count("1") + level > self.basis.degree:
            raise PreconditionError(
                f"column for a size-{bin(mask).count('1')} set at level {level} "
                f"needs coordinates beyond degree {self.basis.degree}"
            )
        rank = self.basis.rank
        return tuple(
            self.values[rank(r | mask)] for r in self.basis.prefix(level).masks
        )


@record
class SubspaceSpec:
    """A subspace of symmetric matrices in quotient coordinates.

    variant, n and d fix the shape: the coordinates are the union-set
    family of degree 2d, the matrix side the family of degree d.  rows are
    the sparse homogeneous constraints over the coordinates: each row is a
    tuple of (coordinate position, coefficient) pairs with strictly
    increasing positions and nonzero coefficients.  All-cancelled rows are
    kept as empty tuples so row counts stay meaningful.  provenance is
    free-form JSON-compatible metadata carried through instance files; it
    does not affect equality.
    """

    field: FieldSpec
    variant: str
    n: int
    d: int
    rows: tuple[tuple[tuple[int, int], ...], ...]
    provenance: dict = uncompared(dict)

    def __post_init__(self):
        if self.d < 1:
            raise PreconditionError(f"matrix degree must be at least 1, got {self.d}")
        _check_rows(self.field, self.distinct_rows, self.coord_count)

    @cached_property
    def distinct_rows(self) -> tuple:
        """(index of first appearance, row) for each distinct row object, in
        order.  Identity, not ==, tells rows apart, since 1.0 and True equal 1.
        from_text fills this in as it reads a canonical text, and both
        builders as localizing_rows shares the rows."""
        first: dict[int, tuple] = {}
        for k, row in enumerate(self.rows):
            if id(row) not in first:
                first[id(row)] = (k, row)
        return tuple(first.values())

    # -- shape --

    @property
    def coords(self) -> MonomialBasis:
        return basis_make(self.n, 2 * self.d, self.variant)

    @property
    def index(self) -> MonomialBasis:
        return basis_make(self.n, self.d, self.variant)

    @property
    def coord_count(self) -> int:
        return basis_size(self.n, 2 * self.d, self.variant)

    @property
    def matrix_side(self) -> int:
        return basis_size(self.n, self.d, self.variant)

    # -- membership --

    def row_value(self, k: int, values: tuple[int, ...]) -> int:
        return _row_value(self.field, self.rows[k], values)

    def membership_violation(self, values) -> int | None:
        """Index of the first constraint row a coordinate vector violates,
        or None for members."""
        values = self._validated(values)
        for k, _ in self.distinct_rows:
            if self.row_value(k, values):
                return k
        return None

    def contains(self, values) -> bool:
        return self.membership_violation(values) is None

    def _validated(self, values) -> tuple[int, ...]:
        return self._sized(self.field.validate_all(values))

    def _sized(self, vals: tuple) -> tuple:
        if len(vals) != self.coord_count:
            raise PreconditionError(
                f"{len(vals)} coordinates for a basis of size {self.coord_count}"
            )
        return vals

    # -- vectors and matrices --

    def vector(self, values) -> PseudoMomentVector:
        """The vector of these coordinates; its constructor validates each
        one, after the length is checked here."""
        return PseudoMomentVector(self.field, self.coords, self._sized(tuple(values)))

    def expand(self, values, level: int | None = None) -> FFMatrix:
        """H_level(y) on the index family (level defaults to d)."""
        return self.vector(values).expand(self.d if level is None else level)

    def extract_vector(self, matrix: FFMatrix) -> tuple[int, ...]:
        """Read coordinates back off a matrix indexed by the d-level family,
        taking one witness entry per union set."""
        side = self.matrix_side
        if matrix.shape != (side, side):
            raise PreconditionError(
                f"matrix shape {matrix.shape} does not match the index family "
                f"(side {side})"
            )
        out = []
        rank = self.index.rank
        for mask in self.coords.masks:
            s, t = _split_union(mask)
            out.append(matrix.entry(rank(s), rank(t)))
        return tuple(out)

    def matrix_violation(self, matrix: FFMatrix) -> str | None:
        """None if the matrix lies in the subspace; otherwise a short
        description of the first broken condition (an equal-union tie or
        a constraint row).

        Accepts matrices over this spec's field or, when the constraints
        are GF(2)-valued, over any extension of it: the same 0/1 rows
        define the subspace there verbatim.
        """
        mf = matrix.field
        if mf != self.field and not (self.field.q == 2 and mf.p == 2):
            raise PreconditionError(
                f"matrix over {format_field(mf)} cannot be checked against "
                f"constraints over {format_field(self.field)}"
            )
        values = self.extract_vector(matrix)
        positions = expansion_positions(self.coords, self.index.masks)
        for i, (row, prow) in enumerate(zip(matrix.rows, positions)):
            for j, (entry, c) in enumerate(zip(row, prow)):
                if entry != values[c]:
                    return f"equal-union tie at ({i},{j})"
        for k, row in self.distinct_rows:
            if _row_value(mf, row, values):
                return f"row {k}"
        return None

    # -- the space itself --

    def dense_rows(self) -> FFMatrix:
        """The constraint rows as a dense validated matrix: a reference
        form.  The kernel and the membership oracle never build it."""
        ncols = self.coord_count
        return FFMatrix(self.field, _dense_rows(self.rows, ncols), ncols)

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """The subspace's reduced echelon basis, leading coordinates
        increasing, from one elimination of the validated rows, each
        distinct row once, in first-seen order."""
        return sparse_kernel_basis(self.field, (r for _, r in self.distinct_rows), self.coord_count)

    def dimension(self) -> int:
        return len(self.kernel_basis())

    # -- instance files --

    def _head(self) -> dict:
        """The instance document without its rows."""
        return {
            "format": "subspace",
            "field": format_field(self.field),
            "variant": self.variant,
            "n": self.n,
            "d": self.d,
            "coord_count": self.coord_count,
            "matrix_side": self.matrix_side,
            "provenance": self.provenance,
        }

    def to_json(self) -> dict:
        doc = self._head()
        doc["rows"] = [[[pos, coeff] for pos, coeff in row] for row in self.rows]
        return doc

    def to_text(self) -> str:
        """json.dumps(self.to_json(), indent=2, sort_keys=True) and a
        newline, byte for byte.  The encoder writes the head; the rows are
        laid out here, each distinct row rendered once through _row_layout,
        the template from_text checks against, and go in front of
        "variant", the one key that sorts after "rows".  The head and
        '"rows": [' go in front of the first row's text, and "]" and the
        tail after the last one's, so one join builds the document."""
        head = json.dumps(self._head(), indent=2, sort_keys=True)
        cut = head.rindex('\n  "variant": ')
        if not self.rows:
            return f'{head[:cut]}\n  "rows": [],{head[cut:]}\n'
        distinct, texts = [row for _, row in self.distinct_rows], []
        for at in range(0, len(distinct), _PARSE_ROWS):
            # one % per batch, as _read_rows checks them; no row text holds "|"
            batch = distinct[at : at + _PARSE_ROWS]
            layouts = "|".join(map(_row_layout, map(len, batch)))
            texts += (layouts % tuple(chain.from_iterable(chain.from_iterable(batch)))).split("|")
        rendered = dict(zip(map(id, distinct), texts))
        pieces = list(map(rendered.__getitem__, map(id, self.rows)))
        pieces[0] = head[:cut] + _ROWS_OPEN + pieces[0]
        pieces[-1] = f"{pieces[-1]}\n  ],{head[cut:]}\n"
        return ",\n    ".join(pieces)

    @classmethod
    def from_json(cls, doc: dict) -> "SubspaceSpec":
        """The space a subspace document describes.  Each value is checked
        once, each distinct row once, and no basis is built: the declared
        coord_count and matrix_side are compared with basis_size, so what
        loading costs does not grow with the declared size."""
        return cls._from_doc(doc, lambda: tuple(_shared_rows(doc["rows"])))

    @classmethod
    def _from_doc(cls, doc: dict, read_rows, distinct_rows=None) -> "SubspaceSpec":
        """from_json, with the rows from read_rows(), called where from_json
        reads them, and distinct_rows, when given, as that property's value."""
        try:
            if doc.get("format") != "subspace":
                raise ParseError(f"not a subspace document: format={doc.get('format')!r}")
            field = parse_field_descriptor(doc["field"])
            variant = doc["variant"]
            if variant not in ("U", "V"):
                raise ParseError(f'variant must be "U" or "V", got {variant!r}')
            n, d = _json_int(doc["n"], "n"), _json_int(doc["d"], "d")
            rows = read_rows()
            declared = {
                key: _json_int(doc[key], key)
                for key in ("coord_count", "matrix_side")
                if key in doc
            }
            provenance = dict(doc.get("provenance", {}))
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed subspace document: {exc}") from exc
        degrees = {"coord_count": 2 * d, "matrix_side": d}
        for key, value in declared.items():
            size = basis_size(n, degrees[key], variant)
            if value != size:
                raise ParseError(
                    f"{key} says {value}, the ({variant}, n={n}, d={d}) "
                    f"families give {size}"
                )
        return cls._seeded(distinct_rows, field, variant, n, d, rows, provenance)

    @classmethod
    def _seeded(cls, distinct_rows, *fields) -> "SubspaceSpec":
        """cls(*fields), with distinct_rows, when given, as that property's
        value: the first appearances a loader or builder saw as it shared
        the rows."""
        space = cls.__new__(cls)
        if distinct_rows is not None:  # seen before __init__ checks the rows
            space.__dict__["distinct_rows"] = distinct_rows
        space.__init__(*fields)
        return space

    @classmethod
    def from_text(cls, text: str | bytes) -> "SubspaceSpec":
        """The space an instance text, str or UTF-8 bytes, describes.  A text
        laid out as to_text writes one, whose rows mostly repeat, is read
        with one parse per distinct row (_canonical_parts), bytes as they
        are; any other goes through json.loads and from_json, bytes decoded
        first, since json.loads would take a NUL-led text for UTF-16.  Both
        give the same space, rows shared the same way, and the same errors,
        and bytes give what their decoded text gives."""
        parts = _canonical_parts(text)
        if parts is not None:
            head, rows, distinct = parts
            return cls._from_doc(head, lambda: rows, distinct)
        try:
            doc = json.loads(text.decode() if type(text) is bytes else text)
        except ValueError as exc:  # bad UTF-8 or syntax, or an integer too long to read
            raise ParseError(f"bad JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("subspace document must be a JSON object")
        return cls.from_json(doc)


def honest_moment_vector(
    field: FieldSpec, a, n: int, degree: int, variant: str = "V"
) -> PseudoMomentVector:
    """The rank-one point generated by a Boolean assignment: y_R is the
    product of the a_i over i in R, which over {0,1} is 1 exactly when a
    is 1 throughout R.

    For the V variant a lists a_1..a_n; for U it starts with the
    homogenizing slot, a_0 first, length n+1.
    """
    want = n + 1 if variant == "U" else n
    a = tuple(a)
    if len(a) != want:
        raise PreconditionError(
            f"variant {variant} with n={n} needs {want} assignment entries, got {len(a)}"
        )
    ones = 0
    for i, v in enumerate(a):
        if field.validate(v) not in (0, 1):
            raise PreconditionError(f"assignment entry {v!r} is not Boolean")
        if v == 1:
            ones |= 1 << (i if variant == "U" else i + 1)
    basis = basis_make(n, degree, variant)
    values = tuple(1 if mask & ~ones == 0 else 0 for mask in basis.masks)
    return PseudoMomentVector(field, basis, values)
