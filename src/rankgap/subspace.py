"""Quotient-coordinate subspaces of symmetric matrices, and the vectors
that live in them.

Both reductions output a linear space of matrices whose entries are tied
together: the entry at (S, T) depends only on the union S ∪ T.  Rather
than store full matrices with those ties as explicit pairwise constraints,
everything here works in quotient coordinates: one value y_R per
achievable union set R, expanded on demand to the matrix H(y) with
H[S][T] = y_{S ∪ T}.  The ties then hold identically and membership in
the subspace is a homogeneous linear condition on y alone.

SubspaceSpec carries the coordinate basis (degree 2d), the matrix-side
index basis (degree d), and sparse constraint rows over the coordinates.
Its kernel comes from those sparse rows through gflinalg, over every
field, without a dense matrix; dense_rows() is only a reference form.
PseudoMomentVector is one coordinate vector with expansion and
truncated-column access; honest_moment_vector builds the rank-one point
y_R = prod_{i in R} a_i from a Boolean assignment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .boolalg import MonomialBasis, basis_make, basis_size, format_monomial, indices_of
from .errors import BudgetExceededError, ParseError, PreconditionError
from .gfarith import FieldSpec, format_field, parse_field_descriptor
from .gflinalg import FFMatrix, sparse_kernel_basis, sparse_rank

__all__ = [
    "PseudoMomentVector",
    "SubspaceSpec",
    "check_kernel_budget",
    "honest_moment_vector",
]


def _expand_on(
    field: FieldSpec,
    coords: MonomialBasis,
    values: tuple[int, ...],
    index: MonomialBasis,
) -> FFMatrix:
    rank = coords.rank
    rows = [
        [values[rank(s | t)] for t in index.masks] for s in index.masks
    ]
    return FFMatrix(field, rows, len(index))


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


def _check_rows(field: FieldSpec, rows, ncoords: int) -> None:
    for k, row in enumerate(rows):
        prev = -1
        for pos, coeff in row:
            if not prev < pos < ncoords:
                raise PreconditionError(
                    f"row {k}: positions must be strictly increasing and in range"
                )
            if field.validate(coeff) == 0:
                raise PreconditionError(f"row {k}: zero coefficient stored")
            prev = pos


def check_kernel_budget(q: int, m: int, budget: int, exact=None) -> None:
    """Refuse (BudgetExceededError) a kernel of dimension m over GF(q)
    whose q^m members are more than the budget allows.  m is compared with
    the budget's q-ary digits, so q^m is never formed past the budget.
    When m is only a lower bound, exact() gives the true dimension, which
    the refusal names; it is called only to refuse.  q^m is written out
    while str() can print it (CPython stops at 4,300 digits; 2^14000 has
    4,215)."""
    digits, power = 0, q
    while power <= budget:
        digits, power = digits + 1, power * q
    if m <= digits:
        return
    if exact is not None:
        m = exact()
    members = q**m if m * (q - 1).bit_length() <= 14000 else f"{q}^{m}"
    raise BudgetExceededError(
        f"kernel dimension {m} means {members} members, budget allows {budget}"
    )


@dataclass(frozen=True)
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
        for v in self.values:
            self.field.validate(v)

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

    def expand(self, level: int) -> FFMatrix:
        """H_level(y): the symmetric matrix indexed by the level-truncated
        family, entry (S, T) = y_{S ∪ T}."""
        if level < 0 or 2 * level > self.basis.degree:
            raise PreconditionError(
                f"level {level} needs coordinates up to degree {2 * level}, "
                f"have {self.basis.degree}"
            )
        return _expand_on(
            self.field, self.basis, self.values, self.basis.prefix(level)
        )

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


@dataclass(frozen=True)
class SubspaceSpec:
    """A subspace of symmetric matrices in quotient coordinates.

    coords is the union-set family (degree 2d), index the matrix-side
    family (degree d), rows the sparse homogeneous constraints over the
    coordinates: each row is a tuple of (coordinate position, coefficient)
    pairs with strictly increasing positions and nonzero coefficients.
    All-cancelled rows are kept as empty tuples so row counts stay
    meaningful.  provenance is free-form JSON-compatible metadata carried
    through instance files; it does not affect equality.
    """

    field: FieldSpec
    coords: MonomialBasis
    index: MonomialBasis
    rows: tuple[tuple[tuple[int, int], ...], ...]
    provenance: dict = dc_field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.coords.variant != self.index.variant or self.coords.n != self.index.n:
            raise PreconditionError("coordinate and index families disagree")
        if self.index.degree < 1 or self.coords.degree != 2 * self.index.degree:
            raise PreconditionError(
                f"coordinate degree {self.coords.degree} must be twice the "
                f"matrix degree {self.index.degree}"
            )
        _check_rows(self.field, self.rows, len(self.coords))

    # -- shape --

    @property
    def n(self) -> int:
        return self.coords.n

    @property
    def d(self) -> int:
        return self.index.degree

    @property
    def variant(self) -> str:
        return self.coords.variant

    @property
    def coord_count(self) -> int:
        return len(self.coords)

    @property
    def matrix_side(self) -> int:
        return len(self.index)

    # -- membership --

    def row_value(self, k: int, values: tuple[int, ...]) -> int:
        f = self.field
        acc = 0
        for pos, coeff in self.rows[k]:
            acc = f.add(acc, f.mul(coeff, values[pos]))
        return acc

    def membership_violation(self, values) -> int | None:
        """Index of the first constraint row a coordinate vector violates,
        or None for members."""
        values = self._validated(values)
        for k in range(len(self.rows)):
            if self.row_value(k, values):
                return k
        return None

    def contains(self, values) -> bool:
        return self.membership_violation(values) is None

    def _validated(self, values) -> tuple[int, ...]:
        vals = tuple(self.field.validate(v) for v in values)
        if len(vals) != len(self.coords):
            raise PreconditionError(
                f"{len(vals)} coordinates for a basis of size {len(self.coords)}"
            )
        return vals

    # -- vectors and matrices --

    def vector(self, values) -> PseudoMomentVector:
        return PseudoMomentVector(self.field, self.coords, self._validated(values))

    def expand(self, values, level: int | None = None) -> FFMatrix:
        """H_level(y) on the index family (level defaults to d)."""
        vals = self._validated(values)
        idx = self.index if level is None else self.index.prefix(level)
        return _expand_on(self.field, self.coords, vals, idx)

    def extract_vector(self, matrix: FFMatrix) -> tuple[int, ...]:
        """Read coordinates back off a matrix indexed by the d-level family,
        taking one witness entry per union set."""
        if matrix.shape != (len(self.index), len(self.index)):
            raise PreconditionError(
                f"matrix shape {matrix.shape} does not match the index family "
                f"(side {len(self.index)})"
            )
        out = []
        for mask in self.coords.masks:
            s, t = _split_union(mask)
            out.append(matrix.entry(self.index.rank(s), self.index.rank(t)))
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
        rank = self.coords.rank
        for i, s in enumerate(self.index.masks):
            for j, t in enumerate(self.index.masks):
                if matrix.entry(i, j) != values[rank(s | t)]:
                    return f"equal-union tie at ({i},{j})"
        for k, row in enumerate(self.rows):
            acc = 0
            for pos, coeff in row:
                acc = mf.add(acc, mf.mul(mf.validate(coeff), values[pos]))
            if acc:
                return f"row {k}"
        return None

    # -- the space itself --

    def dense_rows(self) -> FFMatrix:
        """The constraint rows as a dense validated matrix: a reference
        form.  The kernel and the membership oracle never build it."""
        ncols = len(self.coords)
        rows = []
        for row in self.rows:
            dense = [0] * ncols
            for pos, coeff in row:
                dense[pos] = coeff
            rows.append(dense)
        return FFMatrix(self.field, rows, ncols)

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Coordinate vectors spanning the subspace, one per free column of
        the reduced echelon form of the rows, which __post_init__ has
        already validated."""
        return sparse_kernel_basis(self.field, self.rows, len(self.coords))

    def dimension(self) -> int:
        return len(self.kernel_basis())

    # -- instance files --

    def to_json(self) -> dict:
        return {
            "format": "subspace",
            "field": format_field(self.field),
            "variant": self.variant,
            "n": self.n,
            "d": self.d,
            "coord_count": len(self.coords),
            "matrix_side": len(self.index),
            "rows": [[[pos, coeff] for pos, coeff in row] for row in self.rows],
            "provenance": self.provenance,
        }

    def to_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, doc: dict, kernel_budget: int | None = None) -> "SubspaceSpec":
        """The space a subspace document describes.  With a kernel budget,
        a document whose coordinates outnumber its rows by more than the
        budget's q-ary digits is refused (BudgetExceededError) before any
        basis is built: its kernel alone has more members than the budget
        allows."""
        try:
            if doc.get("format") != "subspace":
                raise ParseError(f"not a subspace document: format={doc.get('format')!r}")
            field = parse_field_descriptor(doc["field"])
            variant = doc["variant"]
            if variant not in ("U", "V"):
                raise ParseError(f'variant must be "U" or "V", got {variant!r}')
            n, d = _json_int(doc["n"], "n"), _json_int(doc["d"], "d")
            rows = tuple(
                tuple((pos, coeff) for pos, coeff in row) for row in doc["rows"]
            )
            for k, row in enumerate(rows):
                for pos, coeff in row:
                    if type(pos) is not int or type(coeff) is not int:
                        _json_int(pos, f"row {k} position")
                        _json_int(coeff, f"row {k} coefficient")
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
        # a degree below one is refused by __post_init__, as malformed
        if kernel_budget is not None and d >= 1:
            ncoords = basis_size(n, 2 * d, variant)

            def dimension() -> int:
                _check_rows(field, rows, ncoords)
                return ncoords - sparse_rank(field, rows)

            # each row takes at most one dimension off the kernel
            check_kernel_budget(field.q, ncoords - len(rows), kernel_budget, dimension)
        return cls(
            field=field,
            coords=basis_make(n, 2 * d, variant),
            index=basis_make(n, d, variant),
            rows=rows,
            provenance=provenance,
        )

    @classmethod
    def from_text(cls, text: str, kernel_budget: int | None = None) -> "SubspaceSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("subspace document must be a JSON object")
        return cls.from_json(doc, kernel_budget)


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
