"""Squarefree polynomial algebra over Boolean variables.

Monomials are subsets of a variable universe, held as bitmasks (bit i set
means x_i divides the monomial), and multiply by union: x_i^2 = x_i.  Two
universe variants exist side by side.  Variant "U" runs over symbols 0..n
with subset sizes 1..d; slot 0 is the homogenizing variable and the empty
monomial is excluded.  Variant "V" runs over symbols 1..n with sizes 0..d
and keeps the empty monomial (the constant).  In both, bases are ordered
graded-lex: by size, then lexicographically on the sorted element tuple, so
a lower-degree basis is always a prefix of a higher-degree one.

n is capped so every mask fits comfortably in a machine word even though
Python ints would not care; the cap keeps the packed encodings and hex text
forms portable across implementations.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import ParseError, PreconditionError
from .gfarith import FieldSpec

__all__ = [
    "MAX_VARS",
    "MonomialBasis",
    "SquarefreePoly",
    "basis_make",
    "basis_size",
    "mask_of",
    "indices_of",
    "format_monomial",
    "parse_monomial",
    "format_poly",
    "format_polys",
    "parse_poly",
]

MAX_VARS = 62


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _graded_key(mask: int) -> tuple[int, tuple[int, ...]]:
    return (bin(mask).count("1"), indices_of(mask))


class MonomialBasis:
    """An ordered monomial index family for one (variant, n, degree)."""

    __slots__ = ("variant", "n", "degree", "masks", "_rank")

    def __init__(self, variant: str, n: int, degree: int, masks: tuple[int, ...]):
        self.variant = variant
        self.n = n
        self.degree = degree
        self.masks = masks
        self._rank = {m: i for i, m in enumerate(masks)}

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[int]:
        return iter(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask in self._rank

    def rank(self, mask: int) -> int:
        try:
            return self._rank[mask]
        except KeyError:
            raise PreconditionError(
                f"monomial {format_monomial(mask)} is not in this basis"
            ) from None

    def prefix(self, degree: int) -> "MonomialBasis":
        """The same family truncated to a smaller degree; a prefix of this
        basis thanks to the graded order."""
        return basis_make(self.n, degree, self.variant)

    def __repr__(self) -> str:
        return f"MonomialBasis({self.variant}, n={self.n}, d={self.degree}, size={len(self)})"


def _basis_family(n: int, d: int, variant: str) -> tuple[range, range]:
    """The symbols and subset sizes of one family, after the argument checks
    that basis_make and basis_size share."""
    if variant not in ("U", "V"):
        raise PreconditionError(f"unknown basis variant {variant!r}")
    if n < 1:
        raise PreconditionError(f"need at least one variable, got n={n}")
    if n + 1 > MAX_VARS:
        raise PreconditionError(f"n={n} exceeds the packed-mask cap of {MAX_VARS - 1}")
    if d < 0:
        raise PreconditionError(f"degree must be nonnegative, got {d}")
    symbols = range(0, n + 1) if variant == "U" else range(1, n + 1)
    return symbols, range(1 if variant == "U" else 0, min(d, len(symbols)) + 1)


def basis_size(n: int, d: int, variant: str) -> int:
    """len(basis_make(n, d, variant)) without building the basis: a sum of
    binomials over the achievable subset sizes."""
    symbols, sizes = _basis_family(n, d, variant)
    return sum(comb(len(symbols), size) for size in sizes)


@lru_cache(maxsize=None)
def basis_make(n: int, d: int, variant: str) -> MonomialBasis:
    """Build the ordered basis for one variant.

    Variant "U": subsets of {0..n} with 1 <= |S| <= d.
    Variant "V": subsets of {1..n} with 0 <= |S| <= d.
    Sizes beyond the universe contribute nothing, so d may exceed it; the
    family is just all achievable sizes up to d.
    """
    symbols, sizes = _basis_family(n, d, variant)
    masks = []
    for size in sizes:
        for combo in combinations(symbols, size):
            masks.append(mask_of(combo))
    return MonomialBasis(variant, n, d, tuple(masks))


class SquarefreePoly:
    """A polynomial in the squarefree quotient: a finite coefficient map
    from monomial masks to nonzero field elements."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Mapping[int, int] | None = None):
        self.field = field
        clean = {}
        if coeffs:
            for mask, c in coeffs.items():
                field.validate(c)
                if mask < 0:
                    raise PreconditionError("negative monomial mask")
                if c:
                    clean[mask] = c
        self.coeffs = clean

    # -- constructors --

    @classmethod
    def zero(cls, field: FieldSpec) -> "SquarefreePoly":
        return cls(field)

    @classmethod
    def constant(cls, field: FieldSpec, c: int) -> "SquarefreePoly":
        return cls(field, {0: c})

    @classmethod
    def variable(cls, field: FieldSpec, i: int) -> "SquarefreePoly":
        return cls(field, {1 << i: 1})

    @classmethod
    def monomial(cls, field: FieldSpec, mask: int, c: int = 1) -> "SquarefreePoly":
        return cls(field, {mask: c})

    # -- structure --

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Largest monomial size; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(bin(m).count("1") for m in self.coeffs)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs, key=_graded_key))

    def terms(self) -> list[tuple[int, int]]:
        return [(m, self.coeffs[m]) for m in self.support()]

    def constant_term(self) -> int:
        return self.coeffs.get(0, 0)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SquarefreePoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        return f"SquarefreePoly({format_poly(self)})"

    # -- ring operations --

    def _peer(self, other: "SquarefreePoly") -> None:
        if not isinstance(other, SquarefreePoly):
            raise PreconditionError(f"expected a polynomial, got {type(other).__name__}")
        if other.field != self.field:
            raise PreconditionError("polynomials live in different fields")

    def __add__(self, other: "SquarefreePoly") -> "SquarefreePoly":
        self._peer(other)
        f = self.field
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            s = f.add(out.get(mask, 0), c)
            if s:
                out[mask] = s
            else:
                out.pop(mask, None)
        return SquarefreePoly(f, out)

    def __sub__(self, other: "SquarefreePoly") -> "SquarefreePoly":
        return self + other.scale(self.field.neg(1))

    def scale(self, c: int) -> "SquarefreePoly":
        f = self.field
        f.validate(c)
        if not c:
            return SquarefreePoly(f)
        return SquarefreePoly(f, {m: f.mul(c, v) for m, v in self.coeffs.items()})

    def __mul__(self, other: "SquarefreePoly") -> "SquarefreePoly":
        self._peer(other)
        f = self.field
        out: dict[int, int] = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                mask = ma | mb
                s = f.add(out.get(mask, 0), f.mul(ca, cb))
                if s:
                    out[mask] = s
                else:
                    del out[mask]
        return SquarefreePoly(f, out)

    def shift(self, mask: int) -> "SquarefreePoly":
        """Multiply by the monomial x^mask.  The sums are field elements
        already, so the product is not validated again."""
        f = self.field
        product = SquarefreePoly(f)
        out = product.coeffs
        for m, c in self.coeffs.items():
            u = m | mask
            s = f.add(out.get(u, 0), c)
            if s:
                out[u] = s
            else:
                del out[u]
        return product

    # -- evaluation --

    def evaluate(self, point: Sequence[int], first_var: int = 0) -> int:
        """Value at a point; point[i - first_var] is the value of x_i.

        Variant-V callers index variables from 1 and pass first_var=1.
        """
        f = self.field
        width = len(point)
        acc = 0
        for mask, c in self.coeffs.items():
            term = c
            for i in indices_of(mask):
                j = i - first_var
                if not 0 <= j < width:
                    raise PreconditionError(
                        f"point of length {width} does not cover variable x{i}"
                    )
                v = point[j]
                if not v:
                    term = 0
                    break
                term = f.mul(term, f.validate(v))
            if term:
                acc = f.add(acc, term)
        return acc


# -- text forms --------------------------------------------------------------

_MONO_RE = re.compile(r"^x(\d+)(?:\*x(\d+))*$")


def format_monomial(mask: int) -> str:
    if mask == 0:
        return "1"
    return "*".join(f"x{i}" for i in indices_of(mask))


def read_index(digits: str, what: str) -> int:
    """The number a decimal digit string spells, for a variable index or
    count that must stay below MAX_VARS.  A string with more digits than
    the cap has is refused unread, so int() never meets a long one."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_VARS - 1)):
        raise ParseError(f"{what} of {len(digits)} digits exceeds the cap of {MAX_VARS - 1}")
    return int(digits)


def parse_monomial(text: str) -> int:
    text = text.strip()
    if text == "1":
        return 0
    if not _MONO_RE.match(text):
        raise ParseError(f"bad monomial {text!r}")
    mask = 0
    for tok in text.split("*"):
        i = read_index(tok[1:], "variable index")
        if i >= MAX_VARS:
            raise ParseError(f"variable index {i} exceeds the cap of {MAX_VARS - 1}")
        mask |= 1 << i
    return mask


def format_poly(f: SquarefreePoly) -> str:
    """Canonical text: graded-lex terms joined by " + ", coefficients as int
    encodings, 1 suppressed except on the constant term."""
    return format_polys([f])[0]


def format_polys(polys: Sequence[SquarefreePoly]) -> list[str]:
    """format_poly of each polynomial.  The graded order and the text of a
    monomial are worked out once per distinct monomial, not once per term,
    so the equations of a system cost one sort key per monomial they use."""
    order = sorted(set().union(*(f.coeffs for f in polys)), key=_graded_key)
    place = {mask: i for i, mask in enumerate(order)}
    names = [format_monomial(mask) for mask in order]
    texts = []
    for f in polys:
        parts = []
        for i in sorted(map(place.__getitem__, f.coeffs)):
            c = f.coeffs[order[i]]
            if order[i] == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(names[i])
            else:
                parts.append(f"{c}*{names[i]}")
        texts.append(" + ".join(parts) or "0")
    return texts


def parse_poly(text: str, field: FieldSpec) -> SquarefreePoly:
    """Inverse of format_poly, slightly lenient: accepts "-" joiners (the
    field's negation is applied) and arbitrary spacing."""
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    if text == "0":
        return SquarefreePoly.zero(field)
    # normalize to a list of (sign, term) with explicit leading sign
    body = text.replace("-", "+-")
    if body.startswith("+"):
        body = body[1:]
    coeffs: dict[int, int] = {}
    for raw in body.split("+"):
        term = raw.strip()
        if not term:
            raise ParseError(f"dangling operator in {text!r}")
        negate = term.startswith("-")
        if negate:
            term = term[1:].strip()
        factors = [t.strip() for t in term.split("*")]
        coeff = 1
        mask = 0
        seen_coeff = False
        for fac in factors:
            if not fac:
                raise ParseError(f"bad term {raw.strip()!r}")
            if fac[0] == "x":
                mask |= parse_monomial(fac)
            else:
                if seen_coeff:
                    raise ParseError(f"two coefficients in term {raw.strip()!r}")
                try:
                    coeff = int(fac)
                except ValueError as exc:
                    raise ParseError(f"bad coefficient {fac!r}") from exc
                seen_coeff = True
        if not 0 <= coeff < field.q:
            if field.e == 1:
                coeff %= field.p
            else:
                raise ParseError(
                    f"coefficient {coeff} is not an element encoding of the field"
                )
        if negate:
            coeff = field.neg(coeff)
        coeffs[mask] = field.add(coeffs.get(mask, 0), coeff)
    return SquarefreePoly(field, coeffs)
