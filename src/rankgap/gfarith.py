"""Exact arithmetic in prime and prime-power finite fields.

An element of GF(p^e) is stored as a plain int in range(p**e) whose base-p
digits are the coefficients of the residue polynomial: digit i is the
coefficient of alpha^i, where alpha is the class of x modulo the field's
irreducible modulus.  For e == 1 this degenerates to ordinary mod-p ints.
Arithmetic works on coefficient vectors, so no field size needs a table.
Fields of at most _TABLE_LIMIT elements also get lazy operation tables
(add, sub, mul, inv), built once per field: extension-field mul and inv read
them, and gflinalg's elimination indexes them directly.  mul and inv are
filled from the powers of a generator (discrete logs), add and sub digit by
digit; logs are used for nothing else.

The modulus may be supplied explicitly (low-to-high coefficient order) or
omitted, in which case the lexicographically smallest irreducible monic
polynomial of degree e is chosen: candidates are scanned in ascending order
of their non-leading coefficient word, high degree most significant, which
reproduces the usual textbook moduli (x^2+x+1 for GF(4), x^3+x+1 for GF(8),
x^4+x+1 for GF(16), ...).
"""

from __future__ import annotations

import re
from collections.abc import Sequence

from .errors import ParseError, PreconditionError

__all__ = [
    "FieldSpec",
    "LinearFunctional",
    "make_field",
    "make_linear_functional",
    "format_field",
    "parse_field_descriptor",
]

# Operation tables are only built for fields this small.
_TABLE_LIMIT = 256

# No field has more than 2^24 elements.  The modulus search and the
# primality test both divide by trial, so their cost grows with the field:
# GF(2^24) takes 0.24 s to build, GF(2^28) 0.77 s (Python 3.11).
_FIELD_BITS = 24
_FIELD_LIMIT = 1 << _FIELD_BITS


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


# -- polynomial helpers over GF(p), coefficients as low-to-high tuples --


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of num by monic den, coefficients mod p."""
    r = list(num)
    dd = len(den) - 1
    while len(r) - 1 >= dd and any(r):
        if r[-1] == 0:
            r.pop()
            continue
        shift = len(r) - 1 - dd
        lead = r[-1]
        for i, d in enumerate(den):
            r[shift + i] = (r[shift + i] - lead * d) % p
        r.pop()
    return _poly_trim(r)


def _irreducible_witness(coeffs: Sequence[int], p: int) -> tuple[int, ...] | None:
    """Return a nontrivial monic factor of the monic polynomial, or None.

    Trial division by every monic polynomial of degree 1..deg//2 suffices:
    any factorization contains a factor in that range.  A degree-1
    candidate x + a divides exactly when -a is a root, so those are
    decided by evaluating at -a mod p with Horner's rule, in the order
    trial division tries them; only factors of degree 2 and up are divided.
    """
    deg = len(coeffs) - 1
    if deg >= 2:
        for a in range(p):
            root, value = -a % p, 0
            for c in reversed(coeffs):
                value = (value * root + c) % p
            if not value:
                return (a, 1)
    for fdeg in range(2, deg // 2 + 1):
        for word in range(p**fdeg):
            cand = list(_digits(word, p, fdeg)) + [1]
            if not _poly_mod(coeffs, cand, p):
                return tuple(cand)
    return None


def _digits(value: int, p: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return tuple(out)


def _undigits(digs: Sequence[int], p: int) -> int:
    v = 0
    for d in reversed(digs):
        v = v * p + d
    return v


def _digitwise(p: int, e: int, op) -> list[list[int]]:
    """table[a][b] == the element whose base-p digits are op(a_i, b_i) for
    the digits a_i, b_i of a and b.  An element of p^k digits is its low
    digit plus p times the rest, so each digit added takes one pass over
    the table built so far."""
    low = [[op(a, b) for b in range(p)] for a in range(p)]
    table = low
    for _ in range(e - 1):
        table = [
            [p * h + x for h in high for x in row] for high in table for row in low
        ]
    return table


class _OpRow:
    """row[b] == op(a, b) without storing the row.  A whole table too large
    to build is a row of rows: _OpRow(_OpRow, op)[a][b] == op(a, b)."""

    __slots__ = ("op", "a")

    def __init__(self, op, a):
        self.op = op
        self.a = a

    def __getitem__(self, b):
        return self.op(self.a, b)


class FieldSpec:
    """A concrete finite field GF(p^e) with a fixed monic irreducible modulus.

    All operations take and return int-encoded elements.  Instances are
    immutable and compare equal when (p, e, modulus) agree.
    """

    __slots__ = ("p", "e", "q", "modulus", "_tables")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus  # low-to-high, length e+1, monic
        self._tables: tuple | None = None

    # -- identity --

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec({format_field(self)})"

    # -- element plumbing --

    def validate(self, a: int) -> int:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.q:
            raise PreconditionError(f"{a!r} is not an element of {format_field(self)}")
        return a

    def validate_all(self, values) -> tuple[int, ...]:
        """tuple(values), each checked as validate checks one: one pass for
        plain ints, and validate names the first bad value."""
        values = tuple(values)
        q = self.q
        if not all(type(v) is int and 0 <= v < q for v in values):
            for v in values:
                self.validate(v)
        return values

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of a, low degree first, length e."""
        return _digits(a, self.p, self.e)

    def from_coeffs(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) != self.e:
            raise PreconditionError(
                f"expected {self.e} coefficients, got {len(coeffs)}"
            )
        return _undigits([c % self.p for c in coeffs], self.p)

    # -- arithmetic on int encodings --

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        return _undigits(
            [(x + y) % p for x, y in zip(_digits(a, p, self.e), _digits(b, p, self.e))],
            p,
        )

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.e == 1:
            return (-a) % self.p
        p = self.p
        return _undigits([(-x) % p for x in _digits(a, p, self.e)], p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if self.q > _TABLE_LIMIT:
            return self._mul_poly(a, b)
        _, _, mul, _ = self._tables or self._build_tables()
        return mul[a][b]

    def _mul_poly(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if p == 2:
            # carry-less multiply, then reduce by the modulus bit pattern
            acc = 0
            x = a
            while x:
                low = x & -x
                acc ^= b << low.bit_length() - 1
                x ^= low
            mbits = _undigits(self.modulus, 2)
            top = mbits.bit_length() - 1
            while acc.bit_length() > e:
                acc ^= mbits << (acc.bit_length() - 1 - top)
            return acc
        da, db = _digits(a, p, e), _digits(b, p, e)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        rem = list(_poly_mod(prod, self.modulus, p))
        rem += [0] * (e - len(rem))
        return _undigits(rem, p)

    def tables(self) -> tuple:
        """The operation tables (add, sub, mul, inv), built on first use:
        add[a][b] == a + b and so on, inv[a] == 1 / a.  Lists for fields of
        at most _TABLE_LIMIT elements (inv[0] is 0), calls into the field
        above that.  A plain tuple, because the elimination loops unpack it
        on every call."""
        return self._tables or self._build_tables()

    def _build_tables(self) -> tuple:
        if self.q > _TABLE_LIMIT:
            ops = (_OpRow(_OpRow, op) for op in (self.add, self.sub, self.mul))
            self._tables = (*ops, _OpRow(self.div, 1))
            return self._tables
        q, p = self.q, self.p
        # powers of a generator g: exp[k] == g^k, log[exp[k]] == k
        for g in range(1, q):
            exp = [1]
            while len(exp) < q - 1 and (x := self._mul_poly(exp[-1], g)) != 1:
                exp.append(x)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for k, x in enumerate(exp):
            log[x] = k
        exp += exp
        logs = log[1:]
        self._tables = (
            _digitwise(p, self.e, lambda a, b: (a + b) % p),
            _digitwise(p, self.e, lambda a, b: (a - b) % p),
            [[0] * q] + [[0] + [exp[k + j] for j in logs] for k in logs],
            [0] + [exp[q - 1 - k] for k in logs],
        )
        return self._tables

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {format_field(self)}")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self.q > _TABLE_LIMIT:
            return self.pow(a, self.q - 2)
        _, _, _, inv = self._tables or self._build_tables()
        return inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        out = 1
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out


# one FieldSpec per (p, e, modulus), however the field was asked for, so
# that each builds its operation tables once per process
_FIELDS: dict[tuple, FieldSpec] = {}


def make_field(p: int, e: int = 1, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Construct GF(p^e), or give the one already made.

    modulus, when given, lists the coefficients of a monic irreducible
    degree-e polynomial low degree first (length e+1).  When omitted the
    lexicographically smallest irreducible monic polynomial is found by
    scanning candidates and rejecting each reducible one by exhibiting a
    factor.  Prime fields take the trivial modulus x.  A field of more than
    2^24 elements is refused first, without forming p^e.
    """
    # p >= 2 makes p^e > 2^24 once e > 24; p^e is formed only below that
    if p > _FIELD_LIMIT or (p > 1 and (e > _FIELD_BITS or p**e > _FIELD_LIMIT)):
        name = f"GF({p})" if e == 1 else f"GF({p}^{e})"
        raise PreconditionError(
            f"{name} has more than 2^{_FIELD_BITS} elements, the largest field supported"
        )
    if not _is_prime(p):
        raise PreconditionError(f"characteristic {p} is not prime")
    if e < 1:
        raise PreconditionError(f"extension degree must be positive, got {e}")
    if modulus is not None:
        coeffs = tuple(int(c) for c in modulus)
        if len(coeffs) != e + 1:
            raise PreconditionError(
                f"modulus for GF({p}^{e}) needs {e + 1} coefficients, got {len(coeffs)}"
            )
        if any(not 0 <= c < p for c in coeffs):
            raise PreconditionError(f"modulus coefficients must lie in [0, {p})")
        if coeffs[-1] != 1:
            raise PreconditionError("modulus must be monic")
        if e > 1:
            factor = _irreducible_witness(coeffs, p)
            if factor is not None:
                raise PreconditionError(
                    f"modulus is reducible: divisible by {_poly_str(factor)}"
                )
    elif e == 1:
        coeffs = (0, 1)
    else:  # GF(p^e) always has an irreducible modulus
        candidates = (_digits(word, p, e) + (1,) for word in range(p**e))
        coeffs = next(cand for cand in candidates if _irreducible_witness(cand, p) is None)
    field = _FIELDS.get((p, e, coeffs))
    if field is None:
        field = _FIELDS[p, e, coeffs] = FieldSpec(p, e, coeffs)
    return field


def _poly_str(coeffs: Sequence[int]) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            base = "x" if i == 1 else f"x^{i}"
            terms.append(base if c == 1 else f"{c}*{base}")
    return " + ".join(terms) if terms else "0"


# -- field descriptors -------------------------------------------------------

_DESCRIPTOR_RE = re.compile(
    r"^\s*GF\(\s*(\d+)\s*(?:\^\s*(\d+)\s*)?(?:;\s*([0-9,\s]+))?\)\s*$"
)


def format_field(field: FieldSpec) -> str:
    """Text form of a field: GF(p) for prime fields, otherwise the modulus is
    spelled out high degree first, e.g. GF(2^2; 1,1,1) for x^2+x+1."""
    if field.e == 1:
        return f"GF({field.p})"
    body = ",".join(str(c) for c in reversed(field.modulus))
    return f"GF({field.p}^{field.e}; {body})"


def parse_field_descriptor(text: str) -> FieldSpec:
    """Parse GF(p), GF(p^e) (canonical modulus) or GF(p^e; c_e,...,c_0)."""
    m = _DESCRIPTOR_RE.match(text)
    if not m:
        raise ParseError(f"bad field descriptor {text!r}")
    body = m.group(3)
    try:
        p = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        modulus = None if body is None else tuple(
            int(tok) for tok in reversed(body.replace(" ", "").split(",")) if tok
        )
    except ValueError as exc:  # more digits than int() reads
        raise ParseError("bad field descriptor: a number in it has too many digits") from exc
    return make_field(p, e, modulus)


# -- GF(2)-linear functionals on GF(2^r) ------------------------------------


class LinearFunctional:
    """A GF(2)-linear map GF(2^r) -> GF(2) given by a coefficient row.

    phi(x) is the mod-2 dot product of the row with x's coefficient vector.
    """

    __slots__ = ("field", "row")

    def __init__(self, field: FieldSpec, row: Sequence[int]):
        if field.p != 2:
            raise PreconditionError("linear functionals require characteristic 2")
        if len(row) != field.e or any(c not in (0, 1) for c in row):
            raise PreconditionError(
                f"row must have {field.e} entries over GF(2), got {tuple(row)}"
            )
        self.field = field
        self.row = tuple(row)

    def __call__(self, x: int) -> int:
        acc = 0
        for lam, c in zip(self.row, self.field.coeffs(self.field.validate(x))):
            acc ^= lam & c
        return acc

    def __repr__(self) -> str:
        return f"LinearFunctional({format_field(self.field)}, row={self.row})"


def make_linear_functional(field: FieldSpec, target: int) -> LinearFunctional:
    """The coordinate functional keyed to target: it extracts the lowest-index
    nonzero coefficient of target, so phi(target) == 1 by construction.

    Deterministic, which keeps everything downstream reproducible.
    """
    if field.p != 2:
        raise PreconditionError("linear functionals require characteristic 2")
    field.validate(target)
    if target == 0:
        raise PreconditionError("cannot key a functional to the zero element")
    digs = field.coeffs(target)
    pivot = next(i for i, c in enumerate(digs) if c)
    row = [0] * field.e
    row[pivot] = 1
    return LinearFunctional(field, row)
