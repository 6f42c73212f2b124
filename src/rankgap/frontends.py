"""Input formats: DIMACS CNF and quadratic equation systems.

CNF clauses are normalized to width exactly 3: shorter clauses are padded
by repeating their last literal (harmless, the clause is logically the
same), longer ones are rejected.  Variables z_1..z_n map to the Boolean
polynomial ring through false-literal forms over the homogenizing slot:
a positive literal z_i contributes x_0 + x_i and a negated one x_i, so a
clause's product polynomial vanishes exactly at the (homogenized) points
that satisfy the clause.

Quadratic systems are degree-at-most-2 squarefree polynomials over x_1..x_n
in any GF(q), given as a field descriptor followed by polynomials separated
by semicolons or newlines.  An optional "n: <count>" token pins the variable
count; otherwise the largest index mentioned wins.
"""

from __future__ import annotations

import hashlib
import re

from .boolalg import SquarefreePoly, format_polys, mask_of, parse_poly, read_index
from .errors import ParseError, PreconditionError
from .gfarith import FieldSpec, format_field, make_field, parse_field_descriptor
from .records import record

__all__ = [
    "CnfFormula",
    "QuadSystemSource",
    "parse_dimacs",
    "parse_quadeq",
    "clause_polynomial",
    "booleanity_polynomial",
]

_GF2 = make_field(2)


@record
class CnfFormula:
    """A 3SAT instance: every stored clause has exactly three literals,
    each a signed 1-based variable index."""

    n: int
    clauses: tuple[tuple[int, int, int], ...]

    @property
    def m(self) -> int:
        return len(self.clauses)

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.n} {self.m}"]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"

    def source_hash(self) -> str:
        return hashlib.sha256(self.to_dimacs().encode()).hexdigest()

    def satisfied_by(self, z: tuple[int, ...]) -> bool:
        """z is 0/1 per variable, z[i-1] for variable i."""
        if len(z) != self.n:
            raise PreconditionError(f"assignment length {len(z)} != n={self.n}")
        for clause in self.clauses:
            if not any(
                (z[abs(l) - 1] == 1) == (l > 0) for l in clause
            ):
                return False
        return True


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF restricted to width <= 3; clauses may span lines.

    Errors carry the offending line number.  The clause count must match
    the header.
    """
    n = m = None
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    current_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ParseError("duplicate problem header", line=lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"malformed header {line!r}", line=lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ParseError(f"malformed header {line!r}", line=lineno) from exc
            if n < 1 or m < 0:
                raise ParseError(f"header needs n >= 1, m >= 0, got {line!r}", line=lineno)
            continue
        if n is None:
            raise ParseError("clause before the problem header", line=lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise ParseError(f"bad literal {tok!r}", line=lineno) from exc
            if lit == 0:
                if not current:
                    raise ParseError("empty clause", line=current_line or lineno)
                if len(current) > 3:
                    raise ParseError(
                        f"clause has {len(current)} literals, width 3 is the maximum",
                        line=current_line or lineno,
                    )
                while len(current) < 3:
                    current.append(current[-1])
                clauses.append((current[0], current[1], current[2]))
                current = []
                current_line = None
                continue
            if not 1 <= abs(lit) <= n:
                raise ParseError(
                    f"literal {lit} out of range for n={n}", line=lineno
                )
            if current_line is None:
                current_line = lineno
            current.append(lit)
    if n is None:
        raise ParseError("missing problem header")
    if current:
        raise ParseError("unterminated clause at end of input", line=current_line)
    if len(clauses) != m:
        raise ParseError(f"header promises {m} clauses, found {len(clauses)}")
    return CnfFormula(n=n, clauses=tuple(clauses))


def _literal_polynomial(lit: int) -> SquarefreePoly:
    """The false-literal form: x_0 + x_i for z_i, x_i for the negation.

    At a homogenized Boolean point with a_0 = 1 this evaluates to 1 exactly
    when the literal is false.
    """
    i = abs(lit)
    if lit > 0:
        return SquarefreePoly(_GF2, {mask_of([0]): 1, mask_of([i]): 1})
    return SquarefreePoly.variable(_GF2, i)


def clause_polynomial(clause: tuple[int, int, int], n: int) -> SquarefreePoly:
    """Product of the three false-literal forms; vanishes at a_0 = 1 points
    exactly when the clause is satisfied."""
    if len(clause) != 3:
        raise PreconditionError(f"clause must have width 3, got {clause!r}")
    for lit in clause:
        if lit == 0 or abs(lit) > n:
            raise PreconditionError(f"literal {lit} out of range for n={n}")
    out = SquarefreePoly.constant(_GF2, 1)
    for lit in clause:
        out = out * _literal_polynomial(lit)
    return out


def booleanity_polynomial(i: int, n: int) -> SquarefreePoly:
    """x_i * (x_i + x_0) = x_i + x_0 x_i; vanishes wherever x_i matches the
    homogenizing slot's Boolean discipline."""
    if not 1 <= i <= n:
        raise PreconditionError(f"variable index {i} out of range for n={n}")
    return SquarefreePoly(_GF2, {mask_of([i]): 1, mask_of([0, i]): 1})


@record
class QuadSystemSource:
    """A system of degree <= 2 squarefree polynomials over x_1..x_n."""

    field: FieldSpec
    n: int
    equations: tuple[SquarefreePoly, ...]

    def __post_init__(self):
        for k, f in enumerate(self.equations):
            if f.field != self.field:
                raise PreconditionError(f"equation {k} is over a different field")
            if f.degree > 2:
                raise PreconditionError(
                    f"equation {k} has degree {f.degree}; the limit is 2"
                )
            for mask in f.coeffs:
                if mask & 1 or mask >> (self.n + 1):
                    raise PreconditionError(
                        f"equation {k} mentions a variable outside x1..x{self.n}"
                    )

    @property
    def m(self) -> int:
        return len(self.equations)

    def to_text(self) -> str:
        lines = [f"field: {format_field(self.field)}", f"n: {self.n}"]
        lines.extend(format_polys(self.equations))
        return "\n".join(lines) + "\n"

    def source_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def satisfied_by(self, a: tuple[int, ...]) -> bool:
        """Whether the Boolean point a (values for x_1..x_n) is a common
        zero."""
        if len(a) != self.n:
            raise PreconditionError(f"point length {len(a)} != n={self.n}")
        if any(v not in (0, 1) for v in a):
            raise PreconditionError("points must be Boolean (0/1 field elements)")
        return all(f.evaluate(a, first_var=1) == 0 for f in self.equations)


_N_TOKEN = re.compile(r"^n\s*:\s*(\d+)$")


def _split_statements(line: str) -> list[str]:
    """Split on ";" outside parentheses, so GF(p^e; ...) stays whole."""
    parts = []
    depth = 0
    start = 0
    for k, ch in enumerate(line):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == ";" and depth == 0:
            parts.append(line[start:k])
            start = k + 1
    parts.append(line[start:])
    return parts


def parse_quadeq(text: str) -> QuadSystemSource:
    """Parse a quadratic system: a GF descriptor (optionally prefixed
    "field:"), then polynomials, with ";" and newlines both accepted as
    separators."""
    tokens = [
        t.strip()
        for chunk in text.splitlines()
        for t in _split_statements(chunk)
        if t.strip()
    ]
    if not tokens:
        raise ParseError("empty quadratic system")
    head = tokens[0]
    if head.lower().startswith("field:"):
        head = head[len("field:") :].strip()
    try:
        field = parse_field_descriptor(head)
    except ParseError as exc:
        raise ParseError(f"expected a field descriptor first: {exc}") from exc
    n_pin = None
    polys = []
    for tok in tokens[1:]:
        m = _N_TOKEN.match(tok)
        if m:
            n_pin = read_index(m.group(1), "n")
            continue
        polys.append(parse_poly(tok, field))
    if not polys:
        raise ParseError("no equations in quadratic system")
    max_var = 0
    for f in polys:
        for mask in f.coeffs:
            if mask & 1:
                raise ParseError("x0 is reserved; quadratic systems use x1..xn")
            if mask:
                max_var = max(max_var, mask.bit_length() - 1)
    n = n_pin if n_pin is not None else max(max_var, 1)
    if n < max_var:
        raise ParseError(f"n: {n} is smaller than the largest variable index {max_var}")
    return QuadSystemSource(field=field, n=n, equations=tuple(polys))
