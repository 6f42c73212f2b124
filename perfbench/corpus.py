"""Seeded inputs for the benchmark, and the answers they must produce.

Everything here is independent of rankgap: the generators write source
files as text, and the expected answers (satisfiability by evaluating all
2^n Boolean points, closed-form instance sizes, kernel dimensions, member
ranks) come from the small exact arithmetic below, never from the compiler
under test.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0


# -- exact arithmetic over GF(2), GF(3) and GF(4) ------------------------------


class SmallField:
    """GF(q) for q in {2, 3, 4}, with the int encoding rankgap files use:
    GF(4) elements are polynomials over GF(2) modulo x^2 + x + 1, bit i
    holding the coefficient of x^i."""

    def __init__(self, q: int):
        if q not in (2, 3, 4):
            raise ValueError(f"unsupported field size {q}")
        self.q = q
        self.descriptor = {2: "GF(2)", 3: "GF(3)", 4: "GF(2^2)"}[q]
        self.mul_table = [[self._mul(a, b) for b in range(q)] for a in range(q)]
        self.inv_table = [0] + [
            next(b for b in range(1, q) if self.mul_table[a][b] == 1) for a in range(1, q)
        ]

    def _mul(self, a: int, b: int) -> int:
        if self.q != 4:
            return a * b % self.q
        acc = 0
        for i in range(2):
            if b >> i & 1:
                acc ^= a << i
        if acc & 4:
            acc ^= 0b111
        return acc

    def add(self, a: int, b: int) -> int:
        return a ^ b if self.q in (2, 4) else (a + b) % self.q

    def neg(self, a: int) -> int:
        return a if self.q in (2, 4) else (-a) % self.q

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]


def rank(field: SmallField, rows) -> int:
    """Rank of a dense matrix over a SmallField by Gaussian elimination."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(work)) if work[i][col]), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = field.inv_table[work[r][col]]
        work[r] = [field.mul(inv, v) for v in work[r]]
        for i in range(len(work)):
            c = work[i][col]
            if i != r and c:
                work[i] = [field.add(x, field.neg(field.mul(c, y))) for x, y in zip(work[i], work[r])]
        r += 1
    return r


# -- closed-form instance sizes ------------------------------------------------


def superposition_sizes(n: int, m: int, d: int) -> dict:
    """Coordinates (subsets of x0..xn of size 1..2d), matrix side (size
    1..d) and constraint rows (each clause shifted by every monomial of
    degree <= d-3, each booleanity polynomial by every one of degree <= d-2)."""
    v = n + 1
    return {
        "coord_count": sum(math.comb(v, j) for j in range(1, 2 * d + 1)),
        "matrix_side": sum(math.comb(v, j) for j in range(1, d + 1)),
        "rows": m * sum(math.comb(v, j) for j in range(d - 2))
        + n * sum(math.comb(v, j) for j in range(d - 1)),
    }


def direct_sizes(n: int, m: int, d: int) -> dict:
    """Coordinates (subsets of x1..xn of size 0..2d), matrix side (size
    0..d) and localizing rows (each equation times every shift of size
    <= 2d-2)."""
    return {
        "coord_count": sum(math.comb(n, j) for j in range(2 * d + 1)),
        "matrix_side": sum(math.comb(n, j) for j in range(d + 1)),
        "rows": m * sum(math.comb(n, j) for j in range(2 * d - 1)),
    }


def graded_masks(n: int, degree: int) -> list[int]:
    """Subsets of x1..xn of size 0..degree as bit masks (bit i is x_i), by
    size and then lexicographically: the coordinate order of instance files."""
    out = []
    for size in range(degree + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            out.append(sum(1 << i for i in combo))
    return out


# -- instances -----------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One source file and everything the benchmark knows about it.

    kind is "cnf" or "quad"; klass names the timing class the instance
    belongs to; equations (quadratic systems only) maps each equation to
    {monomial mask: coefficient}; point is a satisfying assignment when
    the instance is satisfiable.
    """

    index: int
    kind: str
    klass: str
    text: str
    n: int
    m: int
    q: int
    sat: bool
    point: tuple[int, ...] | None
    equations: tuple[dict, ...] = ()
    clauses: tuple[tuple[int, int, int], ...] = ()


def cnf_satisfied(clauses, z) -> bool:
    return all(any((z[abs(l) - 1] == 1) == (l > 0) for l in c) for c in clauses)


def planted_cnf(rng: random.Random, n: int, m: int) -> tuple[tuple, tuple]:
    """m clauses over three distinct variables each, drawn uniformly among
    those a hidden point satisfies."""
    z = tuple(rng.randint(0, 1) for _ in range(n))
    clauses = []
    while len(clauses) < m:
        clause = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        if cnf_satisfied([clause], z):
            clauses.append(clause)
    return z, tuple(clauses)


def cnf_text(n: int, clauses) -> str:
    body = "".join(" ".join(str(l) for l in c) + " 0\n" for c in clauses)
    return f"p cnf {n} {len(clauses)}\n" + body


def evaluate(field: SmallField, eq: dict, point) -> int:
    """Value of a squarefree polynomial at a Boolean point (point[i-1] is x_i)."""
    acc = 0
    for mask, c in eq.items():
        if all(point[i - 1] for i in range(1, mask.bit_length()) if mask >> i & 1):
            acc = field.add(acc, c)
    return acc


def solutions(field: SmallField, equations, n: int) -> list[tuple[int, ...]]:
    return [
        p for p in itertools.product((0, 1), repeat=n)
        if all(evaluate(field, eq, p) == 0 for eq in equations)
    ]


def _format_term(mask: int, c: int) -> str:
    mono = "*".join(f"x{i}" for i in range(1, mask.bit_length()) if mask >> i & 1)
    if not mono:
        return str(c)
    return mono if c == 1 else f"{c}*{mono}"


def quad_text(field: SmallField, n: int, equations) -> str:
    lines = [f"field: {field.descriptor}", f"n: {n}"]
    order = {mask: k for k, mask in enumerate(graded_masks(n, 2))}
    for eq in equations:
        lines.append(" + ".join(_format_term(mask, eq[mask]) for mask in sorted(eq, key=order.get)))
    return "\n".join(lines) + "\n"


def quad_system(rng: random.Random, field: SmallField, n: int, m: int, sat: bool):
    """m linearly independent equations of degree <= 2, redrawn until all
    2^n points agree with the wanted satisfiability.  Each equation has
    nonzero coefficients on a random half of the nonconstant monomials, so
    instances of one class are the same size.  A satisfiable system is
    planted: each constant term is chosen so a hidden point is a common
    zero."""
    masks = graded_masks(n, 2)
    while True:
        point = tuple(rng.randint(0, 1) for _ in range(n)) if sat else None
        equations = []
        for _ in range(m):
            eq = {mask: rng.randrange(1, field.q) for mask in rng.sample(masks[1:], (len(masks) - 1) // 2)}
            if sat:
                eq[0] = field.neg(evaluate(field, eq, point))
            else:
                eq[0] = rng.randrange(field.q)
            equations.append({mask: c for mask, c in eq.items() if c})
        if rank(field, [[eq.get(mask, 0) for mask in masks] for eq in equations]) < m:
            continue
        found = solutions(field, equations, n)
        if bool(found) == sat:
            return (point or found[0]) if sat else None, tuple(equations)


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A corpus recipe: instance i belongs to classes[i % len(classes)],
    each class a (q, n, m, satisfiable) tuple; sizes differ between the
    timed corpus and the smoke corpus the benchmark's tests run."""

    name: str
    kind: str
    why: str
    classes: tuple[tuple[int, int, int, bool], ...]
    smoke_classes: tuple[tuple[int, int, int, bool], ...]
    k: int = 1
    degree: int = 8
    budget: int | None = None
    workers: int = 1

    def params(self, smoke: bool) -> dict:
        keys = ("q", "n", "m", "sat")
        return {
            "classes": [dict(zip(keys, c)) for c in (self.smoke_classes if smoke else self.classes)],
            "k": self.k,
            "degree": self.degree if self.kind == "cnf" else self.k,
            "budget": self.budget,
            "workers": self.workers,
        }

    def instance(self, seed: int, index: int, smoke: bool = False) -> Instance:
        classes = self.smoke_classes if smoke else self.classes
        q, n, m, sat = classes[index % len(classes)]
        rng = random.Random(f"{self.name}/{'smoke' if smoke else 'timed'}/{seed}/{index}")
        klass = f"GF({q})/n={n}/m={m}/{'sat' if sat else 'unsat'}"
        if self.kind == "cnf":
            z, clauses = planted_cnf(rng, n, m)
            return Instance(index, "cnf", klass, cnf_text(n, clauses), n, m, 2, True, z,
                            clauses=clauses)
        field = SmallField(q)
        point, equations = quad_system(rng, field, n, m, sat)
        return Instance(index, "quad", klass, quad_text(field, n, equations), n, m, q, sat,
                        point, equations=equations)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cnf_pipeline",
            kind="cnf",
            why="CNF compiler, 0.6 MB instance files, dense membership and kernel "
            "extraction over 8k constraint rows; minrank stops at the budget refusal",
            classes=((2, 7, 30, True),),
            smoke_classes=((2, 4, 17, True),),
            budget=1,
        ),
        Workload(
            name="minrank_gf2",
            kind="quad",
            why="packed GF(2) Gray-code scan over 2^16 members; bypasses the CNF build",
            classes=((2, 6, 6, True), (2, 6, 6, False)),
            smoke_classes=((2, 4, 4, True), (2, 4, 4, False)),
        ),
        Workload(
            name="minrank_gfq",
            kind="quad",
            why="generic GF(3)/GF(4) scan with --workers 2; the only place real "
            "parallelism can show",
            classes=((3, 5, 7, True), (4, 4, 4, True), (3, 5, 7, False), (4, 4, 4, False)),
            smoke_classes=((3, 3, 3, True), (4, 3, 3, True), (3, 3, 3, False), (4, 3, 3, False)),
            workers=2,
        ),
    )
}


def member_rank(field: SmallField, n: int, values) -> int:
    """Rank of H[S][T] = y_{S u T} over subsets S, T of size <= 1: the
    matrix a degree-1 direct instance expands a coordinate vector into."""
    coords = {mask: k for k, mask in enumerate(graded_masks(n, 2))}
    side = graded_masks(n, 1)
    return rank(field, [[values[coords[s | t]] for t in side] for s in side])


def is_member(field: SmallField, n: int, equations, values) -> bool:
    """Whether y satisfies every degree-1 localizing row sum_U c_U y_U = 0."""
    coords = {mask: k for k, mask in enumerate(graded_masks(n, 2))}
    for eq in equations:
        acc = 0
        for mask, c in eq.items():
            acc = field.add(acc, field.mul(c, values[coords[mask]]))
        if acc:
            return False
    return True
