"""From 3SAT to matrix subspaces over characteristic two.

The pipeline has three stops.  A CNF formula first becomes a constant-free
polynomial system: every clause polynomial and every booleanity polynomial,
kept once with its shift masks, the monomials of low enough degree that
the products stay within degree d.  That system linearizes into a
quadratic system over one variable per monomial index set, with
multiplicativity equations tying products of monomial variables to the
variable of the union set.  Finally subspace.localizing_rows, which the
direct construction shares, writes one row per polynomial and shift
straight from the sources: a subspace of symmetric matrices in quotient
coordinates.  It builds each distinct row once: a source is multiplied
only on its own variables S, at most 2^|S| times (16 for a clause, 4 for
a booleanity polynomial).  Each distinct product x^c * g, c the monomial
all its terms share, keys its rows by its cofactor g and c | outer shift,
across every source, so a row is ranked once per such pair.  8,299 rows
at n = 7, m = 30, d = 8 take at most 508 multiplications, which give
76-85 distinct products and 1,042-1,175 ranked rows for 816-930 distinct
ones on twelve benchmark instances.  It
reports where each distinct row first appears, so the space does not walk
its rows to find them.  The multiplicativity equations cancel identically
in those coordinates: both sides of u_S*u_T = u_{S union T} land on the
coordinate of the union with coefficient 1 + 1 = 0.  So they, and the
products and their linearized images, are produced only when a check
iterates over them.  The sources share two shift tuples, and the
constant-free system checks each tuple once, not once per source.

Two soundness-facing utilities live here as well: the decomposition of a
low-rank member into a family of assignments that satisfies every
quadratic equation in superposition, and the lower bound on the rank of a
nonzero member read off its first nonzero coordinate.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import cached_property, reduce
from itertools import chain
from operator import or_

from .boolalg import MonomialBasis, SquarefreePoly, basis_make, basis_size
from .errors import InternalConsistencyError, PreconditionError
from .frontends import CnfFormula, booleanity_polynomial, clause_polynomial
from .gfarith import FieldSpec, make_field
from .gflinalg import symmetric_rank_one_decomposition
from .records import record
from .subspace import PseudoMomentVector, SubspaceSpec, localizing_rows

__all__ = [
    "ConstantFreeSystem",
    "ShiftedEquations",
    "QuadEquation",
    "MultiplicativityEquations",
    "MonomialQuadSystem",
    "DegreeChoice",
    "SuperpositionWitness",
    "RankCertificate",
    "choose_degree",
    "degree_regime",
    "build_constant_free_system",
    "build_monomial_quad_system",
    "build_matrix_subspace",
    "low_rank_to_superposition",
    "rank_certificate",
]

_GF2 = make_field(2)


# -- degree selection ---------------------------------------------------------


def _middle_binomial_exceeds(d: int, k0: int) -> bool:
    """C(d+1, floor((d+1)/2)) > k0.  The binomial is the largest of the d+2
    that sum to 2^(d+1), so it is at least 2^(d+1)/(d+2); once that bound
    exceeds k0 the binomial is never formed, however large d is."""
    if (k0 * (d + 2)).bit_length() <= d + 1:
        return True
    return math.comb(d + 1, (d + 1) // 2) > k0


def degree_regime(d: int, k0: int) -> str:
    """"faithful" when d meets every soundness-side requirement for a rank
    gap of k0, "relaxed" otherwise (structure and completeness hold either
    way)."""
    if d >= 8 and d % 4 == 0 and _middle_binomial_exceeds(d, k0):
        return "faithful"
    return "relaxed"


@record
class DegreeChoice:
    """Degree selection for a target rank gap k over GF(2^r).

    k0 = r*k is the gap after descending to GF(2); t = floor(3*k0/2) bounds
    the number of assignments a rank-k0 member can decompose into; d is the
    smallest multiple of 4 that is at least max{8, c*log2(t+1)} and has
    C(d+1, floor((d+1)/2)) > k0.  c is a configured soundness constant, not
    derived from anything.
    """

    k: int
    r: int
    c: float
    k0: int
    t: int
    d: int

    @property
    def regime(self) -> str:
        return degree_regime(self.d, self.k0)


def choose_degree(k: int, r: int = 1, c: float = 4.0) -> DegreeChoice:
    if k < 1 or r < 1:
        raise PreconditionError(f"need k >= 1 and r >= 1, got k={k}, r={r}")
    if not c > 0:
        raise PreconditionError(f"the soundness constant must be positive, got {c}")
    k0 = r * k
    t = 3 * k0 // 2
    lower = max(8.0, c * math.log2(t + 1))
    if not math.isfinite(lower):
        raise PreconditionError(f"the soundness constant {c} gives no finite degree")
    d = 4 * math.ceil(lower / 4)
    while not _middle_binomial_exceeds(d, k0):
        d += 4
    return DegreeChoice(k=k, r=r, c=c, k0=k0, t=t, d=d)


# -- the constant-free polynomial system --------------------------------------


@record
class ShiftedEquations:
    """Each source polynomial times x^w for each of its shift masks w, in
    order, produced on iteration; len counts the shifts."""

    sources: tuple[tuple[SquarefreePoly, tuple[int, ...]], ...]

    def __len__(self) -> int:
        return sum(len(shifts) for _, shifts in self.sources)

    def __iter__(self) -> Iterator[SquarefreePoly]:
        return (f.shift(w) for f, shifts in self.sources for w in shifts)


@record
class ConstantFreeSystem:
    """Degree-at-most-d polynomials over GF(2) in x_0..x_n without a
    constant term: each (polynomial, shift masks) source stands for the
    polynomial times x^w for each shift w, and is checked once."""

    n: int
    d: int
    sources: tuple[tuple[SquarefreePoly, tuple[int, ...]], ...]

    def __post_init__(self):
        reach: dict[int, tuple[int, int]] = {}  # per shift tuple: largest size, union
        for k, (f, shifts) in enumerate(self.sources):
            if f.field != _GF2:
                raise PreconditionError(f"source {k} is not over GF(2)")
            if f.constant_term() != 0:
                raise InternalConsistencyError(f"source {k} has a constant term")
            widest, union = reach.get(id(shifts)) or reach.setdefault(
                id(shifts), (max(map(int.bit_count, shifts), default=0), reduce(or_, shifts, 0))
            )
            top = f.degree + widest
            if top > self.d:
                raise InternalConsistencyError(f"source {k} reaches degree {top} > {self.d}")
            if reduce(or_, f.coeffs, union) >> (self.n + 1):
                raise PreconditionError(f"source {k} mentions a variable beyond x{self.n}")

    @property
    def equations(self) -> ShiftedEquations:
        return ShiftedEquations(self.sources)


def expected_equation_count(n: int, m: int, d: int) -> int:
    """m clauses times the shifts of degree <= d-3 plus n booleanity
    polynomials times those of degree <= d-2, the empty shift included."""
    if d < 3:
        raise PreconditionError(f"degree {d} leaves no room for clause polynomials")
    return m * (1 + basis_size(n, d - 3, "U")) + n * (1 + basis_size(n, d - 2, "U"))


def build_constant_free_system(cnf: CnfFormula, d: int) -> ConstantFreeSystem:
    """Clause polynomials shifted by all monomials of degree <= d-3, then
    booleanity polynomials shifted by all monomials of degree <= d-2, in
    that order, clause-major then variable-major; the sources share two
    shift tuples.

    d >= 3 is accepted; instances with d < 8 or d not a multiple of 4 only
    carry the completeness direction (see degree_regime).
    """
    n = cnf.n
    expected = expected_equation_count(n, cnf.m, d)
    clause_shifts = (0,) + basis_make(n, d - 3, "U").masks
    bool_shifts = (0,) + basis_make(n, d - 2, "U").masks
    sources = [(clause_polynomial(clause, n), clause_shifts) for clause in cnf.clauses]
    sources += [(booleanity_polynomial(i, n), bool_shifts) for i in range(1, n + 1)]
    system = ConstantFreeSystem(n=n, d=d, sources=tuple(sources))
    if len(system.equations) != expected:
        raise InternalConsistencyError(
            f"built {len(system.equations)} equations, the count formula says {expected}"
        )
    return system


# -- linearization ------------------------------------------------------------


@record
class QuadEquation:
    """One equation over monomial variables: sum of coeff*u_S*u_T over quad
    plus sum of coeff*u_R over linear, equated to zero in GF(2).  Masks are
    monomial index sets; quad pairs are stored with mask_s first in basis
    order."""

    quad: tuple[tuple[int, int, int], ...]
    linear: tuple[tuple[int, int], ...]

    def value(self, assignment, basis: MonomialBasis) -> int:
        """Evaluate at a 0/1 assignment indexed by basis position."""
        acc = 0
        for mask_s, mask_t, coeff in self.quad:
            acc ^= coeff & assignment[basis.rank(mask_s)] & assignment[basis.rank(mask_t)]
        for mask, coeff in self.linear:
            acc ^= coeff & assignment[basis.rank(mask)]
        return acc


@record
class MultiplicativityEquations:
    """u_S*u_T = u_{S union T} for every unordered pair of sets in a U
    basis, diagonal included, whose union stays within its degree.

    Produced on iteration, S before T in basis order.  len counts without
    enumerating: a union of size r comes from (3^r - 1)/2 such pairs.
    """

    basis: MonomialBasis

    def __len__(self) -> int:
        width = self.basis.n + 1
        return sum(
            math.comb(width, r) * (3**r - 1) // 2
            for r in range(1, min(self.basis.degree, width) + 1)
        )

    def __iter__(self) -> Iterator[QuadEquation]:
        basis, masks = self.basis, self.basis.masks
        for a, s in enumerate(masks):
            for t in masks[a:]:
                union = s | t
                if union in basis:
                    yield QuadEquation(quad=((s, t, 1),), linear=((union, 1),))


@record
class MonomialQuadSystem:
    """The linearized system of a constant-free system: one variable per
    index set in U_{n,d}.

    linearized holds the images of the constant-free equations (monomials
    replaced by their variables), built on first use; multiplicativity the
    product equations over the basis, produced only on iteration.  The
    subspace is built from the system's sources and needs neither.
    """

    system: ConstantFreeSystem
    basis: MonomialBasis
    multiplicativity: MultiplicativityEquations

    @cached_property
    def linearized(self) -> tuple[QuadEquation, ...]:
        rank = self.basis.rank
        return tuple(
            QuadEquation(quad=(), linear=tuple(sorted(f.coeffs.items(), key=lambda kv: rank(kv[0]))))
            for f in self.system.equations
        )

    @property
    def equations(self) -> Iterator[QuadEquation]:
        """Every equation, linearized first, produced on iteration."""
        return chain(self.linearized, self.multiplicativity)


def build_monomial_quad_system(system: ConstantFreeSystem) -> MonomialQuadSystem:
    basis = basis_make(system.n, system.d, "U")
    return MonomialQuadSystem(system, basis, MultiplicativityEquations(basis))


# -- the subspace -------------------------------------------------------------


def build_matrix_subspace(
    quad: MonomialQuadSystem,
    field: FieldSpec | None = None,
    provenance: dict | None = None,
) -> SubspaceSpec:
    """Quotient-coordinate subspace on U_{n,2d} cut out by the linearized
    equations, one localizing row per source and shift.

    In quotient coordinates an entry at (S, T) is the coordinate of the
    union, so each multiplicativity equation lands on a single coordinate
    with coefficient 1 + 1 = 0 and gives no row; only their number goes
    into the provenance.  The constraint rows are 0/1-valued and define the
    same subspace over any field of characteristic two, which is the only
    kind accepted here.
    """
    field = field or _GF2
    if field.p != 2:
        raise PreconditionError("the subspace constraints need characteristic two")
    n, d = quad.system.n, quad.system.d
    rows, distinct = localizing_rows(basis_make(n, 2 * d, "U"), quad.system.sources)
    base = {
        "construction": "superposition",
        "n": n,
        "d": d,
        "multiplicativity_cancelled": len(quad.multiplicativity),
    }
    base.update(provenance or {})
    return SubspaceSpec._seeded(distinct, field, "U", n, d, rows, base)


# -- soundness-facing utilities ----------------------------------------------


@record
class SuperpositionWitness:
    """A family of 0/1 assignments to the monomial variables whose
    per-equation evaluation sums all vanish, plus their coordinatewise
    sum."""

    vectors: tuple[tuple[int, ...], ...]
    aggregate: tuple[int, ...]
    matrix_rank: int


def low_rank_to_superposition(
    values, subspace: SubspaceSpec, quad: MonomialQuadSystem
) -> SuperpositionWitness:
    """Decompose the member's matrix into symmetric rank-one pieces and
    read the pieces as assignments; they satisfy every equation of the
    quadratic system in superposition, which is re-verified here and is an
    internal failure if broken."""
    if subspace.field.q != 2:
        raise PreconditionError(
            "decomposition works over GF(2); descend extension members first"
        )
    if subspace.index is not quad.basis:
        raise PreconditionError("subspace and quadratic system disagree on the basis")
    bad = subspace.membership_violation(values)
    if bad is not None:
        raise PreconditionError(f"not a subspace member: row {bad} violated")
    matrix = subspace.expand(values)
    decomposition = symmetric_rank_one_decomposition(matrix)
    vectors = decomposition.vectors
    aggregate = [0] * subspace.matrix_side
    for v in vectors:
        for i, bit in enumerate(v):
            aggregate[i] ^= bit
    for idx, eq in enumerate(quad.equations):
        if sum(eq.value(v, quad.basis) for v in vectors) % 2:
            raise InternalConsistencyError(
                f"superposition value of equation {idx} is nonzero"
            )
    return SuperpositionWitness(
        vectors=vectors,
        aggregate=tuple(aggregate),
        matrix_rank=len(subspace.vector(values).independent_sets(subspace.d)),
    )


@record
class RankCertificate:
    """Lower bound on the rank of the expanded matrix of a nonzero
    coordinate vector, read off a minimum-size set with nonzero
    coordinate.  The bound is only guaranteed when half that size fits
    within the matrix degree; `applies` records that."""

    mask: int
    size: int
    bound: int
    applies: bool


def rank_certificate(
    vector: PseudoMomentVector, matrix_degree: int | None = None
) -> RankCertificate | None:
    """None for the zero vector; otherwise the first nonzero coordinate in
    graded order gives a minimum-size set (ties broken lexicographically by
    the basis order) and the bound C(|R|, floor(|R|/2))."""
    d = vector.matrix_degree if matrix_degree is None else matrix_degree
    for mask, value in zip(vector.basis.masks, vector.values):
        if value:
            size = bin(mask).count("1")
            return RankCertificate(
                mask=mask,
                size=size,
                bound=math.comb(size, size // 2),
                applies=(size + 1) // 2 <= d,
            )
    return None
