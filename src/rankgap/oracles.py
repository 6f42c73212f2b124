"""Brute-force ground truth for the reduction pipeline.

Membership is rechecked by other arithmetic than the sparse row sums of
SubspaceSpec.membership_violation: over GF(2) a row's value is the parity
of its hits on the vector's support, with no field operation at all, and
over other fields a dense copy of each distinct row is dotted with the
vector over its support.  Minrank decides every kernel member within an
explicit budget, point isolation solves its defining linear system, and a
sum of points is the GF(2) superset Möbius transform of the assignment,
checked against the equations it must meet.  The pipeline is validated
against these routines, never the other way around.
Every rank and echelon form comes from gflinalg, the kernel in reduced
echelon form, which minrank and point isolation read as it comes.

Minrank goes level by level.  At the full level d, where no nonzero
member has rank 0, rank one is decided from the Boolean points when they
are fewer than the members: there the rank-one members are the multiples
of honest vectors in the space (_honest_member), in V over every field
and in U over GF(2).  Every other level r is decided by a candidate pass:
a member has rank at most r exactly when some space of dimension N - r
annihilates it, which is linear in the kernel coefficients once the space
is fixed, so each candidate space costs one small elimination.  Each
node of the pass, its root included, weighs its solutions against the
candidates below it, and a node whose solutions are no more hands them
to a scan that counts up through their coefficients, which visits the
members in increasing order.  The root's scan holds every member and
settles every level at once: it stops at the first member of rank r, or
else returns the least member of least rank.  The pass and the scan run
in one of three systems, one per engine gflinalg.field_engine gives the
field (_system): packed ints over GF(2), bit planes over GF(3) and GF(2^r) up
to r = 8, int lists through the tables otherwise; each hands out
coefficients that compare as their members do, and all visit the same
members in the same order.  The winning witness is
re-ranked from its coordinates (PseudoMomentVector.independent_sets)
before it is reported, and one from the points is checked against every
row as well.

Budgets are hard limits: when an enumeration would exceed one, the answer
is a refusal (BudgetExceededError), not a subsample.  check_kernel_budget
holds the rule for minrank, which applies it twice before it hashes the
space: to the coordinates its rows leave free, before the rows are
eliminated or any basis is built, and then to the coordinates less the
rank, after the one elimination of the distinct rows and before the
kernel is formed from it.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from itertools import product
from operator import xor

from .boolalg import MonomialBasis, SquarefreePoly, basis_make, basis_size, mask_of
from .errors import BudgetExceededError, InternalConsistencyError, PreconditionError
from .gfarith import make_field
from .gflinalg import (
    FFMatrix,
    PackedEngine,
    PlaneEngine,
    TableEngine,
    _pack_row,
    _unpack_row,
    field_engine,
    packed_rank,
    sparse_pivots,
    sparse_rank,
    table_rank,
)
from .records import record
from .subspace import SubspaceSpec, expansion_positions, honest_moment_vector
from .superposition import MonomialQuadSystem

__all__ = [
    "MembershipReport",
    "MinrankReport",
    "MonomialAssignment",
    "PointSet",
    "SuperpositionReport",
    "check_membership",
    "minrank_bruteforce",
    "point_isolator",
    "subspace_digest",
    "sum_of_points",
    "superposition_check",
]

_GF2 = make_field(2)

# point_isolator refuses systems with more columns than this
_ISOLATION_MONOMIALS = 1 << 16


def subspace_digest(space: SubspaceSpec) -> str:
    """sha256 of the canonical text serialization; names a subspace in
    oracle reports."""
    return hashlib.sha256(space.to_text().encode("utf-8")).hexdigest()


# -- membership ---------------------------------------------------------------


@record
class MembershipReport:
    ok: bool
    violated_row: int | None


def check_membership(values, space: SubspaceSpec) -> MembershipReport:
    """Re-derive membership without the field arithmetic of the sparse row
    evaluations the builders use (SubspaceSpec.membership_violation).  A
    violated row is named where it first appears, as its repeats give the
    same value.

    Over GF(2) every stored coefficient and every nonzero coordinate is 1,
    so a row's value is the parity of how many of its positions lie in the
    vector's support: the support is made a set once, each row's hits on
    it are counted, and no field operation is called.  Over other fields
    each distinct row is expanded to full width on its own, so no dense
    matrix is held, and dotted with the vector over its nonzero
    coordinates."""
    f = space.field
    vec = f.validate_all(values)
    ncols = space.coord_count
    if len(vec) != ncols:
        raise PreconditionError(
            f"vector has {len(vec)} coordinates, the subspace has {ncols}"
        )
    if f.q == 2:
        support = {j for j, v in enumerate(vec) if v}
        for k, row in space.distinct_rows:
            odd = False
            for pos, _ in row:
                if pos in support:
                    odd = not odd
            if odd:
                return MembershipReport(False, k)
        return MembershipReport(True, None)
    support = [(j, v) for j, v in enumerate(vec) if v]
    for k, row in space.distinct_rows:
        dense = [0] * ncols
        for pos, coeff in row:
            dense[pos] = coeff
        acc = 0
        for j, v in support:
            if dense[j]:
                acc = f.add(acc, f.mul(dense[j], v))
        if acc:
            return MembershipReport(False, k)
    return MembershipReport(True, None)


# -- minrank by exhaustion ----------------------------------------------------


@record
class MinrankReport:
    """Outcome of a minrank search over every nonzero kernel member.

    status is "ok", or "empty" when the subspace is {0}.  enumerated counts
    the q^m - 1 nonzero members decided, whether one by one or a level at
    a time.  A search past the budget raises instead of reporting.
    """

    status: str
    subspace_hash: str
    kernel_dimension: int
    enumerated: int
    minrank: int | None = None
    witness: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "subspace_hash": self.subspace_hash,
            "kernel_dimension": self.kernel_dimension,
            "enumerated": self.enumerated,
            "minrank": self.minrank,
            "witness": None if self.witness is None else list(self.witness),
            # always null since refusals raise; kept so report bytes stay fixed
            "required": None,
        }


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


def _subspace_count(n: int, r: int, q: int) -> int:
    """The Gaussian binomial [n, r]_q: how many r-dimensional subspaces
    F_q^n has.  It equals [n, n - r]_q, so it takes the fewer factors."""
    r = min(r, n - r)
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class _PackedSystem:
    """The members over GF(2), named by their kernel coefficients.  An
    equation on the coefficients is a packed int, bit j the coefficient of
    kernel[j], and so is the column of each matrix cell: cell (i, j) of the
    member is the dot product of the coefficients with cells[i][j].  The
    caller orders the kernel so that packed coefficients compare as their
    members do.  A member's rows are packed as gflinalg packs rows, for
    packed_rank: column j of row i at bit len(positions[i]) - 1 - j.

    The candidate pass reads only the cells and the scan only the spots,
    so each is built when first asked for."""

    def __init__(self, field, kernel, positions):
        self.m = len(kernel)
        self._kernel = kernel
        self._positions = positions
        self._kernel_y = [sum(v << c for c, v in enumerate(vec)) for vec in kernel]
        self._coord_count = len(kernel[0])
        self._products = {}

    @cached_property
    def _cells(self):
        columns = [sum(v << b for b, v in enumerate(col)) for col in zip(*self._kernel)]
        return [[columns[c] for c in prow] for prow in self._positions]

    @cached_property
    def _spots(self):
        """Where each coordinate sits in the member's rows: (row, packed
        columns) pairs, from one pass over the cells."""
        spots = [[] for _ in range(self._coord_count)]
        for i, prow in enumerate(self._positions):
            masks = dict.fromkeys(prow, 0)
            bit = 1
            for c in reversed(prow):
                masks[c] |= bit
                bit <<= 1
            for c, mask in masks.items():
                spots[c].append((i, mask))
        return spots

    def products(self, p):
        """The equations p . M(coefficients) = 0, one per column, built once
        per vector p."""
        rows = self._products.get(p)
        if rows is None:
            rows = [0] * len(self._cells)
            for i, v in enumerate(p):
                if v:
                    rows = list(map(xor, rows, self._cells[i]))
            self._products[p] = rows
        return rows

    def extend(self, pivots, p):
        """The elimination state with p's equations added, or None once only
        the zero coefficient vector solves them.  Pivots are keyed by their
        lowest bit, not by packed_rank's top bit: solutions() counts up in
        member order only because each pivot bit is fixed by higher bits."""
        pivots = dict(pivots)
        for row in self.products(p):
            while row:
                low = row & -row
                other = pivots.get(low)
                if other is None:
                    if len(pivots) == self.m - 1:
                        return None
                    pivots[low] = row
                    break
                row ^= other
        return pivots

    def solutions(self, pivots):
        """The echelon basis of the solutions, lowest free column first: for
        each free column the solution that is 1 there and 0 at every other
        free column, completed by back-substitution from the highest pivot
        down.  The first is the least nonzero solution, and counting up
        through the basis visits their combinations in increasing order,
        since a solution's pivot bits follow from its higher bits."""
        order = sorted(pivots, reverse=True)
        for free in range(self.m):
            x = bit = 1 << free
            if bit in pivots:
                continue
            for low in order:
                if low < bit and (pivots[low] & x).bit_count() & 1:
                    x |= low
            yield x

    def scan(self, basis, lo, hi=None):
        """(rank, coefficients) of the least member of least rank among the
        nonzero combinations of basis, a list of solutions in the order
        solutions() gives them; lo is a rank no member goes below, and
        with hi only ranks up to hi count, (hi + 1, None) when no member
        has one.  Counting c up walks the combinations in order.  The step
        c - 1 -> c flips bits 0..t, t the trailing zeros of c, so the
        member's rows change by the XOR of the expansions of basis vectors
        0..t, each the sum of its coordinates' spots.  The first member
        found at a rank is the least of that rank, so each test asks for a
        lower one, and a member of rank lo ends the walk."""
        flips, rows, step = [], [0] * len(self._positions), 0
        for b in basis:
            rows = rows[:]
            y = self._y(b)
            while y:
                low = y & -y
                for i, mask in self._spots[low.bit_length() - 1]:
                    rows[i] ^= mask
                y ^= low
            step ^= b
            flips.append((rows, step))
        best_rank, best = (len(rows) if hi is None else hi) + 1, None
        rows, x = [0] * len(rows), 0
        for c in range(1, 1 << len(basis)):
            flip, step = flips[(c & -c).bit_length() - 1]
            rows = list(map(xor, rows, flip))
            x ^= step
            rank = packed_rank(rows, best_rank - 1)
            if rank is not None:
                best_rank, best = rank, x
                if rank == lo:
                    break
        return best_rank, best

    def _y(self, coefficients):
        y = 0
        for j, vec in enumerate(self._kernel_y):
            if coefficients >> j & 1:
                y ^= vec
        return y

    def member(self, coefficients):
        y = self._y(coefficients)
        return tuple((y >> c) & 1 for c in range(self._coord_count))


class _TableSystem:
    """The members over any field, as int lists eliminated through the
    field's tables; cells[i][j] lists the kernel vectors' values at cell
    (i, j).  Coefficients are handed out reversed, last one first, so that
    they compare as their members do."""

    def __init__(self, field, kernel, positions):
        self.m = len(kernel)
        self._q = field.q
        self._tables = field.tables()
        columns = list(zip(*kernel))
        self._cells = [[columns[c] for c in prow] for prow in positions]
        self._positions = positions
        self._kernel = kernel
        self._products = {}

    def products(self, p):
        rows = self._products.get(p)
        if rows is None:
            add, _, mul, _ = self._tables
            rows = [[0] * self.m for _ in self._cells]
            for i, v in enumerate(p):
                if v:
                    scale = mul[v]
                    rows = [
                        [add[a][scale[c]] for a, c in zip(row, cell)]
                        for row, cell in zip(rows, self._cells[i])
                    ]
            self._products[p] = rows
        return rows

    def extend(self, pivots, p):
        pivots = dict(pivots)
        if table_rank(self._tables, self.products(p), self.m - 1, pivots) is None:
            return None
        return pivots

    def solutions(self, pivots):
        """As _PackedSystem.solutions."""
        add, sub, mul, _ = self._tables
        order = sorted(pivots, reverse=True)
        for free in range(self.m):
            if free in pivots:
                continue
            x = [0] * self.m
            x[free] = 1
            for col in order:
                if col < free:
                    acc = 0
                    for a, v in zip(pivots[col][col + 1:free + 1], x[col + 1:free + 1]):
                        acc = add[acc][mul[a][v]]
                    x[col] = sub[0][acc]
            yield tuple(reversed(x))

    def scan(self, basis, lo, hi=None):
        """As _PackedSystem.scan, over the members _count_up visits.  Each
        expansion cell copies one coordinate, so a digit change rewrites
        only the cells of the coordinates its basis vector's member
        touches."""
        tables = self._tables
        add, sub, mul, _ = tables
        y = [0] * len(self._kernel[0])
        rows = [[0] * len(prow) for prow in self._positions]
        cells = [[] for _ in y]
        for row, prow in zip(rows, self._positions):
            for j, c in enumerate(prow):
                cells[c].append((row, j))
        support = [[(c, v) for c, v in enumerate(self.member(b)) if v] for b in basis]
        best_rank, best = (len(rows) if hi is None else hi) + 1, None
        for digits, moves in _count_up(self._q, len(basis)):
            for b, old, new in moves:
                scale = mul[sub[new][old]]
                for c, v in support[b]:
                    value = y[c] = add[y[c]][scale[v]]
                    for row, j in cells[c]:
                        row[j] = value
            rank = table_rank(tables, rows, best_rank - 1)
            if rank is not None:
                best_rank, best = rank, self._combine(digits, basis)
                if rank == lo:
                    break
        return best_rank, best

    def _combine(self, coefficients, vectors):
        add, _, mul, _ = self._tables
        x = [0] * len(vectors[0])
        for v, vec in zip(coefficients, vectors):
            if v:
                scale = mul[v]
                x = [add[a][scale[c]] for a, c in zip(x, vec)]
        return tuple(x)

    def member(self, coefficients):
        return self._combine(reversed(coefficients), self._kernel)


class _PlaneSystem:
    """The members over GF(3) and GF(2^r), r <= 8, as gflinalg's rows of
    bit planes.  An equation on the coefficients is such a row, its column
    c the coefficient of kernel[c]; coefficients are handed out as
    _TableSystem hands them out, tuples reversed, so that they compare as
    their members do.

    For the candidate pass, row i of H is one row of planes over its side
    cells, cell j holding at columns j·m .. j·m + m - 1 the kernel vectors'
    values at its coordinate, kept with its multiples: p · M(coefficients)
    is one plane addition per nonzero p_i, cut into the side equations.
    The scan holds its member as one row of planes over all side² cells,
    row i of H at bits (side - 1 - i)·side up, so a digit change is one
    plane addition of a multiple of its basis vector's expansion, and each
    rank test runs on the side rows cut from the planes."""

    def __init__(self, field, kernel, positions):
        self.m = len(kernel)
        self._engine = field_engine(field)
        self._sub = field.tables()[1]
        self._kernel = kernel
        self._positions = positions
        self._products = {}

    @cached_property
    def _cells(self):
        engine, m = self._engine, self.m
        columns = [engine.pack(column) for column in zip(*self._kernel)]
        shifts = range((len(self._positions) - 1) * m, -1, -m)
        return [
            engine.multiples(tuple(
                sum(plane << s for plane, s in zip(planes, shifts))
                for planes in zip(*(columns[c] for c in prow))
            ))
            for prow in self._positions
        ]

    @cached_property
    def _kernel_multiples(self):
        engine = self._engine
        return [engine.multiples(engine.pack(vec)) for vec in self._kernel]

    @cached_property
    def _expansions(self):
        """Each kernel vector's member, expanded over the side² cells, with
        its multiples."""
        engine = self._engine
        cells = [c for prow in self._positions for c in prow]
        return [engine.multiples(engine.pack([vec[c] for c in cells])) for vec in self._kernel]

    def products(self, p):
        """The equations p . M(coefficients) = 0, side by side in one row of
        planes, built once per vector p."""
        total = self._products.get(p)
        if total is None:
            add = self._engine.add
            total = (0,) * self._engine.count
            for cell, v in zip(self._cells, p):
                if v:
                    total = add(total, cell[v])
            self._products[p] = total
        return total

    def extend(self, pivots, p):
        """As _PackedSystem.extend, with gflinalg's plane pivots."""
        pivots, m = dict(pivots), self.m
        shifts = range((len(self._positions) - 1) * m, -1, -m)
        if self._engine.rank_cut(self.products(p), shifts, (1 << m) - 1, m - 1, pivots) is None:
            return None
        return pivots

    def solutions(self, pivots):
        """As _TableSystem.solutions, the dot products on planes: for each
        free column, x[c] = -(pivot row c · x) at each pivot column c left
        of it, the highest first."""
        engine, m = self._engine, self.m
        dot, sub, at, neg = engine.dot, engine.sub, engine.at, engine.neg
        order = sorted(pivots)
        for free in range(m):
            top = m - free
            if top in pivots:
                continue
            x = at(1, top - 1)
            values = [0] * m
            values[free] = 1
            for t in order:
                if t > top:
                    v = dot(pivots[t][1], x)
                    if v:
                        x = sub(x, at(v, t - 1))
                        values[m - t] = neg[v]
            yield tuple(reversed(values))

    def scan(self, basis, lo, hi=None):
        """As _TableSystem.scan."""
        engine, sub = self._engine, self._sub
        add, rank = engine.add, engine.rank_cut
        side = len(self._positions)
        steps = [engine.multiples(self._combine(reversed(b), self._expansions)) for b in basis]
        basis_multiples = [engine.multiples(engine.pack(b)) for b in basis]
        mask = (1 << side) - 1
        shifts = range((side - 1) * side, -1, -side)
        member = (0,) * engine.count
        best_rank, best = (side if hi is None else hi) + 1, None
        for digits, moves in _count_up(len(sub), len(basis)):
            for b, old, new in moves:
                member = add(member, steps[b][sub[new][old]])
            ranked = rank(member, shifts, mask, best_rank - 1)
            if ranked is not None:
                best_rank, best = ranked, engine.unpack(self._combine(digits, basis_multiples), self.m)
                if ranked == lo:
                    break
        return best_rank, best

    def _combine(self, coefficients, multiples):
        add = self._engine.add
        total = (0,) * self._engine.count
        for v, mults in zip(coefficients, multiples):
            if v:
                total = add(total, mults[v])
        return total

    def member(self, coefficients):
        combined = self._combine(reversed(coefficients), self._kernel_multiples)
        return self._engine.unpack(combined, len(self._kernel[0]))


_SYSTEMS = {PackedEngine: _PackedSystem, PlaneEngine: _PlaneSystem, TableEngine: _TableSystem}


def _count_up(q: int, count: int):
    """The walk of the scans over GF(q): counting up the coefficients of
    count basis vectors as base-q digits, first basis vector fastest,
    through only those whose last nonzero digit is 1.  λy has y's rank,
    and the y with leading coefficient 1 is the least of its multiples.
    Yields each combination's digits, with the moves (b, old, new) that
    changed digit b from old to new since the last one."""
    top = q - 1
    digits = [1] + [0] * (count - 1)
    lead = 0
    moves = [(0, 0, 1)]
    while True:
        yield digits, moves
        # digits at the top below the lead wrap to 0 and carry; a carry
        # into the lead clears it and sets the next digit to 1
        moves = []
        b = 0
        while b < lead and digits[b] == top:
            digits[b] = 0
            moves.append((b, top, 0))
            b += 1
        if b == lead:
            digits[b] = 0
            moves.append((b, 1, 0))
            b = lead = lead + 1
            if lead == count:
                return
        moves.append((b, digits[b], digits[b] + 1))
        digits[b] += 1


def _system(field):
    """The system that searches a field's members, on the engine gflinalg
    eliminates over the field with."""
    return _SYSTEMS[type(field_engine(field))]


def _candidates(q: int, side: int, k: int, t: int, first: int) -> int:
    """How many candidates of k rows grow from a node of the candidate
    pass that has taken t rows, the last with its pivot at first: the
    k - t rows still to come form one of [first, k - t]_q echelon forms
    left of first, and each is free on the side - first - t columns right
    of first that no pivot takes.  At the root, t = 0 and first = side,
    this is [side, k]_q = [side, side - k]_q.

    The pass weighs this count against a node's members one for one,
    since one candidate costs about one member rank test of the scan:
    measured per candidate, pruning included (Python 3.11, 2 cores), on
    direct instances with N = 5 to 7 over GF(2), GF(3) and GF(4), 0.04 to
    0.7 at levels 2 and 3, where the choice falls, and 0.4 to 10 at level
    1, which has a few hundred candidates at most."""
    return _subspace_count(first, k - t, q) * q ** ((k - t) * (side - first - t))


def _candidate_pass(system, q: int, side: int, r: int):
    """(rank, coefficients) of the least member of least rank, in the
    system's form, when some member has rank at most r, and (r, None)
    when none does.  No member may rank below r: the caller has ruled the
    lower ranks out.

    A symmetric side x side member has rank at most r exactly when some
    (side - r)-dimensional P has P . M = 0, which is linear in the kernel
    coefficients.  Each P is visited once, as its reduced echelon rows,
    grown from the last row up: a new row's pivot lies left of every
    pivot so far, and the row is zero there and at those pivots.  Rows
    only add equations, so a partial P is pruned with everything grown
    from it once they force the zero vector, or once its least solution
    is no less than the best found.

    A node whose solutions S are no more than the candidates below it
    scans S's members instead, in increasing order.  At the root S holds
    every member, so its scan has no upper bound and its answer, the
    least member of least rank, is the pass's, whatever that rank.
    Below the root the scan stops at the first member of rank at most r,
    which it offers as a leaf offers its least solution.  That keeps the
    answer: whatever the subtree could offer lies in S and has rank at
    most r, so the scan's member is no greater, and it is a real member
    of rank at most r (exactly r, since none ranks lower).
    """
    k = side - r
    best_rank, best = r, None

    def grow(pivots, taken, first):
        nonlocal best_rank, best
        least = next(system.solutions(pivots))
        if best is not None and not least < best:
            return
        t = len(taken)
        if t == k:
            best = least
            return
        if q ** (system.m - len(pivots)) - 1 <= _candidates(q, side, k, t, first):
            rank, found = system.scan(list(system.solutions(pivots)), r, r if t else None)
            if found is not None and (best is None or found < best):
                best_rank, best = rank, found
            return
        for j in range(k - t - 1, first):
            free = [c for c in range(j + 1, side) if c not in taken]
            for values in product(range(q), repeat=len(free)):
                p = [0] * side
                p[j] = 1
                for c, v in zip(free, values):
                    p[c] = v
                child = system.extend(pivots, tuple(p))
                if child is not None:
                    grow(child, taken | {j}, j)

    grow({}, frozenset(), side)
    return best_rank, best


def _honest_member(space: SubspaceSpec):
    """The least honest vector h(z) in the space, z a Boolean point (not 0
    in U), or None when it holds none.  z passes when every distinct row
    sums to 0 over its terms whose masks lie inside z: that sum is the
    row's value at h(z).  The points go in lexicographic order of their
    bits, which is the order of their honest vectors, since in both
    variants the coordinates start with the singletons (after the empty
    set, 1 throughout, in V) and the rest are products of them.  The row
    that refuted the last point is tried first on the next: a point passes
    only when every row vanishes, so the order of the rows does not change
    the answer, and a row that refutes one point tends to refute the next.

    At level d the nonzero members of rank one are exactly the multiples
    λh(z) in the space, in the two cases this is called for.  Each
    coordinate R is an entry of H_d(y), at (S, T) for two halves of R of
    at most d elements each.  λh_d h_d^T has rank one, so it is enough
    that a rank-one H_d(y) is such a multiple.
    - V, any field: H_d(y) = λuu^T with λ ≠ 0.  Were u_∅ = 0, row ∅
      would give y_S = 0, so λu_S^2 = 0 on the diagonal and u = 0.  So
      scale u so that u_∅ = 1.  Then y_S = λu_S from row ∅ and
      y_S = λu_S^2 on the diagonal, so u_S is 0 or 1, and for A ∪ B in
      the family entry (A, B) against entry (∅, A ∪ B) gives
      u_{A∪B} = u_A·u_B.  With z_i = u_{i}, u_S is the product of z over
      S, and y_R = λu_S·u_T = λh(z)_R.
    - U over GF(2): H_d(y) = uu^T.  The diagonal gives y_S = u_S, so
      y_{S∪T} = y_S·y_T, and y_R is the product of z_i = y_{i} over R:
      y = h(z), with z ≠ 0 since y ≠ 0.
    The least multiple has λ = 1 in V, where its first coordinate is λ.
    U over larger fields falls outside: over GF(3), n = 1, d = 1, the
    member y = (1, 1, 2) has H_1(y) = [[1, 2], [2, 1]] = uu^T for
    u = (1, 2), and y is no multiple of an honest vector.
    """
    add = space.field.tables()[0]
    masks = space.coords.masks
    rows = [[(masks[pos], coeff) for pos, coeff in row] for _, row in space.distinct_rows]
    symbols = range(space.n + 1) if space.variant == "U" else range(1, space.n + 1)
    for bits in product((0, 1), repeat=len(symbols)):
        outside = ~mask_of(i for i, b in zip(symbols, bits) if b)
        if outside == -1 and space.variant == "U":
            continue  # h(0) is the zero vector in U
        for k, row in enumerate(rows):
            acc = 0
            for mask, coeff in row:
                if not mask & outside:
                    acc = add[acc][coeff]
            if acc:
                if k:
                    rows.insert(0, rows.pop(k))
                break
        else:
            return honest_moment_vector(space.field, bits, space.n, 2 * space.d, space.variant).values
    return None


def minrank_bruteforce(
    space: SubspaceSpec,
    level: int | None = None,
    budget: int = 1 << 20,
) -> MinrankReport:
    """Minimum rank of the level-d expansion over every nonzero member.

    Raises BudgetExceededError when q^m exceeds the budget, m the kernel
    dimension, before the space is hashed.  A space whose coordinates
    outnumber its distinct rows by more than the budget allows is refused
    before its kernel or any basis is built, since a row and its repeats
    take at most one dimension off the kernel; the refusal names the exact
    dimension all the same.  Otherwise the distinct rows are eliminated
    once (gflinalg.sparse_pivots): the rank alone decides the refusal, and
    only a kernel within the budget is back-substituted from the same
    pivots.  Then every one of the q^m - 1 nonzero members is decided, and
    enumerated counts them.
    Ranks r are decided in turn, from 0 below level d and from 1 at it,
    where only the zero vector has rank 0.  At level d, in V and in U over
    GF(2), rank one goes to _honest_member when the points are fewer than
    the members; its witness is the least rank-one member, and when it
    finds none the search goes on from rank 2.  Every other rank goes to
    _candidate_pass, which rules it out or returns the least member of
    least rank, the rank r or, when its root scans, any rank from r up.
    Both name members by their coefficients, which compare as the
    members' coordinates do, so the witness is the lexicographically
    smallest coordinate vector among the rank minimizers whichever
    decides.  The layout of H and the system are built only when the pass
    runs, from the kernel in its reduced echelon form, as extracted.  The
    search runs in one process.
    """
    if level is None:
        level = space.d
    if not 0 <= level <= space.d:
        raise PreconditionError(f"expansion level {level} is outside 0..{space.d}")
    if budget < 1:
        raise PreconditionError("budget must be positive")
    field = space.field
    q = field.q
    ncoords = space.coord_count
    rows = [row for _, row in space.distinct_rows]
    check_kernel_budget(q, ncoords - len(rows), budget, lambda: ncoords - sparse_rank(field, rows))
    pivots = sparse_pivots(field, rows, ncoords)
    m = ncoords - len(pivots)
    check_kernel_budget(q, m, budget)
    kernel = space.kernel_basis(pivots)
    digest = subspace_digest(space)
    if m == 0:
        return MinrankReport("empty", digest, 0, 0)
    total = q**m
    best_rank, witness = 0, None
    if level == space.d:
        # every coordinate is an entry of H_d(y), so only 0 has rank 0
        best_rank = 1
        points = 1 << space.n if space.variant == "V" else (2 << space.n) - 1
        if (space.variant == "V" or q == 2) and points < total - 1:
            witness = _honest_member(space)
            if witness is None:
                best_rank = 2
            else:
                violated = space.membership_violation(witness)
                if violated is not None:
                    raise InternalConsistencyError(
                        f"the points' witness violates constraint row {violated}"
                    )
    if witness is None:
        # in reduced echelon form, the kernel coefficients order the members
        # the way their coordinates do, the first coefficient deciding first;
        # the systems eliminate from column 0, so they take the rows reversed
        positions = expansion_positions(space.coords, basis_make(space.n, level, space.variant).masks)
        side = len(positions)
        system = _system(field)(field, kernel[::-1], positions)
        least = None
        while least is None:
            best_rank, least = _candidate_pass(system, q, side, best_rank)
            if least is None:
                best_rank += 1
        witness = system.member(least)
    checked = len(space.vector(witness).independent_sets(level))
    if checked != best_rank:
        raise InternalConsistencyError(
            f"the search ranked its witness {best_rank}, its expansion has rank {checked}"
        )
    return MinrankReport("ok", digest, m, total - 1, minrank=best_rank, witness=witness)


# -- superposition ------------------------------------------------------------


@record
class SuperpositionReport:
    ok: bool
    violated_equation: int | None


def superposition_check(assignments, quad: MonomialQuadSystem) -> SuperpositionReport:
    """Per-equation sum of evaluations over GF(2) across the whole family.

    Evaluates each equation with its own loop over the stored terms; does
    not share code with the decomposition that produced the family.
    """
    basis = quad.basis
    taus = []
    for t, a in enumerate(assignments):
        tau = tuple(a)
        if len(tau) != len(basis):
            raise PreconditionError(
                f"assignment {t} has {len(tau)} entries, the monomial basis has {len(basis)}"
            )
        for v in tau:
            if v not in (0, 1):
                raise PreconditionError(f"assignment {t} has a non-bit entry {v!r}")
        taus.append(tau)
    for idx, eq in enumerate(quad.equations):
        acc = 0
        for tau in taus:
            val = 0
            for left, right, _ in eq.quad:
                val ^= tau[basis.rank(left)] & tau[basis.rank(right)]
            for mono, _ in eq.linear:
                val ^= tau[basis.rank(mono)]
            acc ^= val
        if acc:
            return SuperpositionReport(False, idx)
    return SuperpositionReport(True, None)


# -- points and monomial assignments ------------------------------------------


@record
class PointSet:
    """Finite subset of GF(2)^{n+1}, stored sorted."""

    n: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise PreconditionError("need n >= 0")
        seen = set()
        for p in self.points:
            if len(p) != self.n + 1:
                raise PreconditionError(
                    f"point {p!r} does not have {self.n + 1} coordinates"
                )
            if any(v not in (0, 1) for v in p):
                raise PreconditionError(f"point {p!r} has non-bit entries")
            if p in seen:
                raise PreconditionError(f"point {p!r} appears twice")
            seen.add(p)
        object.__setattr__(self, "points", tuple(sorted(self.points)))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point) -> bool:
        return tuple(point) in set(self.points)


def _point_ones(point) -> int:
    return mask_of(i for i, v in enumerate(point) if v)


@record
class MonomialAssignment:
    """GF(2) value for every monomial of degree 1..d over x_0..x_n.

    The empty monomial is pinned to 1 and not stored.
    """

    n: int
    d: int
    values: tuple[int, ...]

    def __post_init__(self):
        want = basis_size(self.n, self.d, "U")
        if len(self.values) != want:
            raise PreconditionError(
                f"degree-{self.d} assignment over {self.n + 1} variables needs "
                f"{want} values, got {len(self.values)}"
            )
        if any(v not in (0, 1) for v in self.values):
            raise PreconditionError("assignment values must be bits")

    @property
    def basis(self) -> MonomialBasis:
        return basis_make(self.n, self.d, "U")

    def value(self, mask: int) -> int:
        if mask == 0:
            return 1
        return self.values[self.basis.rank(mask)]


# -- point isolation ----------------------------------------------------------


def _support_lex_min(particular: int, kernel: list[int]) -> int:
    """Pick, from the affine solution set particular + span(kernel) of a
    system A x = b, the vector whose support sequence (sorted list of
    nonzero positions) is lexicographically smallest.

    Vectors are packed with position j at bit j, particular is
    FFMatrix.solve's solution and kernel the reduced echelon basis.  Scans
    positions left to right, and stops once the rest of the vector, its
    bits from there up, is zero; until then it takes a nonzero entry
    whenever one is available, which is when the first kernel vector not
    yet used has the position's bit.

    Stopping at position j is right when the rest t of the vector p lies
    in the kernel (p - t then solves A x = b), and from solve's start t is
    then 0.  Proof: solve sets the free variables to zero, so particular
    lies on the pivot columns, the columns c_i of A outside the span of
    c_0..c_(i-1), and those left of j are a basis of that prefix's span.
    t in the kernel puts b = A (p - t) in that span, so particular, b's
    one expression in the pivot columns, is 0 from j up.  p is particular plus kernel vectors led left of j, each 0
    at the other vectors' leading positions, so t is 0 at every leading
    position, and a kernel vector that is, is 0.  From another solution t
    can be a nonzero kernel vector.
    """
    p, bit, ks = particular, 1, iter(kernel)
    lead = next(ks, 0)
    while p & -bit:
        if lead & bit:
            if not p & bit:
                p ^= lead
            lead = next(ks, 0)
        bit <<= 1
    return p


def point_isolator(points: PointSet, target, rho: int) -> SquarefreePoly:
    """Multilinear q over GF(2) with deg(q) <= rho, q(target) = 1, and
    q = 0 on the rest of the point set.  Needs |points| < 2^rho.

    Among all isolators the one with the lexicographically smallest
    support sequence (monomials in graded order) is returned, read off the
    kernel in the reduced echelon form it comes in.  That kernel takes
    about the square of the monomial count in bits, so a count past
    _ISOLATION_MONOMIALS is refused (BudgetExceededError) before any basis
    is built.
    """
    a = tuple(target)
    if a not in points:
        raise PreconditionError("the target point is not in the point set")
    if rho < 0:
        raise PreconditionError("need rho >= 0")
    if len(points).bit_length() > rho:
        raise PreconditionError(
            f"isolation needs |T| < 2^rho: got {len(points)} points at rho={rho}"
        )
    n = points.n
    degree = min(rho, n + 1)
    width = basis_size(n, degree, "U") + 1
    if width > _ISOLATION_MONOMIALS:
        raise BudgetExceededError(
            f"isolation at degree {degree} over {n + 1} variables needs {width} monomials, "
            f"at most {_ISOLATION_MONOMIALS} are allowed"
        )
    monomials = [0] + list(basis_make(n, degree, "U").masks)
    rows = [(1, *honest_moment_vector(_GF2, b, n, degree, "U").values) for b in points]
    targets = [1 if b == a else 0 for b in points]
    system = FFMatrix(_GF2, rows, ncols=width)
    particular = system.solve(targets)
    if particular is None:
        raise InternalConsistencyError(
            "the isolation system is infeasible, which the size bound rules out"
        )
    chosen = _support_lex_min(_pack_row(particular[::-1]), system.kernel_basis(packed=True))
    coeffs = {mask: 1 for mask, v in zip(monomials, _unpack_row(chosen, width)[::-1]) if v}
    q = SquarefreePoly(_GF2, coeffs)
    if q.degree > rho:
        raise InternalConsistencyError("isolator degree escaped the bound")
    for b in points:
        if q.evaluate(b) != (1 if b == a else 0):
            raise InternalConsistencyError("isolator fails on the point set")
    return q


# -- sums of point evaluations ------------------------------------------------


def sum_of_points(sigma: MonomialAssignment, budget: int = 1 << 20) -> PointSet:
    """A point set whose evaluation sums reproduce the assignment on every
    monomial of degree <= d (and 1 on the empty monomial).

    Point b is in the set when the sum of sigma over the monomials S ⊇ b
    is 1, sigma taken as 0 above degree d: the GF(2) superset Möbius
    transform, whose inverse is itself, so the sum over the points b ⊇ S
    gives back sigma(S).  Points with more than d ones are never in it.
    The result always has odd size: the empty monomial forces it.
    """
    n = sigma.n
    npoints = 1 << (n + 1)
    if npoints > budget:
        raise BudgetExceededError(
            f"the transform over GF(2)^{n + 1} needs {npoints} indicator columns, "
            f"budget allows {budget}"
        )
    indicator = [0] * npoints
    indicator[0] = 1
    for mask, value in zip(sigma.basis.masks, sigma.values):
        indicator[mask] = value
    for i in range(n + 1):
        bit = 1 << i
        for b in range(npoints):
            if not b & bit:
                indicator[b] ^= indicator[b | bit]
    beta = PointSet(
        n, tuple(tuple(b >> i & 1 for i in range(n + 1)) for b, v in enumerate(indicator) if v)
    )
    masks = [0] + list(sigma.basis.masks)
    for mask in masks:
        acc = 0
        for b in beta:
            if mask & ~_point_ones(b) == 0:
                acc ^= 1
        if acc != sigma.value(mask):
            raise InternalConsistencyError("returned point set fails to reproduce the assignment")
    if len(beta) % 2 == 0:
        raise InternalConsistencyError("point set has even size despite the pinned empty monomial")
    return beta
