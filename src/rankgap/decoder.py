"""Rounding a low-rank pseudo-moment vector back to a Boolean point.

The pipeline follows the soundness proof of the direct construction as a
sequence of executable steps, each of which re-verifies the fact the
argument relies on:

  1. level ranks: r_e = rank H_e(y) for e = 0..d, nondecreasing, read
     with their labels by PseudoMomentVector.independent_sets;
  2. flat level: the first e with r_e = r_{e+1} > 0, guaranteed to exist
     whenever H_d(y) is nonzero with rank at most d;
  3. multiplication operators: on the level-e column space, T_i maps the
     column of B to the column of B with i adjoined; the matrices come out
     of one consistent linear solve at level e+1 and must be idempotent,
     pairwise commuting, and annihilated by every source equation, checked
     on products formed once;
  4. common eigenvector: split the space variable by variable into kernel
     and image parts (image preferred when both are nonzero), ending with
     a joint eigenvector whose eigenvalue tuple is the Boolean point.

Facts the underlying lemmas promise are checked at runtime; a violation
raises InternalConsistencyError because it can only mean a bug, not bad
input.  Bad input (a non-member, rank above the degree) fails fast with
PreconditionError instead.
"""

from __future__ import annotations


from .boolalg import indices_of
from .errors import InternalConsistencyError, PreconditionError
from .frontends import QuadSystemSource
from .gfarith import FieldSpec
from .gflinalg import FFMatrix, independent_rows
from .moment import build_moment_subspace
from .records import record
from .subspace import PseudoMomentVector

__all__ = [
    "LevelRankProfile",
    "MultiplicationOperators",
    "DecodeReport",
    "level_ranks",
    "find_flat_level",
    "multiplication_operators",
    "common_eigenvector",
    "decode_assignment",
]


@record
class LevelRankProfile:
    """Ranks r_0..r_d of the level matrices, with the lexicographically
    first independent column labels at each level."""

    ranks: tuple[int, ...]
    pivot_labels: tuple[tuple[int, ...], ...]

    @property
    def top_rank(self) -> int:
        return self.ranks[-1]


def level_ranks(vector: PseudoMomentVector, d: int) -> LevelRankProfile:
    """Rank H_e(y) for e = 0..d.  The profile must come out nondecreasing;
    anything else is an internal failure since each level matrix is a
    corner of the next."""
    if d < 0 or 2 * d > vector.basis.degree:
        raise PreconditionError(
            f"profile up to level {d} needs coordinates of degree {2 * d}, "
            f"have {vector.basis.degree}"
        )
    labels = tuple(vector.independent_sets(e) for e in range(d + 1))
    ranks = [len(sets) for sets in labels]
    for a, b in zip(ranks, ranks[1:]):
        if a > b:
            raise InternalConsistencyError(f"rank profile {ranks} decreases")
    return LevelRankProfile(ranks=tuple(ranks), pivot_labels=labels)


def find_flat_level(profile: LevelRankProfile) -> int | None:
    """Smallest e with r_e = r_{e+1} > 0, or None."""
    for e in range(len(profile.ranks) - 1):
        if profile.ranks[e] == profile.ranks[e + 1] > 0:
            return e
    return None


@record
class MultiplicationOperators:
    """Matrices T_1..T_n acting on the flat-level column space in the
    pivot-column basis: T_i sends the column of B to the column of
    B with i adjoined."""

    field: FieldSpec
    n: int
    flat_level: int
    labels: tuple[int, ...]
    operators: tuple[FFMatrix, ...]

    @property
    def dimension(self) -> int:
        return len(self.labels)


def multiplication_operators(
    vector: PseudoMomentVector, e: int, src: QuadSystemSource
) -> MultiplicationOperators:
    """Solve for the operators at level e+1 and verify the three identity
    families: idempotence, commutation, and annihilation by every source
    equation.

    Flatness of e is rechecked here.  Solve inconsistency or identity
    violations raise InternalConsistencyError: both are impossible for a
    member vector at a genuine flat level.
    """
    field = vector.field
    if src.field != field:
        raise PreconditionError("vector and source system live over different fields")
    if src.n != vector.n:
        raise PreconditionError(f"vector has n={vector.n}, source n={src.n}")
    if vector.variant != "V":
        raise PreconditionError("operators are defined for V-variant coordinates")
    if e < 0 or 2 * (e + 1) > vector.basis.degree:
        raise PreconditionError(f"level {e}+1 is beyond the stored coordinates")
    labels = vector.independent_sets(e)
    r_next = len(vector.independent_sets(e + 1))
    if not (len(labels) == r_next > 0):
        raise PreconditionError(
            f"level {e} is not flat: ranks are {len(labels)} and {r_next}"
        )
    # basis columns one level up; they stay independent there, so the
    # coefficients below are unique
    base_cols = [vector.truncated_column(b, e + 1) for b in labels]
    base = FFMatrix.from_columns(field, base_cols)
    # the targets of T_1, then those of T_2, ...: r columns per variable
    r = len(labels)
    solved = base.solve_columns([
        vector.truncated_column(b | 1 << i, e + 1)
        for i in range(1, vector.n + 1)
        for b in labels
    ])
    if solved is None:
        raise InternalConsistencyError("a variable's column left the flat-level span")
    ops = MultiplicationOperators(
        field=field,
        n=vector.n,
        flat_level=e,
        labels=labels,
        operators=tuple(
            FFMatrix.from_columns(field, solved[k : k + r])
            for k in range(0, len(solved), r)
        ),
    )
    _verify_operator_identities(ops, src)
    return ops


def _verify_operator_identities(
    ops: MultiplicationOperators, src: QuadSystemSource
) -> None:
    """Check idempotence, commutation and annihilation by every source
    equation.  Each product is formed once, into a table from monomial mask
    to operator: the identity at 0, T_i at bit i and T_iT_j at the pair,
    which covers every term since a source equation has degree at most 2."""
    f = ops.field
    dim = ops.dimension
    table = {0: FFMatrix.identity(f, dim)}
    for i, t in enumerate(ops.operators, start=1):
        if t @ t != t:
            raise InternalConsistencyError(f"operator {i} is not idempotent")
        table[1 << i] = t
    for i, a in enumerate(ops.operators, start=1):
        for j, b in enumerate(ops.operators[i:], start=i + 1):
            ab = a @ b
            if ab != b @ a:
                raise InternalConsistencyError(
                    f"operators {i} and {j} do not commute"
                )
            table[1 << i | 1 << j] = ab
    for idx, eq in enumerate(src.equations):
        acc = [0] * (dim * dim)
        for mask, coeff in eq.terms():
            entries = (v for row in table[mask].rows for v in row)
            for k, v in enumerate(entries):
                if v:
                    acc[k] = f.add(acc[k], f.mul(coeff, v))
        if any(acc):
            raise InternalConsistencyError(
                f"source equation {idx} does not annihilate the operators"
            )


def common_eigenvector(
    ops: MultiplicationOperators,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A joint eigenvector of commuting idempotents and its 0/1 eigenvalue
    tuple.

    Iterates over the variables, replacing the current space by its image
    part under T_i when that is nonzero (eigenvalue 1) and by its kernel
    part otherwise (eigenvalue 0).  Both parts are spanned inside the
    current space by T_i b respectively b - T_i b over basis vectors b,
    thanks to idempotence.
    """
    if ops.dimension == 0:
        raise PreconditionError("the operator space is zero-dimensional")
    f = ops.field
    basis = [
        tuple(1 if i == j else 0 for j in range(ops.dimension))
        for i in range(ops.dimension)
    ]
    values = []
    for t in ops.operators:
        images = [t.mat_vec(b) for b in basis]
        picked = [images[k] for k in independent_rows(f, images)]
        if picked:
            basis = picked
            values.append(1)
            continue
        residues = [
            tuple(f.sub(bv, iv) for bv, iv in zip(b, img))
            for b, img in zip(basis, images)
        ]
        basis = [residues[k] for k in independent_rows(f, residues)]
        values.append(0)
        if not basis:
            raise InternalConsistencyError(
                "kernel and image parts both vanished on a nonzero space"
            )
    v = basis[0]
    for t, a_i in zip(ops.operators, values):
        expect = tuple(f.mul(a_i, x) for x in v)
        if t.mat_vec(v) != expect:
            raise InternalConsistencyError("claimed eigenvector fails its eigenvalue")
    return v, tuple(values)


@record
class DecodeReport:
    """What the rounding pipeline did, stage by stage."""

    ok: bool
    assignment: tuple[int, ...] | None
    profile: LevelRankProfile
    flat_level: int | None
    basis_labels: tuple[int, ...] | None
    operator_dimension: int | None
    residuals: tuple[int, ...] | None
    failure: str | None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "assignment": list(self.assignment) if self.assignment is not None else None,
            "level_ranks": list(self.profile.ranks),
            "flat_level": self.flat_level,
            "basis_labels": (
                [sorted(indices_of(m)) for m in self.basis_labels]
                if self.basis_labels is not None
                else None
            ),
            "operator_dimension": self.operator_dimension,
            "residuals": list(self.residuals) if self.residuals is not None else None,
            "failure": self.failure,
        }


def decode_assignment(
    vector: PseudoMomentVector, src: QuadSystemSource, d: int | None = None
) -> DecodeReport:
    """Round a member of the pseudo-moment subspace with 0 < rank H_d(y)
    <= d to a common zero of the source system.

    Membership, nonzeroness, and the rank bound are preconditions; once
    they hold, every later stage is backed by a lemma and failures are
    internal errors, except the flat-level search whose (theoretically
    impossible) failure is reported rather than raised.
    """
    if d is None:
        d = vector.matrix_degree
    space = build_moment_subspace(src, k=d)
    if space.coords is not vector.basis:
        raise PreconditionError(
            f"vector coordinates (degree {vector.basis.degree}) do not match "
            f"the degree-{d} subspace of the source"
        )
    bad = space.membership_violation(vector.values)
    if bad is not None:
        raise PreconditionError(f"not a subspace member: row {bad} violated")
    profile = level_ranks(vector, d)
    if profile.top_rank == 0:
        raise PreconditionError("the zero member cannot be rounded")
    if profile.top_rank > d:
        raise PreconditionError(
            f"rank {profile.top_rank} exceeds the matrix degree {d}"
        )
    e = find_flat_level(profile)
    if e is None:
        return DecodeReport(
            ok=False,
            assignment=None,
            profile=profile,
            flat_level=None,
            basis_labels=None,
            operator_dimension=None,
            residuals=None,
            failure="no flat level in the rank profile",
        )
    ops = multiplication_operators(vector, e, src)
    _, assignment = common_eigenvector(ops)
    residuals = tuple(f.evaluate(assignment, first_var=1) for f in src.equations)
    if any(residuals):
        raise InternalConsistencyError(
            "decoded point does not satisfy the source system"
        )
    return DecodeReport(
        ok=True,
        assignment=assignment,
        profile=profile,
        flat_level=e,
        basis_labels=ops.labels,
        operator_dimension=ops.dimension,
        residuals=residuals,
        failure=None,
    )
