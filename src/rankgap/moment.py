"""Quadratic systems to pseudo-moment subspaces, over any finite field.

The direct construction: given a system of degree-at-most-2 polynomials
f_1..f_m over x_1..x_n and a target rank gap k, take coordinates over
V_{n,2d} with d = k and impose one localizing row per equation and
shifting set W of size at most 2d-2:

    sum over U in supp(f)  of  c_{f,U} * y_{U union W}  =  0.

For the honest vector of a point a the row value collapses to a^W * f(a),
so common zeros give members whose expanded matrix has rank one.  Rows
whose coefficients cancel entirely are kept as empty rows so the count
m * |V_{n,2d-2}| stays exact.  subspace.localizing_rows writes the rows,
as it does for the CNF construction: each equation with the shifting
sets as its shift masks.
"""

from __future__ import annotations

from .boolalg import basis_make, basis_size
from .errors import InternalConsistencyError, PreconditionError
from .frontends import QuadSystemSource
from .subspace import SubspaceSpec, localizing_rows

__all__ = [
    "build_moment_subspace",
    "localizing_row_count",
]


def localizing_row_count(n: int, m: int, d: int) -> int:
    return m * basis_size(n, 2 * d - 2, "V")


def build_moment_subspace(
    src: QuadSystemSource,
    k: int,
    degree: int | None = None,
    provenance: dict | None = None,
) -> SubspaceSpec:
    """The pseudo-moment subspace of a quadratic system at rank gap k.

    The matrix degree is k unless overridden; an override is stamped into
    the provenance since only d = k carries the intended gap guarantee.
    """
    if k < 1:
        raise PreconditionError(f"the rank gap target must be at least 1, got {k}")
    d = k if degree is None else degree
    if d < 1:
        raise PreconditionError(f"the matrix degree must be at least 1, got {d}")
    shifts = basis_make(src.n, 2 * d - 2, "V").masks
    rows, distinct = localizing_rows(basis_make(src.n, 2 * d, "V"), [(f, shifts) for f in src.equations])
    if len(rows) != localizing_row_count(src.n, src.m, d):
        raise InternalConsistencyError("localizing row enumeration drifted from the formula")
    base = {
        "construction": "direct",
        "n": src.n,
        "m": src.m,
        "k": k,
        "d": d,
    }
    if d != k:
        base["degree_override"] = True
    base.update(provenance or {})
    return SubspaceSpec._seeded(distinct, src.field, "V", src.n, d, rows, base)
