"""Batch command-line surface.

Seven subcommands bind the pipeline together: reduce (source system to
subspace instance file), verify (membership and honest completeness),
minrank (exhaustive oracle), decode (member to satisfying assignment),
decompose (symmetric rank-one split), descend (extension field to GF(2)),
isolate (point-isolating polynomial).

Reports are JSON with sorted keys and no timestamps, so a rerun on the
same inputs is byte-identical; a short plain-text summary goes to
standard output first.  Flags have fixed defaults; the environment
changes nothing.

Exit codes: 0 success, 2 bad input or violated precondition, 3 refused
budget, 4 internal consistency violation (always a bug).

main runs each command with the cyclic garbage collector paused and
gives the caller back its own setting on every way out.  What a command
builds (rows, bases, reports) holds no reference cycles and is freed by
reference counting as it goes, so the collections its allocations would
set off only walk live objects: about 7% of the time main takes on an
n = 7 CNF's reduce, verify and minrank.  The few cycles a command does
leave, a few hundred objects from the JSON encoder and the candidate
pass, are collected once the caller's collector runs again, and a
rankgap process simply exits.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import sys

from .boolalg import basis_make, basis_size, format_poly, indices_of
from .decoder import decode_assignment
from .errors import (
    BudgetExceededError,
    InternalConsistencyError,
    PreconditionError,
)
from .frontends import parse_dimacs, parse_quadeq
from .gfarith import format_field, make_field, parse_field_descriptor
from .gflinalg import FFMatrix, rank_descent, symmetric_rank_one_decomposition
from .moment import build_moment_subspace, localizing_row_count
from .oracles import PointSet, check_membership, minrank_bruteforce, point_isolator
from .subspace import PseudoMomentVector, SubspaceSpec, honest_moment_vector
from .superposition import (
    build_constant_free_system,
    build_matrix_subspace,
    build_monomial_quad_system,
    choose_degree,
    degree_regime,
    expected_equation_count,
)


# the default --budget, and the fixed one of decode, which has no option
_BUDGET = 1 << 20


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc


def _read_instance(path: str) -> str | bytes:
    """An instance file's text for SubspaceSpec.from_text and _sha.  A file
    that is ASCII and holds no "\r", as every file reduce writes, comes as
    the bytes read, which are what _read's text encodes to: hashing and
    loading them never decodes the text or encodes it again.  Any other
    file comes from _read, with its decoding errors and newline
    translation."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from exc
    return data if data.isascii() and b"\r" not in data else _read(path)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}") from exc


def _sha(text: str | bytes) -> str:
    data = text.encode("utf-8") if type(text) is str else text
    return hashlib.sha256(data).hexdigest()


def _parse_csv_ints(text: str, what: str) -> tuple[int, ...]:
    toks = [t for t in text.replace(",", " ").split() if t]
    if not toks:
        raise PreconditionError(f"empty {what}")
    out = []
    for t in toks:
        try:
            out.append(int(t))
        except ValueError as exc:
            raise PreconditionError(f"bad {what} entry {t!r}") from exc
    return tuple(out)


def _emit(args: argparse.Namespace, summary: list[str], doc: dict) -> None:
    """The report goes to --output before the summary is printed, so a
    report that cannot be written leaves no summary on stdout."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    output = getattr(args, "output", None)
    if output:
        _write(output, text)
    for line in summary:
        print(line)
    if not output:
        print(text, end="")


# -- reduce -------------------------------------------------------------------


def _check_budget(args: argparse.Namespace, *sizes: int) -> None:
    if max(sizes) > args.budget:
        raise BudgetExceededError(
            f"instance needs about {max(sizes)} coordinates or constraints, "
            f"budget allows {args.budget}"
        )


def _reduce_superposition(args: argparse.Namespace, text: str) -> tuple[SubspaceSpec, int]:
    cnf = parse_dimacs(text)
    field = parse_field_descriptor(args.field) if args.field else make_field(2)
    if field.p != 2:
        raise PreconditionError(
            f"the CNF construction needs characteristic two, not {format_field(field)}"
        )
    r = field.e
    if args.degree is None:
        choice = choose_degree(args.k, r, args.c)
        d, regime = choice.d, choice.regime
    else:
        d = args.degree
        regime = degree_regime(d, r * args.k)
    if regime == "relaxed" and not args.relaxed:
        raise PreconditionError(
            f"degree {d} lands in the relaxed regime for k={args.k}, r={r}; "
            "pass --relaxed to build anyway"
        )
    _check_budget(args, expected_equation_count(cnf.n, cnf.m, d), basis_size(cnf.n, 2 * d, "U"))
    quad = build_monomial_quad_system(build_constant_free_system(cnf, d))
    provenance = {
        "source_sha256": cnf.source_hash(),
        "field": format_field(field),
        "k": args.k,
        "r": r,
        "c": args.c,
        "regime": regime,
    }
    return build_matrix_subspace(quad, field=field, provenance=provenance), d


def _reduce_direct(args: argparse.Namespace, text: str) -> tuple[SubspaceSpec, int]:
    src = parse_quadeq(text)
    if args.field is not None:
        asked = parse_field_descriptor(args.field)
        if asked != src.field:
            raise PreconditionError(
                f"--field {format_field(asked)} disagrees with the source "
                f"field {format_field(src.field)}"
            )
    if args.k < 1:
        raise PreconditionError("rank gap target must be at least 1")
    d = args.k if args.degree is None else args.degree
    if d < 1:
        raise PreconditionError("matrix degree must be at least 1")
    _check_budget(args, basis_size(src.n, 2 * d, "V"), localizing_row_count(src.n, src.m, d))
    provenance = {
        "source_sha256": src.source_hash(),
        "field": format_field(src.field),
        "k": args.k,
    }
    space = build_moment_subspace(src, args.k, degree=args.degree, provenance=provenance)
    return space, d


def cmd_reduce(args: argparse.Namespace) -> int:
    text = _read(args.input)
    if args.mode == "superposition":
        space, d = _reduce_superposition(args, text)
    else:
        space, d = _reduce_direct(args, text)
    _write(args.output, space.to_text())
    print(f"coordinates: {space.coord_count}")
    print(f"constraints: {len(space.rows)}")
    print(f"d: {d}")
    return 0


# -- verify -------------------------------------------------------------------


def _honest_for_instance(space: SubspaceSpec, bits: tuple[int, ...]) -> PseudoMomentVector:
    if len(bits) != space.n:
        raise PreconditionError(f"assignment needs {space.n} bits, got {len(bits)}")
    if space.variant == "U":
        point: tuple[int, ...] = (1, *bits)
    else:
        point = bits
    return honest_moment_vector(space.field, point, space.n, 2 * space.d, space.variant)


def cmd_verify(args: argparse.Namespace) -> int:
    if (args.assignment is None) == (args.vector is None):
        raise PreconditionError("verify needs exactly one of --assignment or --vector")
    text = _read_instance(args.input)
    space = SubspaceSpec.from_text(text)
    provenance = {"command": "verify", "instance_sha256": _sha(text)}
    doc: dict = {"provenance": provenance}
    if args.assignment is not None:
        bits = _parse_csv_ints(args.assignment, "assignment")
        _check_budget(args, space.coord_count)
        values = _honest_for_instance(space, bits).values
        doc["honest_assignment"] = list(bits)
    else:
        values = _parse_csv_ints(_read(args.vector), "vector")
        # check_membership refuses a wrong length as such, past the budget or not
        _check_budget(args, min(len(values), space.coord_count))
    report = check_membership(values, space)
    zero = not any(values)
    rank = None
    if report.ok:
        vector = space.vector(values)
        side = len(vector.support_sets(space.d))
        if side * side > args.budget:
            raise BudgetExceededError(
                f"ranking the member reads {side} x {side} matrix entries, "
                f"budget allows {args.budget}"
            )
        # eliminating through the field's tables takes up to side^3 steps
        if space.field.q != 2 and side**3 > args.budget:
            raise BudgetExceededError(
                f"ranking the member takes up to {side}^3 = {side**3} elimination steps, "
                f"budget allows {args.budget}"
            )
        rank = len(vector.independent_sets(space.d))
    doc.update({"ok": report.ok, "violated_row": report.violated_row, "rank": rank, "zero": zero})
    if not report.ok:
        summary = f"not a member: constraint {report.violated_row} violated"
    elif zero:
        summary = "member (trivially), excluded from minrank"
    else:
        summary = f"member, rank {rank}"
    _emit(args, [summary], doc)
    return 0


# -- oracle bindings ----------------------------------------------------------


def cmd_minrank(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise PreconditionError("worker count must be positive")
    text = _read_instance(args.input)
    space = SubspaceSpec.from_text(text)
    report = minrank_bruteforce(space, level=args.level, budget=args.budget)
    doc = report.to_json()
    doc["provenance"] = {
        "command": "minrank",
        "instance_sha256": _sha(text),
        "level": space.d if args.level is None else args.level,
    }
    if report.status == "empty":
        summary = "empty subspace"
    else:
        summary = f"minrank {report.minrank} over {report.enumerated} members"
    _emit(args, [summary], doc)
    return 0


def _infer_matrix_degree(n: int, count: int) -> int:
    for d in range(1, (n + 1) // 2 + 1):
        if basis_size(n, 2 * d, "V") == count:
            return d
    raise PreconditionError(
        f"no matrix degree gives {count} coordinates over {n} variables"
    )


def cmd_decode(args: argparse.Namespace) -> int:
    source_text = _read(args.source)
    src = parse_quadeq(source_text)
    values = _parse_csv_ints(_read(args.vector), "vector")
    d = args.degree if args.degree is not None else _infer_matrix_degree(src.n, len(values))
    if d < 1:
        raise PreconditionError("matrix degree must be at least 1")
    want = basis_size(src.n, 2 * d, "V")
    if len(values) != want:
        raise PreconditionError(f"vector has {len(values)} coordinates, degree {d} needs {want}")
    # decoding rebuilds the instance, so it refuses what reduce refuses by default
    rows = localizing_row_count(src.n, src.m, d)
    if rows > _BUDGET:
        raise BudgetExceededError(
            f"decoding rebuilds {rows} localizing rows, budget allows {_BUDGET}"
        )
    basis = basis_make(src.n, 2 * d, "V")
    vector = PseudoMomentVector(src.field, basis, tuple(values))
    report = decode_assignment(vector, src, d)
    doc = report.to_json()
    doc["provenance"] = {
        "command": "decode",
        "source_sha256": src.source_hash(),
        "vector_sha256": _sha(",".join(str(v) for v in values)),
        "degree": d,
    }
    if report.ok:
        summary = "assignment: " + ",".join(str(v) for v in report.assignment)
    else:
        summary = f"decoding failed: {report.failure}"
    _emit(args, [summary], doc)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    text = _read(args.input)
    matrix = FFMatrix.from_text(text)
    decomposition = symmetric_rank_one_decomposition(matrix)
    rank = matrix.rank()
    doc = {
        "size": decomposition.size,
        "rank": rank,
        "terms": len(decomposition),
        "vectors": [list(v) for v in decomposition.vectors],
        "provenance": {"command": "decompose", "matrix_sha256": _sha(text)},
    }
    _emit(args, [f"{len(decomposition)} rank-one terms for a rank-{rank} matrix"], doc)
    return 0


def cmd_descend(args: argparse.Namespace) -> int:
    text = _read(args.input)
    matrix = FFMatrix.from_text(text)
    if args.field:
        target = parse_field_descriptor(args.field)
        if matrix.field != target:
            if matrix.field.q == 2 and target.p == 2:
                matrix = matrix.lifted(target)
            else:
                raise PreconditionError(
                    f"matrix is over {format_field(matrix.field)}, "
                    f"cannot reinterpret as {format_field(target)}"
                )
    provenance = {"command": "descend", "matrix_sha256": _sha(text)}
    if args.instance:
        instance_text = _read_instance(args.instance)
        constraints: object = SubspaceSpec.from_text(instance_text)
        provenance["instance_sha256"] = _sha(instance_text)
    else:
        constraints = []
    descended = rank_descent(matrix, constraints)
    doc = {
        "field": format_field(matrix.field),
        "rank_extension": matrix.rank(),
        "rank_gf2": descended.rank(),
        "rows": [list(row) for row in descended.rows],
        "provenance": provenance,
    }
    summary = (
        f"rank {doc['rank_extension']} over {doc['field']} descends to "
        f"rank {doc['rank_gf2']} over GF(2)"
    )
    _emit(args, [summary], doc)
    return 0


def cmd_isolate(args: argparse.Namespace) -> int:
    text = _read(args.points)
    rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not rows:
        raise PreconditionError("the point file is empty")
    parsed = [_parse_csv_ints(ln, "point") for ln in rows]
    n = len(parsed[0]) - 1
    points = PointSet(n, tuple(parsed))
    target = _parse_csv_ints(args.target, "target")
    isolator = point_isolator(points, target, args.rho)
    doc = {
        "polynomial": format_poly(isolator),
        "degree": isolator.degree,
        "support": [list(indices_of(mask)) for mask in isolator.support()],
        "provenance": {
            "command": "isolate",
            "points_sha256": _sha(text),
            "target": list(target),
            "rho": args.rho,
        },
    }
    _emit(args, [format_poly(isolator)], doc)
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankgap",
        description="Compile Boolean source systems into rank-gap matrix "
        "subspaces and verify them with brute-force oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="compile a source system to a subspace instance")
    p.add_argument("--mode", choices=("superposition", "direct"), required=True,
                   help="superposition reads DIMACS CNF, direct reads quadratic systems")
    p.add_argument("--input", required=True, help="source file")
    p.add_argument("--output", required=True, help="instance file to write")
    p.add_argument("--field", help="field descriptor such as GF(2) or GF(2^3)")
    p.add_argument("--k", type=int, default=1, help="rank gap target")
    p.add_argument("--c", type=float, default=4.0,
                   help="soundness constant in the degree rule (superposition)")
    p.add_argument("--degree", type=int, help="override the chosen degree d")
    p.add_argument("--relaxed", action="store_true",
                   help="permit degrees below the faithful floor")
    p.add_argument("--budget", type=int, default=_BUDGET,
                   help="refuse instances whose size estimate exceeds this")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="membership and honest completeness checks")
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--assignment", help="comma separated bits; checks the honest vector")
    p.add_argument("--vector", help="file of comma separated coordinates to check")
    p.add_argument("--budget", type=int, default=_BUDGET,
                   help="refuse more coordinates than this, or a member whose rank "
                   "reads more entries (side^2) or, over q > 2, takes more steps (side^3)")
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minrank", help="exhaustive minimum rank over the subspace")
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--budget", type=int, default=_BUDGET,
                   help="refuse kernels with more members than this")
    p.add_argument("--level", type=int, default=None, help="expansion level (default d)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility (must be positive); the scan "
                   "runs in one process")
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_minrank)

    p = sub.add_parser("decode", help="round a low-rank member to a satisfying assignment")
    p.add_argument("--source", required=True, help="quadratic system file")
    p.add_argument("--vector", required=True, help="file of member coordinates")
    p.add_argument("--degree", type=int,
                   help="matrix degree (default: inferred from the vector length)")
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("decompose", help="symmetric GF(2) matrix as a sum of rank-one terms")
    p.add_argument("--input", required=True, help="matrix file")
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("descend", help="map an extension-field member to GF(2)")
    p.add_argument("--input", required=True, help="matrix file")
    p.add_argument("--field",
                   help="extension field, e.g. GF(2^2); lifts a GF(2) matrix file")
    p.add_argument("--instance", help="instance file whose constraints the matrix satisfies")
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("isolate", help="low-degree polynomial isolating one point of a set")
    p.add_argument("--points", required=True, help="file with one bit point per line")
    p.add_argument("--target", required=True, help="the point to isolate, comma separated")
    p.add_argument("--rho", type=int, required=True, help="degree bound")
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_isolate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first main call and kept: parse_args
    leaves a parser as it found it."""
    return build_parser()


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
