"""Whole-toolkit acceptance run: twelve numbered criteria, one test each.

Every check is exact finite-field equality, no tolerances.  Corpora are
drawn from fixed seeds so reruns see identical instances.  Each test
emits a single "criterion N: pass/FAIL" line; the lines are also copied
to the raw stdout stream so they stay visible under output capture.
"""

import itertools
import math
import random
import sys
import time

from rankgap import cli
from rankgap.boolalg import SquarefreePoly, basis_make
from rankgap.decoder import decode_assignment
from rankgap.frontends import CnfFormula, QuadSystemSource
from rankgap.gfarith import make_field
from rankgap.gflinalg import FFMatrix, packed_kernel_basis, rank_descent
from rankgap.gflinalg import symmetric_rank_one_decomposition
from rankgap.moment import build_moment_subspace
from rankgap.oracles import (
    MonomialAssignment,
    PointSet,
    minrank_bruteforce,
    point_isolator,
    sum_of_points,
    superposition_check,
)
from rankgap.subspace import PseudoMomentVector, honest_moment_vector
from rankgap.superposition import (
    build_constant_free_system,
    build_matrix_subspace,
    build_monomial_quad_system,
    low_rank_to_superposition,
    rank_certificate,
)

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)
GF5 = make_field(5)
GF8 = make_field(2, 3)


def report(num, ok, detail):
    line = f"criterion {num}: {'pass' if ok else 'FAIL'} ({detail})"
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)
    assert ok, line


# -- corpus generators ---------------------------------------------------------


def random_boolean_quad_system(rng, field, n, m):
    """Degree-<=2 system with a planted Boolean common zero."""
    a = tuple(rng.randint(0, 1) for _ in range(n))
    eqs = []
    while len(eqs) < m:
        coeffs = {}
        for _ in range(rng.randint(2, 5)):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            mask = rng.choice((0, 1 << i, (1 << i) | (1 << j)))
            coeffs[mask] = field.add(coeffs.get(mask, 0), rng.randrange(1, field.q))
        coeffs = {mk: c for mk, c in coeffs.items() if c}
        if not coeffs:
            continue
        f = SquarefreePoly(field, coeffs)
        f = f - SquarefreePoly.constant(field, f.evaluate(a, first_var=1))
        if f.coeffs:
            eqs.append(f)
    src = QuadSystemSource(field=field, n=n, equations=tuple(eqs))
    assert src.satisfied_by(a)
    return src, a


def direct_completeness_corpus():
    """The 100 satisfiable instances shared by criteria 1 and 3."""
    rng = random.Random(41001)
    fields = (GF2, GF3, GF4, GF5)
    for idx in range(100):
        field = fields[idx % 4]
        n = rng.randint(1, 6)
        k = rng.randint(1, 3)
        src, a = random_boolean_quad_system(rng, field, n, rng.randint(1, 2))
        yield src, a, k


def planted_cnf(rng, n, m):
    """Random 3-clause CNF forced to be satisfied by a planted point."""
    z = tuple(rng.randint(0, 1) for _ in range(n))
    clauses = []
    for _ in range(m):
        lits = [rng.randint(1, n) * rng.choice((1, -1)) for _ in range(3)]
        if not any((lit > 0) == bool(z[abs(lit) - 1]) for lit in lits):
            pick = rng.randrange(3)
            lits[pick] = -lits[pick]
        clauses.append(tuple(lits))
    cnf = CnfFormula(n=n, clauses=tuple(clauses))
    assert cnf.satisfied_by(z)
    return cnf, z


# -- criteria ------------------------------------------------------------------


def test_criterion_1_direct_completeness():
    t0 = time.monotonic()
    good = total = 0
    for src, a, k in direct_completeness_corpus():
        total += 1
        space = build_moment_subspace(src, k)
        honest = honest_moment_vector(src.field, a, src.n, 2 * k, "V")
        if space.contains(honest.values) and space.expand(honest.values).rank() == 1:
            good += 1
    elapsed = time.monotonic() - t0
    report(
        1,
        good == total == 100 and elapsed < 10.0,
        f"honest rank-one member in {good}/{total}, {elapsed:.2f}s",
    )


def unsat_quad_corpus():
    rng = random.Random(41002)
    out = []
    attempts = 0
    while len(out) < 30:
        attempts += 1
        assert attempts < 20000
        field = (GF2, GF3)[len(out) % 2]
        n = rng.randint(1, 3)
        k = rng.randint(1, 2)
        eqs = []
        for _ in range(rng.randint(2, 4)):
            coeffs = {}
            for _ in range(rng.randint(2, 5)):
                i = rng.randint(1, n)
                j = rng.randint(1, n)
                mask = rng.choice((0, 1 << i, (1 << i) | (1 << j)))
                coeffs[mask] = field.add(coeffs.get(mask, 0), rng.randrange(1, field.q))
            coeffs = {mk: c for mk, c in coeffs.items() if c}
            if coeffs:
                eqs.append(SquarefreePoly(field, coeffs))
        if not eqs:
            continue
        src = QuadSystemSource(field=field, n=n, equations=tuple(eqs))
        if any(src.satisfied_by(pt) for pt in itertools.product((0, 1), repeat=n)):
            continue
        out.append((src, k))
    return out


def test_criterion_2_direct_soundness():
    t0 = time.monotonic()
    good = 0
    cases = unsat_quad_corpus()
    for src, k in cases:
        space = build_moment_subspace(src, k)
        bound = 16 if src.field.q == 2 else 10
        assert space.dimension() <= bound
        out = minrank_bruteforce(space, budget=src.field.q**bound)
        if out.status == "empty" or (out.status == "ok" and out.minrank > k):
            good += 1
    elapsed = time.monotonic() - t0
    report(
        2,
        good == len(cases) == 30 and elapsed < 300.0,
        f"empty or minrank beyond the gap in {good}/30, {elapsed:.1f}s",
    )


def enumerate_members(space, cap):
    """Every nonzero member when q^dim stays within cap, else None."""
    kernel = space.kernel_basis()
    q = space.field.q
    if not kernel or q ** len(kernel) > cap:
        return None
    members = []
    for combo in itertools.product(range(q), repeat=len(kernel)):
        if not any(combo):
            continue
        vec = [0] * space.coord_count
        for c, bvec in zip(combo, kernel):
            if not c:
                continue
            for pos, v in enumerate(bvec):
                if v:
                    vec[pos] = space.field.add(vec[pos], space.field.mul(c, v))
        members.append(tuple(vec))
    return members


def test_criterion_3_decoder_round_trip():
    decoded = failures = instances = 0
    for src, a, k in direct_completeness_corpus():
        space = build_moment_subspace(src, k)
        if space.coord_count > 20:
            continue
        members = enumerate_members(space, cap=256)
        if members is None:
            continue
        instances += 1
        for values in members:
            if not 0 < space.expand(values).rank() <= k:
                continue
            rep = decode_assignment(space.vector(values), src)
            good = (
                rep.ok
                and all(v == 0 for v in rep.residuals)
                and src.satisfied_by(rep.assignment)
            )
            if good:
                decoded += 1
            else:
                failures += 1
    report(
        3,
        failures == 0 and decoded > 0 and instances > 0,
        f"{decoded} low-rank members decoded over {instances} instances, "
        f"{failures} failures",
    )


def test_criterion_4_symmetric_decomposition():
    rng = random.Random(41004)
    t0 = time.monotonic()
    good = 0
    for _ in range(500):
        size = rng.randint(1, 64)
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            rows[i][i] = rng.getrandbits(1)
            for j in range(i + 1, size):
                b = rng.getrandbits(1)
                rows[i][j] = b
                rows[j][i] = b
        matrix = FFMatrix(GF2, rows)
        out = symmetric_rank_one_decomposition(matrix)
        k = matrix.rank()
        if out.reassemble().rows == matrix.rows and len(out) <= (3 * k) // 2:
            good += 1
    elapsed = time.monotonic() - t0
    report(
        4,
        good == 500 and elapsed < 5.0,
        f"{good}/500 reassembled within the term bound, {elapsed:.2f}s",
    )


def test_criterion_5_rank_descent():
    rng = random.Random(41005)
    good = 0
    for case in range(200):
        big = (GF4, GF8)[case % 2]
        size = rng.randint(2, 5)
        basis = []
        while not any(not b.is_zero() for b in basis):
            basis = [
                FFMatrix(
                    GF2,
                    [[rng.getrandbits(1) for _ in range(size)] for _ in range(size)],
                )
                for _ in range(rng.randint(1, 3))
            ]
        # packed rows hold column j at bit width - 1 - j: binary digits in order
        width = size * size
        span_rows = [int("".join(str(v) for row in b.rows for v in row), 2) for b in basis]
        cons = [
            [int(bit) for bit in format(packed, f"0{width}b")]
            for packed in packed_kernel_basis(span_rows, width)
        ]
        while True:
            rows = [[0] * size for _ in range(size)]
            for b in basis:
                c = rng.randrange(big.q)
                if not c:
                    continue
                for i in range(size):
                    for j in range(size):
                        if b.rows[i][j]:
                            rows[i][j] = big.add(rows[i][j], c)
            member = FFMatrix(big, rows)
            if not member.is_zero():
                break
        out = rank_descent(member, cons)
        flat = [v for row in out.rows for v in row]
        ok = not out.is_zero()
        ok = ok and all(
            sum(v for v, c in zip(flat, con) if c) % 2 == 0 for con in cons
        )
        ok = ok and out.rank() <= big.e * member.rank()
        if ok:
            good += 1
    report(5, good == 200, f"{good}/200 descents nonzero, in-subspace, rank-bounded")


def test_criterion_6_superposition_completeness():
    good = 0
    rng = random.Random(41006)
    for case in range(50):
        d = (4, 8)[case % 2]
        n = rng.randint(2, 8 if d == 4 else 5)
        cnf, z = planted_cnf(rng, n, rng.randint(1, 3))
        quad = build_monomial_quad_system(build_constant_free_system(cnf, d))
        space = build_matrix_subspace(quad)
        honest = honest_moment_vector(GF2, (1,) + z, n, 2 * d, "U")
        if space.contains(honest.values) and space.expand(honest.values).rank() == 1:
            good += 1
    report(6, good == 50, f"{good}/50 honest rank-one members at d in (4, 8)")


def test_criterion_7_quotient_triviality():
    rng = random.Random(41007)
    clean = builds = 0
    for case in range(12):
        d = (4, 8)[case % 2]
        n = rng.randint(2, 7 if d == 4 else 5)
        cnf, _ = planted_cnf(rng, n, rng.randint(1, 3))
        quad = build_monomial_quad_system(build_constant_free_system(cnf, d))
        space = build_matrix_subspace(quad)
        builds += 1
        coords = space.coords
        cancelled = 0
        for eq in quad.multiplicativity:
            acc = {}
            for s, t, c in eq.quad:
                pos = coords.rank(s | t)
                acc[pos] = (acc.get(pos, 0) + c) % 2
            for mask, c in eq.linear:
                pos = coords.rank(mask)
                acc[pos] = (acc.get(pos, 0) + c) % 2
            if any(acc.values()):
                break
            cancelled += 1
        masks = quad.basis.masks
        expected = sum(
            1
            for a in range(len(masks))
            for b in range(a, len(masks))
            if (masks[a] | masks[b]) in quad.basis
        )
        if (
            expected > 0
            and cancelled == len(quad.multiplicativity) == expected
            and space.provenance["multiplicativity_cancelled"] == expected
        ):
            clean += 1
    report(7, clean == builds == 12, f"all product rows vanish in {clean}/{builds} builds")


def test_criterion_8_superposition_of_decompositions():
    rng = random.Random(41008)
    spaces = []
    for _ in range(10):
        n = rng.randint(2, 4)
        cnf, _ = planted_cnf(rng, n, rng.randint(1, 2))
        quad = build_monomial_quad_system(build_constant_free_system(cnf, 4))
        spaces.append((quad, build_matrix_subspace(quad)))
    good = 0
    for total in range(100):
        quad, space = spaces[total % len(spaces)]
        kernel = space.kernel_basis()
        assert kernel
        values = [0] * space.coord_count
        for bvec in kernel:
            if rng.getrandbits(1):
                for pos, v in enumerate(bvec):
                    values[pos] ^= v
        witness = low_rank_to_superposition(tuple(values), space, quad)
        if superposition_check(witness.vectors, quad).ok:
            good += 1
    report(8, good == 100, f"{good}/100 members split into passing families")


def test_criterion_9_rank_certificate():
    rng = random.Random(41009)
    good = applied = 0
    for case in range(200):
        field = (GF2, GF3, GF5)[case % 3]
        variant = ("V", "U")[case % 2]
        n = rng.randint(2, 5)
        d = rng.randint(1, 3)
        basis = basis_make(n, 2 * d, variant)
        p = rng.randrange(len(basis))
        values = [0] * len(basis)
        values[p] = rng.randrange(1, field.q)
        for pos in range(p + 1, len(basis)):
            values[pos] = rng.randrange(field.q)
        vector = PseudoMomentVector(field=field, basis=basis, values=tuple(values))
        cert = rank_certificate(vector)
        size = bin(basis.masks[p]).count("1")
        ok = (
            cert is not None
            and cert.mask == basis.masks[p]
            and cert.size == size
            and cert.bound == math.comb(size, size // 2)
            and cert.applies == ((size + 1) // 2 <= d)
        )
        if ok and cert.applies:
            applied += 1
            ok = vector.expand(d).rank() >= cert.bound
        if ok:
            good += 1
    report(
        9,
        good == 200 and applied > 0,
        f"{good}/200 planted certificates, bound enforced on {applied}",
    )


def test_criterion_10_isolation_and_sum_of_points():
    rng = random.Random(41010)
    iso_good = 0
    for _ in range(100):
        n = rng.randint(1, 9)
        count = rng.randint(1, min(1 << (n + 1), 24))
        pts = set()
        while len(pts) < count:
            pts.add(tuple(rng.getrandbits(1) for _ in range(n + 1)))
        rho = count.bit_length() + rng.randint(0, 1)
        points = PointSet(n, tuple(pts))
        target = rng.choice(sorted(pts))
        poly = point_isolator(points, target, rho)
        ok = len(points) < (1 << rho) and poly.degree <= rho
        for p in points:
            ok = ok and poly.evaluate(p) == (1 if p == target else 0)
        if ok:
            iso_good += 1
    sop_good = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        d = rng.randint(1, 3)
        width = len(basis_make(n, d, "U"))
        sigma = MonomialAssignment(
            n, d, tuple(rng.getrandbits(1) for _ in range(width))
        )
        beta = sum_of_points(sigma)
        ok = len(beta) % 2 == 1
        for mask in (0,) + sigma.basis.masks:
            acc = 0
            for p in beta:
                ones = sum(1 << i for i, b in enumerate(p) if b)
                if mask & ~ones == 0:
                    acc ^= 1
            ok = ok and acc == sigma.value(mask)
        if ok:
            sop_good += 1
    report(
        10,
        iso_good == 100 and sop_good == 100,
        f"{iso_good}/100 isolators, {sop_good}/100 odd point families",
    )


def test_criterion_11_size_formulas():
    rng = random.Random(41011)
    clean = builds = 0
    for case in range(12):
        if case % 2:
            field = (GF2, GF3, GF5)[case % 3]
            n = rng.randint(1, 5)
            k = rng.randint(1, 3)
            src, _ = random_boolean_quad_system(rng, field, n, 1)
            space = build_moment_subspace(src, k)
            side = sum(math.comb(n, j) for j in range(0, k + 1))
            full = sum(math.comb(n, j) for j in range(0, 2 * k + 1))
        else:
            n = rng.randint(2, 6)
            d = rng.choice((4, 8))
            cnf, _ = planted_cnf(rng, n, rng.randint(1, 2))
            space = build_matrix_subspace(
                build_monomial_quad_system(build_constant_free_system(cnf, d))
            )
            side = sum(math.comb(n + 1, j) for j in range(1, d + 1))
            full = sum(math.comb(n + 1, j) for j in range(1, 2 * d + 1))
        builds += 1
        if space.matrix_side == side and space.coord_count == full:
            clean += 1
    report(11, clean == builds == 12, f"index and coordinate sizes match in {clean}/{builds}")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    qe = tmp_path / "line.qe"
    qe.write_text("field: GF(2)\nx1 + x2\n")
    cnf = tmp_path / "one.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    pts = tmp_path / "pts.txt"
    pts.write_text("0,0\n1,1\n")
    mat = tmp_path / "swap.mat"
    mat.write_text(FFMatrix(GF2, [[0, 1], [1, 0]]).to_text())
    ext = tmp_path / "ext.mat"
    ext.write_text(FFMatrix(GF4, [[2, 0], [0, 3]]).to_text())
    vec = tmp_path / "member.vec"
    vec.write_text("1,1,1,1\n")
    inst = tmp_path / "line.inst.json"
    cnf_inst = tmp_path / "one.inst.json"

    jobs = [
        ("reduce", "--mode", "direct", "--input", qe, "--output", inst),
        ("reduce", "--mode", "superposition", "--input", cnf, "--output", cnf_inst),
        ("verify", "--input", inst, "--assignment", "1,1"),
        ("minrank", "--input", inst, "--workers", "3"),
        ("decode", "--source", qe, "--vector", vec),
        ("decompose", "--input", mat),
        ("descend", "--input", ext),
        ("isolate", "--points", pts, "--target", "1,1", "--rho", "2"),
    ]
    stable = 0
    for argv in jobs:
        argv = [str(a) for a in argv]
        outfile = inst if str(inst) in argv else cnf_inst if str(cnf_inst) in argv else None
        seen = []
        for _ in range(2):
            assert cli.main(argv) == 0
            text = capsys.readouterr().out
            seen.append((text, outfile.read_bytes() if outfile else b""))
        if seen[0] == seen[1]:
            stable += 1
    assert cli.main(["minrank", "--input", str(inst)]) == 0
    solo = capsys.readouterr().out
    assert cli.main(["minrank", "--input", str(inst), "--workers", "3"]) == 0
    sharded = capsys.readouterr().out
    report(
        12,
        stable == len(jobs) and solo == sharded,
        f"{stable}/{len(jobs)} commands byte-stable, worker count invisible",
    )
