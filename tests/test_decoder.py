"""Rounding pipeline: rank profiles, flat levels, multiplication operators,
joint eigenvectors, end-to-end decoding."""

import random
from itertools import product

import pytest

from rankgap.boolalg import SquarefreePoly, basis_make
from rankgap.decoder import (
    LevelRankProfile,
    MultiplicationOperators,
    _verify_operator_identities,
    common_eigenvector,
    decode_assignment,
    find_flat_level,
    level_ranks,
    multiplication_operators,
)
from rankgap.errors import InternalConsistencyError, PreconditionError
from rankgap.frontends import QuadSystemSource, parse_quadeq
from rankgap.gfarith import make_field
from rankgap.gflinalg import FFMatrix
from rankgap.moment import build_moment_subspace
from rankgap.subspace import PseudoMomentVector, honest_moment_vector

GF2 = make_field(2)
GF3 = make_field(3)
GF5 = make_field(5)


def random_satisfiable_system(rng, field, n, m):
    a = tuple(rng.randint(0, 1) for _ in range(n))
    support = basis_make(n, 2, "V").masks
    eqs = []
    for _ in range(m):
        coeffs = {
            mask: c
            for mask in support
            if mask and (c := rng.randrange(field.q))
        }
        f = SquarefreePoly(field, coeffs)
        f = f - SquarefreePoly.constant(field, f.evaluate(a, first_var=1))
        eqs.append(f)
    return QuadSystemSource(field=field, n=n, equations=tuple(eqs)), a


# -- rank profiles ------------------------------------------------------------


def test_profile_frozen_examples():
    honest = honest_moment_vector(GF2, (1, 1), n=2, degree=2)
    profile = level_ranks(honest, 1)
    assert profile.ranks == (1, 1)
    assert profile.pivot_labels == ((0,), (0,))

    zero = PseudoMomentVector(GF2, basis_make(1, 2, "V"), (0, 0))
    assert level_ranks(zero, 1).ranks == (0, 0)

    spiked = PseudoMomentVector(GF2, basis_make(1, 2, "V"), (0, 1))
    profile = level_ranks(spiked, 1)
    assert profile.ranks == (0, 2)
    assert spiked.expand(1).rows == ((0, 1), (1, 1))


def test_profile_is_monotone_on_random_vectors():
    rng = random.Random(41)
    for field in (GF2, GF3):
        for _ in range(25):
            n = rng.randint(1, 4)
            d = rng.randint(1, 2)
            basis = basis_make(n, 2 * d, "V")
            y = PseudoMomentVector(
                field, basis, tuple(rng.randrange(field.q) for _ in range(len(basis)))
            )
            ranks = level_ranks(y, d).ranks
            assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def test_first_nonzero_bound_on_random_vectors():
    # min-size nonzero coordinate R with s = ceil(|R|/2) <= d forces
    # r_s >= s + 1
    rng = random.Random(42)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 4)
        d = rng.randint(1, 2)
        basis = basis_make(n, 2 * d, "V")
        y = PseudoMomentVector(
            GF2, basis, tuple(rng.randint(0, 1) for _ in range(len(basis)))
        )
        nz = y.support()
        if not nz:
            continue
        s = (bin(nz[0]).count("1") + 1) // 2
        if s > d:
            continue
        checked += 1
        assert level_ranks(y, d).ranks[s] >= s + 1


def test_flat_level_search():
    assert find_flat_level(LevelRankProfile((1, 1), ((0,), (0,)))) == 0
    assert find_flat_level(LevelRankProfile((0, 2), ((), (0, 1)))) is None
    assert find_flat_level(LevelRankProfile((0, 0, 0), ((), (), ()))) is None
    assert find_flat_level(LevelRankProfile((0, 2, 2, 3), ((),) * 4)) == 1


def test_profile_needs_enough_coordinates():
    y = honest_moment_vector(GF2, (1,), n=1, degree=2)
    with pytest.raises(PreconditionError, match="degree 4"):
        level_ranks(y, 2)


# -- multiplication operators -------------------------------------------------


def test_operators_on_honest_vectors_are_scalars():
    src = parse_quadeq("GF(2)\nx1 + x2\n")
    y = honest_moment_vector(GF2, (1, 1), n=2, degree=2)
    ops = multiplication_operators(y, 0, src)
    assert ops.labels == (0,)
    assert [t.rows for t in ops.operators] == [((1,),), ((1,),)]

    src2 = parse_quadeq("GF(2)\nx1*x2\n")
    y2 = honest_moment_vector(GF2, (1, 0), n=2, degree=2)
    ops2 = multiplication_operators(y2, 0, src2)
    assert [t.rows for t in ops2.operators] == [((1,),), ((0,),)]


def test_operators_identity_families_hold_on_nontrivial_flats():
    rng = random.Random(43)
    seen_dim2 = 0
    while seen_dim2 < 4:
        field = rng.choice([GF2, GF3, GF5])
        src, a = random_satisfiable_system(rng, field, rng.randint(2, 4), 1)
        space = build_moment_subspace(src, 2)
        y = honest_moment_vector(field, a, n=src.n, degree=4)
        profile = level_ranks(y, 2)
        e = find_flat_level(profile)
        ops = multiplication_operators(y, e, src)
        # construction re-verifies idempotence, commutation, annihilation;
        # here we only exercise nontrivial shapes
        if ops.dimension >= 1:
            seen_dim2 += 1
        assert space.contains(y.values)


def test_operators_preconditions():
    src = parse_quadeq("GF(2)\nx1 + x2\n")
    y = honest_moment_vector(GF2, (1, 1), n=2, degree=2)
    with pytest.raises(PreconditionError, match="not flat"):
        zero = PseudoMomentVector(GF2, basis_make(2, 2, "V"), (0,) * 4)
        multiplication_operators(zero, 0, src)
    with pytest.raises(PreconditionError, match="different fields"):
        multiplication_operators(
            honest_moment_vector(GF3, (1, 1), n=2, degree=2), 0, src
        )
    with pytest.raises(PreconditionError, match="beyond the stored"):
        multiplication_operators(y, 1, src)
    with pytest.raises(PreconditionError, match="V-variant"):
        u_side = honest_moment_vector(GF2, (1, 1), n=1, degree=2, variant="U")
        multiplication_operators(u_side, 0, parse_quadeq("GF(2); n: 1; x1\n"))


def make_ops(field, mats, labels=None):
    dim = mats[0].nrows if mats else 0
    return MultiplicationOperators(
        field=field,
        n=len(mats),
        flat_level=0,
        labels=labels or tuple(range(dim)),
        operators=tuple(mats),
    )


def refusal(field, rows_per_operator, source):
    """The identity check's refusal message for hand-built operators, or
    None when every identity holds."""
    ops = make_ops(field, [FFMatrix(field, rows) for rows in rows_per_operator])
    try:
        _verify_operator_identities(ops, parse_quadeq(source))
    except InternalConsistencyError as exc:
        return str(exc)
    return None


def test_identity_checks_refuse_idempotence_and_commutation():
    assert refusal(GF2, [[[0, 1], [0, 0]]], "GF(2)\nx1\n") == "operator 1 is not idempotent"
    # both idempotent, but T1 T2 = T2 while T2 T1 = T1
    pair = [[[1, 1], [0, 0]], [[1, 0], [0, 0]]]
    assert refusal(GF2, pair, "GF(2)\nx1 + x2\n") == "operators 1 and 2 do not commute"


def test_identity_checks_refuse_unannihilated_equations():
    annihilated = "source equation {} does not annihilate the operators"
    # the constant term is the identity
    assert refusal(GF2, [[[0]]], "GF(2)\nx1 + 1\n") == annihilated.format(0)
    assert refusal(GF2, [[[1]]], "GF(2)\nx1 + 1\n") is None
    # a pair term is the product T1 T2
    src = "GF(2)\nx1 + x2 + x1*x2 + 1\nx1*x2 + x1\n"
    assert refusal(GF2, [[[1]], [[0]]], src) == annihilated.format(1)
    assert refusal(GF2, [[[1]], [[1]]], src) is None
    # coefficients other than 1 scale their operator
    assert refusal(GF3, [[[1]], [[0]]], "GF(3)\n2*x1 + x2\n") == annihilated.format(0)
    assert refusal(GF3, [[[1]], [[1]]], "GF(3)\n2*x1 + x2\n") is None


# -- common eigenvector -------------------------------------------------------


def test_eigenvector_frozen_example():
    t1 = FFMatrix(GF2, [[1, 0], [0, 0]])
    t2 = FFMatrix(GF2, [[0, 0], [0, 1]])
    v, a = common_eigenvector(make_ops(GF2, [t1, t2]))
    assert v == (1, 0)
    assert a == (1, 0)


def test_eigenvector_identity_and_zero_operators():
    eye = FFMatrix.identity(GF3, 3)
    v, a = common_eigenvector(make_ops(GF3, [eye, eye]))
    assert a == (1, 1)
    assert v == (1, 0, 0)

    zero = FFMatrix(GF3, [[0] * 3] * 3)
    v, a = common_eigenvector(make_ops(GF3, [zero, zero]))
    assert a == (0, 0)
    assert v == (1, 0, 0)


def test_eigenvector_mixed_projectors():
    # commuting projectors onto coordinate axes over GF(5)
    t1 = FFMatrix(GF5, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    t2 = FFMatrix(GF5, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    v, a = common_eigenvector(make_ops(GF5, [t1, t2]))
    assert a == (1, 1)
    t_v1 = t1.mat_vec(v)
    assert t_v1 == v


def test_eigenvector_rejects_empty_space():
    with pytest.raises(PreconditionError, match="zero-dimensional"):
        common_eigenvector(
            MultiplicationOperators(
                field=GF2, n=1, flat_level=0, labels=(), operators=(FFMatrix(GF2, [], 0),)
            )
        )


# -- end-to-end decoding ------------------------------------------------------


def test_decode_frozen_round_trips():
    src = parse_quadeq("GF(2)\nx1 + x2\n")
    for a in ((1, 1), (0, 0)):
        y = honest_moment_vector(GF2, a, n=2, degree=2)
        report = decode_assignment(y, src, 1)
        assert report.ok
        assert report.assignment == a
        assert report.flat_level == 0
        assert report.residuals == (0,)


def test_decode_preconditions():
    src = parse_quadeq("GF(2)\nx1 + x2\n")
    with pytest.raises(PreconditionError, match="not a subspace member"):
        decode_assignment(
            PseudoMomentVector(GF2, basis_make(2, 2, "V"), (1, 1, 0, 0)), src, 1
        )
    with pytest.raises(PreconditionError, match="zero member"):
        decode_assignment(
            PseudoMomentVector(GF2, basis_make(2, 2, "V"), (0, 0, 0, 0)), src, 1
        )
    with pytest.raises(PreconditionError, match="do not match"):
        decode_assignment(honest_moment_vector(GF2, (1, 1), n=2, degree=4), src, 1)


def test_decode_rejects_rank_above_degree():
    # the zero-polynomial source accepts every vector as a member
    src = QuadSystemSource(
        field=GF2, n=1, equations=(SquarefreePoly(GF2, {}),)
    )
    spiked = PseudoMomentVector(GF2, basis_make(1, 2, "V"), (0, 1))
    with pytest.raises(PreconditionError, match="rank 2 exceeds"):
        decode_assignment(spiked, src, 1)


def test_decode_report_json_shape():
    src = parse_quadeq("GF(2)\nx1*x2\n")
    y = honest_moment_vector(GF2, (0, 1), n=2, degree=2)
    doc = decode_assignment(y, src, 1).to_json()
    assert doc["ok"] is True
    assert doc["assignment"] == [0, 1]
    assert doc["level_ranks"] == [1, 1]
    assert doc["flat_level"] == 0
    assert doc["basis_labels"] == [[]]
    assert doc["operator_dimension"] == 1
    assert doc["residuals"] == [0]
    assert doc["failure"] is None


def test_decode_honest_sweep_across_fields():
    rng = random.Random(44)
    for field in (GF2, GF3, GF5):
        for _ in range(6):
            n, m = rng.randint(1, 4), rng.randint(1, 3)
            k = rng.randint(1, 2)
            src, a = random_satisfiable_system(rng, field, n, m)
            y = honest_moment_vector(field, a, n=n, degree=2 * k)
            report = decode_assignment(y, src, k)
            assert report.ok
            assert src.satisfied_by(report.assignment)


def test_decode_found_members_small_scale():
    # every nonzero low-rank member the kernel search finds must round to a
    # satisfying point
    rng = random.Random(45)
    decoded = 0
    while decoded < 5:
        src, _ = random_satisfiable_system(rng, GF2, 2, 2)
        space = build_moment_subspace(src, 1)
        kernel = space.kernel_basis()
        if not kernel or len(kernel) > 4:
            continue
        for bits in product((0, 1), repeat=len(kernel)):
            y = [0] * space.coord_count
            for bit, vec in zip(bits, kernel):
                if bit:
                    y = [a ^ b for a, b in zip(y, vec)]
            y = tuple(y)
            if not any(y):
                continue
            if space.expand(y).rank() > 1:
                continue
            report = decode_assignment(space.vector(y), src, 1)
            assert report.ok
            assert src.satisfied_by(report.assignment)
            decoded += 1
