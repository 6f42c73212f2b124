"""PseudoMomentVector.independent_sets against the expanded matrix.

independent_sets reads the labels of the first independent rows of
H_level(y) straight off the coordinates, expanding only the sets inside the
union of y's support; expand() builds the whole FFMatrix.  The labels must
be the pivot columns of its reduced echelon form, and their number its
rank, for every field kind, both variants, every level and vectors of every
kind: zero, honest (rank one), random, sparse random and honest with one
coordinate moved.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import rankgap.gflinalg
from rankgap.boolalg import basis_make
from rankgap.cli import main
from rankgap.errors import PreconditionError
from rankgap.gfarith import make_field
from rankgap.subspace import SubspaceSpec, honest_moment_vector

FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5)]


@st.composite
def spaces_and_vectors(draw):
    field = draw(st.sampled_from(FIELDS))
    variant = draw(st.sampled_from("UV"))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    space = SubspaceSpec(field, variant, n, d, ())
    size = space.coord_count
    point = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if variant == "U":
        point = [1, *point]
    honest = list(honest_moment_vector(field, point, n, 2 * d, variant).values)
    perturbed = list(honest)
    pos = draw(st.integers(0, size - 1))
    perturbed[pos] = field.add(perturbed[pos], draw(st.integers(1, field.q - 1)))
    value = st.integers(0, field.q - 1)
    random = draw(st.lists(value, min_size=size, max_size=size))
    sparse = [0] * size
    for pos, v in draw(st.dictionaries(st.integers(0, size - 1), value, max_size=3)).items():
        sparse[pos] = v
    return space, [[0] * size, honest, perturbed, random, sparse]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(spaces_and_vectors())
def test_expansion_rank_is_the_rank_of_the_expansion(case):
    space, vectors = case
    for values in vectors:
        vector = space.vector(values)
        for level in range(space.d + 1):
            matrix = vector.expand(level)
            masks = basis_make(space.n, level, space.variant).masks
            labels = vector.independent_sets(level)
            assert labels == tuple(masks[p] for p in matrix.rref()[1])
            assert len(labels) == matrix.rank()


def test_expansion_rank_checks_its_arguments():
    space = SubspaceSpec(make_field(3), "V", 2, 1, ())
    with pytest.raises(PreconditionError, match="level 2 needs coordinates up to degree 4"):
        space.vector([0] * space.coord_count).independent_sets(2)
    with pytest.raises(PreconditionError, match="level -1"):
        space.vector([0] * space.coord_count).independent_sets(-1)
    with pytest.raises(PreconditionError, match="3 coordinates for a basis of size 4"):
        space.vector([0, 0, 0])
    with pytest.raises(PreconditionError):
        space.vector([0, 0, 0, 3])


def test_verify_builds_no_dense_matrix(tmp_path, monkeypatch):
    """verify decides membership and rank from the coordinates alone."""
    src, inst = tmp_path / "two.cnf", tmp_path / "two.json"
    src.write_text("p cnf 3 2\n1 2 3 0\n-1 2 -3 0\n")
    argv = ["reduce", "--mode", "superposition", "--input", str(src), "--output", str(inst)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0

    def verify(bits):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--input", str(inst), "--assignment", bits])
        return code, out.getvalue()

    reports = {bits: verify(bits) for bits in ("1,1,0", "0,1,1", "0,0,0")}
    assert [json.loads(out.split("\n", 1)[1])["rank"] for _, out in reports.values()] == [1, 1, None]

    def refuse(*args, **kwargs):
        raise AssertionError("verify built an FFMatrix")

    monkeypatch.setattr(rankgap.gflinalg.FFMatrix, "__init__", refuse)
    for bits, report in reports.items():
        assert verify(bits) == report
