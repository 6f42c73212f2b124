"""parse_quadeq reads each distinct term of a system once: a differential
against a reference that reads every equation on its own, the exact
errors of malformed sources, and a memo that lives in one call only."""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rankgap.boolalg
import rankgap.frontends
from rankgap.boolalg import format_poly, parse_poly
from rankgap.cli import main
from rankgap.errors import ParseError
from rankgap.frontends import parse_quadeq
from rankgap.gfarith import format_field, make_field

FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5)]
SPACES = st.sampled_from(["", " ", "  ", "\t"])


def reference_poly(text, field):
    """One well-formed equation, every term and factor read afresh."""
    coeffs = {}
    for raw in text.replace("-", "+-").split("+"):
        term = raw.strip()
        if not term:  # before a leading "-"
            continue
        coeff, mask = 1, 0
        for fac in term.removeprefix("-").split("*"):
            fac = fac.strip()
            if fac.startswith("x"):
                mask |= 1 << int(fac[1:])
            else:
                coeff = int(fac)
        if field.e == 1:
            coeff %= field.p
        if term.startswith("-"):
            coeff = field.neg(coeff)
        coeffs[mask] = field.add(coeffs.get(mask, 0), coeff)
    return {m: c for m, c in coeffs.items() if c}


@st.composite
def term_texts(draw, field, n):
    """A term's text: an optional coefficient, out of range over a prime
    field, then up to two variables, each possibly written twice or with
    leading zeros, joined with uneven spacing."""
    variables = draw(st.lists(st.integers(1, n), max_size=2, unique=True))
    names = [draw(st.sampled_from(["x{}", "x0{}"])).format(i) for i in variables]
    if names and draw(st.booleans()):
        names.append(names[0])
    top = field.q if field.e > 1 else 4 * field.p
    coeff = draw(st.integers(0, top - 1))
    if names and coeff == 1 and draw(st.booleans()):
        factors = names
    else:
        factors = [str(coeff), *names]
    joins = [draw(SPACES) + "*" + draw(SPACES) for _ in factors[1:]]
    return factors[0] + "".join(j + f for j, f in zip(joins, factors[1:]))


@st.composite
def systems(draw):
    """(field, equation texts, source text).  Equations draw their terms
    from a small pool, so term texts repeat within and across equations,
    and are separated by ";" and newlines alike."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(term_texts(field, n), min_size=1, max_size=6))
    equations = []
    for _ in range(draw(st.integers(1, 6))):
        terms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        text = draw(st.sampled_from(["", "-"])) + terms[0]
        for term in terms[1:]:
            text += draw(SPACES) + draw(st.sampled_from("+-")) + draw(SPACES) + term
        equations.append(text)
    text = f"field: {format_field(field)}"
    pin = draw(st.one_of(st.none(), st.integers(n, 6)))
    if pin is not None:
        text += f"\nn: {pin}"
    for eq in equations:
        text += draw(st.sampled_from(["\n", ";", " ; ", "\n\n"])) + eq
    return field, equations, text + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(systems())
def test_parse_quadeq_matches_reading_each_equation_alone(case):
    field, equations, text = case
    src = parse_quadeq(text)
    assert src.field == field
    expected = [reference_poly(eq, field) for eq in equations]
    # equal values in the same term order
    assert [list(f.coeffs.items()) for f in src.equations] == [list(c.items()) for c in expected]
    for f in src.equations:
        assert parse_poly(format_poly(f), field) == f
        assert parse_poly(format_poly(f), field, {}) == f


VALID = "x1 + x1*x2 + 1"


@pytest.mark.parametrize("field, bad, message", [
    ("GF(2)", "x1 +", "dangling operator in 'x1 + x1*x2 + 1 + x1 + x1 +'"),
    ("GF(2)", "2*3*x1", "two coefficients in term '2*3*x1'"),
    ("GF(2)", "x1*", "bad term 'x1*'"),
    ("GF(2)", "xq", "bad monomial 'xq'"),
    ("GF(2)", "x0", "x0 is reserved; quadratic systems use x1..xn"),
    ("GF(2)", "x" + "1" * 40, "variable index of 40 digits exceeds the cap of 61"),
    ("GF(2)", "x62", "variable index 62 exceeds the cap of 61"),
    ("GF(2)", "9" * 5000 + "*x1", f"bad coefficient {'9' * 5000!r}"),
    ("GF(2^2)", "7*x1", "coefficient 7 is not an element encoding of the field"),
])
def test_a_malformed_term_after_valid_repeats_raises_its_own_error(field, bad, message):
    """The bad term comes after the same valid terms several times, so a
    memo of the valid ones cannot change which error is raised first."""
    text = f"{field}\n{VALID}\n{VALID}; {VALID} + x1 + {bad}\n{VALID}\n"
    with pytest.raises(ParseError) as caught:
        parse_quadeq(text)
    assert str(caught.value) == message


def module_caches():
    """Sizes of every container and lru_cache the parsing modules hold."""
    sizes = {}
    for module in (rankgap.boolalg, rankgap.frontends):
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set)):
                sizes[module.__name__, name] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[module.__name__, name] = value.cache_info().currsize
    return sizes


def test_the_memo_lives_in_one_call():
    """One term text read under several fields gets each field's values,
    and parsing leaves nothing behind in the parsing modules."""
    before = module_caches()
    a = parse_quadeq("GF(5)\n7*x1 + 7*x1*x2\n-x3 + 6\n")
    b = parse_quadeq("GF(3)\n7*x1 + 7*x1*x2\n-x3 + 6\n")
    assert [f.coeffs for f in a.equations] == [{0b10: 2, 0b110: 2}, {0b1000: 4, 0: 1}]
    assert [f.coeffs for f in b.equations] == [{0b10: 1, 0b110: 1}, {0b1000: 2}]
    with pytest.raises(ParseError, match="^coefficient 7 is not an element encoding"):
        parse_quadeq("GF(2^2)\n3*x1\n7*x1\n")
    assert parse_quadeq("GF(2^2)\n3*x1\n").equations[0].coeffs == {0b10: 3}
    assert parse_quadeq("GF(2)\n3*x1\n").equations[0].coeffs == {0b10: 1}
    assert module_caches() == before


SOURCES = {"a.qe": "field: GF(5)\n7*x1 + 7*x1*x2 + 1\nx2 - x3\n",
           "b.qe": "field: GF(3)\n7*x1 + 7*x1*x2 + 1\nx2 - x3\n"}


def test_reduce_after_reduce_writes_what_a_fresh_process_writes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in SOURCES.items():
        (tmp_path / name).write_text(text)
    for name in SOURCES:
        assert main(["reduce", "--mode", "direct", "--input", name, "--output", name + ".json"]) == 0
    capsys.readouterr()
    env_path = str(Path(rankgap.boolalg.__file__).resolve().parent.parent)
    for name in SOURCES:
        subprocess.run([sys.executable, "-m", "rankgap", "reduce", "--mode", "direct",
                        "--input", name, "--output", name + ".fresh.json"],
                       check=True, capture_output=True, cwd=tmp_path, timeout=60,
                       env={"PYTHONPATH": env_path})
        assert (tmp_path / f"{name}.json").read_bytes() == (tmp_path / f"{name}.fresh.json").read_bytes()
