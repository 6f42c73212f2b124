"""SubspaceSpec.from_text against json.loads and from_json.

from_text reads a text laid out as to_text writes it by parsing each
distinct row text once, and accepts it only when writing back what it
parsed gives the text byte for byte; any other text goes through
json.loads and from_json.  Here reference_from_text is that json.loads
path alone, and both loaders must give the same result on written
instances and on mutations of them: equal spaces with the same rows
shared the same way and the same distinct_rows, or the same exception
type and message.
"""

import contextlib
import io
import json
import os
import random
import re
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import rankgap.subspace
from rankgap.boolalg import basis_size
from rankgap.cli import main
from rankgap.errors import ParseError
from rankgap.frontends import CnfFormula
from rankgap.gfarith import make_field
from rankgap.subspace import SubspaceSpec, honest_moment_vector
from rankgap.superposition import (
    build_constant_free_system,
    build_matrix_subspace,
    build_monomial_quad_system,
)

FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5)]


def reference_from_text(text):
    """from_text before it read canonical texts itself."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("subspace document must be a JSON object")
    return SubspaceSpec.from_json(doc)


def sharing(space):
    """For each row, the index of the first row that is the same object."""
    first = {}
    return [first.setdefault(id(row), k) for k, row in enumerate(space.rows)]


def outcome(load, text):
    try:
        space = load(text)
    except Exception as exc:  # the type and message are what is compared
        return ("error", type(exc), str(exc))
    distinct = [(k, row, row is space.rows[k]) for k, row in space.distinct_rows]
    return ("ok", space, space.to_text(), sharing(space), distinct)


def assert_same_load(text):
    got, want = outcome(SubspaceSpec.from_text, text), outcome(reference_from_text, text)
    assert got == want
    return got


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def spaces(draw, min_rows=0):
    """A space over GF(2), GF(3), GF(4) or GF(5), U or V, whose rows are
    drawn from a pool of at most four rows and the empty row, the list then
    written up to three times over, so most repeat; sometimes every row is
    distinct, sometimes there are none.  A nonempty list is written over
    again until it has at least min_rows rows."""
    field = draw(st.sampled_from(FIELDS))
    variant = draw(st.sampled_from("UV"))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    ncoords = basis_size(n, 2 * d, variant)
    row = st.dictionaries(
        st.integers(0, ncoords - 1), st.integers(1, field.q - 1), max_size=4
    ).map(lambda entries: tuple(sorted(entries.items())))
    pool = draw(st.lists(row, min_size=1, max_size=4)) + [()]
    rows = draw(st.lists(st.sampled_from(pool), max_size=20) | st.lists(row, max_size=3))
    rows *= draw(st.integers(1, 3))
    if rows and len(rows) < min_rows:
        rows *= -(-min_rows // len(rows))
    provenance = draw(st.dictionaries(st.text(max_size=4), json_values, max_size=3))
    return SubspaceSpec(field, variant, n, d, tuple(rows), provenance)


LITERALS = st.sampled_from([
    "0", "1", "2", "4", "7", "-1", "255", "10000000000000000000000", "1.0", "0.0", "1e0",
    "-0", "true", "false", "null", '"1"', "[]", "{}", "[1, 1]", "01", "1_0", "٣",
])
TOP_KEYS = ("format", "field", "variant", "n", "d", "coord_count", "matrix_side", "rows", "provenance")


def replace_number(text, draw):
    numbers = [m.span() for m in re.finditer(r"-?\d+", text)]
    start, end = draw(st.sampled_from(numbers))
    return text[:start] + draw(LITERALS) + text[end:]


def reindent(text, draw):
    newlines = [m.start() for m in re.finditer("\n", text)]
    at = draw(st.sampled_from(newlines))
    edit = draw(st.sampled_from(["drop newline", "add space", "drop space", "tab"]))
    if edit == "drop newline":
        return text[:at] + text[at + 1:]
    if edit == "add space":
        return text[:at + 1] + " " + text[at + 1:]
    if edit == "drop space":
        return text[:at + 1] + text[at + 2:] if text[at + 1:at + 2] == " " else text
    return text[:at + 1] + "\t" + text[at + 1:]


def document(text):
    """The JSON object text holds, or None once a mutation has broken it."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def reorder_keys(text, draw):
    doc = document(text)
    if doc is None:
        return text
    keys = draw(st.permutations(list(doc)))
    return json.dumps({key: doc[key] for key in keys}, indent=2) + "\n"


def permute_rows(text, draw):
    """The same rows in another order, written as to_text would write them."""
    doc = document(text)
    if doc is None or not isinstance(doc.get("rows"), list):
        return text
    doc["rows"] = draw(st.permutations(doc["rows"]))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reshape_head(text, draw):
    """A head to_text would not write (a size left out, an unknown key, the
    field spelt another way) in to_text's layout."""
    doc = document(text)
    if doc is None:
        return text
    edit = draw(st.sampled_from(["drop coord_count", "drop matrix_side", "extra key", "field"]))
    if edit == "extra key":
        doc[draw(st.sampled_from(["aa", "zz", "note"]))] = draw(st.sampled_from([1, "x", [], {}]))
    elif edit == "field":
        doc["field"] = {"GF(2^2; 1,1,1)": "GF(2^2)", "GF(2)": "GF(2^1)"}.get(doc.get("field"), "GF(5)")
    else:
        doc.pop(edit.split()[1], None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def duplicate_key(text, draw):
    """A second top-level key, before the first key or after the last: json.loads
    keeps the later one."""
    line = f'  "{draw(st.sampled_from(TOP_KEYS))}": {draw(LITERALS)}'
    if draw(st.booleans()):
        return text.replace("{\n", "{\n" + line + ",\n", 1)
    return text[: text.rindex("\n}")] + ",\n" + line + "\n}\n"


def nested_rows(text, draw):
    """A "rows" key inside the provenance, laid out at the top level's indent."""
    value = draw(st.sampled_from(["[\n    []\n  ]", "[\n    [\n      [\n        1,\n        1\n      ]\n    ]\n  ]"]))
    return text.replace('"provenance": {', '"provenance": {\n  "rows": ' + value + ",", 1)


def raw_non_ascii(text, draw):
    doc = document(text)
    if doc is None or not isinstance(doc.get("provenance"), dict):
        return text
    doc["provenance"] = {**doc["provenance"], draw(st.sampled_from(["é", "☃", "ü"])): "Grüße"}
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=draw(st.booleans())) + "\n"


def trailing(text, draw):
    return draw(st.sampled_from([text + " ", text + "x", text + "\n", text[:-1], text + "\0"]))


MUTATORS = [replace_number, reindent, reorder_keys, permute_rows, reshape_head, duplicate_key,
            nested_rows, raw_non_ascii, trailing]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(spaces())
def test_written_instances_load_as_the_reference_loads_them(space):
    text = space.to_text()
    result = assert_same_load(text)
    assert result[0] == "ok" and result[1] == space and result[2] == text


@settings(derandomize=True, max_examples=600, deadline=None)
@given(spaces(), st.data())
def test_mutated_instances_load_as_the_reference_loads_them(space, data):
    text = space.to_text()
    for _ in range(data.draw(st.integers(1, 3))):
        text = data.draw(st.sampled_from(MUTATORS))(text, data.draw)
    assert_same_load(text)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spaces(min_rows=rankgap.subspace._CANONICAL_ROWS), st.data())
def test_long_instances_load_as_the_reference_loads_them(space, data):
    """Texts long enough for the canonical route, written and mutated."""
    text = space.to_text()
    result = assert_same_load(text)
    assert result[0] == "ok" and result[1] == space and result[2] == text
    for _ in range(data.draw(st.integers(1, 3))):
        text = data.draw(st.sampled_from(MUTATORS))(text, data.draw)
    assert_same_load(text)


def leading(text, draw):
    """A NUL, a byte order mark, a line end or a space before the text."""
    return draw(st.sampled_from(["\0", "\ufeff", "\r\n", "\r", " "])) + text


@settings(derandomize=True, max_examples=400, deadline=None)
@given(spaces() | spaces(min_rows=rankgap.subspace._CANONICAL_ROWS), st.data())
def test_bytes_load_as_their_text_loads(space, data):
    """from_text given a text's UTF-8 bytes takes the route the text takes
    and gives what the text gives: an equal space with the same rows shared
    the same way and the same distinct_rows, or the same exception type and
    message.  The texts are written instances and their mutations, a NUL,
    a byte order mark or a line end put in front among them."""
    text = space.to_text()
    for _ in range(data.draw(st.integers(0, 3))):
        text = data.draw(st.sampled_from([*MUTATORS, leading]))(text, data.draw)
    encoded = text.encode()
    canonical = rankgap.subspace._canonical_parts
    assert (canonical(encoded) is None) == (canonical(text) is None)
    assert outcome(SubspaceSpec.from_text, encoded) == outcome(SubspaceSpec.from_text, text)


def test_bytes_that_are_not_utf8_are_refused_as_bad_json():
    text = SubspaceSpec(make_field(2), "V", 2, 1, (((0, 1),),) * 80, {"k": 1}).to_text()
    assert rankgap.subspace._canonical_parts(text) is not None
    with pytest.raises(ParseError, match="^bad JSON: 'utf-8' codec can't decode byte 0xff"):
        SubspaceSpec.from_text(text.encode().replace(b'"k"', b'"\xff"'))


def test_changed_rows_are_found_where_they_stand():
    """Canonical texts whose rows break a rule give the reference's error;
    the route reads those with int values, and leaves 1.0 to json.loads."""
    gf3 = make_field(3)
    good = ((0, 1), (2, 2))
    text = SubspaceSpec(gf3, "V", 2, 1, (good,) * 80 + ((),)).to_text()
    for old, new, canonical in [
        ("2\n      ]\n    ]", "0\n      ]\n    ]", True),  # a zero coefficient
        ("        2,", "        99,", True),  # a position out of range
        ("        0,", "        3,", True),  # positions out of order
        ("        1\n", "        1.0\n", False),
    ]:
        i = text.rindex(old)  # in the last good row
        mutant = text[:i] + new + text[i + len(old):]
        assert (rankgap.subspace._canonical_parts(mutant) is not None) == canonical
        result = assert_same_load(mutant)
        assert result[0] == "error" and "row 79" in result[2], result


@settings(derandomize=True, max_examples=100, deadline=None)
@given(spaces() | spaces(min_rows=rankgap.subspace._CANONICAL_ROWS))
def test_written_instances_with_repeated_rows_take_the_canonical_route(space):
    """Texts of at least _CANONICAL_ROWS rows, at least half of them
    repeats, take the route; shorter ones never do."""
    text = space.to_text()
    repeats = len(space.rows) - len(space.distinct_rows)
    if len(space.rows) < rankgap.subspace._CANONICAL_ROWS:
        assert rankgap.subspace._canonical_parts(text) is None
    elif 2 * repeats >= len(space.rows):
        assert rankgap.subspace._canonical_parts(text) is not None
        loaded = SubspaceSpec.from_text(text)
        assert loaded.to_text() == text


SEP = rankgap.subspace._ROW_SEP
# pieces of to_text's layout: the separator, near misses of it with 3 and
# 5 spaces or no "[", \r\n line ends, and the characters rows are made of
layout_pieces = st.sampled_from(
    [SEP, ",\n   [", ",\n     [", ",\n    ", ",\r\n    [", "\r\n",
     "[", "]", ",", "\n", " ", "    ", "1", "\""]
)
layout_chars = st.text(alphabet=",[]\n\r 0123456789\"", max_size=4)
layout_texts = st.lists(layout_pieces | layout_chars, max_size=30).map("".join)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(layout_texts)
@example("")
@example(SEP)
@example(SEP + SEP)
@example(SEP + "[1]" + SEP + SEP + "2" + SEP)
@example(",\n   [" + SEP + ",\n     [" + ",\n    " + ",\r\n    [")
def test_the_compiled_split_splits_as_str_split(text):
    """The compiled pattern cuts a text into the pieces str.split does, and
    its bytes pattern the text's bytes into the pieces bytes.split does:
    separators at either end or back to back give empty pieces, and near
    misses cut nothing."""
    layouts = rankgap.subspace._LAYOUTS
    assert layouts[str].split(text) == text.split(SEP)
    assert layouts[bytes].split(text.encode()) == text.encode().split(SEP.encode())


def test_to_text_writes_the_provenance_as_it_is_now():
    """A built space writes its provenance as it stands at each call, so a
    caller's later change to that dict shows; a loaded space writes the
    text it was read from."""
    provenance = {"k": 1}
    space = SubspaceSpec(make_field(2), "V", 2, 1, (((0, 1),),) * 4, provenance)
    first = space.to_text()
    provenance["k"] = 2
    text = space.to_text()
    assert text != first
    assert text == json.dumps(space.to_json(), indent=2, sort_keys=True) + "\n"
    assert SubspaceSpec.from_text(text).to_text() == text


def test_many_distinct_rows_load_as_the_reference_loads_them():
    """More distinct rows than one json.loads call reads, each twice."""
    rng = random.Random(7)
    gf5 = make_field(5)
    ncoords = basis_size(3, 4, "V")
    distinct = {tuple(sorted({rng.randrange(ncoords): rng.randrange(1, 5) for _ in range(3)}.items()))
                for _ in range(700)}
    rows = sorted(distinct) * 2
    rng.shuffle(rows)
    text = SubspaceSpec(gf5, "V", 3, 2, tuple(rows), {"k": 1}).to_text()
    assert len(distinct) > 2 * rankgap.subspace._PARSE_ROWS
    assert rankgap.subspace._canonical_parts(text) is not None
    assert assert_same_load(text)[0] == "ok"
    i = text.rindex("        4\n")
    assert assert_same_load(text[:i] + "        0\n" + text[i + 10:])[0] == "error"


def test_a_reduced_cnf_is_parsed_once_per_distinct_row(tmp_path, monkeypatch):
    """No json.loads call reads the rows array of the file; the one that
    reads rows reads each distinct row text once."""
    src, out = tmp_path / "two.cnf", tmp_path / "two.json"
    src.write_text("p cnf 3 2\n1 2 3 0\n-1 2 -3 0\n")
    assert main(["reduce", "--mode", "superposition", "--input", str(src), "--output", str(out)]) == 0
    text = out.read_text()

    parsed = []
    loads = json.loads

    def recording(s, *args, **kwargs):
        value = loads(s, *args, **kwargs)
        parsed.append((s, value))
        return value

    monkeypatch.setattr(json, "loads", recording)
    space = SubspaceSpec.from_text(text)
    monkeypatch.undo()
    assert not any('"rows"' in s and isinstance(value, dict) and "rows" in value for s, value in parsed)
    row_texts = [row for _, value in parsed if isinstance(value, list) for row in value]
    assert len(row_texts) == len(space.distinct_rows) < len(space.rows)
    assert [tuple(map(tuple, row)) for row in row_texts] == [row for _, row in space.distinct_rows]
    assert space == reference_from_text(text)
    assert sharing(space) == sharing(reference_from_text(text))


@pytest.mark.parametrize("key, side", [("a", "head"), ("w", "tail")])
def test_a_list_of_lists_beside_the_rows_is_left_to_json_loads(key, side):
    """A top-level list of lists is written with the row separator in it.
    Before "rows" it lies in the head the reader trims off the first row,
    after "variant" in the tail it trims off the last; either way the text
    goes to json.loads and loads as it does there."""
    rows = (((0, 1),),) * 40 + (((1, 1), (3, 1)),) * 40
    assert len(rows) >= rankgap.subspace._CANONICAL_ROWS
    doc = SubspaceSpec(make_field(2), "V", 2, 1, rows, {"k": 1}).to_json()
    doc[key] = [[1], [2]]
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    cut = text.index('"rows"') if side == "head" else text.index('"variant"')
    assert rankgap.subspace._ROW_SEP in (text[:cut] if side == "head" else text[cut:])
    assert assert_same_load(text)[0] == "ok"
    assert rankgap.subspace._canonical_parts(text) is None


def test_writing_and_reading_a_cnf_instance_keep_their_memory_bounds():
    """Peak traced memory of to_text and from_text on an n = 7, m = 30,
    d = 8 CNF instance (8,299 rows, 0.6 MB), against the text's length.
    Building the document in one join, and splitting the text once
    without slicing out its rows first, keep them below these bounds;
    building it three times, or copying the rows before splitting them,
    does not."""
    rng = random.Random(0)
    z = [rng.randint(0, 1) for _ in range(7)]
    clauses = []
    while len(clauses) < 30:
        clause = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 8), 3))
        if any((z[abs(lit) - 1] == 1) == (lit > 0) for lit in clause):
            clauses.append(clause)
    quad = build_monomial_quad_system(build_constant_free_system(CnfFormula(7, tuple(clauses)), 8))
    space = build_matrix_subspace(quad, field=make_field(2), provenance={"k": 1})
    space.to_text()  # caches the row templates
    tracemalloc.start()
    try:
        text = space.to_text()
        _, written = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        loaded = SubspaceSpec.from_text(text)
        _, read = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(space.rows) == 8299 and loaded == space
    assert written < 2.0 * len(text)
    assert read - held < 2.4 * len(text)


def reduce_cnf(n, clauses, field="GF(2)"):
    """The instance text reduce writes for a CNF over n variables."""
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        src, out = os.path.join(work, "f.cnf"), os.path.join(work, "f.json")
        with open(src, "w") as handle:
            handle.write(f"p cnf {n} {len(clauses)}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses))
        assert main(["reduce", "--mode", "superposition", "--field", field, "--input", src, "--output", out]) == 0
        with open(out, "rb") as handle:
            return handle.read()


@st.composite
def cnf_instances(draw):
    """reduce's text for 1 to 4 clauses of 1 to 3 literals over n = 3 or 4
    variables, over GF(2) or GF(2^2)."""
    n = draw(st.integers(3, 4))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True).flatmap(
        lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs])
    )
    return reduce_cnf(n, draw(st.lists(clause, min_size=1, max_size=4)), draw(st.sampled_from(["GF(2)", "GF(2^2)"])))


def first_reads(load, text):
    """What each reader of a space shows when it is the first to read a
    space freshly loaded from text, or the load's error."""
    try:
        load(text)
    except Exception as exc:  # the type and message are what is compared
        return ("error", type(exc), str(exc))
    first = [(k, row, row is space.rows[k]) for space in [load(text)] for k, row in space.distinct_rows]
    return (hash(load(text)), repr(load(text)), load(text).rows, sharing(load(text)), first,
            load(text).distinct_rows, load(text).to_text(), load(text).to_json())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cnf_instances(), st.data())
def test_a_cnf_instance_builds_its_rows_on_first_read_as_the_reference_loads_them(written, data):
    """A reduce-written CNF text takes the canonical route and leaves its
    rows to be built; whichever reader comes first, ==, hash, repr, the
    rows, their sharing, the first appearances, to_text and to_json are
    what the json.loads route gives, on the text and on its mutations."""
    assert rankgap.subspace._canonical_parts(written) is not None
    assert "rows" not in SubspaceSpec.from_text(written).__dict__
    text = written.decode()
    for _ in range(data.draw(st.integers(0, 2))):
        text = data.draw(st.sampled_from(MUTATORS))(text, data.draw)
    for loaded in (text, text.encode()):
        got = first_reads(SubspaceSpec.from_text, loaded)
        assert got == first_reads(reference_from_text, text)
        if got[0] != "error":
            assert SubspaceSpec.from_text(loaded) == reference_from_text(text)
            assert reference_from_text(text) == SubspaceSpec.from_text(loaded)


def test_verify_minrank_and_descend_never_build_the_row_list(tmp_path, monkeypatch, capsys):
    """On a reduce-written CNF instance, verify --assignment, minrank
    --budget 1 and descend --instance read only the distinct rows: the
    property that builds the full row list is never called."""
    written = reduce_cnf(4, [(1, 2, -3), (-1, 3, 4), (2, -4), (-2, 3, -4)])
    inst, member = tmp_path / "f.json", tmp_path / "member.mat"
    inst.write_bytes(written)
    space = SubspaceSpec.from_text(written)
    honest = honest_moment_vector(space.field, (1, 1, 1, 1, 1), 4, 2 * space.d, "U")
    member.write_text(space.expand(honest.values).to_text())
    prop = SubspaceSpec.__dict__["rows"]
    built = []
    build = prop.func
    monkeypatch.setattr(prop, "func", lambda space: built.append(space) or build(space))
    assert main(["verify", "--input", str(inst), "--assignment", "1,1,1,1"]) == 0
    assert main(["minrank", "--input", str(inst), "--budget", "1"]) == 3
    assert main(["descend", "--input", str(member), "--instance", str(inst)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("member, rank 1\n") and err.startswith("error: kernel dimension ")
    assert built == []
    loaded = SubspaceSpec.from_text(written)
    assert loaded.rows == reference_from_text(written).rows and built == [loaded]
