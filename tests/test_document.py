from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fstopo import document
from fstopo.algebra import FuzzySet, GradeLattice
from fstopo.document import (
    DocumentError,
    document_from_topology,
    parse_document,
)
from fstopo.softsets import FuzzySoftSet
from fstopo.topology import validate_topology

SAMPLE = """\
# two desks under two lamps
universe: x y
parameters: e1 e2
lattice: 0 1/2 1

carrier:
  e1: x=1/2 y=1/2

open none:

open a:
  e1: x=1/2

open all:
  e1: x=1/2 y=1/2

set probe:
  e1: y=1/2
"""


def test_parse_sample():
    doc = parse_document(SAMPLE)
    assert list(doc.universe) == ["x", "y"]
    assert list(doc.parameters) == ["e1", "e2"]
    assert doc.lattice_spec == (0, Fraction(1, 2), 1)
    assert [name for name, _ in doc.opens] == ["none", "a", "all"]
    assert [name for name, _ in doc.extras] == ["probe"]
    assert doc.carrier.grade_of("e1", "x") == Fraction(1, 2)
    assert doc.carrier.grade_of("e2", "x") == 0


def test_names_and_named_set():
    doc = parse_document(SAMPLE)
    assert doc.names() == ("carrier", "none", "a", "all", "probe")
    assert doc.named_set("carrier") == doc.carrier
    assert doc.named_set("probe").grade_of("e1", "y") == Fraction(1, 2)
    with pytest.raises(KeyError):
        doc.named_set("zzz")


def test_missing_carrier_defaults_to_all_one():
    doc = parse_document("universe: x\nparameters: e1\nopen o:\n  e1: x=1\n")
    assert doc.carrier.is_full()


def test_empty_block_is_the_null_set():
    doc = parse_document(SAMPLE)
    assert doc.named_set("none").is_null()


def test_decimal_shorthand_renders_as_fraction():
    doc = parse_document(
        "universe: x\nparameters: e1\nopen o:\n  e1: x=0.5\n")
    assert doc.named_set("o").grade_of("e1", "x") == Fraction(1, 2)
    assert "x=1/2" in doc.render()
    assert "0.5" not in doc.render()


def test_render_round_trip():
    doc = parse_document(SAMPLE)
    again = parse_document(doc.render())
    assert again.carrier == doc.carrier
    assert again.opens == doc.opens
    assert again.extras == doc.extras
    assert again.render() == doc.render()


def test_occurring_grades_include_the_lattice_line():
    doc = parse_document(SAMPLE)
    assert Fraction(1, 2) in doc.occurring_grades()
    assert 0 in doc.occurring_grades() and 1 in doc.occurring_grades()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("parameters: e1\nopen o:\n", "universe"),
        ("universe: x\nopen o:\n", "parameters"),
        ("universe: x\nuniverse: y\nparameters: e1\n", "line 2"),
        ("universe: x\nparameters: e1\nopen a:\nopen a:\n", "line 4"),
        ("universe: x\nparameters: e1\n  e1: x=1\n", "line 3"),
        ("universe: x\nparameters: e1\nopen o:\n  e9: x=1\n", "line 4"),
        ("universe: x\nparameters: e1\nopen o:\n  e1: z=1\n", "line 4"),
        ("universe: x\nparameters: e1\nopen o:\n  e1: x=3/2\n", "line 4"),
        # Arabic-Indic digits one half: the grade syntax is ASCII
        ("universe: x\nparameters: e1\nopen o:\n  e1: x=\u0661/\u0662\n",
         "line 4"),
        ("universe: x\nparameters: e1\nlattice: 0 \u0661\n", "line 3"),
        ("universe: x\nparameters: e1\nopen o:\n  e1: x=1 x=0\n", "line 4"),
        ("universe: x\nparameters: e1\nwhatever: 1\n", "line 3"),
        ("universe: x\nparameters: e1\nopen carrier:\n", "reserved"),
    ],
)
def test_errors_carry_line_numbers(text, fragment):
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert fragment in str(err.value)


HEAD = "universe: x\nparameters: e1\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (HEAD + "open o\n", "line 3: expected 'keyword:', got 'open o'"),
        ("universe:\n", "line 1: universe needs at least one element"),
        ("universe: x\nparameters:\n",
         "line 2: parameters needs at least one name"),
        (HEAD + "lattice:\n", "line 3: lattice needs at least one grade"),
        ("universe: x\nuniverse: y\nparameters: e1\n",
         "line 2: duplicate universe line"),
        (HEAD + "parameters: e2\n", "line 3: duplicate parameters line"),
        (HEAD + "lattice: 0 1\nlattice: 0 1\n",
         "line 4: duplicate lattice line"),
        ("universe: x x\n", "line 1: duplicate universe elements"),
        ("universe: x\nparameters: e1 e1\n",
         "line 2: duplicate parameter names"),
        (HEAD + "lattice: 0 1/0\n",
         "line 3: bad grade '1/0': zero denominator in grade '1/0'"),
        (HEAD + "carrier: 1\n", "line 3: carrier takes no inline value"),
        (HEAD + "carrier:\ncarrier:\n", "line 4: duplicate carrier block"),
        ("universe: x\ncarrier:\n",
         "line 2: carrier must come after universe and parameters"),
        (HEAD + "open :\n", "line 3: open block needs a name"),
        (HEAD + "open carrier:\n", "line 3: 'carrier' is a reserved name"),
        (HEAD + "open a:\nopen a:\n", "line 4: duplicate block name 'a'"),
        (HEAD + "set g: 1\n", "line 3: set g takes no inline value"),
        ("universe: x\nset g:\n",
         "line 2: set block must come after universe and parameters"),
        (HEAD + "whatever: 1\n", "line 3: unknown keyword 'whatever'"),
        ("parameters: e1\n", "line 1: missing universe line"),
        ("universe: x\n", "line 1: missing parameters line"),
        (HEAD + "  e1: x=1\n", "line 3: indented row outside any block"),
        (HEAD + "open o:\n  e1 x=1\n",
         "line 4: expected 'param: elem=grade ...'"),
        (HEAD + "open o:\n  e9: x=1\n", "line 4: unknown parameter 'e9'"),
        (HEAD + "open o:\n  e1: x=1\n  e1: x=0\n",
         "line 5: duplicate row for parameter 'e1'"),
        (HEAD + "open o:\n  e1: x\n", "line 4: expected 'elem=grade', got 'x'"),
        (HEAD + "open o:\n  e1: z=1\n", "line 4: unknown element 'z'"),
        (HEAD + "open o:\n  e1: x=1 x=0\n", "line 4: duplicate element 'x'"),
        (HEAD + "open o:\n  e1: x=3/2\n",
         "line 4: bad grade '3/2': grade out of range [0, 1]: '3/2'"),
    ],
)
def test_each_parse_error_has_its_exact_message(text, message):
    # every refusal the parser can make, word for word
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert str(err.value) == message


def test_document_from_topology_round_trips():
    doc = parse_document(SAMPLE)
    space = validate_topology(doc.carrier, [s for _, s in doc.opens])
    emitted = document_from_topology(
        space.carrier, space.opens,
        lattice_spec=tuple(GradeLattice.close(["1/2"])))
    again = parse_document(emitted.render())
    assert again.carrier == space.carrier
    assert tuple(s for _, s in again.opens) == space.opens


def test_generated_names_are_sequential():
    doc = parse_document(SAMPLE)
    space = validate_topology(doc.carrier, [s for _, s in doc.opens])
    emitted = document_from_topology(space.carrier, space.opens)
    assert [name for name, _ in emitted.opens] == ["o1", "o2", "o3"]


def test_zero_rows_are_omitted_on_render():
    doc = parse_document(SAMPLE)
    rendered = doc.render()
    # e2 rows are all zero everywhere and never printed
    assert "e2:" not in rendered


def test_comments_and_blank_lines_ignored():
    text = "# hi\n\nuniverse: x\n# mid\nparameters: e1\n\nopen o:\n  e1: x=1\n"
    doc = parse_document(text)
    assert doc.named_set("o") == FuzzySoftSet.build(
        doc.universe, doc.parameters, {"e1": {"x": 1}})


# distinct spellings of the same grades, so equal grades come from
# different tokens as well as from repeated ones
TOKENS = ("0", "00", "1", "1.0", "1/2", "2/4", "0.5", "1/3", "0.25", "3/4")


@st.composite
def drawn_documents(draw):
    """Document text and, for each block, its rows as token mappings."""
    universe = ("x", "y", "z")[:draw(st.integers(1, 3))]
    parameters = ("e1", "e2")[:draw(st.integers(1, 2))]
    tokens = st.sampled_from(TOKENS)
    lines = ["universe: " + " ".join(universe),
             "parameters: " + " ".join(parameters)]
    if draw(st.booleans()):
        lines.append("lattice: " + " ".join(
            draw(st.lists(tokens, min_size=1, max_size=4))))
    names = ["carrier"] if draw(st.booleans()) else []
    names += [f"o{i}" for i in range(draw(st.integers(0, 3)))]
    blocks = {}
    for name in names:
        lines.append(f"{name}:" if name == "carrier" else f"open {name}:")
        rows = {}
        for param in parameters:
            if draw(st.booleans()):
                cells = {e: draw(tokens) for e in universe
                         if draw(st.booleans())}
                rows[param] = cells
                lines.append(f"  {param}: " + " ".join(
                    f"{e}={t}" for e, t in cells.items()))
        blocks[name] = rows
    return "\n".join(lines) + "\n", blocks


@given(drawn_documents())
def test_parsed_sets_equal_their_validating_rebuild(drawn):
    text, blocks = drawn
    doc = parse_document(text)
    for name, rows in blocks.items():
        parsed = doc.named_set(name)
        rebuilt = FuzzySoftSet.build(doc.universe, doc.parameters, rows)
        assert parsed == rebuilt and hash(parsed) == hash(rebuilt)
        for param, cells in rows.items():
            row = parsed.value_for(param)
            again = FuzzySet.from_mapping(doc.universe, cells)
            assert row == again and hash(row) == hash(again)
    for value in (doc.carrier, *(v for _, v in doc.opens)):
        assert all(type(g) is Fraction for row in value.values
                   for g in row.grades)
    assert all(type(g) is Fraction for g in doc.lattice_spec or ())
    assert parse_document(doc.render()) == doc


COUNTED = """\
universe: x y
parameters: e1 e2
lattice: 0 1/2 1
carrier:
  e1: x=1 y=1
  e2: x=1 y=0.5
open o:
  e1: x=1/2 y=0.5
set g:
  e2: x=1/2 y=1
"""


def test_each_distinct_grade_token_is_validated_once(monkeypatch):
    calls = []
    real = document.as_grade
    monkeypatch.setattr(document, "as_grade",
                        lambda token: calls.append(token) or real(token))
    counts = []
    for _ in range(2):
        calls.clear()
        parse_document(COUNTED)
        assert sorted(calls) == ["0", "0.5", "1", "1/2"]
        counts.append(len(calls))
    # nothing validated in one parse is reused by the next
    assert counts == [4, 4]
