"""Line-oriented space documents.

A document names a universe and parameter list, then gives the carrier
and any number of named open families and extra named sets as indented
grade blocks:

    # lines starting with '#' and blank lines are skipped
    universe: x y
    parameters: e1 e2
    lattice: 0 1/2 1
    carrier:
      e1: x=1 y=1
      e2: x=1 y=1
    open phi:
    open u:
      e1: x=1/2
    set g:
      e1: x=3/4 y=1/4

Rows are "param: elem=grade ...": parameters without a row and elements
not mentioned get grade 0, so the empty block is the null set.  Grades
accept fractions, integers and decimal shorthand, and always render
back as exact fractions.  The carrier block is optional and defaults to
the all-one set.  Every parse problem is reported with its line number.

Each distinct grade token is validated once per parse, by ``as_grade``,
and its grade is reused wherever the token occurs again; nothing is
kept from one parse to the next.  A row is filled over the whole
universe from grades validated already, so it is built through the
trusted path of the lattice operations, ``algebra._lattice_set``, and
``FuzzySoftSet.build`` takes those rows without checking them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import GRADE_ZERO, FuzzySet, Universe, _lattice_set, as_grade
from .softsets import FuzzySoftSet, ParameterSet

RESERVED_NAMES = ("carrier",)


class DocumentError(ValueError):
    """A parse or structure problem, located by line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class SpaceDocument:
    universe: Universe
    parameters: ParameterSet
    lattice_spec: tuple[Fraction, ...] | None
    carrier: FuzzySoftSet
    opens: tuple[tuple[str, FuzzySoftSet], ...]
    extras: tuple[tuple[str, FuzzySoftSet], ...]

    def named_set(self, name: str) -> FuzzySoftSet:
        if name == "carrier":
            return self.carrier
        for label, value in self.opens + self.extras:
            if label == name:
                return value
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return ("carrier",) + tuple(
            label for label, _ in self.opens + self.extras)

    def occurring_grades(self) -> set[Fraction]:
        grades = set(self.carrier.occurring_grades())
        for _, value in self.opens + self.extras:
            grades |= value.occurring_grades()
        if self.lattice_spec is not None:
            grades |= set(self.lattice_spec)
        return grades

    def render(self) -> str:
        lines = [
            "universe: " + " ".join(self.universe),
            "parameters: " + " ".join(self.parameters),
        ]
        if self.lattice_spec is not None:
            lines.append(
                "lattice: " + " ".join(str(g) for g in self.lattice_spec))
        lines.append("carrier:")
        lines.extend(_render_rows(self.carrier))
        for label, value in self.opens:
            lines.append(f"open {label}:")
            lines.extend(_render_rows(value))
        for label, value in self.extras:
            lines.append(f"set {label}:")
            lines.extend(_render_rows(value))
        return "\n".join(lines) + "\n"


def _render_rows(value: FuzzySoftSet) -> list[str]:
    rows = []
    for param in value.parameters:
        fs = value.value_for(param)
        cells = [f"{name}={fs.grade_of(name)}" for name in value.universe
                 if fs.grade_of(name) != 0]
        if cells:
            rows.append(f"  {param}: " + " ".join(cells))
    return rows


def _parse_grade(token: str, line_no: int,
                 memo: dict[str, Fraction]) -> Fraction:
    """The grade ``token`` names: validated on its first occurrence and
    read from ``memo`` after that.  A bad token is not kept."""
    grade = memo.get(token)
    if grade is None:
        try:
            grade = memo[token] = as_grade(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(
                line_no, f"bad grade {token!r}: {exc}") from None
    return grade


def parse_document(text: str) -> SpaceDocument:
    universe: Universe | None = None
    parameters: ParameterSet | None = None
    lattice_spec: tuple[Fraction, ...] | None = None
    carrier_rows: dict[str, FuzzySet] | None = None
    blocks: list[tuple[str, str, dict, int]] = []  # kind, name, rows, line
    current_rows: dict[str, FuzzySet] | None = None
    taken_names: set[str] = set()
    memo: dict[str, Fraction] = {}  # grade token -> its validated grade

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indented = raw[0] in " \t"

        if indented:
            if current_rows is None:
                raise DocumentError(line_no, "indented row outside any block")
            _parse_row(raw, line_no, universe, parameters, current_rows, memo)
            continue

        current_rows = None
        head, sep, rest = stripped.partition(":")
        if not sep:
            raise DocumentError(line_no, f"expected 'keyword:', got {raw!r}")
        head = head.strip()
        rest = rest.strip()

        if head == "universe":
            if universe is not None:
                raise DocumentError(line_no, "duplicate universe line")
            names = rest.split()
            if not names:
                raise DocumentError(line_no, "universe needs at least one element")
            try:
                universe = Universe.of(*names)
            except ValueError as exc:
                raise DocumentError(line_no, str(exc)) from None
        elif head == "parameters":
            if parameters is not None:
                raise DocumentError(line_no, "duplicate parameters line")
            names = rest.split()
            if not names:
                raise DocumentError(line_no, "parameters needs at least one name")
            try:
                parameters = ParameterSet.of(*names)
            except ValueError as exc:
                raise DocumentError(line_no, str(exc)) from None
        elif head == "lattice":
            if lattice_spec is not None:
                raise DocumentError(line_no, "duplicate lattice line")
            tokens = rest.split()
            if not tokens:
                raise DocumentError(line_no, "lattice needs at least one grade")
            lattice_spec = tuple(_parse_grade(t, line_no, memo) for t in tokens)
        elif head == "carrier":
            if rest:
                raise DocumentError(line_no, "carrier takes no inline value")
            if carrier_rows is not None:
                raise DocumentError(line_no, "duplicate carrier block")
            if universe is None or parameters is None:
                raise DocumentError(
                    line_no, "carrier must come after universe and parameters")
            carrier_rows = {}
            current_rows = carrier_rows
        else:
            kind, _, name = head.partition(" ")
            name = name.strip()
            if kind not in ("open", "set"):
                raise DocumentError(line_no, f"unknown keyword {kind!r}")
            if not name:
                raise DocumentError(line_no, f"{kind} block needs a name")
            if name in RESERVED_NAMES:
                raise DocumentError(line_no, f"{name!r} is a reserved name")
            if name in taken_names:
                raise DocumentError(line_no, f"duplicate block name {name!r}")
            if rest:
                raise DocumentError(
                    line_no, f"{kind} {name} takes no inline value")
            if universe is None or parameters is None:
                raise DocumentError(
                    line_no,
                    f"{kind} block must come after universe and parameters")
            taken_names.add(name)
            rows: dict[str, FuzzySet] = {}
            blocks.append((kind, name, rows, line_no))
            current_rows = rows

    if universe is None:
        raise DocumentError(1, "missing universe line")
    if parameters is None:
        raise DocumentError(1, "missing parameters line")

    if carrier_rows is None:
        carrier = FuzzySoftSet.full(universe, parameters)
    else:
        carrier = FuzzySoftSet.build(universe, parameters, carrier_rows)

    opens = []
    extras = []
    for kind, name, rows, line_no in blocks:
        value = FuzzySoftSet.build(universe, parameters, rows)
        if kind == "open":
            opens.append((name, value))
        else:
            extras.append((name, value))

    return SpaceDocument(
        universe=universe,
        parameters=parameters,
        lattice_spec=lattice_spec,
        carrier=carrier,
        opens=tuple(opens),
        extras=tuple(extras),
    )


def _parse_row(raw: str, line_no: int, universe, parameters, rows,
               memo: dict[str, Fraction]) -> None:
    if universe is None or parameters is None:
        raise DocumentError(
            line_no, "rows must come after universe and parameters")
    stripped = raw.strip()
    param, sep, rest = stripped.partition(":")
    if not sep:
        raise DocumentError(line_no, "expected 'param: elem=grade ...'")
    param = param.strip()
    if param not in parameters:
        raise DocumentError(line_no, f"unknown parameter {param!r}")
    if param in rows:
        raise DocumentError(line_no, f"duplicate row for parameter {param!r}")
    grades: dict[str, Fraction] = {}
    for token in rest.split():
        elem, sep, grade_text = token.partition("=")
        if not sep:
            raise DocumentError(
                line_no, f"expected 'elem=grade', got {token!r}")
        if elem not in universe:
            raise DocumentError(line_no, f"unknown element {elem!r}")
        if elem in grades:
            raise DocumentError(line_no, f"duplicate element {elem!r}")
        grades[elem] = _parse_grade(grade_text, line_no, memo)
    rows[param] = _lattice_set(
        universe, tuple([grades.get(name, GRADE_ZERO) for name in universe]))


def document_from_topology(
    carrier: FuzzySoftSet,
    opens,
    lattice_spec: tuple[Fraction, ...] | None = None,
    name_prefix: str = "o",
) -> SpaceDocument:
    """Wrap a carrier and open family as a document with generated names."""
    named = tuple(
        (f"{name_prefix}{i + 1}", o) for i, o in enumerate(opens))
    return SpaceDocument(
        universe=carrier.universe,
        parameters=carrier.parameters,
        lattice_spec=lattice_spec,
        carrier=carrier,
        opens=named,
        extras=(),
    )
