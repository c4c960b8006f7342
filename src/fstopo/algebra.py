"""Exact membership grades, fuzzy sets over a finite universe, and finite
grade lattices.

Membership degrees are rational numbers in [0, 1] and they are kept exact:
complements (1 - g) and the equality tests behind the topology engine and
the axiom deciders have to be bit-precise, so floating point is rejected at
the boundary.  ``fractions.Fraction`` already canonicalises to lowest terms
and is used directly as the grade type; this module adds range checking,
the textual grade syntax, and the min/max lattice structure on top.

Grades are validated once, where they enter: ``as_grade``, the
``FuzzySet`` constructor and the parsers check every value.  The lattice
operations (union, intersection, complement) take grades that were
checked already, and max, min and 1 - g of Fractions in [0, 1] are
Fractions in [0, 1], so they build their results through ``_lattice_set``
without checking them again.  ``GradeLattice.close`` likewise checks its
seeds and not the lattice it builds from them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Grade = Fraction

GRADE_ZERO = Fraction(0)
GRADE_ONE = Fraction(1)


class GradeError(ValueError):
    """A value outside [0, 1], or grade text that does not parse."""


class ContextMismatchError(ValueError):
    """Operands live over different universes or parameter sets."""


class CapExceededError(ValueError):
    """An enumeration would exceed its configured cap.

    Enumerations never truncate silently; they refuse up front and report
    the exact count they would have produced.
    """

    def __init__(self, what: str, required: int, cap: int):
        self.what = what
        self.required = required
        self.cap = cap
        super().__init__(f"{what}: {required} items exceed cap {cap}")


# ASCII digits, spaces and tabs only: ``\d`` and ``\s`` would also take
# other scripts' digits and every Unicode space
_FRACTION_RE = re.compile(r"\A([0-9]+)[ \t]*/[ \t]*([0-9]+)\Z")
_DECIMAL_RE = re.compile(r"\A([0-9]+)(?:\.([0-9]+))?\Z")


def parse_grade(text: str) -> Fraction:
    """Parse ``"p/q"``, or a decimal with at most six fractional digits.

    Decimal literals are read exactly: ``"0.1"`` is one tenth, not the
    nearest binary float.  Spaces and tabs may pad the text and the
    slash; no other whitespace is accepted.
    """
    stripped = text.strip(" \t")
    m = _FRACTION_RE.match(stripped)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise GradeError(f"zero denominator in grade {text!r}")
        value = Fraction(num, den)
    else:
        m = _DECIMAL_RE.match(stripped)
        if m is None:
            raise GradeError(f"unparsable grade {text!r}")
        if m.group(2) is not None and len(m.group(2)) > 6:
            raise GradeError(f"more than six fractional digits in grade {text!r}")
        value = Fraction(stripped)
    if value > GRADE_ONE:
        raise GradeError(f"grade out of range [0, 1]: {text!r}")
    return value


def as_grade(value: Fraction | int | str) -> Fraction:
    """Coerce ``value`` to an exact grade in [0, 1].

    Floats are refused on purpose: 0.1 has no exact binary representation
    and an inexact grade would silently break complement round trips.
    """
    if isinstance(value, bool):
        raise GradeError(f"not a grade: {value!r}")
    if isinstance(value, float):
        raise GradeError(
            "floating point grades are not accepted; pass a string, int or Fraction"
        )
    if isinstance(value, str):
        return parse_grade(value)
    if isinstance(value, int):
        value = Fraction(value)
    if not isinstance(value, Fraction):
        raise GradeError(f"not a grade: {value!r}")
    if value < GRADE_ZERO or value > GRADE_ONE:
        raise GradeError(f"grade out of range [0, 1]: {value}")
    return value


def render_grade(g: Fraction) -> str:
    """Canonical text for a grade: ``p/q`` in lowest terms, ``0``/``1`` at the bounds."""
    return str(g)


@dataclass(frozen=True)
class Names:
    """Ordered finite list of distinct nonempty names.

    The order is fixed at construction and drives every canonical
    serialisation, so equal structures always render to identical text.
    Each subclass sets the nouns of its error texts: the list
    (``whole``), one name (``entry``), the names (``entries``) and what
    a lookup misses (``member``).  Lists of two subclasses are never
    equal.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError(f"{self.whole} must not be empty")
        for name in self.names:
            if not isinstance(name, str) or not name:
                raise ValueError(f"bad {self.entry}: {name!r}")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate {self.entries}")

    @classmethod
    def of(cls, *names: str):
        return cls(tuple(names))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown {self.member}: {name!r}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self.names


class Universe(Names):
    """Ordered finite set of element identifiers."""

    whole, entry = "universe", "element identifier"
    entries, member = "universe elements", "universe element"


def _require_same_universe(a: "FuzzySet", b: "FuzzySet") -> None:
    if a.universe != b.universe:
        raise ContextMismatchError("fuzzy sets live over different universes")


@dataclass(frozen=True)
class FuzzySet:
    """A membership vector over a universe: one exact grade per element.

    Union and intersection are the pointwise max and min, which make the
    fuzzy sets over a fixed universe a bounded distributive lattice with
    1 - g as the (non-Boolean) complement.
    """

    universe: Universe
    grades: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.grades) != len(self.universe):
            raise ValueError("exactly one grade per universe element is required")
        object.__setattr__(self, "grades", tuple(as_grade(g) for g in self.grades))

    @classmethod
    def from_mapping(
        cls, universe: Universe, mapping: Mapping[str, Fraction | int | str]
    ) -> "FuzzySet":
        """Build from a partial mapping; elements not mentioned get grade 0."""
        unknown = [name for name in mapping if name not in universe]
        if unknown:
            raise KeyError(f"unknown universe elements: {unknown}")
        return cls(
            universe,
            tuple(as_grade(mapping.get(name, GRADE_ZERO)) for name in universe),
        )

    @classmethod
    def constant(cls, universe: Universe, grade: Fraction | int | str) -> "FuzzySet":
        g = as_grade(grade)
        return cls(universe, (g,) * len(universe))

    def grade_of(self, name: str) -> Fraction:
        return self.grades[self.universe.index(name)]

    def is_null(self) -> bool:
        return not any(self.grades)

    def is_full(self) -> bool:
        return all(g == GRADE_ONE for g in self.grades)

    def union(self, other: "FuzzySet") -> "FuzzySet":
        _require_same_universe(self, other)
        return _lattice_set(self.universe,
                            tuple(map(max, self.grades, other.grades)))

    def intersection(self, other: "FuzzySet") -> "FuzzySet":
        _require_same_universe(self, other)
        return _lattice_set(self.universe,
                            tuple(map(min, self.grades, other.grades)))

    def complement(self) -> "FuzzySet":
        return _lattice_set(self.universe,
                            tuple(GRADE_ONE - g for g in self.grades))

    def leq(self, other: "FuzzySet") -> bool:
        _require_same_universe(self, other)
        return all(a <= b for a, b in zip(self.grades, other.grades))

    def render(self) -> str:
        inner = ", ".join(
            f"{name}: {render_grade(g)}" for name, g in zip(self.universe, self.grades)
        )
        return "{" + inner + "}"


def _lattice_set(universe: Universe, grades: tuple[Fraction, ...]) -> FuzzySet:
    """A ``FuzzySet`` from grades that are already exact and in range, one
    per element of ``universe``, built without checking them again."""
    fs = object.__new__(FuzzySet)
    object.__setattr__(fs, "universe", universe)
    object.__setattr__(fs, "grades", grades)
    return fs


@dataclass(frozen=True)
class GradeLattice:
    """A finite, complement-closed set of grades containing 0 and 1.

    Quantifiers such as "for every fuzzy soft point" are always read
    relative to one of these lattices; that keeps every search finite and
    makes each verdict reproducible relative to the declared grade set.
    """

    grades: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "grades", tuple(as_grade(g) for g in self.grades))
        if list(self.grades) != sorted(set(self.grades)):
            raise ValueError("lattice grades must be strictly ascending and distinct")
        if GRADE_ZERO not in self.grades or GRADE_ONE not in self.grades:
            raise ValueError("a grade lattice must contain 0 and 1")
        present = set(self.grades)
        for g in self.grades:
            if GRADE_ONE - g not in present:
                raise ValueError(f"lattice not closed under complement at {g}")

    @classmethod
    def close(cls, seeds: Iterable[Fraction | int | str]) -> "GradeLattice":
        """Smallest valid lattice containing ``seeds``: add 0, 1 and all complements."""
        grades = {GRADE_ZERO, GRADE_ONE}
        for seed in seeds:
            g = as_grade(seed)
            grades.add(g)
            grades.add(GRADE_ONE - g)
        # sorted and distinct, with 0 and 1, closed under complement: valid
        lattice = object.__new__(cls)
        object.__setattr__(lattice, "grades", tuple(sorted(grades)))
        return lattice

    @classmethod
    def uniform(cls, denominator: int) -> "GradeLattice":
        """The chain 0, 1/n, 2/n, ..., 1."""
        if denominator < 1:
            raise ValueError("denominator must be positive")
        return cls.close(Fraction(k, denominator) for k in range(denominator + 1))

    def __contains__(self, grade: object) -> bool:
        return grade in self.grades

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.grades)

    def __len__(self) -> int:
        return len(self.grades)

    def render(self) -> str:
        return ", ".join(render_grade(g) for g in self.grades)
