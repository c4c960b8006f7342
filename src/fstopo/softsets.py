"""Fuzzy soft sets: one fuzzy subset of the universe per parameter.

A fuzzy soft set assigns a fuzzy set over a shared universe to each name in
a finite parameter list.  All sets inside one space are taken over the same
parameter list; an assignment that mentions only some parameters is extended
with all-zero fuzzy sets at construction, which keeps union, intersection
and comparison total without case splits.

Union and intersection are pointwise max and min; the complement of a set
takes every grade to 1 - grade.  Two disjointness readings are provided:

* ``pointwise``: the plain intersection is the null set, i.e. the minima
  are taken parameter by parameter.  This is the default everywhere.
* ``cross_parameter``: min(g(a), h(b)) is all-zero for every ordered pair
  of parameters (a, b).  Strictly stronger than pointwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping

from .algebra import (
    GRADE_ZERO,
    CapExceededError,
    ContextMismatchError,
    FuzzySet,
    GradeLattice,
    Universe,
    _lattice_set,
)

DISJOINTNESS_MODES = ("pointwise", "cross_parameter")


@dataclass(frozen=True)
class ParameterSet:
    """Ordered finite list of parameter names."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("parameter set must not be empty")
        for name in self.names:
            if not isinstance(name, str) or not name:
                raise ValueError(f"bad parameter name: {name!r}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate parameter names")

    @classmethod
    def of(cls, *names: str) -> "ParameterSet":
        return cls(tuple(names))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown parameter: {name!r}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self.names


def _require_same_context(a: "FuzzySoftSet", b: "FuzzySoftSet") -> None:
    if a.universe != b.universe:
        raise ContextMismatchError("fuzzy soft sets live over different universes")
    if a.parameters != b.parameters:
        raise ContextMismatchError("fuzzy soft sets use different parameter sets")


@dataclass(frozen=True)
class FuzzySoftSet:
    """An assignment of one fuzzy set per parameter, in parameter order."""

    universe: Universe
    parameters: ParameterSet
    values: tuple[FuzzySet, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.parameters):
            raise ValueError("exactly one fuzzy set per parameter is required")
        for v in self.values:
            if v.universe != self.universe:
                raise ContextMismatchError(
                    "parameter value over a different universe than the soft set"
                )

    @classmethod
    def build(
        cls,
        universe: Universe,
        parameters: ParameterSet,
        assignment: Mapping[str, FuzzySet | Mapping[str, Fraction | int | str]] = {},
    ) -> "FuzzySoftSet":
        """Build from a partial assignment.

        Parameters not mentioned get the all-zero fuzzy set; mapping values
        may themselves be partial and default missing elements to grade 0.
        """
        unknown = [name for name in assignment if name not in parameters]
        if unknown:
            raise KeyError(f"unknown parameters: {unknown}")
        zero = None
        values = []
        for name in parameters:
            raw = assignment.get(name)
            if raw is None:
                if zero is None:
                    zero = _lattice_set(universe, (GRADE_ZERO,) * len(universe))
                values.append(zero)
            elif isinstance(raw, FuzzySet):
                values.append(raw)
            else:
                values.append(FuzzySet.from_mapping(universe, raw))
        return cls(universe, parameters, tuple(values))

    @classmethod
    def null(cls, universe: Universe, parameters: ParameterSet) -> "FuzzySoftSet":
        return cls.build(universe, parameters, {})

    @classmethod
    def full(cls, universe: Universe, parameters: ParameterSet) -> "FuzzySoftSet":
        one = FuzzySet.constant(universe, 1)
        return cls(universe, parameters, tuple(one for _ in parameters.names))

    def value_for(self, parameter: str) -> FuzzySet:
        return self.values[self.parameters.index(parameter)]

    def grade_of(self, parameter: str, element: str) -> Fraction:
        return self.value_for(parameter).grade_of(element)

    def is_null(self) -> bool:
        return all(v.is_null() for v in self.values)

    def is_full(self) -> bool:
        return all(v.is_full() for v in self.values)

    def support(self) -> tuple[str, ...]:
        """Parameters whose fuzzy set is not the null set."""
        return tuple(
            name for name, v in zip(self.parameters, self.values) if not v.is_null()
        )

    def union(self, other: "FuzzySoftSet") -> "FuzzySoftSet":
        _require_same_context(self, other)
        return self._like(tuple(map(FuzzySet.union, self.values, other.values)))

    def intersection(self, other: "FuzzySoftSet") -> "FuzzySoftSet":
        _require_same_context(self, other)
        return self._like(
            tuple(map(FuzzySet.intersection, self.values, other.values)))

    def complement(self) -> "FuzzySoftSet":
        """Pointwise complement: every grade becomes 1 - grade."""
        return self._like(tuple(map(FuzzySet.complement, self.values)))

    def _like(self, values: tuple[FuzzySet, ...]) -> "FuzzySoftSet":
        """A soft set in this one's context, from values built over its
        universe, one per parameter, without checking them again."""
        fss = object.__new__(FuzzySoftSet)
        object.__setattr__(fss, "universe", self.universe)
        object.__setattr__(fss, "parameters", self.parameters)
        object.__setattr__(fss, "values", values)
        return fss

    def leq(self, other: "FuzzySoftSet") -> bool:
        _require_same_context(self, other)
        return all(a.leq(b) for a, b in zip(self.values, other.values))

    def is_proper_subset_of(self, other: "FuzzySoftSet") -> bool:
        return self.leq(other) and self != other

    def occurring_grades(self) -> frozenset[Fraction]:
        return frozenset(g for v in self.values for g in v.grades)

    def sort_key(self) -> tuple[Fraction, ...]:
        """Flattened grade vector; lexicographic order on these keys is the
        canonical order used for every deterministic enumeration."""
        return tuple(g for v in self.values for g in v.grades)

    def render(self) -> str:
        return self._text

    @functools.cached_property
    def _text(self) -> str:
        """The rendered set, built on first use and kept: the audit
        renders one pool set for many failures."""
        inner = ", ".join(
            f"{name}: {v.render()}" for name, v in zip(self.parameters, self.values)
        )
        return "{" + inner + "}"


# a grade's key in rank tables: its lowest-terms (numerator, denominator),
# which hashes as two ints, where a Fraction's hash is a modular inverse
grade_key = Fraction.as_integer_ratio


def grade_ranks(sets) -> tuple[list[Fraction], list[list[int]]]:
    """The distinct grades of ``sets``, ascending, and each set's grade
    vector (``sort_key``) as ranks into them.  Grades are told apart by
    ``grade_key``, so no ``Fraction`` is hashed."""
    keys = [[grade_key(g) for v in s.values for g in v.grades] for s in sets]
    grades = sorted(Fraction(*r) for r in set().union(*keys))
    rank = {grade_key(g): i for i, g in enumerate(grades)}
    return grades, [list(map(rank.__getitem__, vector)) for vector in keys]


def rank_codes(sets) -> list[int]:
    """Each set's grade vector as one thermometer-coded ``int``: a field
    of (grades - 1) bits per cell, the first cell highest, where rank r
    (``grade_ranks``) sets the low r bits.  ``topology.validate_topology``
    decides the axioms on these; its docstring says why that is exact."""
    grades, vectors = grade_ranks(sets)
    width = len(grades) - 1
    codes = []
    for vector in vectors:
        code = 0
        for r in vector:
            code = code << width | (1 << r) - 1
        codes.append(code)
    return codes


def disjoint(g: FuzzySoftSet, h: FuzzySoftSet, mode: str = "pointwise") -> bool:
    """Whether two fuzzy soft sets are disjoint under the chosen reading."""
    if mode not in DISJOINTNESS_MODES:
        raise ValueError(f"unknown disjointness mode: {mode!r}")
    if mode == "pointwise":
        return g.intersection(h).is_null()
    if g.universe != h.universe:
        raise ContextMismatchError("fuzzy soft sets live over different universes")
    for a in g.values:
        for b in h.values:
            if not a.intersection(b).is_null():
                return False
    return True


def count_lattice_sets(
    universe: Universe,
    parameters: ParameterSet,
    lattice: GradeLattice,
    bound: FuzzySoftSet | None = None,
) -> int:
    """How many lattice-representable fuzzy soft sets lie below ``bound``."""
    total = 1
    if bound is None:
        total = len(lattice) ** (len(universe) * len(parameters))
    else:
        for v in bound.values:
            for cap_grade in v.grades:
                total *= sum(1 for g in lattice if g <= cap_grade)
    return total


def enumerate_lattice_sets(
    universe: Universe,
    parameters: ParameterSet,
    lattice: GradeLattice,
    bound: FuzzySoftSet | None = None,
    cap: int = 10**6,
) -> tuple[FuzzySoftSet, ...]:
    """All fuzzy soft sets with grades drawn from ``lattice`` lying below
    ``bound`` (the all-one set when omitted), in canonical order.

    Refuses with the exact count if the enumeration would exceed ``cap``.
    """
    count = count_lattice_sets(universe, parameters, lattice, bound)
    if count > cap:
        raise CapExceededError("lattice set enumeration", count, cap)
    if bound is None:
        bound = FuzzySoftSet.full(universe, parameters)
    per_coord: list[tuple[Fraction, ...]] = []
    for v in bound.values:
        for cap_grade in v.grades:
            per_coord.append(tuple(g for g in lattice if g <= cap_grade))
    width = len(universe)
    out = []
    for flat in product(*per_coord):
        values = tuple(
            FuzzySet(universe, flat[i * width : (i + 1) * width])
            for i in range(len(parameters))
        )
        out.append(FuzzySoftSet(universe, parameters, values))
    return tuple(out)
