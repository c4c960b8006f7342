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
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping

from .algebra import (
    GRADE_ZERO,
    CapExceededError,
    ContextMismatchError,
    FuzzySet,
    GradeLattice,
    Names,
    Universe,
    _lattice_set,
)

DISJOINTNESS_MODES = ("pointwise", "cross_parameter")


class ParameterSet(Names):
    """Ordered finite list of parameter names."""

    whole, entry = "parameter set", "parameter name"
    entries, member = "parameter names", "parameter"


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
        return _soft_set(self.universe, self.parameters, values)

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


def thermometer(vector, width: int) -> int:
    """The thermometer code of a vector of grade indices: one field of
    ``width`` bits per cell, the first cell highest, where index d sets
    the field's low d bits.  With ``width`` at least the highest index,
    the code of a cellwise max is the ``|`` of the codes, of a min the
    ``&``, and a <= b cellwise exactly when ``a & ~b`` is 0."""
    code = 0
    for d in vector:
        code = code << width | (1 << d) - 1
    return code


def rank_codes(sets) -> list[int]:
    """Each set's grade vector as the ``thermometer`` code of its ranks
    (``grade_ranks``), a field of (grades - 1) bits per cell.
    ``topology.validate_topology`` decides the axioms on these; its
    docstring says why that is exact."""
    grades, vectors = grade_ranks(sets)
    width = len(grades) - 1
    return [thermometer(vector, width) for vector in vectors]


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


def _soft_set(universe: Universe, parameters: ParameterSet,
              values: tuple[FuzzySet, ...]) -> FuzzySoftSet:
    """A ``FuzzySoftSet`` from values already built over ``universe``,
    one per parameter, without checking them again."""
    fss = object.__new__(FuzzySoftSet)
    object.__setattr__(fss, "universe", universe)
    object.__setattr__(fss, "parameters", parameters)
    object.__setattr__(fss, "values", values)
    return fss


def lattice_soft_set(universe: Universe, parameters: ParameterSet,
                     lattice: GradeLattice, digits) -> FuzzySoftSet:
    """The soft set whose cells, parameter-major, hold the lattice
    grades that ``digits`` index.  The lattice validated its grades when
    it was built, so nothing is checked again."""
    grades, width = lattice.grades, len(universe)
    return _soft_set(universe, parameters, tuple(
        _lattice_set(universe, tuple(map(grades.__getitem__,
                                         digits[i:i + width])))
        for i in range(0, len(digits), width)))


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
    if bound is None:
        per_cell = [range(len(lattice))] * (len(universe) * len(parameters))
    else:  # the lattice grades at or under each of the bound's
        per_cell = [range(bisect_right(lattice.grades, g))
                    for g in bound.sort_key()]
    count = math.prod(map(len, per_cell))
    if count > cap:
        raise CapExceededError("lattice set enumeration", count, cap)
    return tuple(lattice_soft_set(universe, parameters, lattice, digits)
                 for digits in product(*per_cell))
