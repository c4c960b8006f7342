"""Fuzzy soft points: soft sets concentrated on a single parameter.

A point carries a support parameter, a non-null fuzzy value at that
parameter, and the parameter list it lives in.  Membership of a point in a
soft set compares the value against the set's fuzzy set at the support
parameter only; every other parameter of the point's soft-set form is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import (
    GRADE_ZERO,
    CapExceededError,
    ContextMismatchError,
    FuzzySet,
    GradeLattice,
    Universe,
)
from .softsets import FuzzySoftSet, ParameterSet

DEFAULT_POINT_CAP = 10**6


class NotAPointError(ValueError):
    """A soft set that is not concentrated on exactly one parameter, or a
    point operation that has no point-shaped result."""


class NotComparableError(ValueError):
    """Point membership asked against a set that does not know the point's
    support parameter."""


@dataclass(frozen=True)
class FuzzySoftPoint:
    support: str
    value: FuzzySet
    parameters: ParameterSet

    def __post_init__(self) -> None:
        if self.support not in self.parameters:
            raise ValueError(
                f"support parameter {self.support!r} not in the parameter set"
            )
        if self.value.is_null():
            raise NotAPointError("a fuzzy soft point must have a non-null value")

    def as_fss(self) -> FuzzySoftSet:
        """The soft-set form: the value at the support, null elsewhere."""
        return FuzzySoftSet.build(
            self.value.universe, self.parameters, {self.support: self.value}
        )

    def complement(self) -> "FuzzySoftPoint":
        """Complement the value in place, keeping the support.

        Undefined (and refused) when the value is all-one: the complement
        would be null, which no point may carry.
        """
        if self.value.is_full():
            raise NotAPointError(
                "complement of an all-one point value would be null"
            )
        return FuzzySoftPoint(self.support, self.value.complement(), self.parameters)

    def render(self) -> str:
        return f"{self.support} @ {self.value.render()}"


def point_from_fss(g: FuzzySoftSet) -> FuzzySoftPoint:
    """Recover the point form of a soft set supported on one parameter."""
    support = g.support()
    if len(support) != 1:
        raise NotAPointError(
            f"soft set supported on {len(support)} parameters, point needs exactly 1"
        )
    return FuzzySoftPoint(support[0], g.value_for(support[0]), g.parameters)


def point_in(p: FuzzySoftPoint, h: FuzzySoftSet) -> bool:
    """Membership: the point's value lies below the set's value at the support."""
    if p.value.universe != h.universe:
        raise ContextMismatchError("point and set live over different universes")
    if p.support not in h.parameters:
        raise NotComparableError(
            f"set does not know parameter {p.support!r}; membership is not comparable"
        )
    return p.value.leq(h.value_for(p.support))


def canonical_points(g: FuzzySoftSet) -> tuple[FuzzySoftPoint, ...]:
    """One point per parameter with a non-null value; their union is ``g``."""
    return tuple(
        FuzzySoftPoint(name, v, g.parameters)
        for name, v in zip(g.parameters, g.values)
        if not v.is_null()
    )


def count_points(
    universe: Universe, parameters: ParameterSet, lattice: GradeLattice
) -> int:
    return len(parameters) * (len(lattice) ** len(universe) - 1)


def enumerate_points(
    universe: Universe,
    parameters: ParameterSet,
    lattice: GradeLattice,
    cap: int = DEFAULT_POINT_CAP,
) -> tuple[FuzzySoftPoint, ...]:
    """Every point with grades drawn from the lattice, in canonical order:
    parameter-major, then lexicographically ascending value vectors.

    Refuses with the exact count when the enumeration would exceed ``cap``.
    """
    total = count_points(universe, parameters, lattice)
    if total > cap:
        raise CapExceededError("point enumeration", total, cap)
    grades = tuple(lattice)
    out = []
    for name in parameters:
        for vector in product(grades, repeat=len(universe)):
            if all(g == GRADE_ZERO for g in vector):
                continue
            out.append(FuzzySoftPoint(name, FuzzySet(universe, vector), parameters))
    return tuple(out)
