"""Fuzzy soft points: soft sets concentrated on a single parameter.

A point carries a support parameter, a non-null fuzzy value at that
parameter, and the parameter list it lives in.  Membership of a point in a
soft set compares the value against the set's fuzzy set at the support
parameter only; every other parameter of the point's soft-set form is zero.

The points whose grades come from a finite lattice are listed in one
place, ``lattice_points``, as digit vectors: a point is its support's
parameter index and the lattice index of each element's grade.
``corpus.SetPool`` and the deciders of ``deciders.py`` read those pairs
as they are; ``lattice_point`` builds the ``FuzzySoftPoint`` of one
without checking the lattice's grades again, and ``enumerate_points``
builds them all.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

from .algebra import (
    CapExceededError,
    ContextMismatchError,
    FuzzySet,
    GradeLattice,
    Universe,
    _lattice_set,
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
        return self._text

    @functools.cached_property
    def _text(self) -> str:
        """The rendered point, built on first use and kept."""
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


def lattice_points(
    universe: Universe,
    parameters: ParameterSet,
    lattice: GradeLattice,
    cap: int = DEFAULT_POINT_CAP,
) -> list[tuple[int, tuple[int, ...]]]:
    """Every point with grades drawn from the lattice, as its support's
    parameter index and its value's digits (the lattice index of each
    element's grade), in canonical order: parameter-major, then
    lexicographically ascending digits, which is ascending values.

    Refuses with the exact count when the enumeration would exceed ``cap``.
    """
    total = len(parameters) * (len(lattice) ** len(universe) - 1)
    if total > cap:
        raise CapExceededError("point enumeration", total, cap)
    # the first digit vector is the null value, which no point carries
    values = list(product(range(len(lattice)), repeat=len(universe)))[1:]
    return [(pi, digits) for pi in range(len(parameters)) for digits in values]


def lattice_point(universe: Universe, parameters: ParameterSet,
                  lattice: GradeLattice, pi: int, digits) -> FuzzySoftPoint:
    """The point on the ``pi``-th parameter whose value holds the lattice
    grades that ``digits`` index.  The lattice validated its grades when
    it was built, so they are not checked again."""
    value = _lattice_set(universe, tuple(map(lattice.grades.__getitem__,
                                             digits)))
    return FuzzySoftPoint(parameters.names[pi], value, parameters)


def enumerate_points(
    universe: Universe,
    parameters: ParameterSet,
    lattice: GradeLattice,
    cap: int = DEFAULT_POINT_CAP,
) -> tuple[FuzzySoftPoint, ...]:
    """The points of ``lattice_points`` as ``FuzzySoftPoint``s."""
    return tuple(lattice_point(universe, parameters, lattice, pi, digits)
                 for pi, digits in lattice_points(universe, parameters,
                                                  lattice, cap))
