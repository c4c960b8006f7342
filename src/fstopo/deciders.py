"""Deciders for separation axioms and connectedness.

Every decider quantifies "for every fuzzy soft point" over the points whose
grades come from the configured finite lattice and which lie inside the
carrier.  A verdict therefore always names the lattice it was decided
against; over a different lattice the answer may differ, and that is not a
bug but the finite reading of the axiom.

Conventions, fixed here and echoed in every verdict:

* T0 ranges over disjoint point pairs, T1 and T2 over distinct pairs,
  following the letter of each axiom.  ``point_pair_relation`` overrides
  the relation for all three when set.
* Point and set disjointness default to the pointwise reading; the
  cross-parameter reading is available through ``disjointness_mode``.
* "k does not contain the point" in the regularity axiom is read as plain
  non-membership.  ``regular_reading = "disjoint"`` switches to the
  stronger reading (point and closed set disjoint).

The separation axioms are decided by the five scans of ``engine.py``
(``_t0_fail`` ... ``_normal_fail``), the scans ``engine.SpaceCase`` runs
on the integer set-pool encoding.  The deciders build the masks from the
objects, with bit i standing for the i-th open: for each point the opens
holding it, for each open the opens disjoint from it, for each closed
set the opens above it, and the configured pair relation and regularity
reading as a test of which pairs qualify.  Every scan runs in canonical
order, so the first witness of a failure is deterministic.
Connectedness has a scan of its own.

The masks are read off one grade index, not off ``Fraction``s: for each
cell, the grade ranks (``softsets.grade_ranks``) that occur there, each
with the mask of the sets at or above it.  The points are the digit
vectors of ``points.lattice_points``, each lattice digit read as a rank
through one list per config.  A point's mask is the AND, over its
parameter's cells, of the entry at the least indexed rank at or above
its grade, so the lattice never widens the index, and the opens and
closed sets holding it are slices of that mask.  ``FuzzySoftPoint``s
are built only for ``points_all_closed`` and the witnesses.  Disjointness
reads the cells where a set is nonzero, folded over the parameters
under the cross-parameter reading.  ``point_in``, ``softsets.disjoint``
and ``leq`` on ``Fraction``s remain the definitions, which
``tests/test_deciders.py`` builds the masks from and compares.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Optional

from .algebra import GradeLattice
from .engine import (
    _every_pair,
    _mask,
    _normal_fail,
    _regular_fail,
    _t0_fail,
    _t1_fail,
    _t2_fail,
)
from .points import (DEFAULT_POINT_CAP, FuzzySoftPoint, lattice_point,
                     lattice_points)
from .softsets import DISJOINTNESS_MODES, FuzzySoftSet, grade_ranks
from .topology import FuzzySoftTopology

PAIR_RELATIONS = ("distinct", "disjoint")
REGULAR_READINGS = ("membership", "disjoint")


class DeciderPreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class DeciderConfig:
    """Everything a verdict depends on besides the space itself."""

    lattice: GradeLattice
    disjointness_mode: str = "pointwise"
    point_pair_relation: Optional[str] = None  # None: per-axiom default
    regular_reading: str = "membership"
    cap: int = DEFAULT_POINT_CAP

    def __post_init__(self) -> None:
        if self.disjointness_mode not in DISJOINTNESS_MODES:
            raise ValueError(f"unknown disjointness mode: {self.disjointness_mode!r}")
        if self.point_pair_relation is not None and (
            self.point_pair_relation not in PAIR_RELATIONS
        ):
            raise ValueError(f"unknown pair relation: {self.point_pair_relation!r}")
        if self.regular_reading not in REGULAR_READINGS:
            raise ValueError(f"unknown regular reading: {self.regular_reading!r}")

    @classmethod
    def auto_for(cls, space: FuzzySoftTopology, **overrides) -> "DeciderConfig":
        """Default lattice: the complement closure of every grade occurring
        in the carrier and the opens."""
        grades = set(space.carrier.occurring_grades())
        for o in space.opens:
            grades |= o.occurring_grades()
        return cls(lattice=GradeLattice.close(grades), **overrides)

    def relation_for(self, axiom: str) -> str:
        if self.point_pair_relation is not None:
            return self.point_pair_relation
        return "disjoint" if axiom == "T0" else "distinct"

    def to_payload(self) -> dict:
        return {
            "lattice": [str(g) for g in self.lattice],
            "disjointness_mode": self.disjointness_mode,
            "point_pair_relation": self.point_pair_relation or "per-axiom",
            "regular_reading": self.regular_reading,
            "cap": self.cap,
        }


@dataclass(frozen=True)
class Witness:
    """A self-describing counterexample part of a failed verdict."""

    kind: str
    rendered: tuple[str, ...]
    note: str = ""

    def render(self) -> str:
        body = " / ".join(self.rendered)
        return f"{body} ({self.note})" if self.note else body

    def to_payload(self) -> dict:
        payload = {"kind": self.kind, "parts": list(self.rendered)}
        if self.note:
            payload["note"] = self.note
        return payload


def set_witness(kind: str, *sets: FuzzySoftSet, note: str = "") -> Witness:
    return Witness(kind, tuple(s.render() for s in sets), note)


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    holds: bool
    config: DeciderConfig
    witness: Optional[Witness] = None
    detail: str = ""

    def __post_init__(self) -> None:
        if not self.holds and self.witness is None:
            raise ValueError("a failed verdict must carry a witness")

    def to_payload(self) -> dict:
        payload = {
            "axiom": self.axiom,
            "holds": self.holds,
            "config": self.config.to_payload(),
        }
        if self.witness is not None:
            payload["witness"] = self.witness.to_payload()
        if self.detail:
            payload["detail"] = self.detail
        return payload


# ---------------------------------------------------------------------------
# the masks of one (space, config)

def _entries(column) -> tuple[list[int], list[int]]:
    """One cell of the index: the grade ranks of ``column``, the i-th
    set's at i, in ascending order, and for each the mask of the sets at
    or above it, then 0 for a grade above them all."""
    at = {}
    for i, r in enumerate(column):
        at[r] = at.get(r, 0) | 1 << i
    ranks = sorted(at)
    # OR the sets at each rank into those above it, from the top down
    masks = list(accumulate(map(at.get, reversed(ranks)), or_))
    return ranks, [*reversed(masks), 0]


class _Masks:
    """The grade index of one (space, config) and the masks the scans
    read, each built on first use.  Bit i of an index entry stands for
    the i-th of ``[*opens, *closed_sets, carrier]``.  Points are
    enumerated only when a scan reads them, so connectedness enumerates
    none."""

    def __init__(self, space: FuzzySoftTopology, cfg: DeciderConfig):
        self.space = space
        self.cfg = cfg
        sets = [*space.opens, *space.closed_sets, space.carrier]
        self.grades, self.ranks = grade_ranks(sets)
        self.index = [_entries(column) for column in zip(*self.ranks)]
        self.opens = (1 << len(space.opens)) - 1

    def above(self, cells, ranks) -> int:
        """The sets at or above ``ranks`` at ``cells``: at each cell, the
        entry at the least indexed rank at or above the given one."""
        mask = -1
        for c, r in zip(cells, ranks):
            indexed, masks = self.index[c]
            mask &= masks[bisect_left(indexed, r)]
        return mask

    def support(self, ranks, base: int = 0) -> int:
        """The cells from ``base`` on where ``ranks`` are nonzero (rank 0
        is grade 0, the null set's), or under the cross-parameter reading
        the elements where some parameter's are.  Two sets are disjoint
        exactly when their supports do not meet."""
        if self.cfg.disjointness_mode == "pointwise":
            return _mask(ranks) << base
        width = len(self.space.universe)
        return _mask(any(ranks[e::width]) for e in range(width))

    @functools.cached_property
    def held(self) -> list[tuple[int, tuple[int, ...], int]]:
        """Each lattice point inside the carrier, in canonical order, as
        ``points.lattice_points`` lists it, its parameter index and
        digits, with the mask of the sets holding it.  A digit looks up
        as the space's rank of the least grade at or above its lattice
        grade, so a lattice grade that no set has reads as the next one
        that some set has."""
        space, width = self.space, len(self.space.universe)
        rank = [bisect_left(self.grades, g) for g in self.cfg.lattice]
        out = []
        for pi, digits in lattice_points(space.universe, space.parameters,
                                         self.cfg.lattice, self.cfg.cap):
            mask = self.above(range(pi * width, pi * width + width),
                              map(rank.__getitem__, digits))
            if mask >> len(self.ranks) - 1:  # the carrier's bit, the top one
                out.append((pi, digits, mask))
        return out

    @functools.cached_property
    def points(self) -> list[FuzzySoftPoint]:
        space = self.space
        return [lattice_point(space.universe, space.parameters,
                              self.cfg.lattice, pi, digits)
                for pi, digits, _ in self.held]

    @property
    def scanned(self) -> str:
        return f"{len(self.held)} points scanned"

    @functools.cached_property
    def omasks(self) -> list[int]:
        return [mask & self.opens for *_, mask in self.held]

    @functools.cached_property
    def osupp(self) -> list[int]:
        return [self.support(r) for r in self.ranks[:len(self.space.opens)]]

    @functools.cached_property
    def ksupp(self) -> list[int]:
        n = len(self.space.opens)
        return [self.support(r) for r in self.ranks[n:-1]]

    @functools.cached_property
    def psupp(self) -> list[int]:
        width = len(self.space.universe)
        return [self.support(digits, width * pi)
                for pi, digits, _ in self.held]

    @functools.cached_property
    def odisj(self) -> list[int]:
        supp = self.osupp
        return [_mask(not a & b for b in supp) for a in supp]

    @functools.cached_property
    def covers(self) -> list[int]:
        cells, n = range(len(self.index)), len(self.space.opens)
        return [self.above(cells, ranks) & self.opens
                for ranks in self.ranks[n:-1]]

    def pair_test(self, axiom: str):
        """The configured pair relation of ``axiom`` on point indices."""
        if self.cfg.relation_for(axiom) == "distinct":
            return _every_pair  # enumerated points are pairwise distinct
        supp = self.psupp
        return lambda a, b: not supp[a] & supp[b]

    def pair_verdict(self, axiom: str, pair, note: str) -> AxiomVerdict:
        witness = None if pair is None else Witness(
            "point-pair", tuple(self.points[i].render() for i in pair), note)
        return _verdict(axiom, self.cfg, witness, self.scanned)


def _masks(space: FuzzySoftTopology, cfg: DeciderConfig) -> _Masks:
    """The masks of the last (space, config) asked for, which T3 and T4
    ask again to re-run T1, regular and normal.  The space is matched by
    identity: hashing it would hash every grade."""
    m = _LAST[0]
    if m is None or m.space is not space or m.cfg != cfg:
        m = _LAST[0] = _Masks(space, cfg)
    return m


_LAST: list[Optional[_Masks]] = [None]


def _verdict(axiom: str, cfg: DeciderConfig, witness: Optional[Witness],
             detail: str) -> AxiomVerdict:
    """Holds, with ``detail``, exactly when there is no witness."""
    if witness is None:
        return AxiomVerdict(axiom, True, cfg, detail=detail)
    return AxiomVerdict(axiom, False, cfg, witness)


# ---------------------------------------------------------------------------
# separation axioms

def is_t0(space: FuzzySoftTopology, cfg: DeciderConfig) -> AxiomVerdict:
    """Some open contains exactly one point of each qualifying pair."""
    m = _masks(space, cfg)
    return m.pair_verdict("T0", _t0_fail(m.omasks, m.pair_test("T0")),
                          "no open contains exactly one of the pair")


def is_t1(space: FuzzySoftTopology, cfg: DeciderConfig) -> AxiomVerdict:
    """Both one-sided separations exist for each qualifying pair."""
    m = _masks(space, cfg)
    pair = _t1_fail(m.omasks, m.pair_test("T1"))
    if pair is not None and pair[0] > pair[1]:
        return m.pair_verdict(
            "T1", pair[::-1],
            "no open contains the second point without the first")
    return m.pair_verdict(
        "T1", pair, "no open contains the first point without the second")


def is_t2(space: FuzzySoftTopology, cfg: DeciderConfig) -> AxiomVerdict:
    """Disjoint opens separate each qualifying pair."""
    m = _masks(space, cfg)
    return m.pair_verdict("T2", _t2_fail(m.omasks, m.odisj, m.pair_test("T2")),
                          "no pair of disjoint opens separates the points")


def points_all_closed(space: FuzzySoftTopology, cfg: DeciderConfig) -> AxiomVerdict:
    """Every lattice point of the carrier is, as a soft set, a closed set."""
    m = _masks(space, cfg)
    bad = next((p for p in m.points if not space.is_closed(p.as_fss())), None)
    witness = None if bad is None else Witness(
        "point", (bad.render(),), "its soft-set form is not closed")
    return _verdict("points-closed", cfg, witness, m.scanned)


def is_regular(space: FuzzySoftTopology, cfg: DeciderConfig) -> AxiomVerdict:
    """Points and closed sets avoiding them split into disjoint opens."""
    m = _masks(space, cfg)
    closeds = space.closed_sets
    if cfg.regular_reading == "membership":
        held, n = m.held, len(space.opens)

        def avoids(a, k):  # k's bit in the mask of the sets holding a
            return not held[a][2] >> n + k & 1
    else:
        psupp, ksupp = m.psupp, m.ksupp

        def avoids(a, k):
            return not psupp[a] & ksupp[k]
    pair = _regular_fail(m.omasks, m.covers, m.odisj, avoids)
    witness = None if pair is None else Witness(
        "point-closed", (m.points[pair[0]].render(), closeds[pair[1]].render()),
        "no disjoint opens around the point and the closed set")
    return _verdict("regular", cfg, witness, m.scanned)


def is_normal(space: FuzzySoftTopology, cfg: DeciderConfig) -> AxiomVerdict:
    """Disjoint closed pairs split into disjoint open covers."""
    m = _masks(space, cfg)
    closeds = space.closed_sets
    ksupp = m.ksupp
    pair = _normal_fail(m.covers, m.odisj,
                        lambda i, j: not ksupp[i] & ksupp[j])
    witness = None if pair is None else set_witness(
        "closed-pair", closeds[pair[0]], closeds[pair[1]],
        note="no disjoint opens cover the closed pair")
    return _verdict("normal", cfg, witness, f"{len(closeds)} closed sets")


def _conjunction(axiom: str, first: AxiomVerdict, second: AxiomVerdict,
                 cfg: DeciderConfig) -> AxiomVerdict:
    for part in (first, second):
        if not part.holds:
            return AxiomVerdict(
                axiom,
                False,
                cfg,
                part.witness,
                detail=f"{part.axiom} fails",
            )
    return AxiomVerdict(
        axiom, True, cfg, detail=f"{first.axiom} and {second.axiom} both hold"
    )


def is_t3(space: FuzzySoftTopology, cfg: DeciderConfig) -> AxiomVerdict:
    return _conjunction("T3", is_regular(space, cfg), is_t1(space, cfg), cfg)


def is_t4(space: FuzzySoftTopology, cfg: DeciderConfig) -> AxiomVerdict:
    return _conjunction("T4", is_normal(space, cfg), is_t1(space, cfg), cfg)


# ---------------------------------------------------------------------------
# connectedness

def find_separation(
    space: FuzzySoftTopology, cfg: DeciderConfig
) -> Optional[tuple[FuzzySoftSet, FuzzySoftSet]]:
    """First pair of disjoint nonempty opens whose union is the carrier."""
    m = _masks(space, cfg)
    supp = m.osupp
    # per cell, the sets at the carrier's grade, one of a covering pair
    tops = [m.above([c], [r]) for c, r in enumerate(m.ranks[-1])]
    for i, a in enumerate(supp):
        if not a:  # the null set
            continue
        for j in range(i + 1, len(supp)):
            pair = 1 << i | 1 << j
            if supp[j] and not a & supp[j] and all(t & pair for t in tops):
                return space.opens[i], space.opens[j]
    return None


def is_connected(space: FuzzySoftTopology, cfg: DeciderConfig) -> AxiomVerdict:
    pair = find_separation(space, cfg)
    witness = None if pair is None else set_witness(
        "separation", *pair, note="disjoint opens covering the carrier")
    return _verdict("connected", cfg, witness, "no separation exists")


def clopen_witness(space: FuzzySoftTopology) -> Optional[FuzzySoftSet]:
    """First nonempty proper subset of the carrier that is clopen."""
    for o in space.opens:
        if o.is_null() or o == space.carrier:
            continue
        if space.is_closed(o):
            return o
    return None


def subspace_separation(
    space: FuzzySoftTopology,
    g: FuzzySoftSet,
    k: FuzzySoftSet,
    h: FuzzySoftSet,
) -> bool:
    """Whether k and h split the subspace of ``space`` at ``g`` in the
    closure sense: each misses the closure in ``space`` of the other.

    Whether this coincides with "k, h are a separation of the subspace" is a
    question for the auditor, not an assumption made here.
    """
    space._check_subspace(g)
    if k.is_null() or h.is_null():
        raise DeciderPreconditionError("separation parts must be nonempty")
    if k.union(h) != g:
        raise DeciderPreconditionError("parts must union to the subspace carrier")
    return (
        k.intersection(space.closure(h)).is_null()
        and h.intersection(space.closure(k)).is_null()
    )
