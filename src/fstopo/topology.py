"""Fuzzy soft topologies: validation, closure structure, neighbourhoods,
subspaces.

A topology on a carrier soft set is a finite family of "open" soft sets
that contains the null set and the carrier and is closed under pairwise
intersection (min) and pairwise union (max).  Closed sets are the pointwise
complements 1 - o of the opens; because the complement is taken against the
all-one set, a closed set may well exceed the carrier (the complement of
the null set is always the all-one set).

Closure and interior are computed by direct scan:

* closure(g) is the intersection of every closed superset of g.  The scan
  is always total because the all-one set is closed and contains anything.
* interior(g) is the union of every open subset of g.

No lattice-theoretic shortcut is taken; on families of this size the scan
is the definition, which keeps the engine self-evidently faithful.
Closure and interior stay these ``Fraction`` scans: they are the oracle
the integer engine and the tests check against.

Validation does not compare ``Fraction``s pair by pair.  It ranks the
distinct grades of the carrier and the candidates and codes each set as
one thermometer-coded ``int`` (``softsets.rank_codes``, read only here).
Min and max only pick grades that are already there, and ranking keeps
their order, so ``a & b`` and ``a | b`` are the codes of the
intersection and the union, a set lies under the carrier when
``code & ~top`` is 0, equal codes are equal sets and sorted codes are
the canonical order: the axioms are decided on ints exactly.  The pairs
are scanned in canonical order and the witnesses rendered from the sets,
so the violations are those of the scan over the sets.  The topology is
then built without the constructor's re-check of what was just checked.

A subspace at a carrier g below the carrier is itself a topology:
``subspace(g)`` returns the validated family {g min o}.  Its absolute
closed sets (1 - o) are in general not its relative closed sets, the
traces {k min g} of the parent's closed sets, so the relative reading is
asked of the parent: ``relative_closed_sets(g)`` and
``relative_closure(g, h)``, which scans those traces.  Relative closure
provably equals ``closure(h) min g``; both routes are exposed so the
equation can be checked rather than assumed, and the claim registry
audits the gap between the two readings instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import ContextMismatchError, GradeLattice
from .points import FuzzySoftPoint, point_in
from .softsets import FuzzySoftSet, enumerate_lattice_sets, rank_codes


class CarrierBoundError(ValueError):
    """A set escapes the carrier it must stay below."""


@dataclass(frozen=True)
class AxiomViolation:
    """One failed topology axiom with a minimal witness."""

    axiom: str  # "carrier-bound" | "contains-null" | "contains-carrier"
    #             | "intersection-closed" | "union-closed"
    members: tuple[FuzzySoftSet, ...]
    detail: str

    def render(self) -> str:
        return f"{self.axiom}: {self.detail}"


class TopologyValidationError(ValueError):
    def __init__(self, violations: tuple[AxiomViolation, ...]):
        self.violations = violations
        super().__init__(
            "; ".join(v.render() for v in violations) or "invalid topology"
        )


def _canonical_family(sets) -> tuple[FuzzySoftSet, ...]:
    return tuple(sorted(set(sets), key=lambda s: s.sort_key()))


@dataclass(frozen=True)
class FuzzySoftTopology:
    """A validated family of opens over a carrier.

    Construct through :func:`validate_topology` (or a generator closure that
    guarantees the axioms); the constructor itself only re-checks the cheap
    structural invariants, not closure under min/max.
    """

    carrier: FuzzySoftSet
    opens: tuple[FuzzySoftSet, ...]

    def __post_init__(self) -> None:
        keys = [o.sort_key() for o in self.opens]
        if keys != sorted(set(keys)):
            raise ValueError("opens must be deduplicated and canonically ordered")
        present = set(self.opens)
        if self.null_set not in present:
            raise ValueError("the null set must be open")
        if self.carrier not in present:
            raise ValueError("the carrier must be open")
        for o in self.opens:
            if not o.leq(self.carrier):
                raise CarrierBoundError(f"open exceeds the carrier: {o.render()}")

    @property
    def universe(self):
        return self.carrier.universe

    @property
    def parameters(self):
        return self.carrier.parameters

    @cached_property
    def null_set(self) -> FuzzySoftSet:
        return FuzzySoftSet.null(self.carrier.universe, self.carrier.parameters)

    @cached_property
    def closed_sets(self) -> tuple[FuzzySoftSet, ...]:
        """Complements 1 - o of the opens, deduplicated, canonical order.

        1 - g reverses the order of grades, so it reverses the
        lexicographic order of grade vectors: the complements of the
        opens taken last to first are already distinct and canonical.
        """
        return tuple(o.complement() for o in reversed(self.opens))

    @cached_property
    def _open_set(self) -> frozenset[FuzzySoftSet]:
        return frozenset(self.opens)

    @cached_property
    def _closed_set(self) -> frozenset[FuzzySoftSet]:
        return frozenset(self.closed_sets)

    def _check_context(self, g: FuzzySoftSet) -> None:
        if g.universe != self.universe or g.parameters != self.parameters:
            raise ContextMismatchError("set does not belong to this space")

    def is_open(self, g: FuzzySoftSet) -> bool:
        self._check_context(g)
        return g in self._open_set

    def is_closed(self, g: FuzzySoftSet) -> bool:
        self._check_context(g)
        return g in self._closed_set

    def is_clopen(self, g: FuzzySoftSet) -> bool:
        return self.is_open(g) and self.is_closed(g)

    def closure(self, g: FuzzySoftSet) -> FuzzySoftSet:
        """Intersection of every closed superset of ``g``."""
        self._check_context(g)
        result = None
        for k in self.closed_sets:
            if g.leq(k):
                result = k if result is None else result.intersection(k)
        assert result is not None  # the all-one set is always closed
        return result

    def interior(self, g: FuzzySoftSet) -> FuzzySoftSet:
        """Union of every open subset of ``g``."""
        self._check_context(g)
        result = self.null_set
        for o in self.opens:
            if o.leq(g):
                result = result.union(o)
        return result

    def is_neighborhood(self, n: FuzzySoftSet, p: FuzzySoftPoint) -> bool:
        """Whether some open sits between the point and ``n``."""
        self._check_context(n)
        return any(point_in(p, o) and o.leq(n) for o in self.opens)

    def neighborhood_system(
        self, p: FuzzySoftPoint, lattice: GradeLattice, cap: int = 10**6
    ) -> tuple[FuzzySoftSet, ...]:
        """All lattice-representable neighbourhoods of ``p`` below the
        carrier, in canonical order."""
        candidates = enumerate_lattice_sets(
            self.universe, self.parameters, lattice, bound=self.carrier, cap=cap
        )
        return tuple(n for n in candidates if self.is_neighborhood(n, p))

    def is_finer_than(self, other: "FuzzySoftTopology") -> bool:
        """Every open of ``other`` is open here.  Carriers must agree."""
        if self.carrier != other.carrier:
            raise ContextMismatchError(
                "finer/coarser comparison needs a shared carrier"
            )
        return self._open_set.issuperset(other.opens)

    def _check_subspace(self, g: FuzzySoftSet) -> None:
        self._check_context(g)
        if not g.leq(self.carrier):
            raise CarrierBoundError("subspace carrier must lie below the carrier")

    def subspace(self, g: FuzzySoftSet) -> "FuzzySoftTopology":
        """The subspace at carrier ``g``: opens are the traces g min o."""
        self._check_subspace(g)
        return validate_topology(g, [g.intersection(o) for o in self.opens])

    def relative_closed_sets(self, g: FuzzySoftSet) -> tuple[FuzzySoftSet, ...]:
        """Closed sets of the subspace at ``g``: the traces k min g of the
        closed sets, deduplicated, canonical order."""
        self._check_subspace(g)
        return _canonical_family(k.intersection(g) for k in self.closed_sets)

    def relative_closure(self, g: FuzzySoftSet, h: FuzzySoftSet) -> FuzzySoftSet:
        """Closure of ``h`` inside the subspace at ``g``: intersection of
        every relative closed superset of ``h``.

        Must (and does) coincide with ``closure(h) min g``; that route is
        left to the caller so agreement stays a check, not a tautology.
        """
        closeds = self.relative_closed_sets(g)
        if not h.leq(g):
            raise CarrierBoundError(
                "relative closure expects a subset of the subspace carrier"
            )
        result = None
        for k in closeds:
            if h.leq(k):
                result = k if result is None else result.intersection(k)
        assert result is not None  # g itself is a relative closed set
        return result


def validate_topology(
    carrier: FuzzySoftSet, candidates
) -> FuzzySoftTopology:
    """Validate a candidate family against the three axioms.

    Returns the topology with the family deduplicated and canonically
    ordered, or raises :class:`TopologyValidationError` carrying one
    minimal witness per violated axiom.  Candidates over a different
    universe or parameter set are a usage error, reported immediately.
    """
    family = list(candidates)
    for c in family:
        if c.universe != carrier.universe or c.parameters != carrier.parameters:
            raise ContextMismatchError("candidate open does not belong to the space")
    codes = rank_codes([carrier, *family])
    top = codes[0]
    # equal codes are equal sets; sorted codes are the canonical order
    by_code: dict[int, FuzzySoftSet] = {}
    for code, s in zip(codes[1:], family):
        by_code.setdefault(code, s)
    order = sorted(by_code)
    opens = tuple(by_code[code] for code in order)
    violations = [
        AxiomViolation("carrier-bound", (o,),
                       f"candidate exceeds the carrier: {o.render()}")
        for code, o in zip(order, opens) if code & ~top]
    # the null set comes first in canonical order when it is there at all
    if not opens or not opens[0].is_null():
        violations.append(AxiomViolation(
            "contains-null", (), "the null set is not in the family"))
    present = by_code.keys()
    if top not in present:
        violations.append(AxiomViolation(
            "contains-carrier", (), "the carrier is not in the family"))
    inter = union = None
    for i, a in enumerate(order):
        for j in range(i + 1, len(order)):
            b = order[j]
            if inter is None and a & b not in present:
                inter = (opens[i], opens[j])
            if union is None and a | b not in present:
                union = (opens[i], opens[j])
        if inter is not None and union is not None:
            break
    for axiom, what, pair in (("intersection-closed", "intersection", inter),
                              ("union-closed", "union", union)):
        if pair is not None:
            violations.append(AxiomViolation(
                axiom, pair,
                f"missing {what} of {pair[0].render()} and {pair[1].render()}"))
    if violations:
        raise TopologyValidationError(tuple(violations))
    # every invariant the constructor re-checks was checked above
    space = object.__new__(FuzzySoftTopology)
    object.__setattr__(space, "carrier", carrier)
    object.__setattr__(space, "opens", opens)
    return space

