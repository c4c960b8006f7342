from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fstopo.algebra import ContextMismatchError, GradeLattice, Universe
from fstopo.points import FuzzySoftPoint, point_in
from fstopo.softsets import FuzzySoftSet, ParameterSet, enumerate_lattice_sets
from fstopo.topology import (
    CarrierBoundError,
    FuzzySoftTopology,
    TopologyValidationError,
    validate_topology,
)

from conftest import min_max_closure, object_sets, object_spaces

U = Universe.of("x", "y")
E = ParameterSet.of("e1", "e2")
DESK = GradeLattice.close(["1/2"])


def fss(assignment):
    return FuzzySoftSet.build(U, E, assignment)


NULL = FuzzySoftSet.null(U, E)
FULL = FuzzySoftSet.full(U, E)
A = fss({"e1": {"x": "1/2"}})
B = fss({"e1": {"x": "1/2", "y": "1/2"}})


@pytest.fixture
def chain_space():
    """Four nested opens: null < A < B < full."""
    return validate_topology(FULL, [NULL, A, B, FULL])


class TestValidation:
    def test_accepts_a_chain(self, chain_space):
        assert chain_space.opens == (NULL, A, B, FULL)

    def test_deduplicates_and_orders(self):
        space = validate_topology(FULL, [FULL, NULL, A, A, NULL])
        assert space.opens == (NULL, A, FULL)

    def test_missing_null_and_carrier(self):
        with pytest.raises(TopologyValidationError) as err:
            validate_topology(FULL, [A, B])
        axioms = {v.axiom for v in err.value.violations}
        assert axioms == {"contains-null", "contains-carrier"}

    def test_missing_union_and_intersection(self):
        left = fss({"e1": {"x": "1/2", "y": "1/2"}})
        right = fss({"e1": {"y": "1/2"}, "e2": {"y": "1/2"}})
        with pytest.raises(TopologyValidationError) as err:
            validate_topology(FULL, [NULL, left, right, FULL])
        axioms = {v.axiom for v in err.value.violations}
        assert axioms == {"union-closed", "intersection-closed"}
        assert str(err.value) == "; ".join(
            v.render() for v in err.value.violations)

    def test_carrier_bound_violation(self):
        with pytest.raises(TopologyValidationError) as err:
            validate_topology(B, [NULL, A, B, FULL])
        assert any(v.axiom == "carrier-bound" for v in err.value.violations)

    def test_wrong_context_is_a_usage_error(self, chain_space):
        stranger = FuzzySoftSet.null(Universe.of("z"), E)
        with pytest.raises(ContextMismatchError):
            validate_topology(FULL, [NULL, stranger, FULL])
        # a space refuses a set over another universe or other parameters
        for g in (stranger, FuzzySoftSet.null(U, ParameterSet.of("e1"))):
            for query in (chain_space.is_open, chain_space.is_closed):
                with pytest.raises(ContextMismatchError):
                    query(g)

    def test_constructor_rejects_unordered_opens(self):
        with pytest.raises(ValueError):
            FuzzySoftTopology(FULL, (FULL, NULL))


class TestClosureInterior:
    def test_closed_sets_are_complements(self, chain_space):
        assert set(chain_space.closed_sets) == {
            o.complement() for o in chain_space.opens
        }

    def test_closure_is_smallest_closed_superset(self, chain_space):
        for g in enumerate_lattice_sets(U, E, DESK):
            cl = chain_space.closure(g)
            assert g.leq(cl)
            assert all(
                cl.leq(k)
                for k in chain_space.closed_sets
                if g.leq(k)
            )

    def test_interior_is_largest_open_subset(self, chain_space):
        for g in enumerate_lattice_sets(U, E, DESK):
            it = chain_space.interior(g)
            assert it.leq(g)
            assert all(
                o.leq(it)
                for o in chain_space.opens
                if o.leq(g)
            )

    def test_closure_interior_duality(self, chain_space):
        for g in enumerate_lattice_sets(U, E, DESK):
            assert (
                chain_space.closure(g.complement())
                == chain_space.interior(g).complement()
            )

    def test_closed_iff_closure_fixes(self, chain_space):
        for g in enumerate_lattice_sets(U, E, DESK):
            assert chain_space.is_closed(g) == (chain_space.closure(g) == g)

    def test_open_membership(self, chain_space):
        assert chain_space.is_open(A)
        assert not chain_space.is_open(fss({"e2": {"x": "1/2"}}))
        # the carrier here is the all-one set, so null and carrier are clopen
        assert chain_space.is_clopen(NULL)
        assert chain_space.is_clopen(FULL)
        assert not chain_space.is_clopen(A)


class TestNeighborhoods:
    def test_neighborhood_requires_an_open_between(self, chain_space):
        p = FuzzySoftPoint("e1", A.value_for("e1"), E)
        assert chain_space.is_neighborhood(B, p)
        assert not chain_space.is_neighborhood(
            fss({"e1": {"y": "1/2"}}), p
        )

    def test_neighborhood_system_members_contain_an_open_with_the_point(
        self, chain_space
    ):
        p = FuzzySoftPoint("e1", A.value_for("e1"), E)
        system = chain_space.neighborhood_system(p, DESK)
        assert system
        for n in system:
            assert any(
                point_in(p, o) and o.leq(n) for o in chain_space.opens
            )


class TestFinerAndSubspace:
    def test_finer_than(self, chain_space):
        coarse = validate_topology(FULL, [NULL, FULL])
        assert chain_space.is_finer_than(coarse)
        assert not coarse.is_finer_than(chain_space)

    def test_finer_needs_shared_carrier(self, chain_space):
        other = validate_topology(B, [NULL, B])
        with pytest.raises(ContextMismatchError):
            chain_space.is_finer_than(other)

    def test_subspace_opens_are_traces(self, chain_space):
        view = chain_space.subspace(B)
        expected = sorted(
            {B.intersection(o) for o in chain_space.opens},
            key=lambda s: s.sort_key(),
        )
        assert list(view.opens) == expected
        assert view.carrier == B

    def test_subspace_carrier_must_stay_below(self, chain_space):
        small = validate_topology(B, [NULL, B])
        with pytest.raises(CarrierBoundError):
            small.subspace(FULL)

    def test_subspace_is_the_validated_family_of_traces(self, chain_space):
        sub = chain_space.subspace(B)
        assert isinstance(sub, FuzzySoftTopology)
        assert sub == validate_topology(
            B, [B.intersection(o) for o in chain_space.opens])

    def test_relative_closeds_are_traces_of_parent_closeds(self, chain_space):
        expected = {k.intersection(B) for k in chain_space.closed_sets}
        assert set(chain_space.relative_closed_sets(B)) == expected

    def test_relative_closure_agrees_with_parent_route(self, chain_space):
        for h in enumerate_lattice_sets(U, E, DESK, bound=B):
            assert (chain_space.relative_closure(B, h)
                    == chain_space.closure(h).intersection(B))

    def test_closure_in_rejects_sets_outside_the_carrier(self, chain_space):
        with pytest.raises(CarrierBoundError):
            chain_space.relative_closure(A, B)

    def test_relative_closure_rejects_a_carrier_outside_the_space(
            self, chain_space):
        small = validate_topology(B, [NULL, A, B])
        with pytest.raises(CarrierBoundError):
            small.relative_closure(FULL, A)
        with pytest.raises(CarrierBoundError):
            small.relative_closed_sets(FULL)

def test_every_generated_family_validates():
    """Closing any pair of desk sets under min/max yields a valid family."""
    pool = enumerate_lattice_sets(U, E, DESK)
    sample = pool[::13]
    for g, h in combinations(sample, 2):
        space = validate_topology(FULL, min_max_closure([NULL, FULL, g, h]))
        assert space.is_open(g) and space.is_open(h)


def fraction_violations(carrier, family):
    """(axiom, members, detail) of each violation, by a scan over the
    Fraction sets: every candidate against the carrier, then the first
    pair in canonical order whose min, and the first whose max, is
    missing."""
    opens = sorted(set(family), key=lambda s: s.sort_key())
    out = [("carrier-bound", (o,),
            f"candidate exceeds the carrier: {o.render()}")
           for o in opens if not o.leq(carrier)]
    if FuzzySoftSet.null(carrier.universe, carrier.parameters) not in opens:
        out.append(("contains-null", (), "the null set is not in the family"))
    if carrier not in opens:
        out.append(("contains-carrier", (),
                    "the carrier is not in the family"))
    pairs = list(combinations(opens, 2))
    for axiom, op, word in (
            ("intersection-closed", FuzzySoftSet.intersection, "intersection"),
            ("union-closed", FuzzySoftSet.union, "union")):
        missing = next(((a, b) for a, b in pairs if op(a, b) not in opens),
                       None)
        if missing is not None:
            a, b = missing
            out.append((axiom, missing,
                        f"missing {word} of {a.render()} and {b.render()}"))
    return out


@st.composite
def broken_families(draw):
    """(carrier, family): a valid topology with one open dropped, or
    with one stray set added, which may exceed the carrier."""
    space = draw(object_spaces())
    family = list(space.opens)
    if draw(st.booleans()):
        family.pop(draw(st.integers(0, len(family) - 1)))
    else:
        family.append(draw(object_sets(space.universe, space.parameters)))
    return space.carrier, family


# the first failing pair is ({y: 1/2}, {x: 1/2}) and ({y: 1/2}, {x: 3/4})
# fails too: only canonical pair order picks the first
TWO_PARTNERS = (fss({"e1": {"x": 1, "y": 1}}), [
    NULL, fss({"e1": {"y": "1/2"}}), fss({"e1": {"y": 1}}),
    fss({"e1": {"x": "1/2"}}), fss({"e1": {"x": "3/4"}}),
    fss({"e1": {"x": 1, "y": 1}})])
# three crisp atoms, no null and no carrier: the first atom's union and
# intersection with either other atom are missing, so only a scan from
# the next atom on picks the second atom as the partner
THREE_ATOMS = (FULL, [fss({"e1": {"x": 1}}), fss({"e1": {"y": 1}}),
                      fss({"e2": {"x": 1}})])


@given(broken_families())
@example(TWO_PARTNERS)
@example(THREE_ATOMS)
def test_violations_match_a_fraction_scan(drawn):
    carrier, family = drawn
    try:
        validate_topology(carrier, family)
        found = []
    except TopologyValidationError as err:
        found = [(v.axiom, v.members, v.detail) for v in err.violations]
    assert found == fraction_violations(carrier, family)


@given(object_spaces())
def test_validated_spaces_meet_the_constructor_checks(space):
    # validate_topology builds its result without the constructor's
    # re-check, and takes the closed sets in reverse open order
    assert FuzzySoftTopology(space.carrier, space.opens) == space
    assert space.closed_sets == tuple(sorted(
        {o.complement() for o in space.opens}, key=lambda s: s.sort_key()))
