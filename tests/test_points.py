from fractions import Fraction
from itertools import product

import pytest

from fstopo import deciders
from fstopo.algebra import CapExceededError, FuzzySet, GradeLattice, Universe
from fstopo.corpus import SetPool
from fstopo.points import (
    FuzzySoftPoint,
    NotAPointError,
    NotComparableError,
    canonical_points,
    enumerate_points,
    point_from_fss,
    point_in,
)
from fstopo.softsets import FuzzySoftSet, ParameterSet, enumerate_lattice_sets
from fstopo.topology import validate_topology

U = Universe.of("x", "y")
E = ParameterSet.of("e1", "e2")


def val(**grades):
    return FuzzySet.from_mapping(U, grades)


def test_point_requires_known_support_and_non_null_value():
    FuzzySoftPoint("e1", val(x="1/2"), E)
    with pytest.raises(ValueError):
        FuzzySoftPoint("e9", val(x="1/2"), E)
    with pytest.raises(NotAPointError):
        FuzzySoftPoint("e1", val(), E)


def test_soft_set_form_is_null_off_support():
    p = FuzzySoftPoint("e1", val(x="1/2"), E)
    g = p.as_fss()
    assert g.value_for("e1") == p.value
    assert g.value_for("e2").is_null()
    assert point_from_fss(g) == p


def test_point_from_fss_needs_single_support():
    two = FuzzySoftSet.build(U, E, {"e1": {"x": 1}, "e2": {"y": 1}})
    with pytest.raises(NotAPointError):
        point_from_fss(two)
    with pytest.raises(NotAPointError):
        point_from_fss(FuzzySoftSet.null(U, E))


def test_membership_compares_at_the_support_only():
    p = FuzzySoftPoint("e1", val(x="1/2"), E)
    inside = FuzzySoftSet.build(U, E, {"e1": {"x": "1/2"}})
    outside = FuzzySoftSet.build(U, E, {"e2": {"x": 1}})
    assert point_in(p, inside)
    assert not point_in(p, outside)


def test_membership_needs_the_support_parameter():
    p = FuzzySoftPoint("e1", val(x="1/2"), E)
    stranger = FuzzySoftSet.build(U, ParameterSet.of("a"), {})
    with pytest.raises(NotComparableError):
        point_in(p, stranger)


def test_complement_keeps_support_and_flips_value():
    p = FuzzySoftPoint("e1", val(x="1/10", y="9/10"), E)
    c = p.complement()
    assert c.support == "e1"
    assert c.value.grade_of("x") == Fraction(9, 10)
    assert c.value.grade_of("y") == Fraction(1, 10)


def test_complement_of_all_one_value_refused():
    p = FuzzySoftPoint("e1", val(x=1, y=1), E)
    with pytest.raises(NotAPointError):
        p.complement()


def test_canonical_points_union_to_the_set():
    g = FuzzySoftSet.build(U, E, {"e1": {"x": "1/2"}, "e2": {"y": 1}})
    pts = canonical_points(g)
    assert [p.support for p in pts] == ["e1", "e2"]
    acc = FuzzySoftSet.null(U, E)
    for p in pts:
        acc = acc.union(p.as_fss())
    assert acc == g


def test_enumeration_count_and_order():
    lat = GradeLattice.close(["1/2"])
    pts = enumerate_points(U, E, lat)
    assert len(pts) == 2 * (9 - 1)
    # the cap admits exactly the count and refuses one under it
    assert len(enumerate_points(U, E, lat, cap=16)) == 16
    with pytest.raises(CapExceededError) as err:
        enumerate_points(U, E, lat, cap=15)
    assert err.value.required == 16
    assert len(set(pts)) == len(pts)
    assert all(not p.value.is_null() for p in pts)
    # parameter-major order
    supports = [p.support for p in pts]
    assert supports == sorted(supports, key=E.index)


def test_render():
    p = FuzzySoftPoint("e1", val(x="1/2"), E)
    assert p.render() == "e1 @ {x: 1/2, y: 0}"


@pytest.mark.parametrize("lattice", [GradeLattice.close(["1/2"]),
                                     GradeLattice.uniform(4)],
                         ids=["3-grades", "5-grades"])
def test_enumerated_points_equal_the_validated_construction(lattice):
    # every producer builds its sets and points from lattice digits
    # without validating the grades again; FuzzySet and
    # FuzzySoftSet.build validate
    validated = tuple(FuzzySoftPoint(name, FuzzySet(U, vector), E)
                      for name in E
                      for vector in product(lattice, repeat=len(U))
                      if any(vector))
    pts = enumerate_points(U, E, lattice)
    assert pts == validated
    assert len(set(pts)) == len(pts)
    pool = SetPool(U, E, lattice)
    decoded = tuple(map(pool.decode_point, range(len(pool.points))))
    assert decoded == validated
    assert all(pool.decode_point(i) is p for i, p in enumerate(decoded))
    # every point lies in the all-one carrier
    full = FuzzySoftSet.full(U, E)
    space = validate_topology(full, [FuzzySoftSet.null(U, E), full])
    cfg = deciders.DeciderConfig(lattice)
    assert deciders._masks(space, cfg).points == list(validated)
    sets = tuple(FuzzySoftSet.build(U, E, {
        name: dict(zip(U, flat[i * len(U):])) for i, name in enumerate(E)})
        for flat in product(lattice, repeat=len(U) * len(E)))
    assert tuple(map(pool.decode, range(pool.size))) == sets
    assert enumerate_lattice_sets(U, E, lattice) == sets
    # 1/3 is no lattice grade: the cell takes the lattice grades under it
    bound = FuzzySoftSet.build(U, E, {"e1": {"x": "1/2", "y": 1},
                                      "e2": {"x": "1/3"}})
    assert enumerate_lattice_sets(U, E, lattice, bound) == tuple(
        g for g in sets if g.leq(bound))


def test_decoded_sets_and_points_render_their_values_once(monkeypatch):
    pool = SetPool(U, E, GradeLattice.close(["1/2"]))
    rendered = []
    render = FuzzySet.render

    def counting(self):
        rendered.append(self)
        return render(self)

    monkeypatch.setattr(FuzzySet, "render", counting)
    g, p = pool.decode(40), pool.decode_point(3)
    texts = [g.render(), p.render(), g.render(), p.render()]
    assert texts[2:] == texts[:2] == ["{e1: {x: 1/2, y: 1/2}, "
                                      "e2: {x: 1/2, y: 1/2}}",
                                      "e1 @ {x: 1/2, y: 1/2}"]
    assert len(rendered) == len(E) + 1
