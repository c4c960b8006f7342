"""Decider behavior on small handmade spaces.

The crisp spaces here mirror classical point-set facts: the discrete
space on two elements is T4, the indiscrete space separates nothing,
and the split topology {null, {x}, {y}, carrier} is disconnected.
"""

import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fstopo import deciders
from fstopo.algebra import GradeLattice, Universe
from fstopo.deciders import (
    PAIR_RELATIONS,
    REGULAR_READINGS,
    DeciderConfig,
    DeciderPreconditionError,
    clopen_witness,
    find_separation,
    is_connected,
    is_normal,
    is_regular,
    is_t0,
    is_t1,
    is_t2,
    is_t3,
    is_t4,
    points_all_closed,
    subspace_separation,
)
from fstopo.engine import (
    _mask,
    _normal_fail,
    _regular_fail,
    _t0_fail,
    _t1_fail,
    _t2_fail,
)
from fstopo.points import enumerate_points, point_in
from fstopo.softsets import (
    DISJOINTNESS_MODES,
    FuzzySoftSet,
    ParameterSet,
    disjoint,
)
from fstopo.topology import CarrierBoundError, validate_topology

from conftest import OBJECT_LATTICES, object_spaces

U = Universe.of("x", "y")
E = ParameterSet.of("e1")
CRISP = GradeLattice.close([])


def fss(assignment):
    return FuzzySoftSet.build(U, E, assignment)


NULL = FuzzySoftSet.null(U, E)
FULL = FuzzySoftSet.full(U, E)
OX = fss({"e1": {"x": 1}})
OY = fss({"e1": {"y": 1}})


@pytest.fixture
def discrete():
    return validate_topology(FULL, [NULL, OX, OY, FULL])


@pytest.fixture
def indiscrete():
    return validate_topology(FULL, [NULL, FULL])


@pytest.fixture
def sierpinski():
    return validate_topology(FULL, [NULL, OX, FULL])


def crisp_cfg(**overrides):
    return DeciderConfig(lattice=CRISP, **overrides)


class TestSeparationOnCrispSpaces:
    def test_discrete_two_element_verdicts(self, discrete):
        # not the classical picture: the full point {x:1, y:1} lies above
        # {x:1}, and comparable point pairs can never be separated
        cfg = crisp_cfg()
        assert is_t0(discrete, cfg).holds
        assert not is_t1(discrete, cfg).holds
        assert not is_t2(discrete, cfg).holds
        assert not is_regular(discrete, cfg).holds
        assert is_normal(discrete, cfg).holds
        assert points_all_closed(discrete, cfg).holds

    def test_singleton_space_satisfies_the_whole_chain(self):
        u1 = Universe.of("x")
        null = FuzzySoftSet.null(u1, E)
        full = FuzzySoftSet.full(u1, E)
        space = validate_topology(full, [null, full])
        cfg = crisp_cfg()
        for decide in (is_t0, is_t1, is_t2, is_regular, is_t3,
                       is_normal, is_t4, points_all_closed):
            assert decide(space, cfg).holds, decide.__name__

    def test_indiscrete_fails_t1(self, indiscrete):
        cfg = crisp_cfg()
        assert not is_t1(indiscrete, cfg).holds
        assert not is_t2(indiscrete, cfg).holds

    def test_indiscrete_is_vacuously_regular_and_normal(self, indiscrete):
        cfg = crisp_cfg()
        assert is_regular(indiscrete, cfg).holds
        assert is_normal(indiscrete, cfg).holds

    def test_sierpinski_is_t0_but_not_t1(self, sierpinski):
        cfg = crisp_cfg()
        assert is_t0(sierpinski, cfg).holds
        verdict = is_t1(sierpinski, cfg)
        assert not verdict.holds
        assert verdict.witness is not None
        assert verdict.witness.kind == "point-pair"

    def test_t3_t4_are_conjunctions(self, discrete, sierpinski):
        cfg = crisp_cfg()
        # T1 fails on both, so the conjunctions fail and name the part
        assert not is_t3(sierpinski, cfg).holds
        assert not is_t4(sierpinski, cfg).holds
        verdict = is_t4(discrete, cfg)
        assert not verdict.holds and verdict.detail == "T1 fails"

    def test_points_closed_on_discrete_only(self, discrete, sierpinski):
        cfg = crisp_cfg()
        assert points_all_closed(discrete, cfg).holds
        assert not points_all_closed(sierpinski, cfg).holds


class TestConfigSensitivity:
    def test_verdict_depends_on_the_lattice(self):
        # same space, different grade set, different T1 answer
        u1 = Universe.of("x")
        null = FuzzySoftSet.null(u1, E)
        full = FuzzySoftSet.full(u1, E)
        half = FuzzySoftSet.build(u1, E, {"e1": {"x": "1/2"}})
        space = validate_topology(full, [null, half, full])
        assert is_t1(space, crisp_cfg()).holds  # single crisp point
        rich = DeciderConfig(lattice=GradeLattice.close(["1/2"]))
        assert not is_t1(space, rich).holds  # {x:1/2} below {x:1}

    def test_pair_relation_override(self, discrete):
        # restricting T2 to disjoint pairs sidesteps comparable ones
        relaxed = crisp_cfg(point_pair_relation="disjoint")
        assert is_t2(discrete, relaxed).holds
        assert not is_t2(discrete, crisp_cfg()).holds

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DeciderConfig(lattice=CRISP, disjointness_mode="sideways")
        with pytest.raises(ValueError):
            DeciderConfig(lattice=CRISP, point_pair_relation="same")
        with pytest.raises(ValueError):
            DeciderConfig(lattice=CRISP, regular_reading="loose")

    def test_auto_config_closes_occurring_grades(self, discrete):
        half = fss({"e1": {"x": "1/3"}})
        space = validate_topology(FULL, [NULL, half, FULL])
        cfg = DeciderConfig.auto_for(space)
        assert sorted(cfg.lattice) == sorted(GradeLattice.close(["1/3"]))

    def test_relation_defaults(self):
        cfg = crisp_cfg()
        assert cfg.relation_for("T0") == "disjoint"
        assert cfg.relation_for("T1") == "distinct"
        assert cfg.relation_for("T2") == "distinct"

    def test_payload_uses_exact_strings(self):
        payload = DeciderConfig(lattice=GradeLattice.close(["1/2"])).to_payload()
        assert payload["lattice"] == ["0", "1/2", "1"]


class TestConnectedness:
    def test_split_space_is_disconnected(self, discrete):
        cfg = crisp_cfg()
        verdict = is_connected(discrete, cfg)
        assert not verdict.holds
        # canonical order sorts by grade vector, so OY comes first
        assert find_separation(discrete, cfg) == (OY, OX)
        assert clopen_witness(discrete) == OY

    def test_indiscrete_is_connected(self, indiscrete):
        cfg = crisp_cfg()
        assert is_connected(indiscrete, cfg).holds
        assert clopen_witness(indiscrete) is None

    def test_sierpinski_is_connected(self, sierpinski):
        assert is_connected(sierpinski, crisp_cfg()).holds
        assert clopen_witness(sierpinski) is None

    def test_cross_parameter_mode_changes_the_answer(self):
        e2 = ParameterSet.of("e1", "e2")
        null = FuzzySoftSet.null(U, e2)
        full = FuzzySoftSet.full(U, e2)
        a = FuzzySoftSet.build(U, e2, {"e1": {"x": 1, "y": 1}})
        b = FuzzySoftSet.build(U, e2, {"e2": {"x": 1, "y": 1}})
        space = validate_topology(full, [null, a, b, full])
        assert not is_connected(space, crisp_cfg()).holds
        strict = crisp_cfg(disjointness_mode="cross_parameter")
        assert is_connected(space, strict).holds


class TestSubspaceSeparation:
    def test_closure_sense_split(self, discrete):
        assert subspace_separation(discrete, FULL, OX, OY)

    def test_rejects_null_parts_and_wrong_unions(self, discrete):
        with pytest.raises(DeciderPreconditionError):
            subspace_separation(discrete, FULL, NULL, FULL)
        with pytest.raises(DeciderPreconditionError):
            subspace_separation(discrete, FULL, OX, OX)

    def test_overlapping_closures_are_not_a_split(self, sierpinski):
        # cl({x}) is the carrier, which meets {y}
        assert not subspace_separation(sierpinski, FULL, OX, OY)

    def test_rejects_a_carrier_outside_the_space(self):
        small = validate_topology(OX, [NULL, OX])
        with pytest.raises(CarrierBoundError):
            subspace_separation(small, FULL, OX, OY)


class TestVerdictShape:
    def test_failed_verdict_requires_witness(self, discrete):
        from fstopo.deciders import AxiomVerdict
        with pytest.raises(ValueError):
            AxiomVerdict("T0", False, crisp_cfg())

    def test_witness_payload_and_render(self, sierpinski):
        verdict = is_t1(sierpinski, crisp_cfg())
        payload = verdict.to_payload()
        assert payload["axiom"] == "T1"
        assert payload["holds"] is False
        assert payload["witness"]["kind"] == "point-pair"
        assert "@" in verdict.witness.render()


# -- the indexed masks against the Fraction definitions --------------------

READINGS = list(product(DISJOINTNESS_MODES, (None, *PAIR_RELATIONS),
                        REGULAR_READINGS))


def fraction_masks(space, cfg):
    """What the deciders' masks mean, built from the Fraction sets with
    ``point_in``, ``disjoint`` and ``leq``: the lattice points inside the
    carrier, the opens holding each, the opens disjoint from each open,
    the opens above each closed set, and the pair tests."""
    mode = cfg.disjointness_mode
    opens, closeds = space.opens, space.closed_sets
    points = [p for p in enumerate_points(
        space.universe, space.parameters, cfg.lattice, cfg.cap)
        if point_in(p, space.carrier)]
    forms = [p.as_fss() for p in points]
    if cfg.regular_reading == "membership":
        def avoids(a, k):
            return not point_in(points[a], closeds[k])
    else:
        def avoids(a, k):
            return disjoint(forms[a], closeds[k], mode)
    return dict(
        points=points,
        omasks=[_mask(point_in(p, o) for o in opens) for p in points],
        odisj=[_mask(disjoint(a, b, mode) for b in opens) for a in opens],
        covers=[_mask(k.leq(o) for o in opens) for k in closeds],
        pair_test=lambda axiom: (
            (lambda a, b: disjoint(forms[a], forms[b], mode))
            if cfg.relation_for(axiom) == "disjoint" else lambda a, b: True),
        avoids=avoids,
        closeds_disjoint=lambda i, j: disjoint(closeds[i], closeds[j], mode),
        not_closed=next((p for p, f in zip(points, forms)
                         if f not in set(closeds)), None),
    )


def fraction_separation(space, mode):
    """First pair of disjoint nonempty opens whose Fraction union is the
    carrier."""
    opens = space.opens
    for i, a in enumerate(opens):
        for b in opens[i + 1:]:
            if (not a.is_null() and not b.is_null()
                    and disjoint(a, b, mode)
                    and a.union(b) == space.carrier):
                return a, b
    return None


def rendered(items, pair):
    return None if pair is None else tuple(items[i].render() for i in pair)


def witness_of(verdict):
    return None if verdict.holds else verdict.witness.rendered


# the open {x: 1/3} has the closed set {x: 2/3}, a grade in neither the
# lattice nor the opens; the carrier's 3/4 is outside the lattice too
THIRDS = validate_topology(
    FuzzySoftSet.build(Universe.of("x"), E, {"e1": {"x": "3/4"}}),
    [FuzzySoftSet.null(Universe.of("x"), E),
     FuzzySoftSet.build(Universe.of("x"), E, {"e1": {"x": "1/3"}}),
     FuzzySoftSet.build(Universe.of("x"), E, {"e1": {"x": "3/4"}})])


def chain_space(opens, parameters):
    """One element x, ``parameters`` parameters, the null set, the all-one
    carrier and a chain of ``opens`` opens, open s holding
    (s*P + p + 1)/(2SP + 7) at parameter p, so every cell of every open
    has a grade of its own."""
    u1 = Universe.of("x")
    names = ParameterSet.of(*(f"e{p + 1}" for p in range(parameters)))
    d = 2 * opens * parameters + 7
    chain = [FuzzySoftSet.build(u1, names, {
        f"e{p + 1}": {"x": Fraction(s * parameters + p + 1, d)}
        for p in range(parameters)}) for s in range(opens)]
    full = FuzzySoftSet.full(u1, names)
    return validate_topology(
        full, [FuzzySoftSet.null(u1, names), *chain, full])


CHAIN = chain_space(3, 2)


@given(object_spaces(), st.sampled_from(OBJECT_LATTICES))
@example(THIRDS, CRISP)
@example(THIRDS, GradeLattice.close(["1/2"]))
@example(CHAIN, DeciderConfig.auto_for(CHAIN).lattice)
def test_masks_match_the_fraction_definitions(space, lattice):
    for mode, relation, reading in READINGS:
        cfg = DeciderConfig(lattice=lattice, disjointness_mode=mode,
                            point_pair_relation=relation,
                            regular_reading=reading)
        want = fraction_masks(space, cfg)
        got = deciders._masks(space, cfg)
        points = want["points"]
        assert got.points == points
        assert got.omasks == want["omasks"]
        assert got.odisj == want["odisj"]
        assert got.covers == want["covers"]
        pairs = list(product(range(len(points)), repeat=2))
        for axiom in ("T0", "T1", "T2"):
            ok, want_ok = got.pair_test(axiom), want["pair_test"](axiom)
            assert [ok(a, b) for a, b in pairs] == [
                want_ok(a, b) for a, b in pairs], axiom
        # the verdicts the shared scans give on the Fraction masks
        om, od, cov = want["omasks"], want["odisj"], want["covers"]
        closeds = space.closed_sets
        assert witness_of(is_t0(space, cfg)) == rendered(
            points, _t0_fail(om, want["pair_test"]("T0")))
        t1 = _t1_fail(om, want["pair_test"]("T1"))
        assert witness_of(is_t1(space, cfg)) == rendered(
            points, None if t1 is None else sorted(t1))
        assert witness_of(is_t2(space, cfg)) == rendered(
            points, _t2_fail(om, od, want["pair_test"]("T2")))
        pair = _regular_fail(om, cov, od, want["avoids"])
        assert witness_of(is_regular(space, cfg)) == (
            None if pair is None
            else (points[pair[0]].render(), closeds[pair[1]].render()))
        pair = _normal_fail(cov, od, want["closeds_disjoint"])
        assert witness_of(is_normal(space, cfg)) == rendered(closeds, pair)
        bad = want["not_closed"]
        assert witness_of(points_all_closed(space, cfg)) == (
            None if bad is None else (bad.render(),))
        assert find_separation(space, cfg) == fraction_separation(space, mode)


def test_connectedness_enumerates_no_points(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("points enumerated")

    monkeypatch.setattr(deciders, "lattice_points", refuse)
    space = validate_topology(FULL, [NULL, OX, OY, FULL])
    assert not is_connected(space, crisp_cfg()).holds
    doc = tmp_path / "split.fst"
    doc.write_text("universe: x y\nparameters: e1\nopen x:\n  e1: x=1\n"
                   "open y:\n  e1: y=1\nopen none:\nopen all:\n"
                   "  e1: x=1 y=1\n")
    from fstopo import cli
    assert cli.main(["connected", str(doc)]) == 0
    assert "connected: no" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="points enumerated"):
        is_t0(space, crisp_cfg())


def test_codes_do_not_widen_with_the_lattice():
    # only the space's grades 0, 1/2 and 1 are indexed, so the one cell
    # keeps three entries at any lattice; ranking all 20001 grades into
    # codes would keep about 31 MB of ints before connectedness scans a pair
    u1 = Universe.of("x")
    full = FuzzySoftSet.full(u1, E)
    half = FuzzySoftSet.build(u1, E, {"e1": {"x": "1/2"}})
    space = validate_topology(full, [FuzzySoftSet.null(u1, E), half, full])
    cfg = DeciderConfig(lattice=GradeLattice.uniform(20000))
    tracemalloc.start()
    try:
        assert is_connected(space, cfg).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    m = deciders._masks(space, cfg)
    # bits 0-2 the opens and 3-5 the closed sets, each null, half and
    # full; bit 6 the carrier
    assert len(m.points) == 20000 and m.grades == [0, Fraction(1, 2), 1]
    assert m.index == [([0, 1, 2], [0b1111111, 0b1110110, 0b1100100, 0])]


def test_is_t1_memory_does_not_grow_with_cells_times_grades():
    # 16,020 points over 20 cells of 802 distinct grades: a code per point
    # as wide as a set, cells * (grades - 1) bits, peaked at about 23 MB;
    # a mask over the 45 sets per point keeps the points themselves the
    # bulk of the peak
    space = chain_space(20, 20)
    cfg = DeciderConfig.auto_for(space)
    tracemalloc.start()
    try:
        verdict = is_t1(space, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.holds
    assert len(deciders._masks(space, cfg).points) == 16020
    assert peak < 10_000_000


def test_a_point_is_closed_only_at_its_exact_grade():
    # 1/6 codes as 1/2, the least grade of the space above it, which is
    # the code of the closed set {x: 1/2}; the point is still not closed
    u1 = Universe.of("x")
    full = FuzzySoftSet.full(u1, E)
    half = FuzzySoftSet.build(u1, E, {"e1": {"x": "1/2"}})
    space = validate_topology(full, [FuzzySoftSet.null(u1, E), half, full])
    assert points_all_closed(space, crisp_cfg()).holds
    assert points_all_closed(
        space, DeciderConfig(lattice=GradeLattice.close(["1/2"]))).holds
    verdict = points_all_closed(
        space, DeciderConfig(lattice=GradeLattice.uniform(6)))
    assert witness_of(verdict) == ("e1 @ {x: 1/6}",)
