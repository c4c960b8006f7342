from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fstopo.algebra import (
    CapExceededError,
    ContextMismatchError,
    FuzzySet,
    GradeLattice,
    Universe,
)
from fstopo.softsets import (
    FuzzySoftSet,
    ParameterSet,
    disjoint,
    enumerate_lattice_sets,
    rank_codes,
)

U = Universe.of("x", "y")
E = ParameterSet.of("e1", "e2")
DESK = GradeLattice.close(["1/2"])


def fss(assignment):
    return FuzzySoftSet.build(U, E, assignment)


def desk_sets():
    """All 81 fuzzy soft sets over the shared context, as a strategy."""
    pool = enumerate_lattice_sets(U, E, DESK)
    return st.sampled_from(pool)


class TestConstruction:
    def test_build_fills_missing_parameters_with_null(self):
        g = fss({"e1": {"x": "1/2"}})
        assert g.value_for("e1").grade_of("x") == Fraction(1, 2)
        assert g.value_for("e2").is_null()

    def test_build_rejects_unknown_parameter(self):
        with pytest.raises(KeyError):
            fss({"e9": {"x": 1}})

    def test_value_count_must_match(self):
        one = FuzzySet.constant(U, 1)
        with pytest.raises(ValueError):
            FuzzySoftSet(U, E, (one,))

    def test_parameter_names_must_be_nonempty_strings(self):
        with pytest.raises(ValueError):
            ParameterSet.of("e1", "")
        with pytest.raises(ValueError):
            ParameterSet.of("e1", 2)

    def test_null_and_full(self):
        assert FuzzySoftSet.null(U, E).is_null()
        assert FuzzySoftSet.full(U, E).is_full()

    def test_support(self):
        assert fss({"e2": {"y": 1}}).support() == ("e2",)
        assert FuzzySoftSet.null(U, E).support() == ()


class TestLatticeOps:
    def test_union_intersection_are_pointwise(self):
        g = fss({"e1": {"x": "1/2", "y": 1}})
        h = fss({"e1": {"x": 1}, "e2": {"y": "1/2"}})
        assert g.union(h) == fss({"e1": {"x": 1, "y": 1}, "e2": {"y": "1/2"}})
        assert g.intersection(h) == fss({"e1": {"x": "1/2"}})

    def test_complement_is_one_minus(self):
        g = fss({"e1": {"x": "1/2", "y": 1}})
        c = g.complement()
        assert c.grade_of("e1", "x") == Fraction(1, 2)
        assert c.grade_of("e1", "y") == 0
        assert c.grade_of("e2", "x") == 1

    def test_leq_and_proper_subset(self):
        small = fss({"e1": {"x": "1/2"}})
        big = fss({"e1": {"x": "1/2", "y": "1/2"}})
        assert small.leq(big) and small.is_proper_subset_of(big)
        assert not big.leq(small)
        assert not big.is_proper_subset_of(big)

    def test_context_mismatch_refused(self):
        other = FuzzySoftSet.build(U, ParameterSet.of("a"), {})
        with pytest.raises(ContextMismatchError):
            fss({}).union(other)

    @given(desk_sets(), desk_sets())
    def test_de_morgan(self, g, h):
        assert g.union(h).complement() == g.complement().intersection(h.complement())

    @given(desk_sets(), desk_sets(), desk_sets())
    def test_distributivity(self, g, h, k):
        left = g.intersection(h.union(k))
        right = g.intersection(h).union(g.intersection(k))
        assert left == right

    @given(desk_sets())
    def test_involution(self, g):
        assert g.complement().complement() == g

    @given(desk_sets(), desk_sets())
    def test_ops_match_the_validating_constructor(self, g, h):
        for r in (g.union(h), g.intersection(h), g.complement()):
            rebuilt = FuzzySoftSet(
                U, E, tuple(FuzzySet(U, v.grades) for v in r.values))
            assert rebuilt == r and hash(rebuilt) == hash(r)


class TestRankCodes:
    def test_ranks_follow_the_grade_order(self):
        sets = enumerate_lattice_sets(U, E, GradeLattice.uniform(6))[::97]
        pairs = list(product(sets, repeat=2))
        codes = rank_codes([*sets, *(g.union(h) for g, h in pairs),
                            *(g.intersection(h) for g, h in pairs),
                            FuzzySoftSet.full(U, E)])
        n, m = len(sets), len(pairs)
        own, unions, meets = codes[:n], codes[n:n + m], codes[n + m:-1]
        # one field of (grades - 1) bits per cell
        grades = {g for s in sets for g in s.sort_key()} | {Fraction(1)}
        assert codes[-1] == (1 << 4 * (len(grades) - 1)) - 1
        # the sets come in canonical order, each once
        assert own == sorted(set(own))
        for (g, h), (a, b), union, meet in zip(
                pairs, product(own, repeat=2), unions, meets):
            assert a | b == union
            assert a & b == meet
            assert (a & ~b == 0) == g.leq(h)
            assert (a == b) == (g == h)

    def test_no_fraction_is_hashed_per_cell(self, monkeypatch):
        sets = enumerate_lattice_sets(U, E, DESK)
        hashed = []
        real = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__",
                            lambda g: hashed.append(g) or real(g))
        rank_codes(sets)
        # 81 sets of 4 cells over 3 distinct grades
        assert len(hashed) <= 3


class TestDisjointness:
    def test_pointwise_reads_per_parameter(self):
        g = fss({"e1": {"x": "1/2"}})
        h = fss({"e2": {"x": "1/2"}})
        assert disjoint(g, h)  # same parameter minima are all zero

    def test_cross_parameter_is_stronger(self):
        g = fss({"e1": {"x": "1/2"}})
        h = fss({"e2": {"x": "1/2"}})
        assert not disjoint(g, h, mode="cross_parameter")
        k = fss({"e2": {"y": "1/2"}})
        assert disjoint(g, k, mode="cross_parameter")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            disjoint(fss({}), fss({}), mode="fancy")


class TestEnumeration:
    def test_count_and_enumerate_agree(self):
        pool = enumerate_lattice_sets(U, E, DESK)
        assert len(pool) == len(set(pool)) == 81

    def test_canonical_order(self):
        pool = enumerate_lattice_sets(U, E, DESK)
        keys = [g.sort_key() for g in pool]
        assert keys == sorted(keys)
        assert pool[0].is_null() and pool[-1].is_full()

    def test_bounded_enumeration(self):
        bound = fss({"e1": {"x": "1/2"}})
        below = enumerate_lattice_sets(U, E, DESK, bound=bound)
        assert all(g.leq(bound) for g in below)
        assert len(below) == 2

    def test_cap_refusal_names_the_count(self):
        with pytest.raises(CapExceededError) as err:
            enumerate_lattice_sets(U, E, DESK, cap=10)
        assert err.value.required == 81

    def test_cap_admits_exactly_the_cap(self):
        assert len(enumerate_lattice_sets(U, E, DESK, cap=81)) == 81
        with pytest.raises(CapExceededError):
            enumerate_lattice_sets(U, E, DESK, cap=80)

