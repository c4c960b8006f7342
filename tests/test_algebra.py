from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fstopo import algebra
from fstopo.algebra import (
    FuzzySet,
    GradeError,
    GradeLattice,
    Universe,
    as_grade,
    render_grade,
)

HALF = Fraction(1, 2)


def grades(den=6):
    return st.fractions(min_value=0, max_value=1, max_denominator=den)


class TestAsGrade:
    def test_accepts_fraction_int_and_strings(self):
        assert as_grade(Fraction(1, 3)) == Fraction(1, 3)
        assert as_grade(0) == 0
        assert as_grade(1) == 1
        assert as_grade("2/5") == Fraction(2, 5)
        assert as_grade("0.5") == HALF
        assert as_grade("0.125") == Fraction(1, 8)
        assert as_grade(" 1 /\t2\t") == as_grade("\t0.5 ") == HALF

    def test_decimal_precision_bound(self):
        assert as_grade("0.333333") == Fraction(333333, 10**6)
        with pytest.raises(GradeError):
            as_grade("0.3333333")

    def test_refuses_floats_and_bools(self):
        with pytest.raises(GradeError):
            as_grade(0.5)
        with pytest.raises(GradeError):
            as_grade(True)

    @pytest.mark.parametrize("bad", ["3/2", "-1/2", 2, -1, "x", ""])
    def test_range_and_syntax(self, bad):
        with pytest.raises(GradeError):
            as_grade(bad)

    # Arabic-Indic, Devanagari and fullwidth digits: the grade syntax is ASCII
    @pytest.mark.parametrize("bad", ["\u0661/\u0662", "\u0660.\u0665",
                                     "\u0967", "\uff11/\uff12"])
    def test_refuses_digits_outside_ascii(self, bad):
        with pytest.raises(GradeError):
            as_grade(bad)

    # em, ideographic and no-break spaces, and a newline: the grade syntax
    # pads with ASCII spaces and tabs only
    @pytest.mark.parametrize("bad", ["1\u2003/\u20032", "1/2\u3000",
                                     "\u00a01/2", "0.5\n"])
    def test_refuses_whitespace_outside_ascii(self, bad):
        with pytest.raises(GradeError):
            as_grade(bad)

    @given(grades(den=1000))
    def test_render_round_trip(self, g):
        assert as_grade(render_grade(g)) == g

    def test_render_is_exact(self):
        assert render_grade(Fraction(1, 3)) == "1/3"
        assert render_grade(Fraction(0)) == "0"
        assert render_grade(Fraction(1)) == "1"


class TestGradeLattice:
    def test_requires_bounds_and_complements(self):
        GradeLattice((Fraction(0), HALF, Fraction(1)))
        with pytest.raises(ValueError):
            GradeLattice((Fraction(0), Fraction(1, 3), Fraction(1)))
        with pytest.raises(ValueError):
            GradeLattice((HALF, Fraction(1)))
        with pytest.raises(ValueError):
            GradeLattice((Fraction(1), Fraction(0)))  # not ascending

    def test_close_adds_bounds_and_complements(self):
        lat = GradeLattice.close(["1/3"])
        assert list(lat) == [0, Fraction(1, 3), Fraction(2, 3), 1]

    def test_close_of_nothing_is_crisp(self):
        assert list(GradeLattice.close([])) == [0, 1]

    def test_close_validates_each_seed_once(self, monkeypatch):
        calls = []
        real = algebra.as_grade
        monkeypatch.setattr(algebra, "as_grade",
                            lambda g: calls.append(g) or real(g))
        lat = GradeLattice.close(["1/3", HALF, 1])
        assert calls == ["1/3", HALF, 1]
        # the unchecked build equals the validating constructor's
        assert lat == GradeLattice(lat.grades)
        with pytest.raises(GradeError):
            GradeLattice.close(["3/2"])
        with pytest.raises(GradeError):
            GradeLattice.close([0.5])

    def test_uniform(self):
        lat = GradeLattice.uniform(4)
        assert list(lat) == [0, Fraction(1, 4), HALF, Fraction(3, 4), 1]
        with pytest.raises(ValueError):
            GradeLattice.uniform(0)

    def test_contains(self):
        lat = GradeLattice.uniform(2)
        assert HALF in lat
        assert Fraction(1, 3) not in lat


@pytest.fixture
def xy():
    return Universe.of("x", "y")


class TestFuzzySet:
    def test_from_mapping_defaults_missing_to_zero(self, xy):
        f = FuzzySet.from_mapping(xy, {"x": "1/2"})
        assert f.grade_of("x") == HALF
        assert f.grade_of("y") == 0

    def test_unknown_element_rejected(self, xy):
        with pytest.raises(KeyError):
            FuzzySet.from_mapping(xy, {"z": 1})

    def test_lattice_ops(self, xy):
        f = FuzzySet.from_mapping(xy, {"x": "1/2", "y": 1})
        g = FuzzySet.from_mapping(xy, {"x": 1, "y": 0})
        assert f.union(g) == FuzzySet.from_mapping(xy, {"x": 1, "y": 1})
        assert f.intersection(g) == FuzzySet.from_mapping(xy, {"x": "1/2"})
        assert f.complement() == FuzzySet.from_mapping(xy, {"y": 0, "x": "1/2"})

    def test_leq_is_pointwise(self, xy):
        small = FuzzySet.from_mapping(xy, {"x": "1/4"})
        big = FuzzySet.from_mapping(xy, {"x": "1/2", "y": "1/2"})
        assert small.leq(big)
        assert not big.leq(small)

    def test_null_and_full(self, xy):
        assert FuzzySet.constant(xy, 0).is_null()
        assert FuzzySet.constant(xy, 1).is_full()
        assert not FuzzySet.from_mapping(xy, {"x": "1/2"}).is_null()

    @given(grades(), grades(), grades(), grades())
    def test_de_morgan(self, a, b, c, d):
        u = Universe.of("x", "y")
        f = FuzzySet(u, (a, b))
        g = FuzzySet(u, (c, d))
        assert f.union(g).complement() == f.complement().intersection(g.complement())
        assert f.intersection(g).complement() == f.complement().union(g.complement())

    @given(grades(), grades())
    def test_complement_involution(self, a, b):
        f = FuzzySet(Universe.of("x", "y"), (a, b))
        assert f.complement().complement() == f

    def test_render(self, xy):
        f = FuzzySet.from_mapping(xy, {"x": "1/2"})
        assert f.render() == "{x: 1/2, y: 0}"

    @given(st.lists(st.tuples(grades(), grades()), min_size=1, max_size=3))
    def test_lattice_ops_match_the_validating_constructor(self, cells):
        # the operations skip the grade checks; their results must be
        # exactly what the public constructor builds from the same grades
        u = Universe(tuple("xyz"[: len(cells)]))
        f, g = (FuzzySet(u, column) for column in zip(*cells))
        for r in (f.union(g), f.intersection(g), f.complement()):
            rebuilt = FuzzySet(r.universe, r.grades)
            assert rebuilt == r and hash(rebuilt) == hash(r)
            assert all(type(x) is Fraction and 0 <= x <= 1 for x in r.grades)


class TestUniverse:
    def test_of_and_membership(self):
        u = Universe.of("a", "b")
        assert "a" in u and "c" not in u
        assert len(u) == 2

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Universe.of("a", "a")
