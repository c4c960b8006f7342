import functools
import random
import time

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from fstopo.algebra import FuzzySet, GradeLattice, Universe
from fstopo.auditor import run_audit
from fstopo.corpus import SetPool
from fstopo.engine import SpaceCase
from fstopo.softsets import FuzzySoftSet, ParameterSet
from fstopo.topology import validate_topology

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def desk_pool() -> SetPool:
    """The 81-set pool: |U| = 2, |A| = 2, lattice {0, 1/2, 1}."""
    return SetPool(
        Universe.of("x", "y"),
        ParameterSet.of("e1", "e2"),
        GradeLattice.close([0, "1/2", 1]),
    )


@functools.cache
def shape_pool_of(elements: int, parameters: int, radix: int) -> SetPool:
    """The pool of one (elements, parameters, lattice size) shape."""
    grades = {2: [0, 1], 3: [0, "1/2", 1], 4: [0, "1/3", "2/3", 1]}
    return SetPool(
        Universe.of(*("x", "y", "z")[:elements]),
        ParameterSet.of(*(f"e{i + 1}" for i in range(parameters))),
        GradeLattice.close(grades[radix]),
    )


def fixed_point(pool, start):
    """The min/max closure of ``start`` as an ascending id tuple, by
    adding every meet and join of the family until none is new."""
    family = set(start)
    while True:
        more = {table[a][b] for table in (pool.meet, pool.join)
                for a in family for b in family}
        if more <= family:
            return tuple(sorted(family))
        family |= more


def corrupt_case(corpus, seed):
    """An exhaustive enumerated case with seeded wrong entries in its
    closure and interior rows, an extra closed set and connectedness
    verdicts flipped to disconnected."""
    return corrupt_case_and_flips(corpus, seed)[0]


def corrupt_case_and_flips(corpus, seed):
    """``corrupt_case`` with the ids whose subspaces it flipped."""
    rng = random.Random(f"corrupt-case:{seed}")
    pool = corpus.pool
    index = rng.randrange(len(corpus.spaces))
    case = SpaceCase(corpus.label(index), pool, corpus.spaces[index],
                     exhaustive=True)
    extra = rng.randrange(pool.size)
    case.closeds = sorted(set(case.closeds) | {extra})
    case.closed_mask |= 1 << extra
    cl, it = case.cl()[:], case.interior()[:]
    for row in (cl, it):
        for _ in range(1 + seed % 4):
            row[rng.randrange(pool.size)] = rng.randrange(pool.size)
    case._cl, case._int = cl, it
    flipped = rng.sample(range(1, pool.size), 1 + seed % 3)
    case._dis = case.disconnected() | sum(1 << x for x in flipped)
    return case, frozenset(flipped)


# every shape from 1x1 to 3x2 with 2 to 4 grades and at most 729 sets
DIFFERENTIAL_SHAPES = [(elements, parameters, radix)
                       for elements in (1, 2, 3) for parameters in (1, 2)
                       for radix in (2, 3, 4)
                       if radix ** (elements * parameters) <= 729]


@pytest.fixture(scope="session")
def shape_pool():
    """Pools by (elements, parameters, lattice size), each built once."""
    return shape_pool_of


@pytest.fixture(scope="session")
def timed_full_audit():
    """One unbudgeted audit shared by the acceptance tests, and its wall
    time in seconds.

    Runs the whole enumerated corpus plus the random and named cases,
    so statuses here are the definitive ones.
    """
    started = time.monotonic()
    report = run_audit(workers=2)
    return report, time.monotonic() - started


@pytest.fixture(scope="session")
def full_audit(timed_full_audit):
    return timed_full_audit[0]


@pytest.fixture(scope="session")
def full_audit_seconds(timed_full_audit):
    return timed_full_audit[1]


# grades off the usual lattices: 1/3 and 3/4 are in none of them, and
# their complements 2/3 and 1/4 are new grades again
OBJECT_GRADES = ("0", "1/3", "1/2", "3/4", "1")
OBJECT_LATTICES = (GradeLattice.close([]), GradeLattice.close(["1/2"]),
                   GradeLattice.uniform(3), GradeLattice.uniform(4))


def min_max_closure(sets):
    """The smallest family holding ``sets`` and closed under pairwise
    min and max, by the Fraction operations."""
    family = set(sets)
    while True:
        grown = family | {op(a, b) for a in family for b in family
                          for op in (FuzzySoftSet.union,
                                     FuzzySoftSet.intersection)}
        if grown == family:
            return family
        family = grown


@st.composite
def object_sets(draw, universe, parameters):
    """A soft set over the context with grades from OBJECT_GRADES."""
    cell = st.sampled_from(OBJECT_GRADES)
    return FuzzySoftSet(universe, parameters, tuple(
        FuzzySet(universe, tuple(draw(cell) for _ in universe))
        for _ in parameters))


@st.composite
def object_spaces(draw):
    """A topology on 1x1 to 2x2 built from Fraction sets: up to three
    drawn generators under the full carrier or a drawn one, closed under
    min and max."""
    universe = Universe(("x", "y")[:draw(st.integers(1, 2))])
    parameters = ParameterSet(("e1", "e2")[:draw(st.integers(1, 2))])
    sets = object_sets(universe, parameters)
    carrier = FuzzySoftSet.full(universe, parameters)
    if draw(st.booleans()):
        carrier = draw(sets)
    gens = [g.intersection(carrier)
            for g in draw(st.lists(sets, min_size=1, max_size=3))]
    family = min_max_closure(
        [FuzzySoftSet.null(universe, parameters), carrier, *gens])
    return validate_topology(carrier, family)
