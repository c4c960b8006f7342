import functools

import pytest
from hypothesis import HealthCheck, settings

from fstopo.algebra import GradeLattice, Universe
from fstopo.auditor import run_audit
from fstopo.corpus import SetPool
from fstopo.softsets import ParameterSet

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
def full_audit():
    """One unbudgeted audit shared by the acceptance tests.

    Runs the whole enumerated corpus plus the random and named cases,
    so statuses here are the definitive ones.
    """
    return run_audit(workers=2)
