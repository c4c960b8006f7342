"""The shared axiom scans against their quantifier definitions, and a
case's lane-built operator tables against the list loops.

Both engines run the same five scans, so comparing the engines cannot
catch a fault in a scan.  Here each scan meets its definition, written
out per pair: drawn point masks, closed-set covers and symmetric
disjointness rows over sparse open ids, and a drawn pair relation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstopo.corpus import CorpusSpec, SpaceCorpus, named_spaces
from fstopo.engine import (
    SpaceCase,
    _closure_loop,
    _interior_loop,
    _nbhds_loop,
    _normal_fail,
    _regular_fail,
    _t0_fail,
    _t1_fail,
    _t2_fail,
)

from conftest import corrupt_case, fixed_point


def members(mask):
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def split(odisj, m1, m2):
    """Some open of m1 is disjoint from some open of m2."""
    return any(odisj[i] & m2 for i in members(m1))


def first(pairs):
    return next(iter(pairs), None)


def t0_definition(omasks, ok):
    n = len(omasks)
    return first((a, b) for a in range(n) for b in range(a + 1, n)
                 if omasks[a] == omasks[b] and ok(a, b))


def t1_definition(omasks, ok):
    # oriented so that every open holding the first point holds the second
    n = len(omasks)
    return first((a, b) if omasks[a] & ~omasks[b] == 0 else (b, a)
                 for a in range(n) for b in range(a + 1, n)
                 if (omasks[a] & ~omasks[b] == 0
                     or omasks[b] & ~omasks[a] == 0) and ok(a, b))


def t2_definition(omasks, odisj, ok):
    n = len(omasks)
    return first((a, b) for a in range(n) for b in range(a + 1, n)
                 if not split(odisj, omasks[a], omasks[b]) and ok(a, b))


def regular_definition(omasks, covers, odisj, ok):
    return first((a, k) for a in range(len(omasks))
                 for k in range(len(covers))
                 if ok(a, k) and not split(odisj, omasks[a], covers[k]))


def normal_definition(covers, odisj, ok):
    n = len(covers)
    return first((i, j) for i in range(n) for j in range(i + 1, n)
                 if ok(i, j) and not split(odisj, covers[i], covers[j]))


@st.composite
def scan_inputs(draw):
    """Point masks and covers over a few sparse open ids, each open's
    row of the opens disjoint from it (a symmetric relation), and the
    pairs the relation ``ok`` refuses."""
    ids = sorted(draw(st.sets(st.integers(0, 11), max_size=6)))
    open_mask = sum(1 << i for i in ids)
    masks = st.integers(0, 4095).map(lambda m: m & open_mask)
    omasks = draw(st.lists(masks, max_size=7))
    covers = draw(st.lists(masks, max_size=6))
    odisj = dict.fromkeys(ids, 0)
    if ids:
        pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
        for i, j in draw(st.sets(pairs, max_size=12)):
            odisj[i] |= 1 << j
            odisj[j] |= 1 << i
    refused = draw(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                           max_size=8))
    return omasks, covers, odisj, refused


@settings(max_examples=300)
@given(scan_inputs())
def test_scans_match_their_definitions(drawn):
    omasks, covers, odisj, refused = drawn

    def ok(a, b):
        return (a, b) not in refused

    assert _t0_fail(omasks, ok) == t0_definition(omasks, ok)
    assert _t1_fail(omasks, ok) == t1_definition(omasks, ok)
    assert _t2_fail(omasks, odisj, ok) == t2_definition(omasks, odisj, ok)
    assert _regular_fail(omasks, covers, odisj, ok) \
        == regular_definition(omasks, covers, odisj, ok)
    assert _normal_fail(covers, odisj, ok) \
        == normal_definition(covers, odisj, ok)


# A pool of at most 256 sets builds a case's closure, interior and
# neighborhoods on its byte lanes; the list loops, which larger pools
# run, are their definitions.


@pytest.fixture(scope="module")
def corpus():
    return SpaceCorpus(CorpusSpec.desk())


def loop_tables(case):
    pool = case.pool
    it = _interior_loop(pool, case.opens)
    return (_closure_loop(pool, case.closeds), it,
            _nbhds_loop(pool, it, case.pts))


def fresh_tables(case):
    case._cl = case._int = case._nbhds = None
    return case.cl(), case.interior(), case.nbhds()


def test_lane_tables_match_the_loops(corpus, shape_pool):
    cases = [SpaceCase(corpus.label(i), corpus.pool, corpus.spaces[i])
             for i in range(0, len(corpus.spaces), 7)]
    cases += [SpaceCase(ns.label, ns.pool, ns.ids) for ns in named_spaces()]
    # the corrupt cases hold a closed set that is no open's complement,
    # and wrong entries in their interior rows
    corrupt = [corrupt_case(corpus, seed) for seed in range(16)]
    for case in corrupt:
        pool, it = case.pool, case.interior()
        assert case.nbhds() == _nbhds_loop(pool, it, case.pts), case.label
    cases += corrupt
    # 2x2 cells of four grades: 256 sets, the largest pool on the lanes
    wide = shape_pool(2, 2, 4)
    assert wide.size == 256
    cases.append(SpaceCase("wide", wide, fixed_point(
        wide, [wide.null_id, wide.full_id, 6, 73, 200])))
    for case in cases:
        assert case.pool.size <= 256
        assert fresh_tables(case) == loop_tables(case), case.label
    assert len(cases[-1].opens) > 5


def test_pools_past_256_sets_run_the_loops(shape_pool):
    pool = shape_pool(3, 2, 3)
    assert pool.size == 729
    case = SpaceCase("big", pool, fixed_point(
        pool, [pool.null_id, pool.full_id, 100, 500]))
    assert fresh_tables(case) == loop_tables(case)
    assert pool._lanes is None


def test_a_256_set_pool_builds_each_table_on_its_lanes(shape_pool):
    pool = shape_pool(2, 2, 4)
    case = SpaceCase("wide", pool, fixed_point(
        pool, [pool.null_id, pool.full_id, 6, 73, 200]))
    # the lane tables are dropped before each table, which must ask for
    # them again; they are rebuilt from the same pool tables
    for table in (case.cl, case.interior, case.nbhds):
        pool._lanes = None
        table()
        assert pool._lanes is not None, table.__name__


def test_row_bytes_are_the_rows(corpus, shape_pool):
    case = SpaceCase(corpus.label(0), corpus.pool, corpus.spaces[-1])
    for name in ("cl", "interior"):
        row = getattr(case, name)()
        assert case.row_bytes(name) == bytes(row), name
    # a row replaced after the fold is read as it now stands
    case._cl = case.cl()[:]
    case._cl[1] = case.pool.full_id
    assert case.row_bytes("cl") == bytes(case._cl)
    big = shape_pool(3, 2, 3)
    assert SpaceCase("big", big, (big.null_id, big.full_id)).row_bytes(
        "cl") is None
