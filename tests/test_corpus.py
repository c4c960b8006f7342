import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fstopo import corpus
from fstopo.algebra import CapExceededError, GradeLattice, Universe
from fstopo.corpus import (
    CorpusSpec,
    EnumerationStats,
    SpaceCorpus,
    _closures,
    close_family,
    named_spaces,
    random_space_ids,
)
from fstopo.points import point_in
from fstopo.softsets import ParameterSet
from fstopo.topology import validate_topology

from conftest import DIFFERENTIAL_SHAPES, fixed_point, shape_pool_of


class TestSetPool:
    def test_size_and_bounds(self, desk_pool):
        assert desk_pool.size == 81
        assert desk_pool.null_id == 0
        assert desk_pool.full_id == 80
        assert desk_pool.decode(0).is_null()
        assert desk_pool.decode(80).is_full()

    def test_encode_decode_round_trip(self, desk_pool):
        for i in range(desk_pool.size):
            assert desk_pool.encode(desk_pool.decode(i)) == i

    def test_id_order_extends_the_set_order(self, desk_pool):
        # cellwise comparable sets compare the same way as their ids
        for i in range(desk_pool.size):
            gi = desk_pool.decode(i)
            for j in range(desk_pool.size):
                if desk_pool.leq(i, j):
                    assert gi.leq(desk_pool.decode(j))
                    assert i <= j

    def test_tables_match_object_operations(self, desk_pool):
        sample = range(0, desk_pool.size, 7)
        for i in sample:
            gi = desk_pool.decode(i)
            assert desk_pool.decode(desk_pool.comp[i]) == gi.complement()
            for j in sample:
                gj = desk_pool.decode(j)
                assert desk_pool.decode(desk_pool.meet[i][j]) == gi.intersection(gj)
                assert desk_pool.decode(desk_pool.join[i][j]) == gi.union(gj)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 2, 3), (2, 2, 4),
                                       (3, 2, 3)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_every_table_entry_is_elementwise(self, shape_pool, shape):
        # the tables are composed a cell at a time; here every entry is
        # recomputed from the grade vectors of its ids
        pool = shape_pool(*shape)
        top = pool.radix - 1
        vecs = pool._vectors
        per = len(pool.universe)
        for i, vi in enumerate(vecs):
            meets = [pool._encode(tuple(map(min, vi, vj))) for vj in vecs]
            assert pool.meet[i] == meets
            assert pool.join[i] == [
                pool._encode(tuple(map(max, vi, vj))) for vj in vecs]
            assert pool.comp[i] == pool._encode(tuple(top - d for d in vi))
            assert pool.disj_mask[i] == sum(
                1 << j for j, m in enumerate(meets) if m == pool.null_id)
            assert pool.pt_set_mask[i] == sum(
                1 << p for p, (pi, pv) in enumerate(pool.points)
                if all(map(int.__le__, pv, vi[pi * per:(pi + 1) * per])))

    @pytest.mark.parametrize("shape", DIFFERENTIAL_SHAPES,
                             ids=lambda s: "x".join(map(str, s)))
    def test_order_masks_match_meet(self, shape_pool, shape):
        pool = shape_pool(*shape)
        for w in range(pool.size):
            under = [h for h in range(pool.size) if pool.meet[h][w] == h]
            over = [h for h in range(pool.size) if pool.meet[w][h] == w]
            assert pool.below[w] == sum(1 << h for h in under)
            assert pool.above[w] == sum(1 << h for h in over)

    @pytest.mark.parametrize("shape", [s for s in DIFFERENTIAL_SHAPES
                                       if s[2] ** (s[0] * s[1]) <= 256],
                             ids=lambda s: "x".join(map(str, s)))
    def test_lane_tables_code_the_tables(self, shape_pool, shape):
        # the kernels read meet, join and order off the codes lane by
        # lane; here each is checked against the pool tables
        pool = shape_pool(*shape)
        lanes = pool.lanes()
        n = pool.size

        def code(i):
            return sum(table[i] << 8 * j for j, table in enumerate(lanes.code))

        assert len(lanes.code) == -(-pool.cells * (pool.radix - 1) // 8)
        assert len({code(i) for i in range(n)}) == n
        for a in range(n):
            assert lanes.meet[a] == bytes(pool.meet[a])
            assert lanes.join[a] == bytes(pool.join[a])
            for b in range(n):
                assert code(pool.meet[a][b]) == code(a) & code(b)
                assert code(pool.join[a][b]) == code(a) | code(b)
                assert (code(a) & ~code(b) == 0) == pool.leq(a, b)
            assert lanes.below[a] == int.from_bytes(
                bytes(255 if pool.leq(h, a) else 0 for h in range(n)),
                "little")
            assert lanes.above[a] == int.from_bytes(
                bytes(255 if pool.leq(a, h) else 0 for h in range(n)),
                "little")
            for table, up in zip(lanes.code, lanes.up):
                assert up[a] & (1 << 8 * n) - 1 == int.from_bytes(
                    bytes(table[a] if pool.leq(h, a) else 255
                          for h in range(n)), "little")
            assert lanes.bits(lanes.below[a]) == pool.below[a]
            assert lanes.spread(pool.above[a]) == lanes.above[a].to_bytes(
                n, "little")

    def test_lane_tables_need_ids_of_one_byte(self, shape_pool):
        assert shape_pool(3, 2, 3).lanes() is None

    def test_disjointness_mask(self, desk_pool):
        for i in range(desk_pool.size):
            for j in range(desk_pool.size):
                bit = (desk_pool.disj_mask[i] >> j) & 1
                assert bit == (desk_pool.meet[i][j] == 0)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            SetPool_small()

    def test_cap_admits_exactly_the_cap(self):
        assert SetPool_small(cap=81).size == 81
        with pytest.raises(CapExceededError):
            SetPool_small(cap=80)

    @pytest.mark.parametrize("shape", DIFFERENTIAL_SHAPES,
                             ids=lambda s: "x".join(map(str, s)))
    def test_point_membership_masks(self, shape_pool, shape):
        # the masks are read off the order rows; here each is checked
        # against point membership on the decoded objects
        elements, parameters, radix = shape
        pool = shape_pool(*shape)
        assert len(pool.points) == parameters * (radix**elements - 1)
        sets = [pool.decode(s) for s in range(pool.size)]
        for idx in range(len(pool.points)):
            p = pool.decode_point(idx)
            mask = pool.pt_in_mask[idx]
            assert mask == pool.above[pool.pt_form_id[idx]]
            for s, g in enumerate(sets):
                assert bool((mask >> s) & 1) == point_in(p, g)
                assert bool((pool.pt_set_mask[s] >> idx) & 1) == \
                    bool((mask >> s) & 1)

    @pytest.mark.parametrize("shape", DIFFERENTIAL_SHAPES,
                             ids=lambda s: "x".join(map(str, s)))
    def test_point_form_ids(self, shape_pool, shape):
        pool = shape_pool(*shape)
        for idx in range(len(pool.points)):
            p = pool.decode_point(idx)
            form = pool.decode(pool.pt_form_id[idx])
            assert form == p.as_fss()

    def test_points_are_built_once_with_the_pool(self):
        pool = SetPool_small(cap=corpus.DEFAULT_POOL_CAP)

        def tables():
            return [pool.points, pool.pt_in_mask, pool.pt_set_mask,
                    pool.pt_form_id]

        built = tables()
        # a second call, as a caller that builds the points itself makes,
        # keeps the tables the pool built
        pool.build_points()
        assert all(a is b for a, b in zip(tables(), built))


def SetPool_small(cap=10):
    from fstopo.corpus import SetPool

    return SetPool(
        Universe.of("x", "y"),
        ParameterSet.of("e1", "e2"),
        GradeLattice.close(["1/2"]),
        cap=cap,
    )


class TestCloseFamily:
    def test_always_contains_null_and_full(self, desk_pool):
        fam = close_family(desk_pool, (17, 53), 64)
        assert fam is not None
        assert desk_pool.null_id in fam and desk_pool.full_id in fam

    def test_closure_is_min_max_closed(self, desk_pool):
        fam = sorted(close_family(desk_pool, (17, 53, 29), 64))
        for a in fam:
            for b in fam:
                assert desk_pool.meet[a][b] in fam
                assert desk_pool.join[a][b] in fam

    def test_opens_bound_refusal(self, desk_pool):
        assert close_family(desk_pool, (17, 53, 29), 4) is None

    def test_generators_alone_past_the_bound_are_refused(self):
        # null, full, 1, 2 and 5 on the 9-set pool are closed already, so
        # only the count of the start ids can refuse them
        pool = shape_pool_of(*NINE)
        assert close_family(pool, (1, 2, 5), 4) is None
        assert close_family(pool, (1, 2, 5), 5) == (0, 1, 2, 5, 8)


# the 9-set pool (x, y; e1; grades 0, 1/2, 1) and two 4-set pools
NINE = (2, 1, 3)
SMALL_SHAPES = [NINE, (2, 1, 2), (1, 2, 2)]


def bounded(family, max_opens):
    return family if len(family) <= max_opens else None


def spec_of(shape, **overrides):
    pool = shape_pool_of(*shape)
    return CorpusSpec(universe=pool.universe, parameters=pool.parameters,
                      lattice=pool.lattice, **overrides)


@given(st.sampled_from(SMALL_SHAPES + [(1, 2, 3), (1, 1, 4)]), st.data())
def test_extension_matches_the_fixed_point(shape, data):
    pool = shape_pool_of(*shape)
    ids = st.lists(st.integers(0, pool.size - 1), max_size=4)
    family = fixed_point(pool, {pool.null_id, pool.full_id, *data.draw(ids)})
    first = data.draw(st.integers(0, pool.size))
    stop = data.draw(st.integers(first, pool.size))
    max_opens = data.draw(st.integers(0, pool.size + 1))
    want = [fixed_point(pool, {*family, g}) for g in range(first, pool.size)]
    assert _closures(pool, family, first, pool.size) == want
    assert _closures(pool, family, first, max_opens) == [
        bounded(w, max_opens) for w in want]
    assert _closures(pool, family, first, pool.size, stop) == \
        want[:stop - first]
    new = data.draw(ids)
    want = fixed_point(pool, {pool.null_id, pool.full_id, *new})
    assert close_family(pool, tuple(new), pool.size) == want
    assert close_family(pool, tuple(new), max_opens) == bounded(
        want, max_opens)


def test_pools_past_one_byte_gather_list_rows():
    # ids past 255 do not fit a byte row: the 729-set pool gathers its
    # rows from the list tables, and never builds the byte tables
    shape = (3, 2, 3)
    pool = shape_pool_of(*shape)
    rng = random.Random(729)
    for _ in range(20):
        gens = tuple(rng.sample(range(pool.size), rng.randint(1, 4)))
        want = fixed_point(pool, {pool.null_id, pool.full_id, *gens})
        for max_opens in (len(want) - 1, len(want)):
            assert close_family(pool, gens, max_opens) == bounded(
                want, max_opens)
    family = close_family(pool, (100, 300), pool.size)
    first = 500
    assert _closures(pool, family, first, pool.size, first + 30) == [
        fixed_point(pool, {*family, g}) for g in range(first, first + 30)]
    # one generator: each family a chain null < g < full, or fewer
    closures = [fixed_point(pool, {pool.null_id, pool.full_id, g})
                for g in range(pool.size)]
    for max_opens in (2, 3):
        kept = [bounded(family, max_opens) for family in closures]
        seen = {(pool.null_id, pool.full_id), *filter(None, kept)}
        got = SpaceCorpus(spec_of(shape, max_generators=1,
                                  max_opens=max_opens))
        assert got.stats == EnumerationStats(pool.size + 1, kept.count(None),
                                             len(seen))
        assert got.spaces == sorted(seen, key=lambda t: (len(t), t))
        assert got.pool._lanes is None
    assert pool._lanes is None


def test_a_pool_of_256_sets_reads_byte_rows():
    # ids 0 .. 255 fit a byte, so the 2x2 pool over four grades closes
    # its families through the byte tables
    got = SpaceCorpus(spec_of((2, 2, 4), max_generators=1))
    assert got.pool.size == 256
    assert got.pool._lanes is not None
    assert got.stats == EnumerationStats(257, 0, 255)


@pytest.fixture(scope="module")
def tiny():
    # one parameter keeps the pool at 9 sets, enumeration instant
    return SpaceCorpus(CorpusSpec(
        universe=Universe.of("x", "y"),
        parameters=ParameterSet.of("e1"),
        lattice=GradeLattice.close(["1/2"]),
    ))


class TestEnumeration:
    def test_spaces_are_distinct_and_sorted(self, tiny):
        assert len(set(tiny.spaces)) == len(tiny.spaces) == tiny.stats.distinct
        assert tiny.spaces == sorted(tiny.spaces, key=lambda t: (len(t), t))

    def test_every_space_validates(self, tiny):
        for ids in tiny.spaces:
            space = tiny.pool.topology(ids)
            revalidated = validate_topology(space.carrier, space.opens)
            assert revalidated.opens == space.opens

    def test_family_accounting(self, tiny):
        expected = tiny.spec.family_count(tiny.pool.size)
        assert tiny.stats.families_scanned == expected
        assert tiny.stats.skipped_over_max_opens == 0

    def test_four_generators_enumerate_and_the_family_cap_refuses_first(
            self, monkeypatch):
        four = SpaceCorpus(spec_of(NINE, max_generators=4))
        assert four.stats == EnumerationStats(256, 0, 49)
        calls = []
        monkeypatch.setattr(corpus, "close_family",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(corpus, "_closures",
                            lambda *args: calls.append(args))
        # 4 generators on the 81-set desk pool give 1,752,382 families
        with pytest.raises(CapExceededError, match="1752382 items"):
            SpaceCorpus(CorpusSpec.desk(max_generators=4))
        assert calls == []

    def test_family_cap_admits_exactly_the_cap(self):
        # 1 + 9 + 36 + 84 generator families on the 9-set pool
        assert SpaceCorpus(spec_of(NINE, family_cap=130)).stats \
            .families_scanned == 130
        with pytest.raises(CapExceededError, match="130 items"):
            SpaceCorpus(spec_of(NINE, family_cap=129))

    def test_no_space_passes_the_opens_bound(self):
        # null, full, 1, 2 and 5 on the 9-set pool are five ids closed
        # already: a bound of 4 refuses them and every family grown from
        # them
        bounded_nine = SpaceCorpus(spec_of(NINE, max_opens=4))
        assert bounded_nine.stats == EnumerationStats(130, 59, 21)
        assert max(map(len, bounded_nine.spaces)) == 4

    def test_building_peaks_near_the_tuples_it_keeps(self):
        # a family has one form, its id tuple, from _closures to spaces: the
        # peak, pool and byte tables included, is 2.6 times the tuples'
        # bytes, and a frozenset kept beside each tuple puts it near 9.6
        tracemalloc.start()
        try:
            got = SpaceCorpus(CorpusSpec.desk(max_generators=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got.spaces) == 3161
        assert peak < 4 * sum(map(sys.getsizeof, got.spaces))

    @pytest.mark.parametrize("shape", SMALL_SHAPES,
                             ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("max_generators", range(5))
    def test_enumeration_matches_brute_force(self, shape, max_generators):
        # every combination of generators closed from scratch, against
        # the families grown one generator at a time
        pool = shape_pool_of(*shape)
        for max_opens in (2, 3, 4, 5, 7, 64):
            scanned = skipped = 0
            seen = set()
            for k in range(max_generators + 1):
                for gens in itertools.combinations(range(pool.size), k):
                    start = {pool.null_id, pool.full_id, *gens}
                    family = bounded(fixed_point(pool, start), max_opens)
                    scanned += 1
                    if family is None:
                        skipped += 1
                    else:
                        seen.add(tuple(sorted(family)))
            got = SpaceCorpus(spec_of(shape, max_generators=max_generators,
                                      max_opens=max_opens))
            assert got.stats == EnumerationStats(scanned, skipped, len(seen))
            assert got.spaces == sorted(seen, key=lambda t: (len(t), t))

    def test_labels(self, tiny):
        assert tiny.label(7) == "enum-00007"

    def test_desk_spec_shape(self):
        spec = CorpusSpec.desk()
        assert list(spec.universe) == ["x", "y"]
        assert list(spec.parameters) == ["e1", "e2"]
        assert len(spec.lattice) == 3


class TestRandomSpaces:
    def test_deterministic_in_seed(self, desk_pool):
        spec = CorpusSpec.desk()
        a = random_space_ids(123, spec, desk_pool)
        b = random_space_ids(123, spec, desk_pool)
        assert a == b

    def test_draws_are_valid_topologies(self, desk_pool):
        spec = CorpusSpec.desk()
        for seed in range(10):
            ids = random_space_ids(seed, spec, desk_pool)
            for a in ids:
                for b in ids:
                    assert desk_pool.meet[a][b] in set(ids)
                    assert desk_pool.join[a][b] in set(ids)
            assert ids[0] == desk_pool.null_id
            assert ids[-1] == desk_pool.full_id


class TestNamedCatalogue:
    def test_unique_labels_and_valid_spaces(self):
        catalogue = named_spaces()
        labels = [n.label for n in catalogue]
        assert len(labels) == len(set(labels)) == 9
        for named in catalogue:
            space = named.pool.topology(named.ids)
            assert validate_topology(space.carrier, space.opens)
            assert named.carrier_id == max(named.ids)

    def test_catalogue_reaches_what_enumeration_cannot(self):
        # a genuinely disconnected space and a sub-carrier space exist
        by_label = {n.label: n for n in named_spaces()}
        assert "named-split-half" in by_label
        assert "named-subcarrier-indiscrete" in by_label
