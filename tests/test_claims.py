"""Claim registry structure plus the two-path cross-check.

The claim evaluators run on integer-encoded spaces for speed.  The
cross-check here re-decides closure, interior, the separation axioms and
connectedness through the object-level engine on a sample of enumerated
spaces and on the whole named catalogue; any drift between the two paths
is a soundness bug, not a modeling choice.
"""

import ast
import copy
import hashlib
import inspect
import json
import pathlib
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fstopo import claims
from fstopo.claims import (
    ASSERTED,
    AUDITED,
    CLAIM_INDEX,
    CLAIMS,
    CLOSED_PROBES,
    EXHAUSTIVE_LIMIT,
    PAIR_PROBES,
    REPRODUCED,
    TRIPLE_PROBES,
    _MAX_FAILS,
    SpaceCase,
    _claim,
    _scan_indices,
    _sep_pair,
    evaluate_fixed_claims,
    evaluate_pool_claims,
    evaluate_space_case,
    select_claims,
)
from fstopo.corpus import (
    DEFAULT_MAX_OPENS,
    CorpusSpec,
    SetPool,
    SpaceCorpus,
    named_spaces,
)
from fstopo.algebra import GradeLattice, Universe
from fstopo.points import FuzzySoftPoint
from fstopo.softsets import FuzzySoftSet, ParameterSet
from fstopo.deciders import (
    DeciderConfig,
    find_separation,
    is_normal,
    is_regular,
    is_t0,
    is_t1,
    is_t2,
    is_t3,
    is_t4,
    points_all_closed,
)

from conftest import DIFFERENTIAL_SHAPES, fixed_point, shape_pool_of


@pytest.fixture(scope="module")
def corpus():
    return SpaceCorpus(CorpusSpec.desk())


def make_cases(corpus, stride=977):
    cases = [
        SpaceCase(corpus.label(i), corpus.pool, corpus.spaces[i])
        for i in range(0, len(corpus.spaces), stride)
    ]
    for named in named_spaces():
        cases.append(SpaceCase(named.label, named.pool, named.ids))
    return cases


class TestRegistry:
    def test_declaration_refuses_a_duplicate_or_unknown_kind(self):
        with pytest.raises(ValueError, match="duplicate"):
            _claim("CL.1", ASSERTED, "space", "again", "every set")
        with pytest.raises(ValueError, match="classification"):
            _claim("CL.NEW", "believed", "space", "new", "every set")
        with pytest.raises(ValueError, match="scope"):
            _claim("CL.NEW", ASSERTED, "shape", "new", "every set")
        assert "CL.NEW" not in CLAIM_INDEX and len(CLAIMS) == 67

    def test_registry_is_pinned(self):
        # idents, metadata and report order of every claim
        rows = [[c.ident, c.classification, c.scope, c.statement,
                 c.coverage, c.complete] for c in CLAIMS]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == REGISTRY_DIGEST

    def test_size_and_unique_idents(self):
        assert len(CLAIMS) == 67
        assert len(CLAIM_INDEX) == len(CLAIMS)

    def test_classifications(self):
        kinds = {c.classification for c in CLAIMS}
        assert kinds == {ASSERTED, AUDITED, REPRODUCED}

    def test_scopes(self):
        assert {c.scope for c in CLAIMS} == {"space", "pool", "fixed"}

    def test_select_all(self):
        assert select_claims(None) == CLAIMS
        assert select_claims("all") == CLAIMS

    def test_select_exact_and_family(self):
        assert [c.ident for c in select_claims("CL.1")] == ["CL.1"]
        family = [c.ident for c in select_claims("CON.CLOPEN")]
        assert family == ["CON.CLOPEN-fwd", "CON.CLOPEN-rev"]

    def test_select_unknown_is_empty(self):
        assert select_claims("CL.99") == ()

    def test_statements_are_self_contained(self):
        for c in CLAIMS:
            assert c.statement and c.coverage
            assert c.ident == c.ident.strip()


class TestCrossCheck:
    """Integer path against object path on the same spaces."""

    def test_closure_and_interior_rows(self, corpus):
        for case in make_cases(corpus, stride=1901):
            space = case.pool.topology(case.ids)
            cl, it = case.cl(), case.interior()
            pool = case.pool
            for g in range(0, pool.size, 5):
                gset = pool.decode(g)
                assert pool.decode(cl[g]) == space.closure(gset)
                assert pool.decode(it[g]) == space.interior(gset)

    def test_axioms_agree_with_deciders(self, corpus):
        deciders = (
            ("t0", is_t0), ("t1", is_t1), ("t2", is_t2),
            ("regular", is_regular), ("normal", is_normal),
        )
        failed = set()
        for case in make_cases(corpus):
            space = case.pool.topology(case.ids)
            cfg = DeciderConfig(lattice=case.pool.lattice)
            for name, decide in deciders:
                verdict = decide(space, cfg)
                assert getattr(case, name)() == verdict.holds, (
                    case.label, name)
                if not verdict.holds:
                    failed.add(name)
                    assert axiom_witness(case, name, verdict.witness.note) \
                        == verdict.witness.rendered, (case.label, name)
            assert case.points_closed() == points_all_closed(space, cfg).holds
        assert failed == {name for name, _ in deciders}

    def test_connectedness_agrees(self, corpus):
        for case in make_cases(corpus):
            space = case.pool.topology(case.ids)
            cfg = DeciderConfig(lattice=case.pool.lattice)
            sep = case.separation
            assert case.connected() == (sep is None), case.label
            assert (sep is None) == (find_separation(space, cfg) is None), \
                case.label
            if sep is not None:
                a, b = sep
                pool = case.pool
                assert pool.meet[a][b] == pool.null_id
                assert pool.join[a][b] == case.carrier

    def test_traces_match_subspace_opens(self, corpus):
        case = make_cases(corpus, stride=2500)[0]
        space = case.pool.topology(case.ids)
        pool = case.pool
        for g in case.opens:
            view = space.subspace(pool.decode(g))
            traced = [pool.decode(t) for t in case.traces(g)]
            assert tuple(traced) == view.opens


def axiom_witness(case, name, note):
    """The ids ``case.ax(name)`` finds, rendered in the decider's order:
    the integer path orders a failing T1 pair so that no open holds its
    first point without its second, the decider says so in the note."""
    first, second = case.ax(name)
    if name == "t1" and note.endswith("the second point without the first"):
        first, second = second, first
    render_first = case.render_set if name == "normal" else case.render_point
    render_second = case.render_point if name.startswith("t") \
        else case.render_set
    return render_first(first), render_second(second)


class TestEvaluation:
    def test_space_claims_pass_on_an_enumerated_case(self, corpus):
        case = SpaceCase(corpus.label(0), corpus.pool, corpus.spaces[0])
        results = evaluate_space_case(case)
        for ident, (checked, hits, fails) in results.items():
            claim = CLAIM_INDEX[ident]
            if claim.classification == ASSERTED:
                assert fails == [], ident

    def test_exhaustive_flag_widens_the_scan(self, corpus):
        ids = corpus.spaces[min(40, len(corpus.spaces) - 1)]
        probed = evaluate_space_case(
            SpaceCase("a", corpus.pool, ids), idents=["CL.3"])
        widened = evaluate_space_case(
            SpaceCase("a", corpus.pool, ids, exhaustive=True), idents=["CL.3"])
        assert widened["CL.3"][0] >= probed["CL.3"][0]

    def test_pool_claims_on_desk(self, desk_pool):
        results = evaluate_pool_claims(desk_pool)
        # PT.1 and PT.5-converse are counterexample records by design
        assert results["PT.1"][2]
        assert results["PT.5-converse"][2]
        for ident in ("ALG.INVOLUTION", "ALG.DEMORGAN-UNION",
                      "ALG.DEMORGAN-INTERSECTION", "PT.3", "PT.4",
                      "PT.5-sound", "PT.6"):
            checked, hits, fails = results[ident]
            assert checked > 0 and fails == [], ident

    def test_fixed_claims_replay(self):
        for ident, (checked, hits, fails) in evaluate_fixed_claims().items():
            assert (checked, hits, fails) == (1, 1, []), ident

    def test_filtering_by_ident(self, corpus):
        case = SpaceCase(corpus.label(0), corpus.pool, corpus.spaces[0])
        only = evaluate_space_case(case, idents=["CL.1", "CL.2"])
        assert set(only) == {"CL.1", "CL.2"}

    def test_failures_past_the_cap_are_not_rendered(self, corpus,
                                                    monkeypatch):
        pool = corpus.pool
        case = SpaceCase("cap", pool, corpus.spaces[0], exhaustive=True)
        it, meet, join = case.interior(), pool.meet, pool.join
        failing = sum(
            1 for g in range(pool.size) for h in range(pool.size)
            if meet[it[join[g][h]]][join[it[g]][it[h]]] != it[join[g][h]])
        assert failing > _MAX_FAILS
        # NBD.1 and NBD.4 hold on every real space: a carrier interior on
        # every other set makes them fail on many (point, set) pairs
        bad_nbd = SpaceCase("cap", pool, corpus.spaces[0])
        bad_it = [pool.full_id if g % 2 else o
                  for g, o in enumerate(bad_nbd.interior())]
        bad_nbd._int = bad_it
        pin = pool.pt_in_mask
        outside = sum(1 for p in bad_nbd.pts for g in range(1, pool.size, 2)
                      if not (pin[p] >> g) & 1)
        # no odd id is the carrier, so no odd set lies above it
        no_open = len(bad_nbd.pts) * (pool.size // 2)
        assert min(outside, no_open) > _MAX_FAILS
        rendered = []
        render_set, render_point = SpaceCase.render_set, SpaceCase.render_point

        def counting_set(self, gid):
            rendered.append(gid)
            return render_set(self, gid)

        def counting_point(self, index):
            rendered.append(index)
            return render_point(self, index)

        monkeypatch.setattr(SpaceCase, "render_set", counting_set)
        monkeypatch.setattr(SpaceCase, "render_point", counting_point)
        pairs = pool.size ** 2
        point_sets = len(bad_nbd.pts) * pool.size
        runs = [(case, "CL.12", evaluate_space_case, pairs),  # row path
                (case, "CL.12", by_checks, pairs),
                (bad_nbd, "NBD.1", evaluate_space_case, point_sets),
                (bad_nbd, "NBD.4", evaluate_space_case, point_sets)]
        for subject, ident, evaluate, instances in runs:
            rendered.clear()
            checked, _, fails = evaluate(subject, {ident})[ident]
            assert checked == instances and len(fails) == _MAX_FAILS, ident
            assert len(rendered) <= 2 * _MAX_FAILS, ident

    def test_failures_past_the_cap_are_not_rendered_by_any_claim(
            self, corpus, shape_pool, monkeypatch):
        # each claim renders the same number of sets and points per
        # failure, so a claim that renders only the failures it keeps
        # renders that many for each of its _MAX_FAILS failures
        rendered = []
        render_set, render_point = FuzzySoftSet.render, FuzzySoftPoint.render

        def counting_set(self):
            rendered.append(self)
            return render_set(self)

        def counting_point(self):
            rendered.append(self)
            return render_point(self)

        monkeypatch.setattr(FuzzySoftSet, "render", counting_set)
        monkeypatch.setattr(FuzzySoftPoint, "render", counting_point)

        def run(evaluate, subject, ident, cap):
            monkeypatch.setattr(claims, "_MAX_FAILS", cap)
            rendered.clear()
            fails = evaluate(subject, {ident})[ident][2]
            return len(fails), len(rendered)

        past_cap = set()
        subjects = [(evaluate_space_case, case, CAPPED_SPACE_CLAIMS)
                    for case in pinned_space_cases(corpus)]
        subjects += [(evaluate_pool_claims, pool, CAPPED_POOL_CLAIMS)
                     for pool in (*pinned_pools(shape_pool),
                                  *point_failure_pools(shape_pool))]
        for evaluate, subject, idents in subjects:
            for ident in idents:
                every, every_rendered = run(evaluate, subject, ident, 10**6)
                if every <= _MAX_FAILS:
                    continue
                past_cap.add(ident)
                kept, kept_rendered = run(evaluate, subject, ident,
                                          _MAX_FAILS)
                assert kept == _MAX_FAILS, ident
                assert kept_rendered * every == every_rendered * kept, ident
                assert kept_rendered <= 3 * _MAX_FAILS, ident
        assert past_cap == (CAPPED_SPACE_CLAIMS | CAPPED_POOL_CLAIMS) - {
            "CON.COARSER"}


def test_only_the_drivers_read_the_failure_cap():
    # every claim reports through _scan, _tally or _first_fails, so the
    # cap is applied in one place; a hand-written guard in an evaluator
    # would read _MAX_FAILS there
    tree = ast.parse(inspect.getsource(claims))
    readers, compared = [], []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id == "_MAX_FAILS":
                readers.append(getattr(fn, "name", "<lambda>"))
            if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Name) and side.id == "_MAX_FAILS"
                    for side in (node.left, *node.comparators)):
                compared.append(getattr(fn, "name", "<lambda>"))
    assert set(readers) == {"_scan", "_tally", "_first_fails"}
    assert compared == ["_tally"]


def test_only_the_scan_indices_draw_probes():
    # every probed claim draws its indices through _scan_indices, so the
    # exhaustive widening and its EXHAUSTIVE_LIMIT bound hold everywhere;
    # NORMCHAR-rev alone reads the flag, to skip the cases it needs whole
    tree = ast.parse(inspect.getsource(claims))
    probers, flag_readers = set(), set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name) and node.func.id == "_probe":
                probers.add(name)
            if isinstance(node, ast.Attribute) and node.attr == "exhaustive":
                flag_readers.add(name)
    assert probers == {"_scan_indices"}
    assert flag_readers - {"_scan_indices"} == {"_eval_normchar_rev"}


def test_exhaustive_scans_past_the_limit_are_probed():
    # the full chain over one cell: 256 sets, every one open, so the
    # space is connected and normal and its open pairs (256**2) pass
    # EXHAUSTIVE_LIMIT; the two pair claims then probe like every other
    pool = SetPool(Universe.of("x"), ParameterSet.of("e"),
                   GradeLattice.uniform(255))
    case = SpaceCase("chain", pool, tuple(range(pool.size)),
                     exhaustive=True)
    assert case.connected() and case.normal()
    total = pool.size * pool.size
    assert total > EXHAUSTIVE_LIMIT
    results = evaluate_space_case(
        case, idents=["CON.COARSER", "SEP.NORMCHAR-fwd"])
    # CON.COARSER checks the pairs i < j among its indices, every one a hit
    pairs = sum(i < j for i, j in (
        divmod(t, pool.size)
        for t in _scan_indices(case, total, 2 * CLOSED_PROBES, 51)))
    assert results["CON.COARSER"] == (pairs, pairs, [])
    normchar = _scan_indices(case, total, 2 * CLOSED_PROBES, 46)
    assert results["SEP.NORMCHAR-fwd"][0] == len(normchar) < total


def test_only_the_pool_reads_the_id_format():
    # SetPool alone knows how an id encodes its grades: every other module
    # goes through its tables and methods, so the encoding can change
    # behind them
    package = pathlib.Path(claims.__file__).parent
    readers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "corpus.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in (
                    "_vector", "_vectors", "_encode"):
                readers.append((path.name, node.lineno, node.attr))
    assert readers == []


def test_every_module_reads_what_it_imports():
    # an import that no code or annotation reads is dead; __init__.py
    # imports to re-export
    package = pathlib.Path(claims.__file__).parent
    unread = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "annotations" and name not in read:
                        unread.append((path.name, node.lineno, name))
    assert unread == []


# the claims whose failures the arithmetic or counting loops report
CAPPED_SPACE_CLAIMS = frozenset({
    "TOP.AX3-union", "TOP.AX3-intersection", "CL.1", "CL.2", "CL.5",
    "CL.6", "CL.FIXED", "NBD.OPEN-IFF", "CON.COARSER", "CON.SEPCHAR-fwd",
    "CON.SEPCHAR-rev", "CON.BETWEEN", "CON.CLOSURE-CONN"})
CAPPED_POOL_CLAIMS = frozenset({
    "ALG.INVOLUTION", "ALG.DEMORGAN-UNION", "ALG.DEMORGAN-INTERSECTION",
    "PT.1", "PT.3", "PT.4"})


# -- subspaces read from the ambient masks --------------------------------
# The claims decide a subspace's connectedness with one bit of
# SpaceCase.disconnected() and its axioms with holds(name, g), both read
# off the ambient masks.  The references are the separation search over
# the traces (_sep_pair) and the subspace built as a SpaceCase of its own.


def reference_subspace(case, g):
    """The subspace at g as a SpaceCase: the traces as its opens, the
    closed traces as its closed sets."""
    sub = SpaceCase(case.label, case.pool, tuple(case.traces(g)))
    sub.closeds = case.closed_traces(g)
    return sub


SUBSPACE_AXIOMS = ("t0", "t1", "t2", "t3", "normal")


def traced_connected(case, g):
    """The reference: whether the traces on g have no separation."""
    return _sep_pair(case.pool, case.traces(g), g) is None


def is_connected_side(case, g, connected):
    """The reference for bit g of ``connected_sets()``: g is non-null,
    lies under the carrier and, by CONNECTED, is a connected subspace."""
    return g != 0 and case.pool.meet[g][case.carrier] == g and connected


def subspace_mismatches(case, sets, outcomes, flipped=frozenset()):
    """The (set, reading) pairs in SETS where a mask reading differs from
    its reference; each reference verdict seen is added to OUTCOMES.  The
    FLIPPED sets are read as disconnected, as ``corrupt_case`` made them."""
    bad = []
    dis = case.disconnected()
    for g in sets:
        connected = traced_connected(case, g) and g not in flipped
        outcomes.add(("connected", connected))
        if bool((dis >> g) & 1) == connected:
            bad.append((g, "connected"))
    for g in sets:
        ref = reference_subspace(case, g)
        for axiom in SUBSPACE_AXIOMS:
            holds = ref.holds(axiom)
            outcomes.add((axiom, holds))
            if case.holds(axiom, g) != holds:
                bad.append((g, axiom))
    return bad


def test_disconnected_mask_matches_the_trace_search(corpus):
    outcomes = set()
    cases = [SpaceCase(corpus.label(i), corpus.pool, corpus.spaces[i])
             for i in range(0, len(corpus.spaces), 37)]
    cases += [SpaceCase(ns.label, ns.pool, ns.ids) for ns in named_spaces()]
    for case in cases:
        dis = case.disconnected()
        sides = case.connected_sets()
        for g in range(case.pool.size):
            connected = traced_connected(case, g)
            outcomes.add(connected)
            assert bool((dis >> g) & 1) != connected, (case.label, g)
            assert bool((sides >> g) & 1) == is_connected_side(
                case, g, connected), (case.label, g)
    assert outcomes == {True, False}


def test_subspace_verdicts_match_built_subspaces(corpus):
    outcomes = set()
    cases = [(SpaceCase(corpus.label(i), corpus.pool, corpus.spaces[i]), ())
             for i in range(0, len(corpus.spaces), 997)]
    cases += [(SpaceCase(ns.label, ns.pool, ns.ids), ())
              for ns in named_spaces()]
    # the corrupt cases carry an extra closed set, so their closed traces
    # are not all ambient closed sets
    cases += [corrupt_case_and_flips(corpus, seed) for seed in range(4)]
    for case, flipped in cases:
        sets = range(0, case.pool.size, 1 if case.pool.size < 81 else 5)
        assert subspace_mismatches(case, sets, outcomes, flipped) == [], \
            case.label
    assert outcomes == {(reading, verdict)
                        for reading in ("connected", *SUBSPACE_AXIOMS)
                        for verdict in (True, False)}


DRAWN_SHAPES = [(elements, parameters, radix) for elements in (1, 2)
                for parameters in (1, 2) for radix in (2, 3, 4)]


@st.composite
def small_spaces(draw, shapes=DRAWN_SHAPES, split=False):
    """A min/max-closed family on one of SHAPES, by default 1x1 to 2x2
    with 2 to 4 grades, under the full carrier or a drawn one.  With
    SPLIT, the generators may include both sides of a cell-wise split of
    the carrier, which disconnects the space."""
    pool = shape_pool_of(*draw(st.sampled_from(shapes)))
    n = pool.size
    carrier = pool.full_id
    if draw(st.booleans()):
        carrier = draw(st.integers(1, n - 1))
    gens = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    start = {0, carrier, *(pool.meet[g][carrier] for g in gens)}
    splits = pool.cell_splits(carrier)
    if split and splits and draw(st.booleans()):
        start.update(draw(st.sampled_from(splits)))
    family = fixed_point(pool, start)
    assume(len(family) <= DEFAULT_MAX_OPENS)
    sets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    return SpaceCase("drawn", pool, family), sets


@given(small_spaces())
def test_subspace_readings_match_on_drawn_spaces(drawn):
    case, sets = drawn
    # the mask against the trace search on every set, the axioms on a few
    dis = case.disconnected()
    sides = case.connected_sets()
    for g in range(case.pool.size):
        connected = traced_connected(case, g)
        assert bool((dis >> g) & 1) != connected, g
        assert bool((sides >> g) & 1) == is_connected_side(
            case, g, connected), g
    assert subspace_mismatches(case, sets, set()) == []


AXIOM_DECIDERS = (("t0", is_t0), ("t1", is_t1), ("t2", is_t2),
                  ("regular", is_regular), ("normal", is_normal),
                  ("t3", is_t3), ("t4", is_t4))


@pytest.mark.parametrize("shape", DIFFERENTIAL_SHAPES,
                         ids=lambda s: "x".join(map(str, s)))
@given(data=st.data())
def test_engines_agree_on_drawn_spaces(shape, data):
    # the integer engine against the object path, witnesses included
    case, sets = data.draw(small_spaces([shape], split=True))
    pool = case.pool
    space = pool.topology(case.ids)
    cfg = DeciderConfig(lattice=pool.lattice)
    for name, decide in AXIOM_DECIDERS:
        verdict = decide(space, cfg)
        assert case.holds(name) == verdict.holds, name
        if not verdict.holds and name not in ("t3", "t4"):
            assert axiom_witness(case, name, verdict.witness.note) \
                == verdict.witness.rendered, name
    verdict = points_all_closed(space, cfg)
    assert case.points_closed() == verdict.holds
    if not verdict.holds:
        assert (case.render_point(case.ax("points_closed")),) \
            == verdict.witness.rendered
    sep = find_separation(space, cfg)
    assert case.connected() == (sep is None)
    assert case.separation == (None if sep is None
                               else tuple(map(pool.encode, sep)))
    cl, it = case.cl(), case.interior()
    for g in sets:
        gset = pool.decode(g)
        assert pool.decode(cl[g]) == space.closure(gset), g
        assert pool.decode(it[g]) == space.interior(gset), g


def test_a_space_claim_pass_builds_no_subspace(monkeypatch):
    built = []
    init = SpaceCase.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(SpaceCase, "__init__", counting)
    ns = next(ns for ns in named_spaces()
              if ns.label == "named-discrete-crisp-1x2")
    case = SpaceCase(ns.label, ns.pool, ns.ids, exhaustive=True)
    results = evaluate_space_case(case)
    # the discrete space passes every gate, so every subspace check ran
    for ident in ("SEP.SUB-T0", "SEP.SUB-T1", "SEP.SUB-T2", "SEP.T3-HERED",
                  "SEP.SUB-NORMAL", "CON.UNION-COMMON", "CON.BETWEEN"):
        assert results[ident][1] > 1, ident
    assert built == [ns.label]


def test_cases_and_pool_claims_read_the_points_the_pool_built(monkeypatch):
    ns = next(ns for ns in named_spaces()
              if ns.label == "named-discrete-crisp-1x2")

    def rebuild(self):
        raise AssertionError("points rebuilt after the pool was built")

    monkeypatch.setattr(SetPool, "build_points", rebuild)
    case = SpaceCase(ns.label, ns.pool, ns.ids, exhaustive=True)
    assert evaluate_space_case(case)
    results = evaluate_pool_claims(ns.pool)
    assert all(res[2] == [] for res in results.values())


# -- pair claims: row scans against their checks --------------------------
# On a full-range scan, _scan takes a pair claim's rows instead of calling
# its check once per pair.  Its check stays the definition: driven over
# every pair, it must give the same (checked, hits, fails) triple.

ROW_CLAIMS = frozenset({
    "CL.3", "CL.4", "CL.9", "CL.10", "CL.11", "CL.12", "CL.12-rev",
    "SUB.CLOSED", "SUB.CLOSED-ABS", "SUB.CLOSURE", "CON.UNION-COMMON"})


def by_checks(case, idents):
    """``evaluate_space_case`` with every pair driven through its check:
    ``_scan`` without the rows."""
    scan = claims._scan

    def checks_only(case, total, probes, salt, check, rows=None):
        return scan(case, total, probes, salt, check)

    claims._scan = checks_only
    try:
        return evaluate_space_case(case, idents)
    finally:
        claims._scan = scan


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


def row_cases(corpus):
    pool = corpus.pool
    named = [SpaceCase(ns.label, ns.pool, ns.ids, exhaustive=True)
             for ns in named_spaces()]
    enumerated = [SpaceCase(corpus.label(i), pool, corpus.spaces[i],
                            exhaustive=True)
                  for i in [*range(6), *range(6, len(corpus.spaces), 4999)]]
    corrupt = [corrupt_case(corpus, seed) for seed in range(16)]
    return {"named": named, "enumerated": enumerated, "corrupt": corrupt}


def test_rows_are_given_to_exactly_the_row_claims(corpus, monkeypatch):
    given = set()
    scan = claims._scan

    def spy(case, total, probes, salt, check, rows=None):
        if rows is not None:
            given.add(current)
        return scan(case, total, probes, salt, check, rows)

    monkeypatch.setattr(claims, "_scan", spy)
    case = SpaceCase(corpus.label(0), corpus.pool, corpus.spaces[0],
                     exhaustive=True)
    for claim in CLAIMS:
        if claim.scope == "space":
            current = claim.ident
            evaluate_space_case(case, {claim.ident})
    assert given == ROW_CLAIMS


def test_rows_match_checks(corpus):
    failed = {}
    for group, cases in row_cases(corpus).items():
        for case in cases:
            n = case.pool.size
            assert isinstance(_scan_indices(case, n * n, PAIR_PROBES, 0),
                              range)
            rows = evaluate_space_case(case, ROW_CLAIMS)
            assert rows == by_checks(case, ROW_CLAIMS), (group, case.label)
            for ident, (_, _, fails) in rows.items():
                if fails:
                    failed.setdefault(group, set()).add(ident)
    # the failing rows are compared too: CL.12 and SUB.CLOSED-ABS fail on
    # real spaces, and the corrupt cases make every row claim fail
    assert {"CL.12", "SUB.CLOSED-ABS"} <= failed["enumerated"]
    assert failed["corrupt"] == ROW_CLAIMS


def test_pools_past_the_limit_build_no_lane_tables(shape_pool):
    # 729 sets: n**2 is past EXHAUSTIVE_LIMIT, so even an exhaustive case
    # probes its pairs and no row kernel asks for the byte rows
    pool = shape_pool(3, 2, 3)
    ids = (pool.null_id, pool.full_id)
    evaluate_space_case(SpaceCase("big", pool, ids, exhaustive=True),
                        ROW_CLAIMS)
    assert pool._lanes is None


# codes wider than one byte: 3 cells of 4 grades (9 bits) and 1 cell of
# 13 grades (12 bits), each read in two lanes.  On the one-cell chain a
# union is one of its sides and a meet of closed traces is a trace, so
# three row claims cannot fail there.
WIDE_CODE_SPECS = {
    "3x1x4": (CorpusSpec(Universe.of("x", "y", "z"), ParameterSet.of("e1"),
                         GradeLattice.close(["1/3"]), max_generators=2),
              ROW_CLAIMS),
    "1x1x13": (CorpusSpec(Universe.of("x"), ParameterSet.of("e1"),
                          GradeLattice.close([f"{k}/12" for k in range(13)])),
               ROW_CLAIMS - {"CL.12", "SUB.CLOSED", "CON.UNION-COMMON"}),
}


@pytest.mark.parametrize("shape", sorted(WIDE_CODE_SPECS))
def test_rows_match_checks_over_wide_codes(shape):
    spec, failing = WIDE_CODE_SPECS[shape]
    wide = SpaceCorpus(spec)
    assert len(wide.pool.lanes().code) == 2
    enumerated = [SpaceCase(wide.label(i), wide.pool, wide.spaces[i],
                            exhaustive=True)
                  for i in range(0, len(wide.spaces),
                                 max(1, len(wide.spaces) // 40))]
    corrupt = [corrupt_case(wide, seed) for seed in range(16)]
    failed = set()
    for case in enumerated + corrupt:
        rows = evaluate_space_case(case, ROW_CLAIMS)
        assert rows == by_checks(case, ROW_CLAIMS), case.label
        failed.update(ident for ident, r in rows.items() if r[2])
    assert failed == failing


# The NBD claims read per-point neighborhood bitmasks, and CON.SEPCHAR-rev
# builds its splittings from place values; these are the loops they replace.


def _scalar_nbd1(case):
    it = case.interior()
    pin = case.pool.pt_in_mask
    checked = hits = 0
    fails = []
    for p in case.pts:
        pm = pin[p]
        for nb in range(case.pool.size):
            checked += 1
            if not (pm >> it[nb]) & 1:
                continue
            hits += 1
            if not (pm >> nb) & 1 and len(fails) < _MAX_FAILS:
                fails.append(
                    f"{case.render_point(p)} has neighborhood "
                    f"{case.render_set(nb)} without belonging to it")
    return checked, hits, fails


def _scalar_nbd2(case):
    it = case.interior()
    meet = case.pool.meet
    pin = case.pool.pt_in_mask
    n = case.pool.size
    checked = hits = 0
    fails = []
    for t in _scan_indices(case, len(case.pts) * n * n, PAIR_PROBES, 21):
        pi, rest = divmod(t, n * n)
        nb, m = divmod(rest, n)
        checked += 1
        pm = pin[case.pts[pi]]
        if meet[nb][m] != nb or not (pm >> it[nb]) & 1:
            continue
        hits += 1
        if not (pm >> it[m]) & 1 and len(fails) < _MAX_FAILS:
            fails.append(
                f"{case.render_set(m)} extends a neighborhood of "
                f"{case.render_point(case.pts[pi])} but is no neighborhood "
                f"itself")
    return checked, hits, fails


def _scalar_nbd3(case):
    it = case.interior()
    meet = case.pool.meet
    pin = case.pool.pt_in_mask
    n = case.pool.size
    checked = hits = 0
    fails = []
    for t in _scan_indices(case, len(case.pts) * n * n, TRIPLE_PROBES, 22):
        pi, rest = divmod(t, n * n)
        n1, n2 = divmod(rest, n)
        checked += 1
        pm = pin[case.pts[pi]]
        if not ((pm >> it[n1]) & 1 and (pm >> it[n2]) & 1):
            continue
        hits += 1
        if not (pm >> it[meet[n1][n2]]) & 1 and len(fails) < _MAX_FAILS:
            fails.append(
                f"intersection of two neighborhoods of "
                f"{case.render_point(case.pts[pi])} is no neighborhood")
    return checked, hits, fails


def _scalar_nbd4(case):
    it = case.interior()
    pin = case.pool.pt_in_mask
    opens = set(case.opens)
    meet = case.pool.meet
    checked = hits = 0
    fails = []
    for p in case.pts:
        pm = pin[p]
        for nb in range(case.pool.size):
            checked += 1
            o = it[nb]
            if not (pm >> o) & 1:
                continue
            hits += 1
            ok = o in opens and meet[o][nb] == o and (pm >> o) & 1
            if not ok and len(fails) < _MAX_FAILS:
                fails.append(
                    f"no open set sits between {case.render_point(p)} and "
                    f"its neighborhood {case.render_set(nb)}")
    return checked, hits, fails


def _scalar_sepchar_rev(case):
    pool = case.pool
    meet = pool.meet
    cl = case.cl()
    checked = hits = 0
    fails = []
    for g in _scan_indices(case, pool.size, claims.SUBSET_PROBES, 56):
        if g == 0 or meet[g][case.carrier] != g:
            continue
        vec = pool._vectors[g]
        cells = [c for c, v in enumerate(vec) if v]
        if len(cells) < 2:
            continue
        trace_set = set(case.traces(g))
        for mask in range(1, (1 << len(cells)) - 1):
            a_vec = list(vec)
            for bit, c in enumerate(cells):
                if not (mask >> bit) & 1:
                    a_vec[c] = 0
            a = pool._encode(tuple(a_vec))
            b = pool._encode(tuple(v - av for v, av in zip(vec, a_vec)))
            checked += 1
            if meet[a][cl[b]] != 0 or meet[b][cl[a]] != 0:
                continue
            hits += 1
            if a in trace_set and b in trace_set:
                continue
            if len(fails) < _MAX_FAILS:
                fails.append(
                    f"{case.render_set(a)} / {case.render_set(b)} split "
                    f"{case.render_set(g)} with closure-disjoint sides, yet "
                    f"are not both relatively open")
    return checked, hits, fails


SCALAR_SPACE_SCANS = {
    "NBD.1": _scalar_nbd1,
    "NBD.2": _scalar_nbd2,
    "NBD.3": _scalar_nbd3,
    "NBD.4": _scalar_nbd4,
    "CON.SEPCHAR-rev": _scalar_sepchar_rev,
}


def test_space_claims_match_scalar_scans(corpus):
    pool = corpus.pool
    groups = row_cases(corpus)
    # probed cases too: CON.SEPCHAR-rev samples its carriers there
    groups["probed"] = [
        SpaceCase(corpus.label(i), pool, corpus.spaces[i], order=i)
        for i in range(0, len(corpus.spaces), 2999)]
    failed = {}
    for group, cases in groups.items():
        for case in cases:
            fast = evaluate_space_case(case, set(SCALAR_SPACE_SCANS))
            for ident, scan in SCALAR_SPACE_SCANS.items():
                assert fast[ident] == scan(case), (group, case.label, ident)
                if fast[ident][2]:
                    failed.setdefault(group, set()).add(ident)
    assert failed["corrupt"] == set(SCALAR_SPACE_SCANS)


# -- pool claims against their scalar scans --------------------------------
# The PT.5 and PT.6 evaluators flag points with whole-row bitmask operations
# and re-scan only those.  These are the plain scans they replace, kept as
# the reference: the full (checked, hits, fails) triples must agree, on
# clean tables and on tables with corrupt entries.


def _scalar_pt5_sound(pool):
    masks, join = pool.pt_in_mask, pool.join
    checked = 0
    fails = []
    for p in range(len(pool.points)):
        pm = masks[p]
        members = [g for g in range(pool.size) if (pm >> g) & 1]
        for g in members:
            jg = join[g]
            for h in range(pool.size):
                checked += 1
                if not (pm >> jg[h]) & 1 and len(fails) < _MAX_FAILS:
                    fails.append(
                        f"{pool.decode_point(p).render()} belongs to "
                        f"{pool.decode(g).render()} but not to a union "
                        f"extending it")
    return checked, checked, fails


def _scalar_pt5_converse(pool):
    masks, join = pool.pt_in_mask, pool.join
    checked = 0
    fails = []
    for p in range(len(pool.points)):
        pm = masks[p]
        outside = [g for g in range(pool.size) if not (pm >> g) & 1]
        for i, g in enumerate(outside):
            jg = join[g]
            for h in outside[i:]:
                checked += 1
                if (pm >> jg[h]) & 1 and len(fails) < _MAX_FAILS:
                    fails.append(
                        f"{pool.decode_point(p).render()} belongs to the "
                        f"union of {pool.decode(g).render()} and "
                        f"{pool.decode(h).render()} but to neither part")
    return checked, checked, fails


def _scalar_pt6(pool):
    masks, meet = pool.pt_in_mask, pool.meet
    checked = 0
    fails = []
    for p in range(len(pool.points)):
        pm = masks[p]
        members = [g for g in range(pool.size) if (pm >> g) & 1]
        outside = [g for g in range(pool.size) if not (pm >> g) & 1]
        for i, g in enumerate(members):
            mg = meet[g]
            for h in members[i:]:
                checked += 1
                if not (pm >> mg[h]) & 1 and len(fails) < _MAX_FAILS:
                    fails.append(
                        f"{pool.decode_point(p).render()} belongs to two "
                        f"sets but not to their intersection")
        for g in outside:
            mg = meet[g]
            for h in range(pool.size):
                checked += 1
                if (pm >> mg[h]) & 1 and len(fails) < _MAX_FAILS:
                    fails.append(
                        f"{pool.decode_point(p).render()} belongs to an "
                        f"intersection without belonging to "
                        f"{pool.decode(g).render()}")
    return checked, checked, fails


SCALAR_POOL_SCANS = {
    "PT.5-sound": _scalar_pt5_sound,
    "PT.5-converse": _scalar_pt5_converse,
    "PT.6": _scalar_pt6,
}


def pool_copy(pool):
    """A shallow copy of POOL whose meet, join, complement and point
    tables the caller may replace.  Nothing a pool builds on first use
    reads those tables, so the copy shares all of it but the memo of
    decoded sets."""
    bad = copy.copy(pool)
    bad._decoded = {}
    return bad


def corrupted(pool, seed, entries, extreme):
    """A copy of POOL with ENTRIES seeded meet and join entries rewritten.

    With EXTREME, join entries become the null set in rows of non-null
    sets and meet entries the full set in rows of non-full sets, which
    PT.5-sound and PT.6 must report; otherwise each entry takes another
    seeded id.
    """
    bad = pool_copy(pool)
    bad.meet = [row[:] for row in pool.meet]
    bad.join = [row[:] for row in pool.join]
    rng = random.Random(f"corrupt:{seed}")
    n = pool.size
    for _ in range(entries):
        h = rng.randrange(n)
        if extreme:
            bad.join[rng.randrange(1, n)][h] = pool.null_id
            bad.meet[rng.randrange(n - 1)][h] = pool.full_id
        else:
            for table in (bad.meet, bad.join):
                g = rng.randrange(n)
                table[g][h] = (table[g][h] + rng.randrange(1, n)) % n
    return bad


@pytest.mark.parametrize("shape", [
    (1, 1, 2), (1, 1, 3), (2, 1, 4), (2, 2, 2), (2, 2, 3), (3, 1, 3),
    (2, 2, 4),
], ids=lambda s: "x".join(map(str, s)))
def test_pool_claims_match_scalar_scans(shape_pool, shape):
    pool = shape_pool(*shape)
    runs = [("clean", pool)]
    for entries in (1, 3, 20):
        runs.append((f"random-{entries}",
                     corrupted(pool, f"{shape}-{entries}", entries, False)))
    runs.append(("extreme-3", corrupted(pool, shape, 3, True)))
    for label, subject in runs:
        fast = evaluate_pool_claims(subject, set(SCALAR_POOL_SCANS))
        for ident, scan in SCALAR_POOL_SCANS.items():
            assert fast[ident] == scan(subject), (label, ident)
        if label == "extreme-3":
            assert fast["PT.5-sound"][2] and fast["PT.6"][2], label



# -- pinned result triples -------------------------------------------------
# Every space and pool claim's (checked, hits, fails) triples, rendered
# witnesses included, on inputs that make the claims fail: the seeded
# corrupt cases, an id family that is no topology, and pools whose meet,
# join and complement tables carry seeded wrong entries.

# desk ids 36, 12, 4 and 28 put grade 1/2 on two neighbouring cells each;
# their pairwise unions and four of their meets lie outside the family
NON_TOPOLOGY = (0, 4, 12, 28, 36, 80)


def corrupted_comp(pool, seed, entries):
    """``corrupted`` with ENTRIES seeded complement entries rewritten too."""
    bad = corrupted(pool, seed, entries, False)
    bad.comp = pool.comp[:]
    rng = random.Random(f"corrupt-comp:{seed}")
    n = pool.size
    for _ in range(entries):
        g = rng.randrange(n)
        bad.comp[g] = (bad.comp[g] + rng.randrange(1, n)) % n
    return bad


def corrupted_points(pool, seed, entries):
    """A copy of POOL with ENTRIES seeded point memberships flipped at
    another point's form and ENTRIES point form ids rewritten: PT.4 must
    report both.  The transposed masks ``pt_set_mask`` follow the flips."""
    bad = pool_copy(pool)
    bad.pt_in_mask = pool.pt_in_mask[:]
    bad.pt_set_mask = pool.pt_set_mask[:]
    bad.pt_form_id = pool.pt_form_id[:]
    rng = random.Random(f"corrupt-points:{seed}")
    count, n = len(pool.points), pool.size
    for _ in range(entries):
        a, b = rng.randrange(count), rng.randrange(count)
        s = pool.pt_form_id[b]
        bad.pt_in_mask[a] ^= 1 << s
        bad.pt_set_mask[s] ^= 1 << a
        p = rng.randrange(count)
        bad.pt_form_id[p] = (bad.pt_form_id[p] + rng.randrange(1, n)) % n
    return bad


def corrupted_restrictions(pool, seed, entries):
    """A copy of POOL whose join table sends ENTRIES seeded sets' last
    join of single-parameter restrictions, in PT.3's order, to another
    id: PT.3 must report each such set."""
    bad = pool_copy(pool)
    bad.join = [row[:] for row in pool.join]
    rng = random.Random(f"corrupt-restrictions:{seed}")
    per, n = len(pool.universe), pool.size
    for g in rng.sample(range(1, n), entries):
        vec = pool._vectors[g]
        *head, last = [
            pool._encode(tuple(d if c // per == pi else 0
                               for c, d in enumerate(vec)))
            for pi in range(len(pool.parameters))]
        acc = 0
        for part in head:
            acc = pool.join[acc][part]
        bad.join[acc][last] = (g + rng.randrange(1, n)) % n
    return bad


def point_failure_pools(shape_pool):
    """Pools on which PT.3 and PT.4 fail past the cap."""
    pools = []
    for shape in [(2, 2, 3), (2, 1, 4), (3, 1, 3)]:
        pool = shape_pool(*shape)
        pools += [corrupted_points(pool, f"pin-{shape}", 5),
                  corrupted_restrictions(pool, f"pin-{shape}", 5)]
    return pools


def pinned_space_cases(corpus):
    cases = [corrupt_case(corpus, seed) for seed in range(16)]
    cases.append(SpaceCase("non-topology", corpus.pool, NON_TOPOLOGY,
                           exhaustive=True))
    return cases


def pinned_pools(shape_pool):
    pools = []
    for shape in [(2, 2, 3), (2, 1, 4), (3, 1, 3)]:
        pool = shape_pool(*shape)
        pools += [pool, corrupted(pool, f"pin-{shape}", 3, False),
                  corrupted(pool, f"pin-{shape}", 20, False),
                  corrupted_comp(pool, f"pin-{shape}", 6),
                  corrupted(pool, f"pin-{shape}", 3, True)]
    return pools


def test_claim_triples_are_pinned(corpus, shape_pool):
    space = [[case.label, evaluate_space_case(case)]
             for case in pinned_space_cases(corpus)]
    pool = [evaluate_pool_claims(p) for p in pinned_pools(shape_pool)]
    failing = {ident for _, results in space for ident, r in results.items()
               if r[2]}
    failing |= {ident for results in pool for ident, r in results.items()
                if r[2]}
    # the inputs sink the claims whose failure paths the pin guards
    assert {"TOP.AX3-union", "TOP.AX3-intersection", "ALG.INVOLUTION",
            "ALG.DEMORGAN-UNION", "ALG.DEMORGAN-INTERSECTION"} <= failing
    for part, digest in (("space", SPACE_TRIPLES_DIGEST),
                         ("pool", POOL_TRIPLES_DIGEST)):
        text = json.dumps(space if part == "space" else pool)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, part


def test_point_claim_triples_are_pinned(shape_pool):
    # no table corruption above reaches PT.3 or PT.4: PT.4 reads the point
    # masks and forms, PT.3 a few join entries of each set
    results = [evaluate_pool_claims(p)
               for p in point_failure_pools(shape_pool)]
    for ident, parity in (("PT.4", 0), ("PT.3", 1)):
        for r in results[parity::2]:
            assert len(r[ident][2]) == _MAX_FAILS, ident
    text = json.dumps(results)
    assert hashlib.sha256(text.encode()).hexdigest() == POINT_TRIPLES_DIGEST


POINT_TRIPLES_DIGEST = (
    "a8f5a35fbfb1f2c6aec2b645b49023f69b243b382ba2d486f67a518978d77c9a")
SPACE_TRIPLES_DIGEST = (
    "3fc7bdea1f1cefc5b0f6aa3b6b3d984524d4c9ab3d2c4e0c711d0fadb2fb6e30")
POOL_TRIPLES_DIGEST = (
    "8a2c02574366f77762ab6f32f209d93d55955514cc245be7030c2128104a54dd")

REGISTRY_DIGEST = (
    "26a4301fd74d3973af3b36d226258527f2100daf57449016023313c95aa9b017")
