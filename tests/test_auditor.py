import ast
import inspect
import json
import multiprocessing

import pytest

from fstopo import auditor
from fstopo.algebra import GradeLattice, Universe
from fstopo.auditor import (
    STATUS_BUDGET,
    STATUS_COUNTEREXAMPLE,
    STATUS_PROVED,
    _Tally,
    audit_space,
    claim_status,
    run_audit,
    search_counterexample,
)
from fstopo.claims import (
    CLAIM_INDEX,
    CLAIMS,
    SpaceCase,
    evaluate_space_case,
)
from fstopo.corpus import (
    CorpusSpec,
    SpaceCorpus,
    named_spaces,
    random_space_ids,
)
from fstopo.softsets import ParameterSet


def small_audit(**kwargs):
    kwargs.setdefault("budget", 30)
    kwargs.setdefault("random_count", 10)
    return run_audit(**kwargs)


class TestStatuses:
    def test_failures_win(self):
        claim = CLAIM_INDEX["CL.1"]
        assert claim_status(claim, 3, truncated=False) == STATUS_COUNTEREXAMPLE

    def test_complete_untruncated_proves(self):
        claim = CLAIM_INDEX["CL.1"]
        assert claim_status(claim, 0, truncated=False) == STATUS_PROVED
        assert claim_status(claim, 0, truncated=True) == STATUS_BUDGET

    def test_incomplete_claims_never_prove(self):
        probed = [c for c in CLAIMS if c.scope == "space" and not c.complete]
        assert probed
        assert claim_status(probed[0], 0, truncated=False) == STATUS_BUDGET

    def test_pool_scope_ignores_space_truncation(self):
        claim = CLAIM_INDEX["PT.6"]
        assert claim_status(claim, 0, truncated=True) == STATUS_PROVED


def tally_fields(t):
    return tuple(getattr(t, name) for name in _Tally.__slots__)


class TestTallyMerge:
    def test_merge_is_chunking_independent(self):
        results = [
            (1, "case-a", (5, 5, ["w2", "w1"])),
            (2, "case-b", (3, 1, ["w3"])),
            (3, "case-c", (2, 2, [])),
            (4, "case-d", (1, 0, ["w0"])),
        ]
        whole = _Tally()
        for order, label, res in results:
            whole.add(order, label, res)

        left, right = _Tally(), _Tally()
        for order, label, res in results[:1]:
            left.add(order, label, res)
        for order, label, res in results[1:]:
            right.add(order, label, res)
        merged = _Tally()
        merged.merge(left)
        merged.merge(right)

        assert tally_fields(merged) == tally_fields(whole)

    def test_witness_cap_keeps_least_three(self):
        t = _Tally()
        for order in range(9, 0, -1):
            t.add(order, f"case-{order}", (1, 0, [f"w{order}"]))
        assert [w[0] for w in t.witnesses] == [1, 2, 3]


class TestRunAudit:
    def test_payload_is_deterministic(self):
        a = small_audit().to_payload()
        b = small_audit().to_payload()
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_workers_do_not_change_the_payload(self):
        assert small_audit().to_payload() == small_audit(workers=2).to_payload()

    def test_workers_agree_past_the_exhaustive_head(self, monkeypatch):
        # the schedule scans its head whole, then probes every enumerated
        # case but each stride case; 600 cases reach both
        assert auditor.EXHAUSTIVE_HEAD < auditor.EXHAUSTIVE_STRIDE < 600
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1},
                            raising=False)

        def payload(workers):
            return json.dumps(run_audit(budget=600, random_count=5,
                                        workers=workers).to_payload()).encode()

        serial, default = payload(1), payload(2)
        # workers that inherit nothing: each is handed its rows by pickle
        spawn = multiprocessing.get_context("spawn")
        started = []

        def spawn_pool(n):
            started.append(n)
            return spawn.Pool(n)

        monkeypatch.setattr("multiprocessing.Pool", spawn_pool)
        spawned = payload(2)
        assert started == [2]
        assert serial == default == spawned

    def test_workers_are_capped_at_the_usable_cpus(self, monkeypatch):
        serial = run_audit(budget=40, random_count=5).to_payload()
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        started = []

        class InProcessPool:
            # records the worker count and maps in this process
            def __init__(self, n):
                started.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, items):
                return [fn(*args) for args in items]

        monkeypatch.setattr("multiprocessing.Pool", InProcessPool)
        capped = run_audit(budget=40, workers=64, random_count=5)
        assert started == [2]
        assert capped.to_payload() == serial

    def test_schedule_rows(self, monkeypatch):
        # the named cases, then the enumerated prefix in index order, then
        # the draws seeded from base_seed + 1; whole scans for every named
        # case, the head of 96, each 503rd enumerated case and each 47th
        # draw
        handed = []

        def record(rows, idents):
            handed.extend(rows)
            return {}

        monkeypatch.setattr(auditor, "_eval_enum_chunk", record)
        run_audit(claim_filter="CL.1", budget=600, random_count=48,
                  base_seed=7)
        named = named_spaces()
        corpus = SpaceCorpus(CorpusSpec.desk())
        total, drawn = len(corpus.spaces), 9 + 600
        assert len(named) == 9
        assert [r[0] for r in handed] == (
            [ns.label for ns in named]
            + [corpus.label(i) for i in range(600)]
            + [f"random-{seed:03d}" for seed in range(8, 56)])
        assert [r[3] for r in handed] == (
            list(range(9)) + list(range(16, 616))
            + list(range(16 + total, 16 + total + 48)))
        assert [k for k, r in enumerate(handed) if r[4]] == (
            list(range(9 + 96)) + [9 + 503, drawn, drawn + 47])
        assert handed[9 + 503][2] == corpus.spaces[503]
        assert handed[drawn + 47][2] == random_space_ids(
            55, corpus.spec, corpus.pool)

    def test_scanning_every_space_is_not_truncated(self):
        spec = CorpusSpec(Universe.of("x"), ParameterSet.of("e1"),
                          GradeLattice.close([]))
        total = len(SpaceCorpus(spec).spaces)
        for budget, truncated in ((None, False), (total, False),
                                  (total - 1, True)):
            cases = run_audit(spec, claim_filter="CL.1", budget=budget,
                              random_count=0).to_payload()["cases"]
            assert cases["truncated"] is truncated, budget

    def test_no_floats_anywhere(self):
        def walk(node):
            assert not isinstance(node, float), node
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(k)
                    walk(v)
            elif isinstance(node, (list, tuple)):
                for v in node:
                    walk(v)

        walk(small_audit().to_payload())

    def test_alarms_only_from_asserted_claims(self):
        report = small_audit()
        payload = report.to_payload()
        assert report.alarms == []
        counterexampled = [
            ident
            for ident, entry in payload["claims"].items()
            if entry["status"] == STATUS_COUNTEREXAMPLE
        ]
        # audited and reproduced claims do fail on this corpus, by design
        assert counterexampled
        for ident in counterexampled:
            assert CLAIM_INDEX[ident].classification != "asserted-invariant"

    def test_claim_filter(self):
        payload = small_audit(claim_filter="NBD").to_payload()
        assert set(payload["claims"]) == {
            "NBD.1", "NBD.2", "NBD.3", "NBD.4", "NBD.OPEN-IFF"}
        assert payload["filter"] == "NBD"

    def test_unknown_filter_raises(self):
        with pytest.raises(ValueError):
            run_audit(claim_filter="NOPE")

    def test_budget_echo_and_truncation(self):
        payload = small_audit().to_payload()
        assert payload["cases"]["truncated"] is True
        assert payload["cases"]["enumerated_scanned"] == 30
        assert payload["budget"] == 30

    def test_seed_changes_random_cases_only(self):
        a = small_audit(base_seed=0).to_payload()
        b = small_audit(base_seed=9).to_payload()
        assert a["cases"]["random"] == b["cases"]["random"]
        assert a != b

    def test_single_case_schedule(self, desk_pool):
        ids = (desk_pool.null_id, desk_pool.full_id)
        report = audit_space("the-space", desk_pool, ids, claim_filter="CL")
        payload = report.to_payload()
        assert payload["cases"]["named"] == 1
        assert payload["cases"]["enumerated_total"] == 0
        # one exhaustive case, so every complete claim resolves
        entry = payload["claims"]["CL.1"]
        assert entry["status"] == STATUS_PROVED
        assert entry["cases"] == 1
        # and every probed claim scans the case whole
        case = SpaceCase("the-space", desk_pool, ids, exhaustive=True)
        for ident, (checked, hits, fails) in evaluate_space_case(
                case, set(payload["claims"])).items():
            got = payload["claims"][ident]
            assert (got["instances"], got["hypothesis_hits"],
                    got["failures"]) == (checked, hits, len(fails)), ident

    def test_every_scheduled_case_is_evaluated(self):
        # CL.1 checks every case, so its case count is the schedule's
        payload = run_audit(claim_filter="CL.1", budget=5, random_count=3,
                            workers=2).to_payload()
        cases = payload["cases"]
        assert (cases["named"], cases["enumerated_scanned"],
                cases["random"]) == (9, 5, 3)
        assert payload["claims"]["CL.1"]["cases"] == 9 + 5 + 3

    def test_render_text_shape(self):
        text = small_audit().render_text()
        assert "claim audit:" in text
        assert "alarms: none" in text
        assert "summary:" in text

    def test_render_text_aligns_the_columns(self):
        report = small_audit()
        lines = report.render_text().splitlines()
        width = max(map(len, report.claims)) + 2
        for ident, entry in report.claims.items():
            line, = [x for x in lines if x.split(" ", 1)[0] == ident]
            assert line[:width] == ident.ljust(width), ident
            assert line[width:].startswith(entry["classification"]), ident


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    assert auditor._usable_cpus() == 3
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert auditor._usable_cpus() == 1


def test_one_site_builds_the_space_cases():
    # every space case of both entry points is a schedule row that the one
    # chunk function turns into a SpaceCase
    sites = [fn.name for fn in ast.walk(ast.parse(inspect.getsource(auditor)))
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "SpaceCase"]
    assert sites == ["_eval_enum_chunk"]


def test_no_module_level_dict_or_list():
    # a worker is handed everything it reads, so no module global holds
    # rows, tallies or any other state a worker could depend on
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                  ast.SetComp)
    bound = []
    for node in ast.parse(inspect.getsource(auditor)).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            value = node.value
            if isinstance(value, containers) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in ("dict", "list", "set")):
                bound.append(ast.unparse(node))
    assert bound == []


class TestSearch:
    def test_finds_pool_witnesses(self):
        status, witnesses = search_counterexample("PT.1", budget=20)
        assert status == STATUS_COUNTEREXAMPLE
        assert witnesses

    def test_family_search_reports_worst(self):
        status, _ = search_counterexample("CON.CLOPEN", budget=20)
        assert status == STATUS_COUNTEREXAMPLE


def test_default_spec_matches_desk():
    payload = small_audit().to_payload()
    spec = CorpusSpec.desk()
    assert payload["corpus"]["lattice"] == [str(g) for g in spec.lattice]
    assert payload["corpus"]["universe"] == list(spec.universe)
