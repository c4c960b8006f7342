import ast
import inspect
import json

import pytest

from fstopo import auditor
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
from fstopo.corpus import CorpusSpec


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
        merged.merge(left.pack())
        merged.merge(right.pack())

        assert merged.pack() == whole.pack()

    def test_witness_cap_keeps_least_three(self):
        t = _Tally()
        for order in range(9, 0, -1):
            t.add(order, f"case-{order}", (1, 0, [f"w{order}"]))
        packed = t.pack()
        assert [w[0] for w in packed[-1]] == [1, 2, 3]


class TestRunAudit:
    def test_payload_is_deterministic(self):
        a = small_audit().to_payload()
        b = small_audit().to_payload()
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_workers_do_not_change_the_payload(self):
        assert small_audit().to_payload() == small_audit(workers=2).to_payload()

    def test_workers_fall_back_without_fork(self, monkeypatch, capsys):
        # one space claim keeps the case schedule, which workers split
        serial = small_audit(claim_filter="CL.1").to_payload()
        monkeypatch.setattr("multiprocessing.get_all_start_methods",
                            lambda: ["spawn"])
        # the parallel path would fail on calling this
        monkeypatch.setattr("multiprocessing.get_context", None)
        assert small_audit(claim_filter="CL.1",
                           workers=2).to_payload() == serial
        assert capsys.readouterr().err.count("fork") == 1

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

            def map(self, fn, items):
                return list(map(fn, items))

        class Context:
            Pool = InProcessPool

        monkeypatch.setattr("multiprocessing.get_context",
                            lambda method: Context)
        capped = run_audit(budget=40, workers=64, random_count=5)
        assert started == [2]
        assert capped.to_payload() == serial

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


def test_one_site_builds_the_space_cases():
    # every space case of both entry points is a schedule row that the one
    # chunk function turns into a SpaceCase
    sites = [fn.name for fn in ast.walk(ast.parse(inspect.getsource(auditor)))
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "SpaceCase"]
    assert sites == ["_eval_enum_chunk"]


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
