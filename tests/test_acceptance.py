"""Acceptance gate: seven scripted criteria, one reported line each.

Criteria 3, 4 and 5 read the shared session audit (the full enumerated
corpus plus random and named cases) instead of re-running it per test.
"""

import hashlib
import json
import time

from fstopo import cli
from fstopo.auditor import (
    STATUS_BUDGET,
    run_audit,
    search_counterexample,
)
from fstopo.claims import SpaceCase, evaluate_fixed_claims, evaluate_pool_claims


def _report(line: str) -> None:
    print(line)


# -- 1: recorded-data golden replays ---------------------------------------


def test_criterion_1_recorded_examples():
    t0 = time.perf_counter()
    results = evaluate_fixed_claims()
    elapsed = time.perf_counter() - t0
    assert set(results) == {
        "EX.POINT-COMPLEMENT",
        "EX.COMPLEMENT-NONMEMBER",
        "EX.POINT-MEMBERSHIP",
    }
    for ident, (checked, hits, fails) in results.items():
        assert checked == 1 and hits == 1 and fails == [], ident
    assert elapsed < 1.0
    _report(f"CRITERION 1 PASS: 3 recorded examples replay exactly "
            f"in {elapsed:.3f}s")


# -- 2: lattice laws, exhaustive over the 81-set pool ----------------------


def test_criterion_2_lattice_laws(desk_pool):
    t0 = time.perf_counter()
    pool = desk_pool
    n = pool.size
    assert n == 81
    meet, join, comp = pool.meet, pool.join, pool.comp
    null, full = pool.null_id, pool.full_id

    for i in range(n):
        assert meet[i][i] == i and join[i][i] == i
        assert meet[i][null] == null and join[i][null] == i
        assert meet[i][full] == i and join[i][full] == full
        assert comp[comp[i]] == i
        for j in range(n):
            assert meet[i][j] == meet[j][i]
            assert join[i][j] == join[j][i]
            assert meet[i][join[i][j]] == i  # absorption
            assert join[i][meet[i][j]] == i
            assert comp[meet[i][j]] == join[comp[i]][comp[j]]  # De Morgan
            assert comp[join[i][j]] == meet[comp[i]][comp[j]]
            for k in range(n):
                assert meet[meet[i][j]][k] == meet[i][meet[j][k]]
                assert join[join[i][j]][k] == join[i][join[j][k]]
                assert meet[i][join[j][k]] == join[meet[i][j]][meet[i][k]]
                assert join[i][meet[j][k]] == meet[join[i][j]][join[i][k]]

    alg = evaluate_pool_claims(pool, idents=[
        "ALG.INVOLUTION", "ALG.DEMORGAN-UNION", "ALG.DEMORGAN-INTERSECTION"])
    for ident, (checked, hits, fails) in alg.items():
        assert checked > 0 and fails == [], ident
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(f"CRITERION 2 PASS: bounded-distributive-lattice laws, "
            f"De Morgan and involution exhaustive on 81 sets "
            f"in {elapsed:.1f}s")


# -- 3: closure and interior structure over the corpus ---------------------

CLOSURE_SUITE = (
    "TOP.AX3-union", "TOP.AX3-intersection",
    "CL.1", "CL.2", "CL.3", "CL.4", "CL.5", "CL.6", "CL.7-COND",
    "CL.8", "CL.9", "CL.10", "CL.11", "CL.12-rev", "CL.FIXED",
    "NBD.1", "NBD.2", "NBD.3", "NBD.4", "NBD.OPEN-IFF",
    "SUB.CLOSED", "SUB.CLOSURE",
)


def test_criterion_3_closure_suite(full_audit, full_audit_seconds):
    claims = full_audit.claims
    cases = full_audit.payload["cases"]
    assert cases["enumerated_scanned"] == cases["enumerated_total"]
    assert cases["random"] == 200
    for ident in CLOSURE_SUITE:
        entry = claims[ident]
        assert entry["failures"] == 0, ident
        assert entry["instances"] > 0, ident
    assert full_audit_seconds < 300.0
    _report(f"CRITERION 3 PASS: {len(CLOSURE_SUITE)} closure/interior/"
            f"neighborhood/subspace claims, zero failures over "
            f"{cases['enumerated_total']} enumerated + 200 random spaces "
            f"in {full_audit_seconds:.0f}s")


# -- 4: provable implications over the same corpus -------------------------

IMPLICATION_SUITE = (
    "SEP.CHAIN-T2T1", "SEP.CHAIN-T1T0",
    "SEP.SUB-T0", "SEP.SUB-T1", "SEP.SUB-T2",
    "CON.COARSER", "CON.SUBSPACE-SIDE",
    "CON.UNION-COMMON", "CON.UNION-HUB",
)


def test_criterion_4_implications(full_audit):
    for ident in IMPLICATION_SUITE:
        entry = full_audit.claims[ident]
        assert entry["failures"] == 0, ident
        assert entry["instances"] > 0, ident
    _report(f"CRITERION 4 PASS: {len(IMPLICATION_SUITE)} implication and "
            f"heredity claims, zero failures on the same corpus")


# -- 5: counterexample obligations and definitive statuses -----------------

DEFINITIVE = (
    "CL.12",
    "CON.CLOPEN-fwd", "CON.CLOPEN-rev",
    "SEP.T2CHAR-fwd", "SEP.T2CHAR-rev",
    "SEP.CHAIN-T3T2", "SEP.CHAIN-T4T3",
)


def test_criterion_5_counterexamples(full_audit, full_audit_seconds):
    status, witnesses = search_counterexample("PT.1", budget=50)
    assert status == "counterexample-found" and witnesses
    status, witnesses = search_counterexample("PT.5-converse", budget=50)
    assert status == "counterexample-found" and witnesses
    for ident in DEFINITIVE:
        entry = full_audit.claims[ident]
        assert entry["status"] != STATUS_BUDGET, (ident, entry["status"])
    for ident in ("SEP.CHAIN-T3T2", "SEP.CHAIN-T4T3"):
        assert full_audit.claims[ident]["hypothesis_hits"] > 0, ident
    assert full_audit_seconds < 600.0
    _report(f"CRITERION 5 PASS: witnesses for PT.1 and PT.5-converse; "
            f"definitive statuses for {len(DEFINITIVE)} audited claims "
            f"in {full_audit_seconds:.0f}s")


# -- 6: soundness alarm on a mutated closure -------------------------------


def test_criterion_6_mutation_alarm(monkeypatch, capsys):
    def broken_cl(self):
        # min/max swap: fold join over the closed supersets
        if self._cl is None:
            pool = self.pool
            meet, join = pool.meet, pool.join
            row = []
            for g in range(pool.size):
                acc = 0
                mg = meet[g]
                for k in self.closeds:
                    if mg[k] == g:
                        acc = join[acc][k]
                row.append(acc)
            self._cl = row
        return self._cl

    monkeypatch.setattr(SpaceCase, "cl", broken_cl)
    code = cli.main(["audit", "--budget", "8", "--claim", "CL.1"])
    capsys.readouterr()
    assert code == 4
    _report("CRITERION 6 PASS: swapped min/max in closure, audit exits 4")


def test_criterion_6_control_no_alarm():
    report = run_audit(claim_filter="CL.1", budget=8, random_count=5)
    assert report.alarms == []
    _report("CRITERION 6 PASS (control): unmutated audit raises no alarm")


# -- 7: byte-identical structured reports ----------------------------------


def _capture(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    json.loads(out)  # must be one valid document
    return out


def test_criterion_7_determinism(tmp_path, capsys):
    doc = tmp_path / "space.fst"
    doc.write_text(
        "universe: x y\n"
        "parameters: e1 e2\n"
        "lattice: 0 1/2 1\n"
        "carrier:\n"
        "  e1: x=1/2 y=1\n"
        "  e2: x=1 y=1\n"
        "open none:\n"
        "open a:\n"
        "  e1: x=1/2\n"
        "open all:\n"
        "  e1: x=1/2 y=1\n"
        "  e2: x=1 y=1\n"
    )
    ax1 = _capture(capsys, ["axioms", str(doc), "--format", "structured"])
    ax2 = _capture(capsys, ["axioms", str(doc), "--format", "structured"])
    assert ax1 == ax2

    base = ["audit", "--budget", "40", "--format", "structured"]
    a1 = _capture(capsys, base)
    a2 = _capture(capsys, base)
    a3 = _capture(capsys, base + ["--workers", "2"])
    assert a1 == a2 == a3
    _report("CRITERION 7 PASS: structured axioms and audit reports "
            "byte-identical across runs and worker counts")


def test_criterion_7_full_audit_is_pinned(full_audit):
    # the shared unbudgeted audit: every count, status and witness of all
    # 67 claims over every case, and the text report made from them
    payload = json.dumps(full_audit.payload, sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == FULL_PAYLOAD_DIGEST
    text = full_audit.render_text()
    assert hashlib.sha256(text.encode()).hexdigest() == FULL_TEXT_DIGEST
    _report("CRITERION 7 PASS: the full audit payload and text report "
            "match their recorded digests")


FULL_PAYLOAD_DIGEST = (
    "f661816c0ccf27090f6df54c4058aaa12441739622b6335b6c1708fbfb86a43d")
FULL_TEXT_DIGEST = (
    "ed40bddad738790a1ba7fbed11f5da5d6f23aa7d0729fbcf2c1e1701f88fb5c8")
