"""Command behavior: exit codes, report shapes, self-round-trips."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fstopo import cli
from fstopo.algebra import GradeLattice, Universe
from fstopo.corpus import SetPool, close_family
from fstopo.deciders import DeciderConfig, is_regular, is_t3
from fstopo.document import (
    SpaceDocument,
    document_from_topology,
    parse_document,
)
from fstopo.softsets import ParameterSet
from fstopo.topology import validate_topology

VALID = """\
universe: x y
parameters: e1 e2
lattice: 0 1/2 1

carrier:
  e1: x=1/2 y=1/2

open none:

open a:
  e1: x=1/2

open all:
  e1: x=1/2 y=1/2

set probe:
  e1: y=1/2
"""

INVALID = """\
universe: x y
parameters: e1
open a:
  e1: x=1/2
open b:
  e1: y=1/2
"""

MALFORMED = "universe: x\nparameters: e1\nopen o:\n  e1: x=9/5\n"


@pytest.fixture
def valid_doc(tmp_path):
    p = tmp_path / "valid.fst"
    p.write_text(VALID)
    return str(p)


@pytest.fixture
def invalid_doc(tmp_path):
    p = tmp_path / "invalid.fst"
    p.write_text(INVALID)
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out)


class TestExitCodes:
    def test_valid_document(self, capsys, valid_doc):
        code, out, _ = run(capsys, "validate", valid_doc)
        assert code == 0 and "valid" in out

    def test_axiom_violations_exit_1(self, capsys, invalid_doc):
        code, out, _ = run(capsys, "validate", invalid_doc)
        assert code == 1 and "INVALID" in out

    def test_malformed_document_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.fst"
        p.write_text(MALFORMED)
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2 and "line 4" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.fst"))
        assert code == 2

    def test_unknown_set_exits_2(self, capsys, valid_doc):
        code, _, err = run(capsys, "closure", valid_doc, "ghost")
        assert code == 2 and "ghost" in err

    def test_invalid_space_blocks_queries(self, capsys, invalid_doc):
        code, _, _ = run(capsys, "closure", invalid_doc, "a")
        assert code == 1

    def test_lattice_not_covering_exits_2(self, capsys, valid_doc, tmp_path):
        code, _, err = run(capsys, "validate", valid_doc, "--lattice", "0,1")
        assert code == 2 and "1/2" in err
        # of several grades outside the lattice, the least is named
        p = tmp_path / "thirds.fst"
        p.write_text("universe: x y\nparameters: e1\nopen o:\n"
                     "  e1: x=2/3 y=1/3\n")
        code, _, err = run(capsys, "validate", str(p), "--lattice", "4")
        assert code == 2 and "grade 1/3 from" in err and "2/3" not in err

    def test_bad_lattice_spec_exits_2(self, capsys, valid_doc):
        code, _, _ = run(capsys, "validate", valid_doc, "--lattice", "zigzag")
        assert code == 2

    def test_lattice_list_pads_with_ascii_spaces_only(self, capsys,
                                                      valid_doc):
        code, _, _ = run(capsys, "validate", valid_doc, "--lattice",
                         " 0,\t1/2 , 1")
        assert code == 0
        code, _, err = run(capsys, "validate", valid_doc, "--lattice",
                           "0,1/2\u3000,1")
        assert code == 2 and "bad lattice" in err

    def test_unknown_claim_exits_2(self, capsys):
        code, _, err = run(capsys, "audit", "--claim", "XX.1")
        assert code == 2 and "XX.1" in err

    def test_pool_cap_exits_3(self, capsys, valid_doc):
        code, _, err = run(capsys, "audit", valid_doc, "--cap", "10")
        assert code == 3 and "cap" in err

    def test_lattice_denominator_above_the_cap_exits_3(
            self, capsys, valid_doc, monkeypatch):
        code, out, err = run(capsys, "validate", valid_doc,
                             "--cap", "10", "--lattice", "11")
        assert (code, out) == (3, "") and "lattice denominator: 11 " in err
        code, _, _ = run(capsys, "validate", valid_doc,
                         "--cap", "10", "--lattice", "10")
        assert code == 0
        # without --cap, the point cap is the one in force
        monkeypatch.setattr(cli, "DEFAULT_POINT_CAP", 10)
        code, _, err = run(capsys, "validate", valid_doc, "--lattice", "11")
        assert code == 3 and "cap 10" in err
        # a denominator too long for int() is a bad lattice, not a crash
        code, _, err = run(capsys, "validate", valid_doc,
                           "--lattice", "1" * 5000)
        assert code == 2 and "bad lattice" in err

    def test_negative_cap_exits_2(self, capsys, valid_doc, tmp_path):
        out_path = tmp_path / "sub.fst"
        for argv in (("validate", valid_doc), ("closure", valid_doc, "a"),
                     ("interior", valid_doc, "a"), ("axioms", valid_doc),
                     ("connected", valid_doc),
                     ("subspace", valid_doc, "a", str(out_path)),
                     ("audit", valid_doc), ("audit",)):
            for cap in ("-1", "-3"):
                code, out, err = run(capsys, *argv, "--cap", cap)
                assert (code, out) == (2, ""), (argv, cap)
                assert "--cap" in err, (argv, cap)
        assert not out_path.exists()

    def test_usage_error_exits_2(self, capsys):
        assert cli.main(["closure"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()


class TestLoad:
    @pytest.mark.parametrize("lattice", ["auto", "4"])
    def test_occurring_grades_are_built_once_per_command(
            self, capsys, valid_doc, monkeypatch, lattice):
        calls = []
        real = SpaceDocument.occurring_grades
        monkeypatch.setattr(SpaceDocument, "occurring_grades",
                            lambda doc: calls.append(doc) or real(doc))
        for query in (["validate"], ["axioms"], ["connected"],
                      ["closure", "probe"], ["interior", "probe"]):
            calls.clear()
            code, _, _ = run(capsys, query[0], valid_doc, *query[1:],
                             "--lattice", lattice)
            assert code == 0 and len(calls) == 1, query


class TestRepeatedCalls:
    """``main`` builds its parser once per process, so a call must not
    see what an earlier call in the same process did."""

    def test_calls_after_other_calls_print_what_a_fresh_call_prints(
            self, capsys, tmp_path, monkeypatch):
        # the file name is echoed and help wraps to COLUMNS: fix both
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        (tmp_path / "doc.fst").write_text(VALID)
        structured = ("axioms", "doc.fst", "--format", "structured")
        calls = [("closure",), ("--help",), structured, structured,
                 ("axioms", "doc.fst")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parent.parent / "src"),
            env.get("PYTHONPATH")]))
        codes = []
        for argv in calls:
            code, out, _ = run(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "fstopo.cli", *argv], cwd=tmp_path,
                env=env, capture_output=True, text=True, timeout=120)
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
            codes.append(code)
        assert codes == [2, 0, 0, 0, 0]


class TestReports:
    def test_structured_reports_share_the_envelope(self, capsys, valid_doc):
        for argv in (
            ["validate", valid_doc],
            ["closure", valid_doc, "probe"],
            ["interior", valid_doc, "probe"],
            ["axioms", valid_doc],
            ["connected", valid_doc],
        ):
            code, payload = run_json(capsys, *argv)
            assert code == 0
            assert set(payload) == {"command", "config", "results", "exit"}
            assert payload["command"] == argv[0]
            assert payload["exit"] == 0
            assert payload["config"]["lattice"] == ["0", "1/2", "1"]

    def test_no_floats_in_structured_output(self, capsys, valid_doc):
        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        _, payload = run_json(capsys, "axioms", valid_doc)
        walk(payload)

    def test_closure_names_supersets(self, capsys, valid_doc):
        code, payload = run_json(capsys, "closure", valid_doc, "probe")
        results = payload["results"]
        assert results["set"] == "probe"
        assert results["result"] == "{e1: {x: 1/2, y: 1/2}, e2: {x: 1, y: 1}}"
        assert len(results["closed_supersets"]) == 3

    def test_interior_of_probe_is_null(self, capsys, valid_doc):
        _, payload = run_json(capsys, "interior", valid_doc, "probe")
        assert payload["results"]["result"] == "{e1: {x: 0, y: 0}, e2: {x: 0, y: 0}}"

    def test_axioms_lists_eight_verdicts(self, capsys, valid_doc):
        _, payload = run_json(capsys, "axioms", valid_doc)
        verdicts = payload["results"]["verdicts"]
        assert [v["axiom"] for v in verdicts] == [
            "T0", "T1", "T2", "regular", "T3", "normal", "T4",
            "points-closed"]
        for v in verdicts:
            assert v["config"]["lattice"] == ["0", "1/2", "1"]

    def test_connected_reports_agreement(self, capsys, valid_doc):
        _, payload = run_json(capsys, "connected", valid_doc)
        results = payload["results"]
        assert results["connected"] is True
        assert results["clopen"] is None
        assert results["note"].startswith("agreement")

    def test_validate_reports_violations(self, capsys, invalid_doc):
        code, out, _ = run(capsys, "validate", invalid_doc, "--format",
                           "structured")
        payload = json.loads(out)
        assert code == 1 and payload["exit"] == 1
        axioms = {v["axiom"] for v in payload["results"]["violations"]}
        assert "contains-null" in axioms

    def test_validate_reports_both_closure_violations(self, capsys,
                                                     tmp_path):
        # crisp sets over w x y z: 0010 | 1001 is the first missing union,
        # and the first missing intersection, 0110 & 1100, shows up only
        # in a later row of the pair scan
        rows = ["", "y=1", "x=1 y=1", "w=1 z=1", "w=1 x=1", "w=1 x=1 z=1",
                "w=1 x=1 y=1", "w=1 x=1 y=1 z=1"]
        p = tmp_path / "crisp.fst"
        p.write_text("universe: w x y z\nparameters: e1\n" + "".join(
            f"open o{i}:\n" + (f"  e1: {row}\n" if row else "")
            for i, row in enumerate(rows)))
        code, out, _ = run(capsys, "validate", str(p), "--format",
                           "structured")
        axioms = [v["axiom"] for v in json.loads(out)["results"]["violations"]]
        assert code == 1
        assert axioms == ["intersection-closed", "union-closed"]


class TestSubspace:
    def test_emitted_document_revalidates(self, capsys, valid_doc, tmp_path):
        out_path = str(tmp_path / "sub.fst")
        code, _, _ = run(capsys, "subspace", valid_doc, "a", out_path)
        assert code == 0
        code, out, _ = run(capsys, "validate", out_path)
        assert code == 0 and "valid" in out

    def test_carrier_itself_round_trips(self, capsys, valid_doc, tmp_path):
        out_path = str(tmp_path / "whole.fst")
        code, payload = run_json(capsys, "subspace", valid_doc, "carrier",
                                 out_path)
        assert code == 0
        assert len(payload["results"]["opens"]) == 3

    def test_set_above_carrier_exits_1(self, capsys, tmp_path):
        text = VALID + "\nset wide:\n  e2: x=1\n"
        p = tmp_path / "wide.fst"
        p.write_text(text)
        code, _, err = run(capsys, "subspace", str(p), "wide",
                           str(tmp_path / "out.fst"))
        assert code == 1


class TestAudit:
    def test_document_audit_runs_clean(self, capsys, valid_doc):
        code, payload = run_json(capsys, "audit", valid_doc, "--claim", "CL")
        assert code == 0
        assert payload["results"]["corpus"]["source"] == "document"
        assert payload["results"]["cases"]["named"] == 1
        claims = payload["results"]["claims"]
        # full-scan claims resolve on a single exhaustive case; probe-based
        # ones stay conservatively within-budget
        assert claims["CL.1"]["status"] == "proved-by-exhaustion-at-spec-sizes"
        for entry in claims.values():
            if entry["classification"] == "asserted-invariant":
                assert entry["failures"] == 0

    def test_corpus_audit_with_budget(self, capsys):
        code, payload = run_json(capsys, "audit", "--budget", "20",
                                 "--claim", "TOP.AX3-union")
        assert code == 0
        results = payload["results"]
        assert results["corpus"]["source"] == "enumeration"
        assert results["cases"]["enumerated_scanned"] == 20
        assert results["cases"]["truncated"] is True

    def test_text_report_prints_summary(self, capsys):
        code, out, _ = run(capsys, "audit", "--budget", "10",
                           "--claim", "CL.1")
        assert code == 0
        assert "summary:" in out and "alarms: none" in out

    def test_audit_refuses_readings_it_ignores(self, capsys, valid_doc):
        for flags in (("--disjointness", "cross-parameter"),
                      ("--pair-relation", "disjoint"),
                      ("--pair-relation", "distinct")):
            for target in ((valid_doc,), ("--budget", "1")):
                code, out, err = run(capsys, "audit", *target, *flags)
                assert code == 2 and out == ""
                assert "neither --disjointness nor --pair-relation" in err
        code, _, _ = run(capsys, "audit", valid_doc, "--claim", "CL.1",
                         "--disjointness", "pointwise")
        assert code == 0

    def test_audit_refuses_options_it_would_ignore(self, capsys, valid_doc):
        # a document audit runs no corpus scan; the corpus audit builds
        # its own pools at its own shape
        for flags in (("--seed", "7"), ("--budget", "5"),
                      ("--workers", "2")):
            code, out, err = run(capsys, "audit", valid_doc, *flags)
            assert code == 2 and out == ""
            assert "audit FILE takes no --seed, --budget or --workers" in err
        for flags in (("--lattice", "4"), ("--cap", "5")):
            code, out, err = run(capsys, "audit", "--budget", "3", *flags)
            assert code == 2 and out == ""
            assert "audit without FILE takes neither --lattice nor" in err
        for flags in (("--workers", "0"), ("--workers", "-2"),
                      ("--budget", "-1")):
            code, out, err = run(capsys, "audit", "--claim", "CL.1", *flags)
            assert code == 2 and out == ""
            assert "--workers of at least 1 and --budget of at least 0" in err
        # the defaults, spelled out, are still accepted
        code, _, _ = run(capsys, "audit", valid_doc, "--claim", "CL.1",
                         "--seed", "0", "--workers", "1")
        assert code == 0
        code, _, _ = run(capsys, "audit", "--budget", "3", "--claim", "CL.1",
                         "--lattice", "auto")
        assert code == 0

    def test_document_audit_bytes_are_pinned(self, capsys, tmp_path,
                                             monkeypatch):
        # a seeded 3x2x3 document: its 729-set pool runs every pool claim
        # at full size, so any change to the tables or the pool scans that
        # moves a count, a witness or a byte of the report shows here
        grades = (Fraction(0), Fraction(1, 2), Fraction(1))
        pool = SetPool(Universe.of("x", "y", "z"),
                       ParameterSet.of("e1", "e2"), GradeLattice(grades))
        rng = random.Random("audit-digest")
        closed = None
        while closed is None:
            gens = tuple(sorted(rng.sample(range(1, pool.size - 1), 5)))
            closed = close_family(pool, gens, 32)
        doc = document_from_topology(
            pool.decode(pool.full_id), [pool.decode(i) for i in sorted(closed)],
            lattice_spec=grades)
        # the file name is the case label in the report, so keep it fixed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "doc.fst").write_text(doc.render())
        code, out, _ = run(capsys, "audit", "doc.fst", "--format", "structured")
        assert code == 0
        assert len(closed) == AUDIT_DIGEST_OPENS
        assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_DIGEST

    def test_document_audit_bytes_ignore_path_spelling(self, capsys,
                                                       tmp_path, monkeypatch):
        # the file name is the case label and the echoed file; a relative
        # name is normalised, so both spellings name the same case
        monkeypatch.chdir(tmp_path)
        (tmp_path / "doc.fst").write_text(VALID)
        outs = []
        for name in ("doc.fst", "./doc.fst"):
            code, out, _ = run(capsys, "audit", name, "--format",
                               "structured")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["config"]["file"] == "doc.fst"
        # only the name is normalised: the file is still read through the
        # path as given, where ".." after a symbolic link leaves the link
        (tmp_path / "a" / "b").mkdir(parents=True)
        (tmp_path / "a" / "other.fst").write_text(VALID)
        (tmp_path / "link").symlink_to(tmp_path / "a" / "b")
        code, _, _ = run(capsys, "validate", "link/../other.fst")
        assert code == 0


class TestAxiomsPinned:
    """``axioms`` bytes under every disjointness reading and pair
    relation, at the document's own lattice and at a wider one."""

    def _outputs(self, capsys, tmp_path, monkeypatch, name, lattice):
        # the file name is echoed in the report, so keep it fixed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "doc.fst").write_text(AXIOM_DOCS[name])
        outs = []
        for disjointness in ("pointwise", "cross-parameter"):
            for relation in ((), ("--pair-relation", "distinct"),
                             ("--pair-relation", "disjoint")):
                code, out, _ = run(capsys, "axioms", "doc.fst", "--lattice",
                                   lattice, "--disjointness", disjointness,
                                   *relation, "--format", "structured")
                assert code == 0
                outs.append(out)
        return outs

    def test_axioms_bytes_are_pinned(self, capsys, tmp_path, monkeypatch):
        failing, t1_notes = set(), set()
        for (name, lattice), digest in AXIOMS_DIGESTS.items():
            outs = self._outputs(capsys, tmp_path, monkeypatch, name,
                                 lattice)
            for out in outs:
                for v in json.loads(out)["results"]["verdicts"]:
                    if not v["holds"]:
                        failing.add(v["axiom"])
                        if v["axiom"] == "T1":
                            t1_notes.add(v["witness"]["note"])
            got = hashlib.sha256("".join(outs).encode()).hexdigest()
            assert got == digest, (name, lattice)
        # between them the documents sink every verdict the command gives
        assert failing == {"T0", "T1", "T2", "regular", "T3", "normal",
                           "T4", "points-closed"}
        assert t1_notes == {
            "no open contains the first point without the second",
            "no open contains the second point without the first"}

    def test_disjoint_regular_reading_is_pinned(self):
        payloads = []
        for name in AXIOM_DOCS:
            doc = parse_document(AXIOM_DOCS[name])
            space = validate_topology(doc.carrier, [s for _, s in doc.opens])
            for mode in ("pointwise", "cross_parameter"):
                for cfg in (
                    DeciderConfig.auto_for(space, disjointness_mode=mode,
                                           regular_reading="disjoint"),
                    DeciderConfig(lattice=GradeLattice.uniform(4),
                                  disjointness_mode=mode,
                                  regular_reading="disjoint"),
                ):
                    payloads.append(is_regular(space, cfg).to_payload())
                    payloads.append(is_t3(space, cfg).to_payload())
        text = json.dumps(payloads, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == REGULAR_DIGEST


class TestQueriesPinned:
    """``validate``, ``closure``, ``interior``, ``connected`` and
    ``subspace`` bytes, text and structured, on the ``axioms`` documents
    at their own lattice and at a wider one, and on a name no set has;
    ``subspace`` also pins the document it writes."""

    def test_query_bytes_are_pinned(self, capsys, tmp_path, monkeypatch):
        # the file names are echoed in the reports, so keep them fixed
        monkeypatch.chdir(tmp_path)
        for (name, lattice), digest in QUERY_DIGESTS.items():
            (tmp_path / "doc.fst").write_text(AXIOM_DOCS[name])
            names = parse_document(AXIOM_DOCS[name]).names()
            commands = [["validate"], ["connected"]]
            for set_name in (*names, "nosuch"):
                commands += [["closure", set_name], ["interior", set_name],
                             ["subspace", set_name, "sub.fst"]]
            outs = []
            for command in commands:
                for form in ("text", "structured"):
                    code, out, err = run(capsys, command[0], "doc.fst",
                                         *command[1:], "--lattice", lattice,
                                         "--format", form)
                    outs += [str(code), out, err]
                    if command[0] == "subspace" and code == 0:
                        outs.append((tmp_path / "sub.fst").read_text())
            got = hashlib.sha256("\0".join(outs).encode()).hexdigest()
            assert got == digest, (name, lattice)


# enum-07976 of the desk corpus fails normal (the generated query
# documents never do); crisp-point is T3 at its own lattice
AXIOM_DOCS = {
    "desk-07976": """\
universe: x y
parameters: e1 e2
lattice: 0 1/2 1
carrier:
  e1: x=1 y=1
  e2: x=1 y=1
open o1:
open o2:
  e2: x=1/2
open o3:
  e1: y=1
  e2: x=1/2 y=1
open o4:
  e1: y=1
  e2: x=1 y=1
open o5:
  e1: x=1 y=1
  e2: x=1/2 y=1
open o6:
  e1: x=1 y=1
  e2: x=1 y=1
""",
    "subcarrier": VALID,
    "crisp-discrete": """\
universe: x y
parameters: e1
carrier:
  e1: x=1 y=1
open none:
open x:
  e1: x=1
open y:
  e1: y=1
open all:
  e1: x=1 y=1
""",
    "crisp-point": """\
universe: x
parameters: e1
carrier:
  e1: x=1
open none:
open all:
  e1: x=1
""",
}
AXIOMS_DIGESTS = {
    ("desk-07976", "auto"):
        "bf21e6f78d2aa1e604a23383ee5c4195a769b978edbc68d2701091d896b84c63",
    ("desk-07976", "4"):
        "a88bb8a242c16d198b31cc26ebb96f2b62687f33957c8ffae26b4eec5dc92f8d",
    ("subcarrier", "auto"):
        "a57605298e1b6ae9b7caf6dd5888b67f247bff21c4fd6ae601cc584039da5607",
    ("subcarrier", "4"):
        "103989911ac88811d1bff688ed2c704f65a3b2e9a89e67cd8dcf5c1ad2d9bd51",
    ("crisp-discrete", "auto"):
        "9cc83eb7734ea45f6d8a9c6d7ee9630a55c9b75c76a1a7b47cad24f8f846309b",
    ("crisp-discrete", "4"):
        "dbce0c3cc2806f5ccfed3c3d0dd6978e66d663c7f953f971bdfdecfd58006300",
    ("crisp-point", "auto"):
        "03017372afca6a5336d28579cabba92c262b4a0ca4d237b5e2c31d4a6a7dd7bd",
    ("crisp-point", "4"):
        "8a1986d203ab7b4b1d3c4f4eea154589926e4614234dfb9a5bc7112df31a51bc",
}
QUERY_DIGESTS = {
    ('desk-07976', 'auto'):
        "1a60044a50b19b59d93a63cdeec78f15163e1a2ff7b84215359c79db168f478c",
    ('desk-07976', '4'):
        "6808fba28b3f1bb26c2b5a9a026707cc353dac2c77f12edacae59ba9a28d18ed",
    ('subcarrier', 'auto'):
        "794286b967b2a04e7bc2fcd83f1f8fec6ae88af8d892bf2a3733406e55f38e41",
    ('subcarrier', '4'):
        "542ef4cd02c46e5c44aee2e1d71423d5c097854b37ca38fe07e2ecddf4ee26af",
    ('crisp-discrete', 'auto'):
        "00508f611bd1f786d047a3915ffa6dd3b002c968bbbae0144d39de09f7723ab8",
    ('crisp-discrete', '4'):
        "307898702797befa1a42c2701ed46a6ca99b82f3a4ef7dacb421a31da4c4af9e",
    ('crisp-point', 'auto'):
        "d2312a0ceaeb92a3171ba088253c17f3a15c45a2c2b5bc9f41f7ae4e80178f08",
    ('crisp-point', '4'):
        "d96ec103b572da45a5d4c0a55db95dd821b74041030bf54040cd4fbf013e3be7",
}
REGULAR_DIGEST = (
    "6b194c54b4e59ff9762c97ce51b0f06426c503b91f018735bb2fd4b708ae5a83")


AUDIT_DIGEST_OPENS = 25
AUDIT_DIGEST = "d824fcc7a45578f5a6e969d540d8ab560aab688f32c5c4a6279ee4e788a233e4"
