"""Mutation check: every mutant in MUTANTS must make its named tests fail.

A mutant is one exact text replacement in one file of the tree, with the
pytest node ids that must each fail once it is applied.  The script
copies the tree to a temporary directory, runs the named tests there
once unmutated (they must pass), then applies one mutant at a time, runs
only its named tests, each under a timeout, and restores the file.

A mutant is "killed" when every named test fails, "survived" when one
passes and "timeout" when one runs past the timeout; only a table where
every mutant is killed exits 0.  A mutant is stale when its text does
not occur exactly once in its file or a named test is not defined, and
a stale mutant stops the run before any test runs.

Usage, from the root of a checkout (standard library and pytest only):

    python3 mutants/run.py                  # every mutant
    python3 mutants/run.py t1-no-reversal   # the named mutants only

``stale()`` alone, which runs no test, is checked by the test suite.

Every change that adds or changes a check adds the mutant it kills.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # per test run


class Mutant(NamedTuple):
    name: str
    path: str
    text: str
    replacement: str
    tests: tuple[str, ...]


ENGINE = "src/fstopo/engine.py"
DECIDERS = "src/fstopo/deciders.py"
TOPOLOGY = "src/fstopo/topology.py"
SUBSPACE_TESTS = "tests/test_topology.py::TestFinerAndSubspace::"
MASK_ORACLE = ("tests/test_deciders.py::"
               "test_masks_match_the_fraction_definitions")
SCAN_ORACLE = "tests/test_engine.py::test_scans_match_their_definitions"
CORPUS = "src/fstopo/corpus.py"
DOCUMENT = "src/fstopo/document.py"
ALGEBRA = "src/fstopo/algebra.py"
BRUTE_FORCE = ("tests/test_corpus.py::TestEnumeration::"
               "test_enumeration_matches_brute_force")
AUDITOR = "src/fstopo/auditor.py"
SCHEDULE = ("tests/test_auditor.py::TestRunAudit::"
            "test_every_scheduled_case_is_evaluated")
SCHEDULE_ROWS = "tests/test_auditor.py::TestRunAudit::test_schedule_rows"
CLOSE_ONCE = ("tests/test_algebra.py::TestGradeLattice::"
              "test_close_validates_each_seed_once")
SOFTSETS = "src/fstopo/softsets.py"
CLAIMS = "src/fstopo/claims.py"
ROW_ORACLE = "tests/test_claims.py::test_rows_match_checks"
PROBE_IDENTITY = ("tests/test_claims.py::"
                  "test_probes_equal_their_arithmetic_definition")
EVERY_SET_ORACLE = ("tests/test_claims.py::"
                    "test_every_set_rows_match_the_set_scans")
CHARACTERISATIONS = ("tests/test_claims.py::"
                     "test_characterisations_match_their_definitions")
LANE_TABLES = "tests/test_engine.py::test_lane_tables_match_the_loops"
LANE_256 = ("tests/test_engine.py::"
            "test_a_256_set_pool_builds_each_table_on_its_lanes")
POINTS = "src/fstopo/points.py"

MUTANTS = (
    Mutant("t1-no-reversal", ENGINE,
           "                return b, a\n",
           "                return a, b\n",
           (SCAN_ORACLE,
            "tests/test_cli.py::TestAxiomsPinned::"
            "test_axioms_bytes_are_pinned")),
    Mutant("t2-union-not-reset", ENGINE,
           "    for a in range(len(omasks)):\n"
           "        reach = _reach(odisj, omasks[a])\n",
           "    reach = 0\n"
           "    for a in range(len(omasks)):\n"
           "        reach |= _reach(odisj, omasks[a])\n",
           (SCAN_ORACLE,)),
    Mutant("regular-union-over-partner", ENGINE,
           "reach = _reach(odisj, ma)",
           "reach = _reach(odisj, cover)",
           (SCAN_ORACLE,)),
    Mutant("t3-without-t1", ENGINE,
           'return self.holds("t1", g) and self.holds("regular", g)',
           'return self.holds("regular", g)',
           ("tests/test_claims.py::test_engines_agree_on_drawn_spaces",)),
    Mutant("subspace-ambient-disjointness", ENGINE,
           "return {o: disj[mg[o]] & opens for o in self.opens}",
           "return {o: disj[o] & opens for o in self.opens}",
           ("tests/test_claims.py::"
            "test_subspace_verdicts_match_built_subspaces",)),
    Mutant("connected-sets-keep-null", ENGINE,
           "& ~self.disconnected() & ~1",
           "& ~self.disconnected()",
           ("tests/test_claims.py::"
            "test_disconnected_mask_matches_the_trace_search",
            "tests/test_claims.py::"
            "test_subspace_readings_match_on_drawn_spaces")),
    # the closure of test_criterion_6_mutation_alarm: a join fold from
    # the null set over the closed supersets
    Mutant("closure-join-fold", ENGINE,
           "_lane_fold(pool.full_id, pool.size,\n"
           "                                           self.closeds, lanes.meet_tables,",
           "_lane_fold(pool.null_id, pool.size,\n"
           "                                           self.closeds, lanes.join_tables,",
           ("tests/test_acceptance.py::test_criterion_6_control_no_alarm",
            "tests/test_claims.py::test_engines_agree_on_drawn_spaces")),
    # the lane-built closure folding each closed set in over the sets
    # above it, not under it
    Mutant("closure-fold-keeps-above", ENGINE,
           "lanes.below))",
           "lanes.above))",
           (LANE_TABLES,)),
    # a 256-set pool, whose ids still fit one byte, refused its lanes:
    # its cases run the loops and its closures read the list rows, with
    # the same tables and closures, slower
    Mutant("lanes-refuse-256", CORPUS,
           "if self._lanes is None and self.size <= 256:",
           "if self._lanes is None and self.size < 256:",
           (LANE_256, "tests/test_corpus.py::"
            "test_a_pool_of_256_sets_reads_byte_rows")),
    # each point's neighborhoods read through the membership digits of
    # the point before it
    Mutant("nbhds-digits-of-the-next-point", ENGINE,
           "int(row.translate(digits[p]), 2)",
           "int(row.translate(digits[p - 1]), 2)",
           (LANE_TABLES,)),
    # CON.COARSER drawing its own probe again, with its own full scan on
    # exhaustive cases past EXHAUSTIVE_LIMIT
    Mutant("coarser-own-probe", "src/fstopo/claims.py",
           "    indices = _scan_indices(case, t * t, CLOSED_PROBES * 2, 51)\n",
           "    if case.exhaustive:\n"
           "        indices = range(t * t)\n"
           "    else:\n"
           "        indices = _probe(t * t, CLOSED_PROBES * 2, "
           "case.order * 131 + 51)\n",
           ("tests/test_claims.py::test_only_the_scan_indices_draw_probes",
            "tests/test_claims.py::"
            "test_exhaustive_scans_past_the_limit_are_probed")),
    Mutant("above-in-low-blocks", CORPUS,
           "every_block >> (a * width) << (a * width)",
           "every_block >> (a * width)",
           ("tests/test_corpus.py::TestSetPool::"
            "test_order_masks_match_meet",)),
    # the added id joined to every member but met with none: g & b read
    # as g & full
    Mutant("first-new-id-unpaired", CORPUS,
           "        rows = [lanes.meet[b][first:stop].translate(",
           "        rows = [lanes.meet[-1][first:stop].translate(",
           (BRUTE_FORCE, "tests/test_corpus.py::"
            "test_extension_matches_the_fixed_point")),
    # a closure kept whatever its size
    Mutant("generators-unbounded", CORPUS,
           "    return [tuple(sorted(s)) if len(s) <= max_opens else None\n",
           "    return [tuple(sorted(s))\n",
           ("tests/test_corpus.py::TestCloseFamily::"
            "test_generators_alone_past_the_bound_are_refused",
            "tests/test_corpus.py::TestEnumeration::"
            "test_no_space_passes_the_opens_bound")),
    # a skipped family counted alone, not with the families grown from it
    Mutant("skipped-family-not-grown", CORPUS,
           "                stats.skipped_over_max_opens += _families(\n"
           "                    pool.size - first, top - generators)\n",
           "                stats.skipped_over_max_opens += 1\n",
           (BRUTE_FORCE, "tests/test_corpus.py::TestEnumeration::"
            "test_no_space_passes_the_opens_bound")),
    # seen holding frozensets again, turned back into tuples at the end
    Mutant("seen-keeps-frozensets", CORPUS,
           "        for family in seen:\n",
           "        seen = {frozenset(t) for t in seen}\n"
           "        for family in map(tuple, map(sorted, seen)):\n",
           ("tests/test_corpus.py::TestEnumeration::"
            "test_building_peaks_near_the_tuples_it_keeps",)),
    # column g of the rows read for id g + 1.  The walk alone cannot
    # see it: its root then skips only the null generator, which adds
    # nothing, and each skipped family counts one id too many, which
    # makes up the null's skipped subtree exactly
    Mutant("closure-rows-shifted", CORPUS,
           "lanes.meet[b][first:stop]",
           "lanes.meet[b][first + 1:stop]",
           ("tests/test_corpus.py::test_extension_matches_the_fixed_point",)),
    # a child grown from its own id again, not from the id after it
    Mutant("child-regrown-from-its-id", CORPUS,
           "for g, child in enumerate(children, first + 1):",
           "for g, child in enumerate(children, first):",
           (BRUTE_FORCE,)),
    # the pairs a with itself dropped, and with them the family's members
    Mutant("closure-pairs-without-self", CORPUS,
           "for i, a in enumerate(family) for b in family[i:]",
           "for i, a in enumerate(family) for b in family[i + 1:]",
           (BRUTE_FORCE,)),
    # the pairs taken with b <= a, where a | (g & b) is a
    Mutant("closure-pairs-reversed", CORPUS,
           "             if pool.meet[a][b] == a]\n",
           "             if pool.meet[a][b] == b]\n",
           (BRUTE_FORCE,)),
    # the list rows of a pool past 256 sets gathered through the meets
    Mutant("list-rows-read-meet", CORPUS,
           "map(pool.join[a].__getitem__, pool.meet[b][first:stop])",
           "map(pool.meet[a].__getitem__, pool.meet[b][first:stop])",
           ("tests/test_corpus.py::"
            "test_pools_past_one_byte_gather_list_rows",)),
    Mutant("closed-mask-from-the-opens", ENGINE,
           "self.closed_mask = sum(map((1).__lshift__, self.closeds))",
           "self.closed_mask = sum(map((1).__lshift__, ids))",
           ("tests/test_claims.py::test_engines_agree_on_drawn_spaces",)),
    # the closed sets indexed at the least rank of an open or the carrier
    # at or above theirs, as a rank over those grades alone would
    Mutant("rank-without-closed-grades", DECIDERS,
           "        self.index = [_entries(column)"
           " for column in zip(*self.ranks)]\n",
           "        n = len(space.opens)\n"
           "        self.index = [_entries([*column[:n], *(\n"
           "            min((g for g in {*column[:n], column[-1]} if g >= k),\n"
           "                default=k) for k in column[n:-1]), column[-1]])\n"
           "            for column in zip(*self.ranks)]\n",
           (MASK_ORACLE,)),
    # a point taken as closed when some closed set holds it, as if the
    # least grade of the space above its own were its own
    Mutant("point-closed-by-code-alone", DECIDERS,
           "    bad = next((p for p in m.points"
           " if not space.is_closed(p.as_fss())), None)\n",
           "    bad = next((p for p, (*_, mask) in zip(m.points, m.held)"
           " if not mask >> len(space.opens) & m.opens), None)\n",
           ("tests/test_deciders.py::"
            "test_a_point_is_closed_only_at_its_exact_grade",)),
    # the lattice grades ranked with the space's
    Mutant("rank-lattice-grades", DECIDERS,
           "        self.grades, self.ranks = grade_ranks(sets)\n",
           "        grades, ranks = grade_ranks(sets)\n"
           "        self.grades = sorted({*grades, *cfg.lattice})\n"
           "        self.ranks = [[self.grades.index(grades[r]) for r in v]\n"
           "                      for v in ranks]\n",
           ("tests/test_deciders.py::"
            "test_codes_do_not_widen_with_the_lattice",)),
    Mutant("cross-parameter-as-pointwise", DECIDERS,
           '        if self.cfg.disjointness_mode == "pointwise":\n'
           "            return _mask(ranks) << base\n",
           "        return _mask(ranks) << base\n",
           (MASK_ORACLE, "tests/test_deciders.py::TestConnectedness::"
            "test_cross_parameter_mode_changes_the_answer")),
    # each point's omask read off a thermometer code of its soft-set form,
    # as wide as a set: the same masks at cells * grades bits a point
    Mutant("omasks-from-point-codes", DECIDERS,
           "        return [mask & self.opens for *_, mask in self.held]\n",
           "        from .softsets import rank_codes\n"
           "        opens = self.space.opens\n"
           "        codes = rank_codes(\n"
           "            [*opens, *(p.as_fss() for p in self.points)])\n"
           "        return [_mask(not f & ~o for o in codes[:len(opens)])\n"
           "                for f in codes[len(opens):]]\n",
           ("tests/test_deciders.py::"
            "test_is_t1_memory_does_not_grow_with_cells_times_grades",)),
    # the relative closure scan keeping the traces below h, not above it
    Mutant("relative-closure-below", TOPOLOGY,
           "        if h.leq(k):\n",
           "        if k.leq(h):\n",
           (SUBSPACE_TESTS
            + "test_relative_closure_agrees_with_parent_route",)),
    Mutant("subspace-opens-uncut", TOPOLOGY,
           "[g.intersection(o) for o in self.opens]",
           "list(self.opens)",
           (SUBSPACE_TESTS
            + "test_subspace_is_the_validated_family_of_traces",
            SUBSPACE_TESTS + "test_subspace_opens_are_traces")),
    Mutant("separation-carrier-unbounded", DECIDERS,
           "    space._check_subspace(g)\n",
           "",
           ("tests/test_deciders.py::TestSubspaceSeparation::"
            "test_rejects_a_carrier_outside_the_space",)),
    # NBD.3 concluding from its first neighborhood, not the intersection
    Mutant("nbd3-reads-the-first-set", "src/fstopo/claims.py",
           "if not (nm >> meet[n1][n2]) & 1]",
           "if not (nm >> n1) & 1]",
           ("tests/test_claims.py::test_space_claims_match_scalar_scans",)),
    Mutant("validate-last-pair-first", TOPOLOGY,
           "for j in range(i + 1, len(order)):",
           "for j in reversed(range(i + 1, len(order))):",
           ("tests/test_topology.py::test_violations_match_a_fraction_scan",)),
    Mutant("grade-unicode-digits", ALGEBRA,
           r'_FRACTION_RE = re.compile(r"\A([0-9]+)[ \t]*/[ \t]*([0-9]+)\Z")',
           r'_FRACTION_RE = re.compile(r"\A(\d+)[ \t]*/[ \t]*(\d+)\Z")',
           ("tests/test_algebra.py::TestAsGrade::"
            "test_refuses_digits_outside_ascii",)),
    Mutant("grade-unicode-whitespace", ALGEBRA,
           'stripped = text.strip(" \\t")',
           "stripped = text.strip()",
           ("tests/test_algebra.py::TestAsGrade::"
            "test_refuses_whitespace_outside_ascii",
            "tests/test_cli.py::TestExitCodes::"
            "test_lattice_list_pads_with_ascii_spaces_only")),
    # a memo that outlives one parse_document call
    Mutant("document-memo-module-level", DOCUMENT,
           "    memo: dict[str, Fraction] = {}  # grade token -> its "
           "validated grade\n",
           '    memo = globals().setdefault("_MEMO", {})\n',
           ("tests/test_document.py::"
            "test_each_distinct_grade_token_is_validated_once",)),
    Mutant("document-grade-unchecked", DOCUMENT,
           "grade = memo[token] = as_grade(token)",
           "grade = memo[token] = Fraction(token)",
           ("tests/test_document.py::test_errors_carry_line_numbers",)),
    # a repeated parameters or lattice line taken over the first one
    Mutant("document-header-repeats", DOCUMENT,
           "            if head in headers:\n",
           '            if head in headers and head == "universe":\n',
           ("tests/test_document.py::"
            "test_each_parse_error_has_its_exact_message",)),
    Mutant("close-seeds-unchecked", ALGEBRA,
           "            g = as_grade(seed)\n",
           "            g = Fraction(seed)\n",
           (CLOSE_ONCE,)),
    # the lattice built through the validating constructor again
    Mutant("close-validates-twice", ALGEBRA,
           "        lattice = object.__new__(cls)\n"
           '        object.__setattr__(lattice, "grades", '
           "tuple(sorted(grades)))\n",
           "        lattice = cls(tuple(sorted(grades)))\n",
           (CLOSE_ONCE,)),
    # a field too narrow for the highest rank, which spills into the
    # next cell's field
    Mutant("rank-field-one-bit-short", "src/fstopo/softsets.py",
           "    width = len(grades) - 1\n",
           "    width = len(grades) - 2\n",
           ("tests/test_softsets.py::TestRankCodes::"
            "test_ranks_follow_the_grade_order",)),
    # each row of the pair scan starting one before its own set, which
    # puts the row's pair with the last set first
    Mutant("validate-row-starts-before-itself", TOPOLOGY,
           "range(i + 1, len(order))",
           "range(i - 1, len(order))",
           ("tests/test_topology.py::test_violations_match_a_fraction_scan",)),
    # a set with the space's universe and other parameters taken as
    # one of its own
    Mutant("space-context-by-universe-alone", TOPOLOGY,
           "if g.universe != self.universe or g.parameters != self.parameters:",
           "if g.universe != self.universe and g.parameters != self.parameters:",
           ("tests/test_topology.py::TestValidation::"
            "test_wrong_context_is_a_usage_error",)),
    # the violations' text replaced by the generic fallback
    Mutant("validation-message-generic", TOPOLOGY,
           'v.render() for v in violations) or "invalid topology"',
           'v.render() for v in violations) and "invalid topology"',
           ("tests/test_topology.py::TestValidation::"
            "test_missing_union_and_intersection",)),
    # the validation error's message replaced with a generic one, which
    # the CLI would then print for every invalid document
    Mutant("validation-message-replaced", TOPOLOGY,
           '"; ".join(v.render() for v in violations) or "invalid topology"',
           '"invalid topology"',
           ("tests/test_cli.py::TestExitCodes::"
            "test_invalid_space_reports_the_validation_message",)),
    Mutant("validate-meet-read-as-join", TOPOLOGY,
           "a & b not in present",
           "a | b not in present",
           ("tests/test_topology.py::test_violations_match_a_fraction_scan",)),
    Mutant("lattice-denominator-uncapped", "src/fstopo/cli.py",
           "            if n > cap:\n"
           '                raise CapExceededError("lattice denominator", '
           "n, cap)\n",
           "",
           ("tests/test_cli.py::TestExitCodes::"
            "test_lattice_denominator_above_the_cap_exits_3",)),
    # ranks keyed by the Fraction again, one hash per cell
    Mutant("rank-keyed-by-fraction", "src/fstopo/softsets.py",
           "grade_key = Fraction.as_integer_ratio\n",
           "grade_key = Fraction\n",
           ("tests/test_softsets.py::TestRankCodes::"
            "test_no_fraction_is_hashed_per_cell",)),
    Mutant("complement-float-grades", ALGEBRA,
           "tuple(GRADE_ONE - g for g in self.grades)",
           "tuple(float(GRADE_ONE - g) for g in self.grades)",
           ("tests/test_algebra.py::TestFuzzySet::"
            "test_lattice_ops_match_the_validating_constructor",)),
    # a call that writes into the parser main builds once per process
    Mutant("parser-keeps-last-format", "src/fstopo/cli.py",
           "        args = parser.parse_args(argv)\n",
           "        args = parser.parse_args(argv)\n"
           "        parser._subparsers._group_actions[0].choices[\n"
           "            args.command].set_defaults(format=args.format)\n",
           ("tests/test_cli.py::TestRepeatedCalls::"
            "test_calls_after_other_calls_print_what_a_fresh_call_prints",)),
    # a cap of 0 refused with the negative ones
    Mutant("zero-cap-refused", "src/fstopo/cli.py",
           "args.cap < 0",
           "args.cap <= 0",
           ("tests/test_cli.py::TestExitCodes::test_negative_cap_exits_2",)),
    # the least budget refused with the negative ones
    Mutant("audit-budget-zero-refused", "src/fstopo/cli.py",
           "args.budget < 0",
           "args.budget <= 0",
           ("tests/test_cli.py::TestAudit::"
            "test_audit_refuses_options_it_would_ignore",)),
    # a subspace carrier above the carrier read as a usage error
    Mutant("subspace-bound-exits-2", "src/fstopo/cli.py",
           "CarrierBoundError: EXIT_INVALID",
           "CarrierBoundError: EXIT_USAGE",
           ("tests/test_cli.py::TestSubspace::test_set_above_carrier_exits_1",)),
    Mutant("negative-cap-accepted", "src/fstopo/cli.py",
           "args.cap is not None and args.cap < 0",
           "args.cap is not None and args.cap < -99",
           ("tests/test_cli.py::TestExitCodes::test_negative_cap_exits_2",)),
    Mutant("document-case-probed", AUDITOR,
           "[(label, pool, ids, 0, True)]",
           "[(label, pool, ids, 0, False)]",
           ("tests/test_auditor.py::TestRunAudit::test_single_case_schedule",)),
    Mutant("random-draws-unscheduled", AUDITOR,
           "    for j in range(random_count):\n",
           "    for j in range(0):\n",
           (SCHEDULE,)),
    Mutant("named-cases-unscheduled", AUDITOR,
           "for order, ns in enumerate(named)]",
           "for order, ns in enumerate(named[:0])]",
           (SCHEDULE,)),
    # the last row of each chunk's slice left out of the worker scan
    Mutant("chunks-drop-the-last-case", AUDITOR,
           "rows[lo:lo + step]",
           "rows[lo:lo + step - 1]",
           ("tests/test_auditor.py::TestRunAudit::"
            "test_workers_are_capped_at_the_usable_cpus",)),
    # workers that can start only by fork, and a module global that only
    # a forked worker would inherit
    Mutant("workers-forced-to-fork", AUDITOR,
           "with multiprocessing.Pool(workers) as mp:",
           'with multiprocessing.get_context("fork").Pool(workers) as mp:',
           ("tests/test_auditor.py::TestRunAudit::"
            "test_workers_agree_past_the_exhaustive_head",)),
    Mutant("worker-rows-in-a-global", AUDITOR,
           "WITNESS_CAP = 3\n",
           "WITNESS_CAP = 3\n\n_ROWS: list = []\n",
           ("tests/test_auditor.py::test_no_module_level_dict_or_list",)),
    # the schedule's rows: which cases are scanned whole, their orders
    # and the seeds of the draws
    Mutant("exhaustive-head-one-longer", AUDITOR,
           "index < EXHAUSTIVE_HEAD or",
           "index <= EXHAUSTIVE_HEAD or",
           (SCHEDULE_ROWS,)),
    Mutant("exhaustive-head-and-stride", AUDITOR,
           "EXHAUSTIVE_HEAD or index",
           "EXHAUSTIVE_HEAD and index",
           (SCHEDULE_ROWS,)),
    Mutant("exhaustive-stride-inverted", AUDITOR,
           "index % EXHAUSTIVE_STRIDE == 0",
           "index % EXHAUSTIVE_STRIDE != 0",
           (SCHEDULE_ROWS,)),
    Mutant("enumerated-orders-descend", AUDITOR,
           "ENUM_ORDER_BASE + i,",
           "ENUM_ORDER_BASE - i,",
           (SCHEDULE_ROWS,)),
    Mutant("draw-seeds-start-below-the-base", AUDITOR,
           "seed = base_seed + 1 + j",
           "seed = base_seed - 1 + j",
           (SCHEDULE_ROWS,)),
    Mutant("draw-seeds-descend", AUDITOR,
           "seed = base_seed + 1 + j",
           "seed = base_seed + 1 - j",
           (SCHEDULE_ROWS,)),
    Mutant("draw-orders-below-the-corpus", AUDITOR,
           "ENUM_ORDER_BASE + total + j",
           "ENUM_ORDER_BASE - total + j",
           (SCHEDULE_ROWS,)),
    Mutant("draw-orders-descend", AUDITOR,
           "ENUM_ORDER_BASE + total + j",
           "ENUM_ORDER_BASE + total - j",
           (SCHEDULE_ROWS,)),
    Mutant("draw-stride-inverted", AUDITOR,
           "j % RANDOM_EXHAUSTIVE_STRIDE == 0",
           "j % RANDOM_EXHAUSTIVE_STRIDE != 0",
           (SCHEDULE_ROWS,)),
    Mutant("full-scan-reads-as-truncated", AUDITOR,
           '"truncated": scan < total',
           '"truncated": scan <= total',
           ("tests/test_auditor.py::TestRunAudit::"
            "test_scanning_every_space_is_not_truncated",)),
    Mutant("usable-cpus-without-affinity-is-one", AUDITOR,
           "return os.cpu_count() or 1",
           "return os.cpu_count() and 1",
           ("tests/test_auditor.py::"
            "test_usable_cpus_fall_back_to_the_cpu_count",)),
    Mutant("text-columns-overlap", AUDITOR,
           'width = max(len(i) for i in p["claims"]) + 2',
           'width = max(len(i) for i in p["claims"]) - 2',
           ("tests/test_auditor.py::TestRunAudit::"
            "test_render_text_aligns_the_columns",)),
    # a second SpaceCase site: the document case built outside the chunks
    Mutant("document-case-outside-the-chunks", AUDITOR,
           "    if space and rows:\n",
           "    if space and len(rows) == 1:\n"
           "        case = SpaceCase(*rows[0][:3], exhaustive=True)\n"
           "        for ident, r in evaluate_space_case(case, space).items():\n"
           "            tallies[ident].add(0, case.label, r)\n"
           "    elif space and rows:\n",
           ("tests/test_auditor.py::test_one_site_builds_the_space_cases",)),
    # the pair scan stopping at the first row with either violation, so
    # a violation of the other kind first seen in a later row is lost
    Mutant("validate-stops-at-either-violation", TOPOLOGY,
           "        if inter is not None and union is not None:\n",
           "        if inter is not None or union is not None:\n",
           ("tests/test_cli.py::TestReports::"
            "test_validate_reports_both_closure_violations",)),
    Mutant("pool-cap-refuses-the-cap", CORPUS,
           "        if size > cap:\n",
           "        if size >= cap:\n",
           ("tests/test_corpus.py::TestSetPool::"
            "test_cap_admits_exactly_the_cap",)),
    Mutant("family-cap-refuses-the-cap", CORPUS,
           "        if count > spec.family_cap:\n",
           "        if count >= spec.family_cap:\n",
           ("tests/test_corpus.py::TestEnumeration::"
            "test_family_cap_admits_exactly_the_cap",)),
    Mutant("enumeration-cap-refuses-the-cap", SOFTSETS,
           "    if count > cap:\n",
           "    if count >= cap:\n",
           ("tests/test_softsets.py::TestEnumeration::"
            "test_cap_admits_exactly_the_cap",)),
    Mutant("point-cap-refuses-the-cap", POINTS,
           "    if total > cap:\n",
           "    if total >= cap:\n",
           ("tests/test_points.py::test_enumeration_count_and_order",)),
    Mutant("parameter-name-empty", ALGEBRA,
           "if not isinstance(name, str) or not name:",
           "if not isinstance(name, str) and not name:",
           ("tests/test_softsets.py::TestConstruction::"
            "test_parameter_names_must_be_nonempty_strings",)),
    # the law kernels joining f(g)'s code where they meet it, and back
    Mutant("lane-join-read-as-meet", CLAIMS,
           "parts = map(packed.__or__ if union else packed.__and__,",
           "parts = map(packed.__and__ if union else packed.__or__,",
           (ROW_ORACLE,)),
    # the monotonicity kernel testing every h, not only those over g
    Mutant("monotone-above-unmasked", CLAIMS,
           "map(operator.and_, lanes.above, lanes.broadcast(image))",
           "map(operator.and_, itertools.repeat(-1), lanes.broadcast(image))",
           (ROW_ORACLE,)),
    # a probe whose stride walk starts one index late
    Mutant("probe-starts-one-late", CLAIMS,
           "for x in range(salt, salt + count * _STRIDE, _STRIDE)]",
           "for x in range(salt + 1, salt + 1 + count * _STRIDE, _STRIDE)]",
           (PROBE_IDENTITY,)),
    # the every-set claims passing a case exactly when their byte rows
    # differ, so a failing case reports no failure
    Mutant("duality-rows-inverted", CLAIMS,
           "        if same:\n            return n, n, []\n",
           "        if not same:\n            return n, n, []\n",
           (EVERY_SET_ORACLE,)),
    Mutant("idempotence-rows-inverted", CLAIMS,
           "if data is not None and data.translate(_table(data)) == data:",
           "if data is not None and data.translate(_table(data)) != data:",
           (EVERY_SET_ORACLE,)),
    Mutant("fixed-rows-inverted", CLAIMS,
           "if moved == ~closed & (1 << n) - 1:",
           "if moved != ~closed & (1 << n) - 1:",
           (EVERY_SET_ORACLE,)),
    Mutant("open-iff-rows-inverted", CLAIMS,
           "if lanes.bits(over) == ~opens & (1 << n) - 1:",
           "if lanes.bits(over) != ~opens & (1 << n) - 1:",
           (EVERY_SET_ORACLE,)),
    # NBD.4 reading the sets over their interior, not under it
    Mutant("nbd4-rows-order-reversed", CLAIMS,
           "row |= image & ~own",
           "row |= own & ~image",
           (EVERY_SET_ORACLE,)),
    # NBD.OPEN-IFF's byte path never flagging a set over its interior, so
    # it passes whenever every set is open (sampled)
    Mutant("open-iff-rows-never-flag", CLAIMS,
           "over |= own & ~image",
           "over &= own & ~image",
           (EVERY_SET_ORACLE,)),
    # the closure-avoiding opens of SEP.T2CHAR joined instead of met, and
    # SEP.REGCHAR-rev taking either half of its hypothesis (sampled)
    Mutant("t2char-closures-joined", CLAIMS,
           "inside &= pt_sets[cl[s]]",
           "inside |= pt_sets[cl[s]]",
           (CHARACTERISATIONS,)),
    Mutant("regchar-rev-either-hypothesis", CLAIMS,
           "lambda: case.t1() and _regchar_property(case) is None,",
           "lambda: case.t1() or _regchar_property(case) is None,",
           (CHARACTERISATIONS,)),
    # PT.6's outside masks off by two bits, which flags too few points
    # where a point lies in no meet of the sets holding it (sampled)
    Mutant("pt6-outside-masks-off", CLAIMS,
           "every = (1 << len(pool.points)) - 1\n"
           "    outside_of = [every ^ m for m in sets_of]\n"
           "    flagged = 0\n"
           "    for g in range(n):\n"
           "        mg = meet[g]\n",
           "every = (1 << len(pool.points)) + 1\n"
           "    outside_of = [every ^ m for m in sets_of]\n"
           "    flagged = 0\n"
           "    for g in range(n):\n"
           "        mg = meet[g]\n",
           ("tests/test_claims.py::test_pool_claims_match_scalar_scans",)),
    # CON.SUBSPACE-SIDE reading its connected subspaces off the mask
    # shifted the wrong way, so it never has a hypothesis hit
    Mutant("subspace-side-shifts-left", CLAIMS,
           "hyp = [h for h in hs if (conn >> h) & 1]",
           "hyp = [h for h in hs if (conn << h) & 1]",
           ("tests/test_claims.py::"
            "test_subspace_side_matches_its_scalar_scan",)),
    # a bitmask spread to a byte row with bit 0 at the far end, as the
    # union claims read their connected and disconnected flags
    Mutant("spread-read-backwards", "src/fstopo/corpus.py",
           'format(mask, f"0{width}b")[::-1]',
           'format(mask, f"0{width}b")',
           ("tests/test_claims.py::test_claim_triples_are_pinned",)),
    # the sampler drawing sites inside annotations, which never run
    Mutant("sampler-mutates-annotations", "mutants/sample.py",
           "            skip.update(map(id, ast.walk(note)))\n",
           "            pass\n",
           ("tests/test_mutants.py::"
            "test_sampler_lists_operator_sites_outside_annotations",)),
    # the sampler listing operators inside f-strings, which have no
    # operator token of their own
    Mutant("sampler-mutates-fstrings", "mutants/sample.py",
           "            skip.update(map(id, ast.walk(node)))\n",
           "            pass\n",
           ("tests/test_mutants.py::"
            "test_sampler_lists_operator_sites_outside_annotations",)),
    # codes read in their first byte only
    Mutant("lanes-first-byte-only", CORPUS,
           "for j in range(max(1, -(-pool.cells * bits // 8)))]",
           "for j in range(1)]",
           ("tests/test_claims.py::test_rows_match_checks_over_wide_codes",
            "tests/test_corpus.py::TestSetPool::"
            "test_lane_tables_code_the_tables")),
    # enumerated points holding their grades in a list, which the
    # validated construction never does and which cannot be hashed
    Mutant("point-grades-as-list", POINTS,
           "_lattice_set(universe, tuple(map(",
           "_lattice_set(universe, list(map(",
           ("tests/test_points.py::"
            "test_enumerated_points_equal_the_validated_construction",)),
    # points built with their grades reversed
    Mutant("decoded-point-grades-reversed", POINTS,
           "                                             digits)))",
           "                                             digits[::-1])))",
           ("tests/test_points.py::"
            "test_enumerated_points_equal_the_validated_construction",)),
    # a bounded enumeration keeping only the grades strictly under the
    # bound's
    Mutant("bound-below-strictly", SOFTSETS,
           "per_cell = [range(bisect_right(lattice.grades, g))",
           "per_cell = [range(sum(h < g for h in lattice.grades))",
           ("tests/test_points.py::"
            "test_enumerated_points_equal_the_validated_construction",
            "tests/test_softsets.py::TestEnumeration::"
            "test_bounded_enumeration")),
    # the deciders' points all built on the first parameter
    Mutant("decider-points-on-the-first-parameter", DECIDERS,
           "self.cfg.lattice, pi, digits)",
           "self.cfg.lattice, 0, digits)",
           ("tests/test_points.py::"
            "test_enumerated_points_equal_the_validated_construction",
            MASK_ORACLE)),
    # a set's text rendered afresh on every call
    Mutant("set-text-not-kept", SOFTSETS,
           "    @functools.cached_property\n    def _text",
           "    @property\n    def _text",
           ("tests/test_points.py::"
            "test_decoded_sets_and_points_render_their_values_once",)),
)


def stale(root: pathlib.Path, mutants=MUTANTS) -> list[str]:
    """Why each of ``mutants`` cannot run on the tree at ``root``: its
    text does not occur exactly once, or a named test is not defined."""
    problems = []
    for m in mutants:
        count = (root / m.path).read_text().count(m.text)
        if count != 1:
            problems.append(f"{m.name}: text occurs {count} times in {m.path}")
        for node in m.tests:
            path, *names = node.split("::")
            source = root / path
            if not source.is_file() or f"def {names[-1]}(" not in (
                    source.read_text()):
                problems.append(f"{m.name}: no test {node}")
    return problems


def copy_tree(tmp: str) -> pathlib.Path:
    """A copy of the checkout under ``tmp``, without caches or history."""
    tree = pathlib.Path(tmp) / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work*"))
    return tree


def _outcome(tree: pathlib.Path, *nodes: str) -> str:
    """'failed', 'passed' or 'timeout' for test nodes (ids or files) run
    in ``tree``, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *nodes],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def run(mutants) -> dict[str, str]:
    """The outcome of each mutant, by name."""
    with tempfile.TemporaryDirectory(prefix="fstopo-mutants-") as tmp:
        tree = copy_tree(tmp)
        problems = stale(tree, mutants)
        if problems:
            raise SystemExit("stale mutants:\n  " + "\n  ".join(problems))
        for node in sorted({n for m in mutants for n in m.tests}):
            outcome = _outcome(tree, node)
            if outcome != "passed":
                raise SystemExit(f"{node} is {outcome} on the unmutated tree")
        outcomes = {}
        for m in mutants:
            path = tree / m.path
            original = path.read_text()
            path.write_text(original.replace(m.text, m.replacement))
            try:
                results = [_outcome(tree, node) for node in m.tests]
            finally:
                path.write_text(original)
            if "timeout" in results:
                outcomes[m.name] = "timeout"
            elif "passed" in results:
                outcomes[m.name] = "survived"
            else:
                outcomes[m.name] = "killed"
            print(f"{m.name}: {outcomes[m.name]}", flush=True)
        return outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default all)")
    args = ap.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    outcomes = run([known[n] for n in args.names] or list(MUTANTS))
    killed = sum(o == "killed" for o in outcomes.values())
    print(f"{killed} of {len(outcomes)} mutants killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    raise SystemExit(main())
