"""Corpus-wide claim audit.

Each audit schedules its space cases as one list of ``(label, pool, ids,
order, exhaustive)`` rows: ``run_audit`` schedules the named catalogue,
the enumerated corpus up to the budget and seeded random draws, and
``audit_space`` the one space of ``fstopo audit FILE``.  One chunk
function evaluates every row, in this process or split over forked
workers; the tallies merge independently of order.  Both entry points
then run the pool and fixed claims, aggregate the outcomes per claim in
one report builder and derive one of three statuses:

* ``counterexample-found``: at least one failing instance was recorded.
* ``proved-by-exhaustion-at-spec-sizes``: the claim scans its whole
  domain, every scheduled case ran and nothing failed.
* ``no-counterexample-within-budget``: nothing failed, but the scan was
  probed or truncated, so absence of a witness is all that can be said.

Failures of ``asserted-invariant`` and ``reproduced-example`` claims
additionally raise alarms: those mean the library itself is wrong, not
the claim.

Reports are plain dicts with sorted keys and no timestamps, so equal
runs produce equal bytes, whatever the worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import dataclass

from .claims import (
    ASSERTED,
    SpaceCase,
    evaluate_fixed_claims,
    evaluate_pool_claims,
    evaluate_space_case,
    select_claims,
)
from .corpus import CorpusSpec, SpaceCorpus, named_spaces, random_space_ids

STATUS_COUNTEREXAMPLE = "counterexample-found"
STATUS_PROVED = "proved-by-exhaustion-at-spec-sizes"
STATUS_BUDGET = "no-counterexample-within-budget"

# which cases get full scans instead of probes: the head of the
# enumeration, a fixed stride across the rest, a stride over the random
# draws, and every named space
EXHAUSTIVE_HEAD = 96
EXHAUSTIVE_STRIDE = 503
RANDOM_EXHAUSTIVE_STRIDE = 47

# case orders: named spaces sit below this, enumerated cases start here
ENUM_ORDER_BASE = 16

WITNESS_CAP = 3


def _is_exhaustive_enum(index: int) -> bool:
    return index < EXHAUSTIVE_HEAD or index % EXHAUSTIVE_STRIDE == 0


class _Tally:
    """Per-claim accumulator with a bounded, order-stable witness list."""

    __slots__ = ("cases", "instances", "hits", "failures", "witnesses")

    def __init__(self):
        self.cases = 0
        self.instances = 0
        self.hits = 0
        self.failures = 0
        self.witnesses: list[tuple[int, str, str]] = []

    def add(self, order: int, label: str, result) -> None:
        checked, hits, fails = result
        if checked:
            self.cases += 1
        self.instances += checked
        self.hits += hits
        self.failures += len(fails)
        if fails:
            for detail in fails:
                self.witnesses.append((order, label, detail))
            self._trim()

    def merge(self, packed) -> None:
        cases, instances, hits, failures, witnesses = packed
        self.cases += cases
        self.instances += instances
        self.hits += hits
        self.failures += failures
        if witnesses:
            self.witnesses.extend(witnesses)
            self._trim()

    def pack(self):
        return (self.cases, self.instances, self.hits, self.failures,
                self.witnesses)

    def _trim(self) -> None:
        if len(self.witnesses) > WITNESS_CAP:
            self.witnesses.sort()
            del self.witnesses[WITNESS_CAP:]


# worker context for fork-based parallelism; set in the parent right
# before the pool spawns so children inherit it
_CTX: dict = {}


def _eval_enum_chunk(bounds: tuple[int, int]) -> dict:
    """Packed tallies of the space claims over schedule rows start..end
    (every space case of every audit; ``perfbench`` traces this name)."""
    idents = _CTX["idents"]
    tallies = {ident: _Tally() for ident in idents}
    start, end = bounds
    for label, pool, ids, order, exhaustive in _CTX["rows"][start:end]:
        case = SpaceCase(label, pool, ids, order=order, exhaustive=exhaustive)
        for ident, result in evaluate_space_case(case, idents).items():
            tallies[ident].add(order, label, result)
    return {ident: t.pack() for ident, t in tallies.items()}


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _eval_schedule(rows: list, idents: set, workers: int) -> list[dict]:
    """The chunk tallies of ``rows``: one chunk in this process, or about
    eight chunks per forked worker."""
    if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        # workers inherit the rows through fork; the serial scan gives the
        # same payload
        print("note: the fork start method is unavailable here; "
              "auditing with one worker", file=sys.stderr)
        workers = 1
    # no more workers than this process may run on at once
    workers = min(workers, _usable_cpus())
    _CTX.update(rows=rows, idents=idents)
    try:
        if workers == 1:
            return [_eval_enum_chunk((0, len(rows)))]
        step = -(-len(rows) // (workers * 8))
        bounds = [(lo, min(lo + step, len(rows)))
                  for lo in range(0, len(rows), step)]
        with multiprocessing.get_context("fork").Pool(workers) as mp:
            return mp.map(_eval_enum_chunk, bounds)
    finally:
        _CTX.clear()


def claim_status(claim, failures: int, truncated: bool) -> str:
    if failures:
        return STATUS_COUNTEREXAMPLE
    if claim.complete and not (truncated and claim.scope == "space"):
        return STATUS_PROVED
    return STATUS_BUDGET


@dataclass
class AuditReport:
    """Canonical audit outcome plus wall-clock time (kept off-payload)."""

    payload: dict
    elapsed: float

    @property
    def alarms(self) -> list:
        return self.payload["alarms"]

    @property
    def claims(self) -> dict:
        return self.payload["claims"]

    def to_payload(self) -> dict:
        return self.payload

    def render_text(self) -> str:
        p = self.payload
        cases = p["cases"]
        lines = [
            "claim audit: "
            f"{cases['enumerated_scanned']}/{cases['enumerated_total']} "
            f"enumerated + {cases['random']} random + {cases['named']} "
            f"named cases, {cases['pools']} set pools",
        ]
        if cases["truncated"]:
            lines.append("enumeration truncated by budget")
        lines.append("")
        width = max(len(i) for i in p["claims"]) + 2
        for ident, entry in p["claims"].items():
            lines.append(
                f"{ident:<{width}}{entry['classification']:<22}"
                f"{entry['status']:<36}"
                f"cases={entry['cases']} checked={entry['instances']} "
                f"hits={entry['hypothesis_hits']} fails={entry['failures']}"
            )
            for w in entry["witnesses"]:
                lines.append(f"    witness [{w['case']}] {w['detail']}")
        lines.append("")
        if p["alarms"]:
            lines.append("ALARMS (library defects, not findings):")
            for a in p["alarms"]:
                lines.append(f"  {a['claim']} [{a['case']}] {a['detail']}")
        else:
            lines.append("alarms: none")
        s = p["summary"]
        lines.append(
            f"summary: {s['claims']} claims, "
            f"{s[STATUS_COUNTEREXAMPLE]} with counterexamples, "
            f"{s[STATUS_PROVED]} proved by exhaustion, "
            f"{s[STATUS_BUDGET]} open within budget"
        )
        return "\n".join(lines) + "\n"


def _select(claim_filter: str | None) -> tuple:
    chosen = select_claims(claim_filter)
    if not chosen:
        raise ValueError(f"no claim matches {claim_filter!r}")
    return chosen


def run_audit(
    spec: CorpusSpec | None = None,
    *,
    claim_filter: str | None = None,
    budget: int | None = None,
    workers: int = 1,
    base_seed: int = 0,
    random_count: int = 200,
) -> AuditReport:
    """Evaluate the selected claims over the corpus schedule: the named
    catalogue, the enumerated corpus up to ``budget`` and
    ``random_count`` seeded random draws, with the pool claims on the
    corpus pool and each distinct named pool."""
    started = time.monotonic()
    chosen = _select(claim_filter)
    corpus = SpaceCorpus(spec or CorpusSpec.desk())
    pool, total = corpus.pool, len(corpus.spaces)
    scan = total if budget is None else max(0, min(budget, total))
    named = named_spaces()
    rows = [(ns.label, ns.pool, ns.ids, order, True)
            for order, ns in enumerate(named)]
    rows += [(corpus.label(i), pool, corpus.spaces[i], ENUM_ORDER_BASE + i,
              _is_exhaustive_enum(i)) for i in range(scan)]
    for j in range(random_count):
        seed = base_seed + 1 + j
        rows.append((f"random-{seed:03d}", pool,
                     random_space_ids(seed, corpus.spec, pool),
                     ENUM_ORDER_BASE + total + j,
                     j % RANDOM_EXHAUSTIVE_STRIDE == 0))
    # set pools: the corpus pool plus each distinct named shape
    pools: dict[tuple, object] = {}
    for p in (pool, *(ns.pool for ns in named)):
        pools.setdefault((tuple(p.universe), tuple(p.parameters),
                          tuple(p.lattice.grades)), p)
    corpus_payload = {
        **corpus.spec.to_payload(),
        "source": "enumeration",
        "families_scanned": corpus.stats.families_scanned,
        "skipped_over_max_opens": corpus.stats.skipped_over_max_opens,
        "distinct_topologies": corpus.stats.distinct,
    }
    cases = {"named": len(named), "enumerated_total": total,
             "enumerated_scanned": scan, "random": random_count,
             "base_seed": base_seed, "pools": len(pools),
             "truncated": scan < total}
    return _report(started, chosen, rows, list(pools.values()), workers,
                   corpus_payload, cases, claim_filter, budget)


def audit_space(label: str, pool, ids, *,
                claim_filter: str | None = None) -> AuditReport:
    """Evaluate the selected claims on one space, its opens' ascending
    id tuple ``ids`` scanned exhaustively, with the pool claims on its
    pool alone: no enumeration, no random draws, no named catalogue."""
    started = time.monotonic()
    chosen = _select(claim_filter)
    corpus_payload = {
        "source": "document",
        "universe": list(pool.universe),
        "parameters": list(pool.parameters),
        "lattice": [str(g) for g in pool.lattice.grades],
        "document": label,
    }
    # the document case counts as the one named case
    cases = {"named": 1, "enumerated_total": 0, "enumerated_scanned": 0,
             "random": 0, "base_seed": 0, "pools": 1, "truncated": False}
    return _report(started, chosen, [(label, pool, ids, 0, True)],
                   [pool], 1, corpus_payload, cases, claim_filter, None)


def _report(started: float, chosen: tuple, rows: list, pools: list,
            workers: int, corpus_payload: dict, cases: dict,
            claim_filter: str | None, budget: int | None) -> AuditReport:
    """Evaluate ``chosen`` over the space cases ``rows``, the set
    ``pools`` and the recorded data, and build the report."""
    idents = {c.ident for c in chosen}
    tallies = {ident: _Tally() for ident in idents}
    space = {c.ident for c in chosen if c.scope == "space"}
    if space and rows:
        for part in _eval_schedule(rows, space, workers):
            for ident, packed in part.items():
                tallies[ident].merge(packed)
    if any(c.scope == "pool" for c in chosen):
        for order, pool in enumerate(pools):
            label = (f"pool-{len(pool.universe)}x{len(pool.parameters)}"
                     f"x{len(pool.lattice.grades)}")
            for ident, result in evaluate_pool_claims(pool, idents).items():
                tallies[ident].add(order, label, result)
    for ident, result in evaluate_fixed_claims(idents).items():
        tallies[ident].add(0, "recorded-data", result)

    claims_payload = {}
    counts = {STATUS_COUNTEREXAMPLE: 0, STATUS_PROVED: 0, STATUS_BUDGET: 0}
    alarms = []
    for claim in chosen:
        t = tallies[claim.ident]
        status = claim_status(claim, t.failures, cases["truncated"])
        counts[status] += 1
        witnesses = [{"case": label, "detail": detail}
                     for _, label, detail in sorted(t.witnesses)]
        claims_payload[claim.ident] = {
            "classification": claim.classification,
            "scope": claim.scope,
            "statement": claim.statement,
            "coverage": claim.coverage,
            "cases": t.cases,
            "instances": t.instances,
            "hypothesis_hits": t.hits,
            "failures": t.failures,
            "status": status,
            "witnesses": witnesses,
        }
        if t.failures and claim.classification == ASSERTED:
            for w in witnesses:
                alarms.append({"claim": claim.ident, "case": w["case"],
                               "detail": w["detail"]})

    payload = {
        "corpus": corpus_payload,
        "cases": cases,
        "filter": claim_filter or "all",
        "budget": budget,
        "claims": claims_payload,
        "alarms": sorted(alarms, key=lambda a: (a["claim"], a["case"],
                                                a["detail"])),
        "summary": {"claims": len(chosen), **counts},
    }
    return AuditReport(payload=payload, elapsed=time.monotonic() - started)


def search_counterexample(
    claim_ident: str,
    spec: CorpusSpec | None = None,
    *,
    budget: int | None = None,
    workers: int = 1,
    base_seed: int = 0,
) -> tuple[str, list[dict]]:
    """Status and witness list for a single claim (or claim family)."""
    report = run_audit(spec, claim_filter=claim_ident, budget=budget,
                       workers=workers, base_seed=base_seed)
    entries = list(report.claims.values())
    worst = STATUS_PROVED
    witnesses: list[dict] = []
    rank = {STATUS_PROVED: 0, STATUS_BUDGET: 1, STATUS_COUNTEREXAMPLE: 2}
    for e in entries:
        if rank[e["status"]] > rank[worst]:
            worst = e["status"]
        witnesses.extend(e["witnesses"])
    return worst, witnesses
