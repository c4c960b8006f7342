"""Corpus-wide claim audit.

Drives every registered claim over three kinds of cases (the named
catalogue, the enumerated corpus, seeded random draws), aggregates the
outcomes per claim and derives one of three statuses:

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


def _tally_case(tallies: dict, case: SpaceCase, idents) -> None:
    """Evaluate the chosen space claims on ``case`` into ``tallies``."""
    for ident, result in evaluate_space_case(case, idents).items():
        tallies.setdefault(ident, _Tally()).add(case.order, case.label,
                                                result)


# worker context for fork-based parallelism; set in the parent right
# before the pool spawns so children inherit it
_CTX: dict = {}


def _eval_enum_chunk(bounds: tuple[int, int]) -> dict:
    corpus = _CTX["corpus"]
    idents = _CTX["idents"]
    start, end = bounds
    tallies: dict[str, _Tally] = {}
    for i in range(start, end):
        _tally_case(tallies, SpaceCase(
            corpus.label(i), corpus.pool, corpus.spaces[i],
            order=ENUM_ORDER_BASE + i,
            exhaustive=_is_exhaustive_enum(i),
        ), idents)
    return {ident: t.pack() for ident, t in tallies.items()}


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_audit(
    spec: CorpusSpec | None = None,
    *,
    claim_filter: str | None = None,
    budget: int | None = None,
    workers: int = 1,
    base_seed: int = 0,
    random_count: int = 200,
    single_case: tuple | None = None,
) -> AuditReport:
    """Evaluate the selected claims over the full case schedule.

    ``single_case`` as (label, pool, ids) swaps the whole schedule for
    one user-supplied space: no enumeration, no random draws, no named
    catalogue; pool claims run on that space's pool alone.
    """
    started = time.monotonic()
    chosen = select_claims(claim_filter)
    if not chosen:
        raise ValueError(f"no claim matches {claim_filter!r}")
    idents = {c.ident for c in chosen}

    tallies: dict[str, _Tally] = {c.ident: _Tally() for c in chosen}

    if single_case is not None:
        label, single_pool, single_ids = single_case
        _tally_case(tallies, SpaceCase(label, single_pool, tuple(single_ids),
                                       order=0, exhaustive=True), idents)
        corpus = None
        named = ()
        named_count = 1  # the document case itself
        total = scan = 0
        truncated = False
        random_labels = 0
        pools = [("pool-" + _shape_tag(single_pool), single_pool)]
    else:
        corpus = SpaceCorpus(spec or CorpusSpec.desk())
        total = len(corpus.spaces)
        scan = total if budget is None else max(0, min(budget, total))
        truncated = scan < total

        # named catalogue, evaluated in-process
        named = named_spaces()
        named_count = len(named)
        for order, ns in enumerate(named):
            _tally_case(tallies, SpaceCase(ns.label, ns.pool, ns.ids,
                                           order=order, exhaustive=True),
                        idents)

        # enumerated corpus, split across workers when asked
        if scan and any(c.scope == "space" for c in chosen):
            _CTX["corpus"] = corpus
            _CTX["idents"] = idents
            if workers > 1 and \
                    "fork" not in multiprocessing.get_all_start_methods():
                # workers inherit the corpus through fork; the serial scan
                # gives the same payload
                print("note: the fork start method is unavailable here; "
                      "auditing with one worker", file=sys.stderr)
                workers = 1
            # no more workers than this process may run on at once
            workers = min(workers, _usable_cpus())
            try:
                if workers > 1:
                    step = max(1, -(-scan // (workers * 8)))
                    bounds = [(lo, min(lo + step, scan))
                              for lo in range(0, scan, step)]
                    ctx = multiprocessing.get_context("fork")
                    with ctx.Pool(workers) as mp:
                        parts = mp.map(_eval_enum_chunk, bounds)
                else:
                    parts = [_eval_enum_chunk((0, scan))]
            finally:
                _CTX.clear()
            for part in parts:
                for ident, packed in part.items():
                    tallies[ident].merge(packed)

        # random draws over the corpus pool
        for j in range(random_count):
            seed = base_seed + 1 + j
            _tally_case(tallies, SpaceCase(
                f"random-{seed:03d}", corpus.pool,
                random_space_ids(seed, corpus.spec, corpus.pool),
                order=ENUM_ORDER_BASE + total + j,
                exhaustive=j % RANDOM_EXHAUSTIVE_STRIDE == 0), idents)
        random_labels = random_count

        # set pools: the corpus pool plus each distinct named shape
        pools = [("pool-" + _shape_tag(corpus.pool), corpus.pool)]
        seen_shapes = {_shape_key(corpus.pool)}
        for ns in named:
            key = _shape_key(ns.pool)
            if key not in seen_shapes:
                seen_shapes.add(key)
                pools.append(("pool-" + _shape_tag(ns.pool), ns.pool))
    if any(c.scope == "pool" for c in chosen):
        for order, (label, pool) in enumerate(pools):
            for ident, result in evaluate_pool_claims(pool, idents).items():
                tallies[ident].add(order, label, result)

    for ident, result in evaluate_fixed_claims(idents).items():
        tallies[ident].add(0, "recorded-data", result)

    claims_payload = {}
    counts = {STATUS_COUNTEREXAMPLE: 0, STATUS_PROVED: 0, STATUS_BUDGET: 0}
    alarms = []
    for claim in chosen:
        t = tallies[claim.ident]
        status = claim_status(claim, t.failures, truncated)
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

    if corpus is not None:
        corpus_payload = {
            **corpus.spec.to_payload(),
            "source": "enumeration",
            "families_scanned": corpus.stats.families_scanned,
            "skipped_over_max_opens": corpus.stats.skipped_over_max_opens,
            "distinct_topologies": corpus.stats.distinct,
        }
    else:
        single_pool = pools[0][1]
        corpus_payload = {
            "source": "document",
            "universe": list(single_pool.universe),
            "parameters": list(single_pool.parameters),
            "lattice": [str(g) for g in single_pool.lattice.grades],
            "document": single_case[0],
        }
    payload = {
        "corpus": corpus_payload,
        "cases": {
            "named": named_count,
            "enumerated_total": total,
            "enumerated_scanned": scan,
            "random": random_labels,
            "base_seed": base_seed,
            "pools": len(pools),
            "truncated": truncated,
        },
        "filter": claim_filter or "all",
        "budget": budget,
        "claims": claims_payload,
        "alarms": sorted(alarms, key=lambda a: (a["claim"], a["case"],
                                                a["detail"])),
        "summary": {"claims": len(chosen), **counts},
    }
    return AuditReport(payload=payload, elapsed=time.monotonic() - started)


def _shape_key(pool) -> tuple:
    return (tuple(pool.universe), tuple(pool.parameters),
            tuple(pool.lattice.grades))


def _shape_tag(pool) -> str:
    return (f"{len(pool.universe)}x{len(pool.parameters)}"
            f"x{len(pool.lattice.grades)}")


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
