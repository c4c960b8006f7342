"""One fresh benchmark process: run commands, time set-up, or replay.

    child.py batch MANIFEST OUT [--trace DIR]
        Run each argv list in MANIFEST through ``fstopo.cli.main`` in this
        process, in order, and write per-command latency, exit code,
        output digest and output to OUT, with the host speed this process
        saw (see hostspeed.py).  With --trace, record spans (see spans.py),
        write them and the counts to DIR, and leave the host speed
        unsampled and latencies as measured.
    child.py setup WORKLOAD [FILE ...]
        Time the set-up calls WORKLOAD pays on every run; print the
        seconds at speed 1 and as measured.
    child.py replay DIR PAYLOAD
        Replay the schedule of the audit whose structured output is
        PAYLOAD one claim at a time through the public functions, with
        render spans, and check that every claim's instances, hits and
        failures equal those in PAYLOAD.

Run from the checkout root with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback


def batch(manifest: str, out: str, trace_dir: str | None,
          sampler) -> None:
    rec = None
    if trace_dir is not None:
        import spans

        rec = spans.Recorder(trace_dir)
        spans.install(rec)
    import fstopo.cli

    with open(manifest, encoding="utf-8") as fh:
        commands = json.load(fh)
    results = []
    before = sampler.mark() if sampler else 0
    for argv in commands:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = fstopo.cli.main(argv)
        except Exception:  # a crash fails this command, not the batch
            code = "exception: " + traceback.format_exc()
        end = time.perf_counter()
        ms = (end - start) * 1000.0
        if sampler:
            after = sampler.mark()
            ms = sampler.scaled(start, end, before, after) * 1000.0
            before = after
        text = buf.getvalue()
        results.append({
            "ms": ms,
            "exit": code,
            "bytes": len(text.encode()),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "stdout": text,
        })
    if rec is not None:
        rec.write()
        with open(f"{trace_dir}/counts.json", "w", encoding="utf-8") as fh:
            json.dump(rec.counts, fh)
    host = None
    if sampler:
        sampler.stop()
        host = sampler.summary()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"commands": results, "host": host}, fh)


def setup(workload: str, files: list[str], sampler) -> dict:
    """Seconds spent in the calls each run of WORKLOAD pays before its
    real work: corpus enumeration, or document parse/validate (and, for
    the document audit, its set pool with point tables); at speed 1 and
    as measured."""
    from fstopo.algebra import GradeLattice
    from fstopo.corpus import CorpusSpec, SetPool, SpaceCorpus
    from fstopo.document import parse_document
    from fstopo.topology import validate_topology

    texts = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    first = sampler.mark()
    start = time.perf_counter()
    if workload.startswith("audit-corpus"):
        SpaceCorpus(CorpusSpec.desk())
    for text in texts:
        doc = parse_document(text)
        validate_topology(doc.carrier, [s for _, s in doc.opens])
        if workload == "audit-doc":
            pool = SetPool(doc.universe, doc.parameters,
                           GradeLattice.close(doc.occurring_grades()))
            pool.build_points()
    end = time.perf_counter()
    last = sampler.mark()
    sampler.stop()
    return {"scaled": sampler.scaled(start, end, first, last),
            "raw": end - start}


def replay(trace_dir: str, payload_path: str) -> None:
    """Per-claim pass over the schedule ``run_audit`` followed for
    PAYLOAD, through the public functions, one claim per call."""
    import spans

    rec = spans.Recorder(trace_dir)
    spans.install_render(rec)

    from fstopo import auditor
    from fstopo.algebra import GradeLattice
    from fstopo.claims import (
        CLAIMS,
        SpaceCase,
        evaluate_fixed_claims,
        evaluate_pool_claims,
        evaluate_space_case,
    )
    from fstopo.corpus import (
        CorpusSpec,
        SetPool,
        SpaceCorpus,
        named_spaces,
        random_space_ids,
    )
    from fstopo.document import parse_document
    from fstopo.topology import validate_topology

    with open(payload_path, encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    cases = results["cases"]
    space_ids = [c.ident for c in CLAIMS if c.scope == "space"]
    pool_ids = [c.ident for c in CLAIMS if c.scope == "pool"]
    totals: dict[str, list[int]] = {}

    def tally(ident: str, result) -> None:
        checked, hits, fails = result
        t = totals.setdefault(ident, [0, 0, 0])
        t[0] += checked
        t[1] += hits
        t[2] += len(fails)

    def run_case(case) -> None:
        for ident in space_ids:
            with rec.span("claims.space." + ident):
                result = evaluate_space_case(case, {ident})[ident]
            tally(ident, result)

    def run_pool(pool) -> None:
        for ident in pool_ids:
            with rec.span("claims.pool." + ident):
                result = evaluate_pool_claims(pool, {ident})[ident]
            tally(ident, result)

    if results["corpus"]["source"] == "enumeration":
        spec = CorpusSpec.desk()
        corpus = SpaceCorpus(spec)
        total = len(corpus.spaces)
        named = named_spaces()
        for order, ns in enumerate(named):
            run_case(SpaceCase(ns.label, ns.pool, ns.ids, order=order,
                               exhaustive=True))
        for i in range(cases["enumerated_scanned"]):
            run_case(SpaceCase(
                corpus.label(i), corpus.pool, corpus.spaces[i],
                order=auditor.ENUM_ORDER_BASE + i,
                exhaustive=(i < auditor.EXHAUSTIVE_HEAD
                            or i % auditor.EXHAUSTIVE_STRIDE == 0)))
        for j in range(cases["random"]):
            seed = cases["base_seed"] + 1 + j
            ids = random_space_ids(seed, spec, corpus.pool)
            run_case(SpaceCase(
                f"random-{seed:03d}", corpus.pool, ids,
                order=auditor.ENUM_ORDER_BASE + total + j,
                exhaustive=j % auditor.RANDOM_EXHAUSTIVE_STRIDE == 0))
        pools = {}
        for pool in [corpus.pool] + [ns.pool for ns in named]:
            shape = (tuple(pool.universe), tuple(pool.parameters),
                     tuple(pool.lattice.grades))
            pools.setdefault(shape, pool)
        for pool in pools.values():
            run_pool(pool)
    else:
        path = results["corpus"]["document"]
        with open(path, encoding="utf-8") as fh:
            doc = parse_document(fh.read())
        space = validate_topology(doc.carrier, [s for _, s in doc.opens])
        pool = SetPool(doc.universe, doc.parameters,
                       GradeLattice.close(doc.occurring_grades()))
        ids = tuple(sorted(pool.encode(o) for o in space.opens))
        run_case(SpaceCase(path, pool, ids, order=0, exhaustive=True))
        run_pool(pool)
    for ident, result in evaluate_fixed_claims().items():
        tally(ident, result)
    rec.write()

    for ident, entry in results["claims"].items():
        want = [entry["instances"], entry["hypothesis_hits"],
                entry["failures"]]
        if totals.get(ident) != want:
            raise SystemExit(f"replay of {ident} gives {totals.get(ident)}, "
                             f"the audit gave {want}")
    if set(totals) != set(results["claims"]):
        raise SystemExit("replay and audit cover different claims")


def main(argv: list[str]) -> None:
    mode = argv[0]
    trace_dir = argv[4] if argv[3:4] == ["--trace"] else None
    sampler = None
    if mode == "setup" or mode == "batch" and trace_dir is None:
        import hostspeed

        # before fstopo is imported, so that the import is sampled too
        sampler = hostspeed.Sampler()
        sampler.start()
    if mode == "batch":
        batch(argv[1], argv[2], trace_dir, sampler)
    elif mode == "setup":
        print(json.dumps(setup(argv[1], argv[2:], sampler)))
    elif mode == "replay":
        replay(argv[1], argv[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
