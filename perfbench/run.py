"""fstopo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs come from ``gen.py`` and the
seed.  Every operation runs in a fresh ``child.py`` process that calls
``fstopo.cli.main``; operations run one after another (a closed loop
with one client) for S seconds.  With ``--trace 0`` the last line of
stdout is the end-to-end result, its times scaled to the nominal host
speed of ``hostspeed.py``; with ``--trace 1`` it holds the per-layer
metrics of one traced pass, as measured.  The metric names and units are
those of ``BENCHMARK.json``.  A summary and the environment go to
stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

STARTED = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.relpath(os.path.join(HERE, ".work"), ROOT)

BUDGET = 3000  # enumerated cases scanned by each corpus audit
SETUP_SLOT_S = 1.0
SETUP_SAMPLES = 5  # at least this many set-up samples in a run
GOLDEN_SEED = 0
GOLDEN = os.path.join(HERE, "golden.json")
# a child still running this long after the run started is killed and
# the run fails, so that a hanging program cannot hold a run open
RUN_LIMIT_S = 170

WORKLOADS = ("audit-corpus", "audit-corpus-2w", "audit-doc", "query-doc")
LATTICES = ("auto", "4")


class Failure(Exception):
    """A wrong answer from the program, or a benchmark process that
    failed."""


def environment() -> dict:
    """What a result depends on besides the code; results taken under
    different environments are not compared."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


# -- inputs -----------------------------------------------------------------


class Plan:
    """The commands of one workload operation and how to check them."""

    def __init__(self, workload: str, seed: int):
        import gen

        self.workload = workload
        self.seed = seed
        self.files: list[str] = []
        self.workers = 2 if workload == "audit-corpus-2w" else 1
        self.cross: list[list[str]] | None = None
        if workload.startswith("audit-corpus"):
            self.commands = [self._corpus_argv(self.workers)]
            # the same audit at the other worker count, which must print
            # the same bytes: the serial end-to-end run checks that, and
            # the 2-worker traced run times its serial scan
            self.cross = [self._corpus_argv(3 - self.workers)]
        elif workload == "audit-doc":
            path = self._write("audit-doc.fst", gen.audit_document(seed))
            self.commands = [["audit", path, "--format", "structured"]]
        else:
            self.commands = []
            for k, text in enumerate(gen.query_documents(seed)):
                path = self._write(f"query-{k:02d}.fst", text)
                for lattice in LATTICES:
                    for query in (["validate"], ["axioms"], ["connected"],
                                  ["closure", "p1"], ["interior", "p2"]):
                        self.commands.append(
                            [query[0], path, *query[1:], "--lattice",
                             lattice, "--format", "structured"])

    def _corpus_argv(self, workers: int) -> list[str]:
        return ["audit", "--budget", str(BUDGET), "--workers", str(workers),
                "--seed", str(self.seed), "--format", "structured"]

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(WORK, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.files.append(path)
        return path


# -- processes --------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _timed_out(signum, frame):
    raise TimeoutError


def spawn(args: list[str]) -> tuple[float, float, str]:
    """Run ``child.py ARGS`` in a fresh process; wall s, peak RSS MB,
    stdout.  Raises Failure on a non-zero exit or at RUN_LIMIT_S."""
    err_path = os.path.join(WORK, "stderr.txt")
    out_path = os.path.join(WORK, "stdout.txt")
    left = int(RUN_LIMIT_S - (time.monotonic() - STARTED))
    if left < 1:
        raise Failure(f"no time left to start child {args[0]}")
    signal.signal(signal.SIGALRM, _timed_out)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        # its own process group, so that pool workers are killed with it
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            cwd=ROOT, env=_child_env(), stdout=out, stderr=err,
            start_new_session=True)
        signal.alarm(left)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise Failure(f"child {args[0]} still running after "
                          f"{RUN_LIMIT_S} s into the run; killed") from None
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise Failure(f"child {args[0]} exited {proc.returncode}: {tail}")
    return wall, usage.ru_maxrss / 1024.0, stdout


def run_op(plan: Plan, commands: list[list[str]], trace_dir=None) -> dict:
    """One operation: the commands in one fresh process.  Unless traced,
    the child samples the host speed, and ``wall`` and every command's
    ``ms`` are scaled to speed 1 (see hostspeed.py)."""
    manifest = os.path.join(WORK, "manifest.json")
    out = os.path.join(WORK, "results.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(commands, fh)
    args = ["batch", manifest, out]
    if trace_dir is not None:
        args += ["--trace", trace_dir]
    raw_wall, rss, _ = spawn(args)
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    host = data["host"]
    wall = raw_wall
    if host is not None:
        wall = (raw_wall - host["probe_s"]) * host["speed"]
    return {"wall": wall, "raw_wall": raw_wall, "rss": rss, "host": host,
            "results": data["commands"]}


# -- correctness ------------------------------------------------------------


class Checker:
    """Counts attempted and failed commands.

    A command fails on a wrong exit code, an alarm, output that differs
    from the golden digest (at the golden seed), from the same command's
    output earlier in this run, or between the two worker counts of the
    corpus audit, or a result the integer engine contradicts."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, str] = {}
        self.golden = None
        if plan.seed == GOLDEN_SEED and os.path.exists(GOLDEN):
            with open(GOLDEN, encoding="utf-8") as fh:
                golden = json.load(fh)
            key = plan.workload.replace("-2w", "")
            self.golden = golden.get(key)
        self.problems: list[str] = []

    def count(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)

    def check(self, op: dict, cross: bool = False) -> None:
        for k, res in enumerate(op["results"]):
            self.count(self._problem(k, res, cross))

    def _problem(self, k: int, res: dict, cross: bool) -> str | None:
        argv = (self.plan.cross if cross else self.plan.commands)[k]
        label = " ".join(argv)
        if res["exit"] != 0:
            return f"{label}: exit {str(res['exit']).splitlines()[-1]}"
        if self.golden is not None and res["sha256"] != self.golden[k]:
            return f"{label}: output differs from the golden digest"
        if k not in self.first:
            self.first[k] = res["sha256"]
            try:
                check_output(self.plan, argv, json.loads(res["stdout"]))
            except (Failure, ValueError, KeyError) as exc:
                return f"{label}: {exc!r}"
        elif res["sha256"] != self.first[k]:
            what = "the other worker count" if cross else "an earlier run"
            return f"{label}: output differs from {what}"
        return None


def check_output(plan: Plan, argv: list[str], report: dict) -> None:
    """Checks on one structured report beyond its digest."""
    results = report["results"]
    if argv[0] == "audit":
        from fstopo.claims import CLAIMS

        cases = results["cases"]
        if results["alarms"]:
            raise Failure(f"{len(results['alarms'])} alarms")
        if results["summary"]["claims"] != len(CLAIMS):
            raise Failure("not every claim was audited")
        if plan.workload == "audit-doc":
            expected = (1, 0, 0)
        else:
            expected = (9, min(BUDGET, cases["enumerated_total"]), 200)
        got = (cases["named"], cases["enumerated_scanned"], cases["random"])
        if got != expected:
            raise Failure(f"cases {got}, expected {expected}")
        return
    if "auto" not in argv:
        return
    # under the document's own lattice the set pool path of the claim
    # engine answers the same questions as the object path of the CLI
    import gen
    from fstopo.algebra import GradeLattice
    from fstopo.claims import SpaceCase
    from fstopo.document import parse_document
    from fstopo.topology import validate_topology

    with open(argv[1], encoding="utf-8") as fh:
        doc = parse_document(fh.read())
    space = validate_topology(doc.carrier, [s for _, s in doc.opens])
    pool = gen.pool_for(len(doc.universe), len(doc.parameters))
    if tuple(pool.lattice) != tuple(GradeLattice.close(doc.occurring_grades())):
        raise Failure("the document's lattice is not the generator's")
    case = SpaceCase(argv[1], pool,
                     tuple(sorted(pool.encode(o) for o in space.opens)))
    if argv[0] in ("closure", "interior"):
        table = case.cl() if argv[0] == "closure" else case.interior()
        want = pool.decode(table[pool.encode(doc.named_set(argv[2]))])
        if results["result"] != want.render():
            raise Failure(f"{argv[0]} disagrees with the integer engine")
    elif argv[0] == "connected":
        if results["connected"] != case.connected():
            raise Failure("connectedness disagrees with the integer engine")
    elif argv[0] == "axioms":
        engine = {"T0": case.t0(), "T1": case.t1(), "T2": case.t2(),
                  "regular": case.regular(), "normal": case.normal(),
                  "T3": case.t3(), "T4": case.t4(),
                  "points-closed": case.points_closed()}
        for verdict in results["verdicts"]:
            name = verdict["axiom"]
            if name in engine and engine[name] != verdict["holds"]:
                raise Failure(f"{name} disagrees with the integer engine")
    elif argv[0] == "validate" and not results["valid"]:
        raise Failure("a generated document failed validation")


# -- end-to-end run -----------------------------------------------------------


def _items(plan: Plan, op: dict) -> int:
    """Work items of one operation: audited cases, or answered queries."""
    if plan.workload == "query-doc":
        return len(op["results"])
    cases = json.loads(op["results"][0]["stdout"])["results"]["cases"]
    return cases["named"] + cases["enumerated_scanned"] + cases["random"]


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _tail_percentile(values: list[float]) -> float:
    """p90, or the highest percentile below it with at least ten samples
    beyond it; the median when there are too few samples for that."""
    n = len(values)
    return _percentile(values, max(50, min(90, 100 * (n - 10) // n)))


def sample_setup(plan: Plan, times: list[dict], least: int = 1) -> None:
    """Time the set-up in fresh processes, appending to TIMES: at least
    LEAST, more while this slot has taken under SETUP_SLOT_S, at most 4."""
    start = time.perf_counter()
    n = 0
    while n < least or (n < 4 and time.perf_counter() - start < SETUP_SLOT_S):
        _, _, out = spawn(["setup", plan.workload, *plan.files])
        times.append(json.loads(out))
        n += 1


def end_to_end(plan: Plan, seconds: float, checker: Checker) -> dict:
    # set-up is sampled before every operation and after the last one,
    # so that its samples meet the same host slowdowns as the operations
    setup: list[dict] = []
    ops: list[dict] = []
    # start another operation while its expected midpoint falls inside
    # the window, so a run lasts about --seconds whatever an op costs
    while not ops or (sum(op["raw_wall"] for op in ops)
                      + ops[-1]["raw_wall"] / 2
                      < seconds):
        sample_setup(plan, setup)
        op = run_op(plan, plan.commands)
        checker.check(op)
        ops.append(op)
    sample_setup(plan, setup, least=SETUP_SAMPLES - len(setup))
    if plan.cross is not None and plan.workers == 1:
        checker.check(run_op(plan, plan.cross), cross=True)
    latencies = [r["ms"] for op in ops for r in op["results"]]
    if len(latencies) == 1:
        latencies *= 2  # quantiles() needs two points
    walls = [op["wall"] for op in ops]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(s["scaled"] for s in setup),
        "cases_per_s": statistics.median(
            _items(plan, op) / op["wall"] for op in ops),
        "query_p50_ms": _percentile(latencies, 50),
        "query_p90_ms": _tail_percentile(latencies),
        "peak_rss_mb": statistics.median(op["rss"] for op in ops),
        "_samples": {"ops": len(ops), "commands": len(latencies),
                     "setups": len(setup)},
        # as measured, before scaling to speed 1
        "_raw": {"wall_s": statistics.median(op["raw_wall"] for op in ops),
                 "setup_s": statistics.median(s["raw"] for s in setup),
                 "host_speed": statistics.median(
                     op["host"]["speed"] for op in ops)},
    }


# -- traced run ---------------------------------------------------------------


def traced(plan: Plan, checker: Checker, layer_names: list[str]) -> dict:
    import spans

    plain = run_op(plan, plan.commands)
    checker.check(plain)
    trace_dir = os.path.join(WORK, "trace")
    os.makedirs(trace_dir)
    op = run_op(plan, plan.commands, trace_dir=trace_dir)
    checker.check(op)
    recorded = spans.load(trace_dir)
    own, calls = spans.self_times(recorded)
    with open(os.path.join(trace_dir, "counts.json"), encoding="utf-8") as fh:
        counts = json.load(fh)

    m = {name: 0.0 for name in layer_names}

    def put(metric: str, value) -> None:
        if metric in m:
            m[metric] = value

    for name, seconds in own.items():
        put(name + "_s", seconds)
    # both as measured, less the untraced op's host speed probes
    put("trace.overhead_s", op["raw_wall"]
        - (plain["raw_wall"] - plain["host"]["probe_s"]))
    put("claims.render_calls", calls.get(spans.RENDER, 0))
    put("corpus.table_slots", counts["corpus.table_slots"])
    put("cli.self_s", own.get("cli.main", 0.0))
    put("cli.emit_bytes", sum(r["bytes"] for r in op["results"]))
    put("auditor.self_s",
        own.get("auditor.run", 0.0) + own.get("auditor.chunk", 0.0))
    scan = _scan_s(recorded)
    put("auditor.scan_s", scan)
    if scan and plan.workers == 2:
        # the serial scan time over twice the 2-worker scan time, both
        # traced; the serial audit must print the same bytes
        serial_dir = os.path.join(WORK, "trace-serial")
        os.makedirs(serial_dir)
        serial = run_op(plan, plan.cross, trace_dir=serial_dir)
        checker.check(serial, cross=True)
        put("auditor.scaling_eff",
            _scan_s(spans.load(serial_dir)) / (2 * scan))

    if plan.workload != "query-doc":
        report = json.loads(op["results"][0]["stdout"])["results"]
        entries = report["claims"].values()
        failures = sum(e["failures"] for e in entries)
        put("claims.instances", sum(e["instances"] for e in entries))
        put("claims.hypothesis_hits",
            sum(e["hypothesis_hits"] for e in entries))
        put("claims.failures", failures)
        put("claims.witness_keep_ratio",
            sum(len(e["witnesses"]) for e in entries) / failures
            if failures else 0.0)
        if report["corpus"]["source"] == "enumeration":
            put("corpus.families_scanned", report["corpus"]["families_scanned"])
            put("corpus.distinct_spaces",
                report["corpus"]["distinct_topologies"])
        payload = os.path.join(WORK, "payload.json")
        with open(payload, "w", encoding="utf-8") as fh:
            fh.write(op["results"][0]["stdout"])
        replay_dir = os.path.join(WORK, "replay")
        os.makedirs(replay_dir)
        try:
            spawn(["replay", replay_dir, payload])
            checker.count(None)
        except Failure as exc:
            checker.count(f"per-claim replay: {exc}")
        claim_own, _ = spans.self_times(spans.load(replay_dir))
        for name, seconds in claim_own.items():
            if name.startswith(("claims.space.", "claims.pool.")):
                put(name + "_s", seconds)
    return m


def _scan_s(recorded: list[tuple]) -> float:
    """First chunk start to last chunk end of the enumerated scan."""
    chunks = [s for s in recorded if s[2] == "auditor.chunk"]
    if not chunks:
        return 0.0
    return max(s[4] for s in chunks) - min(s[3] for s in chunks)


# -- main -----------------------------------------------------------------------


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of "
                    "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="write the digests of one operation at the golden "
                    "seed to golden.json instead of measuring")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "fstopo")):
        print(f"error: no fstopo sources under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = benchmark_spec()

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    plan = Plan(args.workload, args.seed)
    if args.record_golden:
        return record_golden(plan)
    # the first import compiles the sources; keep that out of every timing
    subprocess.run([sys.executable, "-c", "import fstopo.cli"], cwd=ROOT,
                   env=_child_env(), check=True)
    checker = Checker(plan)
    try:
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values = traced(plan, checker, names)
            kinds = spec["per_layer"]
        else:
            values = end_to_end(plan, args.seconds or spec["run_seconds"],
                                checker)
            kinds = spec["end_to_end"]
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in kinds}
    env = {**environment(), "seed": args.seed}
    print(json.dumps({"workload": args.workload, "environment": env,
                      "samples": values.get("_samples"),
                      "unscaled": values.get("_raw"),
                      "ops_failed_ratio": checker.failed
                      / max(1, checker.attempted)}), file=sys.stderr)
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def record_golden(plan: Plan) -> int:
    """Write the digests of one checked operation at the golden seed."""
    if plan.seed != GOLDEN_SEED:
        print(f"error: goldens are recorded at seed {GOLDEN_SEED}",
              file=sys.stderr)
        return 2
    checker = Checker(plan)
    checker.golden = None
    op = run_op(plan, plan.commands)
    checker.check(op)
    if plan.cross is not None:
        checker.check(run_op(plan, plan.cross), cross=True)
    if checker.failed:
        print("error: " + "; ".join(checker.problems), file=sys.stderr)
        return 1
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    golden[plan.workload.replace("-2w", "")] = [
        r["sha256"] for r in op["results"]]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
