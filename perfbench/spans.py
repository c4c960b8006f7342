"""In-memory span recorder for the traced runs.

A span is (id, parent id, name, start, end).  Spans are kept in memory
and written out once, when the traced process is done; a forked pool
worker writes its own spans at the end of each chunk it ran, because the
pool ends its workers without running exit handlers.

``install`` wraps fstopo's callables at the names their callers look
up: every module attribute bound to a wrapped function is rebound,
``cli.AXIOM_DECIDERS`` is rebuilt, and methods are wrapped on their
class.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

RENDER = "claims.render"

# span name -> (module, attribute path); the span name is the metric stem
FUNCTIONS = {
    "cli.main": ("cli", "main"),
    "document.parse": ("document", "parse_document"),
    "topology.validate": ("topology", "validate_topology"),
    "topology.closure": ("topology", "FuzzySoftTopology.closure"),
    "topology.interior": ("topology", "FuzzySoftTopology.interior"),
    "corpus.pool_tables": ("corpus", "SetPool.__init__"),
    "corpus.pool_points": ("corpus", "SetPool.build_points"),
    "corpus.enumerate": ("corpus", "SpaceCorpus.__init__"),
    "corpus.random_draw": ("corpus", "random_space_ids"),
    "claims.case_setup": ("claims", "SpaceCase.__init__"),
    "claims.space_eval": ("claims", "evaluate_space_case"),
    "claims.pool_eval": ("claims", "evaluate_pool_claims"),
    "claims.fixed_eval": ("claims", "evaluate_fixed_claims"),
    "auditor.run": ("auditor", "run_audit"),
    # the unit of work the enumerated scan hands to each worker
    "auditor.chunk": ("auditor", "_eval_enum_chunk"),
    RENDER + ".set": ("softsets", "FuzzySoftSet.render"),
    RENDER + ".point": ("points", "FuzzySoftPoint.render"),
}
DECIDERS = ("is_t0", "is_t1", "is_t2", "is_t3", "is_t4", "is_regular",
            "is_normal", "points_all_closed", "is_connected",
            "clopen_witness")
for _fn in DECIDERS:
    FUNCTIONS["deciders." + _fn] = ("deciders", _fn)


class Recorder:
    """Collects spans for one traced process and its forked workers."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.root_pid = self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.count = 0
        self.counts = {"corpus.table_slots": 0}
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # the open spans stay on the stack: they are the parents of the
        # spans the worker records
        self.pid = os.getpid()
        self.spans = []

    @contextlib.contextmanager
    def span(self, name: str):
        self.count += 1
        sid = f"{self.pid}:{self.count}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with rec.span(name):
                result = fn(*args, **kwargs)
            if name == "auditor.chunk" and rec.pid != rec.root_pid:
                rec.write()
            return result

        return traced

    def write(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans = []


def install(rec: Recorder) -> None:
    """Wrap every callable in FUNCTIONS wherever fstopo binds it."""
    import fstopo.cli  # imports every module FUNCTIONS names

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "fstopo" or n.startswith("fstopo.")]
    for name, (mod, path) in FUNCTIONS.items():
        if "." in path:
            _wrap_method(rec, name)
            continue
        owner = sys.modules["fstopo." + mod]
        original = getattr(owner, path)
        wrapped = rec.wrap(name, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)
    pool_cls = sys.modules["fstopo.corpus"].SetPool
    pool_init = pool_cls.__init__

    def counted_init(self, *args, **kwargs):
        pool_init(self, *args, **kwargs)
        # slots of the meet, join, complement and disjointness tables
        rec.counts["corpus.table_slots"] += 2 * self.size**2 + self.size

    pool_cls.__init__ = counted_init
    deciders = sys.modules["fstopo.deciders"]
    fstopo.cli.AXIOM_DECIDERS = tuple(
        (label, getattr(deciders, fn.__name__))
        for label, fn in fstopo.cli.AXIOM_DECIDERS)


def install_render(rec: Recorder) -> None:
    """Wrap only the two render methods."""
    import fstopo.cli  # noqa: F401  (imports the modules that define them)

    for name in (RENDER + ".set", RENDER + ".point"):
        _wrap_method(rec, name)


def _wrap_method(rec: Recorder, name: str) -> None:
    mod, path = FUNCTIONS[name]
    cls_name, attr = path.split(".")
    cls = getattr(sys.modules["fstopo." + mod], cls_name)
    setattr(cls, attr, rec.wrap(name, getattr(cls, attr)))


def load(out_dir: str) -> list[tuple]:
    spans = []
    for fname in sorted(os.listdir(out_dir)):
        if fname.startswith("spans-") and fname.endswith(".jsonl"):
            with open(os.path.join(out_dir, fname), encoding="utf-8") as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
    return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[tuple]) -> tuple[dict, dict]:
    """Summed self time and call count per span name.

    Self time is a span's duration minus the part of it that its child
    spans cover (children of one parent may overlap when they ran in
    parallel workers).  A render span outside the claims layer is not a
    layer of its own: its time stays with the span that called it.
    """
    by_id = {s[0]: s for s in spans}

    def key(s) -> str:
        if not s[2].startswith(RENDER):
            return s[2]
        parent = by_id.get(s[1])
        if parent is None or not parent[2].startswith("claims."):
            return ""
        return RENDER

    keyed = [(key(s), s) for s in spans]
    children: dict[str, list[tuple[float, float]]] = {}
    for k, s in keyed:
        if k and s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for k, (sid, _, _, start, end) in keyed:
        if not k:
            continue
        inside = [(max(lo, start), min(hi, end))
                  for lo, hi in children.get(sid, ()) if hi > start and lo < end]
        totals[k] = totals.get(k, 0.0) + (end - start) - _covered(inside)
        calls[k] = calls.get(k, 0) + 1
    return totals, calls
