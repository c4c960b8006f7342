import ast
import importlib.util
import pathlib
import subprocess

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_mutant_applies():
    # each mutant's text occurs exactly once and its tests exist, so the
    # table cannot go stale silently; no mutant is run here
    spec = importlib.util.spec_from_file_location(
        "mutants_run", ROOT / "mutants" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.MUTANTS
    assert module.stale(ROOT) == []


def load_sampler():
    spec = importlib.util.spec_from_file_location(
        "mutants_sample", ROOT / "mutants" / "sample.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''\
from __future__ import annotations


def f(x: int | None, y: "a | b" = 1 | 2) -> dict[str, int] | None:
    z: int | None = x & y
    if not x and y < 3:
        z |= ~y
    return z
'''


def test_sampler_lists_operator_sites_outside_annotations(monkeypatch):
    sample = load_sampler()
    # listing and drawing start no process
    monkeypatch.setattr(subprocess, "run", None)
    got = sample.sites("m.py", SNIPPET)
    assert [(s.line, s.old, s.new) for s in got] == [
        (4, "|", "&"), (5, "&", "|"), (6, "not", ""), (6, "and", "or"),
        (6, "<", "<="), (7, "|=", "&="), (7, "~", "")]
    assert got[2].label == "m.py f `if not x and y < 3:` not -> dropped"
    assert got[2].apply(SNIPPET).splitlines()[5] == "    if  x and y < 3:"
    assert got[5].apply(SNIPPET).splitlines()[6] == "        z &= ~y"
    # every site of the sampled modules applies and still parses, and a
    # seed draws the same sites each time
    every = [s for m in sample.MODULES
             for s in sample.sites(m, (ROOT / m).read_text())]
    assert len({s.label for s in every}) == len(every)
    # every ledger line names a site there, so it cannot go stale
    assert set(sample.ledger()) <= {s.label for s in every}
    for s in every:
        ast.parse(s.apply((ROOT / s.path).read_text()))
    drawn = sample.draw(every, 40, 0)
    assert drawn == sample.draw(every, 40, 0) != sample.draw(every, 40, 1)
    assert len(drawn) == 40 and drawn == sorted(drawn, key=every.index)
