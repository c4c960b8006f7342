import importlib.util
import pathlib

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
