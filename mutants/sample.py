"""Sampled operator mutants: mutants drawn from the code, not a table.

Every operator site of the named modules is listed: ``&`` and ``|``,
``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``+`` and ``-``,
``<<`` and ``>>``, and ``and`` and ``or`` are swapped (in augmented
assignments too), and ``not`` and ``~`` are dropped.  Annotations are
skipped: under ``from __future__ import annotations`` they are never
evaluated, so a mutant there cannot be told apart.  So are f-strings,
which tokenize as one string with no operator tokens to swap.  A seeded
sample of the sites is drawn.  With the hand table's runner
(``mutants/run.py``) the script copies the tree to a temporary
directory, checks that the fast test files pass there unmutated, then
applies one mutant at a time, runs those files (stopping at the first
failure) under a timeout, and restores the file.

A survivor either gets a test that kills it, and a row in the hand
table of ``mutants/run.py``, or a line in ``mutants/equivalent.txt``:
the site as ``--list`` prints it, then `` :: `` and why no test can
tell it apart.  The run exits 0 only when every survivor is in that
ledger.

Usage, from the root of a checkout (standard library and pytest only):

    python3 mutants/sample.py --modules src/fstopo/corpus.py --count 40
    python3 mutants/sample.py --list --modules src/fstopo/corpus.py

A sample takes minutes, so it is not part of the test suite; the suite
checks only the sites listed (``sites`` and ``draw``, which start no
process).
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import random
import tempfile
import tokenize
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = ROOT / "mutants" / "equivalent.txt"
MODULES = ("src/fstopo/engine.py", "src/fstopo/deciders.py",
           "src/fstopo/softsets.py", "src/fstopo/topology.py",
           "src/fstopo/corpus.py", "src/fstopo/claims.py",
           "src/fstopo/auditor.py", "src/fstopo/document.py",
           "src/fstopo/cli.py")
# every test file but the slow acceptance run, the demos and the table
# check, the likeliest to fail first
FAST_TESTS = ("tests/test_corpus.py", "tests/test_engine.py",
              "tests/test_deciders.py", "tests/test_softsets.py",
              "tests/test_topology.py", "tests/test_algebra.py",
              "tests/test_points.py", "tests/test_document.py",
              "tests/test_cli.py", "tests/test_claims.py",
              "tests/test_auditor.py")

# operator node type -> (its token, the token of the mutant)
SWAPS = {
    ast.BitAnd: ("&", "|"), ast.BitOr: ("|", "&"),
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.LShift: ("<<", ">>"), ast.RShift: (">>", "<<"),
    ast.And: ("and", "or"), ast.Or: ("or", "and"),
    ast.Not: ("not", ""), ast.Invert: ("~", ""),
}


class Site(NamedTuple):
    path: str
    line: int  # 1-based
    col: int  # characters into the line
    old: str
    new: str
    label: str

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        text = lines[self.line - 1]
        assert text[self.col:self.col + len(self.old)] == self.old
        lines[self.line - 1] = (text[:self.col] + self.new
                                + text[self.col + len(self.old):])
        return "".join(lines)


def sites(path: str, source: str) -> list[Site]:
    """Every operator site of ``source`` outside annotations and
    f-strings, in source order.  A label names the function, the line's
    code and the swap, so it survives edits elsewhere in the module."""
    lines = source.splitlines()
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NAME)]

    def char_pos(line: int, byte_col: int) -> tuple[int, int]:
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    def start(node) -> tuple[int, int]:
        return char_pos(node.lineno, node.col_offset)

    def end(node) -> tuple[int, int]:
        return char_pos(node.end_lineno, node.end_col_offset)

    def token(text: str, lo, hi) -> tuple[int, int]:
        # the first token ``text`` at or after lo and before hi
        return next(t.start for t in tokens
                    if lo <= t.start < hi and t.string == text)

    tree = ast.parse(source)
    skip: set[int] = set()
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, ast.arg):
            notes.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
        elif isinstance(node, ast.JoinedStr):
            # an f-string is one STRING token, so its operators have none
            skip.update(map(id, ast.walk(node)))
        for note in filter(None, notes):
            skip.update(map(id, ast.walk(note)))

    def operators(node):
        """(op, lo, hi, suffix): the operator's token lies in [lo, hi)."""
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            yield node.op, end(node.left), start(node.right), ""
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            yield node.op, end(node.target), start(node.value), "="
        elif isinstance(node, ast.UnaryOp) and type(node.op) in SWAPS:
            yield node.op, start(node), start(node.operand), ""
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                yield node.op, end(left), start(right), ""
        elif isinstance(node, ast.Compare):
            for op, left, right in zip(node.ops, [node.left, *node.comparators],
                                       node.comparators):
                if type(op) in SWAPS:
                    yield op, end(left), start(right), ""

    found = []

    def visit(node, qual: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qual = f"{qual}.{node.name}" if qual else node.name
        if id(node) not in skip:
            for op, lo, hi, suffix in operators(node):
                old, new = SWAPS[type(op)]
                found.append((token(old + suffix, lo, hi), old + suffix,
                              new + suffix if new else new, qual))
        for child in ast.iter_child_nodes(node):
            visit(child, qual)

    visit(tree, "")
    found.sort()
    out = []
    seen: dict[str, int] = {}
    for (line, col), old, new, qual in found:
        label = (f"{path} {qual or '<module>'} `{lines[line - 1].strip()}` "
                 f"{old} -> {new or 'dropped'}")
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label += f" #{seen[label]}"
        out.append(Site(path, line, col, old, new, label))
    return out


def draw(all_sites: list[Site], count: int, seed: int) -> list[Site]:
    """A seeded sample of ``count`` sites (all of them if fewer), in
    source order."""
    rng = random.Random(seed)
    picked = rng.sample(range(len(all_sites)), min(count, len(all_sites)))
    return [all_sites[i] for i in sorted(picked)]


def ledger() -> dict[str, str]:
    """The equivalent mutants by label, with the reason for each."""
    if not LEDGER.is_file():
        return {}
    entries = {}
    for line in LEDGER.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            label, _, why = line.partition(" :: ")
            entries[label] = why
    return entries


def run(picked: list[Site]) -> dict[Site, str]:
    """Per mutant: 'killed', 'survived' or 'timeout'."""
    # the hand table's runner, from this script's directory
    from run import _outcome, copy_tree

    with tempfile.TemporaryDirectory(prefix="fstopo-sample-") as tmp:
        tree = copy_tree(tmp)
        if _outcome(tree, *FAST_TESTS) != "passed":
            raise SystemExit("the test files do not pass unmutated")
        outcomes = {}
        for site in picked:
            path = tree / site.path
            original = path.read_text()
            path.write_text(site.apply(original))
            try:
                result = _outcome(tree, *FAST_TESTS)
            finally:
                path.write_text(original)
            outcomes[site] = {"failed": "killed", "passed": "survived"}.get(
                result, result)
            print(f"{outcomes[site]}: {site.label}", flush=True)
        return outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--modules", nargs="+", default=list(MODULES))
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--list", action="store_true",
                    help="print every site and run nothing")
    args = ap.parse_args(argv)
    all_sites = [s for m in args.modules
                 for s in sites(m, (ROOT / m).read_text())]
    if args.list:
        print("\n".join(s.label for s in all_sites))
        return 0
    outcomes = run(draw(all_sites, args.count, args.seed))
    known = ledger()
    left = [s for s, o in outcomes.items() if o != "killed"
            and not (o == "survived" and s.label in known)]
    killed = sum(o == "killed" for o in outcomes.values())
    print(f"{killed} of {len(outcomes)} mutants killed, "
          f"{len(outcomes) - killed - len(left)} in the ledger")
    for s in left:
        print(f"{outcomes[s]}: {s.label}")
    return 0 if not left else 1


if __name__ == "__main__":
    raise SystemExit(main())
