"""Command line front end.

Seven commands over space documents: validate, closure, interior,
axioms, connected, subspace, audit.  Exit codes: 0 success (verdicts
are data, not errors), 1 validation failure, 2 parse or usage error,
3 cap exceeded, 4 soundness alarm from the claim audit.

Structured output is one JSON document per run with sorted keys, no
timestamps and no floating point, so fixed inputs give fixed bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .algebra import CapExceededError, GradeError, GradeLattice, as_grade
from .auditor import audit_space, run_audit
from .claims import select_claims
from .corpus import SetPool
from .deciders import (
    DeciderConfig,
    is_connected,
    clopen_witness,
    is_normal,
    is_regular,
    is_t0,
    is_t1,
    is_t2,
    is_t3,
    is_t4,
    points_all_closed,
)
from .document import (
    DocumentError,
    SpaceDocument,
    document_from_topology,
    parse_document,
)
from .points import DEFAULT_POINT_CAP
from .topology import (
    CarrierBoundError,
    TopologyValidationError,
    validate_topology,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_ALARM = 4


class _UsageError(ValueError):
    pass


class _ValidationFailure(ValueError):
    pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing reads it
    and nothing changes it after this returns."""
    parser = argparse.ArgumentParser(
        prog="fstopo",
        description="Finite fuzzy soft topological spaces: validation, "
        "closure structure, separation axioms, connectedness and a "
        "claim audit, all in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--lattice", default="auto", metavar="SPEC",
            help="grade lattice: 'auto' (close over the document's grades), "
            "a denominator N for 0/N..N/N, or an explicit comma list "
            "such as '0,1/3,2/3,1'")
        p.add_argument(
            "--disjointness", default="pointwise",
            choices=("pointwise", "cross-parameter"),
            help="how set disjointness is read (default pointwise)")
        p.add_argument(
            "--pair-relation", default=None,
            choices=("distinct", "disjoint"),
            help="override the point-pair relation for the separation "
            "axioms (default: per-axiom)")
        p.add_argument("--cap", type=int, default=None, metavar="N",
                       help="search size cap (default library limits)")
        p.add_argument("--seed", type=int, default=0, metavar="N",
                       help="base seed for seeded draws (default 0)")
        p.add_argument("--format", default="text",
                       choices=("text", "structured"),
                       help="output format (default text)")

    p = sub.add_parser("validate", help="check the topology axioms")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("closure", help="closure of a named set")
    p.add_argument("file")
    p.add_argument("name")
    common(p)

    p = sub.add_parser("interior", help="interior of a named set")
    p.add_argument("file")
    p.add_argument("name")
    common(p)

    p = sub.add_parser("axioms", help="separation axiom verdict table")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("connected", help="connectedness and clopen scan")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("subspace", help="induced subspace document")
    p.add_argument("file")
    p.add_argument("name")
    p.add_argument("out")
    common(p)

    p = sub.add_parser("audit", help="claim audit over the corpus or a file")
    p.add_argument("file", nargs="?", default=None,
                   help="audit this one space instead of the corpus")
    p.add_argument("--claim", default=None, metavar="IDENT",
                   help="restrict to one claim or claim family")
    p.add_argument("--budget", type=int, default=None, metavar="N",
                   help="cap on enumerated cases scanned")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="forked workers that split every scheduled case")
    common(p)

    return parser


# -- shared plumbing -------------------------------------------------------


def _read_document(path: str) -> SpaceDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from None
    return parse_document(text)


def _resolve_lattice(spec: str, grades: set[Fraction],
                     cap: int) -> GradeLattice:
    """The lattice ``spec`` names; ``auto`` closes ``grades``, the
    document's occurring grades.  A denominator above ``cap`` is refused
    before its grades are built."""
    try:
        if spec == "auto":
            return GradeLattice.close(grades)
        if re.fullmatch(r"[0-9]+", spec):
            n = int(spec)
            if n > cap:
                raise CapExceededError("lattice denominator", n, cap)
            return GradeLattice.uniform(n)
        if "," in spec:
            grades = tuple(as_grade(t.strip(" \t"))
                           for t in spec.split(",") if t.strip(" \t"))
            return GradeLattice(tuple(sorted(set(grades))))
    except CapExceededError:
        raise
    except (ValueError, GradeError) as exc:
        raise _UsageError(f"bad lattice {spec!r}: {exc}") from None
    raise _UsageError(f"bad lattice {spec!r}: expected 'auto', a "
                      "denominator, or a comma list of grades")


def _check_lattice_covers(lattice: GradeLattice,
                          grades: set[Fraction]) -> None:
    """Refuse, naming the least, any of ``grades`` outside ``lattice``."""
    missing = grades.difference(lattice.grades)
    if missing:
        raise _UsageError(
            f"grade {min(missing)} from the document is not in the selected "
            f"lattice {lattice.render()}")


def _config(args, lattice: GradeLattice) -> DeciderConfig:
    kwargs = {
        "lattice": lattice,
        "disjointness_mode": args.disjointness.replace("-", "_"),
        "point_pair_relation": args.pair_relation,
    }
    if args.cap is not None:
        kwargs["cap"] = args.cap
    return DeciderConfig(**kwargs)


def _emit(args, lattice: GradeLattice | None, results: dict,
          lines: list[str], exit_code: int = EXIT_OK, extra=None) -> int:
    """Write the run's output and return ``exit_code``: ``lines`` as text,
    or under ``--format structured`` the report of ``args.command``, its
    results and its config, echoed from ``args`` and ``extra`` with the
    lattice given (the ``--lattice`` text when None)."""
    if args.format != "structured":
        sys.stdout.write("\n".join(lines) + "\n")
        return exit_code
    config = {
        "lattice": ([str(g) for g in lattice]
                    if lattice is not None else args.lattice),
        "disjointness": args.disjointness,
        "pair_relation": args.pair_relation or "per-axiom",
        "cap": args.cap,
        "seed": args.seed,
    }
    if getattr(args, "file", None) is not None:
        config["file"] = os.path.normpath(args.file)
    config.update(extra or {})
    report = {"command": args.command, "config": config, "results": results,
              "exit": exit_code}
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return exit_code


def _load(args, build: bool = True):
    """(document, lattice, space) for ``args.file``: the document read,
    the lattice resolved from ``--lattice`` and checked to hold its
    grades, and the validated topology, or None when ``build`` is off;
    a family failing the axioms is a validation failure."""
    doc = _read_document(args.file)
    grades = doc.occurring_grades()
    lattice = _resolve_lattice(
        args.lattice, grades,
        DEFAULT_POINT_CAP if args.cap is None else args.cap)
    _check_lattice_covers(lattice, grades)
    if not build:
        return doc, lattice, None
    try:
        space = validate_topology(doc.carrier, [s for _, s in doc.opens])
    except TopologyValidationError as exc:
        raise _ValidationFailure(
            "; ".join(v.render() for v in exc.violations)) from None
    return doc, lattice, space


def _named_set(doc: SpaceDocument, name: str):
    try:
        return doc.named_set(name)
    except KeyError:
        raise _UsageError(f"no set named {name!r}; document has "
                          f"{', '.join(doc.names())}") from None


# -- commands --------------------------------------------------------------


def cmd_validate(args) -> int:
    doc, lattice, _ = _load(args, build=False)
    try:
        space = validate_topology(doc.carrier, [s for _, s in doc.opens])
        violations = []
    except TopologyValidationError as exc:
        space = None
        violations = list(exc.violations)
    results = {
        "valid": space is not None,
        "carrier": doc.carrier.render(),
        "opens": [s.render() for _, s in doc.opens],
        "violations": [
            {"axiom": v.axiom, "detail": v.detail} for v in violations],
    }
    lines = [f"carrier: {doc.carrier.render()}",
             f"opens: {len(doc.opens)}"]
    if space is not None:
        lines.append("valid: the family satisfies all three axioms")
    else:
        lines.append("INVALID:")
        lines.extend(f"  {v.render()}" for v in violations)
    return _emit(args, lattice, results, lines,
                 EXIT_OK if space is not None else EXIT_INVALID)


def cmd_closure_interior(args) -> int:
    doc, lattice, space = _load(args)
    target = _named_set(doc, args.name)
    which = args.command
    if which == "closure":
        result = space.closure(target)
        used = [k for k in space.closed_sets if target.leq(k)]
        used_key = "closed_supersets"
    else:
        result = space.interior(target)
        used = [o for o in space.opens if o.leq(target)]
        used_key = "open_subsets"
    results = {
        "set": args.name,
        "input": target.render(),
        "result": result.render(),
        used_key: [s.render() for s in used],
    }
    lines = [f"{which} of {args.name} = {result.render()}",
             f"{used_key.replace('_', ' ')}:"]
    lines.extend(f"  {s.render()}" for s in used)
    return _emit(args, lattice, results, lines)


AXIOM_DECIDERS = (
    ("T0", is_t0),
    ("T1", is_t1),
    ("T2", is_t2),
    ("regular", is_regular),
    ("T3", is_t3),
    ("normal", is_normal),
    ("T4", is_t4),
    ("points_all_closed", points_all_closed),
)


def cmd_axioms(args) -> int:
    doc, lattice, space = _load(args)
    cfg = _config(args, lattice)
    verdicts = [(label, fn(space, cfg)) for label, fn in AXIOM_DECIDERS]
    results = {"verdicts": [v.to_payload() for _, v in verdicts]}
    lines = []
    for label, v in verdicts:
        lines.append(f"{label}: {'holds' if v.holds else 'fails'}")
        if v.witness is not None:
            lines.append(f"  witness: {v.witness.render()}")
        elif v.detail:
            lines.append(f"  ({v.detail})")
    lines.append(f"config: lattice {lattice.render()}; "
                 f"disjointness {args.disjointness}; "
                 f"pair relation {args.pair_relation or 'per-axiom'}")
    return _emit(args, lattice, results, lines)


def cmd_connected(args) -> int:
    doc, lattice, space = _load(args)
    cfg = _config(args, lattice)
    verdict = is_connected(space, cfg)
    clopen = clopen_witness(space)
    if verdict.holds and clopen is None:
        note = "agreement: no separation and no proper nonempty clopen set"
    elif not verdict.holds and clopen is not None:
        note = "agreement: separation and proper nonempty clopen set both exist"
    elif verdict.holds:
        note = ("disagreement: a proper nonempty clopen set exists, yet "
                "no separation does")
    else:
        note = ("disagreement: a separation exists, yet no open set other "
                "than the null set and the carrier is closed")
    results = {
        "connected": verdict.holds,
        "separation": (None if verdict.witness is None
                       else list(verdict.witness.rendered)),
        "clopen": None if clopen is None else clopen.render(),
        "note": note,
    }
    lines = [f"connected: {'yes' if verdict.holds else 'no'}"]
    if verdict.witness is not None:
        lines.append(f"  separation: {verdict.witness.render()}")
    lines.append(f"clopen witness: "
                 f"{clopen.render() if clopen is not None else 'none'}")
    lines.append(note)
    return _emit(args, lattice, results, lines)


def cmd_subspace(args) -> int:
    doc, lattice, space = _load(args)
    g = _named_set(doc, args.name)
    try:
        sub = space.subspace(g)
    except CarrierBoundError as exc:
        raise _ValidationFailure(str(exc)) from None
    out_doc = document_from_topology(
        sub.carrier, sub.opens, lattice_spec=tuple(lattice))
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out_doc.render())
    except OSError as exc:
        raise _UsageError(f"cannot write {args.out}: {exc.strerror}") from None
    results = {
        "carrier": sub.carrier.render(),
        "opens": [o.render() for o in sub.opens],
        "out": args.out,
    }
    lines = [f"subspace carrier: {sub.carrier.render()}",
             f"induced opens ({len(sub.opens)}):"]
    lines.extend(f"  {o.render()}" for o in sub.opens)
    lines.append(f"written to {args.out}")
    return _emit(args, lattice, results, lines)


def cmd_audit(args) -> int:
    # the claims fix their own readings; refuse flags the report would
    # echo over results they do not change
    if args.disjointness != "pointwise" or args.pair_relation is not None:
        raise _UsageError("audit takes neither --disjointness nor "
                          "--pair-relation: each claim fixes its own reading")
    if args.claim is not None and not select_claims(args.claim):
        raise _UsageError(f"unknown claim {args.claim!r}")
    if args.file is not None and (args.seed != 0 or args.budget is not None
                                  or args.workers != 1):
        raise _UsageError("audit FILE takes no --seed, --budget or "
                          "--workers: they steer the corpus scan")
    if args.workers < 1 or (args.budget is not None and args.budget < 0):
        raise _UsageError("audit takes --workers of at least 1 and "
                          "--budget of at least 0")
    if args.file is None and (args.lattice != "auto" or args.cap is not None):
        raise _UsageError("audit without FILE takes neither --lattice nor "
                          "--cap: the corpus fixes its own shape and sizes")
    if args.file is not None:
        doc, lattice, space = _load(args)
        pool_kwargs = {} if args.cap is None else {"cap": args.cap}
        pool = SetPool(doc.universe, doc.parameters, lattice, **pool_kwargs)
        ids = tuple(sorted(pool.encode(o) for o in space.opens))
        # named as the echo names it, so doc.fst and ./doc.fst are one case;
        # only the name is normalised, since ".." after a symlink differs
        report_obj = audit_space(os.path.normpath(args.file), pool, ids,
                                 claim_filter=args.claim)
        lattice_echo = lattice
    else:
        report_obj = run_audit(
            claim_filter=args.claim,
            budget=args.budget,
            workers=args.workers,
            base_seed=args.seed,
        )
        lattice_echo = None
    return _emit(args, lattice_echo, report_obj.to_payload(),
                 report_obj.render_text().splitlines(),
                 EXIT_ALARM if report_obj.alarms else EXIT_OK,
                 extra={"claim": args.claim or "all", "budget": args.budget})


COMMANDS = {
    "validate": cmd_validate,
    "closure": cmd_closure_interior,
    "interior": cmd_closure_interior,
    "axioms": cmd_axioms,
    "connected": cmd_connected,
    "subspace": cmd_subspace,
    "audit": cmd_audit,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.cap is not None and args.cap < 0:
            raise _UsageError("--cap takes a count of at least 0")
        return COMMANDS[args.command](args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
