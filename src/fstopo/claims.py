"""Checkable claims about spaces, set pools and fixed worked examples.

Everything the auditor can evaluate lives here, keyed by a short ident.
Claims carry one of three classifications:

* ``asserted-invariant``: expected to hold on every case; any failure is
  a soundness alarm for the library itself.
* ``audited``: checked empirically, counterexamples are recorded as
  results rather than errors.
* ``reproduced-example``: a fixed worked example replayed exactly.

A claim is declared once, by the ``_claim`` decorator on its evaluator:
the decorator builds the ``Claim`` record (ident, classification, scope,
statement, coverage) and registers the function under it, so the order
of the definitions below is the order of ``CLAIMS`` and of every report.
An evaluator returns (instances checked, hypothesis hits, failure
strings), with at most ``_MAX_FAILS`` failure strings.

This module is the claim catalogue and the code that evaluates it; the
integer engine the space claims read lives in ``engine.py``.
Space-scope claims run once per topology through a ``SpaceCase`` built
over the integer set-pool encoding; pool-scope claims run once per
distinct shape; fixed-scope claims run once per audit.  A claim reads a
space's axioms, or those of its subspace at g, through
``SpaceCase.holds(name, g)`` and their first failing pair through
``SpaceCase.ax``.  The CON claims about connected subspaces read their
hypothesis from one bit of ``SpaceCase.connected_sets()``, the non-null
sets under the carrier outside the mask of disconnected subspaces.  Set
ids are read only through ``SetPool``'s tables and methods, never
through their digits.

Where a claim quantifies over pairs or subsets inside one case, it either
scans them completely or probes a deterministic arithmetic sample (no
hashing, so results never depend on interpreter state); each claim's
``coverage`` string says which.  Every probe is drawn by
``_scan_indices``: cases flagged ``exhaustive`` widen it to a full scan
of at most ``EXHAUSTIVE_LIMIT`` indices, and past that to eight times
the probe.

A claim decides its whole sample in one pass.  ``_scan`` drives a claim
over its scanned indices with two functions the claim hands it:
``test(indices)`` returns the hypothesis hits and the failing indices in
scan order, as comprehensions over the pool's list rows, and
``render(t)`` formats the failure at index t.  The claims that walk
samples of their own (CON.COARSER, CON.SEPCHAR-*, CON.BETWEEN,
CON.CLOSURE-CONN) list their instances the same way.  Every claim keeps
its failures through ``_first_fails``, which draws a lazy stream of
failure strings up to ``_MAX_FAILS``, so a failure is rendered only when
it is kept and the cap is read in one place.

A pair claim over the pool's n sets may also hand ``_scan`` its rows.
When the scan covers every pair (an exhaustive case with n**2 at most
``EXHAUSTIVE_LIMIT``, so every id fits in a byte), ``_scan`` reads one
row per set g instead of running the test over the n**2 pairs: the
row's hypothesis hits and its failing partners h.  The rows come from a
whole-row kernel over the byte rows of ``SetPool.lanes()``, one byte
per h, run for all n rows at once as ``map`` pipelines, lane by lane: a
``bytes.translate`` of g's meet or join row through a lane table of
``cl()`` or ``interior()`` (``SpaceCase.lanes``) gives the thermometer
codes of f(g op h) for every h, and a few int operations per row
compare them with f(g)'s code met or joined with the packed codes of
f(h); the failing h of a row are the bytes (or bits) left nonzero.  A
kernel reads closure and interior as data and takes only order, meet
and join from their cellwise definitions, never the law its claim
audits.  The test stays the claim's definition: ``test(range(n**2))``
gives the rows' counts and failures, in their order, and the probed
scans run it.

On a pool of at most 256 sets the claims over every set (CL.1, CL.2,
CL.5, CL.6, CL.FIXED and NBD.OPEN-IFF) first compare whole byte rows,
gathered by ``bytes.translate`` from ``SpaceCase.row_bytes``, and list
their failing sets only when the rows differ; NBD.4 reads the sets that
no open interpolates off the same rows.  Larger pools run the per-set
generators, which are the definitions.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .algebra import FuzzySet, Universe
from .corpus import SetPool, spread
from .engine import SpaceCase, _bits, _mask, _separations, _sep_pair
from .points import FuzzySoftPoint, point_in
from .softsets import FuzzySoftSet, ParameterSet

ASSERTED = "asserted-invariant"
AUDITED = "audited"
REPRODUCED = "reproduced-example"
CLASSIFICATIONS = (ASSERTED, AUDITED, REPRODUCED)
SCOPES = ("space", "pool", "fixed")

PAIR_PROBES = 36
TRIPLE_PROBES = 24
SUBSET_PROBES = 12
CLOSED_PROBES = 6
EXHAUSTIVE_LIMIT = 40000
_STRIDE = 7919  # prime
_MAX_FAILS = 3

# a translate table flagging every id but the null set's 0
_NON_NULL = b"\x00" + b"\xff" * 255

# coverage strings shared by several claims
_PROBE_PAIRS = (f"ordered set pairs probed ({PAIR_PROBES} per case), full "
                f"scan on exhaustive cases")
_PROBE_SUBSETS = (f"carriers probed ({SUBSET_PROBES} per case), full scan "
                  f"on exhaustive cases")
_EVERY_SET = "every lattice set of each case"
_PER_CASE = "decided once per case"


@dataclass(frozen=True)
class Claim:
    ident: str
    classification: str
    scope: str  # "space" | "pool" | "fixed"
    statement: str
    coverage: str
    # complete=True means the default evaluation scans its whole domain,
    # so a clean run counts as proof by exhaustion at the audited sizes
    complete: bool = True


# ident -> (claim, evaluator), in declaration order
_REGISTRY: dict = {}


def _claim(ident: str, classification: str, scope: str, statement: str,
           coverage: str, complete: bool = True):
    """Declare a claim; the decorated function becomes its evaluator.

    Space evaluators take a ``SpaceCase``, pool evaluators a ``SetPool``
    and fixed evaluators nothing.
    """
    if ident in _REGISTRY:
        raise ValueError(f"duplicate claim ident {ident!r}")
    if classification not in CLASSIFICATIONS:
        raise ValueError(f"unknown classification {classification!r} "
                         f"on {ident}")
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r} on {ident}")
    claim = Claim(ident, classification, scope, statement, coverage,
                  complete)

    def register(evaluate):
        _REGISTRY[ident] = (claim, evaluate)
        return evaluate

    return register


def _probe(total: int, count: int, salt: int):
    """Deterministic index sample: ``salt + k * _STRIDE`` mod ``total``
    for k below ``count``; the whole range when it fits."""
    if total <= count:
        return range(total)
    return [x % total for x in range(salt, salt + count * _STRIDE, _STRIDE)]


def _scan_indices(case: "SpaceCase", total: int, count: int, salt: int):
    """The indices below ``total`` a claim checks on ``case``; ``salt``
    is the claim's own number, mixed with the case order."""
    salt += case.order * 131
    if case.exhaustive:
        if total <= EXHAUSTIVE_LIMIT:
            return range(total)
        return _probe(total, count * 8, salt)
    return _probe(total, count, salt)


def _scan(case: "SpaceCase", total: int, probes: int, salt: int, test,
          render, rows=None):
    """The result triple of a claim over the indices
    ``_scan_indices(case, total, probes, salt)``.

    ``test(indices)`` decides them all at once: it returns the number
    of hypothesis hits and the failing indices, in scan order.
    ``render(t)`` formats the failure at index t, and only the first
    ``_MAX_FAILS`` failures are rendered.

    A pair claim (``total`` is n**2 over the pool's n sets, ``t`` is
    ``g * n + h``) may also pass ``rows``, a function returning an
    iterator over g = 0 .. n-1 of the row's hypothesis hits and an
    iterable of its failing h in ascending order.  When the scan is the
    whole range, the rows replace ``test``, which stays the claim's
    per-pair definition; a row's failures are not drawn once the cap is
    reached.
    """
    indices = _scan_indices(case, total, probes, salt)
    if rows is None or not isinstance(indices, range):
        hits, failing = test(indices)
    else:
        n = case.pool.size
        found = list(rows())
        hits = sum(row_hits for row_hits, _ in found)
        failing = (g * n + h for g, (_, bad) in enumerate(found)
                   for h in bad)
    if not failing:
        return len(indices), hits, []
    return len(indices), hits, _first_fails(map(render, failing))


def _first_fails(found) -> list:
    """The first ``_MAX_FAILS`` failures of a lazy generator of them."""
    return list(itertools.islice(found, _MAX_FAILS))


# -- space-scope evaluators ------------------------------------------------


def _ax3_eval(case: SpaceCase, table, operation: str):
    opens, members = case.opens, case.open_mask
    n = len(opens) * (len(opens) + 1) // 2
    return n, n, _first_fails(
        f"{operation} of opens {case.render_set(a)} and "
        f"{case.render_set(b)} is not open"
        for i, a in enumerate(opens) for b in opens[i:]
        if not (members >> table[a][b]) & 1)


@_claim("TOP.AX3-union", ASSERTED, "space",
        "The open family is closed under pairwise union.",
        "every open pair of each case")
def _eval_ax3_union(case: SpaceCase):
    return _ax3_eval(case, case.pool.join, "union")


@_claim("TOP.AX3-intersection", ASSERTED, "space",
        "The open family is closed under pairwise intersection.",
        "every open pair of each case")
def _eval_ax3_intersection(case: SpaceCase):
    return _ax3_eval(case, case.pool.meet, "intersection")


def _table(row: bytes) -> bytes:
    """A byte row of at most 256 ids as a translate table."""
    return row.ljust(256, b"\0")


def _dual_eval(case: SpaceCase, flip: bool):
    comp = case.pool.comp
    cl, it = case.cl(), case.interior()
    n = case.pool.size
    cl_row, it_row = case.row_bytes("cl"), case.row_bytes("interior")
    if cl_row is not None:
        # the two sides over every g as byte rows, gathered by translate
        lanes = case.pool.lanes()
        if flip:
            same = (it_row.translate(lanes.comp_table)
                    == lanes.comp.translate(_table(cl_row)))
        else:
            same = (lanes.comp.translate(_table(it_row))
                    == cl_row.translate(lanes.comp_table))
        if same:
            return n, n, []
    if flip:
        bad = (g for g in range(n) if comp[it[g]] != cl[comp[g]])
    else:
        bad = (g for g in range(n) if it[comp[g]] != comp[cl[g]])
    return n, n, _first_fails(
        f"duality breaks at {case.render_set(g)}" for g in bad)


@_claim("CL.1", ASSERTED, "space",
        "The interior of a complement is the complement of the "
        "closure.", _EVERY_SET)
def _eval_cl1(case: SpaceCase):
    return _dual_eval(case, False)


@_claim("CL.2", ASSERTED, "space",
        "The closure of a complement is the complement of the "
        "interior.", _EVERY_SET)
def _eval_cl2(case: SpaceCase):
    return _dual_eval(case, True)


def _monotone_eval(case: SpaceCase, name: str, noun: str, salt: int):
    """Closure (``name`` "cl") or interior ("interior") preserves the
    order on every pair."""
    f = getattr(case, name)()
    meet = case.pool.meet
    n = case.pool.size

    def test(ts):
        under = [(g, h) for g, h in map(divmod, ts, itertools.repeat(n))
                 if meet[g][h] == g]
        return len(under), [g * n + h for g, h in under
                            if meet[f[g]][f[h]] != f[g]]

    def render(t):
        g, h = divmod(t, n)
        return (f"{case.render_set(g)} <= {case.render_set(h)} but the "
                f"{noun} are not ordered")

    def rows():
        # h over g fails when f(g)'s code has a bit f(h)'s lacks
        lanes = case.pool.lanes()
        bad = [0] * n
        for image, packed in case.lanes(name):
            bad = list(map(operator.or_, bad, map(
                (~packed).__and__,
                map(operator.and_, lanes.above, lanes.broadcast(image)))))
        return zip(map(int.bit_count, case.pool.above),
                   map(lanes.positions, bad))

    return _scan(case, n * n, PAIR_PROBES, salt, test, render, rows)


@_claim("CL.3", ASSERTED, "space",
        "Closure is monotone with respect to set inclusion.",
        _PROBE_PAIRS, complete=False)
def _eval_cl3(case: SpaceCase):
    return _monotone_eval(case, "cl", "closures", 3)


@_claim("CL.4", ASSERTED, "space",
        "Interior is monotone with respect to set inclusion.",
        _PROBE_PAIRS, complete=False)
def _eval_cl4(case: SpaceCase):
    return _monotone_eval(case, "interior", "interiors", 4)


def _idempotent_eval(case: SpaceCase, name: str, operation: str):
    row = getattr(case, name)()
    data = case.row_bytes(name)
    n = case.pool.size
    if data is not None and data.translate(_table(data)) == data:
        return n, n, []
    return n, n, _first_fails(
        f"{operation} not idempotent at {case.render_set(g)}"
        for g in range(n) if row[row[g]] != row[g])


@_claim("CL.5", ASSERTED, "space", "Closure is idempotent.", _EVERY_SET)
def _eval_cl5(case: SpaceCase):
    return _idempotent_eval(case, "cl", "closure")


@_claim("CL.6", ASSERTED, "space", "Interior is idempotent.", _EVERY_SET)
def _eval_cl6(case: SpaceCase):
    return _idempotent_eval(case, "interior", "interior")


@_claim("CL.7-COND", ASSERTED, "space",
        "Whenever the null set (resp. the carrier) is closed, closure "
        "fixes it.", _PER_CASE)
def _eval_cl7_cond(case: SpaceCase):
    cl = case.cl()
    checked = 2
    hits = 0
    fails = []
    if case.closed_mask & 1:
        hits += 1
        if cl[0] != 0:
            fails.append("the null set is closed yet not fixed by closure")
    if (case.closed_mask >> case.carrier) & 1:
        hits += 1
        if cl[case.carrier] != case.carrier:
            fails.append("the carrier is closed yet not fixed by closure")
    return checked, hits, fails


@_claim("CL.7-ABS", AUDITED, "space",
        "Closure fixes the null set and the carrier unconditionally.",
        _PER_CASE)
def _eval_cl7_abs(case: SpaceCase):
    cl = case.cl()
    fails = []
    if cl[0] != 0:
        fails.append(
            f"closure of the null set is {case.render_set(cl[0])}, not null")
    if cl[case.carrier] != case.carrier:
        fails.append(
            f"closure of the carrier is {case.render_set(cl[case.carrier])}, "
            f"not the carrier")
    return 2, 2, fails


@_claim("CL.8", ASSERTED, "space",
        "Interior fixes the null set and the carrier.", _PER_CASE)
def _eval_cl8(case: SpaceCase):
    it = case.interior()
    fails = []
    if it[0] != 0:
        fails.append("interior does not fix the null set")
    if it[case.carrier] != case.carrier:
        fails.append("interior does not fix the carrier")
    return 2, 2, fails


def _law_eval(case: SpaceCase, name: str, noun: str, part: str, law: str,
              salt: int):
    """Closure (``name`` "cl") or interior ("interior"), the ``noun``,
    against ``part`` ("union" or "intersection") on every pair: with
    ``law`` "=", f(g part h) is f(g) part f(h); with "<=" it lies below
    it, with ">=" above it."""
    f = getattr(case, name)()
    union = part == "union"
    pool = case.pool
    meet = pool.meet
    table = pool.join if union else meet
    n = pool.size
    verb = "is not" if law == "=" else "exceeds"

    def test(ts):
        # f(g part h) against f(g) part f(h)
        pairs = map(divmod, ts, itertools.repeat(n))
        if law == "=":
            bad = [g * n + h for g, h in pairs
                   if f[table[g][h]] != table[f[g]][f[h]]]
        elif law == "<=":
            bad = [g * n + h for g, h in pairs
                   for whole in (f[table[g][h]],)
                   if meet[whole][table[f[g]][f[h]]] != whole]
        else:
            bad = [g * n + h for g, h in pairs
                   for parts in (table[f[g]][f[h]],)
                   if meet[parts][f[table[g][h]]] != parts]
        return len(ts), bad

    def render(t):
        g, h = divmod(t, n)
        if law == ">=":
            return (f"{part} of the {noun}s of {case.render_set(g)} and "
                    f"{case.render_set(h)} exceeds the {noun} of the "
                    f"{part}")
        return (f"{noun} of the {part} of {case.render_set(g)} and "
                f"{case.render_set(h)} {verb} the {part} of the {noun}s")

    def rows():
        # per lane, the codes of f(g part h) over h, read off g's table
        # row, against f(g)'s code joined (met) with the codes of f(h)
        lanes = pool.lanes()
        byte_rows = lanes.join if union else lanes.meet
        bad = [0] * n
        for image, packed in case.lanes(name):
            whole = lanes.read(byte_rows, image)
            parts = map(packed.__or__ if union else packed.__and__,
                        lanes.broadcast(image))
            if law == "=":
                lane = map(operator.xor, whole, parts)
            elif law == "<=":
                lane = map(operator.and_, whole, map(operator.invert, parts))
            else:
                lane = map(operator.and_, parts, map(operator.invert, whole))
            bad = list(map(operator.or_, bad, lane))
        return zip(itertools.repeat(n), map(lanes.positions, bad))

    return _scan(case, n * n, PAIR_PROBES, salt, test, render, rows)


@_claim("CL.9", ASSERTED, "space",
        "Closure distributes over pairwise union.",
        _PROBE_PAIRS, complete=False)
def _eval_cl9(case: SpaceCase):
    return _law_eval(case, "cl", "closure", "union", "=", 9)


@_claim("CL.10", ASSERTED, "space",
        "Interior distributes over pairwise intersection.",
        _PROBE_PAIRS, complete=False)
def _eval_cl10(case: SpaceCase):
    return _law_eval(case, "interior", "interior", "intersection", "=",
                     10)


@_claim("CL.11", ASSERTED, "space",
        "The closure of an intersection lies below the intersection "
        "of the closures.", _PROBE_PAIRS, complete=False)
def _eval_cl11(case: SpaceCase):
    return _law_eval(case, "cl", "closure", "intersection", "<=", 11)


@_claim("CL.12", AUDITED, "space",
        "The interior of a union lies below the union of the "
        "interiors.", _PROBE_PAIRS, complete=False)
def _eval_cl12(case: SpaceCase):
    return _law_eval(case, "interior", "interior", "union", "<=", 120)


@_claim("CL.12-rev", ASSERTED, "space",
        "The union of the interiors lies below the interior of the "
        "union.", _PROBE_PAIRS, complete=False)
def _eval_cl12_rev(case: SpaceCase):
    return _law_eval(case, "interior", "interior", "union", ">=", 12)


@_claim("CL.FIXED", ASSERTED, "space",
        "A set is closed exactly when closure fixes it.", _EVERY_SET)
def _eval_cl_fixed(case: SpaceCase):
    cl = case.cl()
    closed = case.closed_mask
    n = case.pool.size
    data = case.row_bytes("cl")
    if data is not None:
        # the ids closure moves, against the ids that are not closed
        lanes = case.pool.lanes()
        moved = lanes.bits(int.from_bytes(data, "little") ^ lanes.ids)
        if moved == ~closed & (1 << n) - 1:
            return n, n, []
    return n, n, _first_fails(
        f"{case.render_set(g)}: "
        f"{'closed but moved' if cl[g] != g else 'fixed but not closed'}"
        for g in range(n) if ((closed >> g) & 1) != (cl[g] == g))


def _nbhd_eval(case: SpaceCase, failing: list[int], reason):
    """A claim over every (point, set) pair whose hits are the point's
    neighborhoods; ``failing[i]`` holds the failing ones of point i, and
    failures render in point order, lowest id first."""
    return (len(case.pts) * case.pool.size,
            sum(m.bit_count() for m in case.nbhds()),
            _first_fails(reason(p, nb) for p, bad in zip(case.pts, failing)
                         if bad for nb in _bits(bad)))


@_claim("NBD.1", ASSERTED, "space",
        "A neighborhood of a point contains that point.",
        "every (point, set) pair of each case")
def _eval_nbd1(case: SpaceCase):
    pin = case.pool.pt_in_mask
    return _nbhd_eval(
        case, [m & ~pin[p] for p, m in zip(case.pts, case.nbhds())],
        lambda p, nb: (f"{case.render_point(p)} has neighborhood "
                       f"{case.render_set(nb)} without belonging to it"))


@_claim("NBD.2", ASSERTED, "space",
        "Any superset of a neighborhood is again a neighborhood.",
        _PROBE_PAIRS, complete=False)
def _eval_nbd2(case: SpaceCase):
    meet = case.pool.meet
    n = case.pool.size
    pts, nbhds = case.pts, case.nbhds()

    def test(ts):
        # (t, the point's neighborhoods, m) for each nb <= m with nb one
        # of them
        hyp = [(t, nbhds[pi], m) for t in ts
               for q, m in (divmod(t, n),)
               for pi, nb in (divmod(q, n),)
               if meet[nb][m] == nb and (nbhds[pi] >> nb) & 1]
        return len(hyp), [t for t, nm, m in hyp if not (nm >> m) & 1]

    def render(t):
        pi, rest = divmod(t, n * n)
        return (f"{case.render_set(rest % n)} extends a neighborhood of "
                f"{case.render_point(pts[pi])} but is no neighborhood "
                f"itself")

    return _scan(case, len(pts) * n * n, PAIR_PROBES, 21, test, render)


@_claim("NBD.3", ASSERTED, "space",
        "The intersection of two neighborhoods of a point is a "
        "neighborhood of it.",
        f"(point, set, set) triples probed ({TRIPLE_PROBES} per "
        f"case), full scan on exhaustive cases when it fits",
        complete=False)
def _eval_nbd3(case: SpaceCase):
    meet = case.pool.meet
    n = case.pool.size
    pts, nbhds = case.pts, case.nbhds()

    def test(ts):
        hyp = [(t, nbhds[pi], n1, n2) for t in ts
               for q, n2 in (divmod(t, n),)
               for pi, n1 in (divmod(q, n),)
               if (nbhds[pi] >> n1) & 1 and (nbhds[pi] >> n2) & 1]
        return len(hyp), [t for t, nm, n1, n2 in hyp
                          if not (nm >> meet[n1][n2]) & 1]

    def render(t):
        return (f"intersection of two neighborhoods of "
                f"{case.render_point(pts[t // (n * n)])} is no "
                f"neighborhood")

    return _scan(case, len(pts) * n * n, TRIPLE_PROBES, 22, test, render)


@_claim("NBD.4", ASSERTED, "space",
        "Every neighborhood contains an open neighborhood of the "
        "same point.", "every (point, set) pair of each case")
def _eval_nbd4(case: SpaceCase):
    it = case.interior()
    opens = case.open_mask
    meet = case.pool.meet
    # the sets whose interior is not an open below them: the failing
    # neighborhoods of any point their interior holds
    data = case.row_bytes("interior")
    if data is None:
        no_open = _mask(not (opens >> o) & 1 or meet[o][nb] != o
                        for nb, o in enumerate(it))
    else:
        # a byte left nonzero: the interior is not open, or some lane of
        # its code has a bit the set's code lacks
        lanes = case.pool.lanes()
        row = int.from_bytes(data.translate(lanes.spread(opens, 256)),
                             "little") ^ 255 * lanes.ones
        for own, (_, image) in zip(lanes.codes, case.lanes("interior")):
            row |= image & ~own
        no_open = lanes.bits(row)
    return _nbhd_eval(
        case, [m & no_open for m in case.nbhds()],
        lambda p, nb: (f"no open set sits between {case.render_point(p)} "
                       f"and its neighborhood {case.render_set(nb)}"))


@_claim("NBD.OPEN-IFF", ASSERTED, "space",
        "A set is open exactly when it is a neighborhood of each of "
        "its points.", _EVERY_SET)
def _eval_nbd_open_iff(case: SpaceCase):
    it = case.interior()
    meet = case.pool.meet
    opens = case.open_mask
    n = case.pool.size
    if case.row_bytes("interior") is not None:
        # the sets not below their interior: some lane of the set's code
        # has a bit the interior's code lacks
        lanes = case.pool.lanes()
        over = 0
        for own, (_, image) in zip(lanes.codes, case.lanes("interior")):
            over |= own & ~image
        if lanes.bits(over) == ~opens & (1 << n) - 1:
            return n, n, []
    # a set is a neighborhood of each of its points when it lies below
    # its interior
    return n, n, _first_fails(
        f"{case.render_set(g)}: "
        + ("open but not a neighborhood of each of its points"
           if (opens >> g) & 1
           else "a neighborhood of each of its points but not open")
        for g in range(n) if ((opens >> g) & 1) != (meet[g][it[g]] == g))


@_claim("SUB.CLOSED", ASSERTED, "space",
        "In a subspace, a set is relatively closed exactly when the "
        "relative closure fixes it.", _PROBE_PAIRS, complete=False)
def _eval_sub_closed(case: SpaceCase):
    pool = case.pool
    meet = pool.meet
    n = pool.size

    def test(ts):
        under = [(g, h) for g, h in map(divmod, ts, itertools.repeat(n))
                 if meet[h][g] == h]
        return len(under), [
            g * n + h for g, h in under
            for r_closeds in (case.closed_traces(g),)
            if (h in r_closeds) != (_sub_closure(pool, r_closeds, g, h) == h)]

    def render(t):
        g, h = divmod(t, n)
        return (f"in the subspace at {case.render_set(g)}, relative "
                f"closedness of {case.render_set(h)} disagrees with being "
                f"fixed by relative closure")

    def rows():
        # h is fixed when every lane of its relative closure's code is
        # its own; a failure is a trace not fixed or a fixed non-trace
        lanes = case.pool.lanes()
        traced, closures = case.relative_closures()
        moved = [0] * n
        for acc, own in zip(closures, lanes.codes):
            moved = list(map(operator.or_, moved, map(own.__xor__, acc)))
        same = map(operator.xor, traced, map(lanes.bits, moved))
        return zip(map(int.bit_count, case.pool.below), map(
            _bits, map(operator.and_, case.pool.below,
                       map(operator.invert, same))))

    return _scan(case, n * n, PAIR_PROBES, 31, test, render, rows)


@_claim("SUB.CLOSED-ABS", AUDITED, "space",
        "Relative closedness matches complementing traces inside the "
        "whole lattice rather than tracing the ambient closed sets.",
        _PROBE_PAIRS, complete=False)
def _eval_sub_closed_abs(case: SpaceCase):
    meet, comp = case.pool.meet, case.pool.comp
    n = case.pool.size

    def test(ts):
        under = [(g, h) for g, h in map(divmod, ts, itertools.repeat(n))
                 if meet[h][g] == h]
        return len(under), [
            g * n + h for g, h in under
            if (h in {meet[k][g] for k in case.closeds})
            != (h in {comp[meet[o][g]] for o in case.opens})]

    def render(t):
        g, h = divmod(t, n)
        return (f"in the subspace at {case.render_set(g)}, the trace "
                f"reading and the absolute-complement reading disagree "
                f"about {case.render_set(h)}")

    def rows():
        # the claim fails on most spaces, so a row's traces are read only
        # when its first failure is drawn, and none once the cap is full
        lanes = case.pool.lanes()
        below = case.pool.below
        closeds, opens = bytes(case.closeds), bytes(case.opens)
        pad = bytes(256 - n)
        complement = bytes(comp) + pad

        def failing(g):
            meets = lanes.meet[g] + pad
            traced = sum(map((1).__lshift__, set(closeds.translate(meets))))
            absolute = sum(map((1).__lshift__, set(
                opens.translate(meets).translate(complement))))
            yield from _bits((traced ^ absolute) & below[g])

        return zip(map(int.bit_count, below), map(failing, range(n)))

    return _scan(case, n * n, PAIR_PROBES, 32, test, render, rows)


def _sub_closure(pool: SetPool, r_closeds, g: int, h: int) -> int:
    meet = pool.meet
    acc = g
    mh = meet[h]
    for k in r_closeds:
        if mh[k] == h:
            acc = meet[acc][k]
    return acc


@_claim("SUB.CLOSURE", ASSERTED, "space",
        "The relative closure of a subspace subset is the trace of "
        "its ambient closure.", _PROBE_PAIRS, complete=False)
def _eval_sub_closure(case: SpaceCase):
    pool = case.pool
    meet = pool.meet
    cl = case.cl()
    n = pool.size

    def test(ts):
        under = [(g, h) for g, h in map(divmod, ts, itertools.repeat(n))
                 if meet[h][g] == h]
        return len(under), [
            g * n + h for g, h in under
            if _sub_closure(pool, case.closed_traces(g), g, h)
            != meet[cl[h]][g]]

    def render(t):
        g, h = divmod(t, n)
        return (f"relative closure of {case.render_set(h)} in the "
                f"subspace at {case.render_set(g)} is not the trace of "
                f"the ambient closure")

    def rows():
        # the code of cl(h) ∧ g is cl(h)'s code & g's
        lanes = case.pool.lanes()
        _, closures = case.relative_closures()
        bad = [0] * n
        for acc, (_, packed), table in zip(closures, case.lanes("cl"),
                                           lanes.code):
            bad = list(map(operator.or_, bad, map(operator.xor, acc, map(
                packed.__and__, lanes.broadcast(table)))))
        return zip(map(int.bit_count, case.pool.below), map(
            lanes.positions, map(operator.and_, bad, lanes.below)))

    return _scan(case, n * n, PAIR_PROBES, 33, test, render, rows)


def _implies(hypothesis, conclusion, failure):
    """One case's instance of "hypothesis implies conclusion", from three
    zero-argument callables: the conclusion is decided only when the
    hypothesis holds, and the failure string rendered only when the
    conclusion then fails."""
    if not hypothesis():
        return 1, 0, []
    if conclusion():
        return 1, 1, []
    return 1, 1, [failure()]


@_claim("SEP.CHAIN-T2T1", ASSERTED, "space",
        "Every T2 space is T1.", _PER_CASE)
def _eval_chain_t2t1(case: SpaceCase):
    return _implies(case.t2, case.t1,
                    lambda: "space satisfies T2 but not T1")


@_claim("SEP.CHAIN-T1T0", ASSERTED, "space",
        "Every T1 space is T0.", _PER_CASE)
def _eval_chain_t1t0(case: SpaceCase):
    return _implies(case.t1, case.t0,
                    lambda: "space satisfies T1 but not T0")


@_claim("SEP.CHAIN-T3T2", AUDITED, "space",
        "Every T3 space is T2.", _PER_CASE)
def _eval_chain_t3t2(case: SpaceCase):
    return _implies(case.t3, case.t2,
                    lambda: "space satisfies T3 but not T2")


@_claim("SEP.CHAIN-T4T3", AUDITED, "space",
        "Every T4 space is T3.", _PER_CASE)
def _eval_chain_t4t3(case: SpaceCase):
    return _implies(case.t4, case.t3,
                    lambda: "space satisfies T4 but not T3")


@_claim("SEP.T0-DISCRETE", ASSERTED, "space",
        "The discrete space over a shape is T0.", _PER_CASE)
def _eval_t0_discrete(case: SpaceCase):
    return _implies(lambda: len(case.ids) == case.pool.size, case.t0,
                    lambda: "discrete space is not T0")


def _heredity_eval(case: SpaceCase, axiom: str, salt: int):
    if not case.holds(axiom):
        return 1, 0, []

    def test(gs):
        return len(gs), [g for g in gs if not case.holds(axiom, g)]

    def render(g):
        return (f"{axiom.upper()} space with a non-{axiom.upper()} "
                f"subspace at {case.render_set(g)}")

    return _scan(case, case.pool.size, SUBSET_PROBES, salt, test, render)


@_claim("SEP.SUB-T0", ASSERTED, "space",
        "Every subspace of a T0 space is T0.",
        _PROBE_SUBSETS, complete=False)
def _eval_sub_t0(case: SpaceCase):
    return _heredity_eval(case, "t0", 41)


@_claim("SEP.SUB-T1", ASSERTED, "space",
        "Every subspace of a T1 space is T1.",
        _PROBE_SUBSETS, complete=False)
def _eval_sub_t1(case: SpaceCase):
    return _heredity_eval(case, "t1", 42)


@_claim("SEP.SUB-T2", ASSERTED, "space",
        "Every subspace of a T2 space is T2.",
        _PROBE_SUBSETS, complete=False)
def _eval_sub_t2(case: SpaceCase):
    return _heredity_eval(case, "t2", 43)


@_claim("SEP.T3-HERED", AUDITED, "space",
        "Every subspace of a T3 space is T3.",
        _PROBE_SUBSETS, complete=False)
def _eval_t3_hered(case: SpaceCase):
    return _heredity_eval(case, "t3", 44)


@_claim("SEP.SUB-NORMAL", AUDITED, "space",
        "Every closed subspace of a normal space is normal.",
        f"closed carriers probed ({CLOSED_PROBES} per case), full "
        f"scan on exhaustive cases", complete=False)
def _eval_sub_normal(case: SpaceCase):
    if not case.normal():
        return 1, 0, []
    closeds = case.closeds

    def test(indices):
        return len(indices), [i for i in indices
                              if not case.holds("normal", closeds[i])]

    def render(i):
        return (f"normal space with a non-normal closed subspace at "
                f"{case.render_set(closeds[i])}")

    return _scan(case, len(closeds), CLOSED_PROBES, 45, test, render)


@_claim("SEP.PTSCLOSED-T1", AUDITED, "space",
        "If every point of a space is closed, the space is T1.",
        _PER_CASE)
def _eval_ptsclosed_t1(case: SpaceCase):
    def failure():
        a, b = case.ax("t1")
        return (f"every point is closed yet T1 fails: no open holds "
                f"{case.render_point(a)} apart from {case.render_point(b)}")

    return _implies(case.points_closed, case.t1, failure)


@_claim("SEP.PTSCLOSED-T2", AUDITED, "space",
        "If every point of a space is closed, the space is T2.",
        _PER_CASE)
def _eval_ptsclosed_t2(case: SpaceCase):
    def failure():
        a, b = case.ax("t2")
        return (f"every point is closed yet T2 fails at "
                f"{case.render_point(a)} and {case.render_point(b)}")

    return _implies(case.points_closed, case.t2, failure)


def _t2char_property(case: SpaceCase):
    """First ordered point pair (p, q) with no open s holding p while q
    stays outside the closure of s; None when the property holds."""
    cl = case.cl()
    pt_sets = case.pool.pt_set_mask
    for p, ma in zip(case.pts, case.omasks()):
        # the case's other points in the closure of every open around p
        inside = pt_sets[case.carrier] & ~(1 << p)
        for s in _bits(ma):
            inside &= pt_sets[cl[s]]
        if inside:
            return p, next(_bits(inside))
    return None


@_claim("SEP.T2CHAR-fwd", AUDITED, "space",
        "In a T2 space, around either point of a distinct pair some "
        "open set has a closure avoiding the other point.", _PER_CASE)
def _eval_t2char_fwd(case: SpaceCase):
    def failure():
        p, q = _t2char_property(case)
        return (f"T2 space where no open around {case.render_point(p)} "
                f"has a closure avoiding {case.render_point(q)}")

    return _implies(case.t2, lambda: _t2char_property(case) is None,
                    failure)


@_claim("SEP.T2CHAR-rev", AUDITED, "space",
        "If around either point of every distinct pair some open set "
        "has a closure avoiding the other point, the space is T2.",
        _PER_CASE)
def _eval_t2char_rev(case: SpaceCase):
    def failure():
        a, b = case.ax("t2")
        return (f"closure-avoiding opens exist around every point pair, "
                f"yet T2 fails at {case.render_point(a)} and "
                f"{case.render_point(b)}")

    return _implies(lambda: _t2char_property(case) is None, case.t2,
                    failure)


def _regchar_property(case: SpaceCase):
    """First (point, open) pair without an interpolating open whose
    closure stays inside; None when the property holds."""
    cl = case.cl()
    meet = case.pool.meet
    for p, ma in zip(case.pts, case.omasks()):
        for g in _bits(ma):
            if not any(meet[cl[s]][g] == cl[s] for s in _bits(ma)):
                return p, g
    return None


@_claim("SEP.REGCHAR-fwd", AUDITED, "space",
        "In a T3 space, every open set around a point contains an "
        "open around the same point whose closure stays inside.",
        _PER_CASE)
def _eval_regchar_fwd(case: SpaceCase):
    def failure():
        p, g = _regchar_property(case)
        return (f"T3 space where no open around {case.render_point(p)} "
                f"closes up inside {case.render_set(g)}")

    return _implies(case.t3, lambda: _regchar_property(case) is None,
                    failure)


@_claim("SEP.REGCHAR-rev", AUDITED, "space",
        "A T1 space where every open set around a point contains an "
        "open around the same point whose closure stays inside is "
        "regular.", _PER_CASE)
def _eval_regchar_rev(case: SpaceCase):
    def failure():
        p, k = case.ax("regular")
        return (f"T1 space with interpolating opens everywhere, yet not "
                f"regular: {case.render_point(p)} against closed "
                f"{case.render_set(k)}")

    return _implies(
        lambda: case.t1() and _regchar_property(case) is None,
        case.regular, failure)


def _normchar_property(case: SpaceCase, probe: bool):
    """Violations of: closed k inside open g admits an open s with
    k <= s and closure of s inside g.  Scans (closed, open) index pairs,
    probed when asked to."""
    cl = case.cl()
    meet = case.pool.meet
    opens = case.opens
    closeds = case.closeds
    total = len(closeds) * len(opens)
    indices = (_scan_indices(case, total, CLOSED_PROBES * 2, 46) if probe
               else range(total))
    checked = hits = 0
    first_bad = None
    for t in indices:
        ci, oi = divmod(t, len(opens))
        k, g = closeds[ci], opens[oi]
        checked += 1
        if meet[k][g] != k:
            continue
        hits += 1
        ok = False
        for s in opens:
            if meet[k][s] == k and meet[cl[s]][g] == cl[s]:
                ok = True
                break
        if not ok and first_bad is None:
            first_bad = (k, g)
    return checked, hits, first_bad


@_claim("SEP.NORMCHAR-fwd", AUDITED, "space",
        "In a normal space, between a closed set and an open set "
        "containing it sits an open set whose closure stays inside.",
        f"(closed, open) pairs probed ({CLOSED_PROBES * 2} per case), "
        f"full scan on exhaustive cases", complete=False)
def _eval_normchar_fwd(case: SpaceCase):
    if not case.normal():
        return 1, 0, []
    checked, hits, bad = _normchar_property(case, probe=True)
    if bad is None:
        return checked, hits, []
    k, g = bad
    return checked, hits, [
        f"normal space where closed {case.render_set(k)} inside open "
        f"{case.render_set(g)} has no interpolating open"]


@_claim("SEP.NORMCHAR-rev", AUDITED, "space",
        "If between every closed set and every open set containing "
        "it sits an open whose closure stays inside, the space is "
        "normal.", "evaluated on exhaustive cases only",
        complete=False)
def _eval_normchar_rev(case: SpaceCase):
    # confirming the interpolation property needs the full scan, so this
    # facet only runs on exhaustive cases
    if not case.exhaustive:
        return 0, 0, []
    _, _, bad = _normchar_property(case, probe=False)
    if bad is not None:
        return 1, 0, []
    if case.normal():
        return 1, 1, []
    k1, k2 = case.ax("normal")
    return 1, 1, [
        f"interpolation holds for every nested closed/open pair, yet the "
        f"space is not normal: {case.render_set(k1)} against "
        f"{case.render_set(k2)}"]


@_claim("CON.INDISCRETE", ASSERTED, "space",
        "The indiscrete space is connected.", _PER_CASE)
def _eval_con_indiscrete(case: SpaceCase):
    return _implies(lambda: len(case.ids) == 2, case.connected,
                    lambda: "indiscrete space is disconnected")


@_claim("CON.DISCRETE", AUDITED, "space",
        "The discrete space over a shape is disconnected.", _PER_CASE)
def _eval_con_discrete(case: SpaceCase):
    return _implies(lambda: len(case.ids) == case.pool.size,
                    lambda: not case.connected(),
                    lambda: "discrete space is connected")


@_claim("CON.CLOPEN-fwd", AUDITED, "space",
        "A disconnected space has an open set other than the null "
        "set and the carrier that is also closed.", _PER_CASE)
def _eval_con_clopen_fwd(case: SpaceCase):
    def failure():
        a, b = case.separation
        return (f"disconnected by {case.render_set(a)} and "
                f"{case.render_set(b)}, yet no open other than the null "
                f"set and the carrier is closed")

    return _implies(lambda: not case.connected(),
                    lambda: _proper_clopen(case) is not None, failure)


@_claim("CON.CLOPEN-rev", AUDITED, "space",
        "A space with an open set other than the null set and the "
        "carrier that is also closed is disconnected.", _PER_CASE)
def _eval_con_clopen_rev(case: SpaceCase):
    return _implies(
        lambda: _proper_clopen(case) is not None,
        lambda: not case.connected(),
        lambda: f"{case.render_set(_proper_clopen(case))} is clopen, "
                f"neither null nor the carrier, yet the space is connected")


def _proper_clopen(case: SpaceCase):
    # bit 0 is the null set
    clopen = case.open_mask & case.closed_mask & ~1 & ~(1 << case.carrier)
    return next(_bits(clopen), None)


@_claim("CON.COARSER", ASSERTED, "space",
        "Dropping to a coarser open family preserves connectedness.",
        f"generated coarsenings probed ({CLOSED_PROBES * 2} per "
        f"case), all open pairs on exhaustive cases", complete=False)
def _eval_con_coarser(case: SpaceCase):
    if not case.connected():
        return 1, 0, []
    pool = case.pool
    meet, join = pool.meet, pool.join
    opens = case.opens
    t = len(opens)
    indices = _scan_indices(case, t * t, CLOSED_PROBES * 2, 51)
    pairs = [(opens[i], opens[j])
             for i, j in map(divmod, indices, itertools.repeat(t)) if i < j]
    # each coarser family is generated inside the open family, so it is
    # a topology on the same carrier by construction
    splits = [(u, v, _sep_pair(pool, sorted(
        {0, case.carrier, u, v, meet[u][v], join[u][v]}), case.carrier))
        for u, v in pairs]
    return len(pairs), len(pairs), _first_fails(
        f"coarsening to the family generated by {case.render_set(u)} and "
        f"{case.render_set(v)} splits the space into "
        f"{case.render_set(sep[0])} and {case.render_set(sep[1])}"
        for u, v, sep in splits if sep is not None)


@_claim("CON.SUBSPACE-SIDE", ASSERTED, "space",
        "A connected subspace of a separated space lies inside one "
        "side of the separation.", _PROBE_SUBSETS, complete=False)
def _eval_con_subspace_side(case: SpaceCase):
    if case.connected():
        return 1, 0, []
    g1, g2 = case.separation
    meet = case.pool.meet
    conn = case.connected_sets()

    def test(hs):
        hyp = [h for h in hs if (conn >> h) & 1]
        return len(hyp), [h for h in hyp
                          if meet[h][g1] != h and meet[h][g2] != h]

    def render(h):
        return (f"connected subspace {case.render_set(h)} sits inside "
                f"neither side of the separation {case.render_set(g1)} / "
                f"{case.render_set(g2)}")

    return _scan(case, case.pool.size, SUBSET_PROBES, 52, test, render)


@_claim("CON.UNION-COMMON", ASSERTED, "space",
        "The union of two overlapping connected subspaces is "
        "connected.", _PROBE_PAIRS, complete=False)
def _eval_con_union_common(case: SpaceCase):
    pool = case.pool
    meet, join = pool.meet, pool.join
    n = pool.size
    dis = case.disconnected()
    conn = case.connected_sets()

    def test(ts):
        linked, split = spread(conn, n), spread(dis, n)
        hyp = [(t, g, h) for t in ts for g, h in (divmod(t, n),)
               if linked[g] & linked[h] and meet[g][h] != 0]
        return len(hyp), [t for t, g, h in hyp if split[join[g][h]]]

    def render(t):
        g, h = divmod(t, n)
        return (f"overlapping connected subspaces {case.render_set(g)} "
                f"and {case.render_set(h)} with a disconnected union")

    def rows():
        # h is a hit when its byte is set in both the connected row (none
        # when g is not connected) and g's non-null meets, and fails when
        # g ∨ h is disconnected
        lanes = pool.lanes()
        gate = lanes.spread(conn)
        sides = int.from_bytes(gate, "little")
        hs = list(map(operator.and_, [sides if b else 0 for b in gate],
                      lanes.read(lanes.meet, _NON_NULL)))
        bad = map(operator.and_, hs,
                  lanes.read(lanes.join, lanes.spread(dis, 256)))
        return zip([h.bit_count() >> 3 for h in hs],
                   map(lanes.positions, bad))

    return _scan(case, n * n, PAIR_PROBES, 53, test, render, rows)


@_claim("CON.UNION-HUB", ASSERTED, "space",
        "The union of connected subspaces each overlapping a common "
        "connected hub is connected.",
        f"(hub, set, set) triples probed ({TRIPLE_PROBES} per case)",
        complete=False)
def _eval_con_union_hub(case: SpaceCase):
    pool = case.pool
    meet, join = pool.meet, pool.join
    n = pool.size
    dis = case.disconnected()
    conn = case.connected_sets()

    def test(ts):
        linked, split = spread(conn, n), spread(dis, n)
        hyp = [(t, hub, g, h) for t in ts
               for q, h in (divmod(t, n),)
               for hub, g in (divmod(q, n),)
               if linked[hub] & linked[g] & linked[h]
               and meet[hub][g] != 0 and meet[hub][h] != 0]
        return len(hyp), [t for t, hub, g, h in hyp
                          if split[join[join[hub][g]][h]]]

    def render(t):
        hub, rest = divmod(t, n * n)
        g, h = divmod(rest, n)
        return (f"connected subspaces {case.render_set(g)} and "
                f"{case.render_set(h)} both meeting "
                f"{case.render_set(hub)} have a disconnected union")

    return _scan(case, n * n * n, TRIPLE_PROBES, 54, test, render)


@_claim("CON.SEPCHAR-fwd", AUDITED, "space",
        "Both sides of any subspace separation avoid each other's "
        "ambient closure.", _PROBE_SUBSETS, complete=False)
def _eval_con_sepchar_fwd(case: SpaceCase):
    pool = case.pool
    meet = pool.meet
    cl = case.cl()
    dis = case.disconnected()

    # the separations are counted a carrier at a time, as a big pool has
    # many, and only those whose sides meet an ambient closure are kept;
    # a connected subspace has no separation
    checked = 0
    bad = []
    for g in _scan_indices(case, pool.size, SUBSET_PROBES, 55):
        if meet[g][case.carrier] == g and (dis >> g) & 1:
            for a, b in _separations(pool, case.traces(g), g):
                checked += 1
                if not (meet[a][cl[b]] == 0 and meet[b][cl[a]] == 0):
                    bad.append((a, b, g))
    return checked, checked, _first_fails(
        f"separation {case.render_set(a)} / {case.render_set(b)} of the "
        f"subspace at {case.render_set(g)} meets an ambient closure"
        for a, b, g in bad)


@_claim("CON.SEPCHAR-rev", AUDITED, "space",
        "Cell-wise splittings of a subspace carrier whose sides "
        "avoid each other's ambient closure are separations by "
        "relatively open sets.", _PROBE_SUBSETS, complete=False)
def _eval_con_sepchar_rev(case: SpaceCase):
    pool = case.pool
    meet = pool.meet
    cl = case.cl()

    # the splits are counted a carrier at a time, as a big pool has many,
    # and only those with closure-disjoint sides that are not both
    # relatively open are kept
    checked = hits = 0
    bad = []
    for g in _scan_indices(case, pool.size, SUBSET_PROBES, 56):
        if g != 0 and meet[g][case.carrier] == g:
            splits = pool.cell_splits(g)
            checked += len(splits)
            sides = [(a, b) for a, b in splits
                     if meet[a][cl[b]] == 0 and meet[b][cl[a]] == 0]
            if sides:
                hits += len(sides)
                traced = set(case.traces(g))
                bad += [(a, b, g) for a, b in sides
                        if not (a in traced and b in traced)]
    return checked, hits, _first_fails(
        f"{case.render_set(a)} / {case.render_set(b)} split "
        f"{case.render_set(g)} with closure-disjoint sides, yet are not "
        f"both relatively open"
        for a, b, g in bad)


@_claim("CON.BETWEEN", AUDITED, "space",
        "Every set between a connected subspace and its closure is "
        "connected.",
        f"carriers probed ({CLOSED_PROBES} per case), every "
        f"in-between set for each", complete=False)
def _eval_con_between(case: SpaceCase):
    pool = case.pool
    meet = pool.meet
    cl = case.cl()
    dis = case.disconnected()
    conn = case.connected_sets()

    # per connected g, the mask of the sets between it and its closure
    # (cut to the carrier)
    spans = [(g, pool.below[meet[cl[g]][case.carrier]] & pool.above[g])
             for g in _scan_indices(case, pool.size, CLOSED_PROBES, 57)
             if (conn >> g) & 1]
    checked = sum(m.bit_count() for _, m in spans)
    return checked, checked, _first_fails(
        f"{case.render_set(k)} lies between connected {case.render_set(g)} "
        f"and its closure, yet is disconnected"
        for g, m in spans for k in _bits(m & dis))


@_claim("CON.CLOSURE-CONN", AUDITED, "space",
        "The closure of a connected subspace is connected.",
        _PROBE_SUBSETS, complete=False)
def _eval_con_closure_conn(case: SpaceCase):
    meet = case.pool.meet
    cl = case.cl()
    dis = case.disconnected()
    conn = case.connected_sets()

    tops = [(g, meet[cl[g]][case.carrier])
            for g in _scan_indices(case, case.pool.size, SUBSET_PROBES, 58)
            if (conn >> g) & 1]
    return len(tops), len(tops), _first_fails(
        f"connected {case.render_set(g)} with a disconnected closure "
        f"{case.render_set(top)}"
        for g, top in tops if (dis >> top) & 1)


# -- pool-scope evaluators -------------------------------------------------


@_claim("ALG.INVOLUTION", ASSERTED, "pool",
        "Complement is an involution on lattice sets.",
        "every set of each pool")
def _eval_alg_involution(pool: SetPool):
    comp = pool.comp
    n = pool.size
    return n, n, _first_fails(
        f"complement not involutive at {pool.decode(g).render()}"
        for g in range(n) if comp[comp[g]] != g)


def _demorgan_eval(pool: SetPool, outer, inner, operation: str):
    """Complement of ``outer`` against ``inner`` of the complements."""
    comp = pool.comp
    n = pool.size
    checked = n * (n + 1) // 2
    return checked, checked, _first_fails(
        f"complement of {operation} misses at "
        f"{pool.decode(g).render()} / {pool.decode(h).render()}"
        for g in range(n) for h in range(g, n)
        if comp[outer[g][h]] != inner[comp[g]][comp[h]])


@_claim("ALG.DEMORGAN-UNION", ASSERTED, "pool",
        "The complement of a union is the intersection of the "
        "complements.", "every set pair of each pool")
def _eval_demorgan_union(pool: SetPool):
    return _demorgan_eval(pool, pool.join, pool.meet, "a union")


@_claim("ALG.DEMORGAN-INTERSECTION", ASSERTED, "pool",
        "The complement of an intersection is the union of the "
        "complements.", "every set pair of each pool")
def _eval_demorgan_intersection(pool: SetPool):
    return _demorgan_eval(pool, pool.meet, pool.join, "an intersection")


@_claim("PT.1", AUDITED, "pool",
        "No point belongs to both a set and its complement.",
        "every (point, set) pair of each pool")
def _eval_pt1(pool: SetPool):
    masks = pool.pt_in_mask
    comp = pool.comp
    n = pool.size
    checked = len(masks) * n
    return checked, checked, _first_fails(
        f"{pool.decode_point(p).render()} belongs to "
        f"{pool.decode(g).render()} and to its complement"
        for p, pm in enumerate(masks) for g in range(n)
        if (pm >> g) & 1 and (pm >> comp[g]) & 1)


@_claim("PT.3", ASSERTED, "pool",
        "Every set is the union of its single-parameter "
        "restrictions.", "every set of each pool")
def _eval_pt3(pool: SetPool):
    join = pool.join

    def union_of_restrictions(g):
        acc = 0
        for part in pool.restrictions(g):
            acc = join[acc][part]
        return acc

    n = pool.size
    return n, n, _first_fails(
        f"{pool.decode(g).render()} is not the union of its "
        f"single-parameter restrictions"
        for g in range(n) if union_of_restrictions(g) != g)


@_claim("PT.4", ASSERTED, "pool",
        "A point belongs to another point's set form exactly when "
        "the supports match and the values are ordered.",
        "every point pair of each pool")
def _eval_pt4(pool: SetPool):
    masks = pool.pt_in_mask
    form = pool.pt_form_id
    pts = pool.points
    checked = len(pts) ** 2
    return checked, checked, _first_fails(
        f"membership of {pool.decode_point(a).render()} in the form of "
        f"{pool.decode_point(b).render()} is mischaracterized"
        for a, (pa, va) in enumerate(pts) for b, (pb, vb) in enumerate(pts)
        if ((masks[a] >> form[b]) & 1 == 1)
        != (pa == pb and all(x <= y for x, y in zip(va, vb))))


# PT.5 and PT.6 run in two phases.  Phase 1 makes one pass over the rows
# of join or meet and, with whole-row operations on the point bitmasks
# pt_set_mask, flags every point that has at least one violating pair;
# the instance counts follow from popcounts.  Phase 2 re-runs the scalar
# scan for the flagged points alone, in (point, g, h) order, so the
# witnesses are the ones a full scan meets first.  Phase 1 tests exactly
# the scanned condition on the tables as they stand, assuming no lattice
# law, so a corrupt table entry is still caught.


@_claim("PT.5-sound", ASSERTED, "pool",
        "A point of one set belongs to any union extending that "
        "set.", "every (point, member set, set) triple of each pool")
def _eval_pt5_sound(pool: SetPool):
    masks = pool.pt_in_mask
    sets_of = pool.pt_set_mask
    join = pool.join
    n = pool.size
    flagged = 0
    for g in range(n):
        # points of g missing from some union join(g, h)
        flagged |= sets_of[g] & ~functools.reduce(
            operator.and_, map(sets_of.__getitem__, join[g]))
    checked = n * sum(m.bit_count() for m in sets_of)

    def scan():
        for p in _bits(flagged):
            pm = masks[p]
            members = [g for g in range(n) if (pm >> g) & 1]
            for g in members:
                jg = join[g]
                for h in range(n):
                    if not (pm >> jg[h]) & 1:
                        yield (f"{pool.decode_point(p).render()} belongs to "
                               f"{pool.decode(g).render()} but not to a union "
                               f"extending it")

    return checked, checked, _first_fails(scan())


@_claim("PT.5-converse", AUDITED, "pool",
        "A point of a union of two sets belongs to one of them.",
        "every (point, set, set) triple with both memberships "
        "failing")
def _eval_pt5_converse(pool: SetPool):
    masks = pool.pt_in_mask
    sets_of = pool.pt_set_mask
    join = pool.join
    n = pool.size
    every = (1 << len(pool.points)) - 1
    outside_of = [every ^ m for m in sets_of]
    flagged = 0
    for g in range(n):
        # points outside g and some h >= g but inside join(g, h)
        flagged |= outside_of[g] & functools.reduce(
            operator.or_,
            map(operator.and_, outside_of[g:],
                map(sets_of.__getitem__, join[g][g:])))
    checked = 0
    for pm in masks:
        k = n - pm.bit_count()
        checked += k * (k + 1) // 2

    def scan():
        for p in _bits(flagged):
            pm = masks[p]
            outside = [g for g in range(n) if not (pm >> g) & 1]
            for i, g in enumerate(outside):
                jg = join[g]
                for h in outside[i:]:
                    if (pm >> jg[h]) & 1:
                        yield (f"{pool.decode_point(p).render()} belongs to "
                               f"the union of {pool.decode(g).render()} and "
                               f"{pool.decode(h).render()} but to neither "
                               f"part")

    return checked, checked, _first_fails(scan())


@_claim("PT.6", ASSERTED, "pool",
        "A point belongs to an intersection exactly when it belongs "
        "to both sets.", "every (point, set, set) triple of each pool")
def _eval_pt6(pool: SetPool):
    masks = pool.pt_in_mask
    sets_of = pool.pt_set_mask
    meet = pool.meet
    n = pool.size
    every = (1 << len(pool.points)) - 1
    outside_of = [every ^ m for m in sets_of]
    flagged = 0
    for g in range(n):
        mg = meet[g]
        # points of g and some h >= g missing from meet(g, h)
        flagged |= sets_of[g] & functools.reduce(
            operator.or_,
            map(operator.and_, sets_of[g:],
                map(outside_of.__getitem__, mg[g:])))
        # points outside g but inside some meet(g, h)
        flagged |= outside_of[g] & functools.reduce(
            operator.or_, map(sets_of.__getitem__, mg))
    checked = 0
    for pm in masks:
        k = pm.bit_count()
        checked += k * (k + 1) // 2 + (n - k) * n

    def scan():
        for p in _bits(flagged):
            pm = masks[p]
            members = [g for g in range(n) if (pm >> g) & 1]
            outside = [g for g in range(n) if not (pm >> g) & 1]
            for i, g in enumerate(members):
                mg = meet[g]
                for h in members[i:]:
                    if not (pm >> mg[h]) & 1:
                        yield (f"{pool.decode_point(p).render()} belongs to "
                               f"two sets but not to their intersection")
            for g in outside:
                mg = meet[g]
                for h in range(n):
                    if (pm >> mg[h]) & 1:
                        yield (f"{pool.decode_point(p).render()} belongs to "
                               f"an intersection without belonging to "
                               f"{pool.decode(g).render()}")

    return checked, checked, _first_fails(scan())


# -- fixed evaluators: recorded worked examples ----------------------------


def _hostel_context():
    universe = Universe.of("h1", "h2", "h3", "h4")
    parameters = ParameterSet.of("e1", "e2", "e3", "e4", "e5")
    return universe, parameters


@_claim("EX.POINT-COMPLEMENT", REPRODUCED, "fixed",
        "A recorded complement table for a single point over a "
        "four-element universe comes out exactly.", "fixed data")
def _eval_ex_point_complement():
    universe, parameters = _hostel_context()
    value = FuzzySet.from_mapping(
        universe, {"h1": "1/10", "h2": "9/10", "h4": "2/5"})
    point = FuzzySoftPoint("e1", value, parameters)
    got = point.as_fss().complement().value_for("e1")
    want = FuzzySet.from_mapping(
        universe, {"h1": "9/10", "h2": "1/10", "h3": "1", "h4": "3/5"})
    if got == want:
        return 1, 1, []
    return 1, 1, [f"complement row came out as {got.render()}"]


@_claim("EX.COMPLEMENT-NONMEMBER", REPRODUCED, "fixed",
        "A recorded membership survives while its complemented "
        "counterpart fails, exactly as recorded.", "fixed data")
def _eval_ex_complement_nonmember():
    universe = Universe.of("h1", "h2")
    parameters = ParameterSet.of("e1", "e2")
    point = FuzzySoftPoint(
        "e1", FuzzySet.from_mapping(universe, {"h1": "1/10", "h2": "1/5"}),
        parameters)
    h = FuzzySoftSet.build(universe, parameters, {
        "e1": {"h1": "1/10", "h2": "9/10"},
        "e2": {"h1": "1/5", "h2": "3/10"},
    })
    fails = []
    if not point_in(point, h):
        fails.append("the recorded point does not belong to the recorded set")
    if point_in(point.complement(), h.complement()):
        fails.append("the complemented point landed inside the complemented "
                     "set; membership is not preserved here and that is the "
                     "recorded outcome")
    return 1, 1, fails


@_claim("EX.POINT-MEMBERSHIP", REPRODUCED, "fixed",
        "A recorded six-element membership check comes out exactly.",
        "fixed data")
def _eval_ex_point_membership():
    universe = Universe.of("h1", "h2", "h3", "h4", "h5", "h6")
    parameters = ParameterSet.of("e1", "e2", "e3")
    point = FuzzySoftPoint(
        "e3",
        FuzzySet.from_mapping(universe, {"h1": "1/10", "h2": "1/5",
                                         "h3": "4/5", "h4": "1/5",
                                         "h5": "1/2"}),
        parameters)
    g = FuzzySoftSet.build(universe, parameters, {
        "e3": {"h1": "1/5", "h2": "3/10", "h3": "4/5", "h4": "1/5",
               "h5": "1/2", "h6": "3/5"},
    })
    if point_in(point, g):
        return 1, 1, []
    return 1, 1, ["the recorded point fails to belong to the recorded set"]


# -- registry --------------------------------------------------------------


CLAIMS: tuple[Claim, ...] = tuple(claim for claim, _ in _REGISTRY.values())
CLAIM_INDEX: dict[str, Claim] = {c.ident: c for c in CLAIMS}


def select_claims(pattern: str | None) -> tuple[Claim, ...]:
    """Claims matching an ident, a facet family ("CON.CLOPEN" takes its
    -fwd and -rev facets) or a group prefix ("CL" takes every CL.* claim)."""
    if pattern is None or pattern == "all":
        return CLAIMS
    chosen = tuple(c for c in CLAIMS
                   if c.ident == pattern
                   or c.ident.startswith(pattern + "-")
                   or c.ident.startswith(pattern + "."))
    return chosen


def _evaluate(scope: str, idents, *args) -> dict:
    """Run the chosen evaluators of one scope, in ``CLAIMS`` order."""
    return {claim.ident: evaluate(*args)
            for claim, evaluate in _REGISTRY.values()
            if claim.scope == scope
            and (idents is None or claim.ident in idents)}


def evaluate_space_case(case: SpaceCase, idents=None) -> dict:
    """Run the chosen space-scope evaluators; dict ident -> result triple."""
    return _evaluate("space", idents, case)


def evaluate_pool_claims(pool: SetPool, idents=None) -> dict:
    return _evaluate("pool", idents, pool)


def evaluate_fixed_claims(idents=None) -> dict:
    return _evaluate("fixed", idents)
