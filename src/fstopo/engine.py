"""The integer engine: separation axioms and connectedness on set-pool ids.

A ``SpaceCase`` is one topology over a ``SetPool``, given as the sorted
ids of its opens, with its closure and interior tables, the masks its
axioms are read from and, for the whole-row kernels of ``claims.py``,
its closure and interior as code lanes and its relative closures in
every subspace, each built on first use.  On a pool of at most 256
sets the closure, interior and neighborhood tables come from the
pool's byte lanes (``SetPool.lanes()``): each closed set (open) is
folded into the whole row by one ``bytes.translate`` through its meet
(join) table, kept at the sets under (over) it, and a point's
neighborhoods are the interior row read through the point's membership
digits.  Larger pools run the list loops, which are also the
definitions these tables are tested against.  A witness renders
through the pool's memo of decoded sets and points, each of which
computes its text once.  A set is open
(closed) exactly when its bit is set in ``open_mask`` (``closed_mask``).
Every mask is over pool ids, cut to the case's opens with one
``open_mask``, so its bits come in open order.  The five axiom scans
(``_t0_fail`` ... ``_normal_fail``) read only masks and a
pair-eligibility test: ``SpaceCase`` runs them over pool ids, the
deciders of ``deciders.py`` over open positions.
``SpaceCase.ax(name, g)`` runs them on the space or, given g, on the
subspace at g without building it.  Connectedness has a search of its
own, ``_separations``.
"""

from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .corpus import SetPool


# ---------------------------------------------------------------------------
# the axiom scans
#
# Each scan returns the first failing index pair in canonical order, or
# None; ``ok(a, b)`` says whether a pair qualifies.  T0 to T2 test it
# only on pairs whose masks fail, regular and normal before the masks.

def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(flags) -> int:
    mask = 0
    for i, flag in enumerate(flags):
        if flag:
            mask |= 1 << i
    return mask


def _every_pair(a: int, b: int) -> bool:
    return True


def _reach(odisj, mask: int) -> int:
    """The opens disjoint from some open in ``mask``."""
    union = 0
    for i in _bits(mask):
        union |= odisj[i]
    return union


def _t0_fail(omasks, ok):
    """First qualifying point pair that no open tells apart."""
    for a in range(len(omasks)):
        ma = omasks[a]
        for b in range(a + 1, len(omasks)):
            if ma == omasks[b] and ok(a, b):
                return a, b
    return None


def _t1_fail(omasks, ok):
    """First qualifying point pair that fails T1, ordered so that no open
    contains its first point without its second."""
    for a in range(len(omasks)):
        ma = omasks[a]
        for b in range(a + 1, len(omasks)):
            mb = omasks[b]
            if ma & ~mb == 0:
                if ok(a, b):
                    return a, b
            elif mb & ~ma == 0 and ok(a, b):
                return b, a
    return None


def _t2_fail(omasks, odisj, ok):
    """First qualifying point pair that no disjoint opens separate."""
    for a in range(len(omasks)):
        reach = _reach(odisj, omasks[a])
        for b in range(a + 1, len(omasks)):
            if not reach & omasks[b] and ok(a, b):
                return a, b
    return None


def _regular_fail(omasks, covers, odisj, ok):
    """First qualifying (point, closed set) pair that no disjoint opens
    split."""
    for a, ma in enumerate(omasks):
        reach = None
        for k, cover in enumerate(covers):
            if ok(a, k):
                if reach is None:
                    reach = _reach(odisj, ma)
                if not reach & cover:
                    return a, k
    return None


def _normal_fail(covers, odisj, ok):
    """First qualifying closed pair that no disjoint opens cover."""
    for i, ci in enumerate(covers):
        reach = None
        for j in range(i + 1, len(covers)):
            if ok(i, j):
                if reach is None:
                    reach = _reach(odisj, ci)
                if not reach & covers[j]:
                    return i, j
    return None


# ---------------------------------------------------------------------------
# one topology over a set pool

class SpaceCase:
    """Per-topology caches over the integer encoding.

    ``order`` is the global case index used to salt probes; ``exhaustive``
    widens probes to full scans for this case.
    """

    def __init__(self, label: str, pool: SetPool, ids: tuple[int, ...],
                 order: int = 0, exhaustive: bool = False):
        self.label = label
        self.pool = pool
        self.ids = self.opens = ids
        self.order = order
        self.exhaustive = exhaustive
        self.carrier = ids[-1]
        self.open_mask = sum(map((1).__lshift__, ids))
        self.closeds = sorted(map(pool.comp.__getitem__, ids))
        self.closed_mask = sum(map((1).__lshift__, self.closeds))
        self.pts = list(_bits(pool.pt_set_mask[self.carrier]))
        self._cl: list[int] | None = None
        self._int: list[int] | None = None
        self._omasks: list[int] | None = None
        self._nbhds: list[int] | None = None
        self._dis: int | None = None
        self._ax: dict = {}
        self._lanes: dict = {}
        self._rel: tuple | None = None

    # -- operator tables ---------------------------------------------------

    def cl(self) -> list[int]:
        """Closure of every pool set: meet of the closed supersets."""
        if self._cl is None:
            pool, lanes = self.pool, self.pool.lanes()
            if lanes is None:
                self._cl = _closure_loop(pool, self.closeds)
            else:
                self._cl = list(_lane_fold(pool.full_id, pool.size,
                                           self.closeds, lanes.meet_tables,
                                           lanes.below))
        return self._cl

    def interior(self) -> list[int]:
        """Interior of every pool set: join of the open subsets."""
        if self._int is None:
            pool, lanes = self.pool, self.pool.lanes()
            if lanes is None:
                self._int = _interior_loop(pool, self.opens)
            else:
                self._int = list(_lane_fold(pool.null_id, pool.size,
                                            self.opens, lanes.join_tables,
                                            lanes.above))
        return self._int

    def lanes(self, name: str) -> list[tuple[bytes, int]]:
        """``SetPool.lanes().image`` of the closure (``name`` "cl") or
        the interior ("interior") row, built on first use."""
        if name not in self._lanes:
            row = getattr(self, name)()
            self._lanes[name] = self.pool.lanes().image(row)
        return self._lanes[name]

    # -- point structure ---------------------------------------------------

    def omasks(self) -> list[int]:
        """Per point (aligned with self.pts), the opens holding it."""
        if self._omasks is None:
            pin, opens = self.pool.pt_in_mask, self.open_mask
            self._omasks = [pin[p] & opens for p in self.pts]
        return self._omasks

    def odisj(self, g: int | None = None) -> dict[int, int]:
        """Per open, the mask of the opens disjoint from it; given ``g``,
        of those whose trace on g is disjoint from its trace on g."""
        # an open is its own trace on the carrier
        disj, opens = self.pool.disj_mask, self.open_mask
        mg = self.pool.meet[self.carrier if g is None else g]
        return {o: disj[mg[o]] & opens for o in self.opens}

    def nbhds(self) -> list[int]:
        """Per point (aligned with self.pts), the bitmask over pool ids of
        its neighborhoods, the sets whose interior holds it."""
        if self._nbhds is None:
            pool, it, lanes = self.pool, self.interior(), self.pool.lanes()
            if lanes is None:
                self._nbhds = _nbhds_loop(pool, it, self.pts)
            else:
                # the interior row, highest id first, read through each
                # point's membership digits is the binary numeral of
                # its neighborhoods
                digits = lanes.point_digits
                row = bytes(reversed(it))
                self._nbhds = [int(row.translate(digits[p]), 2)
                               for p in self.pts]
        return self._nbhds

    # -- separation axioms -------------------------------------------------
    # The subspace at g has the traces o∧g of the opens as its opens, the
    # traces k∧g of the closed sets as its closed sets and the points
    # under carrier∧g as its points.  Its verdicts are read off the
    # ambient masks: an open holds a point under g exactly when its trace
    # does, an open lies over k∧g exactly when its trace does, and two
    # traces are disjoint when o∧o'∧g is null (``odisj(g)``).  Opens with
    # one trace share their bits, so every scan decides as it would over
    # the traces.

    def ax(self, name: str, g: int | None = None):
        """The first failing pair of pool ids (point or closed set) the
        scan of ``name`` finds on the space, or on the subspace at ``g``;
        None when the axiom holds.  ``points_closed`` (space only) gives
        the first point whose form is not closed."""
        key = (name, g)
        if key not in self._ax:
            self._ax[key] = self._first_fail(name, g)
        return self._ax[key]

    def _first_fail(self, name: str, g: int | None):
        pool = self.pool
        disj, pin, form = pool.disj_mask, pool.pt_in_mask, pool.pt_form_id
        if name == "points_closed":
            return next((p for p in self.pts
                         if not (self.closed_mask >> form[p]) & 1), None)
        if name != "normal":
            pts, omasks = self.pts, self.omasks()
            if g is not None:
                top = pool.meet[self.carrier][g]
                pts = list(_bits(pool.pt_set_mask[top]))
                omasks = [pin[p] & self.open_mask for p in pts]
            if name == "t0":
                return _ids(_t0_fail(omasks, lambda a, b: (
                    disj[form[pts[a]]] >> form[pts[b]]) & 1), pts, pts)
            if name == "t1":
                return _ids(_t1_fail(omasks, _every_pair), pts, pts)
            if name == "t2":
                return _ids(_t2_fail(omasks, self.odisj(g), _every_pair),
                            pts, pts)
        closeds = self.closeds if g is None else self.closed_traces(g)
        covers = [pool.above[k] & self.open_mask for k in closeds]
        if name == "regular":
            pair = _regular_fail(omasks, covers, self.odisj(g), lambda a, k: (
                not (pin[pts[a]] >> closeds[k]) & 1))
            return _ids(pair, pts, closeds)
        return _ids(_normal_fail(covers, self.odisj(g), lambda i, j: (
            disj[closeds[i]] >> closeds[j]) & 1), closeds, closeds)

    def holds(self, name: str, g: int | None = None) -> bool:
        """Whether the space, or the subspace at ``g``, satisfies ``name``;
        t3 is t1 then regular, t4 is t1 then normal."""
        if name == "t3":
            return self.holds("t1", g) and self.holds("regular", g)
        if name == "t4":
            return self.holds("t1", g) and self.holds("normal", g)
        return self.ax(name, g) is None

    def t0(self) -> bool:
        return self.holds("t0")

    def t1(self) -> bool:
        return self.holds("t1")

    def t2(self) -> bool:
        return self.holds("t2")

    def regular(self) -> bool:
        return self.holds("regular")

    def normal(self) -> bool:
        return self.holds("normal")

    def t3(self) -> bool:
        return self.holds("t3")

    def t4(self) -> bool:
        return self.holds("t4")

    def points_closed(self) -> bool:
        return self.holds("points_closed")

    # -- subspaces and connectedness ---------------------------------------
    # The lattice is distributive, so traces u∧g and v∧g join to (u∨v)∧g,
    # and they separate the subspace at g exactly when both are non-null,
    # u∧v∧g is null and g lies under u∨v.

    def traces(self, g: int) -> list[int]:
        meet = self.pool.meet
        return sorted({meet[o][g] for o in self.opens})

    def closed_traces(self, g: int) -> list[int]:
        meet = self.pool.meet
        return sorted({meet[k][g] for k in self.closeds})

    def relative_closures(self) -> tuple[list[int], list[list[int]]]:
        """Per g, the mask over pool ids of the closed traces k∧g; and per
        lane of ``SetPool.lanes()``, per g, the packed codes of the
        relative closure of every h under g, the meet of g and of the
        traces over h (the bytes of the other h are not read).  Built on
        first use."""
        if self._rel is None:
            pool = self.pool
            lanes = pool.lanes()
            n = pool.size
            traced = [0] * n
            accs = [list(lanes.broadcast(table)) for table in lanes.code]
            # closed set k's trace at every g is meet row k: the trace
            # marks its id in the mask at g and meets its code into the h
            # under it
            for k in self.closeds:
                traces = pool.meet[k]
                traced = list(map(operator.or_, traced,
                                  map((1).__lshift__, traces)))
                accs = [list(map(operator.and_, acc,
                                 map(up.__getitem__, traces)))
                        for acc, up in zip(accs, lanes.up)]
            self._rel = traced, accs
        return self._rel

    def disconnected(self) -> int:
        """Bitmask over pool ids: bit g is set when the subspace at ``g``,
        a set under the carrier, is disconnected.  It is the union, over
        the pairs of non-null opens, of the sets their traces separate."""
        if self._dis is None:
            pool = self.pool
            meet, join, disj = pool.meet, pool.join, pool.disj_mask
            below = pool.below
            opens = [o for o in self.opens if o]
            meets = [~disj[o] for o in opens]
            dis = 0
            for i, u in enumerate(opens):
                mu, ju, meets_u = meet[u], join[u], meets[i]
                for v, meets_v in zip(opens[i + 1:], meets[i + 1:]):
                    dis |= below[ju[v]] & disj[mu[v]] & meets_u & meets_v
            self._dis = dis
        return self._dis

    def connected(self) -> bool:
        return not (self.disconnected() >> self.carrier) & 1

    def connected_sets(self) -> int:
        """Bitmask over pool ids of the non-null connected subspaces: bit g
        is set when g is non-null, lies under the carrier and the subspace
        at g is connected.  Read from ``disconnected()`` on every call."""
        # bit 0 is the null set
        return self.pool.below[self.carrier] & ~self.disconnected() & ~1

    @functools.cached_property
    def separation(self):
        """The first pair of disjoint non-null opens joining to the
        carrier, or None; two claims render it."""
        return _sep_pair(self.pool, self.opens, self.carrier)

    # -- rendering ---------------------------------------------------------

    def render_set(self, gid: int) -> str:
        return self.pool.decode(gid).render()

    def render_point(self, index: int) -> str:
        return self.pool.decode_point(index).render()


# ---------------------------------------------------------------------------
# the operator tables
#
# A pool of at most 256 sets, whose ids fit one byte, folds a table over
# whole byte rows (``_lane_fold``); a larger one runs the loops below.

def _lane_fold(start: int, n: int, sets, tables, keep) -> bytes:
    """Per id g of a pool of n <= 256 sets, ``start`` folded through the
    translate tables ``tables[s]`` of the sets s, in order, whose byte
    row ``keep[s]`` marks g: one translate per set over the whole row,
    its bytes kept only where ``keep[s]`` is 0xFF."""
    row = bytes((start,)) * n
    acc = int.from_bytes(row, "little")
    for s in sets:
        new = int.from_bytes(row.translate(tables[s]), "little")
        acc ^= (acc ^ new) & keep[s]
        row = acc.to_bytes(n, "little")
    return row


def _closure_loop(pool: SetPool, closeds) -> list[int]:
    """Per pool set g, the meet of the closed sets over g."""
    meet = pool.meet
    row = []
    for g in range(pool.size):
        acc = pool.full_id
        mg = meet[g]
        for k in closeds:
            if mg[k] == g:
                acc = meet[acc][k]
        row.append(acc)
    return row


def _interior_loop(pool: SetPool, opens) -> list[int]:
    """Per pool set g, the join of the opens under g."""
    meet, join = pool.meet, pool.join
    row = []
    for g in range(pool.size):
        acc = pool.null_id
        mg = meet[g]
        for o in opens:
            if mg[o] == o:
                acc = join[acc][o]
        row.append(acc)
    return row


def _nbhds_loop(pool: SetPool, interior, pts) -> list[int]:
    """Per point of ``pts``, the mask of the sets whose interior holds
    it: the union of the interior's preimages of the sets holding it."""
    preimage: dict[int, int] = {}
    for nb, o in enumerate(interior):
        preimage[o] = preimage.get(o, 0) | 1 << nb
    pin = pool.pt_in_mask
    return [sum(m for o, m in preimage.items() if (pm >> o) & 1)
            for pm in map(pin.__getitem__, pts)]


def _ids(pair, first, second):
    """A scan's index pair as pool ids."""
    return None if pair is None else (first[pair[0]], second[pair[1]])


def _separations(pool: SetPool, opens, carrier):
    """The pairs (a, b) of disjoint nonempty opens joining to the
    carrier, a before b in ``opens``, in the order of ``opens``."""
    disj = pool.disj_mask
    join = pool.join
    for i in range(len(opens)):
        a = opens[i]
        if a == 0:
            continue
        da = disj[a]
        ja = join[a]
        for b in opens[i + 1:]:
            if b and (da >> b) & 1 and ja[b] == carrier:
                yield a, b


def _sep_pair(pool: SetPool, opens, carrier):
    """First pair of disjoint nonempty opens joining to the carrier."""
    return next(_separations(pool, opens, carrier), None)
