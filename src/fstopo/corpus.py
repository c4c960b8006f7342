"""Topology enumeration and generation for the audit corpus.

Sets over a fixed (universe, parameters, lattice) shape are encoded as
integers: each cell (parameter, element) holds a lattice index, and the id
is the big-endian mixed-radix number of the index vector, the set's
digits.  The pool decodes digits with the trusted constructors
``softsets.lattice_soft_set`` and ``points.lattice_point``, and its
points are the (parameter index, digits) pairs of
``points.lattice_points``.  Id order then
coincides with the canonical sort order of the decoded sets, id 0 is the
null set and the last id is the all-one carrier.  Meet, join and
complement become table lookups, which keeps enumerating tens of
thousands of generator families cheap.  No other module reads an id's
digits: they go through the tables and ``SetPool``'s methods, so the
encoding can change behind them.

The tables are built a cell at a time rather than pair by pair: adding
a leading cell of grade index ``a`` in front of sub-id ``x`` gives id
``a * W + x``, and since meet and join act cellwise, each new row is the
concatenation of one sub-row shifted into the blocks ``min(a, b)`` (or
``max(a, b)``).  The order is kept as bitmasks over ids, built by the
same recursion: ``below[w]`` and ``above[w]`` mark the sets under and
over ``w``.  A point lies in a set exactly when its form lies under the
set, so each point's membership mask over set ids is the ``above`` row
at its form.  ``engine.SpaceCase`` reads the membership, order and
disjointness masks as they are, over set ids, cut to a case's opens.
The transposed per-set masks over point indices give a case its points
and let the pool claims in ``claims.py`` flag offending points with
whole-row mask operations and re-scan only those.
For the whole-row kernels of the pair claims, ``SetPool.lanes()``
rewrites the tables of a pool of at most 256 sets, on first use, as
byte rows and as lanes of thermometer codes (``Lanes``); past 256 sets
it is None, and its callers read the list tables.

The corpus is every min/max closure of null, full and at most
``max_generators`` ids, grown as a tree: a family with generators
``g1 < ... < gk`` is its parent's closure, the family of ``g1 .. gk-1``,
with ``gk`` added, and ``_closures`` gives every child of a family at
once.  A family is its ascending id tuple, the one form the enumeration
deduplicates, sorts and keeps.  A family past ``max_opens`` is skipped,
and so is every family grown from it.  The tree's size is known up
front, and ``family_cap`` refuses it before any closure runs.

The corpus pins the carrier to the all-one set.  Sub-carrier spaces enter
the test bed through the named catalogue instead, where the interesting
complement pathologies are constructed by hand.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .algebra import CapExceededError, GradeLattice, Universe
from .engine import _bits
from .points import FuzzySoftPoint, lattice_point, lattice_points
from .softsets import FuzzySoftSet, ParameterSet, lattice_soft_set, thermometer
from .topology import FuzzySoftTopology

DEFAULT_MAX_GENERATORS = 3
DEFAULT_MAX_OPENS = 64
DEFAULT_POOL_CAP = 4096
DEFAULT_FAMILY_CAP = 10**6


class SetPool:
    """All lattice-valued sets over one shape, addressed by integer id."""

    def __init__(self, universe: Universe, parameters: ParameterSet,
                 lattice: GradeLattice, cap: int = DEFAULT_POOL_CAP):
        self.universe = universe
        self.parameters = parameters
        self.lattice = lattice
        self.cells = len(parameters) * len(universe)
        self.radix = len(lattice)
        size = self.radix**self.cells
        if size > cap:
            raise CapExceededError("lattice set pool", size, cap)
        self.size = size
        self.null_id = 0
        self.full_id = size - 1
        self._grade_index = {g: i for i, g in enumerate(lattice)}
        self._decoded: dict[int, FuzzySoftSet] = {}
        self._decoded_points: dict[int, FuzzySoftPoint] = {}
        self._splits: dict[int, tuple[tuple[int, int], ...]] = {}
        self._lanes: Lanes | None = None
        self._build_tables()
        self.build_points()

    # cell order: parameter-major, then universe order; big-endian so that
    # id order equals the lexicographic order of grade vectors
    def _encode(self, vector: tuple[int, ...]) -> int:
        set_id = 0
        for d in vector:
            set_id = set_id * self.radix + d
        return set_id

    def _build_tables(self) -> None:
        radix, top = self.radix, self.radix - 1
        self._vectors = list(itertools.product(range(radix), repeat=self.cells))
        grades = range(radix)
        # one cell: an id is its grade index
        meet = [[min(a, b) for b in grades] for a in grades]
        join = [[max(a, b) for b in grades] for a in grades]
        # disjointness and order as bitmask rows: bit j of disj_mask[i] set
        # when meet(i, j) is null, of below[i] when j <= i, of above[i]
        # when i <= j
        disj = [(1 << radix) - 1] + [1] * top
        below = [(2 << a) - 1 for a in grades]
        above = [(1 << radix) - (1 << a) for a in grades]
        width = radix
        for _ in range(self.cells - 1):
            meet, join, disj, below, above = _lead_cell(
                radix, width, meet, join, disj, below, above)
            width *= radix
        self.meet, self.join, self.disj_mask = meet, join, disj
        # complementing every digit d to top - d takes id g to full_id - g
        self.comp = list(range(self.full_id, -1, -1))
        self.below, self.above = below, above

    def leq(self, i: int, j: int) -> bool:
        return self.meet[i][j] == i

    def lanes(self) -> Lanes | None:
        """The byte-row tables of the whole-row kernels and of a case's
        closure, interior and neighborhood tables, built on first use; or
        None past 256 sets, whose ids do not fit one byte.  The one place
        that knows the bound: callers take None for the list tables."""
        if self._lanes is None and self.size <= 256:
            self._lanes = Lanes(self)
        return self._lanes

    def restrictions(self, set_id: int) -> list[int]:
        """Per parameter, in order, the id of the set that keeps
        ``set_id``'s grades on that parameter's cells and is null on the
        others."""
        # a parameter's cells are one block of digits in the id
        block = self.radix ** len(self.universe)
        place = self.size
        parts = []
        for _ in self.parameters:
            place //= block
            parts.append(set_id // place % block * place)
        return parts

    def cell_splits(self, set_id: int) -> tuple[tuple[int, int], ...]:
        """The cell-wise splits of ``set_id`` into two non-null sides, as
        (a, b) with b the rest of a; a split is read as a binary counter
        over the nonzero cells of ``set_id``, the first as bit 0, and
        side a keeps the cells of its set bits.  Listed once per id and
        shared by every later call."""
        got = self._splits.get(set_id)
        if got is not None:
            return got
        # an id is the sum over its cells of digit times place
        place = self.size
        parts = []
        for d in self._vectors[set_id]:
            place //= self.radix
            if d:
                parts.append(d * place)
        sides = [0]
        for w in parts:
            sides += [a + w for a in sides]
        got = self._splits[set_id] = tuple(
            (a, set_id - a) for a in sides[1:-1])
        return got

    def decode(self, set_id: int) -> FuzzySoftSet:
        got = self._decoded.get(set_id)
        if got is None:
            got = self._decoded[set_id] = lattice_soft_set(
                self.universe, self.parameters, self.lattice,
                self._vectors[set_id])
        return got

    def encode(self, fss: FuzzySoftSet) -> int:
        digits = []
        for value in fss.values:
            for g in value.grades:
                digits.append(self._grade_index[g])
        return self._encode(tuple(digits))

    def topology(self, ids: Iterable[int]) -> FuzzySoftTopology:
        """The topology whose opens are the sets ``ids`` name; the
        largest id, the top of the family, is its carrier."""
        ids = sorted(ids)
        return FuzzySoftTopology(carrier=self.decode(ids[-1]),
                                 opens=tuple(map(self.decode, ids)))

    # ---- points over the pool ----------------------------------------
    # A point is (parameter index, nonzero digits), as
    # ``points.lattice_points`` lists it, and lies in a set exactly when
    # its form, the set holding the digits on that parameter and null
    # elsewhere, lies under the set: pt_in_mask[p] is the order row
    # above[pt_form_id[p]], and its transpose pt_set_mask[s] has bit p set
    # for the same pairs.  Built once, with the pool.

    def build_points(self) -> None:
        if hasattr(self, "points"):
            return
        # fewer points than sets: the pool's cap bounds them
        points = lattice_points(self.universe, self.parameters,
                                self.lattice, self.size)
        # the parameter's cells are one block of digits in the id
        block = self.radix ** len(self.universe)
        form_ids = [self._encode(vec) * (self.size // block ** (pi + 1))
                    for pi, vec in points]
        masks = [self.above[f] for f in form_ids]
        set_masks = [0] * self.size
        for p, mask in enumerate(masks):
            for s in _bits(mask):
                set_masks[s] |= 1 << p
        self.points = points
        self.pt_in_mask = masks
        self.pt_set_mask = set_masks
        self.pt_form_id = form_ids

    def decode_point(self, index: int) -> FuzzySoftPoint:
        got = self._decoded_points.get(index)
        if got is None:
            got = self._decoded_points[index] = lattice_point(
                self.universe, self.parameters, self.lattice,
                *self.points[index])
        return got


# '0' -> 0x00 and '1' -> 0xFF turn a bitmask's binary digits, read low
# bit first, into a byte row; 0 -> '0' and every other byte -> '1' turn
# a byte row, read high byte first, back into the binary digits of one
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\xff")
_BYTE_BITS = b"0" + b"1" * 255


def spread(mask: int, width: int) -> bytes:
    """The bitmask ``mask``, of bits under ``width``, as a byte row of
    ``width`` bytes: 0xFF at each set bit, 0 elsewhere, so a bit is read
    by indexing, with no shift of a long int per read."""
    return format(mask, f"0{width}b")[::-1].encode().translate(_BIT_BYTES)


class Lanes:
    """A pool's tables for whole-row kernels, over ids of one byte.

    A row is one byte per id h of the pool's n, read as an int with byte
    h at bits ``8h .. 8h+7`` (little-endian), so one int operation acts
    on all n ids at once.  ``meet[g]`` and ``join[g]`` are the rows of
    the pool tables as bytes, and ``meet_tables[g]`` and
    ``join_tables[g]`` are them padded to 256-byte translate tables from
    h to g & h and g | h.  ``comp`` is the complement row and
    ``comp_table`` its translate table, and ``ids`` the row of every id
    at its own byte.  ``point_digits[p]`` is the translate table
    from a set id to the digit b"1" when point p lies in the set and
    b"0" when not.  A set's code is the ``softsets.thermometer`` code of
    its digits, ``radix - 1`` bits a cell, so meet, join and order are
    ``&``, ``|`` and ``a & ~b == 0`` on codes; ``code[j]`` is the
    translate table from an id to byte j (lane j) of its code, and
    ``codes[j]`` the packed row of lane j of every id's code; every
    cellwise test runs lane by lane.  ``above[g]`` and ``below[g]``
    hold 0xFF at the h over (under) g, and
    ``up[j][r]`` holds lane j of r's code at the h under r and 0xFF
    elsewhere (a negative int, every bit past the row set), so ANDing it
    in meets r into exactly the bytes of the h under r.  ``ones`` has
    the byte 1 at every h, so ``b * ones`` repeats the byte b over a row.
    """

    def __init__(self, pool: SetPool):
        n = self.size = pool.size
        self.ones = int.from_bytes(b"\x01" * n, "little")
        self.meet = [bytes(row) for row in pool.meet]
        self.join = [bytes(row) for row in pool.join]
        self.comp = bytes(pool.comp)
        self.ids = int.from_bytes(bytes(range(n)), "little")
        pad = bytes(256 - n)
        self.comp_table = self.comp + pad
        self.meet_tables = [row + pad for row in self.meet]
        self.join_tables = [row + pad for row in self.join]
        self.above = [int.from_bytes(self.spread(m), "little")
                      for m in pool.above]
        self.below = [int.from_bytes(self.spread(m), "little")
                      for m in pool.below]
        self.point_digits = [self.spread(m, 256).translate(_BYTE_BITS)
                             for m in pool.pt_in_mask]
        bits = pool.radix - 1
        codes = [thermometer(vec, bits) for vec in pool._vectors]
        self.code = [bytes(c >> 8 * j & 255 for c in codes) + pad
                     for j in range(max(1, -(-pool.cells * bits // 8)))]
        self.codes = [int.from_bytes(table[:n], "little")
                      for table in self.code]
        self.up = [[table[r] * self.ones | ~self.below[r] for r in range(n)]
                   for table in self.code]

    def spread(self, mask: int, width: int | None = None) -> bytes:
        """``spread(mask, width)``, of the pool's n bytes by default."""
        return spread(mask, self.size if width is None else width)

    def image(self, row: list[int]) -> list[tuple[bytes, int]]:
        """Per lane j, the map ``h -> row[h]`` read through ``code[j]``:
        as a 256-byte translate table and as the packed row of its n
        bytes."""
        ids = bytes(row)
        pad = bytes(256 - len(ids))
        out = []
        for table in self.code:
            codes = ids.translate(table)
            out.append((codes + pad, int.from_bytes(codes, "little")))
        return out

    def broadcast(self, table: bytes):
        """Per id h, the byte ``table[h]`` repeated over a row, lazily."""
        return map(self.ones.__mul__, table[:self.size])

    def read(self, rows, table: bytes):
        """Each byte row of ``rows`` put through the translate table
        ``table`` and read as an int, lazily."""
        return map(int.from_bytes, map(bytes.translate, rows,
                                       itertools.repeat(table)),
                   itertools.repeat("little"))

    def bits(self, row: int) -> int:
        """The bitmask of the bytes of ``row`` that are not 0."""
        return int(row.to_bytes(self.size, "big").translate(_BYTE_BITS), 2)

    def positions(self, row: int):
        """The h whose byte of ``row`` is not 0, ascending."""
        if not row:
            return ()
        return itertools.compress(range(self.size),
                                  row.to_bytes(self.size, "little"))


def _lead_cell(radix: int, width: int, meet, join, disj, below, above):
    """The pool tables over one more leading cell, from the tables over
    the ``width`` sets of the cells after it.

    Id ``a * width + x`` holds grade index ``a`` in the new cell and sub-id
    ``x`` in the rest, so meet and join act blockwise: the entry at
    ``(a * width + x, b * width + y)`` is ``min(a, b) * width + meet[x][y]``
    (``max`` for join), and a row is the concatenation of sub-row ``x``
    shifted into the blocks ``min(a, b)``.  Likewise the ids under
    ``a * width + x`` are those under ``x`` in the blocks ``0 .. a``, and
    the ids over it those over ``x`` in the blocks ``a .. radix - 1``.
    """
    grades = range(radix)
    ids = list(range(radix * width))
    # shifting by indexing one shared id list keeps a single int object
    # per id behind every table entry
    blocks = [ids[c * width:(c + 1) * width] for c in grades]
    new_meet = [None] * len(ids)
    new_join = [None] * len(ids)
    for x in range(width):
        sub_m = [list(map(blk.__getitem__, meet[x])) for blk in blocks]
        sub_j = [list(map(blk.__getitem__, join[x])) for blk in blocks]
        for a in grades:
            new_meet[a * width + x] = list(itertools.chain.from_iterable(
                sub_m[min(a, b)] for b in grades))
            new_join[a * width + x] = list(itertools.chain.from_iterable(
                sub_j[max(a, b)] for b in grades))
    # a null leading grade meets every block; any other meets block 0 only
    every_block = sum(1 << (b * width) for b in grades)
    new_disj = [d * every_block for d in disj] + disj * (radix - 1)
    # a sub-row times a sum of block bits copies it into those blocks
    new_below = [m * (every_block & ((2 << (a * width)) - 1))
                 for a in grades for m in below]
    new_above = [m * (every_block >> (a * width) << (a * width))
                 for a in grades for m in above]
    return new_meet, new_join, new_disj, new_below, new_above


@dataclass(frozen=True)
class CorpusSpec:
    universe: Universe
    parameters: ParameterSet
    lattice: GradeLattice
    max_generators: int = DEFAULT_MAX_GENERATORS
    max_opens: int = DEFAULT_MAX_OPENS
    pool_cap: int = DEFAULT_POOL_CAP
    family_cap: int = DEFAULT_FAMILY_CAP

    @classmethod
    def desk(cls, **overrides) -> "CorpusSpec":
        return cls(
            universe=Universe.of("x", "y"),
            parameters=ParameterSet.of("e1", "e2"),
            lattice=GradeLattice.close({Fraction(1, 2)}),
            **overrides,
        )

    def family_count(self, pool_size: int) -> int:
        return _families(pool_size, self.max_generators)

    def to_payload(self) -> dict:
        return {
            "universe": list(self.universe),
            "parameters": list(self.parameters),
            "lattice": [str(g) for g in self.lattice],
            "max_generators": self.max_generators,
            "max_opens": self.max_opens,
        }


def _families(ids: int, generators: int) -> int:
    """The families of at most ``generators`` ids drawn from ``ids``."""
    return sum(math.comb(ids, k) for k in range(generators + 1))


def close_family(pool: SetPool, generators: tuple[int, ...],
                 max_opens: int) -> Optional[tuple[int, ...]]:
    """Min/max closure of {null, full} + generators as an ascending id
    tuple; None when it would exceed max_opens.  Each generator is added
    as the one column of a ``_closures`` call."""
    family = (pool.null_id, pool.full_id)
    if len(family) > max_opens:
        return None
    for g in generators:
        family, = _closures(pool, family, g, max_opens, g + 1)
        if family is None:
            return None
    return family


def _closures(pool: SetPool, family: tuple[int, ...], first: int,
              max_opens: int, stop: Optional[int] = None) -> list:
    """The min/max closure of the closed family ``family`` (ascending,
    holding null and full) with one id g added, for each g from ``first``
    up to ``stop``: an ascending id tuple, or None past ``max_opens``.

    The pool's lattice is distributive, so that closure is every
    ``a | (g & b)`` with a <= b in ``family``, since a with b gives what
    a with ``a | b`` gives (Graetzer, *Lattice Theory: Foundation*, 2011).
    A pair is one row over every g: b's meet row, ``g & b`` at g, read
    through a's join row.  Column g of the rows holds g's closure."""
    pairs = [(a, b) for i, a in enumerate(family) for b in family[i:]
             if pool.meet[a][b] == a]
    lanes = pool.lanes()
    if lanes is not None:
        rows = [lanes.meet[b][first:stop].translate(lanes.join_tables[a])
                for a, b in pairs]
    else:  # ids past one byte: gather from the list tables
        rows = [map(pool.join[a].__getitem__, pool.meet[b][first:stop])
                for a, b in pairs]
    return [tuple(sorted(s)) if len(s) <= max_opens else None
            for s in map(set, zip(*rows))]


@dataclass
class EnumerationStats:
    families_scanned: int = 0
    skipped_over_max_opens: int = 0
    distinct: int = 0


class SpaceCorpus:
    """Deduplicated enumeration of all topologies generated by at most
    ``max_generators`` ids of one pool, as id tuples sorted by size and
    then by ids.  Each family is its parent's closure extended by one
    generator above the parent's last, every child of a family from one
    ``_closures`` call, and a family past ``max_opens`` is skipped along
    with every family grown from it."""

    def __init__(self, spec: CorpusSpec):
        self.spec = spec
        self.pool = SetPool(
            spec.universe, spec.parameters, spec.lattice, cap=spec.pool_cap
        )
        count = spec.family_count(self.pool.size)
        if count > spec.family_cap:
            raise CapExceededError("generator families", count, spec.family_cap)
        # every family of the tree is scanned, kept or skipped
        self.stats = EnumerationStats(families_scanned=count)
        self.spaces: list[tuple[int, ...]] = []
        self._enumerate()

    def _enumerate(self) -> None:
        pool, spec, stats = self.pool, self.spec, self.stats
        top = spec.max_generators
        seen: set[tuple[int, ...]] = set()

        def grow(family: Optional[tuple[int, ...]], first: int,
                 generators: int) -> None:
            if family is None:
                # the family and every family grown from it
                stats.skipped_over_max_opens += _families(
                    pool.size - first, top - generators)
                return
            seen.add(family)
            if generators == top:
                return
            children = _closures(pool, family, first, spec.max_opens)
            if generators + 1 < top:
                for g, child in enumerate(children, first + 1):
                    grow(child, g, generators + 1)
            else:
                # the last level: nothing grows from these
                seen.update(filter(None, children))
                stats.skipped_over_max_opens += children.count(None)

        grow(close_family(pool, (), spec.max_opens), 0, 0)
        by_size = collections.defaultdict(list)
        for family in seen:
            by_size[len(family)].append(family)
        self.spaces = [f for k in sorted(by_size) for f in sorted(by_size[k])]
        stats.distinct = len(self.spaces)

    def label(self, index: int) -> str:
        return f"enum-{index:05d}"


def random_space_ids(seed: int, spec: CorpusSpec, pool: SetPool) -> tuple[int, ...]:
    """Generator family drawn uniformly, closed; deterministic in seed."""
    rng = random.Random(seed)
    for _ in range(1000):
        k = rng.randint(0, spec.max_generators)
        gens = tuple(sorted(rng.sample(range(pool.size), k)))
        closure = close_family(pool, gens, spec.max_opens)
        if closure is not None:
            return closure
    raise RuntimeError("no family within the opens bound after 1000 draws")


# ---------------------------------------------------------------------------
# Named catalogue: hand-built spaces that the big enumeration cannot reach.
# The enumerated corpus pins the carrier to all-one and tops out well below
# the discrete family, so crisp discrete spaces, sub-carrier spaces and the
# known clopen/closure pathologies are written out explicitly here.


@dataclass(frozen=True)
class NamedSpace:
    """One fixed space: its own pool plus the open family as ids."""

    label: str
    pool: SetPool
    ids: tuple[int, ...]
    note: str

    @property
    def carrier_id(self) -> int:
        return self.ids[-1]


def _named(label: str, elements: tuple[str, ...], params: tuple[str, ...],
           lattice_seeds: tuple[str, ...], opens, note: str,
           carrier=None) -> NamedSpace:
    universe = Universe.of(*elements)
    parameters = ParameterSet.of(*params)
    lattice = GradeLattice.close(lattice_seeds) if lattice_seeds \
        else GradeLattice.close(())
    pool = SetPool(universe, parameters, lattice)
    top = pool.full_id if carrier is None \
        else pool.encode(FuzzySoftSet.build(universe, parameters, carrier))
    ids = {pool.null_id, top}
    for assignment in opens:
        if assignment == "all":
            ids.update(range(pool.size))
            continue
        sid = pool.encode(FuzzySoftSet.build(universe, parameters, assignment))
        if pool.meet[sid][top] != sid:
            raise ValueError(f"{label}: open not below the carrier")
        ids.add(sid)
    return NamedSpace(label=label, pool=pool, ids=tuple(sorted(ids)), note=note)


def named_spaces() -> tuple[NamedSpace, ...]:
    """The fixed catalogue, in a stable order."""
    half = {"x": Fraction(1, 2)}
    spaces = (
        _named("named-running", ("x", "y"), ("e1",), ("1/2",),
               [{"e1": {"x": "1/2"}}],
               "two-element universe, one parameter, one half-open"),
        _named("named-discrete-crisp-1x1", ("x",), ("e1",), (),
               ["all"], "every crisp set open; single cell"),
        _named("named-discrete-crisp-1x2", ("x",), ("e1", "e2"), (),
               ["all"], "every crisp set open; two parameters"),
        _named("named-discrete-crisp-2x1", ("x", "y"), ("e1",), (),
               ["all"], "every crisp set open; two elements"),
        _named("named-discrete-crisp-2x2", ("x", "y"), ("e1", "e2"), (),
               ["all"], "every crisp set open; four cells"),
        _named("named-indiscrete-2x2", ("x", "y"), ("e1", "e2"), (),
               [], "only the null set and the carrier are open"),
        _named("named-halfstep-1x1", ("x",), ("e1",), ("1/2",),
               ["all"], "discrete over the three-grade chain on one cell"),
        _named("named-split-half", ("x", "y"), ("e1",), ("1/2",),
               [{"e1": {"x": "1/2"}}, {"e1": {"y": "1/2"}}],
               "half-high carrier split into two disjoint half-opens",
               carrier={"e1": {"x": "1/2", "y": "1/2"}}),
        _named("named-subcarrier-indiscrete", ("x",), ("e1",), ("1/3",),
               [], "indiscrete with a carrier strictly below all-one",
               carrier={"e1": {"x": "1/3"}}),
    )
    return spaces
