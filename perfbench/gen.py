"""Seeded inputs for the benchmark workloads.

Every document is the min/max closure (``corpus.close_family``) of a few
seeded generator sets, rendered with ``document.document_from_topology``
and given seeded ``set`` probes for ``closure`` and ``interior``.  The
same seed gives the same bytes.  Nothing here is timed.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from fractions import Fraction

from fstopo.algebra import GradeLattice, Universe
from fstopo.corpus import SetPool, close_family
from fstopo.document import document_from_topology
from fstopo.softsets import ParameterSet

ELEMENTS = ("x", "y", "z")
GRADES = (Fraction(0), Fraction(1, 2), Fraction(1))

# (elements, parameters, generators, opens).  A document's opens count
# is fixed per shape, because the cost of every command grows with it;
# seeds then vary which space is audited or queried, not how big it is.
AUDIT_DOC_SHAPE = (3, 2, 5, 32)
QUERY_DOC_SHAPES = ((2, 2, 3, 12), (3, 2, 4, 24))
# one 3x2x3 document per batch: its axioms scan at --lattice 4 is the
# heavy tail (0.3 to 1.3 s, by where the first T0 witness lies).  The
# 36 small documents take about 5.5 s, so a seed whose scan is slow
# makes its batch only about an eighth slower than the others
QUERY_DOCS_PER_SHAPE = (36, 1)
PROBES = 2


@functools.cache
def pool_for(elements: int, parameters: int) -> SetPool:
    return SetPool(
        Universe.of(*ELEMENTS[:elements]),
        ParameterSet.of(*(f"e{i + 1}" for i in range(parameters))),
        GradeLattice(GRADES),
    )


def _space_ids(pool: SetPool, rng: random.Random, generators: int,
               opens: int) -> list[int]:
    inner = range(1, pool.size - 1)
    while True:
        gens = tuple(sorted(rng.sample(inner, generators)))
        closed = close_family(pool, gens, opens)
        if closed is not None and len(closed) == opens:
            return sorted(closed)


def _document_text(pool: SetPool, rng: random.Random, shape) -> str:
    ids = _space_ids(pool, rng, *shape[2:])
    doc = document_from_topology(
        pool.decode(pool.full_id), [pool.decode(i) for i in ids],
        lattice_spec=GRADES)
    probes = tuple((f"p{k + 1}", pool.decode(rng.randrange(pool.size)))
                   for k in range(PROBES))
    return dataclasses.replace(doc, extras=probes).render()


def audit_document(seed: int) -> str:
    """The ``audit-doc`` input: one seeded 3x2x3 document."""
    rng = random.Random(f"audit-doc:{seed}")
    return _document_text(pool_for(*AUDIT_DOC_SHAPE[:2]), rng,
                          AUDIT_DOC_SHAPE)


def query_documents(seed: int) -> list[str]:
    """The ``query-doc`` inputs: seeded 2x2x3 and 3x2x3 documents."""
    rng = random.Random(f"query-doc:{seed}")
    texts = []
    for shape, count in zip(QUERY_DOC_SHAPES, QUERY_DOCS_PER_SHAPE):
        pool = pool_for(*shape[:2])
        texts.extend(_document_text(pool, rng, shape) for _ in range(count))
    return texts
