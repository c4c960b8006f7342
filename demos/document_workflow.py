# The plain-text document workflow, end to end, without the CLI:
# write a space document, parse it, validate, cut a subspace, emit the
# induced space as a new document and read it back.

import tempfile
from pathlib import Path

from fstopo import (
    GradeLattice,
    document_from_topology,
    parse_document,
    validate_topology,
)

TEXT = """\
universe: x y
parameters: e1 e2
lattice: 0 1/2 1

carrier:
  e1: x=1/2 y=1/2

open none:

open a:
  e1: x=1/2

open all:
  e1: x=1/2 y=1/2
"""

doc = parse_document(TEXT)
print("parsed universe:", list(doc.universe), "parameters:",
      list(doc.parameters))

space = validate_topology(doc.carrier, [s for _, s in doc.opens])
print("validated with", len(space.opens), "opens")

# subspace at the open a; its opens are the traces a min o
sub = space.subspace(doc.named_set("a"))
print("subspace carrier:", sub.carrier.render())
for o in sub.opens:
    print("   open:", o.render())

# emit the induced space; grades written as exact fractions, 0.5 never
emitted = document_from_topology(
    sub.carrier, sub.opens, lattice_spec=tuple(GradeLattice.close(["1/2"])))
out = Path(tempfile.mkdtemp()) / "subspace.fst"
out.write_text(emitted.render())
print("\nemitted document:")
print(emitted.render())

again = parse_document(out.read_text())
revalidated = validate_topology(again.carrier, [s for _, s in again.opens])
print("re-ingested and revalidated:", len(revalidated.opens), "opens")
print("round trip exact:", again.render() == emitted.render())
