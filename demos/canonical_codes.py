"""Canonical diagram encodings: one string per diagram presentation.

Diagram.canonical_encode quotients away edge-label shifts and crossing order,
so two differently-written PD codes for the same presentation produce
the same string.  It labels each piece of the diagram (components
joined through crossings) by a rooted traversal: the root's component
in orientation order, then every other component from the strand where
the walk first meets it.  Every crossing's incoming under-strand is
tried as the root and the smallest sorted crossing list is kept, so the
cost is polynomial in the number of edges rather than a search over
component orders and starting edges.  It does NOT quotient away moves:
isotopic but differently drawn diagrams still encode differently.  That
makes it the right cache key for computed values.
"""

from skeinalg import bundled_catalog, lookup, parse_diagram

# The same crossing data written with shifted labels.
a = parse_diagram("PD[X[1,3,2,4],X[3,1,4,2]]")
b = parse_diagram("PD[X[11,13,12,14],X[13,11,14,12]]")
assert a.canonical_encode() == b.canonical_encode()
print("label shift:     same code")

# A mirror is a different diagram and must stay distinguishable.
m = a.mirror()
assert m.canonical_encode() != a.canonical_encode()
print("mirror image:    different code")

# Two corpus entries arrive by different constructions: one as a braid
# closure, one as a twisted plat.  They land on the same presentation,
# and the encoding notices.
tref = lookup("trefoil-")
plat = lookup("3_1")
print("trefoil- from:  ", tref.comment)
print("3_1 from:       ", plat.comment)
same = tref.diagram().canonical_encode() == plat.diagram().canonical_encode()
print("same canonical code:", same)
print()

# Across the corpus the encoding separates everything else.
codes = {}
for e in bundled_catalog():
    codes.setdefault(e.diagram().canonical_encode(), []).append(e.name)
clashes = {tuple(v) for v in codes.values() if len(v) > 1}
print("coinciding presentations:", clashes or "none")
print(len(codes), "distinct codes for", sum(len(v) for v in codes.values()),
      "entries")
