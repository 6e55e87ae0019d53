"""
How the algebra instances relate to each other
==============================================

The wider families collapse onto the narrower ones under variable
substitutions, and the nonlinear instances store exactly the linear
values.  So the generalized families lose nothing of the classical
ones.  They gain nothing either: `gen-conway`, `gen-homflypt` and
`nonlinear` are each fixed by the classical two-variable polynomial
and the component count (the README derives the maps).
"""

from skeinalg import bundled_catalog, evaluate, make_algebra
from skeinalg.laurent import LaurentPoly

ghf = make_algebra("gen-homflypt")
hf = make_algebra("homflypt")
gc = make_algebra("gen-conway")
c3 = make_algebra("classic3")

d = next(e for e in bundled_catalog() if e.name == "whitehead").diagram()

# Bridge 1: the four-variable family at z=w is the classical
# two-variable polynomial (after identifying w with its z).
wide = evaluate(d, ghf)
hv = LaurentPoly.var(hf.table, "v")
hz = LaurentPoly.var(hf.table, "z")
collapsed = wide.substitute({"v": hv, "z": hz, "w": hz}, into=hf.table)
print("gen-homflypt:", wide.text())
print("collapsed:   ", collapsed.text())
print("homflypt:    ", evaluate(d, hf).text())
assert collapsed == evaluate(d, hf)
print()

# Bridge 2: tying the mixed-pair constant r to q recovers the
# three-variable classic family at z=0.
g = evaluate(d, gc)
cp = LaurentPoly.var(c3.table, "p")
cq = LaurentPoly.var(c3.table, "q")
zero = LaurentPoly.const(c3.table, 0)
left = g.substitute({"p": cp, "q": cq, "r": cq}, into=c3.table)
right = evaluate(d, c3).substitute({"p": cp, "q": cq, "z": zero},
                                   into=c3.table)
assert left == right
print("gen-conway at r=q equals classic3 at z=0:", left.text())
print()

# Bridge 3: the nonlinear instances are the linear one in disguise.
for k in (1, 2, 3):
    nk = make_algebra("nonlinear", k)
    stored = evaluate(d, nk)
    assert stored.text() == g.text()
    print(f"nonlinear k={k} renders as {nk.render(stored)}")
