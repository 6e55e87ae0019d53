"""
Evaluating link diagrams in different coefficient algebras
==========================================================

A tour of the main entry point: parse a diagram, pick an algebra,
call evaluate.  Everything here is exact integer arithmetic; no
floating point is involved anywhere.
"""

from skeinalg import evaluate, make_algebra, parse_diagram

# Diagrams come in as PD text.  Each X[a,b,c,d] lists the four edge
# labels around one crossing counterclockwise, starting at the
# incoming under-strand.
trefoil = parse_diagram("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]")
hopf = parse_diagram("PD[X[1,3,2,4],X[3,1,4,2]]")

# Braid closures work too, and are often easier to write by hand.
fig8 = parse_diagram("braid(3; 1 -2 1 -2)")

print("trefoil:", trefoil.n_crossings, "crossings, writhe", trefoil.writhe)
print("figure eight:", fig8.n_crossings, "crossings, writhe", fig8.writhe)
print()

# The two-variable algebra most people know first.
homflypt = make_algebra("homflypt")
for name, d in [("trefoil", trefoil), ("figure-eight", fig8)]:
    value = evaluate(d, homflypt)
    print(f"homflypt({name}) = {value.text()}")

print()

# The three-variable family distinguishes the two smoothing roles:
# one affine pair for self crossings, another for mixed crossings.
gc = make_algebra("gen-conway")
print("gen-conway(hopf)    =", evaluate(hopf, gc).text())
print("gen-conway(trefoil) =", evaluate(trefoil, gc).text())

print()

# Nonlinear instances store k-th powers internally and render the
# root only at the edge.  The stored polynomial is identical to the
# linear one, which is the whole point of the construction.
n2 = make_algebra("nonlinear", 2)
stored = evaluate(hopf, n2)
print("nonlinear k=2 (hopf), stored:", stored.text())
print("nonlinear k=2 (hopf), shown: ", n2.render(stored))

print()

# Passing one memo dict across calls shares work between related
# diagrams.  PD input goes through the skein resolver, whose cost is
# exponential in the crossings; it memoizes per (algebra, diagram,
# marking).  A caller's marking reaches only the root and its switched
# children; every smoothed child is keyed under its own default
# marking, so related diagrams meet in the memo whatever marking they
# were called with.  The default marking keeps bad crossings few, and
# with them the number of sub-diagrams.  A braid closure (fig8 here) is
# valued on its word instead, memoized per (algebra, permutation read
# so far, letters left) once the permutation has absorbed every letter
# it can: at most n!*(L+1) states for n strands and L letters, plus a
# number that depends on n alone for the short words Markov
# destabilisation leaves.
memo = {}
for d in (trefoil, hopf, fig8):
    evaluate(d, gc, memo=memo)
print("shared memo now holds", len(memo), "sub-diagram values")
