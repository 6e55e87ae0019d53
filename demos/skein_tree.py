"""
Inside the recursion: bad crossings, markings, and replayable trees
===================================================================

The engine walks each component from a base edge and calls a crossing
"bad" when it is first reached along its under-strand.  The value of a
diagram is assembled from the values of its switched and smoothed
children at the first bad crossing; descending diagrams (no bad
crossings) are the base case.  The default marking picks base edges
and a component order with few bad crossings, which keeps the tree
small.
"""

from skeinalg import evaluate, make_algebra, parse_diagram
from skeinalg.skein import (Marking, TraceBranch, TraceLeaf, bad_crossings,
                            default_marking, replay, trace)

hopf = parse_diagram("PD[X[1,3,2,4],X[3,1,4,2]]")
print("default marking:", default_marking(hopf).bases)
print("bad crossings:  ", bad_crossings(hopf))
print()

# Which crossings are bad depends on where each component starts.
curl = parse_diagram("PD[X[1,1,2,2]]")
print("curl, base edge 1:", bad_crossings(curl, Marking((1,))))
print("curl, base edge 2:", bad_crossings(curl, Marking((2,))))
print("(the value is the same either way; only the tree shape changes)")
print("curl, default marking:", default_marking(curl).bases)
print()

# ... and on the order of the components: a component that runs over
# the others is best walked first.
borromean = parse_diagram("PD[X[1,6,2,5],X[9,2,10,3],X[6,11,7,10],"
                          "X[3,7,4,8],X[11,1,12,4],X[8,12,5,9]]")
first = Marking(tuple(comp[0] for comp in borromean.components))
print("borromean, first edges", first.bases, "bad:",
      bad_crossings(borromean, first))
print("borromean, default    ", default_marking(borromean).bases, "bad:",
      bad_crossings(borromean))
print()


def show(node, indent=""):
    if isinstance(node, TraceLeaf):
        print(f"{indent}unlink with {node.components} component(s)")
        return
    assert isinstance(node, TraceBranch)
    sgn = "+" if node.sign > 0 else "-"
    print(f"{indent}crossing {node.crossing} ({sgn}, {node.kind})")
    show(node.switched, indent + "  [switch] ")
    show(node.smoothed, indent + "  [smooth] ")


# trace() records the whole recursion once, independent of any algebra.
tree = trace(hopf)
show(tree)
print()

# The same tree replays into any algebra.
for key in ("gen-conway", "homflypt", "classic3"):
    alg = make_algebra(key)
    print(f"{key:12s} {alg.render(replay(tree, alg))}")
print()

# And replay agrees with direct evaluation, of course.
gc = make_algebra("gen-conway")
assert replay(tree, gc) == evaluate(hopf, gc)
print("replay(trace(d)) == evaluate(d)  checked")
