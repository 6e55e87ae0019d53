"""Independent reference implementations used only by tests.

Nothing here imports the skein module.  Like the engine, the evaluator
below gives every smoothed sub-diagram a fresh marking; what keeps it
independent is the rest.  It resolves the LAST bad crossing instead of
the first, so its tree differs from the engine's; it re-derives
components and traversal order from crossing tuples with its own
`_cycles` walk; and it memoizes nothing.  Agreement with the engine is
therefore evidence for well-definedness of the recursion, not a
shared-code tautology.  The
exhaustive encoder searches every relabeling that the engine's rooted
canonical code avoids searching.
"""

from __future__ import annotations

from itertools import permutations, product

from skeinalg.algebra import ConwayAlgebraSpec, OpKind
from skeinalg.diagram import Diagram


def braid_components(n: int, letters) -> int:
    """Closure component count via the underlying permutation."""
    perm = list(range(n))
    for letter in letters:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = set()
    cycles = 0
    for s in range(n):
        if s in seen:
            continue
        cycles += 1
        x = s
        while x not in seen:
            seen.add(x)
            x = perm[x]
    return cycles


def _next_edge_map(d: Diagram) -> dict[int, int]:
    nxt: dict[int, int] = {}
    for ci, cr in enumerate(d.crossings):
        oi = d.over_in[ci]
        nxt[cr[0]] = cr[2]
        nxt[cr[oi]] = cr[(oi + 2) % 4]
    return nxt


def _cycles(d: Diagram) -> list[list[int]]:
    nxt = _next_edge_map(d)
    seen: set[int] = set()
    cycles: list[list[int]] = []
    for e in sorted(nxt):
        if e in seen:
            continue
        cyc = []
        x = e
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = nxt[x]
        cycles.append(cyc)
    cycles.sort(key=min)
    return cycles


def _first_visits(d: Diagram, bases) -> list[tuple[int, str]]:
    """(crossing, 'under'|'over') per first visit, in traversal order."""
    nxt = _next_edge_map(d)
    heads: dict[int, tuple[int, str]] = {}
    for ci, cr in enumerate(d.crossings):
        heads[cr[0]] = (ci, "under")
        heads[cr[d.over_in[ci]]] = (ci, "over")
    out: list[tuple[int, str]] = []
    hit: set[int] = set()
    for base in bases:
        e = base
        while True:
            ci, role = heads[e]
            if ci not in hit:
                hit.add(ci)
                out.append((ci, role))
            e = nxt[e]
            if e == base:
                break
    assert len(hit) == len(d.crossings), "oracle traversal incomplete"
    return out


def naive_evaluate(d: Diagram, algebra: ConwayAlgebraSpec, bases=None):
    """Last-bad-crossing, fresh-marking, memo-free evaluator."""
    cycles = _cycles(d)
    if bases is None:
        bases = [cyc[0] for cyc in cycles]
    comp_of = {e: i for i, cyc in enumerate(cycles) for e in cyc}
    bad = [ci for ci, role in _first_visits(d, bases) if role == "under"]
    if not bad:
        return algebra.unit(len(cycles) + d.free_loops)
    ci = bad[-1]
    a, b, _, _ = d.crossings[ci]
    sign = 1 if d.over_in[ci] == 3 else -1
    mixed = comp_of[a] != comp_of[b]
    if sign > 0:
        op = OpKind.STAR if mixed else OpKind.CIRC
    else:
        op = OpKind.SSLASH if mixed else OpKind.SLASH
    left = naive_evaluate(d.crossing_change(ci), algebra, bases)
    right = naive_evaluate(d.smooth_with_map(ci)[0], algebra)
    return algebra.apply(op, left, right)


def exhaustive_encode(d: Diagram) -> str:
    """Canonical code by brute force: the smallest rendered PD text over
    every component order and every starting edge, crossings sorted.

    Costs c!·∏|component| renders, so it is for small diagrams only.
    Components come from `_cycles`, not from the engine's encoder."""
    suffix = f"+O^{d.free_loops}" if d.free_loops else ""
    if not d.crossings:
        return f"PD[]{suffix}"
    cycles = _cycles(d)
    best = None
    for order in permutations(cycles):
        for starts in product(*(range(len(cyc)) for cyc in order)):
            labmap = {}
            for cyc, k in zip(order, starts):
                for e in cyc[k:] + cyc[:k]:
                    labmap[e] = len(labmap) + 1
            rows = sorted(tuple(labmap[x] for x in cr) for cr in d.crossings)
            text = "PD[" + ",".join(
                f"X[{w},{x},{y},{z}]" for w, x, y, z in rows) + "]"
            if best is None or text < best:
                best = text
    return best + suffix
