"""Skein-recursive evaluation of diagrams in a Conway-style algebra.

Walk the diagram component by component from chosen base edges.  A
crossing is bad when the walk first reaches it along the under-strand.
With no bad crossings the diagram is descending and evaluates to the
algebra unit for its component count.  Otherwise the first bad crossing
is resolved two ways, by switching it and by smoothing it, and the two
values are combined with the operation matching the crossing's sign and
self/mixed status.  Termination: switching the first bad crossing makes
it good without disturbing earlier crossings, and smoothing removes a
crossing outright.

One recursion, `_resolve`, does this for both entry points: `evaluate`
combines algebra values as it goes, and `trace` records the tree that
`replay` later values in any algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ConwayAlgebraSpec, OpKind
from .diagram import Diagram

MAX_CROSSINGS = 64


class SkeinError(ValueError):
    pass


@dataclass(frozen=True)
class Marking:
    """Base edges, one per crossing-bearing component, in traversal order."""

    bases: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bases", tuple(int(b) for b in self.bases))


def default_marking(d: Diagram) -> Marking:
    return Marking(tuple(comp[0] for comp in d.components))


def _check_marking(d: Diagram, marking: Marking) -> None:
    seen = set()
    for b in marking.bases:
        if b not in d.comp_of:
            raise SkeinError(f"base edge {b} is not an edge of the diagram")
        ci = d.comp_of[b]
        if ci in seen:
            raise SkeinError(f"component of edge {b} has two base edges")
        seen.add(ci)
    if len(seen) != len(d.components):
        raise SkeinError(
            f"marking covers {len(seen)} of {len(d.components)} components"
        )


def bad_crossings(d: Diagram, marking: Marking | None = None) -> list[int]:
    """Crossings first reached on their under-strand, in first-visit order."""
    if marking is None:
        marking = default_marking(d)
    _check_marking(d, marking)
    return [ci for ci, slot in _walk_first_visits(d, marking) if slot == 0]


def _head_maps(d: Diagram) -> dict[int, tuple[int, int]]:
    """edge -> (crossing, in-slot) at which the edge terminates."""
    heads: dict[int, tuple[int, int]] = {}
    for ci, cr in enumerate(d.crossings):
        heads[cr[0]] = (ci, 0)
        oi = d.over_in[ci]
        heads[cr[oi]] = (ci, oi)
    return heads


def _walk_first_visits(d: Diagram, marking: Marking):
    """Yield (crossing, in_slot) for each first visit, in traversal order."""
    heads = _head_maps(d)
    visited: set[int] = set()
    order: list[tuple[int, int]] = []
    for base in marking.bases:
        e = base
        while True:
            ci, slot = heads[e]
            if ci not in visited:
                visited.add(ci)
                order.append((ci, slot))
            e = d.succ[e]
            if e == base:
                break
    if len(visited) != len(d.crossings):
        raise SkeinError("traversal failed to reach every crossing")
    return order


def _first_bad(d: Diagram, marking: Marking) -> int | None:
    for ci, slot in _walk_first_visits(d, marking):
        if slot == 0:
            return ci
    return None


def _transfer_marking(parent: Diagram, ci: int, marking: Marking,
                      child: Diagram, lmap: dict[int, int | None]) -> Marking:
    """Carry base edges through a smoothing.

    Bases follow the label map; when two marked components merge, the
    earlier base in the traversal order wins.  A split-off component with
    no base gets one at the smoothing site when the site lies on it,
    otherwise at its smallest edge; such bases are appended at the end.
    """
    a, _, c, _ = parent.crossings[ci]
    site = [lmap.get(a), lmap.get(c)]
    new_bases: list[int] = []
    seen: set[int] = set()
    for b in marking.bases:
        nb = lmap.get(b)
        if nb is None:
            continue
        comp = child.comp_of[nb]
        if comp in seen:
            continue
        seen.add(comp)
        new_bases.append(nb)
    for comp_idx, comp in enumerate(child.components):
        if comp_idx in seen:
            continue
        pick = next(
            (g for g in site if g is not None and child.comp_of[g] == comp_idx),
            comp[0],
        )
        new_bases.append(pick)
        seen.add(comp_idx)
    return Marking(tuple(new_bases))


def _branch_ops(sign: int, kind: str) -> OpKind:
    if sign > 0:
        return OpKind.CIRC if kind == "self" else OpKind.STAR
    return OpKind.SLASH if kind == "self" else OpKind.SSLASH


def _prepared(d: Diagram, marking: Marking | None) -> Marking:
    """The marking to resolve `d` under, after the crossing-limit and
    marking checks."""
    if d.n_crossings > MAX_CROSSINGS:
        raise SkeinError(
            f"diagram has {d.n_crossings} crossings; limit is {MAX_CROSSINGS}"
        )
    if marking is None:
        return default_marking(d)
    _check_marking(d, marking)
    return marking


def _resolve(d: Diagram, marking: Marking, memo, tag, leaf, branch):
    """The skein recursion behind both `evaluate` and `trace`.

    A diagram with no bad crossing gives `leaf(component count)`.
    Otherwise the first bad crossing is switched and smoothed, and
    `branch(crossing, sign, kind, switched, smoothed)` combines the two
    results.  Results are memoised in `memo` under `(tag, d, bases)`.
    """
    key = (tag, d, marking.bases)
    hit = memo.get(key)
    if hit is not None:
        return hit
    ci = _first_bad(d, marking)
    if ci is None:
        node = leaf(d.component_count)
    else:
        smoothed, lmap = d.smooth_with_map(ci)
        sub_marking = _transfer_marking(d, ci, marking, smoothed, lmap)
        node = branch(
            ci, d.signs[ci], d.classify(ci),
            _resolve(d.crossing_change(ci), marking, memo, tag, leaf, branch),
            _resolve(smoothed, sub_marking, memo, tag, leaf, branch),
        )
    memo[key] = node
    return node


def evaluate(d: Diagram, algebra: ConwayAlgebraSpec,
             marking: Marking | None = None, memo: dict | None = None):
    """Value of the diagram in the given algebra (stored representation).
    Memo keys carry the algebra, so one `memo` can serve several."""

    def branch(ci, sign, kind, left, right):
        return algebra.apply(_branch_ops(sign, kind), left, right)

    return _resolve(d, _prepared(d, marking), {} if memo is None else memo,
                    algebra.key, algebra.unit, branch)


# -- explicit recursion trees -------------------------------------------------


@dataclass(frozen=True)
class TraceLeaf:
    components: int


@dataclass(frozen=True)
class TraceBranch:
    crossing: int
    sign: int
    kind: str
    switched: "TraceLeaf | TraceBranch"
    smoothed: "TraceLeaf | TraceBranch"


def trace(d: Diagram, marking: Marking | None = None,
          shared: dict | None = None):
    """The full skein tree for a diagram, replayable in any algebra.

    `shared` is a node cache; passing the same dict across calls lets
    diagrams with common descendants reuse each other's subtrees.
    """
    return _resolve(d, _prepared(d, marking), {} if shared is None else shared,
                    None, TraceLeaf, TraceBranch)


def replay(node, algebra: ConwayAlgebraSpec, memo: dict | None = None):
    """Evaluate a skein tree bottom-up in the given algebra.

    Shared subtrees are computed once.  A caller-held `memo` can span
    several replays; it pins the nodes it has seen, so entries stay
    valid for its whole lifetime.
    """
    if memo is None:
        memo = {}
    hit = memo.get(id(node))
    if hit is not None:
        return hit[1]
    if isinstance(node, TraceLeaf):
        value = algebra.unit(node.components)
    elif isinstance(node, TraceBranch):
        left = replay(node.switched, algebra, memo)
        right = replay(node.smoothed, algebra, memo)
        value = algebra.apply(_branch_ops(node.sign, node.kind), left, right)
    else:
        raise SkeinError(f"not a trace node: {node!r}")
    memo[id(node)] = (node, value)
    return value
