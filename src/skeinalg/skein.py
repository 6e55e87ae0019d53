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

The caller's marking (or the default one) applies to the root and to
its chain of switches, which keep the root's edges and components.
Every smoothed child starts afresh under its own `default_marking`:
values do not depend on the marking, so no base edge is carried
through a smoothing.  The size of the tree does depend on it, so the
default marking keeps bad crossings few: on each component the base
edge at which the fewest of its self crossings are bad, and the
components in a greedy order that puts first those that run over the
others, kept only when it beats label order.  It never has more bad
crossings than the first edges in label order.

One recursion, `_resolve`, does this for both entry points: `evaluate`
combines algebra values as it goes, and `trace` records the tree that
`replay` later values in any algebra.  It is the definition, and the
path for PD input; its cost grows exponentially with the crossings.

A diagram built by `braid_to_diagram` remembers its word, and
`evaluate` values it by `_resolve_braid` instead: the same skein
relations, applied to the braid word read from the top, reduce it to
permutation braids, which Markov destabilisation then unwinds (Jones
1987; Morton and Short 1990).  A state pairs a permutation of the
strands with the unread letters, so a word of L letters on n strands
has at most n!·(L+1) states, plus states for the short words
destabilisation leaves, whose number depends on n alone.  The cost is
polynomial in the word length for a fixed strand count, but grows with
n!: many-strand words can still be expensive.  Values do not depend on
the order of resolution, so both paths give the same value.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .algebra import ConwayAlgebraSpec, OpKind
from .diagram import _MAX_COMPONENTS, Diagram

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
    """The marking with the fewest bad crossings that this rule finds.

    Each component gets the base edge at which the fewest of its self
    crossings are bad, the earliest such edge on a tie.  The components
    are then taken greedily: next comes the one left with the fewest
    crossings under the others left, less those over them, the lower
    index on a tie.  That order is kept only when it has fewer bad mixed
    crossings than label order, so the marking never has more bad
    crossings than the first edges in label order, and keeps them when
    they are already best.
    """
    return Marking(_fewest_bad(d, _head_maps(d)))


def _fewest_bad(d: Diagram, heads) -> tuple[int, ...]:
    """Bases of `default_marking(d)`; `heads` is `_head_maps(d)`.

    A self crossing is bad exactly when the base lies after its
    over-visit and no later than its under-visit along the component, so
    each one adds 1 to a cyclic interval of bases (a difference array).
    A mixed crossing is bad exactly when the component of its
    under-strand comes first.  The greedy order can lose to label order,
    so it is kept only when it has fewer bad mixed crossings.
    """
    comps = d.components
    first: dict[int, tuple[int, int, int]] = {}  # crossing -> first visit
    mixed: list[tuple[int, int]] = []  # (under, over) component pairs
    bases = []
    for c, comp in enumerate(comps):
        diff = None
        for i, e in enumerate(comp):
            ci, slot = heads[e]
            seen = first.pop(ci, None)
            if seen is None:
                first[ci] = (c, i, slot)
                continue
            c0, i0, slot0 = seen
            if c0 != c:
                mixed.append((c0, c) if slot0 == 0 else (c, c0))
                continue
            u, o = (i0, i) if slot0 == 0 else (i, i0)
            if diff is None:
                diff = [0] * (len(comp) + 1)
            # bases o+1 .. u, wrapping round the end when u < o
            diff[o + 1] += 1
            diff[u + 1] -= 1
            if u < o:
                diff[0] += 1
        if diff is None:
            bases.append(comp[0])
            continue
        run = best = diff[0]
        at = 0
        for i in range(1, len(comp)):
            run += diff[i]
            if run < best:
                best, at = run, i
        bases.append(comp[at])
    if not mixed:
        return tuple(bases)
    # score: times under minus times over the components left
    score = [0] * len(comps)
    for u, o in mixed:
        score[u] += 1
        score[o] -= 1
    left = list(range(len(comps)))
    rank = [0] * len(comps)
    for r in range(len(comps)):
        k = min(left, key=score.__getitem__)
        left.remove(k)
        rank[k] = r
        for u, o in mixed:
            if u == k:
                score[o] += 1
            elif o == k:
                score[u] -= 1
    greedy_bad = sum(rank[u] < rank[o] for u, o in mixed)
    if greedy_bad >= sum(u < o for u, o in mixed):
        return tuple(bases)
    return tuple(b for _, b in sorted(zip(rank, bases)))


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
    """Crossings first reached on their under-strand, in first-visit order,
    under `marking` or else under `default_marking(d)`."""
    heads = _head_maps(d)
    if marking is None:
        bases = _fewest_bad(d, heads)
    else:
        _check_marking(d, marking)
        bases = marking.bases
    return [ci for ci, slot in _first_visits(d, bases, heads) if slot == 0]


def _head_maps(d: Diagram) -> dict[int, tuple[int, int]]:
    """edge -> (crossing, in-slot) at which the edge terminates."""
    heads: dict[int, tuple[int, int]] = {}
    for ci, cr in enumerate(d.crossings):
        heads[cr[0]] = (ci, 0)
        oi = d.over_in[ci]
        heads[cr[oi]] = (ci, oi)
    return heads


def _first_visits(d: Diagram, bases, heads):
    """Yield (crossing, in-slot) for each first visit, in traversal order."""
    succ = d.succ
    visited: set[int] = set()
    for base in bases:
        e = base
        while True:
            ci, slot = heads[e]
            if ci not in visited:
                visited.add(ci)
                yield ci, slot
            e = succ[e]
            if e == base:
                break


def _branch_ops(sign: int, kind: str) -> OpKind:
    if sign > 0:
        return OpKind.CIRC if kind == "self" else OpKind.STAR
    return OpKind.SLASH if kind == "self" else OpKind.SSLASH


def _root_bases(d: Diagram, marking: Marking | None):
    """The bases to resolve `d` under, None for its default marking,
    after the crossing-limit, component-limit and marking checks."""
    if d.n_crossings > MAX_CROSSINGS:
        raise SkeinError(
            f"diagram has {d.n_crossings} crossings; limit is {MAX_CROSSINGS}"
        )
    if d.component_count > _MAX_COMPONENTS:
        raise SkeinError(
            f"diagram has {d.component_count} components; limit is "
            f"{_MAX_COMPONENTS}"
        )
    if marking is None:
        return None
    _check_marking(d, marking)
    return marking.bases


def _resolve(d: Diagram, bases, memo, tag, leaf, branch):
    """The skein recursion behind both `evaluate` and `trace`.

    `d` is resolved under the marking with base edges `bases`, or under
    its default marking when `bases` is None.  A diagram with no bad
    crossing gives `leaf(component count)`.  Otherwise the first bad
    crossing is switched and smoothed, and `branch(crossing, sign, kind,
    switched, smoothed)` combines the two results.  The switched child
    keeps the marking, which termination needs; the smoothed child is
    resolved under its default marking.  Results are memoised in `memo`
    under `(tag, d, bases)`.
    """
    heads = None
    if bases is None:
        heads = _head_maps(d)
        bases = _fewest_bad(d, heads)
    key = (tag, d, bases)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if heads is None:
        heads = _head_maps(d)
    ci = next((ci for ci, slot in _first_visits(d, bases, heads)
               if slot == 0), None)
    if ci is None:
        node = leaf(d.component_count)
    else:
        node = branch(
            ci, d.signs[ci], d.classify(ci),
            _resolve(d.crossing_change(ci), bases, memo, tag, leaf, branch),
            _resolve(d.smooth_with_map(ci)[0], None, memo, tag, leaf, branch),
        )
    memo[key] = node
    return node


def _one_component(t: list[int], rest, a: int, b: int) -> bool:
    """Whether the strands that start at top positions a and b lie on one
    component of the closure of P(t)·rest, P(t) being the permutation
    braid of `t` (see `_resolve_braid`)."""
    t = list(t)
    for letter in rest:
        i = abs(letter)
        t[i - 1], t[i] = t[i], t[i - 1]
    # the closure joins bottom position x to top position x, so a
    # component's top positions are a cycle of x -> t[x]
    x = t[a]
    while x != a:
        if x == b:
            return True
        x = t[x]
    return False


def _resolve_braid(s: int, m: int, q: tuple[int, ...],
                   rest: tuple[int, ...], f: int, memo,
                   algebra: ConwayAlgebraSpec):
    """Value of the closure of P(q)·rest beside f split circles.

    P(q) is the permutation braid of sign s on m strands whose strand at
    bottom position `pos` starts at top position `q[pos]`: each pair of
    strands crosses at most once, always in a letter of sign s.  `rest`
    holds the letters still unread.  Letters are read while P(q)
    absorbs them: a letter i of sign s whose strands have not crossed
    yet (q[i-1] < q[i]), or one of sign -s whose strands have.  At the
    first letter that breaks this, the crossing it makes is switched
    (P(q) absorbs the switched letter) and smoothed (the letter is
    dropped), and the two values are combined as in `_resolve`.  With
    no letters left, P(q) is the identity (the unit), has an untouched
    last strand (a split circle), or has its last strand removed by
    Markov destabilisation, which leaves the letters that strand crossed.
    Results are memoised in `memo` under
    `(algebra.key, s, m, q, rest, f)`.
    """
    key = (algebra.key, s, m, q, rest, f)
    hit = memo.get(key)
    if hit is not None:
        return hit
    t = list(q)
    k = 0
    for letter in rest:
        i = abs(letter)
        a, b = t[i - 1], t[i]
        if (a < b) != (letter * s > 0):
            break
        t[i - 1], t[i] = b, a
        k += 1
    if k < len(rest):
        letter = rest[k]
        i = abs(letter)
        after = rest[k + 1:]
        here = tuple(t)
        a, b = t[i - 1], t[i]
        t[i - 1], t[i] = b, a
        kind = "self" if _one_component(t, after, a, b) else "mixed"
        node = algebra.apply(
            _branch_ops(1 if letter > 0 else -1, kind),
            _resolve_braid(s, m, tuple(t), after, f, memo, algebra),
            _resolve_braid(s, m, here, after, f, memo, algebra))
    elif t == list(range(m)):
        node = algebra.unit(m + f)
    else:
        # P(q) = P(q without m-1)·g(m-1)·g(m-2)···g(j+1) with letters g(i)
        # of sign s; conjugate the tail round and drop g(m-1).  With
        # j = m-1 there is no letter: the strand is a split circle.
        j = t.index(m - 1)
        node = _resolve_braid(s, m - 1, tuple(t[:j] + t[j + 1:]),
                              tuple(s * i for i in range(m - 2, j, -1)),
                              f + (j == m - 1), memo, algebra)
    memo[key] = node
    return node


def evaluate(d: Diagram, algebra: ConwayAlgebraSpec,
             marking: Marking | None = None, memo: dict | None = None):
    """Value of the diagram in the given algebra (stored representation).

    A braid closure from `braid_to_diagram` is valued on its word by
    `_resolve_braid`, at a cost polynomial in the word length and
    growing with the factorial of the strand count; any other diagram
    goes through the resolver, at a cost exponential in its crossings.
    The crossing limit, the component limit and the marking are checked
    first either way.  Memo keys carry the algebra, so one `memo` can
    serve several.
    """
    bases = _root_bases(d, marking)
    memo = {} if memo is None else memo
    if d.braid is not None:
        n, letters = d.braid
        # read with permutation braids of the letters' majority sign, so
        # that most letters on strands that have not crossed are absorbed
        s = 1 if 2 * sum(x > 0 for x in letters) >= len(letters) else -1
        uses = Counter(abs(x) for x in letters)
        # a generator that occurs once makes a nugatory crossing: a circle
        # through it between its two strands meets the closure nowhere
        # else, so switching it is an isotopy, and it takes the sign s
        letters = tuple(x if uses[abs(x)] > 1 else s * abs(x)
                        for x in letters)
        return _resolve_braid(s, n, tuple(range(n)), letters, 0, memo,
                              algebra)

    def branch(ci, sign, kind, left, right):
        return algebra.apply(_branch_ops(sign, kind), left, right)

    return _resolve(d, bases, memo, algebra.key, algebra.unit, branch)


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
    return _resolve(d, _root_bases(d, marking),
                    {} if shared is None else shared, None, TraceLeaf,
                    TraceBranch)


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
