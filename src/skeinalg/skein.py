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

Every diagram resolved under its default marking is first reduced:
its monogons (R1-) and removable clasps (R2-) are removed greedily
(`moves._reduced`) before its memo lookup.  That is the root when no
marking is given, every smoothed child, and a switched child whose
switch made a removable clasp at the switched crossing, which then
starts afresh.  R1- and R2- are isotopies, and the algebra axioms make
the value invariant under Reidemeister moves of plane diagrams
(Przytycki and Traczyk 1987), so a reduced diagram has its parent's
value.  Every diagram is planar: construction refuses a code that
fails `diagram.euler_ok`, and switching, smoothing and removal keep a
diagram planar.  Only the faces beside the edges a surgery touched are
read: the two edges a smoothing glued, the runs each removal joined,
and the four edges at a switched crossing.  A reduced diagram has no
monogon and a switch makes none, so the resolver never meets a kink.
The rule leans on the axioms: in an algebra that fails `check_axioms`,
`evaluate`, and a tree from `trace` replayed there, can differ from
the full recursion.

The caller's marking (or the default one) applies to the root and to
its chain of switches, which keep the root's edges and components.
Every smoothed child starts afresh under its own `default_marking`:
values do not depend on the marking, so no base edge is carried
through a smoothing.  The size of the tree does depend on it, so the
default marking keeps bad crossings few: on each component the base
edge at which the fewest of its self crossings are bad, and the
components in a greedy order that puts first those that run over the
others, kept only when it beats label order.  It never has more bad
crossings than the first edges in label order.  One pass over the
crossings' in-edges, read from the diagram's flat labels and looked up
in its shared position tables, finds the default marking and the order
in which the walk meets the bad crossings (`_walk`).

One recursion, `_resolve`, does this for both entry points: `evaluate`
combines algebra values as it goes, and `trace` records the tree that
`replay` later values in any algebra that satisfies the axioms.  It is
the definition, and the path for PD input; its cost grows exponentially
with the crossings that no reduction removes.

Values inside `evaluate` and `replay` are bare term maps, as the
algebra's compiled kernels take and return them: the kernels come from
one table per call (`_op_table`), leaves read the unit's term map, and
memos hold term maps.  Only the value returned is wrapped as a
`LaurentPoly`, by `LaurentPoly._trusted`.  A replaced `apply` is called for
every combination instead of the kernels (`algebra._combiners`).

A diagram built by `braid_to_diagram` remembers its word, and
`evaluate` values it by `_resolve_braid` instead: the same skein
relations, applied to the braid word read from the top, reduce it to
permutation braids, which Markov destabilisation then unwinds (Jones
1987; Morton and Short 1990).  A state pairs a permutation of the
strands with the unread letters, and is memoised once the permutation
has absorbed every letter it can, so a word of L letters on n strands
has at most n!·(L+1) states, plus states for the short words
destabilisation leaves, whose number depends on n alone.  The cost is
polynomial in the word length for a fixed strand count, but grows with
n!: many-strand words can still be expensive.  Values do not depend on
the order of resolution, so both paths give the same value.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .algebra import ConwayAlgebraSpec, OpKind
from .diagram import _MAX_COMPONENTS, _SIGN, Diagram
from .laurent import LaurentPoly
from .moves import _reduced

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
    they are already best.  `_walk` finds it.
    """
    return Marking(_walk(d, None)[0])


def _walk(d: Diagram, bases) -> tuple[tuple[int, ...], list[int]]:
    """The base edges of a marking of `d` and its bad crossings, in the
    order the walk meets them.

    `bases` are the marking's base edges, or None for
    `default_marking(d)`.  One pass over the crossings reads each one's
    under-in and over-in edge from `d.flat`, where the walk reaches it
    along either strand, and looks up their components and positions
    in `d.comp_of` and `d.pos`.  `_fewest_bad` finds the default marking
    from these.  The walk goes round each component from its base, the
    components in the order of the bases, so an edge is reached at its
    component's offset plus its distance from the base.  A crossing is
    bad when the walk reaches its under-in edge first.
    """
    flat, comps, comp_of, pos = d.flat, d.components, d.comp_of, d.pos
    ins = []  # per crossing: (component, position) of under-in, over-in
    for i, oi in enumerate(d.over_in):
        eu, eo = flat[4 * i], flat[4 * i + oi]
        ins.append((comp_of[eu], pos[eu], comp_of[eo], pos[eo]))
    if bases is None:
        at, order = _fewest_bad(comps, ins)
        bases = tuple([comps[k][at[k]] for k in order])
    else:
        order = [comp_of[b] for b in bases]
        at = [0] * len(comps)
        for k, b in zip(order, bases):
            at[k] = pos[b]
    lens = list(map(len, comps))
    start = [0] * len(comps)  # when the walk reaches each component
    t = 0
    for k in order:
        start[k] = t
        t += lens[k]
    bad = []
    for ci, (cu, pu, co, po) in enumerate(ins):
        tu = start[cu] + (pu - at[cu]) % lens[cu]
        if tu < start[co] + (po - at[co]) % lens[co]:
            bad.append((tu, ci))
    bad.sort()
    return bases, [ci for _, ci in bad]


def _fewest_bad(comps, ins):
    """The default marking, as the base position on each component and
    the order of the components; `ins` is what `_walk` reads per
    crossing.

    A self crossing is bad exactly when the base lies after its
    over-visit and no later than its under-visit along the component, so
    each one adds 1 to a cyclic interval of bases (a difference array).
    A mixed crossing is bad exactly when the component of its
    under-strand comes first.  The greedy order can lose to label order,
    so it is kept only when it has fewer bad mixed crossings.
    """
    diffs = [[0] * (len(comp) + 1) for comp in comps]
    mixed: list[tuple[int, int]] = []  # (under, over) component pairs
    for cu, u, co, o in ins:
        if cu != co:
            mixed.append((cu, co))
            continue
        # bases o+1 .. u; when u < o this interval wraps round the end,
        # and is written as 1 less on every base outside it, which moves
        # no minimum
        diff = diffs[cu]
        diff[o + 1] += 1
        diff[u + 1] -= 1
    at = []
    for diff in diffs:
        run = list(accumulate(diff[:-1]))
        at.append(run.index(min(run)))
    label_order = range(len(comps))
    if not mixed:
        return at, label_order
    # score: times under minus times over the components left
    score = [0] * len(comps)
    for u, o in mixed:
        score[u] += 1
        score[o] -= 1
    left = list(label_order)
    rank = [0] * len(comps)
    order = []
    for r in label_order:
        k = min(left, key=score.__getitem__)
        left.remove(k)
        rank[k] = r
        order.append(k)
        for u, o in mixed:
            if u == k:
                score[o] += 1
            elif o == k:
                score[u] -= 1
    greedy_bad = sum(rank[u] < rank[o] for u, o in mixed)
    if greedy_bad >= sum(u < o for u, o in mixed):
        return at, label_order
    return at, order


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
    if marking is None:
        return _walk(d, None)[1]
    _check_marking(d, marking)
    return _walk(d, marking.bases)[1]


def _branch_ops(sign: int, kind: str) -> OpKind:
    if sign > 0:
        return OpKind.CIRC if kind == "self" else OpKind.STAR
    return OpKind.SLASH if kind == "self" else OpKind.SSLASH


def _root_bases(d: Diagram, marking: Marking | None):
    """The bases to resolve `d` under, None for its default marking,
    after the crossing-limit, component-count and marking checks.  An
    empty diagram has no value: the algebra's units start at one
    component."""
    if not d.component_count:
        raise SkeinError("diagram has no components")
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


def _resolve(d: Diagram, bases, memo, tag, leaf, branch, bad=None):
    """The skein recursion behind both `evaluate` and `trace`.

    `d` is resolved under the marking with base edges `bases`, or under
    its default marking when `bases` is None.  A diagram with no bad
    crossing gives `leaf(component count)`.  Otherwise the first bad
    crossing is switched and smoothed, and `branch(crossing, sign, kind,
    switched, smoothed)` combines the two results.  The switched child
    keeps the marking, which termination needs; the smoothed child is
    resolved under its default marking.  Results are memoised in `memo`
    under `(tag, d, bases)`.

    The smoothed child is first reduced by R1- and R2-
    (`moves._reduced`), reading only the faces beside the two edges its
    smoothing glued.  The switched child is read at the four edges of
    the switched crossing; when it has a monogon or a removable clasp
    there, it is reduced too and starts afresh under its own default
    marking.  The reductions are isotopies, under which the axioms make
    the value invariant.  A reduced diagram has no monogon and a switch
    makes none, so below a reduced diagram a switch can only make a
    clasp, and no bad crossing is a kink.

    `bad` yields the bad crossings of `d` under `bases` not yet taken,
    in walk order; when it is None, `_walk` finds them, and the default
    marking with them.  Switching the first bad crossing keeps the walk
    and every other crossing, so the switched child's bad crossings are
    the rest of its parent's, and it is handed the parent's iterator to
    go on with.
    """
    if bad is None:
        bases, order = _walk(d, bases)
        bad = iter(order)
    key = (tag, d, bases)
    hit = memo.get(key)
    if hit is not None:
        return hit
    ci = next(bad, None)
    if ci is None:
        node = leaf(d.component_count)
    else:
        i = 4 * ci
        flat = d.flat
        switched = d.crossing_change(ci)
        reduced = _reduced(switched, flat[i:i + 4])
        if reduced is switched:
            node = _resolve(switched, bases, memo, tag, leaf, branch, bad)
        else:
            node = _resolve(reduced, None, memo, tag, leaf, branch)
        smoothed, labmap = d.smooth_with_map(ci)
        smoothed = _reduced(smoothed, (labmap[flat[i]], labmap[flat[i + 2]]))
        node = branch(ci, _SIGN[d.over_in[ci]], d.classify(ci), node,
                      _resolve(smoothed, None, memo, tag, leaf, branch))
    memo[key] = node
    return node


def _op_table(algebra: ConwayAlgebraSpec):
    """The algebra's kernels over its own table, as
    `ops[sign > 0][is_self]`, each the kernel of the operation that
    `_branch_ops` names for that sign and kind.  A kernel combines two
    bare term maps into a term map; see `algebra._combiners`."""
    kernels = algebra._combiners()
    return tuple(tuple(kernels[_branch_ops(sign, kind)]
                       for kind in ("mixed", "self"))
                 for sign in (-1, 1))


def _strand_perm(m: int, rest) -> list[int]:
    """Where the letters of `rest` take m strands: the strand at position
    x below them starts at position p[x] above them."""
    p = list(range(m))
    for letter in rest:
        i = abs(letter)
        p[i - 1], p[i] = p[i], p[i - 1]
    return p


def _one_component(t: list[int], p: list[int], a: int, b: int) -> bool:
    """Whether the strands that start at top positions a and b lie on one
    component of the closure of P(t)·rest, P(t) being the permutation
    braid of `t` (see `_resolve_braid`) and p `_strand_perm` of rest."""
    # the closure joins bottom position x to top position x, so a
    # component's top positions are a cycle of x -> t[p[x]]
    x = t[p[a]]
    while x != a:
        if x == b:
            return True
        x = t[p[x]]
    return False


def _resolve_braid(s: int, m: int, q: tuple[int, ...],
                   rest: tuple[int, ...], f: int, memo, tag, unit, ops,
                   perms) -> dict:
    """Term map of the value of the closure of P(q)·rest beside f split
    circles.

    P(q) is the permutation braid of sign s on m strands whose strand at
    bottom position `pos` starts at top position `q[pos]`: each pair of
    strands crosses at most once, always in a letter of sign s.  `rest`
    holds the letters still unread.  Letters are read while P(q)
    absorbs them: a letter i of sign s whose strands have not crossed
    yet (q[i-1] < q[i]), or one of sign -s whose strands have.  At the
    first letter that breaks this, the crossing it makes is switched
    (P(q) absorbs the switched letter) and smoothed (the letter is
    dropped), and the two term maps are combined as in `_resolve`, by
    the kernel `ops[letter > 0][same component]` of `_op_table`.
    Whether the letter's strands lie on one component reads the
    `_strand_perm` of the letters after it from `perms`, which keeps it
    for the rest of the evaluation under `(m, those letters)`.  With no
    letters left, P(q) is the identity (the term map of `unit(m + f)`),
    has an untouched last strand (a split circle), or has its last
    strand removed by Markov destabilisation, which leaves the letters
    that strand crossed.  Term maps are memoised in `memo` under
    `(tag, s, m, q, rest, f)` of the state the absorbed letters reach,
    `tag` being the algebra's key: absorbing a letter only extends P(q),
    so states that read to the same permutation and unread letters share
    one entry, and `rest` of a key is empty or starts with a letter that
    P(q) does not absorb.
    """
    t = list(q)
    k = 0
    for letter in rest:
        i = abs(letter)
        a, b = t[i - 1], t[i]
        if (a < b) != (letter * s > 0):
            break
        t[i - 1], t[i] = b, a
        k += 1
    if k:
        q, rest = tuple(t), rest[k:]
    key = (tag, s, m, q, rest, f)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if rest:
        letter = rest[0]
        i = abs(letter)
        after = rest[1:]
        a, b = t[i - 1], t[i]
        t[i - 1], t[i] = b, a
        p = perms.get((m, after))
        if p is None:
            p = perms[m, after] = _strand_perm(m, after)
        node = ops[letter > 0][_one_component(t, p, a, b)](
            _resolve_braid(s, m, tuple(t), after, f, memo, tag, unit, ops,
                           perms),
            _resolve_braid(s, m, q, after, f, memo, tag, unit, ops,
                           perms))
    elif t == list(range(m)):
        node = unit(m + f).terms
    else:
        # P(q) = P(q without m-1)·g(m-1)·g(m-2)···g(j+1) with letters g(i)
        # of sign s; conjugate the tail round and drop g(m-1).  With
        # j = m-1 there is no letter: the strand is a split circle.
        j = t.index(m - 1)
        node = _resolve_braid(s, m - 1, tuple(t[:j] + t[j + 1:]),
                              tuple(s * i for i in range(m - 2, j, -1)),
                              f + (j == m - 1), memo, tag, unit, ops, perms)
    memo[key] = node
    return node


def evaluate(d: Diagram, algebra: ConwayAlgebraSpec,
             marking: Marking | None = None, memo: dict | None = None):
    """Value of the diagram in the given algebra (stored representation).

    A braid closure from `braid_to_diagram` is valued on its word by
    `_resolve_braid`, at a cost polynomial in the word length and
    growing with the factorial of the strand count; any other diagram
    goes through the resolver, at a cost exponential in its crossings.
    The crossing limit, the component count (at least one, at most the
    limit) and the marking are checked first either way.  Memo keys
    carry the algebra, so one `memo` can serve several; its entries are
    term maps, and only the value returned is wrapped.  The word path
    keys each state after the letters its permutation braid absorbs
    (see `_resolve_braid`).
    """
    bases = _root_bases(d, marking)
    memo = {} if memo is None else memo
    ops = _op_table(algebra)
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
        terms = _resolve_braid(s, n, tuple(range(n)), letters, 0, memo,
                               algebra.key, algebra.unit, ops, {})
    else:
        unit = algebra.unit

        def leaf(components):
            return unit(components).terms

        def branch(ci, sign, kind, left, right):
            return ops[sign > 0][kind == "self"](left, right)

        if bases is None:
            d = _reduced(d, d.comp_of)
        terms = _resolve(d, bases, memo, algebra.key, leaf, branch)
    return LaurentPoly._trusted(algebra.table, terms)


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
    """The skein tree for a diagram, replayable in any algebra that
    satisfies the axioms.

    The tree is that of `_resolve`, from the root reduced by R1- and
    R2- when no marking is given: it has no node for a diagram that
    such a reduction removed.  Reidemeister moves keep the value only by
    the axioms, so replayed in an algebra that fails `check_axioms` the
    tree can give another value than the full recursion would.  `shared`
    is a node cache; passing the same dict across calls lets diagrams
    with common descendants reuse each other's subtrees.
    """
    bases = _root_bases(d, marking)
    if bases is None:
        d = _reduced(d, d.comp_of)
    return _resolve(d, bases, {} if shared is None else shared, None,
                    TraceLeaf, TraceBranch)


def replay(node, algebra: ConwayAlgebraSpec, memo: dict | None = None):
    """Evaluate a skein tree bottom-up in the given algebra.

    Shared subtrees are computed once.  A caller-held `memo` can span
    several replays in one algebra; it holds `(node, term map)` under
    `id(node)`, and pins the nodes it has seen, so entries stay valid
    for its whole lifetime.  Nodes are combined as bare term maps by
    the kernels of `_op_table`, and only the value returned is wrapped.
    """
    return LaurentPoly._trusted(algebra.table,
                                _replay(node, {} if memo is None else memo,
                                        algebra.unit, _op_table(algebra)))


def _replay(node, memo, unit, ops) -> dict:
    """The term map of `node`; see `replay`."""
    hit = memo.get(id(node))
    if hit is not None:
        return hit[1]
    if isinstance(node, TraceLeaf):
        terms = unit(node.components).terms
    elif isinstance(node, TraceBranch):
        left = _replay(node.switched, memo, unit, ops)
        right = _replay(node.smoothed, memo, unit, ops)
        terms = ops[node.sign > 0][node.kind == "self"](left, right)
    else:
        raise SkeinError(f"not a trace node: {node!r}")
    memo[id(node)] = (node, terms)
    return terms
