"""Oriented link diagrams as edge-labeled planar diagram codes.

A crossing is written X[a,b,c,d]: the four incident edge labels listed
counterclockwise, starting from the incoming under-strand edge a.  The
under-strand therefore runs a -> c, and the over-strand occupies slots
b and d.  Within each component, edge labels increase along the
orientation and wrap around from the maximum back to the minimum; that
rule determines the direction of every over-strand and hence every
crossing sign.  Circles with no crossings at all cannot be expressed by
crossing lists, so a diagram carries an explicit free-loop counter.

A diagram stores:
- `flat`, the 4·n edge labels of its n crossings in crossing order, so
  that slot s of crossing i holds `flat[4 * i + s]`;
- `over_in`, per crossing, the slot (1 or 3) its over-strand enters by;
- `free_loops`, the number of crossingless circles;
- per-label tables of its strands: `components` (each component's labels
  along its orientation, from its smallest), `comp_of` (label -> index
  of its component) and `pos` (label -> position in its component).
Diagrams that the library builds share these tables with every diagram
whose components have the same lengths (`_numbered`); validated
construction computes them once.  Nothing else is stored: `crossings`
(a tuple of 4-tuples) and `signs` are computed from `flat` and `over_in`
on every read, for callers outside the library's hot paths, which read
only the stored fields.  A dart is the integer 4 * crossing + slot, an
index into `flat`; `_mates` pairs the two darts of each label, and
`_face_walk` follows the faces from dart to dart.  Equality and hashing
read `(flat, free_loops)`.

Construction validates everything: each label must occur exactly twice,
the under-strand of every crossing must agree with the label order, the
over-strand directions must consume each label-successor transition
exactly once across the whole diagram, and some plane drawing must have
the code (`euler_ok`: V - E + F = 2 on every piece).  A code that fails
the last has labels that chain consistently, but the invariant's values
on it can depend on the marking.  Planarity also rules out a component
of one edge: its label sits at opposite slots of one crossing, a loop
that separates the other two slots.  That holds at the boundary: a
user-built `Diagram` and PD parsing.  Braid parsing checks the strand
count and every letter, then builds the closure from the strands it
traces, and so knows its components and directions.  Diagrams that the
library derives from a valid parent know them too: crossing switches,
mirrors and triangle slides keep the parent's strands and labels; a
smoothing and the moves R1- and R2- remove crossings through `_spliced`,
whose docstring states how the strands reconnect; R1+ and R2+ splice
new edges into the parent's components.  Every build that adds, removes
or reconnects crossings ends in `_rebuilt`, which numbers the new
components in order of their smallest old label, each along its
orientation from there.  None of these is validated a second time.

One genuine ambiguity exists in this encoding: a component of two edges
that never passes under anything admits two direction readings (they
differ by reversing that circle).  Such a circle lies entirely above the
rest of the diagram, so either reading denotes the same link.  It is the
only over-strand that both directions fit, so `_derive` leaves its
crossings at slot 1, claiming no transition, and `_fix_free_circles`
fixes the reading deterministically (enter along the smaller label
first).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import lru_cache
from itertools import chain, count

# Test-only switch: when true, every diagram built inside the library is
# rebuilt through the validating constructor and compared field by field,
# and every term map the library wraps (`LaurentPoly._trusted`) is
# compared with its validated copy.
RECHECK_BUILDS = False

# The most components a diagram may have for evaluation.  A braid on n
# strands with L letters closes to at least n - L components, so braid
# parsing refuses a strand count past this bound before building anything.
_MAX_COMPONENTS = 64

# crossing sign by the slot its over-strand enters at
_SIGN = (0, -1, 0, 1)


class DiagramError(ValueError):
    pass


class PDSyntaxError(DiagramError):
    def __init__(self, message: str, col: int):
        super().__init__(f"line 1, col {col}: {message}")
        self.col = col


def _quads(flat):
    """The crossings of a flat label sequence, as 4-tuples."""
    return zip(*[iter(flat)] * 4)


def _pd_text(rows, free_loops: int) -> str:
    """PD text of crossing rows (a, b, c, d) and `free_loops` circles."""
    body = ",".join(f"X[{a},{b},{c},{d}]" for a, b, c, d in rows)
    suffix = f"+O^{free_loops}" if free_loops else ""
    return f"PD[{body}]{suffix}"


def _mates(flat) -> list[int]:
    """For each dart of a flat label sequence, the other dart with its
    label."""
    mate = [0] * len(flat)
    first: dict[int, int] = {}
    for x, lab in enumerate(flat):
        y = first.setdefault(lab, x)
        if y != x:
            mate[x] = y
            mate[y] = x
    return mate


def _curl_at(cr) -> bool:
    """True when two adjacent slots of the crossing's four labels `cr`
    hold one label: the crossing is a kink (an R1 curl)."""
    a, b, c, d = cr
    return a == b or b == c or c == d or d == a


@lru_cache(maxsize=64)
def _ccw(m: int) -> tuple[int, ...]:
    """For each integer dart below m, the dart one slot counterclockwise."""
    return tuple(x - 3 if x & 3 == 3 else x + 1 for x in range(m))


def _face_walk(d: Diagram):
    """`_mates(d.flat)`, the face orbits in canonical order as lists of
    integer darts, and each dart's face index.  Taken in increasing
    order, the first dart of each new orbit is its smallest, so the
    orbits come out rotated and sorted as they are found."""
    mate = _mates(d.flat)
    # arrive along the edge at its other end, leave by the next slot
    # counterclockwise
    phi = list(map(_ccw(len(mate)).__getitem__, mate))
    face = [-1] * len(mate)
    orbits = []
    for x0 in range(len(mate)):
        if face[x0] < 0:
            f = len(orbits)
            orbit = [x0]
            x = phi[x0]
            face[x0] = f
            while x != x0:
                face[x] = f
                orbit.append(x)
                x = phi[x]
            orbits.append(orbit)
    return mate, orbits, face


def euler_ok(d: Diagram) -> bool:
    """Genus-zero check: V - E + F == 2 per connected crossing piece.
    Every `Diagram` passes it: construction refuses a code that fails."""
    flat = d.flat
    return not flat or (len(_face_walk(d)[1]) - len(flat) // 4
                        == 2 * len(_crossing_pieces(d)))


class Diagram:
    """Immutable validated diagram; see the module docstring for what it
    stores.

    `braid` is the `(strands, letters)` a braid closure was built from,
    and None for every other diagram, derived ones included.  It takes
    no part in equality or hashing."""

    __slots__ = ("flat", "over_in", "free_loops", "components", "comp_of",
                 "pos", "_small", "_hash", "braid")

    def __init__(self, crossings, free_loops: int = 0):
        crossings = tuple(tuple(int(x) for x in cr) for cr in crossings)
        if free_loops < 0:
            raise DiagramError("free loop count cannot be negative")
        for ci, cr in enumerate(crossings):
            if len(cr) != 4:
                raise DiagramError(f"crossing {ci} has {len(cr)} slots, need 4")
            for lab in cr:
                if lab < 1:
                    raise DiagramError(f"crossing {ci}: labels must be positive, got {lab}")
        object.__setattr__(self, "free_loops", int(free_loops))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "braid", None)
        self._derive(crossings)

    @classmethod
    def _trusted(cls, flat, over_in, free_loops, components, comp_of, pos,
                 small) -> "Diagram":
        """A diagram derived inside the library from known-good parts.

        `flat` and `over_in` are tuples, `over_in` a consistent strand
        direction for every crossing.  `components`, `comp_of` and `pos`
        are the tables `_derive` would compute for `flat`, and `small`
        the components of two edges.  Where there are such components,
        circles whose direction the labels leave open get the reading of
        `_fix_free_circles`.
        """
        if small:
            over_in = _fix_free_circles(flat, small, over_in)
        d = object.__new__(cls)
        _set = object.__setattr__
        _set(d, "flat", flat)
        _set(d, "over_in", over_in)
        _set(d, "free_loops", free_loops)
        _set(d, "components", components)
        _set(d, "comp_of", comp_of)
        _set(d, "pos", pos)
        _set(d, "_small", small)
        _set(d, "_hash", None)
        _set(d, "braid", None)
        if RECHECK_BUILDS:
            _recheck(d)
        return d

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Diagram is immutable")

    # -- construction-time analysis ---------------------------------------

    def _derive(self, crossings) -> None:
        occ: dict[int, list[tuple[int, int]]] = {}
        for ci, cr in enumerate(crossings):
            for s, lab in enumerate(cr):
                occ.setdefault(lab, []).append((ci, s))
        for lab, places in occ.items():
            if len(places) != 2:
                raise DiagramError(
                    f"edge label {lab} appears {len(places)} time(s), need exactly 2"
                )

        # components: union the two strands through each crossing
        parent = {lab: lab for lab in occ}
        for a, b, c, d in crossings:
            parent[_find(parent, a)] = _find(parent, c)
            parent[_find(parent, b)] = _find(parent, d)
        groups: dict[int, list[int]] = {}
        for lab in occ:
            groups.setdefault(_find(parent, lab), []).append(lab)
        components = tuple(sorted(
            (tuple(sorted(g)) for g in groups.values()), key=lambda t: t[0]
        ))
        comp_of = {}
        pos = {}
        succ = {}
        for idx, comp in enumerate(components):
            comp_of.update(dict.fromkeys(comp, idx))
            pos.update(zip(comp, range(len(comp))))
            succ.update(zip(comp, comp[1:] + comp[:1]))

        # orientation accounting: every transition lab -> succ[lab] is
        # consumed by exactly one crossing transit
        avail = {(lab, succ[lab]): 1 for lab in succ}
        for ci, (a, b, c, d) in enumerate(crossings):
            if succ.get(a) != c:
                raise DiagramError(
                    f"crossing {ci}: under-strand runs {a}->{c}, but the label "
                    f"order gives {a}->{succ.get(a)}"
                )
            if avail.get((a, c), 0) <= 0:
                raise DiagramError(f"crossing {ci}: transition {a}->{c} claimed twice")
            avail[(a, c)] -= 1

        over_in = [0] * len(crossings)
        for ci, (a, b, c, d) in enumerate(crossings):
            cand_b = succ.get(b) == d and avail.get((b, d), 0) > 0
            cand_d = succ.get(d) == b and avail.get((d, b), 0) > 0
            if cand_b and cand_d:
                # a two-edge circle that runs under nothing, read by
                # `_fix_free_circles`
                over_in[ci] = 1
            elif cand_b:
                avail[(b, d)] -= 1
                over_in[ci] = 1
            elif cand_d:
                avail[(d, b)] -= 1
                over_in[ci] = 3
            else:
                raise DiagramError(
                    f"crossing {ci}: over-strand {b}/{d} fits no remaining transition"
                )

        flat = tuple(chain.from_iterable(crossings))
        _set = object.__setattr__
        _set(self, "flat", flat)
        _set(self, "components", components)
        _set(self, "comp_of", comp_of)
        _set(self, "pos", pos)
        if not euler_ok(self):
            raise DiagramError(
                "PD code is not planar: V - E + F != 2 on some piece")
        small = tuple(comp for comp in components if len(comp) == 2)
        over_in = tuple(over_in)
        if small:
            over_in = _fix_free_circles(flat, small, over_in)
        _set(self, "over_in", over_in)
        _set(self, "_small", small)

    # -- basic queries ------------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.over_in)

    @property
    def component_count(self) -> int:
        return len(self.components) + self.free_loops

    @property
    def crossings(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(_quads(self.flat))

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(map(_SIGN.__getitem__, self.over_in))

    @property
    def writhe(self) -> int:
        return sum(map(_SIGN.__getitem__, self.over_in))

    def classify(self, ci: int) -> str:
        """'self' when both strands of the crossing lie on one component."""
        flat, comp_of = self.flat, self.comp_of
        return ("self" if comp_of[flat[4 * ci]] == comp_of[flat[4 * ci + 1]]
                else "mixed")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.flat == other.flat and self.free_loops == other.free_loops

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.flat, self.free_loops))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Diagram({self.pd_text()!r})"

    # -- rewriting ----------------------------------------------------------

    def crossing_change(self, ci: int) -> "Diagram":
        """Swap over and under at one crossing; labels stay put."""
        flat, over_in = self.flat, self.over_in
        if not 0 <= ci < len(over_in):
            raise DiagramError(f"no crossing {ci}")
        i = 4 * ci
        a, b, c, d = flat[i:i + 4]
        oi = over_in[ci]
        rotated = (d, a, b, c) if oi == 3 else (b, c, d, a)
        return Diagram._trusted(
            flat[:i] + rotated + flat[i + 4:],
            over_in[:ci] + (4 - oi,) + over_in[ci + 1:], self.free_loops,
            self.components, self.comp_of, self.pos, self._small)

    def smooth_with_map(self, ci: int) -> tuple["Diagram", dict[int, int | None]]:
        """Orientation-respecting smoothing of one crossing: the
        crosswise splice of `_spliced`, which states how the strands
        reconnect and how the joined edges are named.

        Returns the relabeled diagram and the old-label -> new-label map
        (None for labels absorbed into a detached crossingless circle).
        """
        if not 0 <= ci < len(self.over_in):
            raise DiagramError(f"no crossing {ci}")
        return _spliced(self, (ci,), True)

    def mirror(self) -> "Diagram":
        """Swap slots b and d everywhere; negates every crossing sign.

        The strands keep their labels, so components are unchanged, and
        each over-strand now enters at the other slot."""
        flat = self.flat
        swapped = list(flat)
        swapped[1::4], swapped[3::4] = flat[3::4], flat[1::4]
        return Diagram._trusted(
            tuple(swapped), tuple([4 - oi for oi in self.over_in]),
            self.free_loops, self.components, self.comp_of, self.pos,
            self._small)

    # -- text forms -----------------------------------------------------------

    def pd_text(self) -> str:
        return _pd_text(_quads(self.flat), self.free_loops)

    def canonical_encode(self) -> str:
        """Deterministic text key: equal exactly for diagrams that differ
        only by crossing order and by a relabeling that keeps each
        component's edges in orientation order.

        The diagram splits into pieces, components joined through
        crossings.  Each piece is labeled once from every root, the
        incoming under-strand of each of its crossings, by the rooted
        traversal of `_rooted_rows`, and keeps the numerically smallest
        sorted list of crossing rows.  The pieces' row lists are sorted,
        each piece's labels are shifted past the previous pieces', and
        the rows are rendered as PD text with the free-loop suffix.  A
        root's labeling follows from the diagram's structure alone, never
        from its labels, so the minimum is an invariant; it is a
        relabeling of the diagram, so equal codes mean equal diagrams.
        A root's first sorted row is its own, and `_first_row` reads it
        off edge positions, so only the roots whose first row is least
        are traversed.  The cost is O(E^2 log E) for E edges at worst.
        """
        flat, over_in = self.flat, self.over_in
        # circles of two edges that run under nothing: the labels
        # leave their direction open, so each is entered at slot 1
        unders = set(flat[0::4])
        drifting = {lab for comp in self._small
                    if unders.isdisjoint(comp) for lab in comp}
        if drifting:
            over_in = [1 if b in drifting else oi
                       for b, oi in zip(flat[1::4], over_in)]
        mate = _mates(flat)

        # a root that is not the incoming under-strand of some crossing
        # cannot give a row starting with 1, so only those roots compete;
        # each root's first row is known before its traversal, and only
        # the roots whose first row is least are walked
        piece_rows = []
        for cis in _crossing_pieces(self):
            firsts = [_first_row(self, over_in, root) for root in cis]
            least = min(firsts)
            piece_rows.append(min(
                _rooted_rows(mate, over_in, cis, root)
                for root, first in zip(cis, firsts) if first == least))
        piece_rows.sort()
        rows = []
        for prows in piece_rows:
            shift = 2 * len(rows)
            rows += [tuple(x + shift for x in row) for row in prows]
        return _pd_text(rows, self.free_loops)


def _find(parent, x: int) -> int:
    """The root of x in the union-find forest `parent`, a dict or a list
    from each member to its parent, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _crossing_pieces(d: Diagram) -> list[list[int]]:
    """The crossings of `d` by piece, components joined through
    crossings; each piece lists its crossings in order."""
    parent = list(range(len(d.components)))
    comp_of, flat = d.comp_of, d.flat
    for a, b in zip(flat[0::4], flat[1::4]):
        parent[_find(parent, comp_of[a])] = _find(parent, comp_of[b])
    pieces: dict[int, list[int]] = {}
    for ci, a in enumerate(flat[0::4]):
        pieces.setdefault(_find(parent, comp_of[a]), []).append(ci)
    return list(pieces.values())


def _first_row(d: Diagram, over_in, root: int) -> tuple[int, ...]:
    """The first of the sorted rows `_rooted_rows` gives from `root`,
    the root's own row (1, b, c, d), read off positions.

    The root's component is labeled first, so an edge e on it gets
    (pos[e] - pos[u]) mod L + 1, u being the root's incoming
    under-strand and L the component's length.  An over-strand on
    another component is labeled next, from the edge entering the root
    (by the slot `over_in` gives): the over-in edge gets L + 1 and the
    over-out edge L + 2."""
    flat, comp_of, pos = d.flat, d.comp_of, d.pos
    i = 4 * root
    oi = over_in[root]
    u, o_in, o_out = flat[i], flat[i + oi], flat[i + 4 - oi]
    k = comp_of[u]
    L = len(d.components[k])
    p = pos[u]
    if comp_of[o_in] == k:
        b_in = (pos[o_in] - p) % L + 1
        b_out = (pos[o_out] - p) % L + 1
    else:
        b_in, b_out = L + 1, L + 2
    return (1, b_in, 2, b_out) if oi == 1 else (1, b_out, 2, b_in)


# where a strand entering a crossing at a slot leaves it
_OUT_SLOT = (2, 3, None, 1)


def _rooted_rows(mate, over_in, cis, root):
    """Sorted crossing rows of the piece made of crossings `cis`,
    labeled from the incoming under-strand of crossing `root`.

    `mate` is `_mates` of the diagram's labels, and `over_in` the slot
    each over-strand enters by, 1 for a circle whose direction is free.
    The root's component is labeled first, in orientation order.  Then
    the labeled edges are walked in label order; at the crossing each
    one enters, the other incoming strand starts a new component if it
    is not labeled yet, from that strand.
    """
    label = [0] * len(mate)  # the new label of each dart's edge
    entry: list[int] = []  # the dart by which each new label enters

    def take(x):
        start = x
        while True:
            entry.append(x)
            label[x] = label[mate[x]] = len(entry)
            # leave the crossing, and enter the next one along the edge
            x = mate[(x & ~3) | _OUT_SLOT[x & 3]]
            if x == start:
                return

    take(4 * root)
    i = 0
    while i < len(entry):
        x = entry[i]
        i += 1
        # the other strand entering the same crossing
        y = x & ~3 if x & 3 else x | over_in[x >> 2]
        if not label[y]:
            take(y)
    return sorted(tuple(label[4 * ci:4 * ci + 4]) for ci in cis)


def _fix_free_circles(flat, small, over_in) -> tuple[int, ...]:
    """Fix the reading of circles of two edges (among the components
    `small`) that never run under anything: the first crossing enters
    along the smaller label.  Every other strand direction is settled by
    the labels, and `over_in` is returned as given there.  Both
    `_derive` and `Diagram._trusted` end here."""
    unders = set(flat[0::4])
    small = [comp for comp in small if unders.isdisjoint(comp)]
    if not small:
        return over_in
    over_in = list(over_in)
    overs = flat[1::4]
    for comp in small:
        spots = [ci for ci, b in enumerate(overs) if b in comp]
        # the first crossing enters along the smaller label
        lo, hi = comp
        for ci in spots:
            enter = lo if ci == spots[0] else hi
            over_in[ci] = 1 if overs[ci] == enter else 3
    return tuple(over_in)


def _recheck(d: Diagram) -> None:
    ref = Diagram(d.crossings, d.free_loops)
    for name in ("flat", "over_in", "components", "comp_of", "pos"):
        if getattr(d, name) != getattr(ref, name):
            raise AssertionError(
                f"library-built {d!r} disagrees with validation on {name}: "
                f"{getattr(d, name)} != {getattr(ref, name)}"
            )
    if d != ref or hash(d) != hash(ref):
        raise AssertionError(
            f"library-built {d!r} differs from its validated copy in "
            f"equality or hash")


# -- rebuilt diagrams -----------------------------------------------------


@lru_cache(maxsize=1024)
def _numbered(lengths: tuple[int, ...]):
    """The tables `(components, comp_of, pos, small)` of components of
    the given lengths labeled 1, 2, ... in turn, each along its
    orientation, as `Diagram._trusted` takes them.  The tables are
    shared by every diagram with these lengths, and like the rest of a
    diagram they are never changed."""
    components = []
    comp_of: dict[int, int] = {}
    pos: dict[int, int] = {}
    first = 1
    for k, n in enumerate(lengths):
        labs = range(first, first + n)
        components.append(tuple(labs))
        comp_of.update(dict.fromkeys(labs, k))
        pos.update(zip(labs, range(n)))
        first += n
    small = tuple(comp for comp in components if len(comp) == 2)
    return tuple(components), comp_of, pos, small


def _rebuilt(flat, over_in, pieces, free_loops: int, rep):
    """A diagram built by library surgery, and its old-label -> new-label
    map.  `flat` holds the crossings' labels in old labels and
    `over_in` their over-in slots, as a tuple; `pieces` are the
    components, each a cycle of old labels along its orientation from
    its smallest; `rep` maps each merged label to the edge it joins;
    where that edge is in no piece, a crossingless circle, the label
    maps to None.  The pieces are numbered in order of their smallest
    label, each along its orientation from there.
    """
    pieces.sort()
    labmap: dict[int, int | None] = dict(
        zip(chain.from_iterable(pieces), count(1)))
    for lab, r in rep.items():
        labmap[lab] = labmap.get(r)
    child = Diagram._trusted(tuple(map(labmap.__getitem__, flat)), over_in,
                             free_loops, *_numbered(tuple(map(len, pieces))))
    return child, labmap


def _spliced(d: Diagram, which, crosswise: bool):
    """`d` with the crossings `which` removed, and the old-label ->
    new-label map: the one rule by which a smoothing and the moves R1-
    and R2- reconnect strands.

    Each in-edge of a removed crossing runs on into an out-edge of it.
    With `crosswise` it joins the other strand's out-edge, as an
    orientation-respecting smoothing does: the strand that arrives on
    the under-strand leaves on the over-strand's out-edge, and the
    other way round.  Without it the edge runs straight through, as
    R1- and R2- do.  Each run of edges so joined becomes one edge,
    named after its smallest label and kept in the run's place; a cycle
    made only of joined edges becomes a crossingless circle, whose
    labels map to None.  Only the components through the removed
    crossings are walked again, a stretch at a time: each stretch runs
    from an out-edge to the next in-edge along its component, found by
    a bisect over the in-edges' positions there, and is sliced out
    whole.  `_rebuilt` numbers the result.
    """
    flat, over_in = d.flat, d.over_in
    comps, comp_of, pos = d.components, d.comp_of, d.pos
    # each in-edge of a removed crossing, and the out-edge it runs on into
    nxt = {}
    for ci in which:
        i = 4 * ci
        oi = over_in[ci]
        u_in, u_out, o_in, o_out = (flat[i], flat[i + 2], flat[i + oi],
                                    flat[i + 4 - oi])
        nxt[u_in], nxt[o_in] = (o_out, u_out) if crosswise else (u_out, o_out)
    ends: dict[int, list[int]] = {}  # the in-edges' positions by component
    for e in nxt:
        ends.setdefault(comp_of[e], []).append(pos[e])
    for ps in ends.values():
        ps.sort()
    pieces = [comp for k, comp in enumerate(comps) if k not in ends]
    rep: dict[int, int | None] = {}
    outs = nxt.values()
    for e0 in nxt:
        if e0 in rep or e0 in outs:
            continue
        # the new cycle from e0, an in-edge after a kept crossing: each
        # stretch runs from the out-edge o at position p to the in-edge
        # at position q; a stretch of one edge carries the run on
        e = e0
        run = [e]
        seq = []
        while True:
            o = nxt[e]
            run.append(o)
            k = comp_of[o]
            comp = comps[k]
            ps = ends[k]
            p = pos[o]
            # the first in-edge at or after p, wrapping past the end
            q = ps[bisect_left(ps, p) - len(ps)]
            if p == q:
                e = o
                continue
            m = min(run)
            for x in run:
                rep[x] = m
            seq.append(m)
            seq += comp[p + 1:q] if p < q else comp[p + 1:] + comp[:q]
            e = comp[q]
            if e == e0:
                break
            run = [e]
        k = seq.index(min(seq))
        pieces.append(tuple(seq[k:] + seq[:k]))
    # the cycles left are made only of joined edges
    freed = 0
    for e in nxt:
        if e not in rep:
            freed += 1
            while e not in rep:
                rep[e] = None
                e = nxt[e]
    for ci in sorted(which, reverse=True):
        flat = flat[:4 * ci] + flat[4 * ci + 4:]
        over_in = over_in[:ci] + over_in[ci + 1:]
    return _rebuilt(flat, over_in, pieces, d.free_loops + freed, rep)


# -- braids -----------------------------------------------------------------


def braid_to_diagram(n: int, letters) -> Diagram:
    """Closure of a braid word on n strands.

    A letter i stands for the positive generator at positions |i|, |i|+1,
    negative i for its inverse.  Strands are oriented downward; the braid
    axis closure joins each bottom end back to its own top end.  The
    diagram records `(n, letters)` as its `braid`.  The strand count and
    the letters are checked here; the closure is built from the strands
    traced here and not validated again.
    """
    if n < 1:
        raise DiagramError(f"braid needs at least one strand, got {n}")
    letters = tuple(letters)
    if n - len(letters) > _MAX_COMPONENTS:
        raise DiagramError(
            f"braid on {n} strands with {len(letters)} letters closes to "
            f"more than {_MAX_COMPONENTS} components")
    # strands[p]: the labels taken so far by the strand now at position
    # p, starting with the top label of the position it started at
    strands = {p: [p] for p in range(1, n + 1)}
    fresh = n + 1
    flat: list[int] = []
    over_in = []
    for L in letters:
        m = abs(L)
        if m == 0 or m >= n:
            raise DiagramError(f"braid letter {L} out of range for {n} strands")
        left, right = strands[m], strands[m + 1]
        x, w, u, y = left[-1], right[-1], fresh, fresh + 1
        fresh += 2
        flat += (x, u, y, w) if L > 0 else (w, x, u, y)
        over_in.append(3 if L > 0 else 1)
        left.append(y)
        right.append(u)
        strands[m], strands[m + 1] = right, left
    # the closure merges the last edge of the strand at bottom position p
    # into top label p, where the strand that started at p goes on; a
    # strand with no letter closes to a free circle
    rep = {s[-1]: p for p, s in strands.items()}
    ends = {s[0]: p for p, s in strands.items()}
    pieces = []
    for k in range(1, n + 1):
        seq = []
        p = k
        while p in ends:
            p = ends.pop(p)
            seq += strands[p][:-1]
        if seq:
            pieces.append(tuple(seq))
    freed = sum(len(s) == 1 for s in strands.values())
    d = _rebuilt(flat, tuple(over_in), pieces, freed, rep)[0]
    object.__setattr__(d, "braid", (n, letters))
    return d


# -- parsing -----------------------------------------------------------------


# Whitespace as str.isspace reads it, and an integer after optional
# whitespace in the decimal digits that int() accepts
_SPACE = re.compile(r"\s*")
_INTEGER = re.compile(r"\s*(\d+)")
_LETTER = re.compile(r"\s*(-?)\s*(\d+)")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def skip_ws(self):
        self.i = _SPACE.match(self.text, self.i).end()

    @property
    def col(self) -> int:
        return self.i + 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i:self.i + 1]

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.i):
            got = self.text[self.i:self.i + len(token)] or "end of input"
            raise PDSyntaxError(f"expected {token!r}, found {got!r}", self.col)
        self.i += len(token)

    def integer(self) -> int:
        m = _INTEGER.match(self.text, self.i)
        if m is None:
            self.skip_ws()
            raise PDSyntaxError("expected an integer", self.col)
        self.i = m.end()
        return int(m[1])

    def done(self):
        self.skip_ws()
        if self.i < len(self.text):
            raise PDSyntaxError(
                f"unexpected trailing input {self.text[self.i:]!r}", self.col
            )


def parse_pd(text: str) -> Diagram:
    """Parse `PD[X[a,b,c,d],...]` with an optional `+O^k` free-loop suffix."""
    sc = _Scanner(text)
    sc.expect("PD[")
    crossings = []
    if sc.peek() != "]":
        while True:
            sc.expect("X[")
            a = sc.integer()
            sc.expect(",")
            b = sc.integer()
            sc.expect(",")
            c = sc.integer()
            sc.expect(",")
            d = sc.integer()
            sc.expect("]")
            crossings.append((a, b, c, d))
            if sc.peek() == ",":
                sc.expect(",")
                continue
            break
    sc.expect("]")
    loops = 0
    if sc.peek() == "+":
        sc.expect("+")
        sc.expect("O^")
        loops = sc.integer()
    sc.done()
    return Diagram(crossings, loops)


# the most letters the powers of a braid word may expand it to: far above
# the crossing limit of evaluation, and cheap to build
_MAX_WORD = 10_000


def _power(sc: _Scanner, letters: list[int], start: int) -> None:
    """Read the exponent k after a `^` and repeat `letters[start:]` k
    times in place, after checking the length that gives."""
    sc.expect("^")
    sc.skip_ws()
    col = sc.col
    k = sc.integer()
    n = start + (len(letters) - start) * k
    if n > _MAX_WORD:
        raise PDSyntaxError(
            f"word expands to {n} letters; limit is {_MAX_WORD}", col)
    letters[start:] = letters[start:] * k


def _braid_letters(sc: _Scanner) -> list[int]:
    """The letters of a braid word, read up to the first character that
    cannot go on it, which the caller reads on from.  `i^k` repeats a
    letter k times, and `( ... )^k` a group of letters and letter powers;
    groups do not nest.  Plain letters are read by one regex match each,
    and no power is expanded past `_MAX_WORD` letters."""
    text = sc.text
    letters: list[int] = []
    group = None  # where the open group starts in `letters`, and its column
    while True:
        before = len(letters)
        while m := _LETTER.match(text, sc.i):
            sc.i = m.end()
            letters.append(-int(m[2]) if m[1] else int(m[2]))
        c = sc.peek()
        if c == "^" and len(letters) > before:
            _power(sc, letters, len(letters) - 1)
        elif c == "(":
            if group is not None:
                raise PDSyntaxError("groups do not nest", sc.col)
            group = len(letters), sc.col
            sc.i += 1
        elif c == ")" and group is not None:
            if len(letters) == group[0]:
                raise PDSyntaxError("expected an integer", sc.col)
            sc.i += 1
            _power(sc, letters, group[0])
            group = None
        else:
            break
    if group is not None and c == "":
        raise PDSyntaxError("'(' is not closed", group[1])
    return letters


def parse_diagram(text: str) -> Diagram:
    """Accept either PD text or a braid word `braid(n; i1 i2 ...)`, in
    which `i^k` and `( ... )^k` stand for powers (see `_braid_letters`)."""
    stripped = text.strip()
    if stripped.startswith("braid"):
        sc = _Scanner(stripped)
        sc.expect("braid")
        sc.expect("(")
        n = sc.integer()
        sc.expect(";")
        letters = _braid_letters(sc)
        if sc.peek() not in (")", ""):
            # not a letter: the scanner reads on to the error it raises
            if sc.peek() == "-":
                sc.expect("-")
            sc.integer()
        sc.expect(")")
        sc.done()
        return braid_to_diagram(n, letters)
    return parse_pd(stripped)
