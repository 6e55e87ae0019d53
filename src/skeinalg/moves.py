"""Reidemeister-type rewriting: detection, application, fuzzing, untangling.

Faces come from the combinatorial map of the diagram: darts are
(crossing, slot) pairs, the involution swaps the two occurrences of an
edge label, and face orbits follow "arrive along an edge, leave along
the next slot counterclockwise".  A dart therefore walks its edge away
from its crossing with the face on the walker's right.
`diagram._face_walk` walks the darts as the integers 4 * crossing +
slot, which index the diagram's flat label tuple `d.flat` directly, and
pairs them by label with `diagram._mates`, as canonical encoding does.
Every diagram is planar (construction refuses a code that fails
`euler_ok`), so no face lies on both sides of an edge: a 4-valent plane
graph has no bridge.  Every move reads and writes labels in `d.flat`;
none reads the diagram's `crossings` 4-tuples.

Each step of `random_perturb` counts its moves once, from one face
walk (`_census`), and builds only the move it draws, from the darts the
census found (`_build`), without checking it again.  `trivialize`
reads one census per step too, and builds the events it takes from it
the same way.  Only `apply_move`, the door for events from outside
such as those `replay_events` reads, checks an event against a face
walk before it builds it.  Switches and triangle slides keep the
diagram's strands and labels and build through `Diagram._trusted`.
R1- and R2- remove their crossings through `diagram._spliced`, the
rule a smoothing shares, running each strand straight through them;
R1+ and R2+ insert new edges into the parent's components where they
act and hand them to `_rebuilt`.  The skein resolver reduces
each diagram it meets by R1- and R2- through `_reduced`, which reads
no face walk: only the faces beside the edges it is given, and beside
the runs each of its removals joins.

Move events are small strings:

    R1-@c<i>        remove the curl at crossing i
    R2-@f<i>        remove the coherent bigon that is face i
    R3@f<i>         slide the triangle that is face i
    R1+@e<i>/<s><f> add a curl on edge i, sign s in +-, flavor f in
                    {o: strand passes over itself first, u: under first}
    R1+@O/<s><f>    same, curling a crossingless circle
    R2+@e<i>/e<j>   push edge i over edge j across a shared face
    CC@c<i>         switch crossing i
    RLT@comp<i>     certify the i-th crossingless circle (no-op)

Face indices refer to the canonical face order of the diagram the event
applies to, so a sequence of events replays deterministically.
`str(event)` is the text `parse_event` reads back as the event.  An
event whose fields no diagram accepts (`_shape_error`) prints with the
reason in parentheses, which `parse_event` refuses; so is text that
reads as such an event, such as `RLT@comp0`, since edge labels and
circles are numbered from 1.
"""

from __future__ import annotations

import random
import re
from collections import Counter, deque
from dataclasses import dataclass, fields
from itertools import chain
from operator import mul

from .diagram import Diagram, _curl_at, _face_walk, _rebuilt, _spliced


class MoveError(ValueError):
    pass


Dart = tuple[int, int]


# -- faces -------------------------------------------------------------------


def faces(d: Diagram) -> tuple[tuple[Dart, ...], ...]:
    """Face orbits in canonical order (each rotated to start at its
    smallest dart, then sorted), as (crossing, slot) pairs."""
    return tuple(tuple([divmod(x, 4) for x in orbit])
                 for orbit in _face_walk(d)[1])


def face_edges(d: Diagram, face: tuple[Dart, ...]) -> tuple[int, ...]:
    flat = d.flat
    return tuple([flat[4 * c + s] for c, s in face])


def _is_bigon(orbit) -> bool:
    """Two darts at distinct crossings.  Their edges are distinct too:
    in a face orbit [x, y], y is one slot counterclockwise of the mate
    of x, which is never y itself."""
    return len(orbit) == 2 and orbit[0] >> 2 != orbit[1] >> 2


def _is_clasp(orbit, mate) -> bool:
    """A bigon R2- can remove: one edge is over (at odd slots) at both
    its ends."""
    if not _is_bigon(orbit):
        return False
    x, y = orbit
    return bool((x & mate[x] | y & mate[y]) & 1)


def _is_slideable(orbit, mate) -> bool:
    """A triangle R3 can slide: three distinct corners, and edges over
    at both ends, at one and at none (so they are distinct)."""
    if len(orbit) != 3:
        return False
    x, y, z = orbit
    ox = (x & 1) + (mate[x] & 1)
    oy = (y & 1) + (mate[y] & 1)
    oz = (z & 1) + (mate[z] & 1)
    return (x >> 2 != y >> 2 != z >> 2 != x >> 2
            and ox != oy != oz != ox)


# -- events -------------------------------------------------------------------


@dataclass(frozen=True)
class MoveEvent:
    kind: str                     # R1-, R2-, R3, R1+, R2+, CC, RLT
    crossing: int | None = None   # R1-, CC
    face: int | None = None       # R2-, R3
    edge: int | None = None       # R1+ (None with loop=True), R2+ (over edge)
    edge2: int | None = None      # R2+ (under edge)
    sign: int | None = None       # R1+
    flavor: str | None = None     # R1+: 'o' or 'u'
    loop: bool = False            # R1+ on a crossingless circle
    comp: int | None = None       # RLT

    def __str__(self) -> str:
        k = self.kind
        c, f, e, e2, comp = map(_field_text, (self.crossing, self.face,
                                              self.edge, self.edge2,
                                              self.comp))
        if k == "R1-":
            text = f"R1-@c{c}"
        elif k in ("R2-", "R3"):
            text = f"{k}@f{f}"
        elif k == "R1+":
            s = ("+" if self.sign == 1 else "-" if self.sign == -1
                 else _field_text(self.sign))
            at = "O" if self.loop else f"e{e}"
            text = f"R1+@{at}/{s}{_field_text(self.flavor)}"
        elif k == "R2+":
            text = f"R2+@e{e}/e{e2}"
        elif k == "CC":
            text = f"CC@c{c}"
        elif k == "RLT":
            text = f"RLT@comp{comp}"
        else:
            text = str(k)
        problem = _shape_error(self)
        return text if problem is None else f"{text} ({problem})"


def _field_text(value) -> str:
    return "?" if value is None else str(value)


# the fields each kind of event sets beside `kind`; an R1+ on a
# crossingless circle sets `loop` in place of `edge`
_FIELDS = {"R1-": ("crossing",), "R2-": ("face",), "R3": ("face",),
           "R1+": ("edge", "sign", "flavor"), "R2+": ("edge", "edge2"),
           "CC": ("crossing",), "RLT": ("comp",)}
_DEFAULTS = [(f.name, f.default) for f in fields(MoveEvent)[1:]]
# the fields that name an edge label or a circle, both numbered from 1
_FROM_ONE = ("edge", "edge2", "comp")


def _shape_error(ev: MoveEvent) -> str | None:
    """Why no diagram accepts `ev`, or None: a known kind, a sign of +1
    or -1 and a flavor of o or u for R1+, every field the kind uses set,
    an edge or circle number of at least 1, and every field the kind
    does not use left at its default."""
    used = _FIELDS.get(ev.kind)
    if used is None:
        return f"unknown event kind {ev.kind!r}"
    if ev.kind == "R1+":
        if ev.sign not in (1, -1) or ev.flavor not in ("o", "u"):
            return (f"R1+ event needs sign +1 or -1 and flavor o or u, "
                    f"got sign {ev.sign!r} and flavor {ev.flavor!r}")
        if ev.loop:
            used = ("loop", "sign", "flavor")
    for name, default in _DEFAULTS:
        value = getattr(ev, name)
        if name not in used:
            if value != default:
                return f"{ev.kind} event sets {name}, which it does not use"
        elif value is None:
            return f"{ev.kind} event has no {name}"
        elif name in _FROM_ONE and isinstance(value, int) and value < 1:
            return f"{ev.kind} event has {name} {value}, numbered from 1"
    return None


_EVENT_RES = [
    (re.compile(r"^R1-@c(\d+)$"), lambda m: MoveEvent("R1-", crossing=int(m[1]))),
    (re.compile(r"^R2-@f(\d+)$"), lambda m: MoveEvent("R2-", face=int(m[1]))),
    (re.compile(r"^R3@f(\d+)$"), lambda m: MoveEvent("R3", face=int(m[1]))),
    (re.compile(r"^R1\+@e(\d+)/([+-])([ou])$"),
     lambda m: MoveEvent("R1+", edge=int(m[1]), sign=1 if m[2] == "+" else -1,
                         flavor=m[3])),
    (re.compile(r"^R1\+@O/([+-])([ou])$"),
     lambda m: MoveEvent("R1+", loop=True, sign=1 if m[1] == "+" else -1,
                         flavor=m[2])),
    (re.compile(r"^R2\+@e(\d+)/e(\d+)$"),
     lambda m: MoveEvent("R2+", edge=int(m[1]), edge2=int(m[2]))),
    (re.compile(r"^CC@c(\d+)$"), lambda m: MoveEvent("CC", crossing=int(m[1]))),
    (re.compile(r"^RLT@comp(\d+)$"), lambda m: MoveEvent("RLT", comp=int(m[1]))),
]


def parse_event(text: str) -> MoveEvent:
    """The event `text` names; `MoveError` if it names none, or one that
    no diagram accepts."""
    text = text.strip()
    for rx, build in _EVENT_RES:
        m = rx.match(text)
        if m:
            ev = build(m)
            problem = _shape_error(ev)
            if problem is not None:
                raise MoveError(f"cannot parse move event {text!r}: {problem}")
            return ev
    raise MoveError(f"cannot parse move event {text!r}")


# -- detection ----------------------------------------------------------------


# the (sign, flavor) of the four curls an R1+ can add at one place
_CURL_KINDS = ((1, "o"), (1, "u"), (-1, "o"), (-1, "u"))


def _census(d: Diagram, cap: int):
    """The moves `random_perturb` can draw on `d` within `cap` crossings,
    from one face walk: `(total, kinks, clasps, slides, places, walk)`.

    In the order of their indices: R1- at the crossings `kinks` (from
    the monogons), R2- at the faces `clasps` (one per crossing pair) and
    R3 at the faces `slides`; RLT at each crossingless circle; four R1+
    at each of the `places`, every edge and then one circle if there is
    one; and the R2+ pushes, which are counted, not listed (`_drawn`).
    `walk` is `_face_walk(d)`.  A push is an ordered pair of distinct
    edges on a face, and a pair lies on two faces when both its edges
    separate the same two.  No face lies on both sides of an edge, so
    with k_f the darts of face f and g_AB the edges between faces
    A != B, there are sum_f k_f (k_f - 1) - sum_{A<B} g_AB (g_AB - 1)
    pushes."""
    walk = mate, orbits, face = _face_walk(d)
    n = len(d.over_in)
    kinks, clasps, slides = [], {}, []
    pushes = 0  # first sum_f k_f (k_f - 1)
    for fi, orbit in enumerate(orbits):
        k = len(orbit)
        pushes += k * (k - 1)
        if k == 1:
            kinks.append(orbit[0] >> 2)
        elif k == 2 and _is_clasp(orbit, mate):
            clasps.setdefault(frozenset([orbit[0] >> 2, orbit[1] >> 2]), fi)
        elif k == 3 and _is_slideable(orbit, mate):
            slides.append(fi)
    if n + 2 > cap or not n:
        pushes = 0
    else:
        # each unordered pair of faces meets c times, counted both ways
        across = list(map(face.__getitem__, mate))
        meets = list(Counter(zip(face, across)).values())
        pushes -= (sum(map(mul, meets, meets)) - len(mate)) // 2
    kinks = list(dict.fromkeys(kinks))  # a crossing may close two curls
    places = 2 * n + (d.free_loops > 0) if n < cap else 0
    total = (len(kinks) + len(clasps) + len(slides) + d.free_loops
             + 4 * places + pushes)
    return total, kinks, list(clasps.values()), slides, places, walk


def _drawn(d: Diagram, census, i: int):
    """The event at index i of `census` (see `_census`), and for a push
    the darts of its edges on the first face they share, else None."""
    _, kinks, clasps, slides, places, walk = census
    for kind, at in (("R1-", kinks), ("R2-", clasps), ("R3", slides)):
        if i < len(at):
            return _event(kind, at[i]), None
        i -= len(at)
    if i < d.free_loops:
        return MoveEvent("RLT", comp=i + 1), None
    i -= d.free_loops
    if i >= 4 * places:
        return _push_at(d, walk, i - 4 * places)
    sign, flavor = _CURL_KINDS[i % 4]
    loop = i // 4 == 2 * d.n_crossings
    return MoveEvent("R1+", edge=None if loop else sorted(d.comp_of)[i // 4],
                     sign=sign, flavor=flavor, loop=loop), None


def _push_at(d: Diagram, walk, j: int):
    """The j-th push, as `_drawn` returns it: the ordered pairs of
    distinct edges face by face, each pair at the first face it lies on,
    in the order of `itertools.permutations` of the face's edges."""
    mate, orbits, face = walk
    flat = d.flat
    for f, darts in enumerate(orbits):
        back = [face[mate[x]] for x in darts]  # the face across each edge
        k = len(darts)
        new = k * (k - 1)
        apart = len(set(back)) == k  # no two edges lead to one face
        if not apart:
            # pairs of edges between f and one earlier face lay there
            new -= sum(c * (c - 1) for g, c in Counter(back).items()
                       if g < f)
        if j >= new:
            j -= new
            continue
        if apart:
            p, q = divmod(j, k - 1)
            x, y = darts[p], darts[q + (q >= p)]
        else:
            x, y = [(x, y) for p, x in enumerate(darts)
                    for q, y in enumerate(darts)
                    if p != q and not back[p] == back[q] < f][j]
        return MoveEvent("R2+", edge=flat[x], edge2=flat[y]), (x, y)
    raise AssertionError("push index past the census")  # pragma: no cover


def find_moves(d: Diagram) -> list[MoveEvent]:
    """Applicable R1-, R2-, R3 and RLT events, deterministically ordered."""
    census = _census(d, 0)
    return [_drawn(d, census, i)[0] for i in range(census[0])]


def _event(kind: str, at: int) -> MoveEvent:
    """The event of a kind with one place field, at place `at`."""
    return MoveEvent(kind, **{_FIELDS[kind][0]: at})


# -- application --------------------------------------------------------------


def _removable(flat, x: int, y: int):
    """The crossings that R1- or R2- removes at a face beside the edge
    with darts x and y, or None.  Both darts at one crossing make the
    edge a curl's loop (a planar diagram has no edge straight through
    a crossing back to itself).  Otherwise the face of x goes on at
    z, one slot counterclockwise of y, and is a bigon when the mate of
    z is w, one slot clockwise of x; it is a removable clasp as in
    `_is_clasp`.  The face of y is read the same way."""
    if x >> 2 == y >> 2:
        return (x >> 2,)
    for x, y in ((x, y), (y, x)):
        z = y - 3 if y & 3 == 3 else y + 1
        w = x + 3 if x & 3 == 0 else x - 1
        if flat[w] == flat[z] and (x & y | z & w) & 1:
            return (x >> 2, y >> 2)
    return None


def _reduced(d: Diagram, edges) -> Diagram:
    """`d` after greedy R1- and R2- at the faces beside the edges
    `edges` (None entries are skipped), or `d` itself when none of
    those faces is a monogon or a removable clasp.

    Only the two faces beside each candidate edge are read
    (`_removable`).  A removal makes its joined runs candidates, and
    carries the candidates not yet read through its label map.  A face
    beside an edge already read changes only where a removal touches
    it, and then lies beside a joined run; so when every other face of
    `d` is neither a monogon nor a removable clasp, no face of the
    result is one."""
    todo = [e for e in edges if e is not None]
    while todo:
        flat = d.flat
        e = todo.pop()
        x = flat.index(e)
        which = _removable(flat, x, flat.index(e, x + 1))
        if which is None:
            continue
        over_in = d.over_in
        todo += [flat[4 * c + s] for c in which for s in (0, over_in[c])]
        d, labmap = _spliced(d, which, False)
        todo = [e for e in map(labmap.__getitem__, todo) if e is not None]
    return d


def _grown(d: Diagram, heads: dict[int, tuple[int, ...]]):
    """The flat labels and components of `d` with new edges after some of
    its edges: the last new label after edge e replaces e at the dart
    where e ends, an in-slot (0 or the over-in slot), and all of them
    follow e in its component.  `heads` maps each such edge to its new
    labels."""
    flat = list(d.flat)
    pieces = list(d.components)
    for e, new in heads.items():
        x = flat.index(e)
        if x & 3 and x & 3 != d.over_in[x >> 2]:
            x = flat.index(e, x + 1)
        flat[x] = new[-1]
        k = d.comp_of[e]
        i = pieces[k].index(e) + 1
        pieces[k] = pieces[k][:i] + new + pieces[k][i:]
    return flat, pieces


def _slide(d: Diagram, mate, orbit) -> Diagram:
    """Slide the slideable triangle `orbit`: each edge moves past the
    crossing of the other two, keeping every label and strand."""
    flat, over_in = d.flat, d.over_in
    comps, comp_of, pos = d.components, d.comp_of, d.pos
    slid = list(flat)
    for x in orbit:
        e = flat[x]
        comp, p = comps[comp_of[e]], pos[e]
        # f: the dart where e starts, g: where it ends
        f, g = ((mate[x], x) if x & 3 == 0 or x & 3 == over_in[x >> 2]
                else (x, mate[x]))
        slid[f] = comp[(p + 1) % len(comp)]
        slid[g] = comp[p - 1]
        # e now enters f's crossing and leaves g's on their other strands
        slid[f & ~3 | (0 if f & 3 == 2 else over_in[f >> 2])] = e
        slid[g & ~3 | (2 if g & 3 == 0 else 4 - over_in[g >> 2])] = e
    return Diagram._trusted(tuple(slid), over_in, d.free_loops,
                            comps, comp_of, pos, d._small)


def _r1plus_template(e, loop_lab, n1, sign: int, flavor: str):
    """Curl crossing plus its over-in slot; strand order e -> loop -> n1."""
    if flavor == "u":
        if sign < 0:
            return (e, loop_lab, loop_lab, n1), 1
        return (e, n1, loop_lab, loop_lab), 3
    if sign < 0:
        return (loop_lab, e, n1, loop_lab), 1
    return (loop_lab, loop_lab, n1, e), 3


def _curl(d: Diagram, ev: MoveEvent) -> Diagram:
    """Add the curl of the R1+ event `ev`."""
    base = max(d.flat, default=0)
    if ev.loop:
        e, lab, n1 = base + 1, base + 2, base + 1
        flat, pieces = list(d.flat), [*d.components, (e, lab)]
    else:
        e, lab, n1 = ev.edge, base + 1, base + 2
        flat, pieces = _grown(d, {e: (lab, n1)})
    cr, oi = _r1plus_template(e, lab, n1, ev.sign, ev.flavor)
    return _rebuilt(flat + list(cr), d.over_in + (oi,), pieces,
                    d.free_loops - ev.loop, {})[0]


def _r2plus_crossings(x, x2, x3, y, y2, y3, wx: bool, wy: bool):
    """The two new crossings for pushing x over y across a shared face.

    wx, wy: whether the face orbit walks the edge along its orientation.
    Each entry is ((a, b, c, d), over_in_slot)."""
    if wx and wy:
        return [((y2, x, y3, x2), 1), ((y, x3, y2, x2), 3)]
    if not wx and wy:
        return [((y, x, y2, x2), 1), ((y2, x3, y3, x2), 3)]
    if wx and not wy:
        return [((y, x2, y2, x), 3), ((y2, x2, y3, x3), 1)]
    return [((y2, x2, y3, x), 3), ((y, x2, y2, x3), 1)]


def _push(d: Diagram, x: int, y: int, dx: int, dy: int) -> Diagram:
    """Push edge x over edge y across the face where their darts dx and
    dy lie."""
    over_in = d.over_in
    # whether the face walks each edge along its orientation
    wx = dx & 3 == 2 or dx & 3 == 4 - over_in[dx >> 2]
    wy = dy & 3 == 2 or dy & 3 == 4 - over_in[dy >> 2]
    base = max(d.flat)
    x2, x3, y2, y3 = base + 1, base + 2, base + 3, base + 4
    flat, pieces = _grown(d, {x: (x2, x3), y: (y2, y3)})
    new, ois = zip(*_r2plus_crossings(x, x2, x3, y, y2, y3, wx, wy))
    return _rebuilt(flat + list(chain.from_iterable(new)), d.over_in + ois,
                    pieces, d.free_loops, {})[0]


def _build(d: Diagram, ev: MoveEvent, walk, darts) -> Diagram:
    """The diagram the applicable event `ev` makes of `d`; `walk` is
    `_face_walk(d)` for R2-, R3 and R2+ events, and `darts` the darts of
    an R2+ event's edges on their common face."""
    kind = ev.kind
    if kind == "R1-":
        return _spliced(d, (ev.crossing,), False)[0]
    if kind == "R2-":
        return _spliced(d, [x >> 2 for x in walk[1][ev.face]], False)[0]
    if kind == "R3":
        return _slide(d, walk[0], walk[1][ev.face])
    if kind == "R1+":
        return _curl(d, ev)
    if kind == "R2+":
        return _push(d, ev.edge, ev.edge2, *darts)
    if kind == "CC":
        return d.crossing_change(ev.crossing)
    return d


def apply_move(d: Diagram, ev: MoveEvent | str) -> Diagram:
    """The diagram the event `ev` makes of `d`, after checking that it
    is well formed (`_shape_error`) and applies to `d`."""
    if isinstance(ev, str):
        ev = parse_event(ev)
    problem = _shape_error(ev)
    if problem is not None:
        raise MoveError(problem)
    kind = ev.kind
    walk = darts = None
    if kind == "CC":
        if not 0 <= ev.crossing < d.n_crossings:
            raise MoveError(f"no crossing {ev.crossing}")
    elif kind == "RLT":
        if not 1 <= ev.comp <= d.free_loops:
            raise MoveError(f"no crossingless circle number {ev.comp}")
    elif kind == "R1-":
        ci = ev.crossing
        if not 0 <= ci < d.n_crossings or not _curl_at(
                d.flat[4 * ci:4 * ci + 4]):
            raise MoveError(f"crossing {ci} is not a curl")
    elif kind in ("R2-", "R3"):
        walk = mate, orbits, _ = _face_walk(d)
        if not 0 <= ev.face < len(orbits):
            raise MoveError(f"no face {ev.face}")
        if kind == "R2-" and not _is_clasp(orbits[ev.face], mate):
            raise MoveError(f"face {ev.face} is not a removable clasp")
        if kind == "R3" and not _is_slideable(orbits[ev.face], mate):
            raise MoveError("face is not a slideable triangle")
    elif kind == "R1+":
        if ev.loop and d.free_loops < 1:
            raise MoveError("no crossingless circle to curl")
        if not ev.loop and ev.edge not in d.comp_of:
            raise MoveError(f"no edge {ev.edge} to curl")
    else:
        x, y = ev.edge, ev.edge2
        if x == y:
            raise MoveError("the two edges of a finger push must differ")
        for e in (x, y):
            if e not in d.comp_of:
                raise MoveError(f"no edge {e}")
        walk = _face_walk(d)
        flat = d.flat
        for orbit in walk[1]:
            labs = [flat[z] for z in orbit]
            if x in labs and y in labs:
                darts = orbit[labs.index(x)], orbit[labs.index(y)]
                break
        else:
            raise MoveError(f"edges {x} and {y} do not border a common face")
    return _build(d, ev, walk, darts)


# -- fuzzing -------------------------------------------------------------------


def random_perturb(d: Diagram, seed: int, steps: int, cap: int = 14):
    """Apply `steps` random link-preserving moves; deterministic in seed.

    Growing moves are withheld once they would push the diagram past
    `cap` crossings.  A step with no applicable move is skipped.  Each
    step counts its moves once (`_census`), draws one index among them,
    the growth events after the others, and builds only the event it
    drew, from what the census found.
    Returns the final diagram and the applied events.
    """
    rng = random.Random(seed)
    events: list[MoveEvent] = []
    cur = d
    for _ in range(steps):
        census = _census(cur, cap)
        if not census[0]:
            continue
        ev, darts = _drawn(cur, census, rng.randrange(census[0]))
        cur = _build(cur, ev, census[-1], darts)
        events.append(ev)
    return cur, events


def replay_events(d: Diagram, events) -> Diagram:
    cur = d
    for ev in events:
        cur = apply_move(cur, ev)
    return cur


# -- untangling ----------------------------------------------------------------


def _bigon_fix(d: Diagram, orbits) -> MoveEvent | None:
    """A crossing switch that turns some bigon among the face orbits
    `orbits` of `d` into a removable clasp."""
    flat = d.flat
    for orbit in orbits:
        if not _is_bigon(orbit):
            continue
        # switch the corner where the smaller edge runs under
        e = min(flat[x] for x in orbit)
        for c in sorted(x >> 2 for x in orbit):
            if e in flat[4 * c:4 * c + 4:2]:
                return MoveEvent("CC", crossing=c)
    return None


_SEARCH_LIMIT = 50_000


def _search_unlock(d: Diagram) -> tuple[Diagram, list[MoveEvent]]:
    """Breadth-first hunt for a state with a curl or bigon face, moving
    only through triangle slides and crossing switches: the state found
    and the path to it."""
    seen = {d.canonical_encode()}
    queue = deque([(d, [])])
    expanded = 0
    while queue:
        cur, path = queue.popleft()
        expanded += 1
        if expanded > _SEARCH_LIMIT:
            break
        census = _census(cur, 0)
        candidates = [_event("R3", fi) for fi in census[3]]
        candidates += [MoveEvent("CC", crossing=ci) for ci in range(cur.n_crossings)]
        for ev in candidates:
            nxt = _build(cur, ev, census[-1], None)
            key = nxt.canonical_encode()
            if key in seen:
                continue
            seen.add(key)
            npath = path + [ev]
            if any(len(f) == 1 or _is_bigon(f) for f in _face_walk(nxt)[1]):
                return nxt, npath
            queue.append((nxt, npath))
    raise MoveError(
        "could not steer the diagram to a reducible state within the search budget"
    )


def trivialize(d: Diagram) -> list[MoveEvent]:
    """Unknotting certificate: events (switches included) taking the
    diagram to a crossingless one, one circle per component.

    Each step reads one census (`_census`) and takes its first R1- or
    R2-; failing that, a switch that makes a bigon removable
    (`_bigon_fix`); failing that, the path `_search_unlock` finds to a
    reducible state.  Each event is built from what its census found."""
    events: list[MoveEvent] = []
    cur = d
    while cur.n_crossings:
        census = _census(cur, 0)
        walk = census[-1]
        if census[1] or census[2]:
            ev = _drawn(cur, census, 0)[0]
        else:
            ev = _bigon_fix(cur, walk[1])
        if ev is None:
            cur, path = _search_unlock(cur)
            events.extend(path)
            continue
        cur = _build(cur, ev, walk, None)
        events.append(ev)
    for i in range(cur.free_loops):
        events.append(MoveEvent("RLT", comp=i + 1))
    return events
