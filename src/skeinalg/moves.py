"""Reidemeister-type rewriting: detection, application, fuzzing, untangling.

Faces come from the combinatorial map of the diagram: darts are
(crossing, slot) pairs, the involution swaps the two occurrences of an
edge label, and face orbits follow "arrive along an edge, leave along
the next slot counterclockwise".  A dart therefore walks its edge away
from its crossing with the face on the walker's right.  `faces` walks
the darts as the integers 4 * crossing + slot, which index the
diagram's flat label tuple `d.flat` directly, pairs them by label with
`diagram._mates`, as canonical encoding does, and returns the pairs.
Every move reads and writes labels in `d.flat`; none reads the
diagram's `crossings` 4-tuples.

Each step of `random_perturb` computes the faces once.  Its census of
moves (curls, removable bigons, slideable triangles and the edge pairs a
finger push can join) is read from those faces and from one over-count
per edge, and only the event drawn is built.  Switches and triangle
slides keep the diagram's strands and labels and build through
`Diagram._trusted`.  The moves that add or remove crossings change the
parent's components where they act and hand them to `_rebuilt`: R1-
and R2- contract runs of edges, R1+ and R2+ insert new edges.

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
from collections import Counter
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain, permutations

from .diagram import (Diagram, _crossing_pieces, _mates, _quads, _rebuilt,
                      _run)


class MoveError(ValueError):
    pass


Dart = tuple[int, int]


# -- faces -------------------------------------------------------------------


@lru_cache(maxsize=64)
def _dart_tables(m: int) -> tuple[tuple[Dart, ...], tuple[int, ...]]:
    """For each integer dart 4 * crossing + slot below m: its (crossing,
    slot) pair, and the dart one slot counterclockwise from it."""
    return (tuple(divmod(x, 4) for x in range(m)),
            tuple(x - 3 if x & 3 == 3 else x + 1 for x in range(m)))


def faces(d: Diagram) -> tuple[tuple[Dart, ...], ...]:
    """Face orbits in canonical order (each rotated to start at its
    smallest dart, then sorted).

    Darts are walked as the integers 4 * crossing + slot, whose order is
    that of the (crossing, slot) pairs.  Taken in increasing order, the
    first dart of each new orbit is its smallest, so the orbits come out
    rotated and sorted as they are found."""
    m = len(d.flat)
    pair, ccw = _dart_tables(m)
    # phi: arrive along the edge at its other end, leave by the next slot
    # counterclockwise
    phi = [ccw[y] for y in _mates(d.flat)]
    seen = bytearray(m)
    out = []
    for x0 in range(m):
        if seen[x0]:
            continue
        seen[x0] = 1
        orbit = [pair[x0]]
        x = phi[x0]
        while x != x0:
            seen[x] = 1
            orbit.append(pair[x])
            x = phi[x]
        out.append(tuple(orbit))
    return tuple(out)


def face_edges(d: Diagram, face: tuple[Dart, ...]) -> tuple[int, ...]:
    flat = d.flat
    return tuple([flat[4 * c + s] for c, s in face])


def _over_counts(d: Diagram) -> Counter:
    """edge -> how many of its two ends are over-strand slots (1 or 3)."""
    return Counter(d.flat[1::2])


def euler_ok(d: Diagram) -> bool:
    """Genus-zero check: V - E + F == 2 per connected crossing piece."""
    if not d.flat:
        return True
    V = d.n_crossings
    E = 2 * V
    F = len(faces(d))
    return V - E + F == 2 * len(_crossing_pieces(d))


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


def _curl_at(cr) -> bool:
    a, b, c, d = cr
    return a == b or b == c or c == d or d == a


def _is_bigon(face, es) -> bool:
    """A face with two distinct crossings and two distinct edges; `es`
    is `face_edges` of the face."""
    return len(face) == 2 and face[0][0] != face[1][0] and es[0] != es[1]


def _bigon_ok(face, es, overs) -> bool:
    """A bigon that R2- can remove: one strand is over at both corners.
    `es` is `face_edges` of the face and `overs` is `_over_counts(d)`."""
    return _is_bigon(face, es) and (overs[es[0]] == 2 or overs[es[1]] == 2)


def _trigon_ok(face, es, overs) -> bool:
    """A triangle that R3 can slide: three distinct corners and edges,
    one edge over at both its corners, one under at both, one mixed.
    `es` is `face_edges` of the face and `overs` is `_over_counts(d)`."""
    return (len({c for c, _ in face}) == 3 and len(set(es)) == 3
            and sorted(map(overs.__getitem__, es)) == [0, 1, 2])


def find_moves(d: Diagram) -> list[MoveEvent]:
    """Applicable R1-, R2-, R3 and RLT events, deterministically ordered."""
    return [_event(kind, at) for kind, at in _find_moves(d, faces(d))]


def _event(kind: str, at: int) -> MoveEvent:
    """The event of a kind with one place field, at place `at`."""
    return MoveEvent(kind, **{_FIELDS[kind][0]: at})


def _find_moves(d: Diagram, fs) -> list[tuple[str, int]]:
    """`find_moves` over the already computed `faces(d)`, each event as
    its (kind, place) pair; `_event` builds it."""
    flat = d.flat
    out = [("R1-", ci) for ci, cr in enumerate(_quads(flat)) if _curl_at(cr)]
    overs = _over_counts(d)
    slides = []
    seen_pairs: set[tuple[int, int]] = set()
    for fi, face in enumerate(fs):
        if len(face) == 2:
            if not _bigon_ok(face, face_edges(d, face), overs):
                continue
            pair = tuple(sorted(c for c, _ in face))
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                out.append(("R2-", fi))
        elif len(face) == 3 and _trigon_ok(face, face_edges(d, face), overs):
            slides.append(("R3", fi))
    out += slides
    out += [("RLT", i + 1) for i in range(d.free_loops)]
    return out


# -- application --------------------------------------------------------------


def _remove_crossings(d: Diagram, which: set[int]):
    """Remove the crossings `which`; returns the child and the label map.

    An in-edge of a removed crossing runs on into its successor, and
    each run of edges so joined becomes one edge, named after its
    smallest label.  A component made only of such edges becomes a
    crossingless circle."""
    flat, over_in = d.flat, d.over_in
    runs_on = set()
    for ci in which:
        a, b, _, e = flat[4 * ci:4 * ci + 4]
        runs_on.update((a, b if over_in[ci] == 1 else e))
    pieces = []
    rep: dict[int, int | None] = {}
    freed = 0
    for comp in d.components:
        if runs_on.isdisjoint(comp):
            pieces.append(comp)
            continue
        # a run starts where the edge before does not run on
        starts = [i for i in range(len(comp)) if comp[i - 1] not in runs_on]
        if not starts:
            freed += 1
            rep.update(dict.fromkeys(comp))
            continue
        seq = []
        for i, j in zip(starts, starts[1:] + [starts[0] + len(comp)]):
            run = _run(comp, i, j - 1)
            seq.append(min(run))
            if len(run) > 1:
                rep.update(dict.fromkeys(run, seq[-1]))
        k = seq.index(min(seq))
        pieces.append(tuple(seq[k:] + seq[:k]))
    kept = [j for j in range(d.n_crossings) if j not in which]
    return _rebuilt([x for j in kept for x in flat[4 * j:4 * j + 4]],
                    tuple([over_in[j] for j in kept]), pieces,
                    d.free_loops + freed, rep)


def _ends(d: Diagram, flat, e: int) -> tuple[Dart, Dart]:
    """The darts at which edge `e` starts and ends; `flat` is `d.flat`
    or a copy of it."""
    i = flat.index(e)
    first, second = divmod(i, 4), divmod(flat.index(e, i + 1), 4)
    ci, s = first
    if s == 0 or s == d.over_in[ci]:
        return second, first
    return first, second


def _grown(d: Diagram, heads: dict[int, tuple[int, ...]]):
    """The flat labels and components of `d` with new edges after some of
    its edges: the last new label after edge e replaces e at the dart
    where e ends, and all of them follow e in its component.  `heads`
    maps each such edge to its new labels."""
    flat = list(d.flat)
    pieces = list(d.components)
    for e, new in heads.items():
        ci, s = _ends(d, flat, e)[1]
        flat[4 * ci + s] = new[-1]
        k = d.comp_of[e]
        i = pieces[k].index(e) + 1
        pieces[k] = pieces[k][:i] + new + pieces[k][i:]
    return flat, pieces


def _partner_in_slot(oi: int, out_slot: int) -> int:
    return 0 if out_slot == 2 else oi


def _partner_out_slot(oi: int, in_slot: int) -> int:
    return 2 if in_slot == 0 else 4 - oi


def _apply_r3(d: Diagram, face) -> Diagram:
    if not _trigon_ok(face, face_edges(d, face), _over_counts(d)):
        raise MoveError("face is not a slideable triangle")
    flat = d.flat
    comps, comp_of, pos = d.components, d.comp_of, d.pos
    writes: dict[Dart, int] = {}

    def put(dart: Dart, lab: int) -> None:
        if dart in writes:
            raise MoveError("triangle rewrite touched one slot twice")
        writes[dart] = lab

    for e in set(face_edges(d, face)):
        comp, p = comps[comp_of[e]], pos[e]
        s1, s2 = comp[p - 1], comp[(p + 1) % len(comp)]
        (fc, f_slot), (gc, g_slot) = _ends(d, flat, e)
        put((fc, _partner_in_slot(d.over_in[fc], f_slot)), e)
        put((fc, f_slot), s2)
        put((gc, g_slot), s1)
        put((gc, _partner_out_slot(d.over_in[gc], g_slot)), e)
    slid = list(flat)
    for (ci, s), lab in writes.items():
        slid[4 * ci + s] = lab
    # the slide moves strands past each other without relabeling them or
    # changing which slot each over-strand enters by
    return Diagram._trusted(tuple(slid), d.over_in, d.free_loops,
                            d.components, d.comp_of, d.pos, d._small)


def _r1plus_template(e, loop_lab, n1, sign: int, flavor: str):
    """Curl crossing plus its over-in slot; strand order e -> loop -> n1."""
    if flavor == "u":
        if sign < 0:
            return (e, loop_lab, loop_lab, n1), 1
        return (e, n1, loop_lab, loop_lab), 3
    if sign < 0:
        return (loop_lab, e, n1, loop_lab), 1
    return (loop_lab, loop_lab, n1, e), 3


def _apply_r1plus(d: Diagram, ev: MoveEvent):
    base = max(d.flat, default=0)
    if ev.loop:
        if d.free_loops < 1:
            raise MoveError("no crossingless circle to curl")
        x, loop_lab = base + 1, base + 2
        cr, oi = _r1plus_template(x, loop_lab, x, ev.sign, ev.flavor)
        return _rebuilt(d.flat + cr, d.over_in + (oi,),
                        [*d.components, (x, loop_lab)], d.free_loops - 1,
                        {})[0]
    e = ev.edge
    if e not in d.comp_of:
        raise MoveError(f"no edge {e} to curl")
    loop_lab, n1 = base + 1, base + 2
    flat, pieces = _grown(d, {e: (loop_lab, n1)})
    cr, oi = _r1plus_template(e, loop_lab, n1, ev.sign, ev.flavor)
    return _rebuilt(flat + list(cr), d.over_in + (oi,), pieces,
                    d.free_loops, {})[0]


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


def _apply_r2plus(d: Diagram, ev: MoveEvent, fs):
    x, y = ev.edge, ev.edge2
    if x == y:
        raise MoveError("the two edges of a finger push must differ")
    for e in (x, y):
        if e not in d.comp_of:
            raise MoveError(f"no edge {e}")
    for face in fs:
        labs = face_edges(d, face)
        if x in labs and y in labs:
            dart_x, dart_y = face[labs.index(x)], face[labs.index(y)]
            break
    else:
        raise MoveError(f"edges {x} and {y} do not border a common face")

    def walked_with(dart: Dart) -> bool:
        ci, s = dart
        return s == 2 or s == 4 - d.over_in[ci]

    base = max(d.flat)
    x2, x3, y2, y3 = base + 1, base + 2, base + 3, base + 4
    flat, pieces = _grown(d, {x: (x2, x3), y: (y2, y3)})
    new, ois = zip(*_r2plus_crossings(
        x, x2, x3, y, y2, y3, walked_with(dart_x), walked_with(dart_y)))
    return _rebuilt(flat + list(chain.from_iterable(new)), d.over_in + ois,
                    pieces, d.free_loops, {})[0]


def apply_move(d: Diagram, ev: MoveEvent | str) -> Diagram:
    if isinstance(ev, str):
        ev = parse_event(ev)
    problem = _shape_error(ev)
    if problem is not None:
        raise MoveError(problem)
    return _apply_move(d, ev, None)


def _apply_move(d: Diagram, ev: MoveEvent, fs) -> Diagram:
    """`apply_move` for a well-formed event (see `_shape_error`); `fs`
    is `faces(d)`, or None to compute it only if the move needs it."""
    if ev.kind in ("R2-", "R3", "R2+") and fs is None:
        fs = faces(d)
    if ev.kind == "CC":
        if not 0 <= ev.crossing < d.n_crossings:
            raise MoveError(f"no crossing {ev.crossing}")
        return d.crossing_change(ev.crossing)
    if ev.kind == "RLT":
        if not 1 <= ev.comp <= d.free_loops:
            raise MoveError(f"no crossingless circle number {ev.comp}")
        return d
    if ev.kind == "R1-":
        ci = ev.crossing
        if not 0 <= ci < d.n_crossings or not _curl_at(
                d.flat[4 * ci:4 * ci + 4]):
            raise MoveError(f"crossing {ci} is not a curl")
        return _remove_crossings(d, {ci})[0]
    if ev.kind == "R2-":
        if not 0 <= ev.face < len(fs):
            raise MoveError(f"no face {ev.face}")
        face = fs[ev.face]
        if not _bigon_ok(face, face_edges(d, face), _over_counts(d)):
            raise MoveError(f"face {ev.face} is not a removable clasp")
        return _remove_crossings(d, {c for c, _ in face})[0]
    if ev.kind == "R3":
        if not 0 <= ev.face < len(fs):
            raise MoveError(f"no face {ev.face}")
        return _apply_r3(d, fs[ev.face])
    if ev.kind == "R1+":
        return _apply_r1plus(d, ev)
    return _apply_r2plus(d, ev, fs)


# -- fuzzing -------------------------------------------------------------------


# the (sign, flavor) of the four curls an R1+ can add at one place
_CURL_KINDS = ((1, "o"), (1, "u"), (-1, "o"), (-1, "u"))


def _growth_candidates(d: Diagram, cap: int, fs):
    """Where R1+ and R2+ events keep `d` within `cap` crossings: the
    edges to curl, then None for a crossingless circle if there is one,
    and the (over, under) edge pairs to push; `fs` is `faces(d)`."""
    n = d.n_crossings
    curls: list[int | None] = []
    if n + 1 <= cap:
        curls = sorted(d.comp_of)
        if d.free_loops:
            curls.append(None)
    pushes: list[tuple[int, int]] = []
    if n + 2 <= cap and n:
        # ordered pairs of distinct edges of each face, first sighting kept
        pushes = list(dict.fromkeys(chain.from_iterable(
            permutations(dict.fromkeys(face_edges(d, face)), 2)
            for face in fs)))
    return curls, pushes


def _growth_event(curls, pushes, i: int) -> MoveEvent:
    """The i-th growth event: four curls at each place of `curls` in the
    order of `_CURL_KINDS`, then the pushes."""
    if i < 4 * len(curls):
        e = curls[i // 4]
        sign, flavor = _CURL_KINDS[i % 4]
        if e is None:
            return MoveEvent("R1+", loop=True, sign=sign, flavor=flavor)
        return MoveEvent("R1+", edge=e, sign=sign, flavor=flavor)
    x, y = pushes[i - 4 * len(curls)]
    return MoveEvent("R2+", edge=x, edge2=y)


def _growth_events(d: Diagram, cap: int, fs) -> list[MoveEvent]:
    """R1+ and R2+ events that keep `d` within `cap` crossings; `fs` is
    `faces(d)`."""
    curls, pushes = _growth_candidates(d, cap, fs)
    return [_growth_event(curls, pushes, i)
            for i in range(4 * len(curls) + len(pushes))]


def random_perturb(d: Diagram, seed: int, steps: int, cap: int = 14):
    """Apply `steps` random link-preserving moves; deterministic in seed.

    Growing moves are withheld once they would push the diagram past
    `cap` crossings.  A step with no applicable move is skipped.  Each
    step draws one index into the step's moves, the growth events after
    the others, and builds only the event it drew.
    Returns the final diagram and the applied events.
    """
    rng = random.Random(seed)
    events: list[MoveEvent] = []
    cur = d
    for _ in range(steps):
        fs = faces(cur)
        found = _find_moves(cur, fs)
        curls, pushes = _growth_candidates(cur, cap, fs)
        total = len(found) + 4 * len(curls) + len(pushes)
        if not total:
            continue
        i = rng.randrange(total)
        ev = (_event(*found[i]) if i < len(found)
              else _growth_event(curls, pushes, i - len(found)))
        cur = _apply_move(cur, ev, fs)
        events.append(ev)
    return cur, events


def replay_events(d: Diagram, events) -> Diagram:
    cur = d
    for ev in events:
        cur = apply_move(cur, ev)
    return cur


# -- untangling ----------------------------------------------------------------


def _reducing_event(d: Diagram) -> MoveEvent | None:
    for ev in find_moves(d):
        if ev.kind in ("R1-", "R2-"):
            return ev
    return None


def _bigon_fix(d: Diagram) -> MoveEvent | None:
    """A crossing switch that turns some bigon face into a removable clasp."""
    for face in faces(d):
        es = face_edges(d, face)
        if not _is_bigon(face, es):
            continue
        # switch the corner where the smaller edge runs under
        e = min(es)
        for c in sorted(c for c, _ in face):
            if e in d.flat[4 * c:4 * c + 4:2]:
                return MoveEvent("CC", crossing=c)
    return None


_SEARCH_LIMIT = 50_000


def _search_unlock(d: Diagram) -> list[MoveEvent]:
    """Breadth-first hunt for a state with a curl or bigon face, moving
    only through triangle slides and crossing switches."""
    from collections import deque

    start_key = d.canonical_encode()
    seen = {start_key}
    queue = deque([(d, [])])
    expanded = 0
    while queue:
        cur, path = queue.popleft()
        expanded += 1
        if expanded > _SEARCH_LIMIT:
            break
        fs = faces(cur)
        candidates = [_event(kind, at) for kind, at in _find_moves(cur, fs)
                      if kind == "R3"]
        candidates += [MoveEvent("CC", crossing=ci) for ci in range(cur.n_crossings)]
        for ev in candidates:
            nxt = _apply_move(cur, ev, fs)
            key = nxt.canonical_encode()
            if key in seen:
                continue
            seen.add(key)
            npath = path + [ev]
            if any(map(_curl_at, _quads(nxt.flat))) or any(
                    _is_bigon(f, face_edges(nxt, f)) for f in faces(nxt)):
                return npath
            queue.append((nxt, npath))
    raise MoveError(
        "could not steer the diagram to a reducible state within the search budget"
    )


def trivialize(d: Diagram) -> list[MoveEvent]:
    """Unknotting certificate: events (switches included) taking the
    diagram to a crossingless one, one circle per component."""
    events: list[MoveEvent] = []
    cur = d
    while cur.n_crossings:
        ev = _reducing_event(cur)
        if ev is None:
            ev = _bigon_fix(cur)
        if ev is None:
            path = _search_unlock(cur)
            for step in path:
                cur = apply_move(cur, step)
            events.extend(path)
            continue
        cur = apply_move(cur, ev)
        events.append(ev)
    for i in range(cur.free_loops):
        events.append(MoveEvent("RLT", comp=i + 1))
    return events
