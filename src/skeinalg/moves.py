"""Reidemeister-type rewriting: detection, application, fuzzing, untangling.

Faces come from the combinatorial map of the diagram: darts are
(crossing, slot) pairs, the involution swaps the two occurrences of an
edge label, and face orbits follow "arrive along an edge, leave along
the next slot counterclockwise".  A dart therefore walks its edge away
from its crossing with the face on the walker's right.

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
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .diagram import Diagram, DiagramError, _assemble


class MoveError(ValueError):
    pass


Dart = tuple[int, int]


# -- faces -------------------------------------------------------------------


def faces(d: Diagram) -> tuple[tuple[Dart, ...], ...]:
    """Face orbits in canonical order (each rotated to start at its
    smallest dart, then sorted)."""
    occ: dict[int, list[Dart]] = {}
    for ci, cr in enumerate(d.crossings):
        for s, lab in enumerate(cr):
            occ.setdefault(lab, []).append((ci, s))
    alpha: dict[Dart, Dart] = {}
    for pair in occ.values():
        alpha[pair[0]] = pair[1]
        alpha[pair[1]] = pair[0]

    def phi(dart: Dart) -> Dart:
        c, s = alpha[dart]
        return (c, (s + 1) % 4)

    out = []
    seen: set[Dart] = set()
    for ci in range(len(d.crossings)):
        for s in range(4):
            dart = (ci, s)
            if dart in seen:
                continue
            orbit = []
            x = dart
            while x not in seen:
                seen.add(x)
                orbit.append(x)
                x = phi(x)
            k = orbit.index(min(orbit))
            out.append(tuple(orbit[k:] + orbit[:k]))
    out.sort()
    return tuple(out)


def face_edges(d: Diagram, face: tuple[Dart, ...]) -> tuple[int, ...]:
    return tuple(d.crossings[c][s] for c, s in face)


def _edge_slots(d: Diagram) -> dict[int, list[Dart]]:
    occ: dict[int, list[Dart]] = {}
    for ci, cr in enumerate(d.crossings):
        for s, lab in enumerate(cr):
            occ.setdefault(lab, []).append((ci, s))
    return occ


def _over_both(d: Diagram, occ, lab: int) -> bool:
    return all(s % 2 == 1 for _, s in occ[lab])


def euler_ok(d: Diagram) -> bool:
    """Genus-zero check: V - E + F == 2 per connected crossing piece."""
    if not d.crossings:
        return True
    parent = list(range(len(d.crossings)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    head: dict[int, int] = {}
    for ci, cr in enumerate(d.crossings):
        for lab in cr:
            if lab in head:
                parent[find(head[lab])] = find(ci)
            else:
                head[lab] = ci
    pieces = len({find(ci) for ci in range(len(d.crossings))})
    V = len(d.crossings)
    E = 2 * V
    F = len(faces(d))
    return V - E + F == 2 * pieces


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
        if k == "R1-":
            return f"R1-@c{self.crossing}"
        if k == "R2-":
            return f"R2-@f{self.face}"
        if k == "R3":
            return f"R3@f{self.face}"
        if k == "R1+":
            s = "+" if self.sign > 0 else "-"
            at = "O" if self.loop else f"e{self.edge}"
            return f"R1+@{at}/{s}{self.flavor}"
        if k == "R2+":
            return f"R2+@e{self.edge}/e{self.edge2}"
        if k == "CC":
            return f"CC@c{self.crossing}"
        if k == "RLT":
            return f"RLT@comp{self.comp}"
        raise MoveError(f"unknown event kind {k!r}")


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
    text = text.strip()
    for rx, build in _EVENT_RES:
        m = rx.match(text)
        if m:
            return build(m)
    raise MoveError(f"cannot parse move event {text!r}")


# -- detection ----------------------------------------------------------------


def _curl_at(cr) -> bool:
    return any(cr[i] == cr[(i + 1) % 4] for i in range(4))


def _bigon_ok(d: Diagram, occ, face) -> bool:
    (c1, _), (c2, _) = face
    if c1 == c2:
        return False
    e1, e2 = face_edges(d, face)
    if e1 == e2:
        return False
    return _over_both(d, occ, e1) or _over_both(d, occ, e2)


def _trigon_flags(d: Diagram, occ, face):
    """Per face edge: is its strand over at both corner crossings."""
    cs = {c for c, _ in face}
    es = face_edges(d, face)
    if len(cs) != 3 or len(set(es)) != 3:
        return None
    flags = []
    for e in es:
        overs = [s % 2 == 1 for _, s in occ[e]]
        flags.append((overs[0], overs[1]))
    return flags


def _trigon_orderable(flags) -> bool:
    kinds = sorted(
        ("TT" if a and b else "FF" if not (a or b) else "TF") for a, b in flags
    )
    return kinds == ["FF", "TF", "TT"]


def find_moves(d: Diagram) -> list[MoveEvent]:
    """Applicable R1-, R2-, R3 and RLT events, deterministically ordered."""
    return _find_moves(d, faces(d))


def _find_moves(d: Diagram, fs) -> list[MoveEvent]:
    """`find_moves` over the already computed `faces(d)`."""
    out: list[MoveEvent] = []
    for ci, cr in enumerate(d.crossings):
        if _curl_at(cr):
            out.append(MoveEvent("R1-", crossing=ci))
    occ = _edge_slots(d)
    seen_pairs: set[frozenset] = set()
    for fi, face in enumerate(fs):
        if len(face) != 2 or not _bigon_ok(d, occ, face):
            continue
        pair = frozenset(c for c, _ in face)
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        out.append(MoveEvent("R2-", face=fi))
    for fi, face in enumerate(fs):
        if len(face) != 3:
            continue
        flags = _trigon_flags(d, occ, face)
        if flags is not None and _trigon_orderable(flags):
            out.append(MoveEvent("R3", face=fi))
    for i in range(d.free_loops):
        out.append(MoveEvent("RLT", comp=i + 1))
    return out


# -- application --------------------------------------------------------------


def _remove_crossings(d: Diagram, which: set[int]):
    glues = []
    for ci in which:
        a, b, c, dd = d.crossings[ci]
        oi = d.over_in[ci]
        over_in_edge = b if oi == 1 else dd
        over_out_edge = dd if oi == 1 else b
        glues.append((a, c))
        glues.append((over_in_edge, over_out_edge))
    rest = [(cr, d.over_in[j]) for j, cr in enumerate(d.crossings) if j not in which]
    return _assemble(rest, glues, d.free_loops)


def _heads_tails(d: Diagram):
    """edge -> (crossing, slot) where it ends / where it starts."""
    heads: dict[int, Dart] = {}
    tails: dict[int, Dart] = {}
    for ci, cr in enumerate(d.crossings):
        oi = d.over_in[ci]
        oo = 4 - oi
        heads[cr[0]] = (ci, 0)
        heads[cr[oi]] = (ci, oi)
        tails[cr[2]] = (ci, 2)
        tails[cr[oo]] = (ci, oo)
    return heads, tails


def _partner_in_slot(oi: int, out_slot: int) -> int:
    return 0 if out_slot == 2 else oi


def _partner_out_slot(oi: int, in_slot: int) -> int:
    return 2 if in_slot == 0 else 4 - oi


def _apply_r3(d: Diagram, face) -> Diagram:
    occ = _edge_slots(d)
    flags = _trigon_flags(d, occ, face)
    if flags is None or not _trigon_orderable(flags):
        raise MoveError("face is not a slideable triangle")
    heads, tails = _heads_tails(d)
    writes: dict[Dart, int] = {}

    def put(dart: Dart, lab: int) -> None:
        if dart in writes:
            raise MoveError("triangle rewrite touched one slot twice")
        writes[dart] = lab

    for e in set(face_edges(d, face)):
        s1, s2 = d.pred(e), d.succ[e]
        fc, f_slot = tails[e]
        gc, g_slot = heads[e]
        put((fc, _partner_in_slot(d.over_in[fc], f_slot)), e)
        put((fc, f_slot), s2)
        put((gc, g_slot), s1)
        put((gc, _partner_out_slot(d.over_in[gc], g_slot)), e)
    crs = [list(cr) for cr in d.crossings]
    for (ci, s), lab in writes.items():
        crs[ci][s] = lab
    # the slide moves strands past each other without relabeling them or
    # changing which slot each over-strand enters by
    return Diagram._trusted(tuple(tuple(cr) for cr in crs), d.free_loops,
                            d.components, d.succ, d.comp_of, d.over_in)


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
    base = max((lab for cr in d.crossings for lab in cr), default=0)
    slotted = [(cr, d.over_in[j]) for j, cr in enumerate(d.crossings)]
    if ev.loop:
        if d.free_loops < 1:
            raise MoveError("no crossingless circle to curl")
        x, loop_lab = base + 1, base + 2
        cr, oi = _r1plus_template(x, loop_lab, x, ev.sign, ev.flavor)
        slotted.append((cr, oi))
        return _assemble(slotted, [], d.free_loops - 1)[0]
    e = ev.edge
    if e not in d.comp_of:
        raise MoveError(f"no edge {e} to curl")
    loop_lab, n1 = base + 1, base + 2
    heads, _ = _heads_tails(d)
    hc, hs = heads[e]
    slotted[hc] = (
        tuple(n1 if s == hs else lab for s, lab in enumerate(slotted[hc][0])),
        slotted[hc][1],
    )
    cr, oi = _r1plus_template(e, loop_lab, n1, ev.sign, ev.flavor)
    slotted.append((cr, oi))
    return _assemble(slotted, [], d.free_loops)[0]


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


def _apply_r2plus(d: Diagram, ev: MoveEvent):
    x, y = ev.edge, ev.edge2
    if x == y:
        raise MoveError("the two edges of a finger push must differ")
    for e in (x, y):
        if e not in d.comp_of:
            raise MoveError(f"no edge {e}")
    fs = faces(d)
    dart_x = dart_y = None
    for face in fs:
        dx = next((dd for dd in face if d.crossings[dd[0]][dd[1]] == x), None)
        dy = next((dd for dd in face if d.crossings[dd[0]][dd[1]] == y), None)
        if dx is not None and dy is not None:
            dart_x, dart_y = dx, dy
            break
    if dart_x is None:
        raise MoveError(f"edges {x} and {y} do not border a common face")

    def walked_with(dart: Dart) -> bool:
        ci, s = dart
        return s == 2 or s == 4 - d.over_in[ci]

    base = max(lab for cr in d.crossings for lab in cr)
    x2, x3, y2, y3 = base + 1, base + 2, base + 3, base + 4
    heads, _ = _heads_tails(d)
    slotted = [[list(cr), d.over_in[j]] for j, cr in enumerate(d.crossings)]
    hcx, hsx = heads[x]
    slotted[hcx][0][hsx] = x3
    hcy, hsy = heads[y]
    slotted[hcy][0][hsy] = y3
    new = _r2plus_crossings(x, x2, x3, y, y2, y3,
                            walked_with(dart_x), walked_with(dart_y))
    out = [(tuple(cr), oi) for cr, oi in slotted] + new
    return _assemble(out, [], d.free_loops)[0]


def apply_move(d: Diagram, ev: MoveEvent | str) -> Diagram:
    if isinstance(ev, str):
        ev = parse_event(ev)
    if ev.kind == "CC":
        if not 0 <= (ev.crossing or 0) < d.n_crossings:
            raise MoveError(f"no crossing {ev.crossing}")
        return d.crossing_change(ev.crossing)
    if ev.kind == "RLT":
        if not 1 <= (ev.comp or 0) <= d.free_loops:
            raise MoveError(f"no crossingless circle number {ev.comp}")
        return d
    if ev.kind == "R1-":
        ci = ev.crossing
        if not 0 <= ci < d.n_crossings or not _curl_at(d.crossings[ci]):
            raise MoveError(f"crossing {ci} is not a curl")
        return _remove_crossings(d, {ci})[0]
    if ev.kind == "R2-":
        fs = faces(d)
        if not 0 <= ev.face < len(fs):
            raise MoveError(f"no face {ev.face}")
        face = fs[ev.face]
        if len(face) != 2 or not _bigon_ok(d, _edge_slots(d), face):
            raise MoveError(f"face {ev.face} is not a removable clasp")
        return _remove_crossings(d, {c for c, _ in face})[0]
    if ev.kind == "R3":
        fs = faces(d)
        if not 0 <= ev.face < len(fs):
            raise MoveError(f"no face {ev.face}")
        return _apply_r3(d, fs[ev.face])
    if ev.kind == "R1+":
        return _apply_r1plus(d, ev)
    if ev.kind == "R2+":
        return _apply_r2plus(d, ev)
    raise MoveError(f"unknown event kind {ev.kind!r}")


# -- fuzzing -------------------------------------------------------------------


def _growth_events(d: Diagram, cap: int, fs) -> list[MoveEvent]:
    """R1+ and R2+ events that keep `d` within `cap` crossings; `fs` is
    `faces(d)`."""
    out: list[MoveEvent] = []
    n = d.n_crossings
    if n + 1 <= cap:
        for e in sorted(d.comp_of):
            for sign in (1, -1):
                for flavor in ("o", "u"):
                    out.append(MoveEvent("R1+", edge=e, sign=sign, flavor=flavor))
        if d.free_loops:
            for sign in (1, -1):
                for flavor in ("o", "u"):
                    out.append(MoveEvent("R1+", loop=True, sign=sign, flavor=flavor))
    if n + 2 <= cap and n:
        seen: set[tuple[int, int]] = set()
        for face in fs:
            es = []
            for lab in face_edges(d, face):
                if lab not in es:
                    es.append(lab)
            for x in es:
                for y in es:
                    if x != y and (x, y) not in seen:
                        seen.add((x, y))
                        out.append(MoveEvent("R2+", edge=x, edge2=y))
    return out


def random_perturb(d: Diagram, seed: int, steps: int, cap: int = 14):
    """Apply `steps` random link-preserving moves; deterministic in seed.

    Growing moves are withheld once they would push the diagram past
    `cap` crossings.  A step with no applicable move is skipped.
    Returns the final diagram and the applied events.
    """
    rng = random.Random(seed)
    events: list[MoveEvent] = []
    cur = d
    for _ in range(steps):
        fs = faces(cur)
        pool = _find_moves(cur, fs) + _growth_events(cur, cap, fs)
        if not pool:
            continue
        ev = rng.choice(pool)
        cur = apply_move(cur, ev)
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
    occ = _edge_slots(d)
    for face in faces(d):
        if len(face) != 2:
            continue
        (c1, _), (c2, _) = face
        e1, e2 = face_edges(d, face)
        if c1 == c2 or e1 == e2:
            continue
        # switch the corner where the smaller edge runs under
        m = min(e1, e2)
        for c, s in occ[m]:
            if c in (c1, c2) and s % 2 == 0:
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
        candidates = [ev for ev in find_moves(cur) if ev.kind == "R3"]
        candidates += [MoveEvent("CC", crossing=ci) for ci in range(cur.n_crossings)]
        for ev in candidates:
            nxt = apply_move(cur, ev)
            key = nxt.canonical_encode()
            if key in seen:
                continue
            seen.add(key)
            npath = path + [ev]
            if any(_curl_at(cr) for cr in nxt.crossings) or any(
                len(f) == 2 and len({c for c, _ in f}) == 2
                and len(set(face_edges(nxt, f))) == 2
                for f in faces(nxt)
            ):
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
