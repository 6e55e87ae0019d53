"""Checks of engine output that share no code with the engine.

Every value is specialised to the Conway polynomial and compared, up to
a unit +-t^k, with the one-variable Alexander polynomial of the input,
computed here from a Wirtinger presentation.  The presentation is read
from the crossing tuples of a PD code, or from the letters of a braid
word; strand directions come from the edge labels (each component's
labels increase along its orientation and wrap from largest to
smallest), never from the engine's signs or strand fields.

In `gen-conway` the raw terms must also keep the q.r balance of the
recursion: every term p^a q^b r^c of an n-component value has
c = b + n - 1.

Values arrive as term lists `[(coeff, {name: exp}), ...]`, parsed from
the rendered text a user sees (`parse_rendered`), from a cache record's
`terms` (`record_terms`) or from a polynomial's raw term map
(`poly_terms`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb

# Conway specialisation per algebra: variables sent to 1, to z and to 0.
# Any variable not named here makes the check fail.
SPECIALISE = {
    "homflypt": ({"v"}, {"z"}, set()),
    "gen-conway": ({"p"}, {"q", "r"}, set()),
    "nonlinear": ({"p"}, {"q", "r"}, set()),
    "gen-homflypt": ({"v"}, {"w", "z"}, set()),
    "classic3": ({"p"}, {"q"}, {"z"}),
}

_PRIME = (1 << 61) - 1


class CheckFailure(AssertionError):
    pass


# -- values ------------------------------------------------------------------

_FACTOR = re.compile(r"([a-z]+)(?:\^(-?\d+))?$")


def parse_rendered(text: str) -> list[tuple[int, dict[str, int]]]:
    """Terms of a rendered value such as `2*p - 1*p^2 + 1*q*r`."""
    text = text.strip()
    if text.startswith("root("):
        # nonlinear k > 1 renders `root(k, value)`; the stored value is
        # gen-conway's
        text = text[text.index(",") + 1:-1].strip()
    if text == "0":
        return []
    terms = []
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    for i, chunk in enumerate(re.split(r" ([+-]) ", text)):
        if i % 2:
            sign = 1 if chunk == "+" else -1
            continue
        head, *factors = chunk.split("*")
        exps: dict[str, int] = {}
        for f in factors:
            m = _FACTOR.match(f)
            if m is None:
                raise CheckFailure(f"cannot read factor {f!r} in {text!r}")
            exps[m.group(1)] = exps.get(m.group(1), 0) + int(m.group(2) or 1)
        terms.append((sign * int(head), exps))
    return terms


def record_terms(terms: list[dict]) -> list[tuple[int, dict[str, int]]]:
    """Terms of a result record's `terms` field."""
    return [(int(t["coeff"]), dict(t["exps"])) for t in terms]


def poly_terms(names, term_map) -> list[tuple[int, dict[str, int]]]:
    """Terms of a raw exponent-tuple -> coefficient map."""
    return [(c, {n: e for n, e in zip(names, exps) if e})
            for exps, c in term_map.items()]


def conway_of(family: str, terms) -> dict[int, int]:
    """z-power -> coefficient after the family's Conway specialisation."""
    ones, zs, zeros = SPECIALISE[family]
    out: dict[int, int] = {}
    for coeff, exps in terms:
        power = 0
        vanish = False
        for name, e in exps.items():
            if name in ones:
                continue
            if name in zs:
                power += e
            elif name in zeros:
                if e < 0:
                    raise CheckFailure(f"{name}^{e} cannot be sent to 0")
                vanish = vanish or e > 0
            else:
                raise CheckFailure(f"variable {name!r} is not in {family}")
        if not vanish:
            out[power] = out.get(power, 0) + coeff
    return {k: c for k, c in out.items() if c}


def _in_s(conway: dict[int, int]) -> dict[int, int]:
    """The Conway polynomial at z = s - 1/s, as s-power -> coefficient."""
    out: dict[int, int] = {}
    for m, c in conway.items():
        if m < 0:
            raise CheckFailure(f"Conway polynomial has z^{m}")
        for k in range(m + 1):
            e = m - 2 * k
            out[e] = out.get(e, 0) + c * comb(m, k) * (-1) ** k
    return {e: c for e, c in out.items() if c}


def _normal(poly: dict[int, int]) -> tuple[int, ...]:
    """Coefficient list up to a unit +-s^k."""
    if not poly:
        return ()
    lo, hi = min(poly), max(poly)
    coeffs = [poly.get(e, 0) for e in range(lo, hi + 1)]
    if coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    return tuple(coeffs)


def qr_balance_errors(terms, components: int) -> list[str]:
    """Terms of a gen-conway value that break c = b + n - 1."""
    bad = []
    for coeff, exps in terms:
        b, c = exps.get("q", 0), exps.get("r", 0)
        if c != b + components - 1:
            bad.append(f"{coeff}*p^{exps.get('p', 0)}*q^{b}*r^{c}")
    return bad


# -- inputs ------------------------------------------------------------------


@dataclass
class Presentation:
    """A Wirtinger presentation: arcs and one relation per crossing.

    A relation (k, i, j, eps) says that the under-strand arriving on arc
    i leaves on arc j after passing under arc k, with j = k^eps i k^-eps.
    `loops` counts free circles, which meet no crossing.
    """

    arcs: int
    relations: list[tuple[int, int, int, int]]
    components: int
    loops: int


def _classes(pairs, labels):
    parent = {x: x for x in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    roots: dict[int, int] = {}
    return {x: roots.setdefault(find(x), len(roots)) for x in labels}, roots


_PD = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]")
_LOOPS = re.compile(r"\+O\^(\d+)\s*$")


def pd_presentation(text: str) -> Presentation:
    """Presentation of `PD[X[a,b,c,d],...]+O^k` from its labels alone.

    X[a,b,c,d] lists the edges counterclockwise from the incoming
    under-strand a, which leaves as c.  The over-strand runs d -> b (a
    right-handed crossing) when b follows d in its component's label
    order, and b -> d when d follows b.  On a two-edge component both
    hold; its direction is fixed by the transition its under-passes do
    not use.
    """
    crossings = [tuple(map(int, m)) for m in _PD.findall(text)]
    m = _LOOPS.search(text)
    loops = int(m.group(1)) if m else 0
    labels = sorted({x for cr in crossings for x in cr})
    comp, roots = _classes(
        [p for a, b, c, d in crossings for p in ((a, c), (b, d))], labels)
    members: dict[int, list[int]] = {}
    for x in labels:
        members.setdefault(comp[x], []).append(x)
    succ = {}
    for group in members.values():
        for i, x in enumerate(group):
            succ[x] = group[(i + 1) % len(group)]
    under_moves = {(a, c) for a, _, c, _ in crossings}
    arc, _ = _classes([(b, d) for _, b, _, d in crossings], labels)
    relations = []
    for a, b, c, d in crossings:
        forward = succ[b] == d and (b, d) not in under_moves
        backward = succ[d] == b and (d, b) not in under_moves
        if not (forward or backward):
            raise CheckFailure(f"over-strand {b}/{d} fits no label order")
        eps = -1 if forward and not backward else 1
        relations.append((arc[b], arc[a], arc[c], eps))
    return Presentation(len(set(arc.values())), relations,
                        len(roots) + loops, loops)


def braid_presentation(strands: int, letters) -> Presentation:
    """Presentation of a braid closure, read from its letters.

    Artin's action: the letter i (> 0) takes the strand at position i+1
    under the strand at position i, to position i; the letter -i takes
    the strand at position i under the one at position i+1.  Closing the
    braid identifies each bottom arc with the top arc of its position.
    """
    pos = list(range(strands))
    fresh = strands
    raw = []
    for letter in letters:
        i = abs(letter) - 1
        left, right = pos[i], pos[i + 1]
        new = fresh
        fresh += 1
        if letter > 0:
            raw.append((left, right, new, 1))
            pos[i], pos[i + 1] = new, left
        else:
            raw.append((right, left, new, -1))
            pos[i], pos[i + 1] = right, new
    arc, _ = _classes(list(zip(pos, range(strands))), list(range(fresh)))
    relations = [(arc[k], arc[i], arc[j], eps) for k, i, j, eps in raw]
    return Presentation(len(set(arc.values())), relations,
                        braid_components(strands, letters), 0)


def braid_components(strands: int, letters) -> int:
    """Components of a braid closure: cycles of the braid's permutation."""
    perm = list(range(strands))
    for letter in letters:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    _, cycles = _classes(list(enumerate(perm)), list(range(strands)))
    return len(cycles)


_BRAID = re.compile(r"braid\(\s*(\d+)\s*;([-\d\s]*)\)$")


def presentation(text: str) -> Presentation:
    """Presentation of an input as the CLI accepts it: PD or braid word."""
    m = _BRAID.match(text.strip())
    if m:
        return braid_presentation(int(m.group(1)),
                                  [int(x) for x in m.group(2).split()])
    return pd_presentation(text)


# -- the Alexander polynomial ------------------------------------------------


def _det_mod(rows: list[list[int]]) -> int:
    n = len(rows)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pv = rows[col][col]
        det = det * pv % _PRIME
        inv = pow(pv, _PRIME - 2, _PRIME)
        for r in range(col + 1, n):
            f = rows[r][col] * inv % _PRIME
            if f:
                rr, rc = rows[r], rows[col]
                for k in range(col, n):
                    rr[k] = (rr[k] - f * rc[k]) % _PRIME
    return det % _PRIME


def _interpolate(xs: list[int], ys: list[int]) -> list[int]:
    """Coefficients (mod p, low degree first) through the given points."""
    n = len(xs)
    coeffs = [0] * n
    for i in range(n):
        basis = [1]
        denom = 1
        for j in range(n):
            if j == i:
                continue
            basis = [(a - xs[j] * b) % _PRIME
                     for a, b in zip([0] + basis, basis + [0])]
            denom = denom * (xs[i] - xs[j]) % _PRIME
        scale = ys[i] * pow(denom, _PRIME - 2, _PRIME) % _PRIME
        for k in range(n):
            coeffs[k] = (coeffs[k] + scale * basis[k]) % _PRIME
    return [c - _PRIME if c > _PRIME // 2 else c for c in coeffs]


def alexander(pres: Presentation) -> dict[int, int]:
    """Alexander polynomial as t-power -> coefficient, up to +-t^k.

    The Fox matrix of the presentation has, for j = k i k^-1, the
    entries 1 - t at k, t at i and -1 at j, and for j = k^-1 i k (times
    t) the entries t - 1 at k, 1 at i and -t at j.  Deleting one row and
    one column leaves a matrix whose determinant is the polynomial; it is
    evaluated modulo a 61-bit prime at n points and interpolated.  A
    split link has polynomial 0.
    """
    n = len(pres.relations)
    if pres.components == 1 and n == 0:
        return {0: 1}
    if pres.loops or pres.arcs > n:
        # a free circle beside other strands, or a component that never
        # passes under anything, lifts off: the link is split
        return {}
    if n == 1:
        return {0: 1}
    xs = list(range(2, n + 2))
    ys = []
    for t in xs:
        rows = [[0] * pres.arcs for _ in range(n)]
        for r, (k, i, j, eps) in enumerate(pres.relations):
            row = rows[r]
            if eps > 0:
                row[k] += 1 - t
                row[i] += t
                row[j] -= 1
            else:
                row[k] += t - 1
                row[i] += 1
                row[j] -= t
        ys.append(_det_mod([[x % _PRIME for x in row[1:]]
                            for row in rows[:-1]]))
    return {e: c for e, c in enumerate(_interpolate(xs, ys)) if c}


# -- the checks --------------------------------------------------------------


def check_value(family: str, terms, pres: Presentation) -> None:
    """Raise CheckFailure unless the value passes every independent check."""
    conway = _normal(_in_s(conway_of(family, terms)))
    alex = _normal({2 * e: c for e, c in alexander(pres).items()})
    if conway != alex:
        raise CheckFailure(
            f"Conway specialisation {conway} != Alexander polynomial {alex}")
    if family == "gen-conway":
        bad = qr_balance_errors(terms, pres.components)
        if bad:
            raise CheckFailure(
                f"{len(bad)} terms break the q.r balance for "
                f"{pres.components} components, first {bad[0]}")
