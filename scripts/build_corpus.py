"""Generate src/skeinalg/data/links.csv and verify every row.

Knots through 7 crossings are built as plat closures of two-bridge twist
vectors and checked against their textbook Conway polynomials (frozen
below).  Links come from braid closures and two-bridge plats; they are
checked by component count, pairwise linking numbers, and determinant
(|Conway at z^2 = -4|).  Any mismatch aborts the build.

Run from the repository root:  python3 scripts/build_corpus.py
"""

from __future__ import annotations

import csv
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from skeinalg.algebra import make_algebra
from skeinalg.diagram import Diagram, braid_to_diagram, parse_diagram
from skeinalg.laurent import LaurentPoly, VarTable
from skeinalg.skein import evaluate

HP = make_algebra("homflypt")
GC = make_algebra("gen-conway")
Z_ONLY = VarTable(("z",), frozenset({"z"}))

# Conway polynomial coefficients [c0, c2, c4, ...] for prime knots
# through seven crossings (Conway/Alexander tables).
KNOT_CONWAY = {
    "3_1": [1, 1],
    "4_1": [1, -1],
    "5_1": [1, 3, 1],
    "5_2": [1, 2],
    "6_1": [1, -2],
    "6_2": [1, -1, -1],
    "6_3": [1, 1, 1],
    "7_1": [1, 6, 5, 1],
    "7_2": [1, 3],
    "7_3": [1, 5, 2],
    "7_4": [1, 4],
    "7_5": [1, 4, 2],
    "7_6": [1, 1, -1],
    "7_7": [1, -1, 1],
}

# twist vectors: continued fraction [a1, a2, ...] = a1 + 1/(a2 + ...)
KNOT_TWISTS = {
    "3_1": [3],
    "4_1": [2, 2],
    "5_1": [5],
    "5_2": [3, 2],
    "6_1": [4, 2],
    "6_2": [3, 1, 2],
    "6_3": [2, 1, 1, 2],
    "7_1": [7],
    "7_2": [5, 2],
    "7_3": [4, 3],
    "7_4": [3, 1, 3],
    "7_5": [3, 2, 2],
    "7_6": [2, 2, 1, 2],
    "7_7": [2, 1, 1, 1, 2],
}


# -- plat closures of two-bridge twist vectors --------------------------------

_CCW_PORTS = ("NW", "SW", "SE", "NE")
_DIAG = {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}


def plat(twists: list[int]) -> Diagram:
    """Plat closure of the alternating two-bridge form of the vector."""
    if any(a < 1 for a in twists):
        raise ValueError("twist counts must be positive")
    twists = list(twists)
    if len(twists) % 2 == 0:  # same fraction, odd length
        twists[-1] -= 1
        twists.append(1)
        if twists[-2] == 0:
            raise ValueError("vector not in normal form")

    arcs = 0

    def fresh():
        nonlocal arcs
        arcs += 1
        return arcs

    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        parent[find(x)] = find(y)

    t12, t34 = fresh(), fresh()
    cur = {1: t12, 2: t12, 3: t34, 4: t34}
    crossings = []  # list of dicts port -> arc, plus over diagonal
    for block, count in enumerate(twists):
        col = 2 if block % 2 == 0 else 1
        over = "NWSE" if block % 2 == 0 else "NESW"
        for _ in range(count):
            u, v = fresh(), fresh()
            crossings.append({
                "NW": cur[col], "NE": cur[col + 1],
                "SW": u, "SE": v, "over": over,
            })
            cur[col], cur[col + 1] = u, v
    union(cur[1], cur[2])
    union(cur[3], cur[4])

    occ: dict[int, list[tuple[int, str]]] = {}
    for ci, cr in enumerate(crossings):
        for port in _CCW_PORTS:
            occ.setdefault(find(cr[port]), []).append((ci, port))
    for root, places in occ.items():
        if len(places) != 2:
            raise AssertionError(f"arc {root} has {len(places)} ends")

    # orient components and assign increasing edge labels
    labels: dict[int, int] = {}
    entered: dict[tuple[int, str], bool] = {}
    nxt = 1
    for start in sorted(occ):
        if start in labels:
            continue
        arc = start
        head = occ[arc][1]  # walk toward the later-recorded end
        while arc not in labels:
            labels[arc] = nxt
            nxt += 1
            ci, port = head
            entered[(ci, port)] = True
            out_port = _DIAG[port]
            arc = find(crossings[ci][out_port])
            ends = occ[arc]
            head = ends[1] if ends[0] == (ci, out_port) else ends[0]

    rows = []
    for ci, cr in enumerate(crossings):
        under_ports = ("NE", "SW") if cr["over"] == "NWSE" else ("NW", "SE")
        a_port = next(p for p in under_ports if entered.get((ci, p)))
        k = _CCW_PORTS.index(a_port)
        ports = [_CCW_PORTS[(k + i) % 4] for i in range(4)]
        rows.append(tuple(labels[find(cr[p])] for p in ports))
    return Diagram(rows, 0)


# -- verification helpers ------------------------------------------------------


def conway_coeffs(d: Diagram) -> dict[int, int]:
    """z-coefficients of the Conway polynomial from the engine."""
    value = evaluate(d, HP)
    one = LaurentPoly.const(Z_ONLY, 1)
    nabla = value.substitute({"v": one}, into=Z_ONLY)
    # reading terms directly: exponent of z -> coefficient
    out = {}
    for term in nabla.json_terms():
        out[term["exps"].get("z", 0)] = term["coeff"]
    return out


def determinant(d: Diagram) -> int:
    """|Conway evaluated at z = 2i| via exact integer arithmetic."""
    re = im = 0
    for k, c in conway_coeffs(d).items():
        mag = c * (2 ** k) * (1 if (k // 2) % 2 == 0 else -1)
        if k % 2 == 0:
            re += mag
        else:
            im += mag
    if re and im:
        raise AssertionError("mixed parity Conway polynomial")
    return abs(re) if re else abs(im)


def linking_profile(d: Diagram) -> list[int]:
    """Sorted pairwise linking numbers of the diagram's components."""
    ncomp = len(d.components)
    totals: dict[tuple[int, int], int] = {}
    for (a, b, _, _), sign in zip(d.crossings, d.signs):
        i, j = d.comp_of[a], d.comp_of[b]
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        totals[key] = totals.get(key, 0) + sign
    out = []
    for i in range(ncomp):
        for j in range(i + 1, ncomp):
            t = totals.get((i, j), 0)
            if t % 2:
                raise AssertionError("odd mixed-sign sum")
            out.append(t // 2)
    return sorted(out)


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"corpus verification failed: {what}")


# -- corpus assembly ------------------------------------------------------------


def knot_rows():
    rows = []
    for name, twists in KNOT_TWISTS.items():
        d = plat(twists)
        got = conway_coeffs(d)
        want = {2 * i: c for i, c in enumerate(KNOT_CONWAY[name]) if c}
        check(got == want,
              f"{name}: Conway {got} != expected {want}")
        check(d.n_crossings == sum(twists), f"{name}: crossing count")
        check(d.component_count == 1, f"{name}: must be a knot")
        rows.append((name, d, f"plat closure of twist vector {twists}; "
                              f"Conway coefficients verified against the knot table"))
    return rows


def link_rows():
    rows = []

    def add(name, d, comment, det=None, lk=None, nontrivial=False):
        if det is not None:
            got = determinant(d)
            check(got == det, f"{name}: determinant {got} != {det}")
        if lk is not None:
            got_lk = linking_profile(d)
            check(got_lk == sorted(lk), f"{name}: linking {got_lk} != {sorted(lk)}")
        if nontrivial:
            check(evaluate(d, GC) != GC.unit(d.component_count),
                  f"{name}: evaluates like an unlink")
        rows.append((name, d, comment))

    add("hopf+", braid_to_diagram(2, [1, 1]),
        "closure of braid(2; 1 1); linking number +1", det=2, lk=[1])
    add("hopf-", braid_to_diagram(2, [-1, -1]),
        "closure of braid(2; -1 -1); linking number -1", det=2, lk=[-1])
    add("torus_2_4", braid_to_diagram(2, [1, 1, 1, 1]),
        "closure of braid(2; 1 1 1 1); linking number +2", det=4, lk=[2])
    add("torus_2_6", braid_to_diagram(2, [1] * 6),
        "closure of braid(2; 1x6); linking number +3", det=6, lk=[3])
    add("torus_3_3", braid_to_diagram(3, [1, 2] * 3),
        "closure of braid(3; (1 2)x3); all pairwise linking +1", lk=[1, 1, 1])
    add("chain3", braid_to_diagram(3, [1, 1, 2, 2]),
        "closure of braid(3; 1 1 2 2); open three-ring chain", lk=[0, 1, 1])
    add("borromean", braid_to_diagram(3, [1, -2] * 3),
        "closure of braid(3; (1 -2)x3); all pairwise linking 0 yet inseparable",
        det=16, lk=[0, 0, 0], nontrivial=True)
    add("braid4_3comp", braid_to_diagram(4, [1, 1, 2, 2, 3, 3, 2]),
        "closure of braid(4; 1 1 2 2 3 3 2)")
    add("whitehead", plat([2, 1, 2]),
        "plat closure of twist vector [2, 1, 2]; linking number 0",
        det=8, lk=[0], nontrivial=True)
    add("rational_10_3", plat([3, 3]),
        "plat closure of twist vector [3, 3]", det=10)
    add("rational_12_5", plat([2, 2, 2]),
        "plat closure of twist vector [2, 2, 2]", det=12)
    add("rational_14_5", plat([2, 1, 4]),
        "plat closure of twist vector [2, 1, 4]", det=14)
    add("rational_16_7", plat([2, 3, 2]),
        "plat closure of twist vector [2, 3, 2]", det=16)
    for name, d, _ in rows:
        check(d.component_count >= 2, f"{name}: expected a link")
    return rows


def main() -> None:
    rows = []

    def add(name, d, comment):
        rows.append({
            "name": name,
            "crossings": d.n_crossings,
            "components": d.component_count,
            "writhe": d.writhe,
            "pd": d.pd_text(),
            "comment": comment,
        })

    add("unknot", parse_diagram("PD[]+O^1"), "one crossingless circle")
    add("unlink2", parse_diagram("PD[]+O^2"), "two split circles")
    add("unlink3", parse_diagram("PD[]+O^3"), "three split circles")
    tp = braid_to_diagram(2, [1, 1, 1])
    check(conway_coeffs(tp) == {0: 1, 2: 1}, "trefoil+ Conway")
    add("trefoil+", tp, "closure of braid(2; 1 1 1); writhe +3")
    tm = braid_to_diagram(2, [-1, -1, -1])
    check(conway_coeffs(tm) == {0: 1, 2: 1}, "trefoil- Conway")
    add("trefoil-", tm, "closure of braid(2; -1 -1 -1); writhe -3")
    f8 = braid_to_diagram(3, [1, -2, 1, -2])
    check(conway_coeffs(f8) == {0: 1, 2: -1}, "fig8 Conway")
    add("fig8", f8, "closure of braid(3; 1 -2 1 -2); amphichiral")

    for name, d, comment in knot_rows():
        add(name, d, comment)
    for name, d, comment in link_rows():
        add(name, d, comment)

    for row in rows:
        check(row["crossings"] <= 7, f"{row['name']}: too many crossings")

    out_path = os.path.join(os.path.dirname(__file__), "..",
                            "src", "skeinalg", "data", "links.csv")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["name", "crossings", "components", "writhe",
                            "pd", "comment"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out_path}")

    # round-trip through the loader
    from skeinalg.catalog import load_catalog
    entries = load_catalog(out_path)
    check(len(entries) == len(rows), "loader round trip")
    print("loader re-validation passed")


if __name__ == "__main__":
    main()
