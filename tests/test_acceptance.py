"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS or FAIL line (visible under `pytest -s`)
and enforces its own wall-clock budget.

Criterion 9 checks how the mixed pair reaches a value in gen-conway.  A
knot does meet the mixed-pair constant r: smoothing one of its self
crossings gives a two-component child whose mixed crossings take the
starred pair, so trefoil+ = 2p - p^2 + qr.  What the recursion does
guarantee is a balance between q and r.  Every alpha is p or p^-1,
every self beta carries exactly one q, every mixed beta exactly one r,
and the unit a(m) = ((1-p)/q)^(m-1).  A self smoothing splits a
component and a mixed smoothing merges two, so along every root-to-leaf
path #self - #mixed = m - n for an n-component diagram ending in an
m-component leaf.  Hence q^(n-1) times the value is a polynomial in
p^(+-1) and the product qr; for a knot, r enters only as qr.
"""

import itertools
import random
import time

import pytest

from oracles import naive_evaluate
from skeinalg import skein
from skeinalg.algebra import OpKind, check_axioms, make_algebra
from skeinalg.diagram import braid_to_diagram, parse_pd
from skeinalg.laurent import LaurentPoly
from skeinalg.moves import apply_move, random_perturb, trivialize
from skeinalg.skein import Marking, evaluate, replay, trace

ALL_SPECS = [("classic3", None), ("homflypt", None), ("gen-conway", None),
             ("gen-homflypt", None), ("nonlinear", 1), ("nonlinear", 2),
             ("nonlinear", 3), ("nonlinear", 4)]


def _line(idx, verdict, dt, detail):
    print(f"[criterion {idx}] {verdict} ({dt:.2f}s) {detail}")


def test_criterion_01_axiom_suite():
    worst = 0.0
    for name, k in ALL_SPECS:
        alg = make_algebra(name, k)
        t0 = time.perf_counter()
        report = check_axioms(alg)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert report.all_pass, f"{alg.key}:\n{report.render()}"
        assert dt < 1.0, f"{alg.key} took {dt:.2f}s"
    _line(1, "PASS", worst,
          f"defining identities hold in all {len(ALL_SPECS)} instances, "
          f"slowest {worst * 1000:.0f}ms")


def test_criterion_02_unlink_units():
    t0 = time.perf_counter()
    algs = [make_algebra(n, k) for n, k in ALL_SPECS]
    for n in range(1, 6):
        d = parse_pd(f"PD[]+O^{n}")
        for alg in algs:
            assert evaluate(d, alg) == alg.unit(n), (n, alg.key)
    _line(2, "PASS", time.perf_counter() - t0,
          "crossingless unlinks hit the unit sequence, n=1..5, every algebra")


def test_criterion_03_reference_values(diagrams):
    hf = make_algebra("homflypt")
    gc = make_algebra("gen-conway")
    t0 = time.perf_counter()
    # independent last-bad-crossing oracle first, engine second
    assert naive_evaluate(diagrams["trefoil+"], hf).text() == \
        "2*v^2 - 1*v^4 + 1*v^2*z^2"
    assert naive_evaluate(diagrams["hopf+"], gc).text() == \
        "1*p*q^-1 - 1*p^2*q^-1 + 1*r"
    assert evaluate(diagrams["trefoil+"], hf).text() == \
        "2*v^2 - 1*v^4 + 1*v^2*z^2"
    assert evaluate(diagrams["hopf+"], gc).text() == \
        "1*p*q^-1 - 1*p^2*q^-1 + 1*r"
    dt = time.perf_counter() - t0
    assert dt < 0.1, f"{dt:.3f}s"
    _line(3, "PASS", dt, "frozen trefoil/hopf values re-derived both ways")


def test_criterion_04_engine_vs_oracle(corpus, algebras):
    t0 = time.perf_counter()
    checked = 0
    memos = {alg.key: {} for alg in algebras}
    for entry in corpus:
        if entry.crossings > 8:
            continue
        d = entry.diagram()
        for alg in algebras:
            want = naive_evaluate(d, alg)
            got = evaluate(d, alg, memo=memos[alg.key])
            assert got == want, (entry.name, alg.key)
            checked += 1
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"{dt:.1f}s"
    _line(4, "PASS", dt,
          f"first-bad engine equals last-bad oracle on {checked} "
          "diagram/algebra pairs")


def test_criterion_05_marking_independence(corpus):
    gc = make_algebra("gen-conway")
    t0 = time.perf_counter()
    tried = 0
    for entry in corpus:
        if entry.crossings > 6 or entry.components > 3:
            continue
        d = entry.diagram()
        want = evaluate(d, gc)
        memo = {}
        for perm in itertools.permutations(d.components):
            for bases in itertools.product(*perm):
                got = evaluate(d, gc, marking=Marking(bases), memo=memo)
                assert got == want, (entry.name, bases)
                tried += 1
    dt = time.perf_counter() - t0
    _line(5, "PASS", dt,
          f"value independent of all {tried} component orders and "
          "base choices")


def test_criterion_06_move_fuzzing(corpus):
    gc = make_algebra("gen-conway")
    hf = make_algebra("homflypt")
    seeds = range(100)
    t0 = time.perf_counter()
    checked = 0
    for entry in corpus:
        d = entry.diagram()
        shared = {}
        rmemo = {gc.key: {}, hf.key: {}}
        base = trace(d, shared=shared)
        want = {gc.key: replay(base, gc, rmemo[gc.key]),
                hf.key: replay(base, hf, rmemo[hf.key])}
        for seed in seeds:
            perturbed, _ = random_perturb(d, seed=seed, steps=15, cap=14)
            node = trace(perturbed, shared=shared)
            for alg in (gc, hf):
                assert replay(node, alg, rmemo[alg.key]) == want[alg.key], \
                    (entry.name, seed, alg.key)
                checked += 1
    dt = time.perf_counter() - t0
    assert dt < 300.0, f"{dt:.1f}s"
    _line(6, "PASS", dt,
          f"{checked} perturbed evaluations unchanged "
          f"({len(corpus)} diagrams x 100 seeds x 2 algebras)")


def _op_at(d, ci):
    kind = d.classify(ci)
    if d.signs[ci] > 0:
        return OpKind.CIRC if kind == "self" else OpKind.STAR
    return OpKind.SLASH if kind == "self" else OpKind.SSLASH


def _one_step(d, ci, alg, memo):
    """Expand the recursion once at crossing ci, leaves by the engine."""
    other = d.crossing_change(ci)
    zero = d.smooth_with_map(ci)[0]
    return alg.apply(_op_at(d, ci), evaluate(other, alg, memo=memo),
                     evaluate(zero, alg, memo=memo))


def _two_step(d, i, j, alg, memo):
    """Expand at i, then at (the image of) j inside both children."""
    other = d.crossing_change(i)
    zero = d.smooth_with_map(i)[0]
    j_in_zero = j - 1 if j > i else j
    left = _one_step(other, j, alg, memo)
    right = _one_step(zero, j_in_zero, alg, memo)
    return alg.apply(_op_at(d, i), left, right)


def test_criterion_07_skein_relations_everywhere(corpus):
    gc = make_algebra("gen-conway")
    t0 = time.perf_counter()
    memo = {}
    singles = pairs = 0
    for entry in corpus:
        if entry.crossings > 6:
            continue
        d = entry.diagram()
        want = evaluate(d, gc, memo=memo)
        for ci in range(d.n_crossings):
            assert _one_step(d, ci, gc, memo) == want, (entry.name, ci)
            singles += 1
            # and the reverse direction of the same relation
            other = d.crossing_change(ci)
            assert _one_step(other, ci, gc, memo) == \
                evaluate(other, gc, memo=memo), (entry.name, ci)
        for i, j in itertools.combinations(range(d.n_crossings), 2):
            a = _two_step(d, i, j, gc, memo)
            b = _two_step(d, j, i, gc, memo)
            assert a == b == want, (entry.name, i, j)
            pairs += 1
    dt = time.perf_counter() - t0
    _line(7, "PASS", dt,
          f"both relation directions at {singles} crossings and "
          f"interchange at {pairs} crossing pairs")


def test_criterion_08_specializations(corpus):
    ghf = make_algebra("gen-homflypt")
    hf = make_algebra("homflypt")
    gc = make_algebra("gen-conway")
    c3 = make_algebra("classic3")
    nls = [make_algebra("nonlinear", k) for k in (1, 2, 3)]
    t0 = time.perf_counter()

    hv = {n: LaurentPoly.var(hf.table, n) for n in ("v", "z")}
    cv = {n: LaurentPoly.var(c3.table, n) for n in ("p", "q", "z")}
    c3_zero = LaurentPoly.const(c3.table, 0)

    memos = {key: {} for key in
             (ghf.key, hf.key, gc.key, c3.key, *(n.key for n in nls))}
    for entry in corpus:
        d = entry.diagram()
        # widened two-variable family collapses onto the classic one
        wide = evaluate(d, ghf, memo=memos[ghf.key])
        narrow = evaluate(d, hf, memo=memos[hf.key])
        collapsed = wide.substitute(
            {"v": hv["v"], "z": hv["z"], "w": hv["z"]}, into=hf.table)
        assert collapsed == narrow, entry.name
        # mixed-pair constant tied to the self pair recovers the
        # three-variable classic family at z=0
        g = evaluate(d, gc, memo=memos[gc.key])
        c = evaluate(d, c3, memo=memos[c3.key])
        g_sub = g.substitute(
            {"p": cv["p"], "q": cv["q"], "r": cv["q"]}, into=c3.table)
        c_sub = c.substitute(
            {"p": cv["p"], "q": cv["q"], "z": c3_zero}, into=c3.table)
        assert g_sub == c_sub, entry.name
        # stored nonlinear representations agree with the linear one
        for nl in nls:
            assert evaluate(d, nl, memo=memos[nl.key]).text() == g.text(), \
                (entry.name, nl.key)
    dt = time.perf_counter() - t0
    _line(8, "PASS", dt,
          f"all three specialization bridges hold on {len(corpus)} entries")


def _qr_balance(corpus, gc):
    """Entries whose q^(n-1) * value is not a polynomial in p^(+-1) and qr,
    and the knots whose value involves r, each with its value text."""
    gv = {n: LaurentPoly.var(gc.table, n) for n in ("p", "q", "r")}
    # q -> 1, r -> qr fixes exactly the polynomials in p^(+-1) and qr
    fold = {"p": gv["p"], "q": LaurentPoly.const(gc.table, 1),
            "r": gv["q"] * gv["r"]}
    r_at = gc.table.index("r")
    unbalanced = {}
    knots_with_r = {}
    memo = {}
    for entry in corpus:
        v = evaluate(entry.diagram(), gc, memo=memo)
        w = gv["q"] ** (entry.components - 1) * v
        if w.substitute(fold, into=gc.table) != w:
            unbalanced[entry.name] = v.text()
        if entry.components == 1 and any(e[r_at] for e in v.terms):
            knots_with_r[entry.name] = v.text()
    return unbalanced, knots_with_r


def test_criterion_09_knot_r_insensitivity(corpus):
    gc = make_algebra("gen-conway")
    t0 = time.perf_counter()
    unbalanced, knots_with_r = _qr_balance(corpus, gc)
    dt = time.perf_counter() - t0
    if unbalanced:
        name, text = next(iter(unbalanced.items()))
        _line(9, "FAIL", dt,
              f"{len(unbalanced)} values break the q.r balance; first: "
              f"{name} = {text}")
        pytest.fail(
            "q^(n-1) * value is not a polynomial in p and qr: some "
            "smoothing's q or r does not match the component count it "
            f"changes ({name} = {text})")
    _line(9, "PASS", dt,
          f"q^(n-1)*value lies in Z[p^+-1, qr] for all {len(corpus)} entries; "
          f"{len(knots_with_r)} knots depend on r only through qr, e.g. "
          f"trefoil+ = {knots_with_r.get('trefoil+')}")


def test_criterion_09_catches_mixed_crossings_taking_the_self_pair(
        corpus, monkeypatch):
    # an engine that resolves every crossing with the self pair puts q
    # where r belongs; the old r-free check passed on it
    monkeypatch.setattr(
        skein, "_branch_ops",
        lambda sign, kind: OpKind.CIRC if sign > 0 else OpKind.SLASH)
    unbalanced, knots_with_r = _qr_balance(corpus, make_algebra("gen-conway"))
    assert not knots_with_r
    assert unbalanced["trefoil+"] == "2*p - 1*p^2 + 1*q^2"
    assert len(unbalanced) == 30


def test_criterion_10_trivialization(corpus):
    t0 = time.perf_counter()
    for entry in corpus:
        if entry.crossings > 10:
            continue
        d = entry.diagram()
        cur = d
        for ev in trivialize(d):
            nxt = apply_move(cur, ev)
            assert nxt.n_crossings <= cur.n_crossings, (entry.name, str(ev))
            if ev.kind in ("R1-", "R2-"):
                assert nxt.n_crossings < cur.n_crossings, (entry.name,
                                                           str(ev))
            cur = nxt
        assert cur.n_crossings == 0, entry.name
        assert cur.component_count == d.component_count, entry.name
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"{dt:.1f}s"
    _line(10, "PASS", dt,
          "every entry unravels to a crossingless diagram, switches and "
          "slides never add crossings")


def test_criterion_11_twelve_crossing_budget():
    """The braid closure is valued on its word; its PD text keeps the
    resolver's cold path under the same budget."""
    gc = make_algebra("gen-conway")
    d = braid_to_diagram(3, [1, -2] * 6)
    assert d.n_crossings == 12
    pd = parse_pd(d.pd_text())
    times = []
    for x in (d, pd):
        t0 = time.perf_counter()
        value = evaluate(x, gc)   # deliberately cold: no shared memo
        times.append(time.perf_counter() - t0)
        assert value.json_terms()
        assert times[-1] < 5.0, f"{times[-1]:.2f}s"
    _line(11, "PASS", max(times),
          f"cold 12-crossing evaluation fits the budget (braid "
          f"{times[0]:.3f}s, PD {times[1]:.3f}s)")


def test_forty_crossing_four_braid_budget():
    gc = make_algebra("gen-conway")
    rng = random.Random(40)
    word = [rng.choice((1, -1)) * rng.randrange(1, 4) for _ in range(40)]
    d = braid_to_diagram(4, word)
    t0 = time.perf_counter()
    value = evaluate(d, gc)   # cold
    dt = time.perf_counter() - t0
    assert value.json_terms()
    assert dt < 1.0, f"{dt:.2f}s"
