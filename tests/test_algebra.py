import random
import time

import pytest

from skeinalg.algebra import (AffineOp, AlgebraError, ConwayAlgebraSpec,
                              OpKind, check_axioms, make_algebra)
from skeinalg.diagram import braid_to_diagram
from skeinalg.laurent import LaurentPoly, VarTable
from skeinalg.skein import evaluate

C, S, T, U = OpKind.CIRC, OpKind.SLASH, OpKind.STAR, OpKind.SSLASH


def _gc():
    return make_algebra("gen-conway")


class TestUnits:
    def test_gen_conway_second_unit(self):
        gc = _gc()
        t = gc.table
        want = (LaurentPoly.const(t, 1) - LaurentPoly.var(t, "p")) \
            * LaurentPoly.var(t, "q").inverse()
        assert gc.unit(2) == want

    def test_classic3_second_unit(self):
        alg = make_algebra("classic3")
        t = alg.table
        q_inv = LaurentPoly.var(t, "q").inverse()
        want = q_inv * (LaurentPoly.const(t, 1) - LaurentPoly.var(t, "p")) \
            - q_inv * LaurentPoly.var(t, "z")
        assert alg.unit(2) == want

    def test_first_unit_is_one_everywhere(self, algebras):
        for alg in algebras:
            assert alg.unit(1) == LaurentPoly.const(alg.table, 1)

    def test_unit_index_must_be_positive(self):
        with pytest.raises(AlgebraError):
            _gc().unit(0)

    def test_unit_memo_is_stable(self):
        gc = _gc()
        a5 = gc.unit(5)
        assert gc.unit(3) * gc.unit(3) == a5  # ratio^2 * ratio^2 == ratio^4
        assert gc.unit(5) == a5


class TestApply:
    def test_circ_on_one_zero(self):
        gc = _gc()
        one, zero = gc.unit(1), LaurentPoly.zero(gc.table)
        assert gc.apply(C, one, zero) == LaurentPoly.var(gc.table, "p")

    def test_star_gives_hopf_value(self):
        gc = _gc()
        t = gc.table
        p, r = LaurentPoly.var(t, "p"), LaurentPoly.var(t, "r")
        got = gc.apply(T, gc.unit(2), gc.unit(1))
        assert got == p * gc.unit(2) + r

    def test_slash_undoes_circ_on_indeterminates(self, algebras):
        for alg in algebras:
            ext = alg.table.extend(("a", "b"))
            a, b = LaurentPoly.var(ext, "a"), LaurentPoly.var(ext, "b")
            assert alg.apply(S, alg.apply(C, a, b), b) == a
            assert alg.apply(U, alg.apply(T, a, b), b) == a

    def test_table_mismatch_rejected(self):
        gc = _gc()
        hp = make_algebra("homflypt")
        one = LaurentPoly.const(hp.table, 1)
        from skeinalg.laurent import LaurentError
        with pytest.raises(LaurentError):
            gc.apply(C, one, LaurentPoly.const(gc.table, 1))


def _random_poly(rng, table, max_terms=8):
    """Up to `max_terms` terms with small exponents, so that results of
    an operation often merge and cancel terms."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-2 if table.can_negate(i) else 0, 2)
                     for i in range(len(table.names)))
        terms[exps] = rng.choice((-3, -2, -1, 1, 2, 3))
    return LaurentPoly(table, terms)


def _custom_specs():
    """Specs with two-term alpha and beta, coefficients other than +-1,
    a constant term among them, and gamma != 0, over 3 and 1 variables,
    and the all-zero operation."""
    t = VarTable(("s", "t", "u"), frozenset({"s"}))
    s, tt, u = (LaurentPoly.var(t, n) for n in t.names)
    one = LaurentPoly.const(t, 1)
    two, three, five = (LaurentPoly.const(t, n) for n in (2, 3, 5))
    wide = AffineOp(s + tt * tt * two, three - s.inverse() * u,
                    tt * five - one)
    x = VarTable(("x",), frozenset({"x"}))
    xv = LaurentPoly.var(x, "x")
    narrow = AffineOp(xv, LaurentPoly.const(x, 2) - xv.inverse(),
                      LaurentPoly.const(x, -3))
    zero = LaurentPoly.zero(x)
    return [ConwayAlgebraSpec(name, table, dict.fromkeys(OpKind, op),
                              lambda prev: prev)
            for name, table, op in (("wide", t, wide), ("narrow", x, narrow),
                                    ("zero", x, AffineOp(zero, zero, zero)))]


class TestKernels:
    """`apply` runs compiled kernels; the resolver, `replay`, the word
    path and the oracles all go through it, so it is checked here
    against alpha*a + beta*b + gamma in LaurentPoly's checked ring
    operations."""

    def check(self, alg, table, rng, pairs=40):
        for kind, op in alg.ops.items():
            op = op.remap(table)
            for _ in range(pairs):
                a, b = _random_poly(rng, table), _random_poly(rng, table)
                want = op.alpha * a + op.beta * b + op.gamma
                got = alg.apply(kind, a, b)
                assert got.table is table
                assert got == want, (alg.key, kind, a, b)
                # alpha*(beta*c) - beta*(alpha*c) cancels every term
                c = _random_poly(rng, table)
                assert alg.apply(kind, op.beta * c, -(op.alpha * c)) \
                    == op.gamma, (alg.key, kind, c)

    def test_every_algebra_on_its_own_table(self, algebras):
        rng = random.Random(7)
        for alg in algebras:
            self.check(alg, alg.table, rng)

    def test_every_algebra_on_five_variables(self, algebras):
        rng = random.Random(8)
        for alg in algebras:
            names = ("a", "b", "c", "d", "e")[:5 - len(alg.table.names)]
            self.check(alg, alg.table.extend(names), rng)

    def test_custom_multi_term_ops(self):
        rng = random.Random(9)
        for alg in _custom_specs():
            self.check(alg, alg.table, rng)
            self.check(alg, alg.table.extend(("a",)), rng)


class TestAxioms:
    def test_all_instances_pass(self, algebras):
        extra = [make_algebra("nonlinear", 4)]
        for alg in algebras + extra:
            t0 = time.perf_counter()
            report = check_axioms(alg)
            took = time.perf_counter() - t0
            assert report.all_pass, report.render()
            assert took < 1.0, f"{alg.key}: axiom check took {took:.2f}s"

    def test_report_covers_all_identities(self):
        report = check_axioms(_gc())
        labels = [c.label for c in report.checks]
        assert labels == ["A", "B", "C", "D", "E", "F", "G", "R1", "R2", "R3"]

    def test_mutated_unit_recurrence_fails_b(self):
        gc = _gc()
        t = gc.table
        ops = dict(gc.ops)
        broken_circ = AffineOp(
            ops[C].alpha, ops[C].beta,
            ops[C].gamma + LaurentPoly.const(t, 1))
        ops[C] = broken_circ
        mutant = ConwayAlgebraSpec("mutant", t, ops, gc._unit_step)
        report = check_axioms(mutant)
        b_check = next(c for c in report.checks if c.label == "B")
        assert not b_check.passed
        assert b_check.detail and "difference" in b_check.detail
        assert not report.all_pass

    def test_render_marks_verdicts(self):
        text = check_axioms(make_algebra("homflypt")).render()
        assert "(A) PASS" in text and "FAIL" not in text


class TestSpecializationOps:
    def test_gen_conway_r_to_q_collapses_star(self):
        gc = _gc()
        ext = gc.table.extend(("a", "b"))
        a, b = LaurentPoly.var(ext, "a"), LaurentPoly.var(ext, "b")
        q = LaurentPoly.var(ext, "q")
        for mixed, pure in ((T, C), (U, S)):
            got = gc.apply(mixed, a, b).substitute({"r": q})
            assert got == gc.apply(pure, a, b)

    def test_gen_homflypt_z_to_w_matches_homflypt(self):
        gh = make_algebra("gen-homflypt")
        hp = make_algebra("homflypt")
        ext = gh.table.extend(("a", "b"))
        a, b = LaurentPoly.var(ext, "a"), LaurentPoly.var(ext, "b")
        hp_ext = hp.table.extend(("a", "b"))
        z = LaurentPoly.var(hp_ext, "z")
        for op in (C, S, T, U):
            renamed = gh.apply(op, a, b).substitute({"w": z}, into=hp_ext)
            ha, hb = (LaurentPoly.var(hp_ext, n) for n in ("a", "b"))
            assert renamed == hp.apply(op, ha, hb)

    def test_nonlinear_1_matches_gen_conway_ops(self):
        gc = _gc()
        n1 = make_algebra("nonlinear", 1)
        ext = gc.table.extend(("a", "b"))
        a, b = LaurentPoly.var(ext, "a"), LaurentPoly.var(ext, "b")
        for op in (C, S, T, U):
            want = gc.apply(op, a, b)
            got = n1.apply(op, a, b)
            assert got.terms == want.terms

    def test_nonlinear_apply_ignores_k(self):
        ks = [make_algebra("nonlinear", k) for k in (1, 2, 3, 4)]
        ext = ks[0].table.extend(("a", "b"))
        a, b = LaurentPoly.var(ext, "a"), LaurentPoly.var(ext, "b")
        results = {k.apply(T, a, b).text() for k in ks}
        assert len(results) == 1


class TestFormalRoots:
    def test_k1_renders_plainly(self):
        n1 = make_algebra("nonlinear", 1)
        t = n1.table
        p_plus_q = LaurentPoly.var(t, "p") + LaurentPoly.var(t, "q")
        assert n1.render(p_plus_q) == "1*p + 1*q"

    def test_k2_wraps_canonical_text(self):
        n2 = make_algebra("nonlinear", 2)
        assert n2.render(LaurentPoly.const(n2.table, 1)) == "root(2, 1)"

    def test_render_total_on_linear(self):
        gc = _gc()
        assert gc.render(LaurentPoly.const(gc.table, 1)) == "1"


class TestConstruction:
    def test_unknown_name(self):
        with pytest.raises(AlgebraError):
            make_algebra("jones")

    def test_k_on_linear_algebra(self):
        with pytest.raises(AlgebraError):
            make_algebra("homflypt", 2)

    def test_nonlinear_bad_k(self):
        with pytest.raises(AlgebraError):
            make_algebra("nonlinear", 0)

    def test_keys_distinguish_k(self):
        assert make_algebra("nonlinear", 2).key == "nonlinear(k=2)"
        assert make_algebra("gen-conway").key == "gen-conway"


def _from_homflypt(h, n, gc, ghf):
    """gen-conway and gen-homflypt values rebuilt from the HOMFLYPT value
    `h` of an n-component diagram.

    homflypt = (vz)^-(n-1) F(v^2, v^2 z^2) names F's terms p^i s^j;
    gen-conway = q^-(n-1) F(p, qr) and gen-homflypt = (vw)^-(n-1)
    F(v^2, v^2 wz) then follow term by term."""
    f = {}
    for (a, b), coeff in h.terms.items():
        a, b = a + n - 1, b + n - 1
        assert a % 2 == 0 and b % 2 == 0, h.text()
        f[(a - b) // 2, b // 2] = coeff
    conway = {(i, j - n + 1, j): c for (i, j), c in f.items()}
    homfly = {(2 * i + 2 * j - n + 1, j, j - n + 1): c
              for (i, j), c in f.items()}
    return LaurentPoly(gc.table, conway), LaurentPoly(ghf.table, homfly)


def _classic3_linear_part(h, n, c3):
    """G = q^-(n-1) F(p, q^2) over classic3's table, F as in
    `_from_homflypt`: the gen-conway value at r = q."""
    g = {}
    for (a, b), coeff in h.terms.items():
        a, b = a + n - 1, b + n - 1
        g[(a - b) // 2, b - n + 1, 0] = coeff
    return LaurentPoly(c3.table, g)


def _seeded_braids(seed=11, count=150):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(2, 11))]
        yield n, word


class TestHomflyptDetermines:
    """Every shipped family is HOMFLYPT plus the component count.  Those
    with gamma = 0 follow term by term (`_from_homflypt`).  classic3
    (gamma = z) follows from the same F: shifted by c = z/(p+q-1), its
    values obey pa + qb at every crossing, with unit 1 + c, so
    classic3 = (1 + c)G - c for G = q^-(n-1) F(p, q^2), gen-conway at
    r = q.  The tests check (p+q-1)(classic3 - G) = z(G - 1), which
    fixes classic3 since the ring has no zero divisors."""

    def check(self, d, label):
        hf, gc, ghf, c3 = (make_algebra(k) for k in (
            "homflypt", "gen-conway", "gen-homflypt", "classic3"))
        n2 = make_algebra("nonlinear", 2)
        h = evaluate(d, hf)
        conway, homfly = _from_homflypt(h, d.component_count, gc, ghf)
        assert evaluate(d, gc) == conway, label
        assert evaluate(d, ghf) == homfly, label
        assert evaluate(d, n2).terms == conway.terms, label
        g = _classic3_linear_part(h, d.component_count, c3)
        p, q, z = (LaurentPoly.var(c3.table, x) for x in "pqz")
        one = LaurentPoly.const(c3.table, 1)
        assert (p + q - one) * (evaluate(d, c3) - g) == z * (g - one), label

    def test_corpus(self, diagrams):
        for name, d in diagrams.items():
            self.check(d, name)

    def test_seeded_braid_closures(self):
        for n, word in _seeded_braids():
            self.check(braid_to_diagram(n, word), (n, word))
