"""Recursion engine: frozen values, traversal order, markings, trace/replay.

The frozen strings below were produced by the naive last-bad-crossing oracle
in oracles.py before the engine existed; each test re-derives them through
the oracle and then checks the engine against the same text.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_evaluate
from skeinalg.diagram import braid_to_diagram, parse_pd
from skeinalg.skein import (MAX_CROSSINGS, Marking, SkeinError, TraceBranch,
                            TraceLeaf, bad_crossings, default_marking,
                            evaluate, replay, trace)

HOPF_PD = "PD[X[1,3,2,4],X[3,1,4,2]]"


def by_key(algebras, key):
    return next(a for a in algebras if a.key == key)


# (corpus name, algebra key, canonical text of the value)
FROZEN = [
    ("hopf+", "gen-conway", "1*p*q^-1 - 1*p^2*q^-1 + 1*r"),
    ("trefoil+", "gen-conway", "2*p - 1*p^2 + 1*q*r"),
    ("trefoil+", "homflypt", "2*v^2 - 1*v^4 + 1*v^2*z^2"),
    ("trefoil-", "homflypt", "-1*v^-4 + 2*v^-2 + 1*v^-2*z^2"),
    ("fig8", "homflypt", "1*v^-2 - 1 + 1*v^2 - 1*z^2"),
    ("unlink2", "gen-conway", "1*q^-1 - 1*p*q^-1"),
]


class TestFrozenValues:
    @pytest.mark.parametrize("name,key,text", FROZEN,
                             ids=[f"{n}-{k}" for n, k, _ in FROZEN])
    def test_engine_matches_frozen(self, diagrams, algebras, name, key, text):
        alg = by_key(algebras, key)
        assert evaluate(diagrams[name], alg).text() == text

    @pytest.mark.parametrize("name,key,text", FROZEN,
                             ids=[f"{n}-{k}" for n, k, _ in FROZEN])
    def test_oracle_rederives_frozen(self, diagrams, algebras, name, key,
                                     text):
        alg = by_key(algebras, key)
        assert naive_evaluate(diagrams[name], alg).text() == text

    def test_nonlinear_root_rendering(self, diagrams, algebras):
        n2 = by_key(algebras, "nonlinear(k=2)")
        got = n2.render(evaluate(diagrams["hopf+"], n2))
        assert got == "root(2, 1*p*q^-1 - 1*p^2*q^-1 + 1*r)"


class TestUnlinks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_crossingless_unlink_hits_unit(self, algebras, n):
        d = parse_pd(f"PD[]+O^{n}")
        for alg in algebras:
            assert evaluate(d, alg) == alg.unit(n)

    def test_clasped_unlink_same_as_crossingless(self, algebras):
        clasp = braid_to_diagram(2, [1, -1])
        assert clasp.n_crossings == 2
        flat = parse_pd("PD[]+O^2")
        for alg in algebras:
            assert evaluate(clasp, alg) == evaluate(flat, alg)


class TestTraceShape:
    def test_hopf_tree(self):
        t = trace(parse_pd(HOPF_PD))
        assert isinstance(t, TraceBranch)
        assert (t.crossing, t.sign, t.kind) == (0, 1, "mixed")
        assert t.switched == TraceLeaf(2)
        sm = t.smoothed
        assert isinstance(sm, TraceBranch)
        assert (sm.sign, sm.kind) == (1, "self")
        assert sm.switched == TraceLeaf(1)
        assert sm.smoothed == TraceLeaf(2)

    def test_descending_curl_is_a_leaf(self):
        curl = parse_pd("PD[X[1,1,2,2]]")
        assert trace(curl, Marking((2,))) == TraceLeaf(1)

    def test_full_descent_reaches_leaf(self, diagrams):
        for name in ("trefoil+", "fig8", "whitehead"):
            d = diagrams[name]
            m = default_marking(d)
            while True:
                bad = bad_crossings(d, m)
                if not bad:
                    break
                d = d.crossing_change(bad[0])
            assert trace(d, m) == TraceLeaf(d.component_count)


class TestBadCrossings:
    def test_curl_depends_on_base(self):
        curl = parse_pd("PD[X[1,1,2,2]]")
        assert bad_crossings(curl) == [0]
        assert bad_crossings(curl, Marking((2,))) == []

    def test_trefoil_braid_closure(self):
        d = braid_to_diagram(2, [1, 1, 1])
        assert bad_crossings(d) == [0, 2]

    def test_switching_first_bad_pops_it(self, diagrams):
        # the traversal never changes, so the rest of the list survives
        for d in diagrams.values():
            m = default_marking(d)
            bad = bad_crossings(d, m)
            if not bad:
                continue
            flipped = d.crossing_change(bad[0])
            assert bad_crossings(flipped, m) == bad[1:]


class TestMarkingRule:
    """The caller's marking reaches only the root and its switches; every
    smoothed child is resolved under its own default marking."""

    def test_default_root_keeps_defaults_everywhere(self, diagrams):
        shared = {}
        for d in diagrams.values():
            trace(d, shared=shared)
        off = [(d, bases) for (_, d, bases) in shared
               if bases != default_marking(d).bases]
        assert not off, f"{len(off)} of {len(shared)} keys off the default"

    def test_other_root_marking_stops_at_smoothings(self, diagrams):
        for name, d in diagrams.items():
            # the last edge of each component, components in reverse
            root = tuple(comp[-1] for comp in reversed(d.components))
            shared = {}
            trace(d, Marking(root), shared=shared)
            assert (None, d, root) in shared, name
            for (_, sub, bases) in shared:
                assert bases in (root, default_marking(sub).bases), name


class TestMarkingValidation:
    def test_base_must_be_an_edge(self, diagrams):
        with pytest.raises(SkeinError, match="not an edge"):
            evaluate(diagrams["trefoil+"], None, marking=Marking((99,)))

    def test_component_marked_twice(self, algebras):
        hopf = parse_pd(HOPF_PD)
        with pytest.raises(SkeinError, match="two base edges"):
            evaluate(hopf, algebras[0], marking=Marking((1, 2)))

    def test_component_left_unmarked(self, algebras):
        hopf = parse_pd(HOPF_PD)
        with pytest.raises(SkeinError, match="covers 1 of 2"):
            evaluate(hopf, algebras[0], marking=Marking((1,)))


class TestMarkingIndependence:
    def test_hopf_all_markings(self, algebras):
        gc = by_key(algebras, "gen-conway")
        hopf = parse_pd(HOPF_PD)
        want = evaluate(hopf, gc)
        for x in (1, 2):
            for y in (3, 4):
                for bases in ((x, y), (y, x)):
                    assert evaluate(hopf, gc, marking=Marking(bases)) == want

    def test_trefoil_all_bases(self, diagrams, algebras):
        gc = by_key(algebras, "gen-conway")
        d = diagrams["trefoil+"]
        want = evaluate(d, gc)
        for e in d.components[0]:
            assert evaluate(d, gc, marking=Marking((e,))) == want


class TestMemo:
    def test_shared_memo_is_safe_across_diagrams(self, diagrams, algebras):
        gc = by_key(algebras, "gen-conway")
        memo = {}
        evaluate(diagrams["trefoil+"], gc, memo=memo)
        assert memo
        shared = evaluate(diagrams["hopf+"], gc, memo=memo)
        assert shared == evaluate(diagrams["hopf+"], gc)

    def test_memo_keys_carry_the_algebra(self, diagrams, algebras):
        gc = by_key(algebras, "gen-conway")
        hf = by_key(algebras, "homflypt")
        memo = {}
        a = evaluate(diagrams["trefoil+"], gc, memo=memo)
        b = evaluate(diagrams["trefoil+"], hf, memo=memo)
        assert a == evaluate(diagrams["trefoil+"], gc)
        assert b == evaluate(diagrams["trefoil+"], hf)
        assert a.table is not b.table


class TestTraceReplay:
    def test_replay_matches_evaluate_corpus_wide(self, diagrams, algebras):
        keys = ("gen-conway", "homflypt", "nonlinear(k=2)")
        algs = [by_key(algebras, k) for k in keys]
        shared = {}
        replay_memos = {k: {} for k in keys}
        eval_memos = {k: {} for k in keys}
        for d in diagrams.values():
            node = trace(d, shared=shared)
            for alg in algs:
                got = replay(node, alg, replay_memos[alg.key])
                want = evaluate(d, alg, memo=eval_memos[alg.key])
                assert got == want

    def test_replay_memo_reuse(self, algebras):
        gc = by_key(algebras, "gen-conway")
        node = trace(parse_pd(HOPF_PD))
        memo = {}
        first = replay(node, gc, memo)
        assert id(node) in memo
        assert replay(node, gc, memo) == first

    def test_replay_rejects_foreign_objects(self, algebras):
        with pytest.raises(SkeinError, match="not a trace node"):
            replay("bogus", algebras[0])


@st.composite
def braid_words(draw):
    """A braid on at most 4 strands with at most 7 letters.  The oracle
    is memo-free, so longer words cost seconds each."""
    n = draw(st.integers(1, 4))
    if n == 1:
        return n, []
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return n, draw(st.lists(letter, max_size=7))


class TestDifferential:
    @given(braid_words())
    @settings(max_examples=100, deadline=None)
    def test_evaluate_replay_and_oracle_agree(self, algebras, word):
        d = braid_to_diagram(*word)
        node = trace(d)
        for key in ("gen-conway", "gen-homflypt", "nonlinear(k=2)"):
            alg = by_key(algebras, key)
            want = naive_evaluate(d, alg)
            assert evaluate(d, alg) == want, (word, key)
            assert replay(node, alg) == want, (word, key)


class TestLimits:
    def test_crossing_budget_enforced(self, algebras):
        big = braid_to_diagram(2, [1] * (MAX_CROSSINGS + 1))
        with pytest.raises(SkeinError, match="limit"):
            evaluate(big, algebras[0])
        with pytest.raises(SkeinError, match="limit"):
            trace(big)
