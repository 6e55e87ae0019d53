"""Recursion engine: frozen values, traversal order, markings, trace/replay.

The frozen strings below were produced by the naive last-bad-crossing oracle
in oracles.py before the engine existed; each test re-derives them through
the oracle and then checks the engine against the same text.
"""

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_evaluate
from skeinalg.diagram import DiagramError, braid_to_diagram, parse_pd
from skeinalg.moves import random_perturb
from skeinalg.skein import (MAX_CROSSINGS, Marking, SkeinError, TraceBranch,
                            TraceLeaf, bad_crossings, default_marking,
                            evaluate, replay, trace)

HOPF_PD = "PD[X[1,3,2,4],X[3,1,4,2]]"


def by_key(algebras, key):
    return next(a for a in algebras if a.key == key)


def switch_class(d):
    """What a chain of crossing switches keeps: the free loops, the
    components, and the edges that meet at each crossing."""
    return (d.free_loops, d.components,
            tuple(tuple(sorted(cr)) for cr in d.crossings))


def off_the_rule(shared, root=()):
    """Keys of a `trace` cache whose bases are neither `root`, nor their
    own default marking, nor the default marking of a key of the same
    switch class: the head of a chain of switches."""
    heads = {}
    for (_, d, bases) in shared:
        if bases == default_marking(d).bases:
            heads.setdefault(switch_class(d), set()).add(bases)
    return [(d, bases) for (_, d, bases) in shared
            if bases != root and bases not in heads.get(switch_class(d), ())]


def first_edges(d):
    """The marking of each component's first edge, in label order."""
    return Marking(tuple(comp[0] for comp in d.components))


def self_bad(d, marking, c):
    """How many self crossings of component `c` are bad under `marking`."""
    return sum(d.classify(ci) == "self" and d.comp_of[d.crossings[ci][0]] == c
               for ci in bad_crossings(d, marking))


@pytest.fixture(scope="module")
def marking_set(diagrams):
    """The corpus and two seeded perturbations of every entry."""
    out = dict(diagrams)
    for seed in (0, 1):
        for name, d in diagrams.items():
            out[f"{name}@{seed}"] = random_perturb(d, seed=seed, steps=15,
                                                   cap=14)[0]
    return out


def descend(d, marking):
    """Switch the first bad crossing until there is none."""
    while bad := bad_crossings(d, marking):
        d = d.crossing_change(bad[0])
    return d


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
        # the smoothed child is a one-crossing curl, and its default base
        # is the edge that makes the curl descending
        t = trace(parse_pd(HOPF_PD))
        assert t == TraceBranch(0, 1, "mixed", TraceLeaf(2), TraceLeaf(1))

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
        assert bad_crossings(curl, first_edges(curl)) == [0]
        assert bad_crossings(curl, Marking((2,))) == []

    def test_trefoil_braid_closure(self):
        d = braid_to_diagram(2, [1, 1, 1])
        assert bad_crossings(d, first_edges(d)) == [0, 2]

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
    smoothed child is resolved under its own default marking, and its
    switches keep that marking."""

    def test_default_root_keeps_defaults_everywhere(self, marking_set):
        shared = {}
        for d in marking_set.values():
            trace(d, shared=shared)
        off = off_the_rule(shared)
        assert not off, f"{len(off)} of {len(shared)} keys off the rule"
        # a switch can leave its head's marking short of its own default
        assert sum(bases != default_marking(d).bases
                   for (_, d, bases) in shared) == 1

    def test_other_root_marking_stops_at_smoothings(self, diagrams):
        for name, d in diagrams.items():
            # the last edge of each component, components in reverse
            root = tuple(comp[-1] for comp in reversed(d.components))
            shared = {}
            trace(d, Marking(root), shared=shared)
            assert (None, d, root) in shared, name
            assert not off_the_rule(shared, root), name
            for (_, sub, bases) in shared:
                if bases == root:
                    assert switch_class(sub) == switch_class(d), name


class TestFewestBadMarking:
    """`default_marking` takes the base with the fewest bad self
    crossings on each component, the first such edge on a tie, and a
    greedy component order only when it beats label order."""

    def test_each_base_is_optimal(self, marking_set):
        for name, d in marking_set.items():
            bases = default_marking(d).bases
            for b in bases:
                c = d.comp_of[b]
                counts = [self_bad(d, Marking(tuple(e if x == b else x
                                                    for x in bases)), c)
                          for e in d.components[c]]
                # the earliest edge among the fewest
                assert b == d.components[c][counts.index(min(counts))], name

    def test_ties_keep_the_first_edges(self, diagrams):
        # descending under the first edges: no marking does better
        words = [(3, [1, 1, 2, 2, 2, 2, 2, 2]),
                 (4, [3, 3, 2, 2, 2, 2, 2, 2, 1, 1])]
        cases = [*diagrams.values(), *(braid_to_diagram(*w) for w in words)]
        for d in cases:
            flat = descend(d, first_edges(d))
            assert default_marking(flat) == first_edges(flat), d
        # descending in label order, component 0 runs over component 1
        # twice and component 1 over component 2 six times: the greedy
        # order alone would put component 1 first and make two bad
        d = braid_to_diagram(*words[0])
        flat = descend(d, first_edges(d))
        meets = Counter(tuple(flat.comp_of[x] for x in cr[:2])
                        for cr in flat.crossings)
        assert meets == {(1, 0): 2, (2, 1): 6}

    def test_never_more_bad_than_first_edges(self, marking_set):
        fewer = 0
        for name, d in marking_set.items():
            ours = len(bad_crossings(d))
            theirs = len(bad_crossings(d, first_edges(d)))
            assert ours <= theirs, name
            fewer += ours < theirs
        assert fewer == 82
        # seeded closures of several components, as given and descended
        # in label order, where the greedy order alone sometimes loses
        rng = random.Random(5)
        for _ in range(600):
            n = rng.randint(2, 5)
            word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                    for _ in range(rng.randint(2, 14))]
            d = braid_to_diagram(n, word)
            for x in (d, descend(d, first_edges(d))):
                assert (len(bad_crossings(x))
                        <= len(bad_crossings(x, first_edges(x)))), word

    def test_order_can_change(self, diagrams):
        d = diagrams["borromean"]
        assert default_marking(d).bases == (1, 9, 5)
        assert len(bad_crossings(d)) == 2
        assert len(bad_crossings(d, first_edges(d))) == 4

    def test_corpus_node_count(self, diagrams):
        shared = {}
        for d in diagrams.values():
            trace(d, shared=shared)
        assert len(shared) == 430


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
def braid_words(draw, max_letters=7):
    """A braid on at most 4 strands with at most `max_letters` letters.
    The oracle is memo-free, so more than 7 letters cost it seconds."""
    n = draw(st.integers(1, 4))
    if n == 1:
        return n, []
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return n, draw(st.lists(letter, max_size=max_letters))


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


FIVE_KEYS = ("classic3", "homflypt", "gen-conway", "gen-homflypt",
             "nonlinear(k=2)")


class CountingMemo(dict):
    """A memo that counts its lookups and hits."""

    def __init__(self):
        super().__init__()
        self.lookups = self.hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        hit = super().get(key, default)
        self.hits += hit is not None
        return hit


class TestBraidPath:
    """Braid closures are valued on their word by `_resolve_braid`; the
    PD text of the same closure has no word and goes through the
    resolver, so the two must agree."""

    @staticmethod
    def _agree(algebras, n, word):
        d = braid_to_diagram(n, word)
        pd = parse_pd(d.pd_text())
        assert pd.braid is None
        for key in FIVE_KEYS:
            alg = by_key(algebras, key)
            assert evaluate(d, alg) == evaluate(pd, alg), (n, word, key)

    @given(braid_words(max_letters=12))
    @settings(max_examples=200, deadline=None)
    def test_word_path_matches_resolver(self, algebras, word):
        self._agree(algebras, *word)

    @pytest.mark.parametrize("n,word", [
        (1, []), (3, [1, 1]), (4, []), (2, [-1, -1, -1]),
        (3, [-1, -2, -1, -2, -2]), (4, [-3, -1, -2, -3]), (2, [1, -1]),
        (3, [2, -1, 2, -1, -2]), (4, [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3]),
        (3, [1, -2, 1]), (4, [-1, 2, -1, 3, 3, -1]),
        (5, [1, 1, -2, -3, 4, 4]), (6, [1, 1, 1, -2, -3, -4, 5, -5, 5]),
    ])
    def test_pinned_words(self, algebras, n, word):
        self._agree(algebras, n, word)

    def test_word_is_recorded_only_on_the_closure(self):
        d = braid_to_diagram(3, [1, -2, 1])
        assert d.braid == (3, (1, -2, 1))
        assert d.crossing_change(0).braid is None
        assert d.smooth_with_map(0)[0].braid is None
        assert d.mirror().braid is None
        assert d == parse_pd(d.pd_text())

    def test_second_evaluation_is_one_hit(self, algebras):
        gc = by_key(algebras, "gen-conway")
        d = braid_to_diagram(3, [1, 1, 2, -1, 2, 2, 1])
        memo = CountingMemo()
        first = evaluate(d, gc, memo=memo)
        # every store followed a missed lookup
        assert memo.lookups == len(memo) + memo.hits
        before = memo.lookups, memo.hits
        assert evaluate(d, gc, memo=memo) == first
        assert (memo.lookups, memo.hits) == (before[0] + 1, before[1] + 1)

    def test_mirror_word_costs_the_same(self, algebras):
        # the word is read in permutation braids of its majority sign, so
        # negating every letter mirrors the whole computation
        gc = by_key(algebras, "gen-conway")
        word = [1, 2, 3, 1, 2, -3, 1, 2, 3, 2, 1, 2, -1, 3, 3, 2]
        memos = []
        for w in (word, [-x for x in word]):
            memos.append({})
            evaluate(braid_to_diagram(4, w), gc, memo=memos[-1])
        assert len(memos[0]) == len(memos[1])

    def test_generators_used_once_take_the_reading_sign(self, algebras):
        # a generator that occurs once makes a nugatory crossing, so its
        # letter is read in the reading sign whatever sign it was given;
        # read as given, each of the minority letters -2 ... -12 here
        # would branch and double the states
        gc = by_key(algebras, "gen-conway")
        for n, states in ((8, 57), (14, 81)):
            word = [1] * 6 + [-i for i in range(2, n - 1)] + [n - 1] * 6
            flipped = [abs(x) for x in word]
            memos = [{}, {}]
            values = [evaluate(braid_to_diagram(n, w), gc, memo=memo)
                      for w, memo in zip((word, flipped), memos)]
            assert values[0] == values[1]
            assert memos[0].keys() == memos[1].keys()
            assert len(memos[0]) == states
        self._agree(algebras, 8, [1] * 6 + [-i for i in range(2, 7)] + [7] * 6)
        # an unknot whose letters all differ: one state per strand
        chain = [i if i % 2 else -i for i in range(1, 24)]
        memo = {}
        assert evaluate(braid_to_diagram(24, chain), gc, memo=memo) == \
            gc.unit(1)
        assert len(memo) == 24

    def test_bad_marking_still_refused(self, algebras):
        d = braid_to_diagram(2, [1, 1])
        with pytest.raises(SkeinError, match="covers 1 of 2"):
            evaluate(d, algebras[0], marking=Marking((d.components[0][0],)))
        with pytest.raises(SkeinError, match="not an edge"):
            evaluate(d, algebras[0], marking=Marking((99, 1)))


class TestLimits:
    def test_crossing_budget_enforced(self, algebras):
        big = braid_to_diagram(2, [1] * (MAX_CROSSINGS + 1))
        with pytest.raises(SkeinError, match="limit"):
            evaluate(big, algebras[0])
        with pytest.raises(SkeinError, match="limit"):
            trace(big)

    def test_component_limit_enforced(self, algebras):
        gc = by_key(algebras, "gen-conway")
        assert evaluate(parse_pd("PD[]+O^64"), gc) == gc.unit(64)
        assert evaluate(braid_to_diagram(64, []), gc) == gc.unit(64)
        for d in (parse_pd("PD[]+O^65"), parse_pd("PD[X[1,1,2,2]]+O^64")):
            with pytest.raises(SkeinError, match="components; limit"):
                evaluate(d, gc)
            with pytest.raises(SkeinError, match="components; limit"):
                trace(d)

    def test_braid_strand_count_refused_before_building(self):
        # 65 strands and one letter close to at least 64 components
        assert braid_to_diagram(65, [1]).component_count == 64
        with pytest.raises(DiagramError, match="more than 64 components"):
            braid_to_diagram(66, [1])
        t0 = time.perf_counter()
        with pytest.raises(DiagramError, match="more than 64 components"):
            braid_to_diagram(10 ** 12, [1])
        assert time.perf_counter() - t0 < 0.1
