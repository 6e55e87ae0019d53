import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import braid_components, exhaustive_encode
import skeinalg.diagram
from skeinalg.diagram import (_INTEGER, _SPACE, Diagram, DiagramError,
                              PDSyntaxError, _crossing_pieces,
                              braid_to_diagram, parse_diagram, parse_pd)

TREFOIL_PD = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
HOPF_PD = "PD[X[1,3,2,4],X[3,1,4,2]]"


def _assemble(slotted, glues, free_loops: int):
    """Reference build: a relabeled diagram from crossing stubs and
    gluing relations, the whole diagram traced again.

    slotted: list of ((a,b,c,d), over_in_slot) in original labels.
    glues: pairs of labels to be merged into one edge (direction-free).
    Labels whose merged class no longer touches any crossing become free
    loops.  Returns (diagram, old-label -> new-label-or-None)."""
    # union-find over glued labels, rooted at each class's smallest label
    parent: dict[int, int] = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    for x, y in glues:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    rep = {lab: find(lab) for pair in glues for lab in pair}

    # nxt[e] is the edge leaving the crossing at which edge e arrives
    nxt: dict[int, int] = {}
    for cr, oi in slotted:
        for s_in, s_out in ((0, 2), (oi, 4 - oi)):
            x, y = cr[s_in], cr[s_out]
            e_in = rep.get(x, x)
            assert e_in not in nxt
            nxt[e_in] = rep.get(y, y)
    assert sorted(nxt) == sorted(nxt.values())
    loop_roots = set(rep.values()) - set(nxt)

    # compact labels in traversal order, each component from its smallest
    # edge, the components in that order
    assigned: dict[int, int] = {}
    components = []
    for root in sorted(nxt):
        if root in assigned:
            continue
        first = len(assigned) + 1
        x = root
        while x not in assigned:
            assigned[x] = len(assigned) + 1
            x = nxt[x]
        components.append(tuple(range(first, len(assigned) + 1)))
    comp_of = {lab: k for k, comp in enumerate(components) for lab in comp}
    pos = {lab: i for comp in components for i, lab in enumerate(comp)}
    small = tuple(comp for comp in components if len(comp) <= 2)

    labmap = {lab: assigned.get(root) for lab, root in rep.items()}
    for cr, _ in slotted:
        for lab in cr:
            if lab not in rep:
                labmap[lab] = assigned[lab]
    flat = tuple(labmap[x] for cr, _ in slotted for x in cr)
    child = Diagram._trusted(flat, tuple(oi for _, oi in slotted),
                             free_loops + len(loop_roots),
                             tuple(components), comp_of, pos, small)
    return child, labmap


def _reference_encode(d):
    """`Diagram.canonical_encode` walked over (crossing, slot) pairs with
    a successor map and a label -> places map, in place of integer
    darts: the reference its codes must equal byte for byte."""
    crossings = d.crossings
    succ = {}
    for comp in d.components:
        succ.update(zip(comp, comp[1:] + comp[:1]))
    occ = {}
    for ci, cr in enumerate(crossings):
        for s, lab in enumerate(cr):
            occ.setdefault(lab, []).append((ci, s))
    unders = set(d.flat[0::4])
    drifting = {lab for comp in d._small
                if unders.isdisjoint(comp) for lab in comp}
    piece_rows = sorted(
        min(_reference_rows(crossings, cis, succ, d.over_in, occ, drifting,
                            root)
            for root in cis)
        for cis in _crossing_pieces(d))
    rows = []
    for prows in piece_rows:
        shift = 2 * len(rows)
        rows += [tuple(x + shift for x in row) for row in prows]
    body = ",".join(f"X[{a},{b},{c},{d}]" for a, b, c, d in rows)
    suffix = f"+O^{d.free_loops}" if d.free_loops else ""
    return f"PD[{body}]{suffix}"


def _reference_rows(crossings, cis, succ, over_in, occ, drifting, root):
    """The rows of `_rooted_rows` for `_reference_encode`."""
    label = {}
    entry = []  # the (crossing, slot) each label enters

    def take(e, at):
        start = e
        while True:
            label[e] = len(entry) + 1
            entry.append(at)
            ci, s = at
            e = succ[e]
            if e == start:
                return
            left = (ci, (2, 3, None, 1)[s])
            first, second = occ[e]
            at = second if first == left else first

    take(crossings[root][0], (root, 0))
    i = 0
    while i < len(entry):
        ci, s = entry[i]
        i += 1
        cr = crossings[ci]
        o = 0 if s else (1 if cr[1] in drifting else over_in[ci])
        if cr[o] not in label:
            take(cr[o], (ci, o))
    return sorted(tuple(label[x] for x in crossings[ci]) for ci in cis)


def _reference_closure(n, letters):
    """`braid_to_diagram` through `_assemble`: each bottom end glued to
    its own top end."""
    pos = list(range(n + 1))
    fresh = n + 1
    slotted = []
    for L in letters:
        m = abs(L)
        x, w, u, y = pos[m], pos[m + 1], fresh, fresh + 1
        fresh += 2
        slotted.append(((x, u, y, w), 3) if L > 0 else ((w, x, u, y), 1))
        pos[m], pos[m + 1] = u, y
    return _assemble(slotted, [(pos[i], i) for i in range(1, n + 1)], 0)


def _reference_move(d, ev, fs):
    """An R1-, R2-, R1+ or R2+ event rebuilt through `_assemble`; `fs` is
    `faces(d)`."""
    from skeinalg.moves import _r1plus_template, _r2plus_crossings, face_edges

    crs, ois = list(d.crossings), list(d.over_in)
    if ev.kind in ("R1-", "R2-"):
        which = ({ev.crossing} if ev.kind == "R1-"
                 else {c for c, _ in fs[ev.face]})
        glues = [pair for ci in which
                 for pair in (crs[ci][0::2], crs[ci][1::2])]
        rest = [(cr, oi) for j, (cr, oi) in enumerate(zip(crs, ois))
                if j not in which]
        return _assemble(rest, glues, d.free_loops)
    base = max(map(max, crs), default=0)
    if ev.loop:
        x = base + 1
        new = [_r1plus_template(x, x + 1, x, ev.sign, ev.flavor)]
        return _assemble(list(zip(crs, ois)) + new, [], d.free_loops - 1)

    def relabel(e, lab):
        # at the crossing edge e enters: under-strand slot 0, or the slot
        # its over-strand enters by
        ci, s = next((ci, s) for ci, cr in enumerate(crs) for s in (0, ois[ci])
                     if cr[s] == e)
        crs[ci] = crs[ci][:s] + (lab,) + crs[ci][s + 1:]

    if ev.kind == "R1+":
        relabel(ev.edge, base + 2)
        new = [_r1plus_template(ev.edge, base + 1, base + 2, ev.sign,
                                ev.flavor)]
    else:
        x, y = ev.edge, ev.edge2
        face = next(f for f in fs if {x, y} <= set(face_edges(d, f)))
        labs = face_edges(d, face)
        walked = [s == 2 or s == 4 - d.over_in[ci]
                  for ci, s in (face[labs.index(x)], face[labs.index(y)])]
        relabel(x, base + 2)
        relabel(y, base + 4)
        new = _r2plus_crossings(x, base + 1, base + 2, y, base + 3,
                                base + 4, *walked)
    return _assemble(list(zip(crs, ois)) + new, [], d.free_loops)


class TestParsePD:
    def test_unknot(self):
        d = parse_pd("PD[]+O^1")
        assert (d.n_crossings, d.free_loops, d.component_count) == (0, 1, 1)

    def test_trefoil(self):
        d = parse_pd(TREFOIL_PD)
        assert (d.n_crossings, d.component_count) == (3, 1)

    def test_hopf(self):
        d = parse_pd(HOPF_PD)
        assert (d.n_crossings, d.component_count) == (2, 2)
        assert [min(comp) for comp in d.components] == [1, 3]

    def test_whitespace_insignificant(self):
        a = parse_pd(" PD[ X[1,3,2,4] , X[3,1,4,2] ] ")
        assert a == parse_pd(HOPF_PD)

    def test_label_appearing_once_rejected(self):
        with pytest.raises(DiagramError, match="exactly 2"):
            parse_pd("PD[X[1,2,3,4]]")

    @pytest.mark.parametrize("crossings, message", [
        ([(1, 2, 3)], "crossing 0 has 3 slots, need 4"),
        ([(0, 1, 1, 0)], "crossing 0: labels must be positive, got 0")])
    def test_malformed_crossing_rejected(self, crossings, message):
        with pytest.raises(DiagramError) as info:
            Diagram(crossings)
        assert str(info.value) == message

    @pytest.mark.parametrize("pd, message", [
        ("PD[X[1,1,2,3],X[2,3,4,4]]",
         "crossing 1: under-strand runs 2->4, but the label order gives 2->3"),
        ("PD[X[1,1,2,3],X[3,2,4,4]]",
         "crossing 0: over-strand 1/3 fits no remaining transition")])
    def test_unorientable_strands_rejected(self, pd, message):
        with pytest.raises(DiagramError) as info:
            parse_pd(pd)
        assert str(info.value) == message

    def test_syntax_error_carries_column(self):
        with pytest.raises(PDSyntaxError, match=r"col \d+"):
            parse_pd("PD[X[1,2,3]]")

    @pytest.mark.parametrize("text, col, message", [
        ("braid(3; 1 2 x)", 14, "expected an integer"),
        ("braid(3 1 2)", 9, "expected ';', found '1'"),
        ("braid(2; 1 1) extra", 15, "unexpected trailing input 'extra'"),
        ("braid(2; 1\t\xa0 x)", 14, "expected an integer"),
        ("braid(3; 1 - x)", 14, "expected an integer"),
        ("braid(3; 1 -)", 13, "expected an integer"),
        ("PD[X[1,2,3]]", 11, "expected ',', found ']'"),
        ("PD[X[1, 2,3,4],  Y[1,2,3,4]]", 18, "expected 'X[', found 'Y['"),
        ("PD[X[1,1,2,2]]+O^", 18, "expected an integer"),
        ("PD[X[1,1,2,2]", 14, "expected ']', found 'end of input'"),
        ("braid(2; 1^)", 12, "expected an integer"),
        ("braid(2; 1^ x)", 13, "expected an integer"),
        ("braid(3; (1 2)^)", 16, "expected an integer"),
        ("braid(2; 1^2^3)", 13, "expected an integer"),
        ("braid(2; ^2)", 10, "expected an integer"),
        ("braid(3; (1 2", 10, "'(' is not closed"),
        ("braid(3; (1 2)", 15, "expected '^', found 'end of input'"),
        ("braid(3; (1 2 x)^2)", 15, "expected an integer"),
        ("braid(2; ((1)^2)^2)", 11, "groups do not nest"),
        ("braid(2; ()^2)", 11, "expected an integer"),
        ("braid(2; 1 1)^2", 14, "unexpected trailing input '^2'"),
        ("braid(2; (1)^1000000000)", 14,
         "word expands to 1000000000 letters; limit is 10000"),
    ])
    def test_syntax_errors_are_pinned(self, text, col, message):
        with pytest.raises(PDSyntaxError) as info:
            parse_diagram(text)
        assert str(info.value) == f"line 1, col {col}: {message}"
        assert info.value.col == col

    def test_scanner_reads_the_characters_str_methods_do(self):
        # whitespace as str.isspace, digits as str.isdecimal (int()'s)
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            assert (_SPACE.match(ch).end() == 1) == ch.isspace(), hex(code)
            assert (_INTEGER.match(ch) is not None) == ch.isdecimal(), \
                hex(code)

    def test_superscript_digit_is_a_syntax_error(self):
        with pytest.raises(PDSyntaxError, match="col 10: expected an integer"):
            parse_diagram("braid(2; \u00b2)")

    def test_round_trip_text(self):
        d = parse_pd(TREFOIL_PD)
        assert parse_pd(d.pd_text()) == d

    def test_braid_text_accepted_by_parse_diagram(self):
        d = parse_diagram("braid(2; 1 1)")
        assert d.component_count == 2

    @pytest.mark.parametrize("powers, spelled", [
        ("braid(3; (1 -2)^3)", "braid(3; 1 -2 1 -2 1 -2)"),
        ("braid(2; 1^6)", "braid(2; 1 1 1 1 1 1)"),
        ("braid(3; 2 (1^2 -2)^2 - 1 ^ 1)", "braid(3; 2 1 1 -2 1 1 -2 -1)"),
        ("braid(3; 1 (2)^0 -2^0)", "braid(3; 1)"),
    ])
    def test_powers_spell_out_the_word(self, powers, spelled):
        d, want = parse_diagram(powers), parse_diagram(spelled)
        assert d == want and d.braid == want.braid

    def test_torus_power_reaches_the_letter_limit(self):
        assert len(parse_diagram("braid(5; (1 2 3 4)^12)").braid[1]) == 48
        assert len(parse_diagram("braid(2; 1^10000)").braid[1]) == 10_000
        with pytest.raises(PDSyntaxError, match="10001 letters"):
            parse_diagram("braid(3; 2 (1)^10000)")


class TestSigns:
    def test_trefoil_all_negative(self):
        d = parse_pd(TREFOIL_PD)
        assert list(d.signs) == [-1, -1, -1]
        assert d.writhe == -3

    def test_mirror_flips_every_sign(self):
        d = parse_pd(TREFOIL_PD)
        m = d.mirror()
        assert list(m.signs) == [1, 1, 1]
        assert m.writhe == 3
        assert m.component_count == d.component_count

    def test_hopf_signs_agree(self):
        d = parse_pd(HOPF_PD)
        assert d.signs[0] == d.signs[1] == 1

    def test_corpus_writhe_column_matches_sign_rule(self, corpus, diagrams):
        for entry in corpus:
            assert diagrams[entry.name].writhe == entry.writhe, entry.name


class TestClassify:
    def test_trefoil_crossings_self(self):
        d = parse_pd(TREFOIL_PD)
        assert all(d.classify(ci) == "self" for ci in range(3))

    def test_hopf_crossings_mixed(self):
        d = parse_pd(HOPF_PD)
        assert all(d.classify(ci) == "mixed" for ci in range(2))

    def test_smoothing_trefoil_turns_rest_mixed(self):
        d = parse_pd(TREFOIL_PD)
        s = d.smooth_with_map(0)[0]
        assert s.component_count == 2
        assert all(s.classify(ci) == "mixed" for ci in range(s.n_crossings))


class TestCrossingChange:
    def test_involution(self):
        d = parse_pd(TREFOIL_PD)
        for ci in range(3):
            assert d.crossing_change(ci).crossing_change(ci) == d

    def test_sign_negated_components_kept(self):
        d = parse_pd(HOPF_PD)
        c = d.crossing_change(0)
        assert c.signs[0] == -d.signs[0]
        assert c.components == d.components
        assert c.n_crossings == d.n_crossings

    @pytest.mark.parametrize("ci", [-1, 3])
    def test_surgery_out_of_range_rejected(self, ci):
        d = parse_pd(TREFOIL_PD)
        for surgery in (d.crossing_change, d.smooth_with_map):
            with pytest.raises(DiagramError) as info:
                surgery(ci)
            assert str(info.value) == f"no crossing {ci}"


class TestSmooth:
    def test_hopf_smooth(self):
        d = parse_pd(HOPF_PD)
        s = d.smooth_with_map(0)[0]
        assert (s.n_crossings, s.component_count) == (1, 1)

    def test_trefoil_smooth_gives_clasp(self):
        d = parse_pd(TREFOIL_PD)
        s = d.smooth_with_map(0)[0]
        assert (s.n_crossings, s.component_count) == (2, 2)

    def test_curl_smooth_detaches_circles(self):
        # smoothing the only crossing of a curled unknot leaves the
        # two-component crossingless unlink
        curl = parse_pd("PD[X[1,2,2,1]]")
        s = curl.smooth_with_map(0)[0]
        assert (s.n_crossings, s.free_loops, s.component_count) == (0, 2, 2)

    def test_component_shift_exhaustive(self, corpus, diagrams):
        """Self smoothing adds a component, mixed smoothing removes one."""
        for entry in corpus:
            d = diagrams[entry.name]
            for ci in range(d.n_crossings):
                shift = 1 if d.classify(ci) == "self" else -1
                s = d.smooth_with_map(ci)[0]
                assert s.component_count == d.component_count + shift, \
                    f"{entry.name} crossing {ci}"
                assert s.n_crossings == d.n_crossings - 1

    def test_smooth_with_map_tracks_labels(self):
        d = parse_pd(HOPF_PD)
        s, lmap = d.smooth_with_map(0)
        survivors = [v for v in lmap.values() if v is not None]
        assert all(v in s.comp_of for v in survivors)
        # the glued pairs collapse onto single new edges
        a, b, c, dd = d.crossings[0]
        assert lmap[a] == lmap[b] and lmap[dd] == lmap[c]


class TestLibraryBuiltDiagrams:
    """Switches, smoothings and move rewrites skip validation; with the
    re-check switch on they must agree with it field by field."""

    # every table and view a diagram has, stored or derived
    FIELDS = ("flat", "crossings", "free_loops", "over_in", "components",
              "comp_of", "pos", "signs")

    def test_switch_catches_a_wrong_build(self, recheck_builds):
        d = parse_pd(HOPF_PD)
        strands = (d.components, d.comp_of, d.pos, d._small)
        with pytest.raises(AssertionError, match="over_in"):
            Diagram._trusted(d.flat, (1, 1), 0, *strands)
        # the tables of a two-component diagram whose components have
        # one and three edges
        with pytest.raises(AssertionError, match="components"):
            Diagram._trusted(d.flat, d.over_in, 0,
                             *skeinalg.diagram._numbered((1, 3)))
        assert Diagram._trusted(d.flat, d.over_in, 0, *strands) == d

    def test_views_are_derived_once_and_kept(self):
        d = braid_to_diagram(3, [1, -2, 1, -2]).crossing_change(1)
        ref = Diagram(d.crossings, d.free_loops)
        for name in ("crossings", "signs"):
            assert getattr(d, name) == getattr(ref, name)
        assert type(d.crossings[0]) is tuple
        with pytest.raises(AttributeError):
            d.no_such_view

    def test_corpus_recursion_and_perturbations(self, recheck_builds,
                                                corpus):
        from skeinalg.moves import random_perturb
        from skeinalg.skein import trace

        for entry in corpus:
            d = entry.diagram()
            if entry.crossings <= 8:
                trace(d)
            for seed in range(2):
                perturbed, _ = random_perturb(d, seed=seed, steps=15, cap=14)
                trace(perturbed)

    def test_hot_paths_never_build_the_crossings_view(self, corpus,
                                                      monkeypatch):
        # tracing and perturbing read `flat`; a node that fell back to
        # the 4-tuples would read `crossings`, and be counted here
        from skeinalg.moves import random_perturb
        from skeinalg.skein import trace

        built = []
        real = Diagram.crossings.fget
        monkeypatch.setattr(Diagram, "crossings", property(
            lambda d: built.append(d) or real(d)))
        # four perturbation seeds, and the PD text of two closures: each
        # node is reduced by R1- and R2-, so the corpus and its walks
        # alone come to about 1,000 nodes
        roots = [parse_pd(braid_to_diagram(n, w).pd_text())
                 for n, w in ((3, [1, -2] * 10), (4, [1, -2, 3] * 6))]
        for entry in corpus:
            d = entry.diagram()
            roots += [d] + [random_perturb(d, seed=s, steps=15, cap=14)[0]
                            for s in range(4)]
        nodes = 0
        for x in roots:
            shared = {}
            trace(x, shared=shared)
            nodes += len(shared)
        assert nodes > 5_000 and built == []
        assert x.crossings and built == [x]

    def test_mirrors_and_triangle_slides(self, recheck_builds, corpus):
        from skeinalg.moves import apply_move, find_moves, random_perturb

        slides = 0
        for entry in corpus:
            d = entry.diagram()
            assert d.mirror().mirror() == d
            for seed in range(2):
                perturbed, _ = random_perturb(d, seed=seed, steps=15, cap=14)
                for ev in find_moves(perturbed):
                    if ev.kind == "R3":
                        apply_move(perturbed, ev)
                        slides += 1
        assert slides

    def test_braid_closures_match_validation(self, recheck_builds):
        # braid parsing builds from the strands it traces, through
        # `_rebuilt` alone; seeded words on 1-6 strands, some strands left
        # untouched, some words negative
        rng = random.Random(5)
        free = negative = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            gens = [i for i in range(1, n) if rng.random() < 0.7]
            signs = rng.choice(((1,), (-1,), (1, -1)))
            letters = [rng.choice(signs) * rng.choice(gens)
                       for _ in range(rng.randint(0, 20) if gens else 0)]
            d = braid_to_diagram(n, letters)
            ref = Diagram(d.crossings, d.free_loops)
            for name in self.FIELDS:
                assert getattr(d, name) == getattr(ref, name), (n, letters)
            assert d == ref and hash(d) == hash(ref), (n, letters)
            assert d.braid == (n, tuple(letters)) and ref.braid is None
            free += d.free_loops > 0
            negative += bool(letters) and max(letters) < 0
        assert free and negative

    def test_spliced_smoothing_matches_assemble(self, recheck_builds,
                                                corpus, monkeypatch):
        # smoothings, braid closures and the moves that add or remove
        # crossings all end in `_rebuilt`, which numbers only the new
        # components; rebuilding the whole child through the test-local
        # `_assemble` must give the same diagram, field by field, and the
        # same label map
        import skeinalg.moves
        from skeinalg.moves import (_build, _census, _drawn, apply_move,
                                    faces, random_perturb)

        def same(got, reference, *where):
            # the library build has been re-checked against validation, so
            # its reference is built without a second re-check
            monkeypatch.setattr(skeinalg.diagram, "RECHECK_BUILDS", False)
            want, want_map = reference(*where)
            monkeypatch.setattr(skeinalg.diagram, "RECHECK_BUILDS", True)
            got, got_map = got
            for name in self.FIELDS:
                assert getattr(got, name) == getattr(want, name), \
                    (where, name)
            assert got == want and hash(got) == hash(want), where
            assert got_map == want_map, where

        def rebuilt(d, ci):
            a, b, c, e = d.crossings[ci]
            glues = [(a, b), (e, c)] if d.signs[ci] > 0 else [(a, e), (b, c)]
            rest = [(cr, oi) for j, (cr, oi)
                    in enumerate(zip(d.crossings, d.over_in)) if j != ci]
            return _assemble(rest, glues, d.free_loops)

        def check_every_crossing(d):
            for ci in range(d.n_crossings):
                got = d.smooth_with_map(ci)
                assert got[0].braid is None
                same(got, rebuilt, d, ci)
            return d.n_crossings

        # the builds of braid closures and moves, as `_rebuilt` returns them
        built = []
        real = skeinalg.diagram._rebuilt
        for module in (skeinalg.diagram, skeinalg.moves):
            monkeypatch.setattr(module, "_rebuilt",
                                lambda *args: built.append(real(*args))
                                or built[-1])

        def check_every_move(d, grow):
            # every removal the census finds, and with `grow` every curl
            # and push, built from the census as `random_perturb` builds
            # the move it draws
            fs = faces(d)
            census = _census(d, d.n_crossings + 2 if grow else 0)
            events = 0
            for i in range(census[0]):
                ev, darts = _drawn(d, census, i)
                if ev.kind not in ("R1-", "R2-", "R1+", "R2+"):
                    continue
                built.clear()
                _build(d, ev, census[-1], darts)
                assert len(built) == 1, (d, str(ev))
                same(built[0], _reference_move, d, ev, fs)
                kinds[ev.kind, ev.loop] += 1
                events += 1
            return events

        def interleaved(d):
            # the same diagram with each component's labels spread out, so
            # that the components' labels interleave
            k = len(d.components)
            new = {lab: i * k + c + 1 for c, comp in enumerate(d.components)
                   for i, lab in enumerate(comp)}
            return Diagram([[new[x] for x in cr] for cr in d.crossings],
                           d.free_loops)

        inputs = []
        for entry in corpus:
            d = entry.diagram()
            inputs += [d, interleaved(d)]
            inputs += [random_perturb(d, seed=s, steps=15, cap=14)[0]
                       for s in range(3)]
        # braid closures, some with untouched strands, some all negative
        rng = random.Random(11)
        free = negative = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            gens = [i for i in range(1, n) if rng.random() < 0.7]
            signs = rng.choice(((1,), (-1,), (1, -1)))
            letters = [rng.choice(signs) * rng.choice(gens)
                       for _ in range(rng.randint(0, 20) if gens else 0)]
            built.clear()
            inputs.append(braid_to_diagram(n, letters))
            same(built[0], _reference_closure, n, letters)
            free += inputs[-1].free_loops > 0
            negative += bool(letters) and max(letters) < 0
        assert free and negative
        trefoil = parse_pd(TREFOIL_PD)
        # curls: an over-out edge that is the under-in edge, or an
        # under-out edge that is the over-in edge
        curls = [parse_pd("PD[X[1,1,2,2]]"), parse_pd("PD[X[1,2,2,1]]"),
                 apply_move(trefoil, "R1+@e1/-o"),
                 apply_move(trefoil, "R1+@e4/+u")]
        assert any(d.smooth_with_map(d.n_crossings - 1)[0].free_loops
                   > d.free_loops for d in curls)
        inputs += curls + [
            # labels that are not consecutive along a component
            parse_pd("PD[X[1,2,3,4],X[3,2,1,4]]"),
            parse_pd("PD[X[10,40,20,50],X[30,60,40,10],X[50,20,60,30]]"),
        ]
        assert any(comp[-1] - comp[0] >= len(comp)
                   for d in inputs for comp in d.components)
        smoothings = sum(map(check_every_crossing, inputs))
        kinds = Counter()
        # removals at every place of every input, growth at every place
        # of every twelfth
        moves = sum(check_every_move(d, i % 12 == 0)
                    for i, d in enumerate(inputs))
        # chains of switches and smoothings, six or more deep
        chained = 0
        for i, d in enumerate(inputs[::4]):
            rng = random.Random(i)
            depth = 0
            while d.n_crossings and depth < 8:
                ci = rng.randrange(d.n_crossings)
                d = (d.crossing_change(ci) if rng.random() < 0.4
                     else d.smooth_with_map(ci)[0])
                depth += 1
                smoothings += check_every_crossing(d)
            chained += depth >= 6
        assert chained >= 20
        assert smoothings > 9_000
        assert moves > 8_000 and len(kinds) == 5, kinds

    def test_only_pd_parsing_validates(self, monkeypatch):
        calls = []
        derive = Diagram._derive
        monkeypatch.setattr(Diagram, "_derive", lambda self, crossings:
                            calls.append(self) or derive(self, crossings))
        parse_diagram("braid(5; 1 -2 3 3 -1 2 -4)")
        braid_to_diagram(3, [-1, -1])
        assert calls == []
        parse_diagram(HOPF_PD)
        assert len(calls) == 1


class TestBraids:
    def test_trefoil_closure(self):
        d = braid_to_diagram(2, [1, 1, 1])
        assert (d.component_count, d.writhe) == (1, 3)

    def test_hopf_closure_matches_pd(self):
        d = braid_to_diagram(2, [1, 1])
        assert d.canonical_encode() == parse_pd(HOPF_PD).canonical_encode()

    def test_empty_braid_is_unknot(self):
        d = braid_to_diagram(1, [])
        assert (d.n_crossings, d.free_loops) == (0, 1)

    def test_figure_eight_balanced(self):
        d = braid_to_diagram(3, [1, -2, 1, -2])
        assert (d.component_count, d.writhe, d.n_crossings) == (1, 0, 4)

    def test_letter_out_of_range(self):
        with pytest.raises(DiagramError):
            braid_to_diagram(2, [2])
        with pytest.raises(DiagramError):
            braid_to_diagram(0, [])

    @given(st.integers(1, 4), st.lists(st.sampled_from(
        [1, -1, 2, -2, 3, -3]), max_size=7))
    @settings(max_examples=80, deadline=None)
    def test_closure_against_permutation_oracle(self, n, letters):
        letters = [x for x in letters if abs(x) < n]
        d = braid_to_diagram(n, letters)
        assert d.component_count == braid_components(n, letters)
        assert d.writhe == sum(1 if x > 0 else -1 for x in letters)
        assert parse_pd(d.pd_text()) == d


class TestCanonicalEncode:
    def test_unknot(self):
        assert parse_pd("PD[]+O^1").canonical_encode() == "PD[]+O^1"

    def test_label_shift_quotiented(self):
        shifted = "PD[X[2,5,3,6],X[4,1,5,2],X[6,3,1,4]]"
        assert parse_pd(shifted).canonical_encode() == \
            parse_pd(TREFOIL_PD).canonical_encode()

    def test_mirror_distinguished(self):
        d = parse_pd(TREFOIL_PD)
        assert d.canonical_encode() != d.mirror().canonical_encode()

    def test_reparse_idempotent(self, corpus, diagrams):
        for entry in corpus:
            canon = diagrams[entry.name].canonical_encode()
            assert parse_diagram(canon).canonical_encode() == canon

    def test_codes_match_the_reference_encoder(self, corpus):
        # corpus entries, their mirrors, seeded perturbations, every
        # smoothing of those, braid closures with unused strands, and
        # circles whose direction the labels leave open
        from skeinalg.moves import random_perturb

        ds = []
        for entry in corpus:
            d = entry.diagram()
            ds += [d, d.mirror()]
            ds += [random_perturb(d, seed=s, steps=15, cap=14)[0]
                   for s in range(3)]
        ds += [d.smooth_with_map(ci)[0]
               for d in list(ds) for ci in range(d.n_crossings)]
        rng = random.Random(15)
        for _ in range(300):
            n = rng.randint(1, 6)
            gens = [i for i in range(1, n) if rng.random() < 0.7]
            letters = [rng.choice((1, -1)) * rng.choice(gens)
                       for _ in range(rng.randint(0, 12) if gens else 0)]
            ds.append(braid_to_diagram(n, letters))
        ds += [parse_pd(text) for text in (
            "PD[X[1,3,2,4],X[2,3,1,4]]", "PD[X[1,4,2,3],X[2,4,1,3]]",
            "PD[X[1,2,3,4],X[3,2,1,4]]+O^2")]
        assert sum(d.free_loops > 0 and d.n_crossings > 0 for d in ds) > 100
        assert len(ds) > 2_000
        for d in ds:
            assert d.canonical_encode() == _reference_encode(d), d

    def test_only_the_least_first_rows_are_walked(self, corpus,
                                                  monkeypatch):
        # each root's first sorted row is read off positions, and only
        # the roots whose first row is least are traversed: 78 of the
        # 162 roots of the corpus
        calls = []
        real = skeinalg.diagram._rooted_rows
        monkeypatch.setattr(skeinalg.diagram, "_rooted_rows",
                            lambda *args: calls.append(args[3])
                            or real(*args))
        for entry in corpus:
            entry.diagram().canonical_encode()
        assert len(calls) == 78
        assert sum(e.diagram().n_crossings for e in corpus) == 162

    def test_walked_roots_are_those_whose_first_row_is_least(
            self, corpus, monkeypatch):
        # the first rows read off positions pick exactly the roots whose
        # traversal gives the least first row, on every piece
        from skeinalg.moves import random_perturb

        real = skeinalg.diagram._rooted_rows
        walked = {}

        def spy(mate, over_in, cis, root):
            walked.setdefault(tuple(cis), (mate, over_in, set()))[2].add(root)
            return real(mate, over_in, cis, root)

        monkeypatch.setattr(skeinalg.diagram, "_rooted_rows", spy)
        ds = [parse_pd(text) for text in (
            # a two-edge circle over a two-edge circle, a curl
            "PD[X[1,3,2,4],X[2,3,1,4]]", "PD[X[1,1,2,2]]",
            "PD[X[1,2,3,4],X[3,2,1,4]]+O^2")]
        for entry in corpus:
            d = entry.diagram()
            ds += [d, d.mirror()]
            ds += [random_perturb(d, seed=s, steps=15, cap=14)[0]
                   for s in range(3)]
        ds += [braid_to_diagram(n, [i for i in (1, -2, 3, 3, -1, 2)
                                    if abs(i) < n]) for n in range(1, 6)]
        for d in ds:
            walked.clear()
            d.canonical_encode()
            for cis, (mate, over_in, roots) in walked.items():
                firsts = {r: real(mate, over_in, cis, r)[0] for r in cis}
                least = min(firsts.values())
                assert roots == {r for r in cis if firsts[r] == least}, d

    def test_construction_paths_converge(self, diagrams):
        # a plat closure and a braid closure of the same knot landed on
        # the identical labeled diagram; the encoder must agree
        assert diagrams["3_1"].canonical_encode() == \
            diagrams["trefoil-"].canonical_encode()


def _relabeled(d, rng):
    """`d` with its components in a shuffled order, each starting at a
    random edge, and its crossings shuffled."""
    comps = list(d.components)
    rng.shuffle(comps)
    lab = {}
    for comp in comps:
        k = rng.randrange(len(comp))
        for e in comp[k:] + comp[:k]:
            lab[e] = len(lab) + 1
    crossings = [tuple(lab[x] for x in cr) for cr in d.crossings]
    rng.shuffle(crossings)
    return Diagram(crossings, d.free_loops)


def _disjoint_union(first, second):
    """PD of `first` beside `second`, the second's labels shifted past
    the first's."""
    shift = 2 * first.n_crossings
    crossings = list(first.crossings) + [
        tuple(x + shift for x in cr) for cr in second.crossings]
    return Diagram(crossings, first.free_loops + second.free_loops)


def _same_partition(codes_a, codes_b):
    """Whether two code lists put the same pairs of positions together."""
    n = len(codes_a)
    return all((codes_a[i] == codes_a[j]) == (codes_b[i] == codes_b[j])
               for i in range(n) for j in range(i + 1, n))


braid_words = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sampled_from(
        [x for i in range(1, n) for x in (i, -i)] or [1]),
        max_size=10 if n > 1 else 0)))


class TestRootedSignature:
    """The rooted-traversal code against the exhaustive relabeling
    search of `oracles.exhaustive_encode`."""

    @given(st.lists(braid_words, min_size=2, max_size=5),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_same_equivalence_as_exhaustive_oracle(self, words, rng):
        ds = [braid_to_diagram(n, letters) for n, letters in words]
        # a relabeled copy, so every draw has a pair that must coincide
        ds.append(_relabeled(ds[0], rng))
        assert _same_partition([d.canonical_encode() for d in ds],
                               [exhaustive_encode(d) for d in ds])

    def test_corpus_equivalence_matches_oracle(self, corpus, diagrams):
        ds = [diagrams[e.name] for e in corpus]
        assert _same_partition([d.canonical_encode() for d in ds],
                               [exhaustive_encode(d) for d in ds])

    @given(braid_words, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_relabeling(self, word, rng):
        d = braid_to_diagram(*word)
        assert _relabeled(d, rng).canonical_encode() == d.canonical_encode()

    def test_circle_of_free_direction_read_either_way(self):
        # a two-edge circle lying over another: which crossing it enters
        # first is a free choice, fixed here by the labels
        a = parse_pd("PD[X[1,3,2,4],X[2,3,1,4]]")
        b = parse_pd("PD[X[1,4,2,3],X[2,4,1,3]]")
        assert a.over_in != b.over_in
        assert a.canonical_encode() == b.canonical_encode()
        assert exhaustive_encode(a) == exhaustive_encode(b)

    def test_split_diagram_any_piece_first(self):
        trefoil = parse_pd(TREFOIL_PD)
        hopf = parse_pd(HOPF_PD)
        ab = _disjoint_union(trefoil, hopf)
        ba = _disjoint_union(hopf, trefoil)
        assert ab.component_count == 3
        code = ab.canonical_encode()
        assert ba.canonical_encode() == code
        assert parse_pd(code).canonical_encode() == code
        assert code != \
            _disjoint_union(trefoil, hopf.mirror()).canonical_encode()

    def test_eight_ring_chain_is_fast(self):
        d = parse_diagram(
            "braid(8; " + " ".join(f"{i} {i}" for i in range(1, 8)) + ")")
        assert d.component_count == 8
        t0 = time.perf_counter()
        code = d.canonical_encode()
        assert time.perf_counter() - t0 < 0.25
        assert parse_pd(code).canonical_encode() == code
        assert _relabeled(d, random.Random(8)).canonical_encode() == code


class TestValidation:
    def test_immutable(self):
        d = parse_pd(HOPF_PD)
        with pytest.raises(AttributeError):
            d.free_loops = 5

    def test_transition_claimed_twice_rejected(self):
        # two crossings each claim the same under-strand step 1 -> 2
        with pytest.raises(DiagramError, match="claimed twice"):
            parse_pd("PD[X[1,3,2,4],X[1,3,2,4]]")

    def test_one_crossing_curl_is_valid(self):
        d = parse_pd("PD[X[1,1,2,2]]")
        assert (d.n_crossings, d.component_count) == (1, 1)
        assert d.writhe == 1

    def test_consistent_but_nonplanar_code_is_refused(self):
        # two one-edge circles meeting at a single crossing: every label
        # occurs twice and orientations chain, so only the planarity
        # check can refuse it, and it does, at construction
        with pytest.raises(DiagramError, match="^PD code is not planar"):
            parse_pd("PD[X[1,2,1,2]]")

    def test_negative_free_loops(self):
        with pytest.raises(DiagramError):
            Diagram([], -1)

    def test_empty_pd_parses(self):
        d = parse_pd("PD[]")
        assert (d.n_crossings, d.free_loops, d.component_count) == (0, 0, 0)
