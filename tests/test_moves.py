"""Local moves: face census, event grammar, detection, fuzzing, untangling."""

import hashlib

import pytest

import skeinalg.moves
from skeinalg.algebra import make_algebra
from skeinalg.diagram import braid_to_diagram, parse_pd
from skeinalg.moves import (MoveError, MoveEvent, apply_move, euler_ok,
                            face_edges, faces, find_moves, parse_event,
                            random_perturb, replay_events, trivialize,
                            _growth_events, _reducing_event, _search_unlock)
from skeinalg.skein import evaluate

TREFOIL_PD = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
HOPF_PD = "PD[X[1,3,2,4],X[3,1,4,2]]"

GC = make_algebra("gen-conway")


class TestFaces:
    def test_trefoil_census(self):
        d = parse_pd(TREFOIL_PD)
        assert sorted(len(f) for f in faces(d)) == [2, 2, 2, 3, 3]

    def test_curl_census(self):
        d = parse_pd("PD[X[1,1,2,2]]")
        assert sorted(len(f) for f in faces(d)) == [1, 1, 2]

    def test_hopf_census(self):
        d = parse_pd(HOPF_PD)
        assert sorted(len(f) for f in faces(d)) == [2, 2, 2, 2]

    def test_every_dart_in_exactly_one_face(self, diagrams):
        for d in diagrams.values():
            seen = [dart for f in faces(d) for dart in f]
            assert len(seen) == 4 * d.n_crossings
            assert len(set(seen)) == len(seen)

    def test_connected_diagrams_satisfy_euler(self):
        for text in (TREFOIL_PD, HOPF_PD, "PD[X[1,1,2,2]]"):
            d = parse_pd(text)
            assert len(faces(d)) == d.n_crossings + 2
            assert euler_ok(d)

    def test_face_edges_lists_border_labels(self):
        d = parse_pd(HOPF_PD)
        for f in faces(d):
            labs = face_edges(d, f)
            assert len(labs) == len(f)
            assert all(lab in d.comp_of for lab in labs)

    def test_nonplanar_code_flagged(self):
        assert not euler_ok(parse_pd("PD[X[1,2,1,2]]"))


class TestEventGrammar:
    ROUND_TRIP = [
        "R1-@c3", "R2-@f1", "R3@f7", "R1+@e5/+o", "R1+@e12/-u",
        "R1+@O/+u", "R2+@e3/e9", "CC@c0", "RLT@comp2",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIP)
    def test_round_trip(self, text):
        assert str(parse_event(text)) == text

    def test_whitespace_tolerated(self):
        assert str(parse_event("  CC@c4 ")) == "CC@c4"

    def test_garbage_rejected(self):
        with pytest.raises(MoveError, match="cannot parse"):
            parse_event("R4@c1")

    def test_apply_accepts_text(self):
        d = parse_pd(TREFOIL_PD)
        assert apply_move(d, "CC@c1") == d.crossing_change(1)


class TestApplyValidation:
    def test_r1_minus_needs_a_curl(self):
        with pytest.raises(MoveError, match="not a curl"):
            apply_move(parse_pd(TREFOIL_PD), "R1-@c0")

    def test_r2_minus_needs_removable_clasp(self):
        # hopf bigons are clasps held by same-sign crossings
        with pytest.raises(MoveError, match="not a removable clasp"):
            apply_move(parse_pd(HOPF_PD), "R2-@f0")

    def test_face_index_bounds(self):
        with pytest.raises(MoveError, match="no face"):
            apply_move(parse_pd(HOPF_PD), "R3@f99")

    def test_crossing_index_bounds(self):
        with pytest.raises(MoveError, match="no crossing"):
            apply_move(parse_pd(HOPF_PD), "CC@c2")

    def test_rlt_needs_a_circle(self):
        with pytest.raises(MoveError, match="no crossingless circle"):
            apply_move(parse_pd(HOPF_PD), "RLT@comp1")

    def test_rlt_is_a_recording_noop(self):
        d = parse_pd("PD[]+O^2")
        assert apply_move(d, "RLT@comp2") == d

    def test_r2_plus_needs_two_edges(self):
        with pytest.raises(MoveError, match="must differ"):
            apply_move(parse_pd(HOPF_PD), "R2+@e1/e1")

    def test_r2_plus_needs_shared_face(self):
        d = parse_pd(TREFOIL_PD)
        borders = set()
        for f in faces(d):
            labs = list(face_edges(d, f))
            for x in labs:
                for y in labs:
                    borders.add((x, y))
        strangers = [(x, y) for x in d.comp_of for y in d.comp_of
                     if x != y and (x, y) not in borders]
        assert strangers
        x, y = strangers[0]
        with pytest.raises(MoveError, match="common face"):
            apply_move(d, f"R2+@e{x}/e{y}")

    def test_r1_plus_unknown_edge(self):
        with pytest.raises(MoveError, match="no edge"):
            apply_move(parse_pd(HOPF_PD), "R1+@e99/+o")

    def test_r1_plus_loop_needs_circle(self):
        with pytest.raises(MoveError, match="no crossingless circle"):
            apply_move(parse_pd(HOPF_PD), "R1+@O/+o")


class TestDetection:
    def test_hopf_offers_nothing(self):
        assert find_moves(parse_pd(HOPF_PD)) == []

    def test_trefoil_offers_nothing(self):
        assert find_moves(parse_pd(TREFOIL_PD)) == []

    def test_curl_offers_r1(self):
        evs = find_moves(parse_pd("PD[X[1,1,2,2]]"))
        assert [str(e) for e in evs] == ["R1-@c0"]

    def test_circles_offer_rlt(self):
        evs = find_moves(parse_pd("PD[]+O^2"))
        assert [str(e) for e in evs] == ["RLT@comp1", "RLT@comp2"]

    def test_cancelling_clasp_offers_r2(self):
        clasp = braid_to_diagram(2, [1, -1])
        kinds = {e.kind for e in find_moves(clasp)}
        assert "R2-" in kinds

    def test_every_offered_move_applies_cleanly(self, diagrams):
        for name, d in diagrams.items():
            if d.n_crossings > 7:
                continue
            want = evaluate(d, GC)
            for ev in find_moves(d):
                out = apply_move(d, ev)
                assert euler_ok(out), (name, str(ev))
                assert evaluate(out, GC) == want, (name, str(ev))
                # textual form replays to the same diagram
                assert apply_move(d, str(ev)) == out


class TestGrowth:
    @pytest.mark.parametrize("text", [HOPF_PD, TREFOIL_PD, "PD[]+O^1"])
    def test_growth_invariant_planar_reversible(self, text):
        d = parse_pd(text)
        want = evaluate(d, GC)
        key = d.canonical_encode()
        for ev in _growth_events(d, cap=14, fs=faces(d)):
            g = apply_move(d, ev)
            grown = {"R1+": 1, "R2+": 2}[ev.kind]
            assert g.n_crossings == d.n_crossings + grown
            assert euler_ok(g), str(ev)
            assert evaluate(g, GC) == want, str(ev)
            undo = [e for e in find_moves(g) if e.kind in ("R1-", "R2-")]
            assert any(apply_move(g, e).canonical_encode() == key
                       for e in undo), str(ev)

    def test_cap_withholds_growth(self):
        d = parse_pd(TREFOIL_PD)
        assert _growth_events(d, cap=3, fs=faces(d)) == []
        only_r1 = _growth_events(d, cap=4, fs=faces(d))
        assert only_r1 and all(e.kind == "R1+" for e in only_r1)


class TestR3:
    def _diagrams_with_slides(self, diagrams):
        out = []
        for name in ("trefoil+", "hopf+", "fig8"):
            for seed in range(8):
                d, _ = random_perturb(diagrams[name], seed, 10)
                if any(e.kind == "R3" for e in find_moves(d)):
                    out.append(d)
                    if len(out) >= 4:
                        return out
        return out

    def test_slides_preserve_value_and_return(self, diagrams):
        cases = self._diagrams_with_slides(diagrams)
        assert cases, "no perturbed diagram exposed a triangle slide"
        for d in cases:
            key = d.canonical_encode()
            want = evaluate(d, GC)
            for ev in (e for e in find_moves(d) if e.kind == "R3"):
                slid = apply_move(d, ev)
                assert slid.n_crossings == d.n_crossings
                assert euler_ok(slid)
                assert evaluate(slid, GC) == want
                # some slide on the new diagram undoes this one
                assert any(
                    apply_move(slid, e2).canonical_encode() == key
                    for e2 in find_moves(slid) if e2.kind == "R3"
                )


class TestPerturb:
    def test_deterministic_in_seed(self, diagrams):
        d = diagrams["fig8"]
        a_fin, a_ev = random_perturb(d, seed=5, steps=12)
        b_fin, b_ev = random_perturb(d, seed=5, steps=12)
        assert [str(e) for e in a_ev] == [str(e) for e in b_ev]
        assert a_fin == b_fin

    def test_events_replay_to_final(self, diagrams):
        d = diagrams["trefoil+"]
        fin, evs = random_perturb(d, seed=9, steps=15)
        assert replay_events(d, evs) == fin

    def test_cap_respected_along_the_way(self, diagrams):
        d = diagrams["fig8"]
        for seed in range(6):
            _, evs = random_perturb(d, seed=seed, steps=15, cap=7)
            cur = d
            for ev in evs:
                cur = apply_move(cur, ev)
                assert cur.n_crossings <= 7

    def test_value_invariant(self, diagrams):
        d = diagrams["whitehead"]
        want = evaluate(d, GC)
        for seed in range(4):
            fin, _ = random_perturb(d, seed=seed, steps=12)
            assert evaluate(fin, GC) == want

    def test_walk_is_pinned(self, corpus):
        # digest of the event strings that the perturbation walk took
        # before faces were shared between the move finders
        h = hashlib.sha256()
        for seed in range(3):
            for entry in corpus:
                _, evs = random_perturb(entry.diagram(), seed=seed, steps=15,
                                        cap=14)
                h.update(f"{entry.name}:{' '.join(map(str, evs))}\n".encode())
        assert h.hexdigest() == ("dceb92157ce3c19411503ca9a375aba6"
                                 "afee3ecc441874483610ca3d4515e827")

    def test_faces_once_per_step(self, corpus, monkeypatch):
        # one census per step, shared by the move finders and the
        # applied move
        calls = []
        real = skeinalg.moves.faces
        monkeypatch.setattr(skeinalg.moves, "faces",
                            lambda d: calls.append(d) or real(d))
        steps = 0
        for seed in range(10):
            for entry in corpus:
                random_perturb(entry.diagram(), seed=seed, steps=15, cap=14)
                steps += 15
        assert len(calls) == steps == 4950


class TestTrivialize:
    def test_trefoil_certificate(self, diagrams):
        evs = [str(e) for e in trivialize(diagrams["trefoil+"])]
        assert evs == ["CC@c0", "R2-@f1", "R1-@c0", "RLT@comp1"]

    def test_corpus_reaches_crossingless(self, diagrams):
        for name, d in diagrams.items():
            evs = trivialize(d)
            fin = replay_events(d, evs)
            assert fin.n_crossings == 0, name
            assert fin.component_count == d.component_count, name
            assert all(e.kind != "R1+" and e.kind != "R2+" for e in evs), name

    def test_crossing_count_never_rises(self, diagrams):
        for name, d in diagrams.items():
            cur = d
            for ev in trivialize(d):
                nxt = apply_move(cur, ev)
                assert nxt.n_crossings <= cur.n_crossings, (name, str(ev))
                if ev.kind in ("R1-", "R2-"):
                    assert nxt.n_crossings < cur.n_crossings, (name, str(ev))
                cur = nxt

    def test_search_budget_is_a_move_error(self, diagrams, monkeypatch):
        monkeypatch.setattr(skeinalg.moves, "_SEARCH_LIMIT", 0)
        with pytest.raises(MoveError, match="search budget"):
            _search_unlock(diagrams["trefoil+"])

    def test_reducing_event_shrinks(self, diagrams):
        # corpus entries are already reduced, so _reducing_event finds
        # nothing on them; build reducible diagrams explicitly
        for d in diagrams.values():
            assert _reducing_event(d) is None
        for d in (braid_to_diagram(2, [1, -1]), parse_pd("PD[X[1,1,2,2]]")):
            ev = _reducing_event(d)
            assert ev is not None and ev.kind in ("R1-", "R2-")
            assert apply_move(d, ev).n_crossings < d.n_crossings
