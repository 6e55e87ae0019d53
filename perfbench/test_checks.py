"""The benchmark's checks accept the engine and reject a wrong one.

    python3 -m pytest -q perfbench
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from skeinalg import (bundled_catalog, evaluate, make_algebra,  # noqa: E402
                      parse_diagram, skein)
from skeinalg.algebra import OpKind  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import random_word, braid_text  # noqa: E402

SPECS = [("classic3", None), ("homflypt", None), ("gen-conway", None),
         ("gen-homflypt", None), ("nonlinear", 1), ("nonlinear", 2)]


def _terms(value):
    return checks.poly_terms(value.table.names, value.terms)


@pytest.mark.parametrize("name,k", SPECS)
def test_engine_passes_on_the_corpus(name, k):
    alg = make_algebra(name, k)
    for entry in bundled_catalog():
        value = evaluate(entry.diagram(), alg)
        pres = checks.presentation(entry.pd)
        checks.check_value(name, _terms(value), pres)
        checks.check_value(name, checks.parse_rendered(alg.render(value)),
                           pres)


def test_engine_passes_on_random_braid_closures():
    rng = random.Random(7)
    algs = [make_algebra("gen-conway"), make_algebra("homflypt")]
    for _ in range(40):
        n = rng.choice((3, 4))
        crossings = rng.randrange(4, 11)
        comps = rng.choice([c for c in range(1, n + 1)
                            if (n - c - crossings) % 2 == 0])
        negatives = rng.randrange(crossings)
        text = braid_text(n, random_word(rng, n, crossings, comps, negatives))
        d = parse_diagram(text)
        for alg in algs:
            terms = _terms(evaluate(d, alg))
            # the braid word and the engine's PD code of its closure
            checks.check_value(alg.name, terms, checks.presentation(text))
            checks.check_value(alg.name, terms,
                               checks.presentation(d.pd_text()))


def test_qr_check_rejects_mixed_crossings_taking_the_self_pair(monkeypatch):
    monkeypatch.setattr(
        skein, "_branch_ops",
        lambda sign, kind: OpKind.CIRC if sign > 0 else OpKind.SLASH)
    alg = make_algebra("gen-conway")
    caught = []
    for entry in bundled_catalog():
        value = evaluate(entry.diagram(), alg)
        try:
            checks.check_value("gen-conway", _terms(value),
                               checks.presentation(entry.pd))
        except checks.CheckFailure as exc:
            # q and r both become z, so only the balance can tell
            assert "q.r balance" in str(exc)
            caught.append(entry.name)
    assert "trefoil+" in caught
    assert len(caught) == 30


@pytest.mark.parametrize("name,k", SPECS)
def test_alexander_check_rejects_one_changed_coefficient(name, k):
    alg = make_algebra(name, k)
    zeros = checks.SPECIALISE[name][2]
    for entry in bundled_catalog():
        terms = _terms(evaluate(entry.diagram(), alg))
        # change a term that survives the specialisation (classic3 sends
        # its z to 0)
        kept = [i for i, (_, exps) in enumerate(terms)
                if not any(exps.get(v, 0) > 0 for v in zeros)]
        if not kept:
            continue
        wrong = list(terms)
        coeff, exps = wrong[kept[0]]
        wrong[kept[0]] = (coeff + 1, exps)
        # either the specialisation stops being a polynomial or it no
        # longer matches the Alexander polynomial
        with pytest.raises(checks.CheckFailure, match="Conway"):
            checks.check_value(name, wrong, checks.presentation(entry.pd))


def test_tracer_counts_the_memo_and_restores_the_engine():
    import skeinalg
    d = parse_diagram("braid(3; 1 1 2 1 2 2 1)")
    alg = make_algebra("gen-conway")
    original = skeinalg.evaluate
    tracer = Tracer()
    tracer.install()
    try:
        memo = {}
        skeinalg.evaluate(d, alg, memo=memo)
        skeinalg.evaluate(d, alg, memo=memo)
    finally:
        tracer.uninstall()
    assert skeinalg.evaluate is original
    metrics = tracer.layer_metrics()
    assert metrics["skein.nodes"] == len(memo)
    assert metrics["skein.lookups"] == len(memo) + tracer.maps["hits"]
    assert tracer.calls["skein.evaluate"] == 2
    assert metrics["algebra.apply_calls"] > 0
    assert 0 <= metrics["skein.self_s"] <= sum(
        end - start for _, name, start, end, _ in tracer.spans
        if name == "skein.evaluate")
