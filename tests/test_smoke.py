"""Smoke checks: every demo runs to completion and prints its pinned
output, the engine's outputs on the corpus are pinned, and the package
exports exactly its public surface."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skeinalg
from skeinalg import (ALGEBRA_NAMES, Diagram, OpKind, bundled_catalog,
                      evaluate, make_algebra, random_perturb, replay, skein,
                      trace, trivialize)
from skeinalg.cli import ENGINE

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's standard output; the demos print the same bytes
# whatever PYTHONHASHSEED is
DEMO_SHA256 = {
    "axiom_reports":
        "8097a5f58525afb4ec9bc41dbef50569e7fd52c8bb23e34a675ea06f9eba42b3",
    "canonical_codes":
        "8f1b4d4863f97b8a8a297303abe6dd08b476a0d3b65742c653d42dd4d3bfa6aa",
    "corpus_table":
        "3c768021142f76382853b165ff681767421577a79b82ea1c1f77b9ce8f3187e4",
    "move_fuzzing":
        "70f6cfb98c133ac6d4d9d1deb07e8648bd8f25b7297473c9d09c8fe2948b9679",
    "skein_tree":
        "6c70654d0171c681fc080007d295ec25f635dfee78a3a71654a33a453e644087",
    "specializations":
        "bc204a75e8e00357a3560b6e0b4e525639c8d4d351be37926a8ff9c80944da88",
    "untangling":
        "0170814747a8a2794443c35bd16e7c77d5875f25eabbf04946e480e555cb6b03",
    "values_tour":
        "4d490d9b3f1f22937484eafebf7b7035043b36fe837d130bbacce9717f4f8bb0",
}

# sha256 of three texts over the corpus and 6 seeded `random_perturb`
# walks of each entry (15 steps, cap 14): the values rendered by each of
# the five algebras, through `evaluate` and through `replay` of the
# diagram's trace; the PD text and canonical code of each diagram; and
# the `trivialize` certificate of each corpus entry.  They read the same
# whatever PYTHONHASHSEED is.
CORPUS_SHA256 = {
    "values":
        "f1b30521cf698a950b7270176fefe085b3f4505cbd42c9acd8ea5b2e4b3163dd",
    "codes":
        "c0521f63df24983ff79ef56a225a913ce1a09c534ca80844700e61550a8c5f60",
    "certificates":
        "75dfe2f1024a71e0f42a3e29fe7cb9ad6d6a1df532d5ae89c7299e520dfe688c",
}

PUBLIC = {
    "ALGEBRA_NAMES", "AlgebraError", "AxiomCheck", "AxiomReport",
    "CatalogError", "ConwayAlgebraSpec", "CorpusEntry", "Diagram",
    "DiagramError", "LaurentError", "LaurentPoly", "MAX_CROSSINGS",
    "Marking", "MoveError", "MoveEvent", "OpKind", "PDSyntaxError",
    "SkeinError", "TraceBranch", "TraceLeaf", "VarTable", "apply_move",
    "bad_crossings", "braid_to_diagram", "bundled_catalog",
    "check_axioms", "default_marking", "euler_ok",
    "evaluate", "faces", "find_moves", "load_catalog", "lookup",
    "make_algebra", "parse_diagram", "parse_event", "parse_pd",
    "random_perturb", "replay", "replay_events", "trace", "trivialize",
    "__version__",
}

# aliases and dead helpers removed from the 0.1.0 surface
REMOVED = [
    (skeinalg, "evaluate_with"),
    (skein, "evaluate_with"),
    (skein, "_evaluate"),
    (skein, "_trace"),
    (Diagram, "smooth"),
    (Diagram, "sign"),
    (Diagram, "over_out_slot"),
    (Diagram, "in_slots"),
    (OpKind, "inverse_kind"),
    (Diagram, "pred"),
    (Diagram, "succ"),
]


def test_eight_demos():
    assert len(DEMOS) == 8
    assert [p.stem for p in DEMOS] == sorted(DEMO_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[demo.stem]


def test_corpus_outputs_are_pinned():
    algebras = [make_algebra(name) for name in ALGEBRA_NAMES]
    digest = {key: hashlib.sha256() for key in CORPUS_SHA256}
    for entry in bundled_catalog():
        d = entry.diagram()
        events = " ".join(map(str, trivialize(d)))
        digest["certificates"].update(f"{entry.name}: {events}\n".encode())
        for seed in (None, *range(6)):
            moved = (d if seed is None
                     else random_perturb(d, seed=seed, steps=15, cap=14)[0])
            digest["codes"].update(
                f"{moved.pd_text()} {moved.canonical_encode()}\n".encode())
            tree = trace(moved)
            for alg in algebras:
                digest["values"].update(
                    f"{alg.render(evaluate(moved, alg))} "
                    f"{alg.render(replay(tree, alg))}\n".encode())
    assert {key: h.hexdigest() for key, h in digest.items()} == CORPUS_SHA256


def test_one_version_string():
    # the package metadata and the cache records' engine tag both read
    # `__version__`
    import tomllib

    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "skeinalg.__version__"}
    assert ENGINE == f"skeinalg/{skeinalg.__version__}" == "skeinalg/0.2.0"


def test_all_is_the_public_surface():
    assert len(skeinalg.__all__) == len(set(skeinalg.__all__))
    assert set(skeinalg.__all__) == PUBLIC
    for name in skeinalg.__all__:
        assert hasattr(skeinalg, name), name


@pytest.mark.parametrize("owner,name", REMOVED,
                         ids=[f"{getattr(o, '__name__', o)}.{n}"
                              for o, n in REMOVED])
def test_removed_name_is_gone(owner, name):
    assert not hasattr(owner, name)
