"""Smoke checks: every demo runs to completion, and the package exports
exactly its public surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import skeinalg
from skeinalg import Diagram, OpKind, skein
from skeinalg.cli import ENGINE

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
