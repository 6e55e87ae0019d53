"""Skein-recursion link invariants valued in pluggable Conway algebras.

The library computes an invariant of oriented link diagrams by resolving
crossings against a marked traversal: every crossing first met on its
under-strand is either switched or smoothed, and the two branch values
are combined by one of four algebra operations chosen by the crossing's
sign and whether its strands belong to one component or two.  Crossing-
free diagrams take the algebra's unit value for their circle count.
One resolver runs this recursion: `evaluate` combines values as it goes,
and `trace` records the tree, which `replay` values in any algebra.
`evaluate` values a braid closure on its braid word instead, with the
same operations; for a fixed strand count its cost grows polynomially
with the word length, and with the factorial of the strand count.

Entry points:

    parse_diagram / braid_to_diagram   build diagrams
    make_algebra / check_axioms        pick and verify a value algebra
    evaluate / trace / replay          run the recursion
    find_moves / apply_move            Reidemeister rewriting
    random_perturb / trivialize        invariance fuzzing, untangling
    load_catalog / bundled_catalog     the shipped diagram corpus
"""

from .algebra import (ALGEBRA_NAMES, AlgebraError, AxiomCheck, AxiomReport,
                      ConwayAlgebraSpec, OpKind, check_axioms, make_algebra)
from .catalog import (CatalogError, CorpusEntry, bundled_catalog,
                      load_catalog, lookup)
from .diagram import (Diagram, DiagramError, PDSyntaxError, braid_to_diagram,
                      euler_ok, parse_diagram, parse_pd)
from .laurent import LaurentError, LaurentPoly, VarTable
from .moves import (MoveError, MoveEvent, apply_move, faces, find_moves,
                    parse_event, random_perturb, replay_events, trivialize)
from .skein import (MAX_CROSSINGS, Marking, SkeinError, TraceBranch,
                    TraceLeaf, bad_crossings, default_marking, evaluate,
                    replay, trace)

__version__ = "0.2.0"

__all__ = [
    "ALGEBRA_NAMES", "AlgebraError", "AxiomCheck", "AxiomReport",
    "CatalogError", "ConwayAlgebraSpec", "CorpusEntry", "Diagram",
    "DiagramError", "LaurentError", "LaurentPoly", "MAX_CROSSINGS",
    "Marking", "MoveError", "MoveEvent", "OpKind", "PDSyntaxError",
    "SkeinError", "TraceBranch", "TraceLeaf", "VarTable", "apply_move",
    "bad_crossings", "braid_to_diagram", "bundled_catalog",
    "check_axioms", "default_marking", "euler_ok",
    "evaluate", "faces", "find_moves", "load_catalog",
    "lookup", "make_algebra", "parse_diagram", "parse_event", "parse_pd",
    "random_perturb", "replay", "replay_events", "trace", "trivialize",
    "__version__",
]
