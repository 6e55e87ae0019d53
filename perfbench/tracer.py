"""Spans around the calls into each module of skeinalg, from outside it.

`Tracer.install` replaces each entry point below, wherever a skeinalg
module binds it, by a wrapper that opens a span, calls the original and
closes the span; `uninstall` puts the originals back.  A span records its
name, start, end and parent.  Self times are folded in as spans close: a
span's self time is its length minus the length of its child spans.  A
call of a function from inside its own span (the recursion of `replay`)
is folded into that span.

The memo and node maps that callers pass to `evaluate`, `trace` and
`replay` are seen through a counting view, so nodes stored and lookups
made are exact counts, not samples.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

# (module, qualified name, span name)
ENTRY_POINTS = [
    ("skeinalg.diagram", "Diagram.__init__", "diagram.init"),
    ("skeinalg.diagram", "Diagram._trusted", "diagram.trusted"),
    ("skeinalg.diagram", "Diagram.crossing_change", "diagram.crossing_change"),
    ("skeinalg.diagram", "Diagram.smooth_with_map", "diagram.smooth_with_map"),
    ("skeinalg.diagram", "Diagram.canonical_encode",
     "diagram.canonical_encode"),
    ("skeinalg.diagram", "parse_diagram", "diagram.parse_diagram"),
    ("skeinalg.skein", "evaluate", "skein.evaluate"),
    ("skeinalg.skein", "trace", "skein.trace"),
    ("skeinalg.skein", "replay", "skein.replay"),
    ("skeinalg.algebra", "ConwayAlgebraSpec.apply", "algebra.apply"),
    ("skeinalg.laurent", "LaurentPoly.__add__", "laurent.add"),
    ("skeinalg.laurent", "LaurentPoly.__sub__", "laurent.sub"),
    ("skeinalg.laurent", "LaurentPoly.__neg__", "laurent.neg"),
    ("skeinalg.laurent", "LaurentPoly.__mul__", "laurent.mul"),
    ("skeinalg.laurent", "LaurentPoly.__pow__", "laurent.pow"),
    ("skeinalg.moves", "random_perturb", "moves.random_perturb"),
    ("skeinalg.moves", "find_moves", "moves.find_moves"),
    ("skeinalg.moves", "faces", "moves.faces"),
    ("skeinalg.moves", "apply_move", "moves.apply_move"),
    ("skeinalg.catalog", "load_catalog", "catalog.load_catalog"),
    ("skeinalg.cli", "main", "cli.main"),
    ("skeinalg.cli", "result_record", "cli.result_record"),
    ("skeinalg.cli", "_cache_read", "cli.cache_read"),
]

# spans kept for the dump; later ones are only counted
MAX_SPANS = 100_000

# the argument of each function that holds its node map
MAP_ARGS = {"skein.evaluate": "memo", "skein.trace": "shared",
            "skein.replay": "memo"}

# per-layer metric -> (unit, better); README.md says what each one counts
LAYER_METRICS = {
    "skein.nodes": ("count", "lower"),
    "skein.lookups": ("count", "lower"),
    "skein.memo_hit_rate": ("ratio", "higher"),
    "skein.self_s": ("s", "lower"),
    "diagram.trusted": ("count", "lower"),
    "diagram.surgery_s": ("s", "lower"),
    "diagram.validated": ("count", "lower"),
    "diagram.validate_s": ("s", "lower"),
    "diagram.parse_calls": ("count", "lower"),
    "diagram.parse_s": ("s", "lower"),
    "diagram.canon_calls": ("count", "lower"),
    "diagram.canon_s": ("s", "lower"),
    "diagram.canon_per_row": ("count", "lower"),
    "algebra.apply_calls": ("count", "lower"),
    "algebra.apply_s": ("s", "lower"),
    "algebra.terms_out": ("count", "lower"),
    "laurent.ops": ("count", "lower"),
    "laurent.s": ("s", "lower"),
    "moves.steps": ("count", "lower"),
    "moves.faces_calls": ("count", "lower"),
    "moves.faces_per_step": ("ratio", "lower"),
    "moves.faces_s": ("s", "lower"),
    "moves.find_s": ("s", "lower"),
    "moves.apply_s": ("s", "lower"),
    "moves.perturb_s": ("s", "lower"),
    "catalog.rows": ("count", "lower"),
    "catalog.load_s": ("s", "lower"),
    "cli.cache_hits": ("count", "higher"),
    "cli.cache_writes": ("count", "lower"),
    "cli.spot_checks": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.items_per_s": ("1/s", "higher"),
    "trace.untraced_items_per_s": ("1/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


class _CountingMap:
    """The `get`/`[]=` view of a node map that the recursion uses."""

    __slots__ = ("data", "stats")

    def __init__(self, data, stats):
        self.data = data
        self.stats = stats

    def get(self, key, default=None):
        self.stats["lookups"] += 1
        hit = self.data.get(key, default)
        if hit is not None:
            self.stats["hits"] += 1
        return hit

    def __setitem__(self, key, value):
        self.stats["nodes"] += 1
        self.data[key] = value


class Tracer:
    """Spans and counts for one traced phase; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.opened = 0
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.maps = {"lookups": 0, "hits": 0, "nodes": 0}
        self.extra = {"terms_out": 0, "rows": 0, "cache_hits": 0,
                      "cache_writes": 0, "spot_checks": 0}
        self._stack: list[list] = []  # [name, start, child time, span id]
        self._hit_pending = False
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0, self.opened])
        self.opened += 1

    def _close(self) -> None:
        end = perf_counter()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        parent = -1
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][3]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, start, end, parent))
        else:
            self.dropped += 1

    def _wrap(self, name: str, fn):
        tracer = self
        map_arg = MAP_ARGS.get(name)
        sig = inspect.signature(fn) if map_arg else None

        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if map_arg:
                bound = sig.bind(*args, **kwargs)
                data = bound.arguments.get(map_arg)
                if not isinstance(data, _CountingMap):
                    bound.arguments[map_arg] = _CountingMap(
                        {} if data is None else data, tracer.maps)
                args, kwargs = bound.args, bound.kwargs
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            tracer._count(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, result) -> None:
        if name == "algebra.apply":
            self.extra["terms_out"] += len(result.terms)
        elif name == "catalog.load_catalog":
            self.extra["rows"] += len(result)
        elif name == "cli.cache_read":
            self._hit_pending = result is not None
            self.extra["cache_hits"] += result is not None
        elif name == "cli.result_record":
            self.extra["spot_checks"] += self._hit_pending
            self._hit_pending = False

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        owners = {m: importlib.import_module(m) for m, _, _ in ENTRY_POINTS}
        mods = [m for n, m in sys.modules.items()
                if n == "skeinalg" or n.startswith("skeinalg.")]
        for modname, qualname, name in ENTRY_POINTS:
            owner = owners[modname]
            head, _, attr = qualname.rpartition(".")
            if head:
                cls = getattr(owner, head)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._set(cls, attr, new)
                continue
            fn = getattr(owner, attr)
            new = self._wrap(name, fn)
            for mod in mods:
                if getattr(mod, attr, None) is fn:
                    self._set(mod, attr, new)
        # cache writes are the files cmd_table opens for writing
        cli = owners["skeinalg.cli"]
        tracer = self

        def counting_open(path, mode="r", *args, **kwargs):
            if "w" in mode and str(path).endswith(".json"):
                tracer.extra["cache_writes"] += 1
            return open(path, mode, *args, **kwargs)

        self._set(cli, "open", counting_open)

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        c, s = self.calls, self.self_s
        rows = self.extra["rows"]
        steps = c.get("moves.apply_move", 0)
        faces = c.get("moves.faces", 0)
        lookups = self.maps["lookups"]
        laurent = [n for n in c if n.startswith("laurent.")]
        surgery = ("diagram.crossing_change", "diagram.smooth_with_map",
                   "diagram.trusted")
        return {
            "skein.nodes": self.maps["nodes"],
            "skein.lookups": lookups,
            "skein.memo_hit_rate": (self.maps["hits"] / lookups
                                    if lookups else 0.0),
            "skein.self_s": _total(s, ("skein.evaluate", "skein.trace",
                                        "skein.replay"), 0.0),
            "diagram.trusted": c.get("diagram.trusted", 0),
            "diagram.surgery_s": _total(s, surgery, 0.0),
            "diagram.validated": c.get("diagram.init", 0),
            "diagram.validate_s": s.get("diagram.init", 0.0),
            "diagram.parse_calls": c.get("diagram.parse_diagram", 0),
            "diagram.parse_s": s.get("diagram.parse_diagram", 0.0),
            "diagram.canon_calls": c.get("diagram.canonical_encode", 0),
            "diagram.canon_s": s.get("diagram.canonical_encode", 0.0),
            "diagram.canon_per_row": (c.get("diagram.canonical_encode", 0)
                                      / rows if rows else 0.0),
            "algebra.apply_calls": c.get("algebra.apply", 0),
            "algebra.apply_s": s.get("algebra.apply", 0.0),
            "algebra.terms_out": self.extra["terms_out"],
            "laurent.ops": _total(c, laurent),
            "laurent.s": _total(s, laurent, 0.0),
            "moves.steps": steps,
            "moves.faces_calls": faces,
            "moves.faces_per_step": faces / steps if steps else 0.0,
            "moves.faces_s": s.get("moves.faces", 0.0),
            "moves.find_s": s.get("moves.find_moves", 0.0),
            "moves.apply_s": s.get("moves.apply_move", 0.0),
            "moves.perturb_s": s.get("moves.random_perturb", 0.0),
            "catalog.rows": self.extra["rows"],
            "catalog.load_s": s.get("catalog.load_catalog", 0.0),
            "cli.cache_hits": self.extra["cache_hits"],
            "cli.cache_writes": self.extra["cache_writes"],
            "cli.spot_checks": self.extra["spot_checks"],
            "cli.self_s": _total(s, ("cli.main", "cli.result_record",
                                      "cli.cache_read"), 0.0),
        }

    def dump_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent"],
                       "spans": self.spans, "dropped": self.dropped}, fh)


_MISSING = object()


def _total(table: dict, names, start=0):
    return sum((table.get(n, 0) for n in names), start)
