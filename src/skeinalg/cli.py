"""Command-line front end.

Commands: compute, axioms, fuzz, table, replay.  Output is deterministic
for fixed inputs and flags.  Exit codes: 0 success, 1 standard output
closed early (a broken pipe), 2 malformed or refused input, or a fuzz
run that checked nothing, 3 semantic error (unknown algebra or corpus
name, inapplicable move), 4 property failure (a failed axiom or fuzz
check).  `main` maps the library's exceptions to these codes; a command
raises `CliFailure` only where its own code differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile

from . import __version__
from .algebra import (ALGEBRA_NAMES, AlgebraError, ConwayAlgebraSpec,
                      check_axioms, make_algebra)
from .catalog import CatalogError, load_catalog, lookup
from .diagram import Diagram, DiagramError, parse_diagram
from .laurent import LaurentError
from .moves import MoveError, parse_event, random_perturb, replay_events
from .skein import SkeinError, evaluate

ENGINE = f"skeinalg/{__version__}"

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_INPUT = 2
EXIT_SEMANTIC = 3
EXIT_PROPERTY = 4


class CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _diagram_from(args) -> Diagram:
    picked = [flag for flag in ("pd", "braid", "name")
              if getattr(args, flag, None) is not None]
    if len(picked) != 1:
        raise CliFailure(
            EXIT_INPUT, "exactly one of --pd, --braid, --name is required")
    flag = picked[0]
    if flag == "name":
        try:
            entry = lookup(args.name)
        except CatalogError as exc:
            raise CliFailure(EXIT_SEMANTIC, str(exc))
        text = entry.pd
    else:
        text = getattr(args, flag)
    return parse_diagram(text)


def result_record(d: Diagram, algebra: ConwayAlgebraSpec, memo=None,
                  canon: str | None = None) -> dict:
    """The JSON result record of `d`; `canon` is its canonical code when
    the caller already has it."""
    stored = evaluate(d, algebra, memo=memo)
    return {
        "input": d.canonical_encode() if canon is None else canon,
        "algebra": algebra.key,
        "value": algebra.render(stored),
        "terms": stored.json_terms(),
        "engine": ENGINE,
    }


def cmd_compute(args) -> int:
    algebra = make_algebra(args.algebra, args.k)
    record = result_record(_diagram_from(args), algebra)
    print(record["value"])
    if args.json:
        print(json.dumps(record))
    return EXIT_OK


def cmd_axioms(args) -> int:
    algebra = make_algebra(args.algebra, args.k)
    report = check_axioms(algebra)
    print(report.render())
    return EXIT_OK if report.all_pass else EXIT_PROPERTY


def _load_entries(path: str | None):
    try:
        return load_catalog(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliFailure(EXIT_INPUT, f"cannot read corpus: {exc}")


def _selected_entries(args):
    entries = _load_entries(args.input)
    if args.only is not None:
        wanted = [w.strip() for w in args.only.split(",") if w.strip()]
        by_name = {e.name: e for e in entries}
        missing = [w for w in wanted if w not in by_name]
        if missing:
            raise CliFailure(
                EXIT_SEMANTIC, f"no corpus entry named {missing[0]!r}")
        entries = [by_name[w] for w in wanted]
    if args.max_crossings is not None:
        entries = [e for e in entries if e.crossings <= args.max_crossings]
    return entries


def cmd_fuzz(args) -> int:
    """PASS or FAIL for each selected entry whose walk applied a move,
    SKIP for one whose walk applied none but the no-op RLT.  A run that
    could check nothing is refused (exit 2): a step count below 1, a
    negative cap or crossing bound, no entry selected, or every entry
    skipped."""
    for flag, value, low in (("--steps", args.steps, 1),
                             ("--cap", args.cap, 0),
                             ("--max-crossings", args.max_crossings, 0)):
        if value is not None and value < low:
            raise CliFailure(EXIT_INPUT,
                             f"{flag} must be at least {low}, got {value}")
    algebra = make_algebra(args.algebra, args.k)
    entries = _selected_entries(args)
    if not entries:
        raise CliFailure(EXIT_INPUT, "no corpus entry selected")
    failures = skipped = 0
    memo: dict = {}
    for entry in entries:
        d = entry.diagram()
        before = evaluate(d, algebra, memo=memo)
        perturbed, events = random_perturb(
            d, seed=args.seed, steps=args.steps, cap=args.cap)
        if all(ev.kind == "RLT" for ev in events):
            skipped += 1
            print(f"SKIP {entry.name} (no move applied)")
        elif evaluate(perturbed, algebra, memo=memo) == before:
            print(f"PASS {entry.name}")
        else:
            failures += 1
            print(f"FAIL {entry.name}")
            for ev in events:
                print(f"  {ev}")
    total = len(entries)
    if failures:
        print(f"fuzz: {failures} of {total} diagrams FAILED")
        return EXIT_PROPERTY
    if skipped == total:
        raise CliFailure(EXIT_INPUT, f"no move applied to any of the {total} "
                         "diagrams; nothing was checked")
    if skipped:
        print(f"fuzz: {total - skipped} diagrams PASS, {skipped} skipped")
    else:
        print(f"fuzz: {total} diagrams, all PASS")
    return EXIT_OK


def _cache_path(cache_dir: str, canon: str, algebra_key: str) -> str:
    digest = hashlib.sha256(f"{canon}|{algebra_key}".encode()).hexdigest()
    return os.path.join(cache_dir, f"{digest}.json")


def _cache_read(path: str, canon: str, algebra_key: str) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        return None
    if (isinstance(record, dict) and record.get("engine") == ENGINE
            and record.get("input") == canon
            and record.get("algebra") == algebra_key
            and isinstance(record.get("value"), str)
            and isinstance(record.get("terms"), list)):
        return record
    return None


def _cache_write(path: str, record: dict) -> None:
    """Write a record whole or not at all: `json.dumps` of it into a
    hidden temporary file beside it, then renamed over it."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".",
                               suffix=".json")
    os.close(fd)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def cmd_table(args) -> int:
    algebra = make_algebra(args.algebra, args.k)
    entries = _load_entries(args.input)
    cache_dir = args.cache
    if cache_dir is not None:
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            print(f"warning: cache disabled: {exc}", file=sys.stderr)
            cache_dir = None

    memo: dict = {}
    rows = []
    hits = 0
    for entry in entries:
        d = entry.diagram()
        canon = d.canonical_encode()
        record = None
        path = None
        if cache_dir is not None:
            path = _cache_path(cache_dir, canon, algebra.key)
            record = _cache_read(path, canon, algebra.key)
        computed = record is None
        if record is not None:
            # spot-check a deterministic tenth of the hits against a
            # fresh evaluation; a stale record is replaced, not trusted
            if hits % 10 == 0:
                fresh = result_record(d, algebra, memo=memo, canon=canon)
                if (fresh["value"], fresh["terms"]) != (record["value"],
                                                        record["terms"]):
                    print(f"warning: stale cache entry for {entry.name}; "
                          "recomputed", file=sys.stderr)
                    record = fresh
                    computed = True
            hits += 1
        if record is None:
            record = result_record(d, algebra, memo=memo, canon=canon)
        if computed and cache_dir is not None:
            try:
                _cache_write(path, record)
            except OSError as exc:
                print(f"warning: cache write failed, continuing without: "
                      f"{exc}", file=sys.stderr)
                cache_dir = None
        rows.append((entry.name, algebra.key, record["value"]))

    out = sys.stdout
    close = False
    if args.output is not None:
        try:
            out = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            raise CliFailure(EXIT_INPUT, f"cannot write output: {exc}")
        close = True
    try:
        out.write("name,algebra,value\n")
        for name, alg, value in rows:
            out.write(f"{_csv_field(name)},{alg},\"{value}\"\n")
    finally:
        if close:
            out.close()
    return EXIT_OK


def _csv_field(text: str) -> str:
    """`text` as one CSV field: quoted, with its quotes doubled, when a
    comma, a quote or a line break would otherwise split it."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def cmd_replay(args) -> int:
    d = _diagram_from(args)
    try:
        if args.events == "-":
            lines = sys.stdin.read().splitlines()
        else:
            with open(args.events, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliFailure(EXIT_INPUT, f"cannot read events: {exc}")
    events = []
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(parse_event(line))
        except MoveError as exc:
            raise CliFailure(EXIT_INPUT, f"events line {ln}: {exc}")
    try:
        final = replay_events(d, events)
    except MoveError as exc:
        raise CliFailure(EXIT_SEMANTIC, str(exc))
    print(final.pd_text())
    print(f"crossings={final.n_crossings} components={final.component_count}")
    return EXIT_OK


def _add_diagram_flags(sub) -> None:
    sub.add_argument("--pd", help="diagram as PD text")
    sub.add_argument("--braid", help="diagram as a braid closure")
    sub.add_argument("--name", help="bundled corpus entry name")


def _add_algebra_flags(sub) -> None:
    sub.add_argument("--algebra", required=True,
                     help=f"one of {', '.join(ALGEBRA_NAMES)}")
    sub.add_argument("--k", type=int, default=None,
                     help="root index (nonlinear algebra only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeinalg",
        description="skein-recursion link invariants over pluggable algebras")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compute", help="evaluate one diagram")
    _add_diagram_flags(p)
    _add_algebra_flags(p)
    p.add_argument("--json", action="store_true",
                   help="also print the full result record as JSON")
    p.set_defaults(func=cmd_compute)

    p = subs.add_parser("axioms", help="verify the defining identities")
    _add_algebra_flags(p)
    p.set_defaults(func=cmd_axioms)

    p = subs.add_parser("fuzz", help="random-move invariance check")
    _add_algebra_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--cap", type=int, default=14,
                   help="withhold growing moves beyond this many crossings")
    p.add_argument("--input", default=None,
                   help="corpus CSV (default: bundled)")
    p.add_argument("--max-crossings", type=int, default=None)
    p.add_argument("--only", default=None,
                   help="comma-separated corpus names to test")
    p.set_defaults(func=cmd_fuzz)

    p = subs.add_parser("table", help="evaluate a whole corpus to CSV")
    _add_algebra_flags(p)
    p.add_argument("--input", default=None,
                   help="corpus CSV (default: bundled)")
    p.add_argument("--output", default=None,
                   help="result CSV path (default: stdout)")
    p.add_argument("--cache", default=None,
                   help="directory for reusable result records")
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("replay", help="apply a saved event list")
    _add_diagram_flags(p)
    p.add_argument("--events", required=True,
                   help="event file, one per line ('-' for stdin)")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: stop quietly, and point stdout at devnull
        # so that the interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DiagramError, LaurentError, CatalogError, MoveError,
            SkeinError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
