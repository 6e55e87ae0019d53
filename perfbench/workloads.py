"""The three workloads: seeded inputs, one round of items, output checks.

A workload is built from the imported engine and a seed; building it is
the part of set-up that loads the corpus, constructs the algebras and
generates the inputs.  `round(r)` runs round r and returns one
(ok, seconds) pair per item; rounds are whole, so every run attempts the
same operations in the same proportions.  `check()` runs the checks of
`checks.py` on what the rounds produced and returns the problems found.
"""

from __future__ import annotations

import csv
import io
import json
import random
import shutil
import sys
import traceback
from importlib import resources
from pathlib import Path
from time import perf_counter

import checks


def random_word(rng, strands: int, crossings: int, components: int,
                negatives: int) -> list[int]:
    """A braid word whose closure has the given number of components,
    with `negatives` of its letters, at seeded places, negative.

    The parity of the permutation is that of `crossings`, so a component
    count of the other parity is rejected up front.
    """
    if (strands - components - crossings) % 2:
        raise ValueError(f"{crossings} letters on {strands} strands cannot "
                         f"close to {components} components")
    while True:
        word = [rng.randrange(1, strands) for _ in range(crossings)]
        if checks.braid_components(strands, word) == components:
            break
    for i in rng.sample(range(crossings), negatives):
        word[i] = -word[i]
    return word


def pure_word(rng, blocks) -> list[int]:
    """A pure braid made of full twists sigma_i^(+-2), one per block i, in
    a seeded order with seeded signs.  Every strand closes to its own
    component, and each component's length is fixed by `blocks`."""
    order = list(blocks)
    rng.shuffle(order)
    word = []
    for i in order:
        sign = rng.choice((1, -1))
        word += [sign * i, sign * i]
    return word


def braid_text(strands: int, word) -> str:
    return f"braid({strands}; {' '.join(map(str, word))})"


def _report(workload) -> None:
    """Count a failed item; print the traceback of the first."""
    workload.failures += 1
    if workload.failures == 1:
        print(f"item failed in {type(workload).__name__}:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


class Fuzz:
    """Criterion 6's loop: perturb a corpus entry, evaluate it again.

    One round takes every bundled corpus entry with a fresh node cache,
    traces it and replays the tree in gen-conway and homflypt; then one
    item runs `random_perturb` with a seed of the round, `trace` with the
    entry's node cache and `replay` in both algebras, and compares the two
    values with the unperturbed ones.  Every entry's node cache and replay
    memos live until the round ends, so the peak memory of a run is that
    of a whole round, a sum over 33 entries, and not that of the single
    largest perturbed tree, whose quartiles over ten seeds lay 21 % apart.
    """

    STEPS = 15
    CAP = 14
    TRACE_ROUNDS = 4

    def __init__(self, sk, cli, seed: int, out: Path):
        self.sk = sk
        self.seed = seed
        self.entries = [(e.name, e.diagram(), e.pd)
                        for e in sk.load_catalog(None)]
        self.algebras = [sk.make_algebra("gen-conway"),
                         sk.make_algebra("homflypt")]
        self.base: dict[tuple[str, str], object] = {}
        self.mismatches: list[str] = []
        self.failures = 0

    def round(self, r: int):
        sk = self.sk
        rng = random.Random(f"fuzz:{self.seed}:{r}")
        items = []
        kept = []  # every entry's cache and memos, until the round ends
        for name, d, _ in self.entries:
            shared: dict = {}
            memos = [{} for _ in self.algebras]
            kept.append((shared, memos))
            base = sk.trace(d, shared=shared)
            want = [sk.replay(base, alg, memo)
                    for alg, memo in zip(self.algebras, memos)]
            for alg, value in zip(self.algebras, want):
                self.base.setdefault((name, alg.name), value)
            pseed = rng.randrange(1 << 30)
            t0 = perf_counter()
            try:
                moved, _ = sk.random_perturb(d, seed=pseed, steps=self.STEPS,
                                             cap=self.CAP)
                node = sk.trace(moved, shared=shared)
                got = [sk.replay(node, alg, memo)
                       for alg, memo in zip(self.algebras, memos)]
            except Exception:
                items.append((False, perf_counter() - t0))
                _report(self)
                continue
            items.append((True, perf_counter() - t0))
            if got != want:
                self.mismatches.append(f"{name} seed {pseed}")
        return items

    def check(self) -> list[str]:
        problems = [f"perturbed value differs: {m}" for m in self.mismatches]
        for name, _, pd in self.entries:
            pres = checks.presentation(pd)
            for alg in self.algebras:
                value = self.base[(name, alg.name)]
                try:
                    checks.check_value(
                        alg.name, checks.poly_terms(value.table.names,
                                                    value.terms), pres)
                except checks.CheckFailure as exc:
                    problems.append(f"{name} in {alg.name}: {exc}")
        return problems


class ColdEval:
    """One cold evaluation per item, the way `compute --braid` makes it:
    parse the braid word, evaluate with a fresh memo, render.

    A round has one seeded braid closure per cell (strands, crossings,
    components, negative letters) of CELLS.  Most closures are of
    positive braids, so the recursion runs deep; a positive braid's
    recursion also varies least in size from word to word, which keeps a
    run's mix of work the same whatever the seed.  POOL_ROUNDS rounds are
    generated in set-up and reused in order if a run outlasts them.
    """

    CELLS = [(3, 14, 1, 0), (3, 14, 3, 0), (3, 15, 2, 0), (3, 16, 1, 1),
             (3, 16, 3, 0), (4, 14, 2, 0), (4, 14, 4, 1), (4, 15, 1, 0),
             (4, 15, 3, 0), (4, 16, 2, 1), (4, 16, 4, 0)]
    POOL_ROUNDS = 64
    TRACE_ROUNDS = 8

    def __init__(self, sk, cli, seed: int, out: Path):
        self.sk = sk
        self.algebra = sk.make_algebra("gen-conway")
        self.pool = []
        for r in range(self.POOL_ROUNDS):
            rng = random.Random(f"cold_eval:{seed}:{r}")
            self.pool.append([
                braid_text(n, random_word(rng, n, c, k, neg))
                for n, c, k, neg in self.CELLS])
        self.outputs: dict[str, set[str]] = {}
        self.failures = 0

    def round(self, r: int):
        sk, alg = self.sk, self.algebra
        items = []
        for text in self.pool[r % self.POOL_ROUNDS]:
            t0 = perf_counter()
            try:
                rendered = alg.render(
                    sk.evaluate(sk.parse_diagram(text), alg, memo={}))
            except Exception:
                items.append((False, perf_counter() - t0))
                _report(self)
                continue
            items.append((True, perf_counter() - t0))
            self.outputs.setdefault(text, set()).add(rendered)
        return items

    def check(self) -> list[str]:
        problems = []
        for text, rendered in self.outputs.items():
            if len(rendered) != 1:
                problems.append(f"{text} gave {len(rendered)} values")
                continue
            try:
                checks.check_value("gen-conway",
                                   checks.parse_rendered(next(iter(rendered))),
                                   checks.presentation(text))
            except checks.CheckFailure as exc:
                problems.append(f"{text}: {exc}")
        return problems


class Table:
    """`skeinalg table --algebra gen-conway --cache DIR` twice per item.

    The input CSV is the bundled corpus plus seeded braid closures: for
    each (count, strands, crossings, components, negative letters) of
    RANDOM_ROWS, random words; for each (components, blocks) of
    PURE_ROWS, a pure braid whose blocks fix every component's length,
    and with it the cost of the canonical code, whatever the seed.  The
    first run of an item writes into an empty cache directory; the second
    reads from it.
    """

    RANDOM_ROWS = [(6, 3, 10, 1, 4), (6, 4, 11, 1, 4), (3, 3, 11, 2, 4),
                   (3, 4, 10, 2, 4)]
    PURE_ROWS = [(3, (1, 1, 2, 2)), (3, (1, 2, 2, 1)), (4, (1, 2, 3, 2)),
                 (4, (1, 2, 3, 1)), (5, (1, 2, 3, 4))]
    TRACE_ROUNDS = 4

    def __init__(self, sk, cli, seed: int, out: Path):
        self.cli = cli
        corpus = resources.files(sk).joinpath("data/links.csv").read_text(
            encoding="utf-8")
        rng = random.Random(f"table:{seed}")
        rows = []
        for count, n, c, k, neg in self.RANDOM_ROWS:
            rows += [(n, random_word(rng, n, c, k, neg))
                     for _ in range(count)]
        rows += [(n, pure_word(rng, blocks)) for n, blocks in self.PURE_ROWS]
        self.inputs = {e["name"]: e["pd"]
                       for e in csv.DictReader(io.StringIO(corpus))}
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for i, (n, word) in enumerate(rows):
            name = f"gen{i:02d}"
            self.inputs[name] = braid_text(n, word)
            writer.writerow([
                name, len(word), checks.braid_components(n, word),
                sum(1 if x > 0 else -1 for x in word), braid_text(n, word),
                f"seeded closure, seed {seed}"])
        self.dir = out / f"table-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.csv = self.dir / "input.csv"
        self.csv.write_text(corpus.rstrip("\n") + "\n" + buf.getvalue(),
                            encoding="utf-8")
        self.cache = self.dir / "cache"
        self.results: list[tuple[int, int, str, str]] = []
        self.failures = 0

    def _run(self, output: Path) -> int:
        return self.cli.main(["table", "--algebra", "gen-conway",
                              "--input", str(self.csv), "--cache",
                              str(self.cache), "--output", str(output)])

    def round(self, r: int):
        shutil.rmtree(self.cache, ignore_errors=True)
        cold, warm = self.dir / "cold.csv", self.dir / "warm.csv"
        t0 = perf_counter()
        try:
            codes = (self._run(cold), self._run(warm))
            dt = perf_counter() - t0
            self.results.append((*codes, cold.read_text(encoding="utf-8"),
                                 warm.read_text(encoding="utf-8")))
        except Exception:
            _report(self)
            return [(False, perf_counter() - t0)]
        return [(codes == (0, 0), dt)]

    def check(self) -> list[str]:
        problems = []
        for i, (c1, c2, cold, warm) in enumerate(self.results):
            if (c1, c2) != (0, 0):
                problems.append(f"item {i}: exit codes {c1}, {c2}")
            if warm != cold:
                problems.append(f"item {i}: warm CSV differs from cold CSV")
            if cold != self.results[0][2]:
                problems.append(f"item {i}: cold CSV differs from item 0")
        if not self.results:
            return problems
        rows = list(csv.DictReader(io.StringIO(self.results[-1][2])))
        if [r["name"] for r in rows] != list(self.inputs):
            problems.append("table rows do not match the input rows")
        for row in rows:
            text = self.inputs.get(row["name"])
            if text is None:
                continue
            try:
                checks.check_value("gen-conway",
                                   checks.parse_rendered(row["value"]),
                                   checks.presentation(text))
            except checks.CheckFailure as exc:
                problems.append(f"row {row['name']}: {exc}")
        records = sorted(self.cache.glob("*.json"))
        if not records:
            problems.append("the cache holds no records")
        for path in records:
            record = json.loads(path.read_text(encoding="utf-8"))
            try:
                checks.check_value("gen-conway",
                                   checks.record_terms(record["terms"]),
                                   checks.pd_presentation(record["input"]))
            except checks.CheckFailure as exc:
                problems.append(f"record {record['input']}: {exc}")
        return problems


WORKLOADS = {"fuzz": Fuzz, "cold_eval": ColdEval, "table": Table}
