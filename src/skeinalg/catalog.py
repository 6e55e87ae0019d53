"""Bundled diagram corpus and CSV ingestion.

The corpus is a plain CSV shipped inside the package: columns
name,crossings,components,writhe,pd plus a free-text comment column
recording where each code comes from.  Every row is re-validated on
load against the parsed diagram, so a corrupted file cannot silently
feed wrong expectations into tests.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from importlib import resources

from .diagram import Diagram, DiagramError, parse_diagram

REQUIRED_COLUMNS = ("name", "crossings", "components", "writhe", "pd")


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    crossings: int
    components: int
    writhe: int
    pd: str
    comment: str = ""
    # the diagram parsed from `pd` when the row was validated; a Diagram
    # is immutable, so every caller can share it
    parsed: Diagram | None = field(default=None, compare=False, repr=False)

    def diagram(self) -> Diagram:
        return parse_diagram(self.pd) if self.parsed is None else self.parsed


def _validate_row(row: dict, line: int) -> CorpusEntry:
    missing = [c for c in REQUIRED_COLUMNS if not (row.get(c) or "").strip()]
    if missing:
        raise CatalogError(f"row {line}: missing column(s) {', '.join(missing)}")
    name = row["name"].strip()
    try:
        crossings = int(row["crossings"])
        components = int(row["components"])
        writhe = int(row["writhe"])
    except ValueError as exc:
        raise CatalogError(f"row {line} ({name}): non-integer count field: {exc}")
    pd = row["pd"].strip()
    try:
        d = parse_diagram(pd)
    except DiagramError as exc:
        raise CatalogError(f"row {line} ({name}): bad diagram text: {exc}")
    problems = []
    if d.n_crossings != crossings:
        problems.append(f"crossings {d.n_crossings} != {crossings}")
    if d.component_count != components:
        problems.append(f"components {d.component_count} != {components}")
    if d.writhe != writhe:
        problems.append(f"writhe {d.writhe} != {writhe}")
    if problems:
        raise CatalogError(f"row {line} ({name}): {'; '.join(problems)}")
    return CorpusEntry(name, crossings, components, writhe, pd,
                       (row.get("comment") or "").strip(), d)


def load_catalog(path=None) -> list[CorpusEntry]:
    """Read a corpus CSV; None loads the bundled one.  The first bad row
    raises `CatalogError`."""
    if path is None:
        ref = resources.files("skeinalg").joinpath("data/links.csv")
        text = ref.read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    # newline="" leaves line breaks to the csv module, which keeps those
    # inside quoted fields
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None:
        return []
    got = [c.strip() for c in reader.fieldnames]
    if [c for c in REQUIRED_COLUMNS if c not in got]:
        raise CatalogError(
            f"corpus header must contain {','.join(REQUIRED_COLUMNS)}; got {','.join(got)}"
        )
    entries: list[CorpusEntry] = []
    names: set[str] = set()
    for line, row in enumerate(reader, start=2):
        entry = _validate_row(row, line)
        if entry.name in names:
            raise CatalogError(f"row {line}: duplicate name {entry.name!r}")
        names.add(entry.name)
        entries.append(entry)
    return entries


_BUNDLED: list[CorpusEntry] | None = None


def bundled_catalog() -> list[CorpusEntry]:
    global _BUNDLED
    if _BUNDLED is None:
        _BUNDLED = load_catalog(None)
    return _BUNDLED


def lookup(name: str) -> CorpusEntry:
    for entry in bundled_catalog():
        if entry.name == name:
            return entry
    raise CatalogError(f"no corpus entry named {name!r}")
