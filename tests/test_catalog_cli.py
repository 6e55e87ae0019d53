"""Corpus loader and command-line behavior, including exit codes."""

import io
import json
import os
import subprocess
import sys

import pytest

from skeinalg.algebra import AffineOp, ConwayAlgebraSpec, make_algebra
from skeinalg.algebra import OpKind
from skeinalg.catalog import CatalogError, load_catalog, lookup
from skeinalg.cli import ENGINE, main
from skeinalg.diagram import canonical_encode, parse_diagram
from skeinalg.moves import random_perturb, replay_events, trivialize

HEADER = "name,crossings,components,writhe,pd,comment\n"

KNOT_NAMES = [f"{c}_{i}" for c, last in ((3, 1), (4, 1), (5, 2), (6, 3), (7, 7))
              for i in range(1, last + 1)]


class TestLoader:
    def test_bundled_size_and_names(self, corpus):
        assert len(corpus) == 33
        names = [e.name for e in corpus]
        assert len(set(names)) == 33
        for required in ("unknot", "unlink2", "unlink3", "trefoil+",
                         "trefoil-", "fig8", "hopf+", "hopf-", "borromean",
                         "whitehead", "chain3", "braid4_3comp", *KNOT_NAMES):
            assert required in names

    def test_entry_keeps_the_validated_diagram(self, corpus):
        e = corpus[0]
        assert e.diagram() is e.diagram()
        assert e.diagram() == parse_diagram(e.pd)
        # the parsed diagram takes no part in equality or repr
        from dataclasses import replace
        assert replace(e, parsed=None) == e
        assert "parsed" not in repr(e)

    def test_rows_match_their_diagrams(self, corpus):
        for e in corpus:
            d = e.diagram()
            assert (d.n_crossings, d.component_count, d.writhe) == (
                e.crossings, e.components, e.writhe)

    def test_row_mismatch_reported_with_line(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(HEADER + 'wrong,1,1,5,"PD[X[1,1,2,2]]",\n')
        with pytest.raises(CatalogError, match=r"row 2 \(wrong\).*writhe"):
            load_catalog(p)

    def test_bad_diagram_text_reported(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(HEADER + 'half,1,1,0,"PD[X[1,2,3,4]]",\n')
        with pytest.raises(CatalogError, match="appears 1 time"):
            load_catalog(p)

    def test_non_integer_count(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(HEADER + 'x,one,1,1,"PD[X[1,1,2,2]]",\n')
        with pytest.raises(CatalogError, match="non-integer"):
            load_catalog(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(HEADER + 'x,1,1,1,,\n')
        with pytest.raises(CatalogError, match="missing column"):
            load_catalog(p)

    def test_duplicate_name(self, tmp_path):
        p = tmp_path / "c.csv"
        row = 'x,1,1,1,"PD[X[1,1,2,2]]",\n'
        p.write_text(HEADER + row + row)
        with pytest.raises(CatalogError, match="duplicate name"):
            load_catalog(p)

    def test_bad_row_before_good_rows_is_refused(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(HEADER
                     + 'bad,9,9,9,"PD[X[1,1,2,2]]",\n'
                     + 'good,1,1,1,"PD[X[1,1,2,2]]",\n')
        with pytest.raises(CatalogError, match=r"row 2 \(bad\)"):
            load_catalog(p)

    def test_header_must_carry_required_columns(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("name,pd\nunknot,PD[]+O^1\n")
        with pytest.raises(CatalogError, match="header must contain"):
            load_catalog(p)

    def test_header_only_is_empty(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(HEADER)
        assert load_catalog(p) == []

    def test_empty_file_is_empty(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("")
        assert load_catalog(p) == []

    def test_lookup(self):
        assert lookup("fig8").crossings == 4
        with pytest.raises(CatalogError, match="no corpus entry"):
            lookup("definitely-not-here")


class TestComputeCommand:
    def test_crossingless_unlink(self, capsys):
        rc = main(["compute", "--pd", "PD[]+O^3", "--algebra", "gen-conway"])
        assert rc == 0
        assert capsys.readouterr().out == "1*q^-2 - 2*p*q^-2 + 1*p^2*q^-2\n"

    def test_nonlinear_root(self, capsys):
        rc = main(["compute", "--name", "hopf+",
                   "--algebra", "nonlinear", "--k", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == "root(2, 1*p*q^-1 - 1*p^2*q^-1 + 1*r)\n"

    def test_trefoil_homflypt(self, capsys):
        rc = main(["compute", "--name", "trefoil+", "--algebra", "homflypt"])
        assert rc == 0
        assert capsys.readouterr().out == "2*v^2 - 1*v^4 + 1*v^2*z^2\n"

    def test_json_record(self, capsys):
        rc = main(["compute", "--name", "trefoil+", "--algebra", "homflypt",
                   "--json"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        record = json.loads(lines[1])
        assert record["value"] == lines[0]
        assert record["engine"] == ENGINE
        assert record["algebra"] == "homflypt"
        assert record["input"] == canonical_encode(
            parse_diagram(lookup("trefoil+").pd))
        total = sum(t["coeff"] for t in record["terms"])
        assert total == 2  # writhe-normalized polynomials sum oddly; spot value

    def test_braid_input(self, capsys):
        rc = main(["compute", "--braid", "braid(2; 1 1 1)",
                   "--algebra", "homflypt"])
        assert rc == 0
        assert capsys.readouterr().out == "2*v^2 - 1*v^4 + 1*v^2*z^2\n"

    def test_no_diagram_flag_is_input_error(self, capsys):
        rc = main(["compute", "--algebra", "homflypt"])
        assert rc == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_two_diagram_flags_is_input_error(self):
        rc = main(["compute", "--pd", "PD[]+O^1", "--name", "unknot",
                   "--algebra", "homflypt"])
        assert rc == 2

    def test_malformed_pd_is_input_error(self, capsys):
        rc = main(["compute", "--pd", "PD[X[1,2,3]]", "--algebra", "homflypt"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_oversized_diagram_is_input_error(self):
        word = " ".join(["1"] * 65)
        rc = main(["compute", "--braid", f"braid(2; {word})",
                   "--algebra", "homflypt"])
        assert rc == 2

    def test_unknown_algebra_is_semantic_error(self, capsys):
        rc = main(["compute", "--pd", "PD[]+O^1", "--algebra", "nope"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_unknown_name_is_semantic_error(self, capsys):
        rc = main(["compute", "--name", "ghost", "--algebra", "homflypt"])
        assert rc == 3
        assert "no corpus entry" in capsys.readouterr().err

    def test_k_on_linear_algebra_is_semantic_error(self):
        rc = main(["compute", "--pd", "PD[]+O^1", "--algebra", "homflypt",
                   "--k", "2"])
        assert rc == 3


class TestAxiomsCommand:
    def test_stock_algebra_passes(self, capsys):
        rc = main(["axioms", "--algebra", "gen-conway"])
        assert rc == 0
        out = capsys.readouterr().out
        for label in ("A", "B", "C", "D", "E", "F", "G", "R1", "R2", "R3"):
            assert f"({label}) PASS" in out

    def test_broken_algebra_exits_4(self, capsys, monkeypatch):
        gc = make_algebra("gen-conway")
        ops = dict(gc.ops)
        circ = ops[OpKind.CIRC]
        from skeinalg.laurent import LaurentPoly
        ops[OpKind.CIRC] = AffineOp(
            circ.alpha, circ.beta,
            circ.gamma + LaurentPoly.const(gc.table, 1))
        mutant = ConwayAlgebraSpec("mutant", gc.table, ops, gc._unit_step)
        monkeypatch.setattr("skeinalg.cli.make_algebra",
                            lambda name, k=None: mutant)
        rc = main(["axioms", "--algebra", "mutant"])
        assert rc == 4
        assert "FAIL" in capsys.readouterr().out


class TestFuzzCommand:
    def test_selected_names_pass(self, capsys):
        args = ["fuzz", "--algebra", "gen-conway",
                "--only", "trefoil+,hopf+", "--steps", "6", "--seed", "3"]
        rc = main(args)
        assert rc == 0
        first = capsys.readouterr().out
        assert first == "PASS trefoil+\nPASS hopf+\nfuzz: 2 diagrams, all PASS\n"
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_max_crossings_filter(self, capsys):
        rc = main(["fuzz", "--algebra", "gen-conway", "--max-crossings", "0",
                   "--steps", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.endswith("fuzz: 3 diagrams, all PASS\n")

    def test_unknown_only_name(self, capsys):
        rc = main(["fuzz", "--algebra", "gen-conway", "--only", "ghost"])
        assert rc == 3

    def test_broken_perturbation_reported(self, capsys, monkeypatch):
        # force a value change so the failure report renders
        def sabotage(d, seed, steps, cap=14):
            from skeinalg.moves import MoveEvent
            return d.crossing_change(0), [MoveEvent("CC", crossing=0)]

        monkeypatch.setattr("skeinalg.cli.random_perturb", sabotage)
        rc = main(["fuzz", "--algebra", "gen-conway", "--only", "trefoil+"])
        assert rc == 4
        out = capsys.readouterr().out
        assert "FAIL trefoil+" in out
        assert "  CC@c0" in out
        assert "1 of 1 diagrams FAILED" in out


class TestTableCommand:
    def test_cold_then_warm_identical(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cache = tmp_path / "cache"
        base = ["table", "--algebra", "gen-conway", "--cache", str(cache)]
        assert main(base + ["--output", str(out1)]) == 0
        assert main(base + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "name,algebra,value"
        assert len(lines) == 34
        assert lines[1].startswith('unknot,gen-conway,"')
        assert all(line.endswith('"') for line in lines[1:])
        # 33 entries but 32 records: two entries share one canonical code
        assert len(list(cache.iterdir())) == 32

    def test_row_order_follows_corpus(self, corpus, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--algebra", "homflypt",
                     "--output", str(out)]) == 0
        names = [line.split(",")[0] for line in
                 out.read_text().splitlines()[1:]]
        assert names == [e.name for e in corpus]

    def test_stale_cache_detected_and_healed(self, tmp_path, capsys):
        from skeinalg.cli import _cache_path

        cache = tmp_path / "cache"
        base = ["table", "--algebra", "gen-conway", "--cache", str(cache),
                "--output", str(tmp_path / "o.csv")]
        assert main(base) == 0
        canon = canonical_encode(parse_diagram(lookup("unknot").pd))
        victim = _cache_path(str(cache), canon, "gen-conway")
        record = json.loads(open(victim).read())
        record["value"] = "1*p^99"
        with open(victim, "w") as fh:
            json.dump(record, fh)
        capsys.readouterr()
        assert main(base) == 0
        err = capsys.readouterr().err
        assert "stale cache entry for unknot" in err
        # the bad record was replaced, so a third run is quiet
        assert main(base) == 0
        assert "stale" not in capsys.readouterr().err

    def test_stale_terms_detected_and_healed(self, tmp_path, capsys):
        from skeinalg.cli import _cache_path

        cache = tmp_path / "cache"
        base = ["table", "--algebra", "gen-conway", "--cache", str(cache),
                "--output", str(tmp_path / "o.csv")]
        assert main(base) == 0
        canon = canonical_encode(parse_diagram(lookup("unknot").pd))
        victim = _cache_path(str(cache), canon, "gen-conway")
        record = json.loads(open(victim).read())
        record["terms"][0]["coeff"] += 1
        with open(victim, "w") as fh:
            json.dump(record, fh)
        capsys.readouterr()
        assert main(base) == 0
        assert "stale cache entry for unknot" in capsys.readouterr().err
        assert main(base) == 0
        assert "stale" not in capsys.readouterr().err

    def test_records_written_only_when_computed(self, tmp_path,
                                                monkeypatch):
        import skeinalg.cli as cli

        written = []
        real_write = cli._cache_write

        def counting_write(path, record):
            written.append(os.path.basename(path))
            real_write(path, record)

        monkeypatch.setattr(cli, "_cache_write", counting_write)
        cache = tmp_path / "cache"
        base = ["table", "--algebra", "gen-conway", "--cache", str(cache),
                "--output", str(tmp_path / "o.csv")]
        assert main(base) == 0
        # 33 rows, two of them sharing a code: the second finds a hit
        assert len(written) == 32 == len(set(written))
        written.clear()
        assert main(base) == 0
        assert written == []
        assert sorted(p.suffix for p in cache.iterdir()) == [".json"] * 32

    def test_each_row_parsed_and_encoded_once(self, tmp_path, monkeypatch):
        import skeinalg.catalog as catalog
        from skeinalg.diagram import Diagram

        calls = {"parse": 0, "encode": 0}
        real_parse = catalog.parse_diagram
        real_encode = Diagram.canonical_encode

        def counting_parse(text):
            calls["parse"] += 1
            return real_parse(text)

        def counting_encode(d):
            calls["encode"] += 1
            return real_encode(d)

        monkeypatch.setattr(catalog, "parse_diagram", counting_parse)
        monkeypatch.setattr(Diagram, "canonical_encode", counting_encode)
        cache = tmp_path / "cache"
        base = ["table", "--algebra", "gen-conway", "--cache", str(cache),
                "--output", str(tmp_path / "o.csv")]
        assert main(base) == 0
        assert calls == {"parse": 33, "encode": 33}
        calls.update(parse=0, encode=0)
        # warm: every row a hit, four of them spot-checked
        assert main(base) == 0
        assert calls == {"parse": 33, "encode": 33}

    def test_failed_cache_write_degrades(self, tmp_path, capsys,
                                         monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("skeinalg.cli.os.replace", refuse)
        cache = tmp_path / "cache"
        out = tmp_path / "o.csv"
        rc = main(["table", "--algebra", "gen-conway", "--cache", str(cache),
                   "--output", str(out)])
        assert rc == 0
        assert "cache write failed, continuing without" in \
            capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 34
        # the half-written temporary file is cleaned up
        assert list(cache.iterdir()) == []

    def test_unreadable_cache_dir_degrades(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        rc = main(["table", "--algebra", "gen-conway",
                   "--cache", str(blocker),
                   "--output", str(tmp_path / "o.csv")])
        assert rc == 0
        assert "cache disabled" in capsys.readouterr().err

    def test_header_only_corpus(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text(HEADER)
        rc = main(["table", "--algebra", "gen-conway", "--input", str(src)])
        assert rc == 0
        assert capsys.readouterr().out == "name,algebra,value\n"

    def test_missing_corpus_is_input_error(self, tmp_path, capsys):
        rc = main(["table", "--algebra", "gen-conway",
                   "--input", str(tmp_path / "ghost.csv")])
        assert rc == 2
        assert "cannot read corpus" in capsys.readouterr().err

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        rc = main(["table", "--algebra", "gen-conway",
                   "--output", str(tmp_path)])
        assert rc == 2
        assert "cannot write output" in capsys.readouterr().err


class TestReplayCommand:
    def test_untangling_certificate(self, diagrams, tmp_path, capsys):
        evs = trivialize(diagrams["trefoil+"])
        p = tmp_path / "ev.txt"
        p.write_text("".join(f"{e}\n" for e in evs))
        rc = main(["replay", "--name", "trefoil+", "--events", str(p)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "PD[]+O^1"
        assert out[1] == "crossings=0 components=1"

    def test_round_trip_with_perturbation(self, diagrams, tmp_path, capsys):
        d = diagrams["fig8"]
        fin, evs = random_perturb(d, seed=11, steps=10)
        p = tmp_path / "ev.txt"
        p.write_text("".join(f"{e}\n" for e in evs))
        rc = main(["replay", "--name", "fig8", "--events", str(p)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == fin.pd_text()
        assert out[1] == (f"crossings={fin.n_crossings} "
                          f"components={fin.component_count}")

    def test_events_from_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("CC@c0\nCC@c0\n"))
        rc = main(["replay", "--name", "trefoil+", "--events", "-"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "crossings=3 components=1"

    def test_blank_lines_skipped(self, tmp_path, capsys):
        p = tmp_path / "ev.txt"
        p.write_text("\nCC@c0\n\n")
        rc = main(["replay", "--name", "trefoil+", "--events", str(p)])
        assert rc == 0

    def test_unparsable_event_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "ev.txt"
        p.write_text("CC@c0\nR9@zz\n")
        rc = main(["replay", "--name", "trefoil+", "--events", str(p)])
        assert rc == 2
        assert "events line 2" in capsys.readouterr().err

    def test_inapplicable_event_is_semantic_error(self, tmp_path, capsys):
        p = tmp_path / "ev.txt"
        p.write_text("R1-@c0\n")
        rc = main(["replay", "--name", "trefoil+", "--events", str(p)])
        assert rc == 3
        assert "not a curl" in capsys.readouterr().err

    def test_missing_events_file_is_input_error(self, tmp_path):
        rc = main(["replay", "--name", "trefoil+",
                   "--events", str(tmp_path / "ghost")])
        assert rc == 2


class TestModuleInvocation:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skeinalg.cli", "compute",
             "--pd", "PD[]+O^3", "--algebra", "gen-conway"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == "1*q^-2 - 2*p*q^-2 + 1*p^2*q^-2\n"
