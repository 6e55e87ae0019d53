"""Corpus loader and command-line behavior, including exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from skeinalg.algebra import (ALGEBRA_NAMES, AffineOp, ConwayAlgebraSpec,
                              make_algebra)
from skeinalg.algebra import OpKind
from skeinalg.catalog import CatalogError, load_catalog, lookup
from skeinalg.cli import ENGINE, main
from skeinalg.diagram import parse_diagram
from skeinalg.moves import random_perturb, replay_events, trivialize

HEADER = "name,crossings,components,writhe,pd,comment\n"
# bytes that do not decode as UTF-8
NOT_UTF8 = b"\xff\xfe\x00bad"

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

    def test_nonplanar_row_reported_with_line(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(HEADER + 'curl,1,1,1,"PD[X[1,1,2,2]]",\n'
                     + 'flat8,1,2,0,"PD[X[1,2,1,2]]",\n')
        with pytest.raises(CatalogError,
                           match=r"^row 3 \(flat8\): .*PD code is not planar"):
            load_catalog(p)

    def test_quoted_line_break_is_kept(self, tmp_path):
        # a quoted field may hold line breaks, in a file whose lines end
        # in \n or in \r\n
        p = tmp_path / "c.csv"
        for end in ("\n", "\r\n"):
            rows = [HEADER.rstrip("\n"),
                    '"curl\nor\r\ntwo",1,1,1,"PD[X[1,1,2,2]]","a\nnote"',
                    "unknot,0,1,0,PD[]+O^1,"]
            p.write_bytes((end.join(rows) + end).encode())
            entries = load_catalog(p)
            assert [e.name for e in entries] == ["curl\nor\r\ntwo", "unknot"]
            assert entries[0].comment == "a\nnote"

    def test_lookup(self):
        assert lookup("fig8").crossings == 4
        with pytest.raises(CatalogError, match="no corpus entry"):
            lookup("definitely-not-here")


class TestComputeCommand:
    def test_crossingless_unlink(self, capsys):
        rc = main(["compute", "--pd", "PD[]+O^3", "--algebra", "gen-conway"])
        assert rc == 0
        assert capsys.readouterr().out == "1*q^-2 - 2*p*q^-2 + 1*p^2*q^-2\n"

    @pytest.mark.parametrize("command", ["compute", "replay", "table"])
    def test_nonplanar_pd_is_refused(self, command, tmp_path, capsys):
        # `PD[X[1,2,1,2]]` with a curl: no plane drawing has this code,
        # and each command that reads PD text refuses it, the table by row
        pd = "PD[X[3,4,1,4],X[1,3,2,2]]"
        events = tmp_path / "ev.txt"
        events.write_text("CC@c0\n")
        corpus = tmp_path / "c.csv"
        corpus.write_text(HEADER + f'curled,2,2,0,"{pd}",\n')
        argv = {"compute": ["compute", "--pd", pd],
                "replay": ["replay", "--pd", pd, "--events", str(events)],
                "table": ["table", "--input", str(corpus)]}[command]
        if command != "replay":
            argv += ["--algebra", "gen-conway"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        row = "row 2 (curled): bad diagram text: " * (command == "table")
        assert err == (f"error: {row}PD code is not planar: "
                       "V - E + F != 2 on some piece\n")

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
        assert record["input"] == \
            parse_diagram(lookup("trefoil+").pd).canonical_encode()
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

    @pytest.mark.parametrize("pd, message", [
        ("PD[X[1,1,2,3],X[2,3,4,4]]",
         "crossing 1: under-strand runs 2->4, but the label order gives 2->3"),
        ("PD[X[1,1,2,3],X[3,2,4,4]]",
         "crossing 0: over-strand 1/3 fits no remaining transition")])
    def test_unorientable_pd_is_input_error(self, pd, message, capsys):
        assert main(["compute", "--pd", pd, "--algebra", "gen-conway"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_oversized_diagram_is_input_error(self):
        word = " ".join(["1"] * 65)
        rc = main(["compute", "--braid", f"braid(2; {word})",
                   "--algebra", "homflypt"])
        assert rc == 2

    def test_too_many_components_is_input_error(self, capsys):
        rc = main(["compute", "--pd", "PD[]+O^65", "--algebra", "homflypt"])
        assert rc == 2
        assert "65 components; limit is 64" in capsys.readouterr().err

    def test_empty_diagram_is_input_error(self, capsys):
        # refused before the algebra is asked for a unit of 0 circles
        rc = main(["compute", "--pd", "PD[]", "--algebra", "gen-conway"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "diagram has no components" in err
        assert "unit index" not in err

    def test_braid_powers(self, capsys):
        rc = main(["compute", "--braid", "braid(5; (1 2 3 4)^12)",
                   "--algebra", "homflypt"])
        assert rc == 0
        spelled = " ".join(["1 2 3 4"] * 12)
        assert main(["compute", "--braid", f"braid(5; {spelled})",
                     "--algebra", "homflypt"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and out[0] == out[1]

    def test_huge_braid_power_is_refused_at_once(self, capsys):
        t0 = time.perf_counter()
        rc = main(["compute", "--braid", "braid(2; (1)^1000000000)",
                   "--algebra", "homflypt"])
        assert time.perf_counter() - t0 < 0.5
        assert rc == 2
        assert "limit is 10000" in capsys.readouterr().err

    def test_oversized_strand_count_is_input_error(self, capsys):
        t0 = time.perf_counter()
        rc = main(["compute", "--braid", "braid(1000000; 1)",
                   "--algebra", "homflypt"])
        assert time.perf_counter() - t0 < 0.5
        assert rc == 2
        assert "more than 64 components" in capsys.readouterr().err

    @pytest.mark.parametrize("algebra", ALGEBRA_NAMES)
    def test_braid_prints_what_its_pd_prints(self, capsys, algebra):
        text = "braid(4; 1 -2 3 1 1 -2 -3 2 -1 3)"
        pd = parse_diagram(text).pd_text()
        outs = []
        for flag, value in (("--braid", text), ("--pd", pd)):
            k = ["--k", "2"] if algebra == "nonlinear" else []
            rc = main(["compute", flag, value, "--algebra", algebra, "--json",
                       *k])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_torus_pd_text_answers(self):
        # the PD text of T(2,64) ran past any wait before the resolver
        # reduced its nodes by R1- and R2-; the timeout only stops a
        # hang, so start-up stays out of any time bound
        word = "braid(2; 1^64)"
        outs = []
        for flag, value in (("--braid", word),
                            ("--pd", parse_diagram(word).pd_text())):
            proc = subprocess.run(
                [sys.executable, "-m", "skeinalg.cli", "compute", flag,
                 value, "--algebra", "gen-conway"],
                capture_output=True, text=True, timeout=60)
            assert (proc.returncode, proc.stderr) == (0, "")
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

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

    def test_empty_row_refused_like_an_oversized_one(self, tmp_path,
                                                     capsys):
        assert _refused_rows("fuzz", tmp_path, capsys) == [
            (2, "error: diagram has no components\n"),
            (2, "error: diagram has 65 components; limit is 64\n")]

    @pytest.mark.parametrize("flags, message", [
        (["--steps", "-1"], "--steps must be at least 1, got -1"),
        (["--steps", "0"], "--steps must be at least 1, got 0"),
        (["--cap", "-5"], "--cap must be at least 0, got -5"),
        (["--max-crossings", "-1"],
         "--max-crossings must be at least 0, got -1"),
        (["--only", ","], "no corpus entry selected"),
    ], ids=["steps-negative", "steps-zero", "cap-negative",
            "max-crossings-negative", "empty-selection"])
    def test_run_that_checks_nothing_is_refused(self, flags, message,
                                                capsys):
        rc = main(["fuzz", "--algebra", "gen-conway", *flags])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_header_only_corpus_is_refused(self, tmp_path, capsys):
        p = tmp_path / "c.csv"
        p.write_text(HEADER)
        assert main(["fuzz", "--algebra", "gen-conway",
                     "--input", str(p)]) == 2
        assert capsys.readouterr().err == "error: no corpus entry selected\n"

    def test_entry_without_a_move_is_skipped(self, capsys):
        # at cap 0 only the shrinking moves, slides and RLT are drawn:
        # the alternating trefoil has none of them, the unlink only the
        # no-op RLT, and torus_3_3 slides its triangles
        rc = main(["fuzz", "--algebra", "gen-conway", "--cap", "0",
                   "--only", "trefoil+,unlink2,torus_3_3"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "SKIP trefoil+ (no move applied)\n"
            "SKIP unlink2 (no move applied)\n"
            "PASS torus_3_3\n"
            "fuzz: 1 diagrams PASS, 2 skipped\n")

    def test_run_with_every_entry_skipped_is_refused(self, capsys):
        rc = main(["fuzz", "--algebra", "gen-conway", "--cap", "0",
                   "--only", "trefoil+,fig8"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ("SKIP trefoil+ (no move applied)\n"
                       "SKIP fig8 (no move applied)\n")
        assert err == ("error: no move applied to any of the 2 diagrams; "
                       "nothing was checked\n")

    def test_default_run_skips_nothing(self, capsys):
        # at the default cap every corpus entry takes a move
        assert main(["fuzz", "--algebra", "gen-conway"]) == 0
        out = capsys.readouterr().out
        assert "SKIP" not in out
        assert out.endswith("fuzz: 33 diagrams, all PASS\n")

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


def _refused_rows(command, tmp_path, capsys):
    """(exit code, error line) of `command` on a corpus of one diagram with
    no components and on one of 65."""
    out = []
    for row in ('empty,0,0,0,"PD[]",\n', 'many,0,65,0,"PD[]+O^65",\n'):
        p = tmp_path / "c.csv"
        p.write_text(HEADER + row)
        rc = main([command, "--algebra", "gen-conway", "--input", str(p)])
        out.append((rc, capsys.readouterr().err))
    return out


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

    def test_empty_row_refused_like_an_oversized_one(self, tmp_path,
                                                     capsys):
        # refused input, with the code `compute` gives the same diagrams
        assert _refused_rows("table", tmp_path, capsys) == [
            (2, "error: diagram has no components\n"),
            (2, "error: diagram has 65 components; limit is 64\n")]

    def test_row_order_follows_corpus(self, corpus, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--algebra", "homflypt",
                     "--output", str(out)]) == 0
        names = [line.split(",")[0] for line in
                 out.read_text().splitlines()[1:]]
        assert names == [e.name for e in corpus]

    def test_names_needing_quotes_read_back(self, tmp_path):
        names = ["two, circles", 'the "unknot"', 'a "b", c']
        corpus = tmp_path / "c.csv"
        corpus.write_text(HEADER + "".join(
            '"{}",0,{},0,"PD[]+O^{}",\n'.format(name.replace('"', '""'),
                                                i + 1, i + 1)
            for i, name in enumerate(names)))
        out = tmp_path / "o.csv"
        assert main(["table", "--algebra", "homflypt", "--input",
                     str(corpus), "--output", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["name"] for row in rows] == names
        alg = make_algebra("homflypt")
        assert [row["value"] for row in rows] == [
            alg.render(alg.unit(n)) for n in (1, 2, 3)]
        assert all(len(row) == 3 for row in rows)

    def test_stale_cache_detected_and_healed(self, tmp_path, capsys):
        from skeinalg.cli import _cache_path

        cache = tmp_path / "cache"
        base = ["table", "--algebra", "gen-conway", "--cache", str(cache),
                "--output", str(tmp_path / "o.csv")]
        assert main(base) == 0
        canon = parse_diagram(lookup("unknot").pd).canonical_encode()
        victim = _cache_path(str(cache), canon, "gen-conway")
        record = json.loads(Path(victim).read_text())
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

    @pytest.mark.parametrize("distrust", [
        lambda record: json.dumps(dict(record, engine="skeinalg/0.0.0")),
        lambda record: json.dumps([record])],
        ids=["another_engine_tag", "json_not_an_object"])
    def test_untrusted_record_is_recomputed_and_rewritten(
            self, distrust, tmp_path, capsys):
        # a record `_cache_read` refuses is a miss: no stale warning, the
        # fresh value printed, the record rewritten
        from skeinalg.cli import _cache_path, result_record

        corpus = tmp_path / "c.csv"
        corpus.write_text(HEADER + 'unknot,0,1,0,"PD[]+O^1",\n'
                          + f'trefoil+,3,1,3,"{lookup("trefoil+").pd}",\n')
        cache = tmp_path / "cache"
        cache.mkdir()
        algebra = make_algebra("gen-conway")
        fresh, paths = [], []
        for entry in load_catalog(corpus):
            record = result_record(entry.diagram(), algebra)
            path = _cache_path(str(cache), record["input"], algebra.key)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(distrust(record))
            fresh.append(record)
            paths.append(path)
        out = tmp_path / "o.csv"
        assert main(["table", "--algebra", "gen-conway", "--input",
                     str(corpus), "--cache", str(cache),
                     "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[1:] == [
            f'unknot,gen-conway,"{fresh[0]["value"]}"',
            f'trefoil+,gen-conway,"{fresh[1]["value"]}"']
        for record, path in zip(fresh, paths):
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == json.dumps(record)

    def test_stale_terms_detected_and_healed(self, tmp_path, capsys):
        from skeinalg.cli import _cache_path

        cache = tmp_path / "cache"
        base = ["table", "--algebra", "gen-conway", "--cache", str(cache),
                "--output", str(tmp_path / "o.csv")]
        assert main(base) == 0
        canon = parse_diagram(lookup("unknot").pd).canonical_encode()
        victim = _cache_path(str(cache), canon, "gen-conway")
        record = json.loads(Path(victim).read_text())
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

    def test_record_file_holds_json_dumps_of_the_record(self, tmp_path):
        from skeinalg.cli import _cache_path, result_record

        cache = tmp_path / "cache"
        assert main(["table", "--algebra", "gen-conway", "--cache",
                     str(cache), "--output", str(tmp_path / "o.csv")]) == 0
        for name in ("unknot", "hopf+", "trefoil+"):
            d = parse_diagram(lookup(name).pd)
            canon = d.canonical_encode()
            record = result_record(d, make_algebra("gen-conway"),
                                   canon=canon)
            path = _cache_path(str(cache), canon, "gen-conway")
            with open(path, "rb") as fh:
                assert fh.read() == json.dumps(record).encode("utf-8"), name
        # no temporary file is left beside the records
        assert not [p for p in cache.iterdir() if p.name.startswith(".")]

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

    @pytest.mark.parametrize("command", ["fuzz", "table"])
    def test_corpus_not_utf8_is_input_error(self, command, tmp_path,
                                            capsys):
        src = tmp_path / "c.csv"
        src.write_bytes(NOT_UTF8)
        rc = main([command, "--algebra", "gen-conway", "--input", str(src)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: cannot read corpus")

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

    def test_place_below_one_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "ev.txt"
        p.write_text("RLT@comp1\nRLT@comp0\n")
        rc = main(["replay", "--name", "unlink2", "--events", str(p)])
        assert rc == 2
        assert "events line 2" in capsys.readouterr().err

    def test_events_not_utf8_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "ev.txt"
        p.write_bytes(NOT_UTF8)
        rc = main(["replay", "--name", "trefoil+", "--events", str(p)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: cannot read events")


class TestModuleInvocation:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skeinalg.cli", "compute",
             "--pd", "PD[]+O^3", "--algebra", "gen-conway"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == "1*q^-2 - 2*p*q^-2 + 1*p^2*q^-2\n"

    def test_closed_stdout_exits_quietly(self):
        # a reader that leaves early, as `| head -c 120` does: with the
        # read end closed before the command starts, its first write
        # breaks the pipe
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "skeinalg.cli", "compute",
                 "--braid", "braid(5; " + "1 2 3 4 " * 12 + ")",
                 "--algebra", "gen-conway", "--json"],
                stdout=w, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(w)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stderr) == (1, "")
