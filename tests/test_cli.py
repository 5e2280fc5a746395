"""Tests for the generate / estimate / compare command line."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import histospline
from histospline import (
    BinRule,
    DataError,
    DisjointSupportsError,
    Samples,
    build_histogram,
    count_turning_points,
    estimate_from_histogram,
    estimate_pdf,
    flatten_positions,
    generate_corpus,
    kl_divergence,
    select_bin_count,
)
from histospline import cli
from histospline.cli import _read_columns, main
from histospline.histogram import MAX_BIN_COUNT, MAX_KNUTH_SEARCH


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_summary(path):
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.readline())


@pytest.fixture(scope="module")
def seed42_corpus(tmp_path_factory):
    """``generate --count 1000 --seed 42`` written to ``<base>/gen/corpus.csv``."""
    base = tmp_path_factory.mktemp("seed42")
    argv = ["generate", "--count", "1000", "--seed", "42", "--out-dir", str(base / "gen")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return base / "gen" / "corpus.csv"


@pytest.fixture
def small_corpus_file(tmp_path):
    out = tmp_path / "gen"
    code = main(["generate", "--count", "20", "--seed", "7", "--out-dir", str(out)])
    assert code == 0
    return out / "corpus.csv"


class TestGenerate:
    def test_writes_all_series(self, tmp_path, capsys):
        code = main(["generate", "--count", "12", "--seed", "3", "--out-dir", str(tmp_path)])
        assert code == 0
        header, rows = read_csv(tmp_path / "corpus.csv")
        assert header == ["series_id", "t", "x"]
        assert {row[0] for row in rows} == {str(i) for i in range(12)}
        out = capsys.readouterr().out
        assert "series=12" in out and "min_x_end=" in out

    def test_byte_identical_reruns(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        for d in (dir_a, dir_b):
            assert main(["generate", "--count", "15", "--seed", "42", "--out-dir", str(d)]) == 0
        assert (dir_a / "corpus.csv").read_bytes() == (dir_b / "corpus.csv").read_bytes()

    def test_zero_count_is_a_usage_error(self, tmp_path):
        out = tmp_path / "none"
        code = main(["generate", "--count", "0", "--out-dir", str(out)])
        assert code == 1
        assert not (out / "corpus.csv").exists()

    def test_bulk_read_equals_row_by_row_floats(self, seed42_corpus):
        path = seed42_corpus
        t_loop, x_loop = [], []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                t_loop.append(float(row[1]))
                x_loop.append(float(row[2]))
        t, x = _read_columns(str(path), "t", "x")
        (x_only,) = _read_columns(str(path), "x")
        for column, loop in ((t, t_loop), (x, x_loop), (x_only, x_loop)):
            assert np.array_equal(column.view(np.uint64), np.array(loop).view(np.uint64))


# sha256 of the seed-42 pipeline's artifacts, run from the directory that
# holds gen/corpus.csv (summary.jsonl records the input path as given)
PINNED_SHA256 = {
    "gen/corpus.csv": "177c51714a45e7978533e70e72a9a021bc45472013acf0f91a6c175df37fbe34",
    "knuth-clamped/histogram.csv":
        "ece184acd3a802d15dabfc46e248708869961a8cbc604bd8ca8159a0d6d3210c",
    "knuth-clamped/curve.csv": "86de015aca0a88c01a96f442fd9b25d690104d3984aa000c7dc91f04c4deee41",
    "knuth-clamped/summary.jsonl":
        "b1657d856d69d558922bbf2f081312af13efc87c22aed067617748bd93e8f2ee",
    "knuth-natural/histogram.csv":
        "ece184acd3a802d15dabfc46e248708869961a8cbc604bd8ca8159a0d6d3210c",
    "knuth-natural/curve.csv": "1f44b9302e7a3dd46ae1de1b1b2625ac067c9a6901015ebd26eb83854b4d8ce5",
    "knuth-natural/summary.jsonl":
        "f1eb66e40dd190ae5af5fbc386cda4bee06442d343278d4ddd90a9fe84b61bd0",
    "knuth-not-a-knot/histogram.csv":
        "ece184acd3a802d15dabfc46e248708869961a8cbc604bd8ca8159a0d6d3210c",
    "knuth-not-a-knot/curve.csv":
        "bc99fe3ee741ec6faccf09084464293205536aa456d6a528d356a3edfc913762",
    "knuth-not-a-knot/summary.jsonl":
        "4e263ae80c680e1ada328d9beb568fefd00ba10f32b05f6d7383745a2081cdb6",
    "sim/histogram.csv": "06535e8830c2cb1b6e905f2ed406503737c5a5b6bee1b7fb24c4ea1676d3359c",
    "sim/curve.csv": "f19a577c42a4111a8b7f8dc174b75d34b43bab99a45a94102a23a60ca02b4905",
    "sim/summary.jsonl": "715132dad5a9b9522be8ca51ebff67b9047658903cd3fb7b554971ba97cb890b",
    "compare stdout": "beb3cf69b3aaa24476fb70bf9ba72cb5883c2e1820e84bc866f0489be97ccf89",
}


def test_seed42_pipeline_artifact_bytes_are_pinned(seed42_corpus, monkeypatch):
    monkeypatch.chdir(seed42_corpus.parents[1])
    with contextlib.redirect_stdout(io.StringIO()):
        for bc in ("clamped", "natural", "not-a-knot"):
            assert main(["estimate", "--input", "gen/corpus.csv", "--rule", "knuth", "--bc", bc,
                         "--out-dir", f"knuth-{bc}"]) == 0
        assert main(["estimate", "--simulate", "--count", "1000", "--seed", "42",
                     "--rule", "fixed:1500", "--out-dir", "sim"]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["compare", "knuth-not-a-knot/curve.csv", "knuth-natural/curve.csv"]) == 0
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
               for name in PINNED_SHA256 if name != "compare stdout"}
    digests["compare stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    assert digests == PINNED_SHA256
    turning_points = [read_summary(f"knuth-{bc}/summary.jsonl")["turning_points"]
                      for bc in ("natural", "not-a-knot")]
    assert turning_points == [57, 55]


def row_by_row(path, columns):
    """The named columns through csv.reader and float(), one cell at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return np.array([[float(row[header.index(c)]) for row in rows] for c in columns])


class TestReaderParity:
    """The C parser and its float() fallback read what the row reader read,
    and reject what it rejected with the same message."""

    @pytest.mark.parametrize("text, columns", [
        ("x\n1_000\n2\n", ("x",)),
        ("x\n\u0661.\u0665\n2\n", ("x",)),  # Arabic-Indic digits
        ("x\r\n1.5\r\n-2e-3\r\n", ("x",)),
        ("\ufeffid,x\n0,1.5\n1,2.5\n", ("x",)),
        ("x\n\"1.5\"\n 2 \ninf\n1e400\n", ("x",)),
        ("x,y\n1,2,3\n4,5,6\n", ("y",)),
        ("u,pdf\n0.0,1.0\n0.5,2_0\n1.0,3.0\n", ("u", "pdf")),
        ("u,pdf\r\n0.0,1.0\r\n0.5,2.0\r\n", ("u", "pdf")),
        ("pdf,u\n1.0,0.0\n2.0,0.5\n", ("u", "pdf")),
    ])
    def test_accepts_what_float_accepts(self, tmp_path, text, columns):
        path = tmp_path / "cells.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = _read_columns(str(path), *columns)
        expected = row_by_row(path, columns)
        assert table.shape == expected.shape
        assert np.array_equal(table.view(np.uint64), expected.view(np.uint64))

    def test_long_fallback_read_equals_row_by_row(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = [f"{i},{t!r},{x!r}\n" for i, (t, x) in
                enumerate(zip(rng.random(70_000).tolist(), rng.normal(size=70_000).tolist()))]
        rows[40_000] = "40000,2.5,1_000\n"  # only float() reads it
        path = tmp_path / "long.csv"
        path.write_text("series_id,t,x\n" + "".join(rows))
        table = _read_columns(str(path), "t", "x")
        expected = row_by_row(path, ("t", "x"))
        assert table.shape == expected.shape == (2, 70_000)
        assert np.array_equal(table.view(np.uint64), expected.view(np.uint64))
        assert table[1, 40_000] == 1000.0

    @pytest.mark.parametrize("command, text, message", [
        ("estimate", "x\n1\n\n2\n", "row 3, column 'x': bad numeric value"),
        ("estimate", "x\n1\n2\n\n", "row 4, column 'x': bad numeric value"),
        ("estimate", "x\n0.3 # c\n2\n", "row 2, column 'x': bad numeric value"),
        ("estimate", "x\n1\n  \n2\n", "row 3, column 'x': bad numeric value"),
        ("estimate", "x\n", "need at least 2 data rows, found 0"),
        ("compare", "u,pdf\n0.0,1.0\n\n1.0,1.0\n", "row 3, column 'u': bad numeric value"),
        ("compare", "u,pdf\n0.0,1.0\n0.5,1 # c\n", "row 3, column 'pdf': bad numeric value"),
        # "\udcff" is written as the byte 0xff, which is not UTF-8
        pytest.param("estimate", "x\n1\n\udcff\n2\n",
                     "not UTF-8 text (invalid start byte)", id="estimate-not-utf8"),
        pytest.param("compare", "u,pdf\n0.0,1.0\n\udcff,1.0\n",
                     "not UTF-8 text (invalid start byte)", id="compare-not-utf8"),
        # decoded inside loadtxt, whose decode error is reported without the fallback
        pytest.param("estimate", "x\n" + "1\n" * 100_000 + "\udcff\n2\n",
                     "not UTF-8 text (invalid start byte)", id="estimate-not-utf8-late"),
        pytest.param("estimate", "x\n1\n" + "a" * 131_073 + "\n2\n",
                     "field larger than field limit (131072)", id="estimate-long-cell"),
        pytest.param("estimate", "x" * 131_073 + "\n1\n2\n",
                     "field larger than field limit (131072)", id="estimate-long-header"),
    ])
    def test_rejects_like_the_row_reader(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        argv = (["estimate", "--input", str(path), "--out-dir", str(tmp_path)]
                if command == "estimate" else ["compare", str(path), str(path)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"

    def test_late_non_utf8_byte_skips_the_fallback(self, tmp_path, capsys, monkeypatch):
        # the fallback would only parse every row again and hit the same byte
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x\n" + b"1\n" * 100_000 + b"\xff\n2\n")

        def no_fallback(*args):
            raise AssertionError("the fallback reader ran")

        monkeypatch.setattr(cli, "_parse_rows", no_fallback)
        assert main(["estimate", "--input", str(path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"


BOM = b"\xef\xbb\xbf"  # how "UTF-8 with BOM" files (Excel's CSV UTF-8) begin


class TestByteOrderMark:
    """A UTF-8 BOM at the start of an input file is not part of its first cell."""

    @pytest.mark.parametrize("text", [
        b"x,y\n1.5,2\n2.5,3\n4,5\n",
        b"x,y\n1_500,2\n2.5,3\n4,5\n",  # read by the float() fallback
    ], ids=["c-parser", "fallback"])
    def test_estimate_reads_the_first_column(self, tmp_path, capsys, text):
        outputs = {}
        for name, data in (("plain", text), ("bom", BOM + text)):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(data)
            out = tmp_path / f"out-{name}"
            argv = ["estimate", "--input", str(path), "--rule", "fixed:2", "--bc", "natural",
                    "--out-dir", str(out)]
            assert main(argv) == 0, capsys.readouterr().err
            outputs[name] = [(out / f).read_bytes() for f in ("histogram.csv", "curve.csv")]
        assert outputs["bom"] == outputs["plain"]

    def test_compare_reads_a_bom_curve(self, tmp_path, capsys):
        curve = b"u,pdf\n0.0,1.0\n0.5,1.0\n1.0,1.0\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(curve)
        bom.write_bytes(BOM + curve)
        assert main(["compare", str(plain), str(plain)]) == 0
        expected = capsys.readouterr().out
        assert main(["compare", str(bom), str(plain)]) == 0
        assert capsys.readouterr().out == expected

    def test_config_file_may_begin_with_a_bom(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_bytes(BOM + b'{"seed": 7}')
        assert main(["generate", "--config", str(config_path), "--emit-config"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7


class TestReadFinite:
    def test_cells_are_searched_only_for_a_non_finite_range(self, tmp_path, monkeypatch):
        path = tmp_path / "ok.csv"
        path.write_text("u,pdf\n0.0,1.0\n1.0,-2.5\n")

        def no_search(*args):
            raise AssertionError("searched the cells of a finite table")

        monkeypatch.setattr(cli.np, "argwhere", no_search)
        assert cli._read_finite(str(path), "u", "pdf").tolist() == [[0.0, 1.0], [1.0, -2.5]]

    @pytest.mark.parametrize("text, message", [
        ("u,pdf\n-inf,1\n1,2\n", "row 2, column 'u'"),
        ("u,pdf\n0,1\n1,-inf\n", "row 3, column 'pdf'"),
        ("u,pdf\n0,nan\ninf,1\n", "row 2, column 'pdf'"),  # file order, not column order
        ("u,pdf\nnan,nan\nnan,nan\n", "row 2, column 'u'"),
    ])
    def test_first_non_finite_cell_is_named(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}: non-finite value$"):
            cli._read_finite(str(path), "u", "pdf")

class TestEstimate:
    def test_artifacts_and_clamped_endpoints(self, small_corpus_file, tmp_path):
        out = tmp_path / "est"
        code = main([
            "estimate", "--input", str(small_corpus_file), "--column", "x",
            "--rule", "knuth", "--bc", "clamped", "--grid", "201",
            "--out-dir", str(out),
        ])
        assert code == 0
        for name in ("histogram.csv", "curve.csv", "summary.jsonl"):
            assert (out / name).exists()
        header, rows = read_csv(out / "curve.csv")
        assert header == ["u", "pdf"] and len(rows) == 201
        assert abs(float(rows[0][1])) <= 1e-12
        assert abs(float(rows[-1][1])) <= 1e-12

    def test_histogram_csv_matches_library(self, small_corpus_file, tmp_path):
        out = tmp_path / "est"
        assert main([
            "estimate", "--input", str(small_corpus_file),
            "--rule", "fixed:9", "--bc", "natural", "--out-dir", str(out),
        ]) == 0
        header, rows = read_csv(out / "histogram.csv")
        assert header == ["bin_left", "bin_right", "height"]
        values = [float(r[2]) for r in rows]
        corpus = generate_corpus(20, seed=7)
        hist = build_histogram(Samples(flatten_positions(corpus)), 9)
        assert values == hist.heights.tolist()

    def test_oscillation_ordering_in_summaries(self, small_corpus_file, tmp_path):
        counts = {}
        for bc in ("natural", "not-a-knot"):
            out = tmp_path / bc
            assert main([
                "estimate", "--input", str(small_corpus_file),
                "--rule", "knuth", "--bc", bc, "--out-dir", str(out),
            ]) == 0
            counts[bc] = read_summary(out / "summary.jsonl")["turning_points"]
        assert counts["natural"] >= counts["not-a-knot"]

    def test_round_trip_matches_in_memory_pipeline(self, small_corpus_file, tmp_path):
        out_file = tmp_path / "from-file"
        assert main([
            "estimate", "--input", str(small_corpus_file),
            "--rule", "sturges", "--bc", "natural", "--out-dir", str(out_file),
        ]) == 0
        out_sim = tmp_path / "from-sim"
        assert main([
            "estimate", "--simulate", "--count", "20", "--seed", "7",
            "--rule", "sturges", "--bc", "natural", "--out-dir", str(out_sim),
        ]) == 0
        file_summary = read_summary(out_file / "summary.jsonl")
        sim_summary = read_summary(out_sim / "summary.jsonl")
        del file_summary["source"], sim_summary["source"]
        assert file_summary == sim_summary

        # and the in-process pipeline agrees with the summary record
        corpus = generate_corpus(20, seed=7)
        samples = Samples(flatten_positions(corpus))
        rule = BinRule.sturges()
        est = estimate_from_histogram(
            build_histogram(samples, select_bin_count(samples, rule)), rule, "natural"
        )
        assert sim_summary["bin_count"] == est.bin_count
        assert sim_summary["min_density"] == est.min_density()
        assert sim_summary["turning_points"] == count_turning_points(est)
        assert sim_summary["normalization_analytic"] == 1.0

    def test_deterministic_artifacts(self, small_corpus_file, tmp_path):
        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main([
                "estimate", "--input", str(small_corpus_file),
                "--rule", "knuth", "--bc", "not-a-knot", "--out-dir", str(out),
            ]) == 0
            outputs.append(out)
        for artifact in ("histogram.csv", "curve.csv", "summary.jsonl"):
            assert (outputs[0] / artifact).read_bytes() == (outputs[1] / artifact).read_bytes()

    def test_empty_input_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["estimate", "--input", str(empty), "--out-dir", str(tmp_path)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_missing_column(self, small_corpus_file, tmp_path):
        assert main([
            "estimate", "--input", str(small_corpus_file), "--column", "speed",
            "--out-dir", str(tmp_path),
        ]) == 2

    def test_bad_numeric_cell_reports_row_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x\n1.0\noops\n2.0\n")
        assert main(["estimate", "--input", str(bad), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "'x'" in err

    @pytest.mark.parametrize("text, row", [
        ("x\n1\n2\ninf\n3\n", 4), ("x\n1\nnan\n2\n", 3), ("x\n1\n2\n1e400\n", 4),
    ], ids=["inf", "nan", "1e400"])
    def test_non_finite_cell_reports_row_and_column(self, tmp_path, capsys, text, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "out"
        assert main(["estimate", "--input", str(bad), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: row {row}, column 'x': non-finite value\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["x,y\n1,2\n3\n4,5\n", "x,y\n1,2\n3,\n4,5\n"])
    def test_short_row_or_empty_cell_reports_row_and_column(self, tmp_path, capsys, text):
        bad = tmp_path / "short.csv"
        bad.write_text(text)
        assert main([
            "estimate", "--input", str(bad), "--column", "y", "--out-dir", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "row 3, column 'y': bad numeric value" in err and "Traceback" not in err

    def test_quoted_numeric_field_parses(self, tmp_path):
        quoted = tmp_path / "quoted.csv"
        quoted.write_text('x\n0.5\n"3.5"\n2.5\n')
        out = tmp_path / "out"
        assert main([
            "estimate", "--input", str(quoted), "--rule", "fixed:3", "--out-dir", str(out),
        ]) == 0
        summary = read_summary(out / "summary.jsonl")
        assert summary["support"] == [0.5, 3.5] and summary["sample_count"] == 3

    def test_header_only_file_needs_two_rows(self, tmp_path, capsys):
        header_only = tmp_path / "header.csv"
        header_only.write_text("x\n")
        assert main(["estimate", "--input", str(header_only), "--out-dir", str(tmp_path)]) == 2
        assert "need at least 2 data rows, found 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--rule", "fixed:1000000000000"],
        ["--rule", "knuth", "--knuth-max", "2000000"],
    ])
    def test_bin_count_above_the_cap_is_a_usage_error(self, small_corpus_file, tmp_path,
                                                      capsys, flags):
        assert main([
            "estimate", "--input", str(small_corpus_file), *flags, "--out-dir", str(tmp_path),
        ]) == 1
        err = capsys.readouterr().err
        cap = MAX_KNUTH_SEARCH if "--knuth-max" in flags else MAX_BIN_COUNT
        assert f" 1..{cap}\n" in err and "Traceback" not in err

    def test_fd_count_above_the_cap_is_a_data_error(self, tmp_path, capsys):
        values = np.append(np.random.default_rng(2024).normal(size=1000), 1e12)
        wide = tmp_path / "outlier.csv"
        wide.write_text("x\n" + "".join(f"{v!r}\n" for v in values.tolist()))
        assert main([
            "estimate", "--input", str(wide), "--rule", "fd", "--out-dir", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "limit of 1000000" in err and "Traceback" not in err

    @pytest.mark.parametrize("rule", ["fixed:5", "sturges", "fd", "knuth"])
    def test_overflowing_sample_range_is_a_data_error(self, tmp_path, capsys, rule):
        wide = tmp_path / "wide.csv"
        wide.write_text("x\n-1e308\n0\n1e308\n")
        assert main([
            "estimate", "--input", str(wide), "--rule", rule, "--out-dir", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "overflows" in err and "Traceback" not in err

    @pytest.mark.parametrize("rule", ["fd", "sqrt", "knuth", "scott"])
    def test_spread_near_the_float_limit(self, tmp_path, capsys, rule):
        # squared spacings and deviations of these samples overflow
        path = tmp_path / "huge.csv"
        path.write_text("x\n1e308\n1.7e308\n1.5e308\n1.2e308\n")
        out = tmp_path / "out"
        code = main(["estimate", "--input", str(path), "--rule", rule, "--bc", "natural",
                     "--out-dir", str(out)])
        if rule == "scott":
            assert code == 2
            assert capsys.readouterr().err.startswith(
                "error: the scott rule's bin width overflows the float range")
            assert not out.exists()
        else:
            assert code == 0
            summary = read_summary(out / "summary.jsonl")
            assert summary["normalization_simpson"] == pytest.approx(1.0, abs=1e-12)

    def test_support_too_narrow_for_the_grid_is_a_data_error(self, tmp_path, capsys):
        # a support a few ulps wide holds fewer than --grid distinct points,
        # so compare would reject the curve.csv written on it
        path = tmp_path / "narrow.csv"
        path.write_text("x\n52.49195437421315\n52.491954374213165\n52.49195437421317\n"
                        "52.491954374213186\n")
        out = tmp_path / "out"
        assert main(["estimate", "--input", str(path), "--rule", "sturges", "--bc", "not-a-knot",
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: the support [52.49195437421315, 52.491954374213186] is too narrow "
                       "for 1001 distinct grid points\n")
        assert not out.exists()

    def test_non_finite_spline_is_a_numeric_error(self, tmp_path, capsys):
        # three bins 1e-300 wide: the fitted slopes overflow the float range
        path = tmp_path / "tiny.csv"
        path.write_text("x\n0\n1e-300\n5e-301\n")
        out = tmp_path / "out"
        assert main(["estimate", "--input", str(path), "--rule", "fixed:3",
                     "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: spline coefficients are not finite for boundary not-a-knot")
        assert not out.exists()

    @pytest.mark.parametrize("rule", ["sturges", "knuth", "fixed:3"])
    def test_zero_width_bins_are_a_data_error(self, tmp_path, capsys, rule):
        # np.linspace over a range of 5e-324 repeats an edge: a bin of width 0
        path = tmp_path / "ulp.csv"
        path.write_text("x\n0\n5e-324\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--input", str(path), "--rule", rule,
                         "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bin density overflows: ") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        assert main([
            "estimate", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)
        ]) == 2

    def test_both_sources_is_usage_error(self, small_corpus_file, tmp_path):
        assert main([
            "estimate", "--input", str(small_corpus_file), "--simulate",
            "--out-dir", str(tmp_path),
        ]) == 1

    def test_no_source_defaults_to_usage_error(self, tmp_path):
        assert main(["estimate", "--out-dir", str(tmp_path)]) == 1

    def test_unknown_rule_is_usage_error(self, small_corpus_file, tmp_path):
        assert main([
            "estimate", "--input", str(small_corpus_file), "--rule", "bogus",
            "--out-dir", str(tmp_path),
        ]) == 1

    @pytest.mark.parametrize("rule", ["sqrt", "fd", "fixed:5", "knuth"])
    @pytest.mark.parametrize("knuth_max", ["0", "20000"])
    def test_knuth_max_is_checked_under_every_rule(self, small_corpus_file, tmp_path, capsys,
                                                   rule, knuth_max):
        out = tmp_path / "out"
        assert main([
            "estimate", "--input", str(small_corpus_file), "--rule", rule,
            "--knuth-max", knuth_max, "--out-dir", str(out),
        ]) == 1
        assert capsys.readouterr().err == "error: knuth_search_max must be in 1..10000\n"
        assert not out.exists()

    @pytest.mark.parametrize("rule", ["fixed:0", "fixed:1000000000000"])
    def test_fixed_count_out_of_range_message(self, small_corpus_file, tmp_path, capsys, rule):
        assert main([
            "estimate", "--input", str(small_corpus_file), "--rule", rule,
            "--out-dir", str(tmp_path),
        ]) == 1
        assert capsys.readouterr().err == "error: fixed bin count must be in 1..1000000\n"

    def test_not_a_knot_on_two_bins_is_a_data_error(self, small_corpus_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([
            "estimate", "--input", str(small_corpus_file), "--rule", "fixed:2",
            "--bc", "not-a-knot", "--out-dir", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            "error: not-a-knot needs at least 4 knots (3 bins), got 3\n"
        )

    def test_unknown_bc_is_rejected_by_the_parser(self, small_corpus_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "estimate", "--input", str(small_corpus_file), "--bc", "bogus",
                "--out-dir", str(tmp_path),
            ])
        assert exc.value.code == 1


class TestCompare:
    @pytest.fixture
    def curve(self, small_corpus_file, tmp_path):
        out = tmp_path / "curve-src"
        assert main([
            "estimate", "--input", str(small_corpus_file),
            "--rule", "sturges", "--bc", "natural", "--out-dir", str(out),
        ]) == 0
        return out / "curve.csv"

    def test_self_comparison_is_zero(self, curve, capsys):
        assert main(["compare", str(curve), str(curve)]) == 0
        out = capsys.readouterr().out
        kl_ab = float(out.split("kl_ab=")[1].splitlines()[0])
        kl_ba = float(out.split("kl_ba=")[1].splitlines()[0])
        assert abs(kl_ab) <= 1e-9 and abs(kl_ba) <= 1e-9

    def test_disjoint_supports(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("u,pdf\n0.0,1.0\n1.0,1.0\n")
        b.write_text("u,pdf\n5.0,1.0\n6.0,1.0\n")
        assert main(["compare", str(a), str(b)]) == 2
        message = "supports (0.0, 1.0) and (5.0, 6.0) do not overlap"
        assert capsys.readouterr().err == f"error: {message}\n"
        # the library reports the same supports the same way
        p = estimate_pdf(Samples(np.linspace(0.0, 1.0, 50)), BinRule.fixed(5), "natural")
        q = estimate_pdf(Samples(np.linspace(5.0, 6.0, 50)), BinRule.fixed(5), "natural")
        with pytest.raises(DisjointSupportsError) as excinfo:
            kl_divergence(p, q)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text, message", [
        ("u,pdf\n0.0,1.0\n0.5,1.0\n1.0,oops\n", "row 4, column 'pdf': bad numeric value"),
        ("u,pdf\n0.0,1.0\n0.5\n1.0,1.0\n", "row 3, column 'pdf': bad numeric value"),
        ("u,pdf\n0.0,1.0\n", "need at least 2 data rows, found 1"),
        ("u\n0.0\n1.0\n", "no column named 'pdf'"),
        ("u,pdf\n0,1\ninf,1\n", "row 3, column 'u': non-finite value"),
        ("u,pdf\n0,1\n1,nan\n", "row 3, column 'pdf': non-finite value"),
        ("u,pdf\n0,1\nnan,1\n2,1\n", "row 3, column 'u': non-finite value"),
        # the fallback names the first bad cell in file order
        ("u,pdf\n0.0,1.0\n0.5,oops\nbad,1.0\n", "row 3, column 'pdf': bad numeric value"),
        ("u,pdf\n0,1\n0,1\n", "curve grid must be strictly increasing"),
    ])
    def test_bad_curve_file_is_a_data_error(self, curve, tmp_path, capsys, text, message):
        bad = tmp_path / "bad-curve.csv"
        bad.write_text(text)
        assert main(["compare", str(curve), str(bad)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "u,pdf\n-1e308,0.5\n1e308,0.5\n",
        "u,pdf\n-1e308,0.25\n0,0.5\n1e308,0.25\n",
    ], ids=["one-step", "two-steps"])
    def test_curve_span_beyond_the_float_range_is_a_data_error(self, curve, tmp_path, capsys,
                                                               text):
        wide = tmp_path / "wide.csv"
        wide.write_text(text)
        assert main(["compare", str(wide), str(curve)]) == 2
        assert capsys.readouterr().err == (
            f"error: {wide}: curve grid span -1e+308 to 1e+308 overflows the float range\n")

    def test_natural_vs_not_a_knot_kl_is_small(self, small_corpus_file, tmp_path, capsys):
        curves = {}
        for bc in ("natural", "not-a-knot"):
            out = tmp_path / f"kl-{bc}"
            assert main([
                "estimate", "--input", str(small_corpus_file),
                "--rule", "knuth", "--bc", bc, "--out-dir", str(out),
            ]) == 0
            curves[bc] = out / "curve.csv"
        capsys.readouterr()
        assert main(["compare", str(curves["natural"]), str(curves["not-a-knot"])]) == 0
        out = capsys.readouterr().out
        kl_ab = float(out.split("kl_ab=")[1].splitlines()[0])
        kl_ba = float(out.split("kl_ba=")[1].splitlines()[0])
        # both tiny and positive: the two estimates share the histogram
        assert 0.0 <= kl_ab <= 0.01
        assert 0.0 <= kl_ba <= 0.01


class TestConfigHandling:
    def test_emit_config_runs_nothing(self, tmp_path, capsys):
        out = tmp_path / "emit"
        code = main(["generate", "--count", "5", "--out-dir", str(out), "--emit-config"])
        assert code == 0
        config = json.loads(capsys.readouterr().out)
        assert config["count"] == 5
        assert config["command"] == "generate"
        assert not out.exists()

    def test_float_config_value_is_emitted(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text('{"dt": 0.02}')
        assert main(["generate", "--config", str(config_path), "--emit-config"]) == 0
        assert json.loads(capsys.readouterr().out)["dt"] == 0.02

    def test_builtin_defaults(self, capsys):
        assert main(["generate", "--emit-config"]) == 0
        config = json.loads(capsys.readouterr().out)
        assert config["count"] == 1000
        assert config["seed"] == 42
        assert config["rule"] == "knuth"
        assert config["bc"] == "not-a-knot"
        assert config["grid"] == 1001
        assert config["v0_range"] == [25.0, 35.0]
        assert config["decel_range"] == [3.5, 4.5]

    def test_flags_override_config_file_over_defaults(self, small_corpus_file, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"rule": "sturges", "grid": 51}))
        out = tmp_path / "cfg"
        assert main([
            "estimate", "--input", str(small_corpus_file), "--config", str(config_path),
            "--rule", "fixed:5", "--out-dir", str(out), "--emit-config",
        ]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["rule"] == "fixed:5"  # flag wins
        assert resolved["grid"] == 51  # config file wins over default
        assert resolved["bc"] == "not-a-knot"  # untouched default

    def test_config_file_applies_when_no_flag(self, small_corpus_file, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"rule": "fixed:6", "bc": "natural"}))
        out = tmp_path / "cfg2"
        assert main([
            "estimate", "--input", str(small_corpus_file), "--config", str(config_path),
            "--out-dir", str(out),
        ]) == 0
        summary = read_summary(out / "summary.jsonl")
        assert summary["bin_count"] == 6
        assert summary["boundary"] == "natural"

    def test_unknown_config_key(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"binz": 3}))
        assert main(["generate", "--config", str(config_path), "--out-dir", str(tmp_path)]) == 1

    def test_invalid_config_json(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text("{not json")
        assert main(["generate", "--config", str(config_path), "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("content, message", [
        (b'{"count": 5}\xff', "run.json is not UTF-8 text (invalid start byte)"),
        (b'{"v0_range": 5}', "config key 'v0_range' has a value of the wrong type: 5"),
        (b'{"knuth_max": "abc"}', "config key 'knuth_max' has a value of the wrong type: 'abc'"),
        (b'{"rule": 5}', "config key 'rule' has a value of the wrong type: 5"),
        (b'{"dt": true}', "config key 'dt' has a value of the wrong type: True"),
    ])
    def test_config_value_of_the_wrong_type(self, tmp_path, capsys, content, message):
        config_path = tmp_path / "run.json"
        config_path.write_bytes(content)
        assert main(["generate", "--config", str(config_path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{message}\n")

    @pytest.mark.parametrize("content, message", [
        (b"[1]", "config file {path} must hold a JSON object"),
        (None, "cannot read config file {path}: [Errno 2] No such file or directory"),
        (b'{"bc": "bogus"}', "unknown boundary condition 'bogus'"),
        (b'{"seed": -1}', "seed must be >= 0"),
    ], ids=["list", "missing", "bad-bc", "negative-seed"])
    def test_bad_config_file_is_a_usage_error(self, tmp_path, capsys, content, message):
        config_path = tmp_path / "run.json"
        if content is not None:
            config_path.write_bytes(content)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(config_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: " + message.format(path=config_path))
        assert not out.exists()

    def test_generator_ranges_flow_through(self, tmp_path):
        out = tmp_path / "ranged"
        assert main([
            "generate", "--count", "3", "--seed", "1", "--out-dir", str(out),
            "--v0-range", "20", "20", "--t-react-range", "1", "1",
            "--decel-range", "8", "8", "--dt", "0.01",
        ]) == 0
        _, rows = read_csv(out / "corpus.csv")
        final_x = float(rows[-1][2])
        assert final_x == pytest.approx(45.0, abs=0.2)  # 20 * 1 + 400 / 16

    def test_bad_range_is_usage_error(self, tmp_path):
        assert main([
            "generate", "--count", "3", "--out-dir", str(tmp_path),
            "--v0-range", "30", "20",
        ]) == 1


def test_import_loads_no_scipy():
    # the runtime needs numpy only; scipy is a test and benchmark dependency
    src = str(Path(histospline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, histospline, histospline.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


# every size the CLI allocates is checked before the allocation, so these
# runs fail fast under a 1.5 GB address-space limit instead of allocating
ADDRESS_SPACE_LIMIT = 1_500_000_000


def run_cli_limited(argv, cwd):
    src = str(Path(histospline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))

    return subprocess.run([sys.executable, "-m", "histospline.cli", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path), preexec_fn=limit_address_space,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv, message", [
    (["generate", "--dt", "1e-9"], "exceed the corpus limit of 100000000 samples"),
    (["estimate", "--simulate", "--dt", "1e-9"], "exceed the corpus limit"),
    (["generate", "--v0-range", "1e300", "1e300"], "exceed the corpus limit"),
    (["generate", "--decel-range", "1e-300", "1e-300"], "exceed the corpus limit"),
    (["generate", "--v0-range", "1e300", "1e300", "--decel-range", "1e-300", "1e-300"],
     "longest stop time"),
    (["generate", "--count", "1000000000"], "1000000000 series of up to"),
    (["estimate", "--simulate", "--grid", "1000000000000"], "grid size must be in 2..1000000"),
    (["compare", "a.csv", "b.csv", "--grid", "1000000000000"], "grid size must be in 2..1000000"),
    # a scan of 1..10**6 bin counts would run for about a day
    (["estimate", "--simulate", "--knuth-max", "1000000"], "must be in 1..10000\n"),
])
def test_oversized_inputs_are_usage_errors_before_allocation(tmp_path, argv, message):
    result = run_cli_limited(argv, tmp_path)
    assert result.returncode == 1
    assert message in result.stderr and "Traceback" not in result.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["generate", "--count", "2", "--seed", "-1"],
    ["estimate", "--simulate", "--count", "2", "--seed", "-5"],
], ids=["generate", "estimate-simulate"])
def test_negative_seed_is_a_usage_error(tmp_path, argv):
    result = run_cli_limited(argv, tmp_path)
    assert result.returncode == 1
    assert result.stderr == "error: seed must be >= 0\n"
    assert not any(tmp_path.iterdir())
