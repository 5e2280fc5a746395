"""Tests for the generate / estimate / compare command line."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from histospline.datagen import MAX_CORPUS_SAMPLES
from histospline.estimator import MAX_GRID_SIZE
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
        t, x = _read_columns(str(path), "t", "x", limit=MAX_CORPUS_SAMPLES).T
        (x_only,) = _read_columns(str(path), "x", limit=MAX_CORPUS_SAMPLES).T
        for column, loop in ((t, t_loop), (x, x_loop), (x_only, x_loop)):
            assert np.array_equal(column.view(np.uint64), np.array(loop).view(np.uint64))


# sha256 of the seed-42 pipeline's artifacts, run from the directory that
# holds gen/corpus.csv (summary.jsonl records the input path as given)
PINNED_SHA256 = {
    "gen/corpus.csv": "177c51714a45e7978533e70e72a9a021bc45472013acf0f91a6c175df37fbe34",
    "knuth-clamped/histogram.csv":
        "964db0c0d31198dc02012818f94f4e715f1a9e308c1b0c078c088e828791aabf",
    "knuth-clamped/curve.csv": "baf50e1c574e4506c419fe1b259becf306f9b8f2e401b24574a5df32379bb653",
    "knuth-clamped/summary.jsonl":
        "fac3c598676fc9d1f1f87cac8f9237c4d873ae1e45a70f29221d072dccd30b35",
    "knuth-natural/histogram.csv":
        "964db0c0d31198dc02012818f94f4e715f1a9e308c1b0c078c088e828791aabf",
    "knuth-natural/curve.csv": "77c32fd2f704bfcdbe5e50caad3a2a4c10ca6e87a387f37a8d0f7bb53ad63bcd",
    "knuth-natural/summary.jsonl":
        "7d9332f5fe851d5c217e8e9bcb14948c226ddfe78d890db378683c231c22153f",
    "knuth-not-a-knot/histogram.csv":
        "964db0c0d31198dc02012818f94f4e715f1a9e308c1b0c078c088e828791aabf",
    "knuth-not-a-knot/curve.csv":
        "9707591730e96b9cb72db153e8c309ef94b8614e93cf6f9046634f1a451012cc",
    "knuth-not-a-knot/summary.jsonl":
        "4255d1444b653591db23d2e00cb990f58d11cd35cc7b1d88e5f9e5f12173636f",
    "sim/histogram.csv": "7074b25735d3bb091ebdb6692e869d9a2ef13c36f79a1bbbbbf0eadd22da4ba1",
    "sim/curve.csv": "2dad8640aacb855a76edf69190a195f12de167cd0574a62b4ce207ca208ee512",
    "sim/summary.jsonl": "a31ba1374d5a554efdcb320e1e00db6b5f129ae083039126d2d60618973de770",
    "compare stdout": "a36b4a1e0f66b1d12e64b0207f3a08af7bf814f333ff92dd5d1802a0eeb8af68",
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


class TestGenerateHelper:
    """generate's helper process formats the later series' rows of a large
    corpus; its bytes are those of the in-process path, and it is optional."""

    @pytest.fixture
    def helpers(self, monkeypatch):
        """Each helper process that generate starts."""
        self.started = []
        popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            self.started.append(popen(*args, **kwargs))
            return self.started[-1]

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        return self.started

    def generate(self, out, *argv):
        """main's exit code and stderr; every helper is reaped when it returns or raises."""
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["generate", *argv, "--out-dir", str(out)])
        finally:
            assert all(helper.returncode is not None for helper in self.started)
        return code, stderr.getvalue()

    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    def test_helper_bytes_equal_the_in_process_bytes(self, tmp_path, monkeypatch, helpers,
                                                     count):
        monkeypatch.setattr(cli, "HELPER_MIN_SAMPLES", 10**9)
        assert self.generate(tmp_path / "in", "--count", str(count), "--seed", "42") == (0, "")
        assert not helpers
        monkeypatch.setattr(cli, "HELPER_MIN_SAMPLES", 0)
        assert self.generate(tmp_path / "two", "--count", str(count), "--seed", "42") == (0, "")
        assert len(helpers) == (count > 1)  # a one-series corpus stays in-process
        assert helpers == [] or helpers[0].returncode == 0
        for name in ("in", "two"):
            assert os.listdir(tmp_path / name) == ["corpus.csv"]
        assert (tmp_path / "in" / "corpus.csv").read_bytes() == \
            (tmp_path / "two" / "corpus.csv").read_bytes()

    @pytest.mark.parametrize("executable", ["missing", "false"])
    def test_a_helper_that_fails_leaves_the_pinned_bytes(self, tmp_path, monkeypatch, helpers,
                                                         executable):
        # a helper that cannot start, or one that starts and exits 1
        path = str(tmp_path / "no-python") if executable == "missing" else shutil.which("false")
        monkeypatch.setattr(sys, "executable", path)
        assert self.generate(tmp_path / "gen", "--count", "1000", "--seed", "42") == (0, "")
        assert [helper.returncode for helper in helpers] == ([] if executable == "missing" else [1])
        assert os.listdir(tmp_path / "gen") == ["corpus.csv"]
        digest = hashlib.sha256((tmp_path / "gen" / "corpus.csv").read_bytes()).hexdigest()
        assert digest == PINNED_SHA256["gen/corpus.csv"]

    def test_a_failed_helper_gives_back_its_files_before_the_fallback(self, tmp_path,
                                                                      monkeypatch, helpers):
        # a helper that writes rows and then exits 1: the parent formats the
        # later series only after closing, so unlinking, its job and rows
        script = tmp_path / "fails-after-writing"
        script.write_text("#!/bin/sh\nhead -c 100000 /dev/zero\nexit 1\n")
        script.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(script))
        files, open_when_formatted = [], []
        temporary_file, rows = tempfile.TemporaryFile, cli._corpus_rows.rows

        def recording_temporary_file(*args, **kwargs):
            files.append(temporary_file(*args, **kwargs))
            return files[-1]

        def recording_rows(*args):
            open_when_formatted.append(not all(fh.closed for fh in files))
            return rows(*args)

        monkeypatch.setattr(tempfile, "TemporaryFile", recording_temporary_file)
        monkeypatch.setattr(cli._corpus_rows, "rows", recording_rows)
        assert self.generate(tmp_path / "gen", "--count", "1000", "--seed", "42") == (0, "")
        assert [helper.returncode for helper in helpers] == [1] and len(files) == 2
        split = open_when_formatted.index(False)
        assert 0 < split < 1000 and not any(open_when_formatted[split:])
        assert os.listdir(tmp_path / "gen") == ["corpus.csv"]
        digest = hashlib.sha256((tmp_path / "gen" / "corpus.csv").read_bytes()).hexdigest()
        assert digest == PINNED_SHA256["gen/corpus.csv"]

    @pytest.mark.parametrize("error", [KeyboardInterrupt, OSError])
    def test_the_helper_is_reaped_when_the_parent_fails(self, tmp_path, monkeypatch, helpers,
                                                        error):
        monkeypatch.setattr(cli, "HELPER_MIN_SAMPLES", 0)

        def failing_rows(*args):
            raise error("interrupted")

        monkeypatch.setattr(cli._corpus_rows, "rows", failing_rows)
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                self.generate(tmp_path / "gen", "--count", "7")
        else:
            assert self.generate(tmp_path / "gen", "--count", "7") == (2, "error: interrupted\n")
        assert len(helpers) == 1
        assert os.listdir(tmp_path / "gen") == ["corpus.csv"]

    @pytest.mark.parametrize("threshold", [1 << 17, 10**9], ids=["helper", "in-process"])
    def test_writer_peak_does_not_grow_with_the_corpus(self, tmp_path, monkeypatch, threshold):
        # 200 and 1,000 series hold 1.4 and 6.9 MB of positions; the writer
        # holds the rows of one series at a time, and the helper's job and
        # rows are files
        monkeypatch.setattr(cli, "HELPER_MIN_SAMPLES", threshold)
        # first-use allocations, such as importing subprocess, are not counted below
        cli._write_corpus(tmp_path / "warm.csv", generate_corpus(200, seed=1))
        peaks = []
        for count in (200, 1000):
            corpus = generate_corpus(count, seed=42)
            assert sum(map(len, corpus)) >= 1 << 17
            tracemalloc.start()
            try:
                cli._write_corpus(tmp_path / f"{count}.csv", corpus)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.25e6


def row_by_row(path, columns):
    """The named columns through csv.reader and float(), one cell at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return np.array([[float(row[header.index(c)]) for c in columns] for row in rows])


class TestReaderParity:
    """The C parser and its float() fallback read what the row reader read,
    and reject what it rejected with the same message."""

    @pytest.mark.parametrize("text, columns", [
        ("x\n1_000\n2\n", ("x",)),
        ("x\n\u0661.\u0665\n2\n", ("x",)),  # Arabic-Indic digits
        ("x\r\n1.5\r\n-2e-3\r\n", ("x",)),
        ("\ufeffid,x\n0,1.5\n1,2.5\n", ("x",)),
        ("x\n\"1.5\"\n 2 \n", ("x",)),
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
            table = _read_columns(str(path), *columns, limit=MAX_GRID_SIZE)
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
        table = _read_columns(str(path), "t", "x", limit=MAX_CORPUS_SAMPLES)
        expected = row_by_row(path, ("t", "x"))
        assert table.shape == expected.shape == (70_000, 2)
        assert np.array_equal(table.view(np.uint64), expected.view(np.uint64))
        assert table[40_000, 1] == 1000.0

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
        table = cli._read_columns(str(path), "u", "pdf", limit=MAX_GRID_SIZE)
        assert table.tolist() == [[0.0, 1.0], [1.0, -2.5]]

    @pytest.mark.parametrize("text, message", [
        ("u,pdf\n-inf,1\n1,2\n", "row 2, column 'u'"),
        ("u,pdf\n0,1\n1,-inf\n", "row 3, column 'pdf'"),
        ("u,pdf\n0,nan\ninf,1\n", "row 2, column 'pdf'"),  # file order, not column order
        ("u,pdf\nnan,nan\nnan,nan\n", "row 2, column 'u'"),
        # float() reads these cells, and the reader names them
        ("u,pdf\n0,1\ninf,1\n", "row 3, column 'u'"),
        ("u,pdf\n0,1\n1,1e400\n", "row 3, column 'pdf'"),
    ])
    def test_first_non_finite_cell_is_named(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}: non-finite value$"):
            cli._read_columns(str(path), "u", "pdf", limit=MAX_GRID_SIZE)

    @pytest.mark.parametrize("fallback", [False, True], ids=["loadtxt", "parse-rows"])
    def test_one_n_sized_array_is_held_from_the_reader_through_samples(self, tmp_path,
                                                                        fallback):
        # estimate --input's samples, 0.8 MB: the column the reader parsed
        # is the array Samples keeps
        values = np.random.default_rng(3).normal(size=10**5)
        cells = [repr(v) for v in values.tolist()]
        if fallback:  # only float() reads this cell
            cells[1], values[1] = "0_1", 1.0
        path = tmp_path / "samples.csv"
        path.write_text("x\n" + "".join(cell + "\n" for cell in cells))
        tracemalloc.start()
        try:
            column = cli._read_samples(str(path), "x")
            samples = Samples(column)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1.1 * values.nbytes
        assert samples.values is column and not column.flags.writeable
        assert np.array_equal(column, values)


class TestOneOpenPerInput:
    """Each input file is opened once, so the bytes read count each input
    byte once; the float() fallback seeks back in the open file."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """In order, each path that cli opens and "fallback" for each fallback read."""
        paths = []

        def counting_open(file, *args, **kwargs):
            paths.append(str(file))
            return open(file, *args, **kwargs)

        parse_rows = cli._parse_rows
        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        monkeypatch.setattr(cli, "_parse_rows",
                            lambda *a: paths.append("fallback") or parse_rows(*a))
        return paths

    @pytest.mark.parametrize("cell", ["1000", "1_000"], ids=["loadtxt", "parse-rows"])
    def test_estimate_opens_its_input_once(self, tmp_path, opened, cell):
        path = tmp_path / "samples.csv"
        path.write_text(f"x\n{cell}\n2\n3.5\n4\n")
        argv = ["estimate", "--input", str(path), "--rule", "sturges",
                "--out-dir", str(tmp_path / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert opened.count(str(path)) == 1
        assert opened.count("fallback") == (cell == "1_000")

    def test_compare_opens_each_curve_once(self, tmp_path, opened):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("u,pdf\n0,1\n1,1\n")
        b.write_text("u,pdf\n0,1\n0.5,1_0\n1,1\n")  # read by the fallback
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["compare", str(a), str(b)]) == 0
        assert opened == [str(a), str(b), "fallback"]


class TestRowLimits:
    """Each input file is read up to one row past its limit, and a file
    with more rows than the limit is a data error."""

    # (limit name, the command's argv, header, the cells of one row)
    CASES = {
        "estimate": ("MAX_CORPUS_SAMPLES",
                     ["estimate", "--rule", "fixed:2", "--bc", "natural", "--input"], "x", "{i}"),
        "compare": ("MAX_GRID_SIZE", ["compare", "--grid", "20"], "u,pdf", "{i},1"),
    }

    def run(self, tmp_path, command, rows, fallback):
        _, argv, header, cells = self.CASES[command]
        lines = [cells.format(i=i) for i in range(rows)]
        if fallback:  # only float() reads this cell
            lines[1] = cells.format(i="0_1")
        path = tmp_path / "rows.csv"
        path.write_text(header + "\n" + "".join(line + "\n" for line in lines))
        argv = [*argv, str(path)]
        if command == "compare":
            argv.append(str(path))
        else:
            argv += ["--out-dir", str(tmp_path / "out")]
        return main(argv), path

    @pytest.mark.parametrize("fallback", [False, True], ids=["loadtxt", "parse-rows"])
    @pytest.mark.parametrize("command", ["estimate", "compare"])
    def test_limit_passes_and_one_more_row_is_exit_2(self, tmp_path, capsys, monkeypatch,
                                                      command, fallback):
        monkeypatch.setattr(cli, self.CASES[command][0], 20)
        parsed = []
        parse_rows = cli._parse_rows
        monkeypatch.setattr(cli, "_parse_rows", lambda *a: parsed.append(a) or parse_rows(*a))
        code, _ = self.run(tmp_path, command, 20, fallback)
        assert code == 0, capsys.readouterr().err
        code, path = self.run(tmp_path, command, 21, fallback)
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: more than the limit of 20 data rows\n"
        assert bool(parsed) == fallback

    @pytest.mark.parametrize("fallback", [False, True], ids=["loadtxt", "parse-rows"])
    def test_over_limit_file_is_not_read_whole(self, tmp_path, fallback):
        rows = ["1_000" if fallback and i == 1 else repr(x)
                for i, x in enumerate(np.random.default_rng(4).normal(size=200_000).tolist())]
        path = tmp_path / "long.csv"
        path.write_text("x\n" + "".join(row + "\n" for row in rows))
        peaks = {}
        for limit in (1_000, 10**6):
            tracemalloc.start()
            try:
                with contextlib.suppress(DataError):
                    _read_columns(str(path), "x", limit=limit)
                peaks[limit] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1_000] < peaks[10**6] / 10

    def test_a_large_limit_allocates_nothing_up_front(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("x\n1\n2\n3\n")
        tracemalloc.start()
        try:
            _read_columns(str(path), "x", limit=MAX_CORPUS_SAMPLES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


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

    def test_simulate_holds_one_n_sized_array_when_samples_is_built(self, tmp_path,
                                                                    monkeypatch):
        # the corpus is freed once flattened: when Samples is built, the
        # flattened positions are the one large block alive
        argv = ["estimate", "--simulate", "--count", "200", "--seed", "3", "--rule", "fixed:2",
                "--bc", "natural", "--out-dir", str(tmp_path / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0  # first-use imports are not counted below
        held = []
        samples = cli.Samples

        def traced_samples(values):
            held.append((tracemalloc.get_traced_memory()[0], values.size))
            return samples(values)

        monkeypatch.setattr(cli, "Samples", traced_samples)
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        finally:
            tracemalloc.stop()
        [(retained, n)] = held
        assert n == read_summary(tmp_path / "out" / "summary.jsonl")["sample_count"]
        assert retained < 1.1 * 8 * n

    # The traced peak of estimate grows per sample by about 2.08 x 8 bytes
    # from --input under Knuth (the values and the scan's sorted temporary),
    # 1.00 x 8 under sturges (the values; the histogram sorts one block at a
    # time) and 1.24 x 8 from --simulate under either rule (the generator's
    # peak).  A new full-size temporary would add 1 to one of these.  Both
    # simulated corpora are above one CORPUS_BLOCK, below which the
    # generator's block temporaries grow with N too.
    @pytest.mark.parametrize("source, counts, bound", [
        ("input-knuth", (30, 120), 2.2),
        ("input-sturges", (30, 120), 1.1),
        ("simulate", (100, 400), 1.35),
    ], ids=["input-knuth", "input-sturges", "simulate"])
    def test_peak_growth_per_sample(self, source, counts, bound, tmp_path):
        def argv(count):
            if source == "simulate":
                flags = ["--simulate", "--count", str(count), "--seed", "1"]
            else:
                corpus = tmp_path / f"gen{count}"
                assert main(["generate", "--count", str(count), "--seed", "1",
                             "--out-dir", str(corpus)]) == 0
                flags = ["--input", str(corpus / "corpus.csv"), "--rule", source.split("-")[1]]
            return ["estimate", *flags, "--out-dir", str(tmp_path / "out")]

        peaks, sizes = [], []
        with contextlib.redirect_stdout(io.StringIO()):
            small, large = map(argv, counts)
            assert main(small) == 0  # first-use imports are not counted below
            for args in (small, large):
                tracemalloc.start()
                try:
                    assert main(args) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                sizes.append(read_summary(tmp_path / "out" / "summary.jsonl")["sample_count"])
        growth = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) / 8
        # every path holds the sample vector itself
        assert 0.9 < growth < bound

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
        assert err == ("error: the 1001-point curve grid over the support [52.49195437421315, "
                       "52.491954374213186] must be strictly increasing\n")
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

    def test_error_naming_a_path_with_line_breaks_is_one_line(self, tmp_path, capsys):
        path = str(tmp_path / "no\r\npe.csv")
        assert main(["estimate", "--input", path, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {tmp_path}/no\\r\\npe.csv: [Errno 2] ")
        assert err.count("\n") == 1 and "\r" not in err

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


def f_string_rows(*columns):
    """The reference text of :func:`cli._write_csv`'s rows: each cell's ``repr``."""
    return "".join(",".join(f"{v!r}" for v in row) + "\n"
                   for row in zip(*(c.tolist() for c in columns)))


# the float range's extremes and subnormals, each a different ``repr`` length
EDGE_FLOATS = [-0.0, 5e-324, 1e-310, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(table=st.tuples(st.integers(1, 3), st.integers(0, 2000)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats() | st.sampled_from(EDGE_FLOATS))))
def test_write_csv_rows_are_the_repr_of_each_cell(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        cli._write_csv(path, "header", *table)
        assert path.read_bytes() == ("header\n" + f_string_rows(*table)).encode()


def test_estimate_writes_the_reference_curve_of_a_large_grid(small_corpus_file, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["estimate", "--input", str(small_corpus_file), "--grid", "100000",
                     "--out-dir", str(tmp_path / "est")]) == 0
    _, rows = read_csv(small_corpus_file)
    samples = Samples(np.array([float(row[2]) for row in rows]))
    est = estimate_pdf(samples, BinRule.knuth(), "not-a-knot")
    u = np.linspace(*est.support, 100_000)
    expected = "u,pdf\n" + f_string_rows(u, est(u))
    assert (tmp_path / "est" / "curve.csv").read_text(encoding="utf-8") == expected


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

    # The traced peak of compare grows by about 7.98 x 8 bytes per row of
    # its two curve files: each curve's (rows, 2) table and its checked grid
    # are held, 6 x 8 bytes per row, and np.interp copies one curve's
    # read-only grid and strided density column at a time, 2 x 8 more.  The
    # KL's own arrays have --grid points.
    def test_peak_growth_per_row(self, tmp_path):
        def curves(rows):
            paths = []
            for name, lo in (("a", 0.0), ("b", 0.25)):
                path = tmp_path / f"{name}{rows}.csv"
                cells = np.linspace(lo, lo + 1.0, rows).tolist()
                path.write_text("u,pdf\n" + "".join(f"{u!r},1.0\n" for u in cells))
                paths.append(str(path))
            return ["compare", *paths]

        sizes, peaks = (20_000, 100_000), []
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(curves(100)) == 0  # first-use imports are not counted below
            for argv in map(curves, sizes):
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        growth = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) / 8
        # both curves' grids and densities are held while np.interp runs
        assert 4 < growth < 8.5

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

    def test_config_numbers_are_floats_as_the_flags_give_them(self, tmp_path):
        # an integer dt once gave integer sample times, and one past int64 a traceback
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"dt": 1, "v0_range": [20, 30]}))
        for out, argv in (("cfg", ["--config", str(config_path)]),
                          ("flags", ["--dt", "1", "--v0-range", "20", "30"])):
            assert main(["generate", "--count", "2", "--out-dir", str(tmp_path / out), *argv]) == 0
        corpus = (tmp_path / "cfg" / "corpus.csv").read_bytes()
        assert corpus == (tmp_path / "flags" / "corpus.csv").read_bytes()
        assert corpus.startswith(b"series_id,t,x\n0,0.0,0.0\n0,1.0,")

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
        (b'{"dt": 1' + b"0" * 400 + b"}", "config key 'dt' is beyond the float range: 1000"),
        (b'{"v0_range": [1, 1' + b"0" * 400 + b"]}", "config key 'v0_range' is beyond the float"),
        (b'{"count": 1' + b"0" * 5000 + b"}", "config file {path} is not valid JSON: Exceeds"),
        (b"[" * 100_000, "config file {path} is not valid JSON: maximum recursion depth"),
    ], ids=["list", "missing", "bad-bc", "negative-seed", "huge-int-dt", "huge-int-range",
            "int-of-5001-digits", "nested-too-deep"])
    def test_bad_config_file_is_a_usage_error(self, tmp_path, capsys, content, message):
        config_path = tmp_path / "run.json"
        if content is not None:
            config_path.write_bytes(content)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(config_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: " + message.format(path=config_path))
        assert not out.exists()

    NUL, SURROGATE = "holds a NUL byte", "is not encodable (surrogates not allowed)"

    @pytest.mark.parametrize("argv, config, key, fault", [
        (["generate"], {"out_dir": "a\u0000b"}, "out_dir", NUL),
        (["estimate", "--simulate", "--count", "3"], {"out_dir": "a\u0000b"}, "out_dir", NUL),
        (["estimate"], {"input": "d/corpus.csv\u0000"}, "input", NUL),
        (["generate"], {"out_dir": "a\ud800b"}, "out_dir", SURROGATE),
        (["estimate", "--simulate", "--count", "3"], {"out_dir": "a\ud800b"}, "out_dir",
         SURROGATE),
        (["estimate"], {"input": "x\ud800.csv"}, "input", SURROGATE),
    ], ids=["generate-out-dir", "estimate-out-dir", "estimate-input", "generate-out-dir-surrogate",
            "estimate-out-dir-surrogate", "estimate-input-surrogate"])
    def test_nul_byte_in_a_config_path_is_a_usage_error(self, tmp_path, capsys, argv, config, key,
                                                        fault):
        # argv cannot carry a NUL or a lone surrogate, a JSON string can; the
        # file system cannot encode either
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main([*argv, "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == f"error: {key} path {fault}: {config[key]!r}\n"

    @pytest.mark.parametrize("dt", ["inf", "nan"])
    def test_non_finite_dt_is_named_as_such(self, tmp_path, capsys, dt):
        out = tmp_path / "out"
        assert main(["generate", "--dt", dt, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: dt must be finite, got {float(dt)!r}\n"
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

    @pytest.mark.parametrize("key, value", [
        ("rule", 5), ("out_dir", 5), ("column", 5), ("simulate", "no"), ("v0_range", 5),
        ("count", np.int64(3)), ("dt", np.float64(0.5)),
    ], ids=["rule", "out_dir", "column", "simulate", "v0_range", "numpy-int", "numpy-float"])
    def test_run_config_built_in_python_checks_its_types(self, key, value):
        # one type rule for flags, config files and Python: a wrong type
        # raises no AttributeError or TypeError and is not accepted, and a
        # numpy scalar is no int or float
        settings = {"command": "estimate", "simulate": True, key: value}
        message = f"config key {key!r} has a value of the wrong type: {value!r}"
        with pytest.raises(cli.UsageError, match=f"^{re.escape(message)}$"):
            cli.RunConfig(**settings)

    def test_run_config_built_in_python_stores_floats(self):
        config = cli.RunConfig(command="generate", dt=1, v0_range=[20, 30])
        assert type(config.dt) is float and config.dt == 1.0
        assert type(config.v0_range) is tuple and config.v0_range == (20.0, 30.0)
        assert {*map(type, config.v0_range)} == {float}


def test_import_loads_no_scipy():
    # the runtime needs numpy only; scipy is a test and benchmark dependency
    src = str(Path(histospline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, histospline, histospline.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


def test_import_loads_no_subprocess():
    # only generate starts a process, so estimate and compare do not pay
    # for importing subprocess
    src = str(Path(histospline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, histospline.cli; print('subprocess' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.strip() == "False"


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
