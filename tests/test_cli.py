"""Tests for the generate / estimate / compare command line."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import histospline
from histospline import (
    BinRule,
    Samples,
    build_histogram,
    count_turning_points,
    estimate_from_histogram,
    flatten_positions,
    generate_corpus,
    select_bin_count,
)
from histospline.cli import _read_columns, main


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_summary(path):
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.readline())


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

    def test_bulk_read_equals_row_by_row_floats(self, tmp_path):
        argv = ["generate", "--count", "1000", "--seed", "42", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        path = tmp_path / "corpus.csv"
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
        assert "1..1000000" in err and "Traceback" not in err

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

    def test_disjoint_supports(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("u,pdf\n0.0,1.0\n1.0,1.0\n")
        b.write_text("u,pdf\n5.0,1.0\n6.0,1.0\n")
        assert main(["compare", str(a), str(b)]) == 2

    @pytest.mark.parametrize("text, message", [
        ("u,pdf\n0.0,1.0\n0.5,1.0\n1.0,oops\n", "row 4, column 'pdf': bad numeric value"),
        ("u,pdf\n0.0,1.0\n0.5\n1.0,1.0\n", "row 3, column 'pdf': bad numeric value"),
        ("u,pdf\n0.0,1.0\n", "need at least 2 data rows, found 1"),
        ("u\n0.0\n1.0\n", "no column named 'pdf'"),
    ])
    def test_bad_curve_file_is_a_data_error(self, curve, tmp_path, capsys, text, message):
        bad = tmp_path / "bad-curve.csv"
        bad.write_text(text)
        assert main(["compare", str(curve), str(bad)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

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
