"""The command line's outward surface, pinned: the four ``--help`` screens
and the resolved configuration that ``--emit-config`` prints."""

import json

import pytest

from histospline.cli import main

# argparse wraps help to the terminal width, which it reads from COLUMNS
HELP = {
    (): """\
usage: histospline [-h] {generate,estimate,compare} ...

Histogram cubic-spline density estimation toolkit

positional arguments:
  {generate,estimate,compare}
    generate            write a braking corpus CSV
    estimate            estimate a density and export artifacts
    compare             KL divergence between two curve CSVs

options:
  -h, --help            show this help message and exit
""",
    ("generate",): """\
usage: histospline generate [-h] [--out-dir OUT_DIR] [--count COUNT]
                            [--seed SEED] [--v0-range LO HI]
                            [--t-react-range LO HI] [--decel-range LO HI]
                            [--dt DT] [--config CONFIG] [--emit-config]

options:
  -h, --help            show this help message and exit
  --out-dir OUT_DIR     directory for output artifacts
  --count COUNT         number of series to simulate
  --seed SEED           corpus RNG seed
  --v0-range LO HI      initial speed range, m/s
  --t-react-range LO HI
                        reaction time range, s
  --decel-range LO HI   deceleration range, m/s^2
  --dt DT               sample interval, s
  --config CONFIG       JSON config file (flags take precedence)
  --emit-config         print the resolved config as JSON and exit
""",
    ("estimate",): """\
usage: histospline estimate [-h] [--out-dir OUT_DIR] [--input INPUT]
                            [--column COLUMN] [--simulate] [--count COUNT]
                            [--seed SEED] [--v0-range LO HI]
                            [--t-react-range LO HI] [--decel-range LO HI]
                            [--dt DT] [--rule RULE]
                            [--bc {clamped,natural,not-a-knot}] [--grid GRID]
                            [--knuth-max KNUTH_MAX] [--config CONFIG]
                            [--emit-config]

options:
  -h, --help            show this help message and exit
  --out-dir OUT_DIR     directory for output artifacts
  --input INPUT         input CSV file
  --column COLUMN       numeric column to estimate (default: x)
  --simulate            estimate from a freshly simulated corpus instead of a
                        file
  --count COUNT         number of series to simulate
  --seed SEED           corpus RNG seed
  --v0-range LO HI      initial speed range, m/s
  --t-react-range LO HI
                        reaction time range, s
  --decel-range LO HI   deceleration range, m/s^2
  --dt DT               sample interval, s
  --rule RULE           bin rule: sqrt|sturges|scott|fd|knuth|fixed:K
  --bc {clamped,natural,not-a-knot}
                        spline boundary condition
  --grid GRID           points in the exported density curve
  --knuth-max KNUTH_MAX
                        upper bound of the Knuth bin scan
  --config CONFIG       JSON config file (flags take precedence)
  --emit-config         print the resolved config as JSON and exit
""",
    ("compare",): """\
usage: histospline compare [-h] [--grid GRID] [--config CONFIG]
                           [--emit-config]
                           curve_a curve_b

positional arguments:
  curve_a          first density curve CSV
  curve_b          second density curve CSV

options:
  -h, --help       show this help message and exit
  --grid GRID      common re-interpolation grid size
  --config CONFIG  JSON config file (flags take precedence)
  --emit-config    print the resolved config as JSON and exit
""",
}


@pytest.mark.parametrize("command", HELP, ids=lambda command: " ".join(command) or "top")
def test_help_screen_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--help"])
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert (out, err) == (HELP[command], "")


# the defaults in RunConfig's field order; json.dumps keeps that order, so
# the expected text is pinned byte for byte
DEFAULTS = {
    "out_dir": ".", "input": None, "column": "x", "simulate": False, "count": 1000, "seed": 42,
    "v0_range": [25.0, 35.0], "t_react_range": [0.8, 1.5], "decel_range": [3.5, 4.5],
    "dt": 0.01, "rule": "knuth", "bc": "not-a-knot", "grid": 1001, "knuth_max": 200,
    "curve_a": None, "curve_b": None,
}


@pytest.mark.parametrize("argv, settings", [
    (["generate"], {}),
    (["estimate", "--simulate"], {"simulate": True}),
    (["compare", "a", "b"], {"curve_a": "a", "curve_b": "b"}),
], ids=["generate", "estimate-simulate", "compare"])
def test_emit_config_output_is_pinned(capsys, argv, settings):
    assert main([*argv, "--emit-config"]) == 0
    expected = {"command": argv[0], **DEFAULTS, **settings}
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
