"""The CLI's exit-code contract as a property of ``estimate --input``, of
the generator flags of ``generate`` and ``estimate --simulate``, and of
the ``--config`` file of every command.

On any column, under every bin rule and boundary, ``estimate`` either
succeeds (exit 0, no numpy warning, and ``compare`` accepts the curve it
wrote) or fails with a typed error: exit 1 (usage), 2 (data) or 3
(numeric), one ``error:`` line on stderr and no traceback.  On any
scenario ranges, ``generate`` and ``estimate --simulate`` either succeed
with no numpy warning or fail with one such typed error, and so does each
command on any JSON object over the config keys.

The columns are drawn where floats misbehave: a few ulps wide, subnormal,
tiny and huge magnitudes, and heavy tails.  The paper's per-bin identity
(each bin's mean density equals its height, relative 1e-10) is left out:
fits on supports as wide as 1e104 and beyond still break it without an
error, a spline fault tracked on its own.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histospline.cli import RunConfig, main

RULES = ("sqrt", "sturges", "scott", "fd", "knuth", "fixed:3", "fixed:40")
BOUNDARIES = ("natural", "clamped", "not-a-knot")


@st.composite
def columns(draw):
    """2-200 finite floats of one extreme kind, as a list of Python floats."""
    n = draw(st.integers(2, 200))
    kind = draw(st.sampled_from(["ulp-wide", "subnormal", "tiny", "huge", "heavy-tailed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ulp-wide":
        # up to 8 ulps above a positive base of any magnitude
        base = draw(st.floats(1e-300, 1e300))
        steps = rng.integers(0, draw(st.integers(1, 8)), size=n, endpoint=True)
        values = (np.array(base).view(np.int64) + steps).view(np.float64)
    elif kind == "subnormal":
        values = rng.integers(0, draw(st.integers(1, 1 << 20)), size=n, endpoint=True) * 5e-324
    elif kind == "heavy-tailed":
        # a far draw times a huge scale overflows; inf is dropped below
        with np.errstate(over="ignore"):
            values = rng.standard_cauchy(n) * 10.0 ** draw(st.floats(-300.0, 300.0))
    else:
        # huge magnitudes of both signs can spread beyond the float range
        low, high = (-320.0, -80.0) if kind == "tiny" else (80.0, 308.25)
        values = 10.0 ** rng.uniform(low, high, size=n) * rng.choice([-1.0, 1.0], size=n)
    values = values[np.isfinite(values)]
    if draw(st.booleans()):
        values = -values
    return values.tolist()


@st.composite
def generator_flags(draw):
    """Flags for 1-3 series of one scenario: speed and deceleration
    10**U(-300, 300), reaction time 0 or drawn the same way, and a sample
    interval that splits the stop time into 1-2,000 steps, so no corpus
    holds more than about 6,000 samples."""
    magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
    v0, decel = draw(magnitude), draw(magnitude)
    t_react = draw(st.one_of(st.just(0.0), magnitude))
    dt = (t_react + v0 / decel) / draw(st.integers(1, 2000))
    return ["--count", str(draw(st.integers(1, 3))), "--v0-range", repr(v0), repr(v0),
            "--t-react-range", repr(t_react), repr(t_react),
            "--decel-range", repr(decel), repr(decel), "--dt", repr(dt)]


def run(argv):
    """``main(argv)`` with numpy warnings raised as errors: its exit code,
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("rule", RULES)
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(values=columns())
def test_estimate_exits_with_a_result_or_one_typed_error(rule, boundary, values):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "column.csv", Path(tmp) / "out"
        path.write_text("x\n" + "".join(f"{v!r}\n" for v in values))
        code, _, err = run(["estimate", "--input", str(path), "--rule", rule,
                            "--bc", boundary, "--out-dir", str(out)])
        if code == 0:
            assert err == ""
            curve = str(out / "curve.csv")
            assert run(["compare", curve, curve])[0] == 0
        else:
            assert code in (1, 2, 3)
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err


@pytest.mark.parametrize("command", [["generate"], ["estimate", "--simulate"]])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(flags=generator_flags())
def test_generator_flags_exit_with_a_result_or_one_typed_error(command, flags):
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err = run(command + flags + ["--out-dir", str(Path(tmp) / "out")])
        if code == 0:
            assert err == ""
        else:
            assert code in (1, 2, 3)
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err


# JSON texts of numbers.  The finite magnitudes are 0.5 to 20, or at least
# 1e19 times larger or smaller, so a corpus whose stop times over dt pass
# the corpus bound holds at most a few hundred samples.  1e400 reads as
# inf, and an integer of 4,301 digits exceeds what Python's int parser takes.
HUGE_INTEGERS = ["1" + "0" * 400, "-" + "9" * 330, "1" + "0" * 4300]
FLOATS = st.sampled_from(["0", "0.5", "1", "4", "20", "-1", "2.5", "5e-324", "1e-300", "1e300",
                          "-1e300", "1e400", "-1e400", str(2**64), *HUGE_INTEGERS])
# a well-typed count is at most 3 or beyond the corpus bound
COUNTS = st.sampled_from(["1", "2", "3", "0", "-1", str(10**8 + 1), *HUGE_INTEGERS])
# strings hold NUL, lone surrogates, control characters and line breaks
STRINGS = st.text(st.sampled_from("a.é \0\ud800\udfff\x01\x1b\n\r\x7f"), max_size=6)
# ordered pairs that make a valid range of each generator key: a pair of
# random FLOATS rarely is one
VALID_RANGES = st.sampled_from(["[0.5, 1]", "[1, 4]", "[2.5, 20]", "[4, 4]", "[0.5, 20]"])
WRONG_TYPES = ["true", "false", "null", "[]", "{}", "[1, 2, 3]", "2.5"]
STRING_KEYS = {"out_dir", "input", "column", "rule", "bc", "curve_a", "curve_b"}


def config_text(tmp):
    """A JSON object over the config keys, as text: ``out_dir``, ``count``
    and ``simulate`` always, up to five other keys, and at most one value of
    a wrong type.  Paths name files in ``tmp``, among them a column file and
    two curves, so no run writes outside it."""
    def path(name):
        return json.dumps(f"{tmp}/{name}")

    names = STRINGS.map("p".__add__)
    paths = st.one_of(st.sampled_from(["column.csv", "a.csv"]), names)
    well_typed = {
        "out_dir": names.map(path),
        "input": st.one_of(st.just("null"), paths.map(path)),
        "column": st.one_of(st.just("x"), STRINGS).map(json.dumps),
        "simulate": st.sampled_from(["true", "true", "false"]),
        "count": COUNTS,
        "seed": st.sampled_from(["0", "42", "-1", str(2**64), *HUGE_INTEGERS]),
        "v0_range": st.one_of(VALID_RANGES, st.lists(FLOATS, min_size=2, max_size=2).map(
            ", ".join).map("[{}]".format)),
        "dt": FLOATS,
        "rule": st.one_of(st.sampled_from(["knuth", "sturges", " Scott ", "fixed:3", "fixed:0",
                                           "fixed:1000001", "fixed:" + "9" * 5000, "fixed",
                                           "bogus"]), STRINGS).map(json.dumps),
        "bc": st.one_of(st.sampled_from(["natural", "clamped", "not-a-knot"]),
                        STRINGS).map(json.dumps),
        "grid": st.sampled_from(["2", "3", "1001", "1", "-5", str(10**6 + 1), HUGE_INTEGERS[0]]),
        "knuth_max": st.sampled_from(["1", "200", "0", "10001", HUGE_INTEGERS[0]]),
        "curve_a": st.one_of(st.just("null"), paths.map(path)),
        "curve_b": st.one_of(st.just("null"), paths.map(path)),
    }
    well_typed["t_react_range"] = well_typed["decel_range"] = well_typed["v0_range"]
    assert set(well_typed) == set(RunConfig.__dataclass_fields__) - {"command"}

    @st.composite
    def objects(draw):
        always = ["out_dir", "count", "simulate"]
        keys = always + draw(st.lists(st.sampled_from(sorted(set(well_typed) - set(always))),
                                      unique=True, max_size=5))
        values = {key: draw(well_typed[key]) for key in keys}
        wrong = draw(st.one_of(st.none(), st.sampled_from(keys)))
        if wrong is not None:  # a string is a path, not a wrong type, for a string key
            values[wrong] = draw(st.sampled_from(
                WRONG_TYPES + ([] if wrong in STRING_KEYS else ['"3"', '"x"'])))
        return "{" + ", ".join(f'"{key}": {value}' for key, value in values.items()) + "}"

    return objects()


@pytest.mark.parametrize("command", [["generate"], ["estimate"], ["compare", "a.csv", "b.csv"]],
                         ids=["generate", "estimate", "compare"])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_config_files_exit_with_a_result_or_one_typed_error(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "column.csv").write_text("x\n" + "".join(f"{v}\n" for v in range(1, 40, 3)))
        (tmp / "a.csv").write_text("u,pdf\n0,1\n1,1\n")
        (tmp / "b.csv").write_text("u,pdf\n0,0.5\n0.5,1.5\n1,1\n")
        config = tmp / "run.json"
        config.write_text(data.draw(config_text(tmp), label="config"), encoding="utf-8")
        argv = [command[0], *(str(tmp / name) for name in command[1:]), "--config", str(config)]
        code, _, err = run(argv)
        if code == 0:
            assert err == ""
        else:
            assert code in (1, 2, 3)
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err
