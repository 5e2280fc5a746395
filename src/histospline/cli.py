"""Command-line surface: generate / estimate / compare workflows.

All interchange is headered CSV (UTF-8, '.' decimal); run summaries are
single-line JSON records.  Exit codes: 0 ok, 1 usage, 2 data error,
3 numeric error.  Option precedence: command-line flags override the
--config file, which overrides built-in defaults; --emit-config prints
the fully resolved configuration and exits without running.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
import tempfile
import warnings
from array import array
from contextlib import ExitStack, suppress
from dataclasses import asdict, astuple, dataclass, field
from itertools import count, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import _corpus_rows
from .datagen import (
    DEFAULT_RANGES,
    MAX_CORPUS_SAMPLES,
    ScenarioRanges,
    check_corpus_size,
    flatten_positions,
    generate_corpus,
)
from .errors import DataError, NumericError
from .estimator import (
    MAX_GRID_SIZE,
    _overlap_grid,
    count_turning_points,
    estimate_from_histogram,
    grid_kl,
    quadrature_normalization,
)
from .histogram import (
    DEFAULT_KNUTH_SEARCH_MAX,
    BinRule,
    Samples,
    _checked_knots,
    _size,
    build_histogram,
    select_bin_count,
)
from .spline import Boundary

__all__ = ["RunConfig", "main", "cmd_generate", "cmd_estimate", "cmd_compare"]


class UsageError(Exception):
    """Bad flags, bad config values, or an invalid flag combination."""


_RANGE = "tuple[float, float]"  # a pair of numbers
# per annotation of RunConfig: the types of value it admits (exact ``type``
# tests keep bools out of number keys) and the argparse keywords of its flag
_KINDS = {
    "str": ((str,), {}),
    "str | None": ((str, type(None)), {}),
    "bool": ((bool,), {"action": "store_const", "const": True}),
    "int": ((int,), {"type": int}),
    "float": ((int, float), {"type": float}),
    _RANGE: ((list, tuple), {"nargs": 2, "type": float, "metavar": ("LO", "HI")}),
}
_GENERATOR = ("generate", "estimate")  # the commands that simulate a corpus


def _setting(default, help: str, *commands: str):
    """A :class:`RunConfig` field whose flag ``commands`` take, with ``help``."""
    return field(default=default, metadata=dict.fromkeys(commands, help))


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings of one CLI invocation, checked on construction
    by one rule whatever their source: flags, a config file or Python."""

    command: str
    out_dir: str = _setting(".", "directory for output artifacts", "generate", "estimate")
    # input source: a CSV column XOR in-process generation
    input: str | None = _setting(None, "input CSV file", "estimate")
    column: str = _setting("x", "numeric column to estimate (default: x)", "estimate")
    simulate: bool = _setting(
        False, "estimate from a freshly simulated corpus instead of a file", "estimate")
    # generator settings
    count: int = _setting(1000, "number of series to simulate", *_GENERATOR)
    seed: int = _setting(42, "corpus RNG seed", *_GENERATOR)
    v0_range: tuple[float, float] = _setting(
        DEFAULT_RANGES.v0, "initial speed range, m/s", *_GENERATOR)
    t_react_range: tuple[float, float] = _setting(
        DEFAULT_RANGES.t_react, "reaction time range, s", *_GENERATOR)
    decel_range: tuple[float, float] = _setting(
        DEFAULT_RANGES.decel, "deceleration range, m/s^2", *_GENERATOR)
    dt: float = _setting(DEFAULT_RANGES.dt, "sample interval, s", *_GENERATOR)
    # estimation settings
    rule: str = _setting("knuth", "bin rule: sqrt|sturges|scott|fd|knuth|fixed:K", "estimate")
    bc: str = _setting("not-a-knot", "spline boundary condition", "estimate")
    grid: int = field(default=1001, metadata={"estimate": "points in the exported density curve",
                                              "compare": "common re-interpolation grid size"})
    knuth_max: int = _setting(
        DEFAULT_KNUTH_SEARCH_MAX, "upper bound of the Knuth bin scan", "estimate")
    # compare inputs, its two positional arguments
    curve_a: str | None = _setting(None, "first density curve CSV", "compare")
    curve_b: str | None = _setting(None, "second density curve CSV", "compare")

    def __post_init__(self):
        # every command checks every setting, so a bad value fails fast
        for key, setting in self.__dataclass_fields__.items():
            value, kind = getattr(self, key), setting.type  # the annotation, as text
            if type(value) not in _KINDS[kind][0] or kind == _RANGE and not (
                    len(value) == 2 and {*map(type, value)} <= {int, float}):
                raise UsageError(f"config key {key!r} has a value of the wrong type: {value!r}")
        for key in ("input", "out_dir", "curve_a", "curve_b"):
            path = getattr(self, key) or ""
            if "\0" in path:
                raise UsageError(f"{key} path holds a NUL byte: {path!r}")
            try:
                os.fsencode(path)
            except UnicodeEncodeError as exc:
                raise UsageError(f"{key} path is not encodable ({exc.reason}): {path!r}") from exc
        try:
            _size(self.grid, "grid size", 2, MAX_GRID_SIZE)
            _size(self.count, "count", 1)
            _size(self.seed, "seed", 0)
            if self.command == "estimate" and not (bool(self.input) ^ bool(self.simulate)):
                raise UsageError("estimate needs exactly one input source: --input or --simulate")
            self.bin_rule()
            Boundary(self.bc)
            ranges = self.ranges()
            check_corpus_size(self.count, ranges)
        except DataError as exc:
            raise UsageError(str(exc)) from exc
        for key, value in zip(("v0_range", "t_react_range", "decel_range", "dt"), astuple(ranges)):
            object.__setattr__(self, key, value)  # floats, as the flags give them

    def bin_rule(self) -> BinRule:
        return BinRule.parse(self.rule, knuth_search_max=self.knuth_max)

    def ranges(self) -> ScenarioRanges:
        return ScenarioRanges(v0=self.v0_range, t_react=self.t_react_range,
                              decel=self.decel_range, dt=self.dt)


class _Parser(argparse.ArgumentParser):
    # the interface contract reserves exit code 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # each parser rejects the arguments it cannot read, so an unknown flag
    # of a subcommand prints that subcommand's usage, not the top-level one
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="histospline",
                     description="Histogram cubic-spline density estimation toolkit")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, help in (("generate", "write a braking corpus CSV"),
                          ("estimate", "estimate a density and export artifacts"),
                          ("compare", "KL divergence between two curve CSVs")):
        sub = commands.add_parser(command, help=help)
        for key, setting in RunConfig.__dataclass_fields__.items():
            if command in setting.metadata:  # one flag per setting, typed by its annotation
                keywords = dict(_KINDS[setting.type][1], help=setting.metadata[command])
                if key == "bc":
                    keywords["choices"] = [b.value for b in Boundary]
                positional = key in ("curve_a", "curve_b")
                sub.add_argument(key if positional else "--" + key.replace("_", "-"), **keywords)
        sub.add_argument("--config", help="JSON config file (flags take precedence)")
        sub.add_argument("--emit-config", action="store_true",
                         help="print the resolved config as JSON and exit")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text ({exc.reason})") from exc
    except (ValueError, RecursionError) as exc:  # e.g. too deep, or an int of 4,301+ digits
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return loaded


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over defaults into a RunConfig."""
    file_config = _load_config_file(args.config) if getattr(args, "config", None) else {}
    # the command is the subcommand itself, not a setting a file can hold
    unknown = set(file_config) - (set(RunConfig.__dataclass_fields__) - {"command"})
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")

    merged = dict(file_config)
    for key, value in vars(args).items():
        if key in ("config", "emit_config", "command") or value is None:
            continue
        merged[key] = value
    return RunConfig(command=args.command, **merged)


def _write_csv(path: Path, header: str, *columns: np.ndarray) -> None:
    """Write ``header`` and one row per entry of the equal-length float ``columns``,
    each cell its ``repr``, as one CSV file."""
    values = np.column_stack(columns).ravel().tolist()  # row by row
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write((",".join(["%r"] * len(columns)) + "\n") * len(columns[0]) % tuple(values))


def _read_columns(path: str, *columns: str, limit: int) -> np.ndarray:
    """The named numeric columns of a headered CSV file as a finite table
    of shape ``(rows, len(columns))`` that owns its data.

    numpy's C parser reads the cells.  It accepts a subset of what
    ``float()`` accepts and skips blank lines, so when it fails, or reads
    fewer rows than the file has lines, the file is read again by
    :func:`_parse_rows`, which accepts what ``float()`` accepts and names
    the first bad row.  numpy's parser is given at most ``limit + 1``
    lines (its ``max_rows`` would allocate that many rows up front), the
    fallback at most ``limit + 1`` rows.  A file with more than ``limit``
    data rows, fewer than 2 or a non-finite cell is a :class:`DataError`.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise DataError(f"{path}: empty input file")
            for column in columns:
                if column not in header:
                    raise DataError(
                        f"{path}: no column named {column!r} (columns: {', '.join(header)})"
                    )
            indices = [header.index(column) for column in columns]
            lines = count()  # the lines loadtxt takes, blank ones included
            try:
                with warnings.catch_warnings():
                    # a header-only file is reported below, with the row count
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    table = np.loadtxt(
                        map(itemgetter(0), zip(islice(fh, limit + 1), lines)), delimiter=",",
                        usecols=indices, quotechar='"', comments=None, ndmin=2)
            except UnicodeDecodeError:
                raise  # reported below; the fallback would fail on the same byte
            except ValueError:
                table = None
            if table is None or table.shape[0] != next(lines):
                table = _parse_rows(path, fh, columns, indices, limit)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise DataError(f"{path}: {exc}") from exc
    rows = table.shape[0]
    if rows > limit:
        raise DataError(f"{path}: more than the limit of {limit} data rows")
    if rows < 2:
        raise DataError(f"{path}: need at least 2 data rows, found {rows}")
    # a NaN reaches both extremes and an inf one, so a finite range needs no search
    if not (np.isfinite(table.min()) and np.isfinite(table.max())):
        row, col = np.argwhere(~np.isfinite(table))[0].tolist()  # (row, column), file order
        raise DataError(f"{path}: row {row + 2}, column {columns[col]!r}: non-finite value")
    return table


def _parse_rows(path: str, fh, columns: tuple[str, ...], indices: list[int],
                limit: int) -> np.ndarray:
    """The ``indices`` cells of the first ``limit + 1`` data rows of ``fh``
    through ``float()``, shape ``(rows, len(indices))``, in one pass that
    names the first bad cell, row by row."""
    fh.seek(0)
    values = array("d")
    for row_number, row in enumerate(islice(csv.reader(fh), 1, limit + 2), start=2):
        for column, col in zip(columns, indices):
            try:
                values.append(float(row[col]))
            except (ValueError, IndexError) as exc:
                raise DataError(
                    f"{path}: row {row_number}, column {column!r}: bad numeric value"
                ) from exc
    return np.frombuffer(values).reshape(-1, len(indices)).copy()


def _read_curve(path: str) -> tuple[np.ndarray, np.ndarray]:
    u, pdf = _read_columns(path, "u", "pdf", limit=MAX_GRID_SIZE).T
    return _checked_knots(u, f"{path}: curve grid"), pdf.copy()  # the table is not held


def _read_samples(path: str, column: str) -> np.ndarray:
    """The finite ``column`` of ``path`` as a read-only 1-d array that owns
    its data, which :class:`Samples` keeps without a copy."""
    values = _read_columns(path, column, limit=MAX_CORPUS_SAMPLES)
    values.resize(values.size)  # (rows, 1) to (rows,) in place: the same bytes
    values.setflags(write=False)
    return values


# the helper won 29-38 of 41 timed runs at 108,337-129,607 samples with a CPU free
HELPER_MIN_SAMPLES = 1 << 17


def _write_corpus(path: Path, corpus: list) -> None:
    """Write ``corpus`` as the CSV file ``path``; of two or more series and at least
    ``HELPER_MIN_SAMPLES`` samples, a helper process formats the later half's rows."""
    t = max(corpus, key=len).t
    templates = _corpus_rows.row_templates(t.tolist())
    ends = np.cumsum([len(ts) for ts in corpus])
    split, helper = len(corpus), None
    with ExitStack() as stack:
        fh = stack.enter_context(open(path, "wb"))
        fh.write(b"series_id,t,x\n")
        helper_files = stack.enter_context(ExitStack())  # unlinked, in the output directory
        if len(corpus) > 1 and ends[-1] >= HELPER_MIN_SAMPLES and sys.executable:
            split = int(np.abs(2 * ends[:-1] - ends[-1]).argmin()) + 1
            later = corpus[split:]
            with suppress(OSError):
                import subprocess
                job, helper_rows = (helper_files.enter_context(tempfile.TemporaryFile(
                    dir=path.parent, buffering=buffering)) for buffering in (-1, 0))
                job.writelines([array("q", [split, len(later), t.size]), t,
                                array("q", map(len, later)), *(ts.x for ts in later)])
                job.seek(0)
                helper = subprocess.Popen([sys.executable, "-I", "-S", _corpus_rows.__file__],
                                          stdin=job, stdout=helper_rows, stderr=subprocess.DEVNULL)
                stack.callback(helper.wait)
                stack.callback(helper.kill)  # a no-op once it has been reaped
        for i, ts in enumerate(corpus):
            if i == split and helper is not None and helper.wait() == 0:
                helper_rows.seek(0)
                shutil.copyfileobj(helper_rows, fh)
                break
            if i == split:  # no helper rows: their files give back their space first
                helper_files.close()
            fh.write(_corpus_rows.rows(i, templates, ts.x.tolist()).encode())


def cmd_generate(config: RunConfig) -> int:
    corpus = generate_corpus(config.count, config.ranges(), seed=config.seed)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "corpus.csv"
    _write_corpus(path, corpus)
    ends = [float(ts.x[-1]) for ts in corpus]
    print(f"wrote {path}")
    print(f"series={len(corpus)} min_x_end={min(ends):.3f} max_x_end={max(ends):.3f}")
    return 0


def cmd_estimate(config: RunConfig) -> int:
    if config.input:
        values = _read_samples(config.input, config.column)
        source = f"{config.input}#{config.column}"
    else:
        values = flatten_positions(generate_corpus(config.count, config.ranges(), seed=config.seed))
        source = f"simulate(count={config.count}, seed={config.seed})"
    samples = Samples(values)
    rule = config.bin_rule()
    hist = build_histogram(samples, select_bin_count(samples, rule))
    estimate = estimate_from_histogram(hist, rule, config.bc)
    lo, hi = estimate.support
    # compare reads curve.csv back through the same grid contract
    u = _checked_knots(np.linspace(lo, hi, config.grid),
                       f"the {config.grid}-point curve grid over the support [{lo!r}, {hi!r}]")

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "histogram.csv", "bin_left,bin_right,height",
               hist.edges[:-1], hist.edges[1:], hist.heights)
    _write_csv(out_dir / "curve.csv", "u,pdf", u, estimate(u))

    min_density = estimate.min_density()
    summary = {
        "source": source,
        "sample_count": len(samples),
        "rule": estimate.rule.label(),
        "bin_count": estimate.bin_count,
        "boundary": estimate.boundary.value,
        "support": [lo, hi],
        "min_density": min_density,
        "has_negative_density": min_density < 0.0,
        "turning_points": count_turning_points(estimate),
        "normalization_analytic": estimate.normalization(),
        "normalization_simpson": quadrature_normalization(estimate),
        "grid_size": config.grid,
    }
    with open(out_dir / "summary.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary) + "\n")

    for key, value in summary.items():
        print(f"{key}={value}")
    return 0


def cmd_compare(config: RunConfig) -> int:
    u_a, pdf_a = _read_curve(config.curve_a)
    u_b, pdf_b = _read_curve(config.curve_b)
    u = _overlap_grid(tuple(u_a[[0, -1]].tolist()), tuple(u_b[[0, -1]].tolist()), config.grid)
    p = np.interp(u, u_a, pdf_a)
    q = np.interp(u, u_b, pdf_b)
    print(f"kl_ab={grid_kl(u, p, q)!r}")
    print(f"kl_ba={grid_kl(u, q, p)!r}")
    return 0


_COMMANDS = {"generate": cmd_generate, "estimate": cmd_estimate, "compare": cmd_compare}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        if args.emit_config:
            print(json.dumps(asdict(config), indent=2))
            return 0
        return _COMMANDS[args.command](config)
    except (UsageError, DataError, OSError, NumericError) as exc:
        # one line, whatever line breaks a path named in the message holds
        print("error:", str(exc).replace("\r", r"\r").replace("\n", r"\n"), file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 3 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
