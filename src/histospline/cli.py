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
import math
import sys
import warnings
from array import array
from dataclasses import asdict, dataclass
from itertools import count, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .datagen import (
    DEFAULT_RANGES,
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
    _size,
    build_histogram,
    select_bin_count,
)
from .spline import Boundary

__all__ = ["RunConfig", "main", "cmd_generate", "cmd_estimate", "cmd_compare"]


class UsageError(Exception):
    """Bad flags, bad config values, or an invalid flag combination."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings of one CLI invocation."""

    command: str
    out_dir: str = "."
    # input source: a CSV column XOR in-process generation
    input: str | None = None
    column: str = "x"
    simulate: bool = False
    # generator settings
    count: int = 1000
    seed: int = 42
    v0_range: tuple[float, float] = DEFAULT_RANGES.v0
    t_react_range: tuple[float, float] = DEFAULT_RANGES.t_react
    decel_range: tuple[float, float] = DEFAULT_RANGES.decel
    dt: float = DEFAULT_RANGES.dt
    # estimation settings
    rule: str = "knuth"
    bc: str = "not-a-knot"
    grid: int = 1001
    knuth_max: int = DEFAULT_KNUTH_SEARCH_MAX
    # compare inputs
    curve_a: str | None = None
    curve_b: str | None = None

    def __post_init__(self):
        # every command checks every setting, so a bad value fails fast
        try:
            _size(self.grid, "grid size", 2, MAX_GRID_SIZE)
            _size(self.count, "count", 1)
            _size(self.seed, "seed", 0)
            if self.command == "estimate" and not (bool(self.input) ^ bool(self.simulate)):
                raise UsageError("estimate needs exactly one input source: --input or --simulate")
            self.bin_rule()
            Boundary(self.bc)
            check_corpus_size(self.count, self.ranges())
        except DataError as exc:
            raise UsageError(str(exc)) from exc

    def bin_rule(self) -> BinRule:
        return BinRule.parse(self.rule, knuth_search_max=self.knuth_max)

    def ranges(self) -> ScenarioRanges:
        return ScenarioRanges(v0=tuple(self.v0_range), t_react=tuple(self.t_react_range),
                              decel=tuple(self.decel_range), dt=self.dt)


class _Parser(argparse.ArgumentParser):
    # the interface contract reserves exit code 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_generator_options(sub):
    sub.add_argument("--count", type=int, help="number of series to simulate")
    sub.add_argument("--seed", type=int, help="corpus RNG seed")
    sub.add_argument("--v0-range", nargs=2, type=float, metavar=("LO", "HI"),
                     help="initial speed range, m/s")
    sub.add_argument("--t-react-range", nargs=2, type=float, metavar=("LO", "HI"),
                     help="reaction time range, s")
    sub.add_argument("--decel-range", nargs=2, type=float, metavar=("LO", "HI"),
                     help="deceleration range, m/s^2")
    sub.add_argument("--dt", type=float, help="sample interval, s")


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file (flags take precedence)")
    sub.add_argument("--out-dir", help="directory for output artifacts")
    sub.add_argument("--emit-config", action="store_true",
                     help="print the resolved config as JSON and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="histospline",
                     description="Histogram cubic-spline density estimation toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", parents=[], help="write a braking corpus CSV")
    _add_generator_options(gen)
    _add_common(gen)

    est = commands.add_parser("estimate", help="estimate a density and export artifacts")
    est.add_argument("--input", help="input CSV file")
    est.add_argument("--column", help="numeric column to estimate (default: x)")
    est.add_argument("--simulate", action="store_const", const=True, default=None,
                     help="estimate from a freshly simulated corpus instead of a file")
    _add_generator_options(est)
    est.add_argument("--rule", help="bin rule: sqrt|sturges|scott|fd|knuth|fixed:K")
    est.add_argument("--bc", choices=[b.value for b in Boundary],
                     help="spline boundary condition")
    est.add_argument("--grid", type=int, help="points in the exported density curve")
    est.add_argument("--knuth-max", type=int, help="upper bound of the Knuth bin scan")
    _add_common(est)

    cmp_ = commands.add_parser("compare", help="KL divergence between two curve CSVs")
    cmp_.add_argument("curve_a", help="first density curve CSV")
    cmp_.add_argument("curve_b", help="second density curve CSV")
    cmp_.add_argument("--grid", type=int, help="common re-interpolation grid size")
    _add_common(cmp_)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return loaded


def _check_config_types(file_config: dict) -> None:
    """Reject a config-file value whose JSON type does not fit its key; the
    exact ``type`` tests keep JSON ``true``/``false`` out of number keys."""
    for key, value in file_config.items():
        default = RunConfig.__dataclass_fields__[key].default
        if isinstance(default, tuple):  # a range: a pair of numbers
            ok = type(value) is list and len(value) == 2 and {*map(type, value)} <= {int, float}
        elif isinstance(default, float):
            ok = type(value) in (int, float)
        else:  # a default of None stands for an optional path
            ok = type(value) in ((str, type(None)) if default is None else (type(default),))
        if not ok:
            raise UsageError(f"config key {key!r} has a value of the wrong type: {value!r}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over defaults into a RunConfig."""
    file_config = _load_config_file(args.config) if getattr(args, "config", None) else {}
    # the command is the subcommand itself, not a setting a file can hold
    unknown = set(file_config) - (set(RunConfig.__dataclass_fields__) - {"command"})
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    _check_config_types(file_config)

    merged = dict(file_config)
    for key, value in vars(args).items():
        if key in ("config", "emit_config", "command") or value is None:
            continue
        merged[key] = value
    merged = {k: tuple(v) if isinstance(v, list) else v for k, v in merged.items()}
    return RunConfig(command=args.command, **merged)


def _write_csv(path: Path, header: str, chunks) -> None:
    """Write ``header`` and the row-text ``chunks`` (whole lines) as one CSV file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(chunks)


def _read_columns(path: str, *columns: str) -> np.ndarray:
    """The named numeric columns of a headered CSV file, shape ``(len(columns), rows)``.

    numpy's C parser reads the cells.  It accepts a subset of what
    ``float()`` accepts and skips blank lines, so when it fails, or reads
    fewer rows than the file has lines, the file is read again by
    :func:`_parse_rows`, which accepts what ``float()`` accepts and names
    the first bad row.
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
                    table = np.loadtxt(map(itemgetter(0), zip(fh, lines)), delimiter=",",
                                       usecols=indices, quotechar='"', comments=None, ndmin=2)
            except UnicodeDecodeError:
                raise  # reported below; the fallback would fail on the same byte
            except ValueError:
                table = None
            if table is None or table.shape[0] != next(lines):
                table = _parse_rows(path, fh, columns, indices)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise DataError(f"{path}: {exc}") from exc
    rows = table.shape[0]
    if rows < 2:
        raise DataError(f"{path}: need at least 2 data rows, found {rows}")
    return table.T


def _parse_rows(path: str, fh, columns: tuple[str, ...], indices: list[int]) -> np.ndarray:
    """The ``indices`` cells of every data row of ``fh`` through ``float()``,
    shape ``(rows, len(indices))``, in one pass that names the first bad
    cell, row by row."""
    fh.seek(0)
    values = array("d")
    for row_number, row in enumerate(islice(csv.reader(fh), 1, None), start=2):
        for column, col in zip(columns, indices):
            try:
                values.append(float(row[col]))
            except (ValueError, IndexError) as exc:
                raise DataError(
                    f"{path}: row {row_number}, column {column!r}: bad numeric value"
                ) from exc
    return np.frombuffer(values).reshape(-1, len(indices))


def _read_finite(path: str, *columns: str) -> np.ndarray:
    """:func:`_read_columns`, with a :class:`DataError` naming the first non-finite cell."""
    table = _read_columns(path, *columns)
    # a NaN reaches both extremes and an inf one, so a finite range needs no search
    if not (np.isfinite(table.min()) and np.isfinite(table.max())):
        row, col = np.argwhere(~np.isfinite(table.T))[0].tolist()  # (row, column), file order
        raise DataError(f"{path}: row {row + 2}, column {columns[col]!r}: non-finite value")
    return table


def _read_curve(path: str) -> tuple[np.ndarray, np.ndarray]:
    u, pdf = _read_finite(path, "u", "pdf")
    if np.any(u[1:] <= u[:-1]):
        raise DataError(f"{path}: curve grid must be strictly increasing")
    lo, hi = float(u[0]), float(u[-1])
    if not math.isfinite(hi - lo):
        raise DataError(f"{path}: curve grid span {lo!r} to {hi!r} overflows the float range")
    return u, pdf


def cmd_generate(config: RunConfig) -> int:
    corpus = generate_corpus(config.count, config.ranges(), seed=config.seed)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "corpus.csv"
    # every series' t is a prefix of the longest one's, so the t cells, like
    # each series id, are formatted once
    t_cells = [f",{t!r}," for t in max(corpus, key=len).t.tolist()]
    _write_csv(path, "series_id,t,x", (
        "".join([f"{series_id}{t}{x!r}\n" for t, x in zip(t_cells, ts.x.tolist())])
        for series_id, ts in zip(map(str, range(len(corpus))), corpus)
    ))
    ends = [float(ts.x[-1]) for ts in corpus]
    print(f"wrote {path}")
    print(f"series={len(corpus)} min_x_end={min(ends):.3f} max_x_end={max(ends):.3f}")
    return 0


def _estimate_summary(config: RunConfig, estimate, sample_count: int, source: str) -> dict:
    lo, hi = estimate.support
    min_density = estimate.min_density()
    return {
        "source": source,
        "sample_count": sample_count,
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


def cmd_estimate(config: RunConfig) -> int:
    if config.input:
        (values,) = _read_finite(config.input, config.column)
        source = f"{config.input}#{config.column}"
    else:
        corpus = generate_corpus(config.count, config.ranges(), seed=config.seed)
        values = flatten_positions(corpus)
        source = f"simulate(count={config.count}, seed={config.seed})"
    samples = Samples(values)
    rule = config.bin_rule()
    hist = build_histogram(samples, select_bin_count(samples, rule))
    estimate = estimate_from_histogram(hist, rule, config.bc)
    lo, hi = estimate.support
    u = np.linspace(lo, hi, config.grid)
    # compare reads curve.csv back and needs a strictly increasing grid
    if np.any(np.diff(u) <= 0.0):
        raise DataError(
            f"the support [{lo!r}, {hi!r}] is too narrow for {config.grid} distinct grid points"
        )

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    edges = hist.edges.tolist()
    _write_csv(out_dir / "histogram.csv", "bin_left,bin_right,height", [
        "".join([f"{left!r},{right!r},{height!r}\n"
                 for left, right, height in zip(edges, edges[1:], hist.heights.tolist())])
    ])

    _write_csv(out_dir / "curve.csv", "u,pdf", [
        "".join([f"{ui!r},{pi!r}\n" for ui, pi in zip(u.tolist(), estimate(u).tolist())])
    ])

    summary = _estimate_summary(config, estimate, len(samples), source)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
