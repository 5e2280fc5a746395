"""Traced-run instrumentation: which calls get a span, and how spans
become the per-layer metrics.

Each public function is wrapped at the name its caller looks it up by
(``histospline.cli.generate_corpus``, ``histospline.estimator.
select_bin_count``, ``PdfEstimate.min_density``, ...), so the program
runs unmodified and the spans come from the benchmark's own process.
A span is named ``<layer>.<function>`` after the module that defines the
function; the layers are the package modules plus the interpreter-level
import.
"""

from __future__ import annotations

import builtins
import os
from contextlib import contextmanager

import histospline
import histospline.cli as cli
import histospline.estimator as estimator
import histospline.histogram as histogram
from histospline import PdfEstimate

from measure import median, self_times

LAYERS = ("import", "cli", "datagen", "histogram", "spline", "estimator")

# lookup site -> the names callers at that site resolve at call time
SITES = (
    (cli, ("main", "generate_corpus", "flatten_positions", "Samples", "select_bin_count",
           "build_histogram", "estimate_from_histogram", "count_turning_points",
           "quadrature_normalization", "grid_kl")),
    (estimator, ("select_bin_count", "build_histogram", "cumulative_masses",
                 "fit_interpolating_spline", "estimate_from_histogram")),
    (histospline, ("Samples", "estimate_pdf", "count_turning_points", "quadrature_normalization")),
    (PdfEstimate, ("__call__", "min_density")),
)

FIT = "spline.fit_interpolating_spline"
EVAL = "estimator.PdfEstimate.__call__"
QUADRATURE = "estimator.quadrature_normalization"

SPAN_ATTRS = {
    "datagen.generate_corpus": lambda corpus: {"samples": sum(ts.t.size for ts in corpus)},
    "histogram.select_bin_count": lambda bins: {"bin_count": int(bins)},
    FIT: lambda model: {"knots": int(model.knots.size)},
}

# per-layer metric -> unit; BENCHMARK.json lists the same names
PER_LAYER_UNITS = {
    "import.histospline_ms": "ms",
    "cli.generate_self_ms": "ms",
    "cli.estimate_self_ms": "ms",
    "cli.compare_self_ms": "ms",
    "cli.bytes_written": "bytes",
    "cli.bytes_read": "bytes",
    "datagen.generate_corpus_ms": "ms",
    "datagen.flatten_ms": "ms",
    "datagen.samples": "count",
    "histogram.samples_ms": "ms",
    "histogram.select_ms": "ms",
    "histogram.knuth_steps": "count",
    "histogram.bin_count": "count",
    "histogram.build_ms": "ms",
    "spline.fit_ms.p50": "ms",
    "spline.fit_ms.max": "ms",
    "spline.knots": "count",
    "spline.fit_peak_alloc_mb": "MB",
    "estimator.cumulative_ms": "ms",
    "estimator.eval_ms": "ms",
    "estimator.min_density_ms": "ms",
    "estimator.turning_points_ms": "ms",
    "estimator.quadrature_ms": "ms",
    "estimator.grid_kl_ms": "ms",
    "trace.overhead_s": "s",
    **{f"share.{layer}_pct": "%" for layer in LAYERS + ("other",)},
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


@contextmanager
def instrumented(recorder):
    """Install span wrappers (and the CLI's byte counter) while the block runs."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for owner, names in SITES:
        for attr in names:
            fn = getattr(owner, attr)
            name = span_name(fn)
            patch(owner, attr, recorder.wrap(fn, name, SPAN_ATTRS.get(name), alloc=name == FIT))
    patch(histogram, "knuth_log_posterior",
          recorder.counter(histogram.knuth_log_posterior, "knuth_steps"))
    commands = dict(cli._COMMANDS)
    for key, fn in commands.items():
        cli._COMMANDS[key] = recorder.wrap(fn, span_name(fn))

    def counting_open(file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        if recorder.open_span is not None:
            attrs = recorder.open_span.attrs
            if "r" in mode:
                attrs["bytes_read"] = attrs.get("bytes_read", 0) + os.path.getsize(file)
            else:
                attrs.setdefault("written", []).append(os.fspath(file))
        return handle

    cli.open = counting_open  # shadows the builtin inside the cli module only
    try:
        yield
    finally:
        del cli.open
        cli._COMMANDS.update(commands)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def settle_written_bytes(spans) -> None:
    """Replace the paths a span opened for writing by their final sizes;
    call once the operation's files are closed."""
    for span in spans:
        paths = span.attrs.pop("written", None)
        if paths:
            span.attrs["bytes_written"] = sum(os.path.getsize(p) for p in paths)


def layer_metrics(spans, traced_wall_s: float, untraced_wall_s: float,
                  import_ms: float, fresh_processes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Times are medians per call; counts are medians per call, except the
    byte counts, which are medians per operation.  Shares divide each
    layer's self time by the traced wall time plus the import cost of
    the ``fresh_processes`` interpreters the untraced workload starts.
    """
    selfs = self_times(spans)
    names = [span.name for span in spans]

    def durations(name):
        return [s.duration * 1e3 for s in spans if s.name == name]

    def self_ms(name):
        return [t * 1e3 for t, n in zip(selfs, names) if n == name]

    def attr(name, key):
        return [s.attrs[key] for s in spans if s.name == name and key in s.attrs]

    def per_request(key):
        totals = {}
        for span in spans:
            if key in span.attrs:
                totals[span.request] = totals.get(span.request, 0) + span.attrs[key]
        return list(totals.values())

    fits = durations(FIT)
    grid_evals = [s.duration * 1e3 for s in spans
                  if s.name == EVAL and (s.parent is None or names[s.parent] != QUADRATURE)]
    m = {
        "import.histospline_ms": import_ms,
        "cli.generate_self_ms": median(self_ms("cli.cmd_generate")),
        "cli.estimate_self_ms": median(self_ms("cli.cmd_estimate")),
        "cli.compare_self_ms": median(self_ms("cli.cmd_compare")),
        "cli.bytes_written": median(per_request("bytes_written")),
        "cli.bytes_read": median(per_request("bytes_read")),
        "datagen.generate_corpus_ms": median(durations("datagen.generate_corpus")),
        "datagen.flatten_ms": median(durations("datagen.flatten_positions")),
        "datagen.samples": median(attr("datagen.generate_corpus", "samples")),
        "histogram.samples_ms": median(durations("histogram.Samples")),
        "histogram.select_ms": median(durations("histogram.select_bin_count")),
        "histogram.knuth_steps": median([s.attrs.get("knuth_steps", 0) for s in spans
                                         if s.name == "histogram.select_bin_count"]),
        "histogram.bin_count": median(attr("histogram.select_bin_count", "bin_count")),
        "histogram.build_ms": median(durations("histogram.build_histogram")),
        "spline.fit_ms.p50": median(fits),
        "spline.fit_ms.max": max(fits, default=0.0),
        "spline.knots": median(attr(FIT, "knots")),
        "spline.fit_peak_alloc_mb": max(attr(FIT, "peak_alloc_mb"), default=0.0),
        "estimator.cumulative_ms": median(durations("estimator.cumulative_masses")),
        "estimator.eval_ms": median(grid_evals),
        "estimator.min_density_ms": median(durations("estimator.PdfEstimate.min_density")),
        "estimator.turning_points_ms": median(durations("estimator.count_turning_points")),
        "estimator.quadrature_ms": median(durations(QUADRATURE)),
        "estimator.grid_kl_ms": median(durations("estimator.grid_kl")),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    import_s = import_ms / 1e3 * fresh_processes
    total = traced_wall_s + import_s
    by_layer = {layer: 0.0 for layer in LAYERS}
    by_layer["import"] = import_s
    for t, n in zip(selfs, names):
        by_layer[n.split(".", 1)[0]] += t
    for layer, seconds in by_layer.items():
        m[f"share.{layer}_pct"] = 100.0 * seconds / total
    m["share.other_pct"] = 100.0 * (total - sum(by_layer.values())) / total
    return m


def dominant_layer(metrics: dict[str, float]) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"share.{layer}_pct"])
