"""histospline benchmark: one closed-loop client runs a named workload
against the unmodified package and checks every output.

    python3 bench/run.py --workload knuth-mixed --seed 1 --seconds 30 --trace 0

Run it from the repository root; the package is used from ``src``
without being installed.  The workloads and the reasons they were chosen
are listed in ``BENCHMARK.json``.  ``--trace 0`` measures the end-to-end
metrics, timing the fixed work of ``reference.py`` after each operation;
``--trace 1`` makes a traced run that reports the per-layer metrics.
The report goes to standard output and its last line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import reference
from checks import Tally
from measure import SpanRecorder, median, percentile, tail_percentile

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("cli-braking", "knuth-mixed", "wide-bins")
# the layers whose self time the workload is meant to be dominated by
PREDICTED = {"cli-braking": ("import", "cli"), "knuth-mixed": ("histogram",), "wide-bins": ("spline",)}
# the in-process reference timed after each request of a library workload
REFERENCE_KERNEL = {"knuth-mixed": reference.scan_kernel, "wide-bins": reference.solve_kernel}
SETUP_REPEATS = 5
IMPORT_PROBES = 5
GRID = 1001
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ref_ratio.p50_gmean": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(argv, cwd: Path, log_prefix: Path) -> tuple[float, int, float]:
    """Run ``argv`` to completion; return wall seconds from spawn to exit,
    the exit code and the child's peak RSS in MB (``os.wait4``)."""
    with open(f"{log_prefix}.out", "wb") as out, open(f"{log_prefix}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def read_log(log_prefix: Path, suffix: str) -> str:
    return Path(f"{log_prefix}.{suffix}").read_text(encoding="utf-8", errors="replace")


def run_setup(workload: str, seed: int, run_dir: Path) -> tuple[list[float], Path]:
    """Prepare inputs and oracles ``SETUP_REPEATS`` times in fresh processes."""
    walls = []
    for index in range(SETUP_REPEATS):
        out = run_dir / f"setup{index}"
        argv = [sys.executable, str(BENCH / "prepare.py"), "--workload", workload,
                "--seed", str(seed), "--out", str(out)]
        wall, code, _ = spawn(argv, ROOT, run_dir / f"setup{index}")
        if code != 0:
            raise BenchError(f"set-up failed ({code}): {read_log(run_dir / f'setup{index}', 'err')}")
        walls.append(wall)
    return walls, out


def import_probe(run_dir: Path) -> float:
    """Median over fresh interpreters of ``import histospline`` minus ``pass``, in ms."""
    diffs = []
    for _ in range(IMPORT_PROBES):
        bare, code_bare, _ = spawn([sys.executable, "-c", "pass"], ROOT, run_dir / "probe")
        full, code_full, _ = spawn([sys.executable, "-c", "import histospline"], ROOT, run_dir / "probe")
        if code_bare or code_full:
            raise BenchError(f"import probe failed: {read_log(run_dir / 'probe', 'err')}")
        diffs.append(full - bare)
    return median(diffs) * 1e3


class Outcome:
    """What the measured loop of one run collected."""

    def __init__(self):
        self.tally = Tally()
        self.walls: dict[str, list[float]] = {}
        self.ratios: dict[str, list[float]] = {}
        self.estimate_walls: list[float] = []
        self.estimates = 0
        self.op_seconds = 0.0
        self.peak_rss_mb = 0.0
        self.simpson_dev: list[float] = []

    def add(self, kind: str, wall: float, estimate: bool, ref_wall: float | None = None) -> None:
        """Record one operation of ``kind``; ``estimate`` counts it toward
        the estimates that estimates_per_s divides by the operation time,
        and ``ref_wall`` is the wall time of the reference run after it."""
        self.walls.setdefault(kind, []).append(wall)
        if ref_wall is not None:
            self.ratios.setdefault(kind, []).append(wall / ref_wall)
        self.op_seconds += wall
        self.estimates += estimate
        if estimate:
            self.estimate_walls.append(wall)


# --- cli-braking -------------------------------------------------------------


def cli_steps(seed: int, run_dir: Path) -> list[tuple[str, list[str], Path | None]]:
    """One pass of the paper's validation pipeline as a user runs it."""
    gen, nak, natural, sim = (run_dir / name for name in ("gen", "nak", "natural", "sim"))
    corpus = str(gen / "corpus.csv")
    count = ["--count", str(prepare.CLI_COUNT), "--seed", str(seed)]
    return [
        ("generate", ["generate", *count, "--out-dir", str(gen)], gen),
        ("estimate_input", ["estimate", "--input", corpus, "--bc", "not-a-knot", "--out-dir", str(nak)], nak),
        ("estimate_input", ["estimate", "--input", corpus, "--bc", "natural", "--out-dir", str(natural)], natural),
        ("estimate_simulate", ["estimate", "--simulate", *count, "--out-dir", str(sim)], sim),
        ("compare", ["compare", str(nak / "curve.csv"), str(natural / "curve.csv")], None),
    ]


def check_cli_step(kind, argv, out_dir, stdout_text, oracle, outcome, grid_kl) -> list[str]:
    if kind == "generate":
        got = checks.file_sha256(out_dir / "corpus.csv")
        want = oracle["corpus_sha256"]
        return [] if got == want else [f"corpus.csv sha256 {got[:12]} != set-up {want[:12]}"]
    if kind == "compare":
        expected = checks.expected_kl(argv[1], argv[2], GRID, grid_kl)
        return checks.check_kl(stdout_text, expected)
    summary = json.loads((out_dir / "summary.jsonl").read_text(encoding="utf-8"))
    outcome.simpson_dev.append(abs(summary["normalization_simpson"] - 1.0))
    boundary = argv[argv.index("--bc") + 1] if "--bc" in argv else "not-a-knot"
    return (checks.check_cli_summary(summary, oracle["estimate"][boundary])
            + checks.check_estimate_artifacts(out_dir, summary, GRID))


def clear_outputs(steps) -> None:
    for _, _, out_dir in steps:
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)


def run_cli_step(kind, argv, run_dir, index, in_process):
    """Run one CLI invocation; return (wall seconds, exit code, stdout, peak RSS MB)."""
    if in_process:
        import histospline.cli as cli

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        return wall, code, stdout.getvalue(), stderr.getvalue(), 0.0
    log = run_dir / f"step{index}"
    wall, code, rss = spawn([sys.executable, "-m", "histospline.cli", *argv], run_dir, log)
    return wall, code, read_log(log, "out"), read_log(log, "err"), rss


def cli_reference(run_dir) -> float:
    """Wall seconds of one run of the CLI reference in a fresh interpreter."""
    log = run_dir / "reference"
    wall, code, _ = spawn([sys.executable, str(BENCH / "reference.py"), str(run_dir / "reference.csv")],
                          run_dir, log)
    if code != 0:
        raise BenchError(f"reference failed ({code}): {read_log(log, 'err')}")
    return wall


def cli_pass(steps, run_dir, oracle, outcome, grid_kl, in_process, recorder=None,
             timed_reference=False) -> float:
    """Run one pass, then check it; return the seconds spent in the invocations.
    With ``timed_reference`` the CLI reference runs after each invocation."""
    clear_outputs(steps)
    results, ref_walls = [], []
    context = layers.instrumented(recorder) if recorder else contextlib.nullcontext()
    with context:
        for index, (kind, argv, _) in enumerate(steps):
            results.append(run_cli_step(kind, argv, run_dir, index, in_process))
            ref_walls.append(cli_reference(run_dir) if timed_reference else None)
    if recorder:
        layers.settle_written_bytes(s for s in recorder.spans if s.request == recorder.request)
    seconds = 0.0
    for (kind, argv, out_dir), (wall, code, out, err, rss), ref_wall in zip(steps, results, ref_walls):
        if code != 0:
            reasons = [f"{kind} exited {code}: {err.strip()[-200:]}"]
        else:
            reasons = check_cli_step(kind, argv, out_dir, out, oracle, outcome, grid_kl)
        outcome.tally.record([f"{kind}: {r}" for r in reasons])
        outcome.add(kind, wall, estimate=kind.startswith("estimate"), ref_wall=ref_wall)
        outcome.peak_rss_mb = max(outcome.peak_rss_mb, rss)
        seconds += wall
    return seconds


# --- library workloads -------------------------------------------------------


def load_requests(setup_dir: Path):
    specs = json.loads((setup_dir / "oracle.json").read_text())["requests"]
    with np.load(setup_dir / "inputs.npz") as data:
        arrays = {key: data[key] for key in data.files}
    return [(spec, arrays[spec["vector"]], histospline.BinRule.parse(spec["rule"]), arrays[spec["F"]])
            for spec in specs]


def library_request(values, rule, boundary):
    """The library equivalent of ``histospline estimate`` without I/O."""
    samples = histospline.Samples(values)
    est = histospline.estimate_pdf(samples, rule, boundary)
    lo, hi = est.support
    density = est(np.linspace(lo, hi, GRID))
    min_density = est.min_density()
    turning_points = histospline.count_turning_points(est, GRID)
    simpson = histospline.quadrature_normalization(est)
    return est, density, min_density, turning_points, simpson


def library_cycle(requests, outcome, recorder=None, reference_kernel=None) -> float:
    """Run every request once, checking each; return the seconds spent in them.
    A ``reference_kernel`` is timed after each request."""
    seconds = 0.0
    for spec, values, rule, F in requests:
        context = layers.instrumented(recorder) if recorder else contextlib.nullcontext()
        with context:
            start = time.perf_counter()
            est, density, min_density, turning_points, simpson = library_request(
                values, rule, spec["boundary"])
            wall = time.perf_counter() - start
        ref_wall = None
        if reference_kernel:
            start = time.perf_counter()
            reference_kernel()
            ref_wall = time.perf_counter() - start
        if recorder:
            recorder.request += 1
        reasons = checks.check_estimate(est, density, min_density, turning_points, spec["bins"], F)
        outcome.tally.record([f"{spec['name']}: {r}" for r in reasons])
        outcome.simpson_dev.append(abs(simpson - 1.0))
        outcome.add(spec["name"], wall, estimate=True, ref_wall=ref_wall)
        seconds += wall
    return seconds


# --- one run -----------------------------------------------------------------


def measure(workload, seed, seconds, trace, run_dir, setup_dir):
    """The measured loop: returns (outcome, traced seconds, untraced seconds, recorder)."""
    outcome = Outcome()
    recorder = SpanRecorder() if trace else None
    traced_s = untraced_s = 0.0
    if workload == "cli-braking":
        from histospline.estimator import grid_kl

        oracle = json.loads((setup_dir / "oracle.json").read_text())
        steps = cli_steps(seed, run_dir)

        def cycle():
            nonlocal traced_s, untraced_s
            if not trace:
                untraced_s += cli_pass(steps, run_dir, oracle, outcome, grid_kl, in_process=False,
                                       timed_reference=True)
                return
            untraced_s += cli_pass(steps, run_dir, oracle, outcome, grid_kl, in_process=True)
            traced_s += cli_pass(steps, run_dir, oracle, outcome, grid_kl, True, recorder)
            recorder.request += 1
    else:
        requests = load_requests(setup_dir)
        kernel = None if trace else REFERENCE_KERNEL[workload]
        if kernel:
            kernel()  # builds its fixed inputs before timing

        def cycle():
            nonlocal traced_s, untraced_s
            untraced_s += library_cycle(requests, outcome, reference_kernel=kernel)
            if trace:
                traced_s += library_cycle(requests, outcome, recorder)

    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        cycle()
    return outcome, traced_s, untraced_s, recorder


def machine_block(seed, load_start) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "seed": seed,
    }


def report(name, value, unit, note="") -> None:
    print(f"{name} = {value:.6g} {unit}{note}")


def gmean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(workload, outcome, setup_walls) -> dict[str, float]:
    """The gated metrics, then the finer figures for the reader.

    The gated latency ``op_ref_ratio.p50_gmean`` is the geometric mean
    over operation kinds (CLI commands or input vectors) of each kind's
    median ratio of its wall time to that of the reference run right
    after it (see ``reference.py``).  On a shared 2-CPU host the speed
    drifts in phases of seconds to minutes: over 30 to 45 s runs that
    moved the 10th percentile of the wall times by 20 to 26% between
    quartiles of ten runs, and the ratio by 3 to 4%.  The wall times
    themselves are reported beside it, ungated.  A statistic pooled
    over kinds would land where the kinds' latency clusters meet and
    jump between them from run to run, hence the per-kind figures.
    """
    if workload == "cli-braking":
        peak, peak_n = outcome.peak_rss_mb, outcome.tally.attempted
    else:
        peak, peak_n = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
    values = {
        "setup_s": median(setup_walls),
        "op_ref_ratio.p50_gmean": gmean(median(r) for r in outcome.ratios.values()),
        "peak_rss_mb": peak,
    }
    samples = {"setup_s": len(setup_walls), "op_ref_ratio.p50_gmean": outcome.tally.attempted,
               "peak_rss_mb": peak_n}
    for name, value in values.items():
        report(name, value, END_TO_END_UNITS[name], f"  (n={samples[name]})")
    walls = outcome.walls.values()
    for q in (10, 50):
        report(f"op_ms.p{q}_gmean", gmean(percentile(w, q) * 1e3 for w in walls), "ms",
               f"  (n={outcome.tally.attempted}, not gated)")
    report("estimates_per_s", outcome.estimates / outcome.op_seconds, "1/s",
           f"  (n={outcome.estimates}, not gated)")
    ms = [w * 1e3 for w in outcome.estimate_walls]
    n = len(ms)
    report("estimate_ms.p50", median(ms), "ms", f"  (pooled over kinds, n={n})")
    for q in (90, 99):
        tail = tail_percentile(ms, q)
        print(f"estimate_ms.p{q} = " + (f"{tail:.6g} ms  (n={n})" if tail is not None
                                         else f"omitted: fewer than 10 of n={n} beyond it"))
    report("estimate_ms.max", max(ms), "ms", f"  (n={n})")
    for kind, walls in outcome.walls.items():
        report(f"  {kind} p50", median(walls) * 1e3, "ms",
               f"  (p10 {percentile(walls, 10) * 1e3:.6g}, max {max(walls) * 1e3:.6g} ms, "
               f"reference ratio p50 {median(outcome.ratios[kind]):.6g}, n={len(walls)})")
    return values


def traced_metrics(workload, outcome, traced_s, untraced_s, recorder, run_dir) -> dict[str, float]:
    # each CLI invocation of the untraced workload is a fresh interpreter
    fresh = sum(1 for span in recorder.spans if span.name == "cli.main")
    values = layers.layer_metrics(recorder.spans, traced_s, untraced_s, import_probe(run_dir), fresh)
    for name, value in values.items():
        report(name, value, layers.PER_LAYER_UNITS[name])
    dominant = layers.dominant_layer(values)
    verdict = "matches" if dominant in PREDICTED[workload] else "does NOT match"
    print(f"dominant self-time layer: {dominant} ({verdict} the prediction "
          f"{' or '.join(PREDICTED[workload])})")
    return values


def run(args) -> dict:
    load_start = os.getloadavg()
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_walls, setup_dir = run_setup(args.workload, args.seed, run_dir)
        outcome, traced_s, untraced_s, recorder = measure(
            args.workload, args.seed, args.seconds, args.trace, run_dir, setup_dir)
        print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        if args.trace:
            values = traced_metrics(args.workload, outcome, traced_s, untraced_s, recorder, run_dir)
            units = layers.PER_LAYER_UNITS
            recorder.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            values = end_to_end(args.workload, outcome, setup_walls)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    tally = outcome.tally
    print(f"failed_ratio = {tally.failed_ratio:.6g}  ({tally.failed}/{tally.attempted})")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    if outcome.simpson_dev:
        print(f"normalization_simpson max |deviation from 1| = {max(outcome.simpson_dev):.3e} "
              f"(recorded, not gated; the acceptance suite expects <= 1e-6)")
    print("machine " + json.dumps(machine_block(args.seed, load_start)))
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "histospline" / "__init__.py").is_file():
        print(f"error: {SRC / 'histospline'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global histospline, layers, prepare
    import histospline
    import layers
    import prepare

    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
