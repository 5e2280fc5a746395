"""Output checks and the oracles they compare against.

Oracles are computed during set-up, outside the timed region.  Each
operation of a run is checked; an operation fails when the program exits
non-zero or any check returns a reason.  The tolerances are the
acceptance suite's: per-bin mean value at 1e-10, analytic normalization
exactly 1, and the boundary contracts at 1e-12 (clamped) and 1e-9
(natural and not-a-knot, scaled).
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np

BIN_IDENTITY_TOL = 1e-10
CLAMPED_TOL = 1e-12
NATURAL_TOL = 1e-9
NOT_A_KNOT_TOL = 1e-9
KL_RTOL = 1e-12
MAX_REASONS = 5


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reasons) -> bool:
        self.attempted += 1
        if reasons:
            self.failed += 1
            room = MAX_REASONS - len(self.reasons)
            self.reasons.extend(list(reasons)[: max(room, 0)])
        return not reasons

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --- oracles -------------------------------------------------------------


def _sorted_counts(sorted_values: np.ndarray, bins: int) -> np.ndarray:
    # half-open bins, the last one closed, as np.histogram counts them
    edges = np.linspace(sorted_values[0], sorted_values[-1], bins + 1)
    idx = np.searchsorted(sorted_values, edges[1:-1], side="left")
    return np.diff(np.concatenate(([0], idx, [sorted_values.size])))


def knuth_oracle(values, search_max: int = 200) -> int:
    """Argmax of Knuth's log-posterior, computed with ``math.lgamma``
    independently of the library's scan; ties go to the smaller count."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    best_b, best_lp = 1, -math.inf
    for b in range(1, search_max + 1):
        counts = sorted(_sorted_counts(ordered, b).tolist())
        lp = (
            n * math.log(b)
            + math.lgamma(b / 2.0)
            - b * math.lgamma(0.5)
            - math.lgamma(n + b / 2.0)
            + math.fsum(math.lgamma(c + 0.5) for c in counts)
        )
        if lp > best_lp:
            best_b, best_lp = b, lp
    return best_b


def cumulative_oracle(values, bins: int) -> np.ndarray:
    """Cumulative bin masses ``F`` (length ``bins + 1``) of uniformly
    weighted samples over ``bins`` equal-width bins."""
    ordered = np.sort(np.asarray(values, dtype=float))
    counts = _sorted_counts(ordered, bins)
    return np.concatenate(([0.0], np.cumsum(counts))) / ordered.size


def corpus_csv_sha256(corpus) -> str:
    """sha256 of the corpus CSV as ``histospline generate`` documents it:
    header ``series_id,t,x``, one row per sample, floats as ``repr``."""
    digest = hashlib.sha256(b"series_id,t,x\n")
    for series_id, ts in enumerate(corpus):
        rows = "".join(
            f"{series_id},{t!r},{x!r}\n" for t, x in zip(ts.t.tolist(), ts.x.tolist())
        )
        digest.update(rows.encode("utf-8"))
    return digest.hexdigest()


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# --- checks on library results --------------------------------------------


def exact_min_density(knots: np.ndarray, coeffs: np.ndarray) -> float:
    """Minimum of the piecewise-quadratic density: segment ends and the
    interior vertices of upward parabolas."""
    h = np.diff(knots)
    _, c1, c2, c3 = coeffs.T
    candidates = [c1, c1 + h * (2.0 * c2 + 3.0 * c3 * h)]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(c3 > 0.0, -c2 / (3.0 * c3), -1.0)
    inside = (s > 0.0) & (s < h)
    candidates.append(c1[inside] + s[inside] * (2.0 * c2[inside] + 3.0 * c3[inside] * s[inside]))
    return float(min(np.min(c) for c in candidates if c.size))


def sign_changes(c3: np.ndarray) -> int:
    signs = np.sign(c3)
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def check_estimate(est, density, min_density, turning_points, bins: int, F: np.ndarray) -> list[str]:
    """Check one library estimate against its set-up oracles.

    ``density`` is the estimate evaluated on its grid; ``min_density``
    and ``turning_points`` are the library's diagnostics for it.
    """
    reasons = []
    if est.bin_count != bins:
        reasons.append(f"bin_count {est.bin_count} != oracle {bins}")
    if est.normalization() != 1.0:
        reasons.append(f"normalization_analytic {est.normalization()!r} != 1.0")
    knots = np.asarray(est.spline.knots)
    coeffs = np.asarray(est.spline.coefficients)
    h = np.diff(knots)
    c0, c1, c2, c3 = coeffs.T
    if est.bin_count == bins:
        right = c0 + h * (c1 + h * (c2 + h * c3))
        residual = float(max(np.max(np.abs(right - F[1:])), np.max(np.abs(c0 - F[:-1]))))
        if not residual <= BIN_IDENTITY_TOL:
            reasons.append(f"per-bin mean-value residual {residual:.3e} > {BIN_IDENTITY_TOL:g}")
    boundary = est.boundary.value
    if boundary == "clamped":
        worst = max(abs(c1[0]), abs(c1[-1] + h[-1] * (2.0 * c2[-1] + 3.0 * c3[-1] * h[-1])))
        tol = CLAMPED_TOL
    elif boundary == "natural":
        second = np.append(2.0 * c2, 2.0 * c2[-1] + 6.0 * c3[-1] * h[-1])
        worst = max(abs(second[0]), abs(second[-1])) / max(1.0, float(np.max(np.abs(second))))
        tol = NATURAL_TOL
    else:
        worst = max(abs(c3[0] - c3[1]), abs(c3[-1] - c3[-2])) / max(1.0, float(np.max(np.abs(c3))))
        tol = NOT_A_KNOT_TOL
    if not worst <= tol:
        reasons.append(f"{boundary} boundary contract {worst:.3e} > {tol:g}")
    if turning_points != sign_changes(c3):
        reasons.append(f"turning_points {turning_points} != {sign_changes(c3)} sign changes")
    density = np.asarray(density)
    if not np.all(np.isfinite(density)):
        reasons.append("density is not finite on the grid")
    else:
        scale = max(1.0, float(np.max(np.abs(density))))
        expected = exact_min_density(knots, coeffs)
        if abs(min_density - expected) > 1e-12 * scale or min_density > density.min() + 1e-12 * scale:
            reasons.append(f"min_density {min_density!r} != exact minimum {expected!r}")
    return reasons


# --- checks on CLI artifacts ------------------------------------------------


def check_cli_summary(summary: dict, expected: dict) -> list[str]:
    """Compare an ``estimate`` summary record with the in-process oracle."""
    reasons = []
    if summary.get("normalization_analytic") != 1.0:
        reasons.append(f"normalization_analytic {summary.get('normalization_analytic')!r} != 1.0")
    for key in ("bin_count", "turning_points", "sample_count"):
        if summary.get(key) != expected[key]:
            reasons.append(f"{key} {summary.get(key)!r} != oracle {expected[key]!r}")
    return reasons


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def check_estimate_artifacts(out_dir, summary: dict, grid: int) -> list[str]:
    reasons = []
    bins = summary.get("bin_count")
    if count_lines(out_dir / "histogram.csv") != (bins or 0) + 1:
        reasons.append("histogram.csv does not hold one row per bin")
    if count_lines(out_dir / "curve.csv") != grid + 1:
        reasons.append(f"curve.csv does not hold {grid} grid rows")
    return reasons


def read_curve(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float)
    return data[:, rows[0].index("u")], data[:, rows[0].index("pdf")]


def expected_kl(curve_a, curve_b, grid: int, grid_kl) -> tuple[float, float]:
    """``compare``'s two KL values recomputed in-process from the same files."""
    u_a, p_a = read_curve(curve_a)
    u_b, p_b = read_curve(curve_b)
    u = np.linspace(max(u_a[0], u_b[0]), min(u_a[-1], u_b[-1]), grid)
    p = np.interp(u, u_a, p_a)
    q = np.interp(u, u_b, p_b)
    return grid_kl(u, p, q), grid_kl(u, q, p)


def check_kl(stdout_text: str, expected: tuple[float, float]) -> list[str]:
    found = {}
    for line in stdout_text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key in ("kl_ab", "kl_ba"):
            found[key] = float(value)
    reasons = []
    for key, want in zip(("kl_ab", "kl_ba"), expected):
        got = found.get(key)
        if got is None or not math.isclose(got, want, rel_tol=KL_RTOL, abs_tol=1e-300):
            reasons.append(f"{key} {got!r} != in-process {want!r}")
    return reasons
