"""Density estimation pipeline: histogram -> cumulative masses -> cubic
spline -> derivative-as-PDF, plus divergence and oscillation analysis.

The estimate interpolates the cumulative bin masses F with a cubic spline
and differentiates it, so each bin's mean density matches the histogram
height and the analytic integral over the support is the endpoint
difference F[-1] - F[0] = 1.  Cubic interpolation of F can undershoot,
which makes the derivative locally negative; the library reports this
(see :meth:`PdfEstimate.min_density`) and never clips, since clipping
would break both the per-bin identity and the normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DisjointSupportsError
from .histogram import (
    BinRule, Histogram, Samples, _frozen_array, build_histogram, select_bin_count,
)
from .spline import Boundary, CubicSplineModel, fit_interpolating_spline

__all__ = [
    "CumulativeProfile",
    "PdfEstimate",
    "cumulative_masses",
    "estimate_from_histogram",
    "estimate_pdf",
    "kl_divergence",
    "grid_kl",
    "count_turning_points",
    "quadrature_normalization",
]

DENSITY_FLOOR = 1e-12

# Upper bound on the points of a KL or quadrature grid (and on the CLI's
# --grid), checked before the grid is allocated.
MAX_GRID_SIZE = 1_000_000

PROFILE_TOL = 1e-12


@dataclass(frozen=True)
class CumulativeProfile:
    """Cumulative bin masses F over the bin edges x.

    ``F[0] = 0`` and ``F[-1] = 1`` exactly; ``F[i+1] - F[i]`` is the mass
    of bin ``i``.
    """

    x: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        F = np.asarray(self.F, dtype=float)
        if x.ndim != 1 or x.size < 2 or F.shape != x.shape:
            raise DataError("x and F must be 1-d arrays of equal length >= 2")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(F))):
            raise DataError("x and F must be finite")
        if np.any(np.diff(x) <= 0.0):
            raise DataError("x must be strictly increasing")
        if F[0] != 0.0:
            raise DataError("cumulative profile must start at exactly 0")
        if np.any(np.diff(F) < 0.0):
            raise DataError("cumulative profile must be non-decreasing")
        if abs(F[-1] - 1.0) > PROFILE_TOL:
            raise DataError(f"cumulative profile must end at 1, got {F[-1]!r}")
        object.__setattr__(self, "x", _frozen_array(x))
        object.__setattr__(self, "F", _frozen_array(F))


def cumulative_masses(hist: Histogram) -> CumulativeProfile:
    """Accumulate the histogram's bin masses into a cumulative profile.

    The running sum of ``heights[i] * widths[i]`` is prepended with the
    starting condition ``F = 0`` at the first edge, then rescaled by its
    final value (a last-ulp correction, the histogram is already
    normalized to 1e-12) so the endpoint is exactly 1.
    """
    masses = hist.heights * hist.widths
    F = np.concatenate(([0.0], np.cumsum(masses)))
    total = F[-1]
    if abs(total - 1.0) > PROFILE_TOL:
        raise DataError(f"histogram masses sum to {total!r}, not 1")
    return CumulativeProfile(x=hist.edges, F=F / total)


@dataclass(frozen=True)
class PdfEstimate:
    """Smooth density estimate: the derivative of a cubic spline fitted
    to the cumulative histogram profile.

    Calling the estimate evaluates the density; :meth:`cdf` evaluates the
    underlying spline.  Values may be locally negative where the spline
    undershoots.
    """

    spline: CubicSplineModel
    profile: CumulativeProfile
    rule: BinRule

    def __post_init__(self):
        if self.spline.knots.size != self.profile.x.size:
            raise DataError("spline knots and profile edges must agree")

    @property
    def boundary(self) -> Boundary:
        return self.spline.boundary

    @property
    def bin_count(self) -> int:
        return self.profile.x.size - 1

    @property
    def support(self) -> tuple[float, float]:
        return self.spline.support

    def __call__(self, u):
        return self.spline.derivative(u, order=1)

    def cdf(self, u):
        return self.spline(u)

    def normalization(self) -> float:
        """Analytic integral over the support: the spline's endpoint
        difference, exactly ``F[-1] - F[0]``."""
        return float(self.profile.F[-1] - self.profile.F[0])

    def min_density(self) -> float:
        """Exact minimum of the density over the support.

        The density is quadratic on each segment, so the minimum is
        attained at a segment end or an interior parabola vertex.
        """
        h = np.diff(self.spline.knots)
        _, c1, c2, c3 = self.spline.coefficients.T
        ends = np.minimum(c1, c1 + h * (2.0 * c2 + 3.0 * c3 * h))
        up = c3 > 0.0  # upward parabola: an interior vertex is a minimum
        c1, c2, c3, h = c1[up], c2[up], c3[up], h[up]
        s = -c2 / (3.0 * c3)
        inside = (0.0 < s) & (s < h)
        c1, c2, c3, s = c1[inside], c2[inside], c3[inside], s[inside]
        vertices = c1 + s * (2.0 * c2 + 3.0 * c3 * s)
        return float(vertices.min(initial=ends.min()))


def estimate_from_histogram(
    hist: Histogram, rule: BinRule, boundary: Boundary | str
) -> PdfEstimate:
    """Fit the density estimate to an already-built histogram.

    ``rule`` is carried as metadata only; callers that already selected a
    bin count (e.g. to export the histogram itself) use this to avoid
    re-running the selection scan.
    """
    boundary = Boundary(boundary)
    if boundary is Boundary.NOT_A_KNOT and hist.bin_count < 3:
        raise DataError(f"not-a-knot needs at least 3 bins, histogram has {hist.bin_count}")
    profile = cumulative_masses(hist)
    spline = fit_interpolating_spline(profile.x, profile.F, boundary)
    return PdfEstimate(spline=spline, profile=profile, rule=rule)


def estimate_pdf(samples: Samples, rule: BinRule, boundary: Boundary | str) -> PdfEstimate:
    """Run the full pipeline on ``samples``.

    Selects the bin count with ``rule``, builds the weighted histogram,
    accumulates the cumulative profile, interpolates it with a cubic
    spline under ``boundary``, and returns the derivative as the density
    estimate over ``[min(values), max(values)]``.  Deterministic: equal
    inputs give bit-identical estimates.
    """
    bins = select_bin_count(samples, rule)
    hist = build_histogram(samples, bins)
    return estimate_from_histogram(hist, rule, boundary)


def grid_kl(u: np.ndarray, p_vals: np.ndarray, q_vals: np.ndarray) -> float:
    """Trapezoidal Kullback-Leibler integral of two densities sampled on a
    shared grid, with both densities floored at ``DENSITY_FLOOR`` before
    the log (spline estimates can dip to zero or below)."""
    p_c = np.maximum(np.asarray(p_vals, dtype=float), DENSITY_FLOOR)
    q_c = np.maximum(np.asarray(q_vals, dtype=float), DENSITY_FLOOR)
    return float(np.trapezoid(p_c * np.log(p_c / q_c), np.asarray(u, dtype=float)))


def kl_divergence(p: PdfEstimate, q: PdfEstimate, grid_size: int = 1001) -> float:
    """KL(p || q) over the intersection of the two supports.

    Numerical: uniform ``grid_size``-point grid, trapezoidal rule,
    densities floored at ``DENSITY_FLOOR``.  Asymmetric in its arguments.
    """
    u = _overlap_grid(p.support, q.support, grid_size)
    return grid_kl(u, p(u), q(u))


def _overlap_grid(a: tuple[float, float], b: tuple[float, float], grid_size: int) -> np.ndarray:
    """Uniform ``grid_size``-point grid over the intersection of supports
    ``a`` and ``b``; :class:`DisjointSupportsError` if it is empty."""
    if not 2 <= grid_size <= MAX_GRID_SIZE:
        raise DataError(f"grid_size must be in 2..{MAX_GRID_SIZE}")
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if not lo < hi:
        raise DisjointSupportsError(f"supports {a} and {b} do not overlap")
    return np.linspace(lo, hi, grid_size)


def count_turning_points(est: PdfEstimate, grid_size: int = 512) -> int:
    """Number of curvature sign changes (inflections) of the density curve.

    The density's second derivative is the spline's third derivative,
    piecewise constant per segment, so the count is exact at segment
    granularity; ``grid_size`` is validated for interface compatibility
    but cannot refine an already-exact count.
    """
    if grid_size < 3:
        raise DataError("grid_size must be >= 3")
    signs = np.sign(est.spline.coefficients[:, 3])
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def quadrature_normalization(est: PdfEstimate, points: int = 10001) -> float:
    """Composite-Simpson integral of the density over its support.

    Computed as ``scipy.integrate.simpson(est(u), x=u)`` does, operation
    for operation (with Cartwright's last-interval term for even ``points``).
    """
    if not 2 <= points <= MAX_GRID_SIZE:
        raise DataError(f"points must be in 2..{MAX_GRID_SIZE}")
    lo, hi = est.support
    u = np.linspace(lo, hi, points)
    y, h = est(u), np.diff(u)
    if points == 2:
        return float(0.5 * h[0] * (y[1] + y[0]))
    m = points - 2 if points % 2 else points - 3
    h0, h1 = h[0:m:2], h[1:m + 1:2]
    hsum, ratio = h0 + h1, _divide(h0, h1)
    total = np.sum(hsum / 6.0 * (
        y[0:m:2] * (2.0 - _divide(1.0, ratio))
        + y[1:m + 1:2] * (hsum * _divide(hsum, h0 * h1))
        + y[2:m + 2:2] * (2.0 - ratio)
    ))
    if points % 2 == 0:
        a, b = h[-2], h[-1]
        total += (_divide(2 * b**2 + 3 * a * b, 6 * (b + a)) * y[-1]
                  + _divide(b**2 + 3.0 * a * b, 6 * a) * y[-2]
                  - _divide(1 * b**3, 6 * a * (a + b)) * y[-3])
    return float(total)


def _divide(num, den):
    # 0 where the denominator is 0 (grid points that coincide on a tiny support)
    return np.divide(num, den, out=np.zeros_like(den), where=den != 0)
