"""Density estimation pipeline: histogram -> cumulative masses -> cubic
spline -> derivative-as-PDF, plus divergence and oscillation analysis.

The estimate interpolates the cumulative bin masses F with a cubic spline
and differentiates it, so each bin's mean density matches the histogram
height and the analytic integral over the support is the endpoint
difference F[-1] - F[0] = 1.  Cubic interpolation of F can undershoot,
which makes the derivative locally negative; the library reports this
(see :meth:`PdfEstimate.min_density`) and never clips, since clipping
would break both the per-bin identity and the normalization.

A :class:`PdfEstimate` is its histogram, bin rule and boundary
condition: it fits its spline to :func:`cumulative_masses` of the
histogram it holds, so the edges are stored, and checked, once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DisjointSupportsError
from .histogram import BinRule, Histogram, Samples, _size, build_histogram, select_bin_count
from .spline import Boundary, CubicSplineModel, fit_interpolating_spline

__all__ = [
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


def cumulative_masses(hist: Histogram) -> np.ndarray:
    """Cumulative bin masses ``F`` over the histogram's edges, read-only.

    The running sum of ``heights[i] * widths[i]`` is prepended with the
    starting condition ``F = 0`` at the first edge, then rescaled by its
    final value (a last-ulp correction, the histogram is already
    normalized to 1e-12) so the endpoint is exactly 1.  The masses are
    nonnegative, so ``F`` is non-decreasing from ``F[0] = 0`` to
    ``F[-1] = 1``, and ``F[i+1] - F[i]`` is the mass of bin ``i``.
    """
    F = np.concatenate(([0.0], np.cumsum(hist.heights * hist.widths)))
    F /= F[-1]
    F.setflags(write=False)
    return F


@dataclass(frozen=True, eq=False)
class PdfEstimate:
    """Smooth density estimate: the derivative of the cubic spline fitted,
    under ``boundary``, to the cumulative masses of ``histogram``.

    ``rule`` is carried as metadata.  Calling the estimate evaluates the
    density; :meth:`cdf` evaluates the underlying spline.  Values may be
    locally negative where the spline undershoots.
    """

    histogram: Histogram
    rule: BinRule
    boundary: Boundary
    spline: CubicSplineModel = field(init=False, repr=False)

    def __post_init__(self):
        boundary = Boundary(self.boundary)
        spline = fit_interpolating_spline(
            self.histogram.edges, cumulative_masses(self.histogram), boundary)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "spline", spline)

    @property
    def bin_count(self) -> int:
        return self.histogram.bin_count

    @property
    def support(self) -> tuple[float, float]:
        return self.spline.support

    def __call__(self, u):
        return self.spline.derivative(u, order=1)

    def cdf(self, u):
        return self.spline(u)

    def normalization(self) -> float:
        """Analytic integral over the support: the spline's endpoint
        difference, exactly ``F[-1] - F[0]`` of the cumulative masses."""
        F = cumulative_masses(self.histogram)
        return float(F[-1] - F[0])

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
    return PdfEstimate(hist, rule, boundary)


def estimate_pdf(samples: Samples, rule: BinRule, boundary: Boundary | str) -> PdfEstimate:
    """Run the full pipeline on ``samples``.

    Selects the bin count with ``rule``, builds the weighted histogram,
    accumulates its cumulative masses, interpolates them with a cubic
    spline under ``boundary``, and returns the derivative as the density
    estimate over ``[min(values), max(values)]``.  Deterministic: equal
    inputs give bit-identical estimates.
    """
    boundary = Boundary(boundary)
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
    grid_size = _size(grid_size, "grid_size", 2, MAX_GRID_SIZE)
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
    _size(grid_size, "grid_size", 3)
    signs = np.sign(est.spline.coefficients[:, 3])
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def quadrature_normalization(est: PdfEstimate, points: int = 10001) -> float:
    """Composite-Simpson integral of the density over its support.

    Computed as ``scipy.integrate.simpson(est(u), x=u)`` does, operation
    for operation (with Cartwright's last-interval term for even ``points``).
    """
    points = _size(points, "points", 2, MAX_GRID_SIZE)
    lo, hi = est.support
    u = np.linspace(lo, hi, points)
    y, h = est(u), np.diff(u)
    if points == 2:
        return float(0.5 * h[0] * (y[1] + y[0]))
    m = points - 2 if points % 2 else points - 3
    h0, h1 = h[0:m:2], h[1:m + 1:2]
    hsum, ratio = h0 + h1, _divide(h0, h1)
    # Products of spacings are formed from the spacings g scaled by a power
    # of two.  The scaling is exact, so they cannot overflow near the float
    # limit, and every result that does not overflow unscaled keeps its bits.
    scale = math.frexp(hi - lo)[1]
    g = np.ldexp(h, -scale)
    g0, g1 = g[0:m:2], g[1:m + 1:2]
    gsum = g0 + g1
    total = np.sum(hsum / 6.0 * (
        y[0:m:2] * (2.0 - _divide(1.0, ratio))
        + y[1:m + 1:2] * (gsum * _divide(gsum, g0 * g1))
        + y[2:m + 2:2] * (2.0 - ratio)
    ))
    if points % 2 == 0:
        a, b = g[-2], g[-1]
        total += (np.ldexp(_divide(2 * b**2 + 3 * a * b, 6 * (b + a)), scale) * y[-1]
                  + np.ldexp(_divide(b**2 + 3.0 * a * b, 6 * a), scale) * y[-2]
                  - np.ldexp(_divide(1 * b**3, 6 * a * (a + b)), scale) * y[-3])
    return float(total)


def _divide(num, den):
    # 0 where the denominator is 0 (grid points that coincide on a tiny support)
    return np.divide(num, den, out=np.zeros_like(den), where=den != 0)
