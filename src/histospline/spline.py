"""Cubic spline machinery: B-spline basis recursion, interpolating-spline
construction under clamped/natural/not-a-knot boundary conditions,
evaluation, and differentiation.

The basis functions follow the standard recursion

    N[i,0](u) = 1 on [tau_i, tau_{i+1}), else 0
    N[i,p](u) = (u - tau_i)/(tau_{i+p} - tau_i) * N[i,p-1](u)
              + (tau_{i+p+1} - u)/(tau_{i+p+1} - tau_{i+1}) * N[i+1,p-1](u)

with the 0/0 := 0 convention for repeated knots, and the degree-0
interval closed on the right at the final knot of the vector so that the
partition of unity extends to the right end of the domain.

Fitted splines are stored per segment in the local power basis
``c0 + c1*s + c2*s**2 + c3*s**3`` with ``s = u - knots[i]``; the
coefficients come from the classic second-derivative (moment) system,
which keeps evaluation and differentiation exact and cheap.  The system
is tridiagonal and is solved by forward elimination and back
substitution (the Thomas algorithm) in O(m) time and memory for m
knots.  Clamped and natural end rows are tridiagonal as they stand; the
three-term not-a-knot end rows are first eliminated into their
neighbouring rows (de Boor, *A Practical Guide to Splines*, ch. IV).
Every system solved is strictly diagonally dominant, so no pivoting is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError, NumericError, OutOfSupportError
from .histogram import _checked_knots, _frozen_array, _real, _size, _trusted

__all__ = [
    "Boundary",
    "CubicSplineModel",
    "as_knot_vector",
    "bspline_basis",
    "bspline_basis_derivative",
    "fit_interpolating_spline",
]


class Boundary(str, Enum):
    """End condition of an interpolating cubic spline."""

    CLAMPED = "clamped"          # zero first derivative at both ends
    NATURAL = "natural"          # zero second derivative at both ends
    NOT_A_KNOT = "not-a-knot"    # first two / last two segments share one cubic

    @classmethod
    def _missing_(cls, value):
        raise DataError(f"unknown boundary condition {value!r}")

    def __str__(self) -> str:
        return self.value


def as_knot_vector(tau) -> np.ndarray:
    """Validate and return a knot vector as a read-only float array."""
    return _checked_knots(tau, "knot vector", strict=False)


# Bound on the degree of the basis pair: its recursion makes 2**p calls (1.4 s at p = 20).
MAX_BASIS_DEGREE = 16


def _basis_args(i, p, tau, u, lowest: int) -> tuple:
    """``(i, p, tau, u)`` checked for the basis pair: :class:`DataError` unless ``i`` and
    ``p`` are integers, ``p`` in ``lowest..MAX_BASIS_DEGREE``; ``IndexError`` for a bad ``i``."""
    tau = as_knot_vector(tau)
    p = _size(p, "spline degree", lowest, MAX_BASIS_DEGREE)
    if not 0 <= _size(i, "basis index", -np.inf) <= tau.size - p - 2:
        raise IndexError(f"basis index {i} out of range [0, {tau.size - p - 2}] for degree {p}")
    u = _real(u, "u")
    if u.ndim:
        raise DataError(f"u must be one number, not an array of shape {u.shape}")
    return i, p, tau, u.item()


def bspline_basis(i: int, p: int, tau, u: float) -> float:
    """Evaluate the basis function ``N[i,p]`` on knots ``tau`` at ``u``.

    Defined for any real ``u``, one int or float (see ``_real``), else a :class:`DataError`;
    the function is nonnegative and vanishes outside its support ``[tau[i], tau[i+p+1]]``.
    """
    return _basis(*_basis_args(i, p, tau, u, 0))


def _basis(i: int, p: int, tau: np.ndarray, u: float) -> float:
    if p == 0:
        if u == tau[-1]:  # close the final interval so the domain end is covered
            return 1.0 if tau[i] < u <= tau[i + 1] else 0.0
        return 1.0 if tau[i] <= u < tau[i + 1] else 0.0
    return _step(i, p, tau, u, u - tau[i], tau[i + p + 1] - u)


def _step(i: int, p: int, tau: np.ndarray, u: float, left: float, right: float) -> float:
    """The Cox-de Boor step ``left / (tau_{i+p} - tau_i) * N[i,p-1](u) + right /
    (tau_{i+p+1} - tau_{i+1}) * N[i+1,p-1](u)``, a term with a zero denominator dropped."""
    total = 0.0
    left_den = tau[i + p] - tau[i]
    if left_den > 0.0:
        total += left / left_den * _basis(i, p - 1, tau, u)
    right_den = tau[i + p + 1] - tau[i + 1]
    if right_den > 0.0:
        total += right / right_den * _basis(i + 1, p - 1, tau, u)
    return total


def bspline_basis_derivative(i: int, p: int, tau, u: float) -> float:
    """First derivative of ``N[i,p]`` at ``u``.

    Uses the derivative recursion

        N'[i,p] = p/(tau_{i+p} - tau_i) * N[i,p-1]
                - p/(tau_{i+p+1} - tau_{i+1}) * N[i+1,p-1]

    with zero-denominator terms dropped (the 0/0 convention).
    """
    i, p, tau, u = _basis_args(i, p, tau, u, 1)
    return _step(i, p, tau, u, p, -p)


@dataclass(frozen=True, eq=False)
class CubicSplineModel:
    """Piecewise cubic in local power form.

    ``coefficients[i] = (c0, c1, c2, c3)`` describes segment ``i`` as
    ``c0 + c1*s + c2*s**2 + c3*s**3`` with ``s = u - knots[i]``.
    Evaluation outside ``[knots[0], knots[-1]]`` raises
    :class:`OutOfSupportError`; a probability model has no meaning beyond
    its support, so there is no extrapolation.
    """

    knots: np.ndarray
    coefficients: np.ndarray
    boundary: Boundary

    def __post_init__(self):
        knots = _checked_knots(self.knots, "knots")
        coeffs = _frozen_array(self.coefficients)
        if coeffs.shape != (knots.size - 1, 4):
            raise DataError(f"coefficients must have shape ({knots.size - 1}, 4)")
        if not np.all(np.isfinite(coeffs)):
            raise DataError("coefficients must be finite")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "boundary", Boundary(self.boundary))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    def _local(self, u):
        """Map evaluation points to (segment index, local offset)."""
        arr = _real(u, "evaluation points")
        lo, hi = self.knots[0], self.knots[-1]
        outside = ~((arr >= lo) & (arr <= hi))  # NaN is outside too
        if outside.any():
            bad = arr.flat[int(np.argmax(outside))]
            raise OutOfSupportError(
                f"evaluation point {bad!r} outside support [{lo!r}, {hi!r}]"
            )
        # interior knots at or below u count its segment; the top knot closes the last
        idx = np.searchsorted(self.knots[1:-1], arr, side="right")
        return idx, arr - self.knots[idx]

    def __call__(self, u):
        """Spline value at ``u`` (scalar or array)."""
        idx, s = self._local(u)
        c0, c1, c2, c3 = self.coefficients.take(idx, axis=0).T
        val = c0 + s * (c1 + s * (c2 + s * c3))
        return float(val) if np.ndim(u) == 0 else val

    def derivative(self, u, order: int = 1):
        """Derivative of the spline at ``u``; ``order`` may be 1, 2, or 3."""
        if order not in (1, 2, 3):
            raise DataError("derivative order must be 1, 2, or 3")
        idx, s = self._local(u)
        _, c1, c2, c3 = self.coefficients.take(idx, axis=0).T
        if order == 1:
            val = c1 + s * (2.0 * c2 + 3.0 * c3 * s)
        elif order == 2:
            val = 2.0 * c2 + 6.0 * c3 * s
        else:
            val = 6.0 * c3 + 0.0 * s
        return float(val) if np.ndim(u) == 0 else val


def fit_interpolating_spline(x, F, boundary: Boundary | str) -> CubicSplineModel:
    """Fit the cubic spline interpolating ``(x[i], F[i])`` under ``boundary``.

    Parameters
    ----------
    x : array_like
        Strictly increasing abscissae, length ``m >= 2`` (``m >= 4`` for
        not-a-knot, which needs two distinct segments at each end).
    F : array_like
        Ordinates, same length as ``x``.
    boundary : Boundary or str
        ``clamped`` imposes zero first derivative at both ends,
        ``natural`` zero second derivative at both ends, and
        ``not-a-knot`` third-derivative continuity across the second and
        penultimate knots.

    Returns
    -------
    CubicSplineModel
        The unique C^2 interpolant satisfying the boundary condition.

    Raises
    ------
    DataError
        If the inputs are not finite, of unequal length, too short for the
        boundary, or ``x`` is not strictly increasing over a finite span.
    NumericError
        If the moments or coefficients come out non-finite, which happens
        when the slopes ``diff(F) / diff(x)``, their differences or the
        curvature changes per unit length overflow the float range.

    Notes
    -----
    The moments ``M_i = S''(x_i)`` solve one tridiagonal system in O(m)
    time and memory.  Clamped and natural ends add one tridiagonal row at
    each end of the ``m - 2`` interior rows.  For not-a-knot, ``M_0`` and
    ``M_{m-1}`` are eliminated into rows 1 and ``m - 2``, the system is
    solved for ``M_1 .. M_{m-2}``, and the two ends are recovered from the
    not-a-knot conditions.  Eliminating in this direction (not ``M_2``
    from row 0) keeps the reduced rows strictly diagonally dominant, so
    the solve needs no pivoting.
    """
    boundary = Boundary(boundary)
    x = _checked_knots(x, "x")
    F = _frozen_array(F)
    if F.shape != x.shape:
        raise DataError("x and F must be 1-d arrays of equal length")
    if not np.all(np.isfinite(F)):
        raise DataError("x and F must be finite")
    if boundary is Boundary.NOT_A_KNOT and x.size < 4:
        raise DataError(f"not-a-knot needs at least 4 knots (3 bins), got {x.size}")

    # overflow surfaces as non-finite coefficients, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.diff(x)
        slopes = np.diff(F) / h
        moments = _solve_moments(h, slopes, boundary)
        coefficients = np.column_stack([
            F[:-1],
            slopes - h * (2.0 * moments[:-1] + moments[1:]) / 6.0,
            moments[:-1] / 2.0,
            (moments[1:] - moments[:-1]) / (6.0 * h),
        ])
    if not np.all(np.isfinite(coefficients)):
        raise NumericError(
            f"spline coefficients are not finite for boundary {boundary.value}: "
            "the slopes or curvatures of the data exceed the float range"
        )
    coefficients.setflags(write=False)
    return _trusted(CubicSplineModel, knots=x, coefficients=coefficients, boundary=boundary)


def _solve_moments(h: np.ndarray, slopes: np.ndarray, boundary: Boundary) -> np.ndarray:
    """Second derivatives ``M_0..M_{m-1}`` at the knots of the interpolant.

    Interior row ``i`` of the moment system is

        h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1]
            = 6 (slopes[i] - slopes[i-1]).

    The clamped end rows are ``2 h[0] M_0 + h[0] M_1 = 6 slopes[0]`` and
    its mirror image; the natural ones, ``M_0 = 0`` and ``M_{m-1} = 0``,
    leave the other rows' elimination unchanged.  The not-a-knot end row
    ``h[1] M_0 - (h[0] + h[1]) M_1 + h[0] M_2 = 0`` enters only through the
    ratio ``h[0] / h[1]``, so no product of two spacings can underflow.
    """
    rhs = 6.0 * np.diff(slopes)
    sub = h[:-1].copy()
    diag = 2.0 * (h[:-1] + h[1:])
    sup = h[1:].copy()

    if boundary is not Boundary.NOT_A_KNOT:
        # (diagonal, off-diagonal, right-hand side) of the first and last rows
        first = last = (1.0, 0.0, 0.0)  # natural: literal zeros, never -0.0
        if boundary is Boundary.CLAMPED:
            first = (2.0 * h[0], h[0], 6.0 * slopes[0])
            last = (2.0 * h[-1], h[-1], -6.0 * slopes[-1])
        sub = np.concatenate((sub, [last[1]]))
        diag = np.concatenate(([first[0]], diag, [last[0]]))
        sup = np.concatenate(([first[1]], sup))
        rhs = np.concatenate(([first[2]], rhs, [last[2]]))
        return _solve_tridiagonal(sub, diag, sup, rhs)

    # Not-a-knot: M_0 = M_1 + r0 (M_1 - M_2) with r0 = h[0] / h[1], and the
    # mirror image at the right end, substituted into rows 1 and m-2.
    r0, rl = h[0] / h[1], h[-1] / h[-2]
    diag[0] += h[0] * (1.0 + r0)
    sup[0] -= h[0] * r0
    diag[-1] += h[-1] * (1.0 + rl)
    sub[-1] -= h[-1] * rl
    moments = np.empty(h.size + 1)
    moments[1:-1] = _solve_tridiagonal(sub[1:], diag, sup[:-1], rhs)
    moments[0] = moments[1] + r0 * (moments[1] - moments[2])
    moments[-1] = moments[-2] + rl * (moments[-2] - moments[-3])
    return moments


def _solve_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """Thomas algorithm for ``sub[i-1] y[i-1] + diag[i] y[i] + sup[i] y[i+1]
    = rhs[i]``.

    No pivoting: every system built by :func:`_solve_moments` is strictly
    diagonally dominant, for which elimination in order is stable.  The
    sweeps run on Python float lists: indexing numpy arrays element by
    element is slower.
    """
    sub, diag, sup, rhs = sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()
    n = len(diag)
    for i in range(1, n):
        w = sub[i - 1] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        rhs[i] -= w * rhs[i - 1]
    rhs[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        rhs[i] = (rhs[i] - sup[i] * rhs[i + 1]) / diag[i]
    return np.array(rhs)
