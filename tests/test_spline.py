"""Tests for the B-spline basis recursion and the interpolating spline."""

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from histospline import (
    Boundary,
    CubicSplineModel,
    DataError,
    NumericError,
    OutOfSupportError,
    as_knot_vector,
    bspline_basis,
    bspline_basis_derivative,
    fit_interpolating_spline,
    spline,
)

ALL_BOUNDARIES = (Boundary.CLAMPED, Boundary.NATURAL, Boundary.NOT_A_KNOT)


def deboor_basis_row(tau, p, u):
    """Independent oracle: the triangular (de Boor) scheme.

    Returns ``(span, row)`` where ``row[r]`` is the value of basis
    function ``span - p + r`` at ``u``; all other basis functions vanish.
    """
    tau = np.asarray(tau, dtype=float)
    if u == tau[-1]:
        span = int(np.searchsorted(tau, u, side="left")) - 1
    else:
        span = int(np.searchsorted(tau, u, side="right")) - 1
    row = [1.0]
    left = [0.0]
    right = [0.0]
    for j in range(1, p + 1):
        left.append(u - tau[span + 1 - j])
        right.append(tau[span + j] - u)
        saved = 0.0
        for r in range(j):
            denom = right[r + 1] + left[j - r]
            temp = row[r] / denom
            row[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        row.append(saved)
    return span, row


def valid_basis_indices(tau, p):
    return range(len(tau) - p - 1)


def basis_domain(tau, p):
    return tau[p], tau[len(tau) - p - 1]


KNOT_VECTORS = {
    "uniform": np.arange(10.0),
    "clamped": np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.5, 4.0, 5.0, 5.0, 5.0, 5.0]),
    "interior-repeat": np.array([0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
}


class TestBasisFunction:
    def test_degree_zero_indicator(self):
        tau = [0.0, 1.0, 2.0]
        assert bspline_basis(0, 0, tau, 0.0) == 1.0
        assert bspline_basis(0, 0, tau, 0.999) == 1.0
        assert bspline_basis(0, 0, tau, 1.0) == 0.0
        assert bspline_basis(1, 0, tau, 1.0) == 1.0
        assert bspline_basis(0, 0, tau, -0.1) == 0.0
        # the final knot closes the last interval
        assert bspline_basis(1, 0, tau, 2.0) == 1.0
        assert bspline_basis(0, 0, tau, 2.0) == 0.0

    def test_uniform_cubic_midpoint_value(self):
        # cardinal cubic B-spline on knots 0..4 peaks at 2 with value 2/3
        assert bspline_basis(0, 3, np.arange(5.0), 2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("name", sorted(KNOT_VECTORS))
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_de_boor_triangular_scheme(self, name, p):
        tau = KNOT_VECTORS[name]
        lo, hi = basis_domain(tau, p)
        rng = np.random.default_rng(42)
        points = np.concatenate([rng.uniform(lo, hi, size=40), [lo, hi]])
        for u in points:
            span, row = deboor_basis_row(tau, p, float(u))
            for i in valid_basis_indices(tau, p):
                expected = row[i - span + p] if span - p <= i <= span else 0.0
                assert bspline_basis(i, p, tau, float(u)) == pytest.approx(
                    expected, abs=1e-13
                ), f"{name}: N[{i},{p}]({u})"

    @pytest.mark.parametrize("name", sorted(KNOT_VECTORS))
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_partition_of_unity(self, name, p):
        tau = KNOT_VECTORS[name]
        lo, hi = basis_domain(tau, p)
        rng = np.random.default_rng(1)
        points = np.concatenate([rng.uniform(lo, hi, size=1000), [lo, hi]])
        for u in points:
            total = sum(bspline_basis(i, p, tau, float(u)) for i in valid_basis_indices(tau, p))
            assert abs(total - 1.0) <= 1e-12

    def test_local_support_is_exact(self):
        tau = np.arange(10.0)
        # N[2,3] lives on [tau_2, tau_6] = [2, 6]
        for u in (0.0, 1.0, 1.999, 6.0001, 7.5, 9.0):
            assert bspline_basis(2, 3, tau, u) == 0.0
        assert bspline_basis(2, 3, tau, 4.0) > 0.0

    def test_nonnegative(self):
        tau = KNOT_VECTORS["clamped"]
        rng = np.random.default_rng(2)
        for u in rng.uniform(0.0, 5.0, size=200):
            for i in valid_basis_indices(tau, 3):
                assert bspline_basis(i, 3, tau, float(u)) >= 0.0

    def test_index_and_degree_errors(self):
        tau = np.arange(6.0)
        with pytest.raises(IndexError):
            bspline_basis(5, 3, tau, 2.0)  # max valid index is n - p - 2 = 1
        with pytest.raises(IndexError):
            bspline_basis(-1, 3, tau, 2.0)
        with pytest.raises(DataError):
            bspline_basis(0, -1, tau, 2.0)

    @pytest.mark.parametrize("basis", [bspline_basis, bspline_basis_derivative])
    @pytest.mark.parametrize("i, p, message", [
        (0, 1.5, "spline degree must be an integer, got 1.5"),
        (0, True, "spline degree must be an integer, got True"),
        (0.5, 2, "basis index must be an integer, got 0.5"),
        (False, 2, "basis index must be an integer, got False"),
    ])
    def test_non_integer_degree_or_index_is_a_data_error(self, basis, i, p, message):
        with pytest.raises(DataError, match=message):
            basis(i, p, np.arange(8.0), 2.5)

    @pytest.mark.parametrize("basis", [bspline_basis, bspline_basis_derivative])
    def test_evaluation_point_is_one_number(self, basis):
        with pytest.raises(DataError, match=r"^u must be one number, not an array of shape \(2,\)$"):
            basis(0, 2, np.arange(8.0), [0.5, 1.0])

    def test_numpy_integer_degree_and_index(self):
        tau = np.arange(8.0)
        assert bspline_basis(np.int64(1), np.int32(3), tau, 2.5) == bspline_basis(1, 3, tau, 2.5)

    @pytest.mark.parametrize("basis, lowest", [(bspline_basis, 0),
                                               (bspline_basis_derivative, 1)])
    def test_degree_is_bounded(self, basis, lowest):
        # the recursion makes 2**p calls, so the degree has a ceiling
        tau = np.arange(40.0)
        top = spline.MAX_BASIS_DEGREE
        message = rf"^spline degree must be in {lowest}\.\.{top}$"
        for p in (lowest - 1, top + 1, 1000):
            with pytest.raises(DataError, match=message):
                basis(0, p, tau, 2.5)
        assert basis(0, top, tau, top / 2) > 0.0  # N[0,p] rises to its middle

    def test_knot_vector_validation(self):
        with pytest.raises(DataError, match="non-decreasing"):
            as_knot_vector([0.0, 2.0, 1.0])
        with pytest.raises(DataError, match="finite"):
            as_knot_vector([0.0, np.inf])
        with pytest.raises(DataError):
            as_knot_vector([1.0])
        # the step overflows: no RuntimeWarning, and not accepted as non-decreasing
        with pytest.raises(DataError, match="overflows the float range"):
            as_knot_vector([-1e308, 1e308])
        # finite steps, overflowing span
        with pytest.raises(DataError, match="knot vector span"):
            as_knot_vector([-1e308, 0.0, 1e308])
        # the recursion subtracts knots p + 1 apart: no RuntimeWarning and no
        # wrong value (0.0 for 0.5), but the span is rejected
        for basis in (bspline_basis, bspline_basis_derivative):
            with pytest.raises(DataError, match="knot vector span"):
                basis(0, 2, [-1e308, 0.0, 1e308, 1e308], 0.0)


class TestBasisDerivative:
    def test_degree_zero_rejected(self):
        with pytest.raises(DataError, match="degree"):
            bspline_basis_derivative(0, 0, np.arange(4.0), 1.0)

    @pytest.mark.parametrize("i", [-1, 6])
    def test_index_out_of_range(self, i):
        # 10 knots carry basis functions 0..5 of degree 3
        with pytest.raises(IndexError, match=r"out of range \[0, 5\]"):
            bspline_basis_derivative(i, 3, np.arange(10.0), 4.5)

    @pytest.mark.parametrize("name", sorted(KNOT_VECTORS))
    def test_derivatives_sum_to_zero(self, name):
        tau = KNOT_VECTORS[name]
        p = 3
        lo, hi = basis_domain(tau, p)
        for u in np.linspace(lo + 1e-3, hi - 1e-3, 25):
            total = sum(
                bspline_basis_derivative(i, p, tau, float(u))
                for i in valid_basis_indices(tau, p)
            )
            assert abs(total) <= 1e-10

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_central_differences(self, p):
        tau = np.arange(12.0)
        lo, hi = basis_domain(tau, p)
        rng = np.random.default_rng(3)
        step = 1e-5
        for u in rng.uniform(lo + 0.01, hi - 0.01, size=100):
            for i in valid_basis_indices(tau, p):
                fd = (
                    bspline_basis(i, p, tau, float(u + step))
                    - bspline_basis(i, p, tau, float(u - step))
                ) / (2.0 * step)
                assert bspline_basis_derivative(i, p, tau, float(u)) == pytest.approx(
                    fd, abs=1e-6
                )

    def test_symmetric_cubic_has_flat_midpoint(self):
        tau = np.arange(8.0)
        # N[0,3] is symmetric about the middle of its support [0, 4]
        assert abs(bspline_basis_derivative(0, 3, tau, 2.0)) <= 1e-12


def sample_model(m=8, boundary=Boundary.NATURAL, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 10.0, size=m))
    while np.any(np.diff(x) < 1e-3):
        x = np.sort(rng.uniform(0.0, 10.0, size=m))
    F = np.sin(x) + 0.1 * x
    return x, F, fit_interpolating_spline(x, F, boundary)


def segment_end_state(model, i):
    """Value and first two derivatives of segment i at its right knot."""
    c0, c1, c2, c3 = model.coefficients[i]
    h = model.knots[i + 1] - model.knots[i]
    value = c0 + h * (c1 + h * (c2 + h * c3))
    d1 = c1 + h * (2.0 * c2 + 3.0 * c3 * h)
    d2 = 2.0 * c2 + 6.0 * c3 * h
    return value, d1, d2


class TestFitInterpolatingSpline:
    def test_two_point_natural_is_the_chord(self):
        model = fit_interpolating_spline([0.0, 1.0], [0.0, 1.0], Boundary.NATURAL)
        for u in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert model(u) == pytest.approx(u, abs=1e-14)
            assert model.derivative(u) == pytest.approx(1.0, abs=1e-14)

    def test_midpoint_of_linear_model_is_mean(self):
        model = fit_interpolating_spline([2.0, 6.0], [1.0, 5.0], Boundary.NATURAL)
        assert model(4.0) == pytest.approx(3.0, abs=1e-14)

    def test_not_a_knot_reproduces_cubics(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            coeffs = rng.uniform(-2.0, 2.0, size=4)
            q = np.polynomial.Polynomial(coeffs)
            x = np.sort(rng.uniform(0.0, 5.0, size=6))
            x[0], x[-1] = 0.0, 5.0
            model = fit_interpolating_spline(x, q(x), Boundary.NOT_A_KNOT)
            for u in rng.uniform(0.0, 5.0, size=50):
                assert model(float(u)) == pytest.approx(q(u), abs=1e-9)

    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    def test_all_boundaries_reproduce_compatible_lines(self, boundary):
        # a line is reproduced when it satisfies the boundary condition;
        # zero end slopes (clamped) only admit the constant line
        x = np.linspace(-1.0, 3.0, 7)
        slope = 0.0 if boundary is Boundary.CLAMPED else 2.5
        F = slope * x - 0.75
        model = fit_interpolating_spline(x, F, boundary)
        for u in np.linspace(-1.0, 3.0, 41):
            assert model(float(u)) == pytest.approx(slope * u - 0.75, abs=1e-10)

    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    def test_interpolates_at_knots(self, boundary):
        x, F, model = sample_model(boundary=boundary, seed=5)
        for xi, fi in zip(x, F):
            assert model(float(xi)) == pytest.approx(fi, abs=1e-10)

    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    def test_c2_continuity_at_interior_knots(self, boundary):
        x, F, model = sample_model(boundary=boundary, seed=6)
        scale_value = max(1.0, np.max(np.abs(F)))
        scale_d1 = max(1.0, np.max(np.abs(model.coefficients[:, 1])))
        scale_d2 = max(1.0, 2.0 * np.max(np.abs(model.coefficients[:, 2])))
        for i in range(len(x) - 2):
            value, d1, d2 = segment_end_state(model, i)
            c0, c1, c2, _ = model.coefficients[i + 1]
            assert abs(value - c0) <= 1e-9 * scale_value
            assert abs(d1 - c1) <= 1e-9 * scale_d1
            assert abs(d2 - 2.0 * c2) <= 1e-9 * scale_d2

    def test_clamped_end_slopes_are_zero(self):
        x, _, model = sample_model(boundary=Boundary.CLAMPED, seed=7)
        assert abs(model.derivative(float(x[0]))) <= 1e-12
        assert abs(model.derivative(float(x[-1]))) <= 1e-12

    def test_natural_end_curvatures_are_zero(self):
        x, _, model = sample_model(boundary=Boundary.NATURAL, seed=8)
        scale = max(1.0, np.max(np.abs(model.derivative(model.knots, 2))))
        assert abs(model.derivative(float(x[0]), 2)) <= 1e-9 * scale
        assert abs(model.derivative(float(x[-1]), 2)) <= 1e-9 * scale

    def test_not_a_knot_merges_end_segments(self):
        _, _, model = sample_model(boundary=Boundary.NOT_A_KNOT, seed=9)
        c3 = model.coefficients[:, 3]
        scale = max(1.0, np.max(np.abs(c3)))
        assert abs(c3[0] - c3[1]) <= 1e-9 * scale
        assert abs(c3[-1] - c3[-2]) <= 1e-9 * scale

    def test_boundary_accepts_strings(self):
        model = fit_interpolating_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], "natural")
        assert model.boundary is Boundary.NATURAL

    def test_too_few_points(self):
        with pytest.raises(DataError, match="at least 2"):
            fit_interpolating_spline([0.0], [1.0], Boundary.NATURAL)
        with pytest.raises(DataError, match="not-a-knot"):
            fit_interpolating_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], Boundary.NOT_A_KNOT)

    def test_not_a_knot_names_its_minimum(self):
        message = r"^not-a-knot needs at least 4 knots \(3 bins\), got 3$"
        with pytest.raises(DataError, match=message):
            fit_interpolating_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], Boundary.NOT_A_KNOT)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ordinates(self, bad):
        with pytest.raises(DataError, match="x and F must be finite"):
            fit_interpolating_spline([0.0, 1.0, 2.0], [0.0, bad, 1.0], Boundary.NATURAL)

    def test_complex_ordinates_are_a_data_error(self):
        # a cast to float would fit the real parts and only warn
        with pytest.raises(DataError, match="not complex"):
            fit_interpolating_spline([0, 1, 2], np.array([0, 0.5 + 1j, 1]), "natural")

    def test_unknown_boundary_is_a_data_error(self):
        message = "^unknown boundary condition 'bogus'$"
        with pytest.raises(DataError, match=message):
            Boundary("bogus")
        with pytest.raises(DataError, match=message):
            fit_interpolating_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], "bogus")
        with pytest.raises(DataError, match=message):
            CubicSplineModel(knots=np.array([0.0, 1.0]), coefficients=np.zeros((1, 4)),
                             boundary="bogus")

    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    def test_boundary_prints_as_its_name(self, boundary):
        # str() and format() give the name the CLI's --bc and summary use
        assert str(boundary) == format(boundary) == f"{boundary}" == boundary.value

    @pytest.mark.parametrize("seed", range(8))
    def test_natural_end_moments_are_exact_positive_zeros(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.1, 2.0, size=int(rng.integers(1, 12)))
        slopes = rng.normal(size=h.size)
        moments = spline._solve_moments(h, slopes, Boundary.NATURAL)
        assert moments.size == h.size + 1
        assert not np.signbit(moments[[0, -1]]).any() and not moments[[0, -1]].any()

    def test_non_monotone_knots(self):
        with pytest.raises(DataError, match="increasing"):
            fit_interpolating_spline([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], Boundary.NATURAL)
        with pytest.raises(DataError, match="increasing"):
            fit_interpolating_spline([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], Boundary.NATURAL)
        with pytest.raises(DataError, match="overflows the float range"):
            fit_interpolating_spline([-1e308, 1e308], [0.0, 1.0], Boundary.NATURAL)
        with pytest.raises(DataError, match="^x span .+ overflows the float range"):
            fit_interpolating_spline([-1e308, 0.0, 1e308], [0.0, 0.5, 1.0], Boundary.NATURAL)

    def test_mismatched_lengths(self):
        with pytest.raises(DataError, match="equal length"):
            fit_interpolating_spline([0.0, 1.0, 2.0], [0.0, 1.0], Boundary.NATURAL)

    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    @pytest.mark.parametrize(("x", "F"), [
        # differences of F overflow, so no moment is finite
        ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1e308, -1e308, 1e308, 0.0]),
        # moments near 1e300 are finite, but c3 = dM / (6 h) is not
        ([0.0, 1e-10, 2e-10, 3e-10, 4e-10], [0.0, 1e280, 0.0, 1e280, 0.0]),
    ])
    def test_overflow_is_a_numeric_error(self, boundary, x, F):
        with pytest.raises(NumericError, match="not finite"):
            fit_interpolating_spline(x, F, boundary)


SCIPY_BC = {
    Boundary.CLAMPED: "clamped",
    Boundary.NATURAL: "natural",
    Boundary.NOT_A_KNOT: "not-a-knot",
}

ORACLE_CASES = [
    (boundary, m)
    for m in (2, 3, 4, 5, 80, 3001)
    for boundary in ALL_BOUNDARIES
    if not (boundary is Boundary.NOT_A_KNOT and m < 4)
]


@pytest.mark.parametrize(("boundary", "m"), ORACLE_CASES)
def test_coefficients_match_scipy_cubic_spline(boundary, m):
    """scipy's banded-solver CubicSpline is an independent oracle for the
    moment solve on non-uniform knots, down to the smallest sizes."""
    rng = np.random.default_rng(1000 + m)
    x = np.cumsum(rng.uniform(0.05, 2.0, size=m))
    F = np.cumsum(rng.uniform(0.0, 1.0, size=m)) + np.sin(x)
    got = fit_interpolating_spline(x, F, boundary).coefficients
    want = CubicSpline(x, F, bc_type=SCIPY_BC[boundary]).c[::-1].T  # power 0..3 per row
    # each column relative to its own size, floored by the data's scale
    # in that column's units so an exactly-zero column compares sensibly
    floor = np.max(np.abs(F)) / (x[-1] - x[0]) ** np.arange(4)
    scale = np.maximum(np.max(np.abs(want), axis=0), floor)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def generator_sweep_solve(sub, diag, sup, rhs):
    """The earlier Thomas solve, generators drained by ``np.fromiter``: the
    reference for the plain loop, which must do the same operations in the
    same order."""
    def floats(arr):
        return memoryview(np.ascontiguousarray(arr, dtype=float))

    def forward_sweep(sub, diag, sup, rhs):
        d, r = diag[0], rhs[0]
        yield d
        yield r
        for a, b, c, v in zip(sub, diag[1:], sup, rhs[1:]):
            w = a / d
            d = b - w * c
            r = v - w * r
            yield d
            yield r

    def back_substitution(sup, pivots, reduced):
        y = reduced[0] / pivots[0]
        yield y
        for c, d, r in zip(sup, pivots[1:], reduced[1:]):
            y = (r - c * y) / d
            yield y

    n = diag.size
    if n == 0:
        return np.zeros(0)
    swept = np.fromiter(forward_sweep(*map(floats, (sub, diag, sup, rhs))), float, count=2 * n)
    pivots, reduced = swept[0::2], swept[1::2]
    back = back_substitution(*map(floats, (sup[::-1], pivots[::-1], reduced[::-1])))
    return np.fromiter(back, float, count=n)[::-1]


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize(("boundary", "m"), ORACLE_CASES)
def test_thomas_loop_matches_generator_sweep(monkeypatch, boundary, m, scale):
    rng = np.random.default_rng(2000 + m)
    x = np.cumsum(rng.uniform(0.05, 2.0, size=m))
    F = scale * (np.cumsum(rng.uniform(0.0, 1.0, size=m)) + np.sin(x))
    h = np.diff(x)
    slopes = np.diff(F) / h
    moments = spline._solve_moments(h, slopes, boundary)
    model = fit_interpolating_spline(x, F, boundary)
    monkeypatch.setattr(spline, "_solve_tridiagonal", generator_sweep_solve)
    reference = fit_interpolating_spline(x, F, boundary)
    assert moments.tobytes() == spline._solve_moments(h, slopes, boundary).tobytes()
    assert model.coefficients.tobytes() == reference.coefficients.tobytes()


def test_fit_memory_is_linear_in_knots():
    # a dense m x m moment matrix would need 8 * m**2 bytes, 800 MB here
    m = 10_001
    x = np.linspace(0.0, 1.0, m)
    F = x**2
    tracemalloc.start()
    try:
        fit_interpolating_spline(x, F, Boundary.NOT_A_KNOT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


class TestModelEvaluation:
    def test_exact_at_knots(self):
        x, F, model = sample_model(seed=10)
        values = model(x)
        assert values == pytest.approx(F, abs=1e-12)
        # interior knots evaluate from the stored intercepts, bit for bit
        assert np.array_equal(values[:-1], model.coefficients[:, 0])

    def test_matches_explicit_power_basis(self):
        _, _, model = sample_model(seed=11)
        rng = np.random.default_rng(12)
        lo, hi = model.support
        for u in rng.uniform(lo, hi, size=50):
            i = int(np.searchsorted(model.knots, u, side="right")) - 1
            i = min(max(i, 0), len(model.knots) - 2)
            s = u - model.knots[i]
            c0, c1, c2, c3 = model.coefficients[i]
            direct = c0 + c1 * s + c2 * s**2 + c3 * s**3
            assert model(float(u)) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_derivative_matches_central_differences(self):
        _, _, model = sample_model(seed=13)
        lo, hi = model.support
        rng = np.random.default_rng(14)
        step = 1e-5
        for u in rng.uniform(lo + 0.01, hi - 0.01, size=100):
            fd = (model(float(u + step)) - model(float(u - step))) / (2.0 * step)
            assert model.derivative(float(u)) == pytest.approx(fd, abs=1e-6)

    def test_linear_model_has_constant_slope(self):
        model = fit_interpolating_spline([0.0, 1.0, 2.0], [0.0, 0.5, 1.0], Boundary.NATURAL)
        for u in np.linspace(0.0, 2.0, 21):
            assert model.derivative(float(u)) == pytest.approx(0.5, abs=1e-12)

    def test_vectorized_evaluation(self):
        _, _, model = sample_model(seed=15)
        lo, hi = model.support
        grid = np.linspace(lo, hi, 100)
        vec = model(grid)
        assert vec.shape == (100,)
        assert vec[17] == model(float(grid[17]))

    def test_out_of_support(self):
        _, _, model = sample_model(seed=16)
        lo, hi = model.support
        with pytest.raises(OutOfSupportError):
            model(lo - 1e-9)
        with pytest.raises(OutOfSupportError):
            model.derivative(hi + 1e-9)
        with pytest.raises(OutOfSupportError):
            model(np.array([lo, hi + 1.0]))

    @pytest.mark.parametrize("u", [np.array([0.5 + 3j]), 0.5 + 0j, [0.5, 1.0 + 0j]],
                             ids=["array", "scalar", "list"])
    @pytest.mark.parametrize("evaluate", [
        lambda model, u: model(u),
        lambda model, u: model.derivative(u),
    ], ids=["value", "derivative"])
    def test_complex_evaluation_points_are_a_data_error(self, evaluate, u):
        # a cast to float would evaluate the real parts and only warn
        model = fit_interpolating_spline([0, 1, 2], [0, 0.5, 1], "natural")
        with pytest.raises(DataError,
                           match="^evaluation points must be real numbers, not complex$"):
            evaluate(model, u)

    def test_bad_derivative_order(self):
        _, _, model = sample_model(seed=17)
        with pytest.raises(DataError, match="order"):
            model.derivative(model.knots[0], order=4)

    def test_third_derivative_is_six_times_the_cubic_coefficient(self):
        _, _, model = sample_model(seed=18)
        mids = 0.5 * (model.knots[:-1] + model.knots[1:])
        expected = 6.0 * model.coefficients[:, 3]
        assert np.array_equal(model.derivative(mids, 3), expected)
        assert model.derivative(float(mids[0]), 3) == expected[0]

    @pytest.mark.parametrize("knots, coefficients, message", [
        ([0.0], np.zeros((0, 4)), "knots must be a 1-d array of at least 2 values"),
        ([0.0, 1.0, 1.0], np.zeros((2, 4)), "knots must be strictly increasing"),
        ([0.0, 1.0, 2.0], np.zeros((2, 3)), r"coefficients must have shape \(2, 4\)"),
        ([0.0, 1.0], [[0.0, np.nan, 0.0, 0.0]], "coefficients must be finite"),
        ([-1e308, 1e308], np.zeros((1, 4)), "knots span .+ overflows the float range"),
        ([-1e308, 0.0, 1e308], np.zeros((2, 4)), "knots span .+ overflows the float range"),
    ])
    def test_malformed_model_rejected(self, knots, coefficients, message):
        with pytest.raises(DataError, match=message):
            CubicSplineModel(knots=np.array(knots), coefficients=np.array(coefficients),
                             boundary=Boundary.NATURAL)


def basis_second_derivative(i, p, tau, u):
    # derivative recursion applied once more; valid for p >= 2
    total = 0.0
    den1 = tau[i + p] - tau[i]
    if den1 > 0.0:
        total += p / den1 * bspline_basis_derivative(i, p - 1, tau, u)
    den2 = tau[i + p + 1] - tau[i + 1]
    if den2 > 0.0:
        total -= p / den2 * bspline_basis_derivative(i + 1, p - 1, tau, u)
    return total


@pytest.mark.parametrize("boundary", [Boundary.CLAMPED, Boundary.NATURAL])
def test_segment_form_equals_bspline_curve(boundary):
    """The fitted piecewise cubic equals the same interpolant built from
    basis functions and de Boor control points."""
    x = np.linspace(0.0, 7.0, 8)
    F = np.cos(x) + 0.2 * x
    model = fit_interpolating_spline(x, F, boundary)

    m = x.size
    tau = np.concatenate([[x[0]] * 3, x, [x[-1]] * 3])
    n_basis = tau.size - 4  # degree 3
    assert n_basis == m + 2

    system = np.zeros((m + 2, m + 2))
    rhs = np.zeros(m + 2)
    for r, xi in enumerate(x):
        for j in range(n_basis):
            system[r, j] = bspline_basis(j, 3, tau, float(xi))
        rhs[r] = F[r]
    for j in range(n_basis):
        if boundary is Boundary.CLAMPED:
            system[m, j] = bspline_basis_derivative(j, 3, tau, float(x[0]))
            system[m + 1, j] = bspline_basis_derivative(j, 3, tau, float(x[-1]))
        else:
            system[m, j] = basis_second_derivative(j, 3, tau, float(x[0]))
            system[m + 1, j] = basis_second_derivative(j, 3, tau, float(x[-1]))
    control = np.linalg.solve(system, rhs)

    rng = np.random.default_rng(18)
    scale = np.max(np.abs(F))
    for u in np.concatenate([rng.uniform(0.0, 7.0, size=40), x]):
        curve = sum(control[j] * bspline_basis(j, 3, tau, float(u)) for j in range(n_basis))
        assert model(float(u)) == pytest.approx(curve, abs=1e-9 * scale)
