"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion at its stated tolerance.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from histospline import (
    BinRule,
    Boundary,
    Samples,
    bspline_basis,
    bspline_basis_derivative,
    cumulative_masses,
    estimate_pdf,
    fit_interpolating_spline,
    flatten_positions,
    generate_corpus,
    kl_divergence,
    knuth_log_posterior,
    quadrature_normalization,
    select_bin_count,
)
from histospline.cli import main as cli_main
from histospline.estimator import count_turning_points

ALL_BOUNDARIES = (Boundary.CLAMPED, Boundary.NATURAL, Boundary.NOT_A_KNOT)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def seeded_dataset(index, size=2000):
    rng = np.random.default_rng(1000 + index)
    kind = index % 4
    if kind == 0:
        return rng.normal(loc=5.0, scale=2.0, size=size)
    if kind == 1:
        return rng.uniform(-3.0, 7.0, size=size)
    if kind == 2:
        return rng.exponential(scale=1.5, size=size)
    return np.concatenate([
        rng.normal(-2.0, 0.7, size=size // 2),
        rng.normal(3.0, 1.1, size=size - size // 2),
    ])


def bin_quadrature_residual(est):
    """Largest |bin integral - bin mass|; two-point Gauss per bin is exact
    for the piecewise-quadratic density."""
    x = est.histogram.edges
    h = np.diff(x)
    mid = 0.5 * (x[:-1] + x[1:])
    off = h / (2.0 * np.sqrt(3.0))
    masses = np.diff(cumulative_masses(est.histogram))
    integrals = (h / 2.0) * (est(mid - off) + est(mid + off))
    return float(np.max(np.abs(integrals - masses)))


@pytest.fixture(scope="module")
def braking_corpus():
    return generate_corpus(1000, seed=42)


def test_criterion_1_bin_mean_value_identity():
    start = time.perf_counter()
    worst = 0.0
    for index in range(50):
        samples = Samples(seeded_dataset(index))
        for boundary in ALL_BOUNDARIES:
            est = estimate_pdf(samples, BinRule.sqrt(), boundary)
            worst = max(worst, bin_quadrature_residual(est))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(1, ok, f"max residual {worst:.3e} over 150 estimates, {elapsed:.2f}s")


def test_criterion_2_normalization():
    worst_simpson = 0.0
    exact = True
    for index in range(12):
        samples = Samples(seeded_dataset(index, size=4000))
        for boundary in ALL_BOUNDARIES:
            est = estimate_pdf(samples, BinRule.sturges(), boundary)
            exact = exact and est.normalization() == 1.0
            worst_simpson = max(worst_simpson, abs(quadrature_normalization(est) - 1.0))
    ok = exact and worst_simpson <= 1e-6
    report(2, ok, f"analytic exact: {exact}, worst Simpson deviation {worst_simpson:.3e}")


def test_criterion_3_boundary_contracts():
    worst_clamped = worst_natural = worst_nak = 0.0
    for index in range(10):
        samples = Samples(seeded_dataset(index, size=3000))

        clamped = estimate_pdf(samples, BinRule.sqrt(), Boundary.CLAMPED)
        lo, hi = clamped.support
        worst_clamped = max(worst_clamped, abs(clamped(lo)), abs(clamped(hi)))

        natural = estimate_pdf(samples, BinRule.sqrt(), Boundary.NATURAL)
        lo, hi = natural.support
        spline = natural.spline
        scale = max(1.0, float(np.max(np.abs(spline.derivative(spline.knots, 2)))))
        worst_natural = max(
            worst_natural,
            abs(spline.derivative(lo, 2)) / scale,
            abs(spline.derivative(hi, 2)) / scale,
        )

        nak = estimate_pdf(samples, BinRule.sqrt(), Boundary.NOT_A_KNOT)
        c3 = nak.spline.coefficients[:, 3]
        scale = max(1.0, float(np.max(np.abs(c3))))
        worst_nak = max(worst_nak, abs(c3[0] - c3[1]) / scale, abs(c3[-1] - c3[-2]) / scale)

    ok = worst_clamped <= 1e-12 and worst_natural <= 1e-9 and worst_nak <= 1e-9
    report(3, ok, (
        f"clamped ends {worst_clamped:.2e}, natural curvature {worst_natural:.2e}, "
        f"not-a-knot jump {worst_nak:.2e} (scaled)"
    ))


def test_criterion_4_basis_correctness():
    start = time.perf_counter()
    vectors = (
        np.arange(10.0),
        np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.5, 4.0, 5.0, 5.0, 5.0, 5.0]),
        np.array([0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
    )
    p = 3
    rng = np.random.default_rng(2)
    worst_pou = 0.0
    support_exact = True
    for tau in vectors:
        lo, hi = tau[p], tau[len(tau) - p - 1]
        indices = range(len(tau) - p - 1)
        for u in np.concatenate([rng.uniform(lo, hi, size=1000), [lo, hi]]):
            total = sum(bspline_basis(i, p, tau, float(u)) for i in indices)
            worst_pou = max(worst_pou, abs(total - 1.0))
        for i in indices:
            for u in (tau[i] - 0.5, tau[i + p + 1] + 0.5, tau[0] - 3.0, tau[-1] + 3.0):
                support_exact = support_exact and bspline_basis(i, p, tau, float(u)) == 0.0

    tau = np.arange(12.0)
    step = 1e-5
    worst_fd = 0.0
    for u in rng.uniform(tau[p] + 0.01, tau[len(tau) - p - 1] - 0.01, size=100):
        for i in range(len(tau) - p - 1):
            fd = (
                bspline_basis(i, p, tau, float(u + step))
                - bspline_basis(i, p, tau, float(u - step))
            ) / (2.0 * step)
            worst_fd = max(worst_fd, abs(bspline_basis_derivative(i, p, tau, float(u)) - fd))
    elapsed = time.perf_counter() - start
    ok = worst_pou <= 1e-12 and support_exact and worst_fd <= 1e-6 and elapsed < 5.0
    report(4, ok, (
        f"partition of unity {worst_pou:.2e}, support exact: {support_exact}, "
        f"derivative vs differences {worst_fd:.2e}, {elapsed:.2f}s"
    ))


def test_criterion_5_spline_oracles():
    rng = np.random.default_rng(3)
    worst_cubic = 0.0
    for _ in range(5):
        coeffs = rng.uniform(-2.0, 2.0, size=4)
        q = np.polynomial.Polynomial(coeffs)
        x = np.sort(rng.uniform(0.0, 5.0, size=6))
        x[0], x[-1] = 0.0, 5.0
        model = fit_interpolating_spline(x, q(x), Boundary.NOT_A_KNOT)
        for u in rng.uniform(0.0, 5.0, size=50):
            worst_cubic = max(worst_cubic, abs(model(float(u)) - q(u)))

    worst_line = 0.0
    x = np.linspace(-1.0, 3.0, 7)
    for boundary in ALL_BOUNDARIES:
        # a line is reproduced when it satisfies the end condition;
        # clamped (zero end slopes) admits only the constant line
        slope = 0.0 if boundary is Boundary.CLAMPED else 2.5
        model = fit_interpolating_spline(x, slope * x - 0.75, boundary)
        for u in np.linspace(-1.0, 3.0, 41):
            worst_line = max(worst_line, abs(model(float(u)) - (slope * u - 0.75)))

    ok = worst_cubic <= 1e-9 and worst_line <= 1e-10
    report(5, ok, f"cubic reproduction {worst_cubic:.2e}, line reproduction {worst_line:.2e}")


def test_criterion_6_knuth_rule_oracle_equivalence():
    def oracle_argmax(values, search_max):
        best_b, best_lp = 1, -math.inf
        for b in range(1, search_max + 1):
            counts, _ = np.histogram(values, bins=np.linspace(values.min(), values.max(), b + 1))
            lp = (
                values.size * math.log(b)
                + math.lgamma(b / 2.0)
                - b * math.lgamma(0.5)
                - math.lgamma(values.size + b / 2.0)
                + sum(math.lgamma(c + 0.5) for c in counts.tolist())
            )
            if lp > best_lp:
                best_b, best_lp = b, lp
        return best_b

    start = time.perf_counter()
    agreements = []
    for index in range(10):
        rng = np.random.default_rng(7000 + index)
        kind = index % 3
        if kind == 0:
            values = rng.normal(size=10_000)
        elif kind == 1:
            values = rng.uniform(-1.0, 1.0, size=10_000)
        else:
            values = np.concatenate([
                rng.normal(-2.0, 0.5, size=5000),
                rng.normal(2.0, 0.8, size=5000),
            ])
        selected = select_bin_count(Samples(values), BinRule.knuth(200))
        agreements.append(selected == oracle_argmax(values, 200))
    zero_at_one = knuth_log_posterior([10_000], 10_000) == 0.0
    elapsed = time.perf_counter() - start
    ok = all(agreements) and zero_at_one and elapsed < 30.0
    report(6, ok, (
        f"argmax agreement {sum(agreements)}/10, logP(B=1) == 0: {zero_at_one}, {elapsed:.2f}s"
    ))


def test_criterion_7_corpus_property():
    start = time.perf_counter()
    corpus = generate_corpus(1000, seed=42)
    min_end = min(float(ts.x[-1]) for ts in corpus)
    starts_ok = all(ts.x[0] == 0.0 for ts in corpus)
    monotone = all(np.all(np.diff(ts.x) >= 0.0) for ts in corpus)
    elapsed = time.perf_counter() - start
    ok = len(corpus) == 1000 and min_end > 65.0 and starts_ok and monotone and elapsed < 5.0
    report(7, ok, (
        f"1000 series, min x_end {min_end:.1f} m > 65 m, starts at 0: {starts_ok}, "
        f"monotone: {monotone}, {elapsed:.2f}s"
    ))


def test_criterion_8_oscillation_ordering(braking_corpus):
    samples = Samples(flatten_positions(braking_corpus))
    natural = count_turning_points(estimate_pdf(samples, BinRule.knuth(), Boundary.NATURAL))
    nak = count_turning_points(estimate_pdf(samples, BinRule.knuth(), Boundary.NOT_A_KNOT))
    pinned = (natural, nak) == (57, 55)  # regression pin, seed 42 corpus
    ok = natural >= nak and pinned
    report(8, ok, f"turning points natural {natural} >= not-a-knot {nak}, pinned: {pinned}")


def test_criterion_9_density_recovery():
    draws = np.random.default_rng(2024).normal(size=100_000)
    est = estimate_pdf(Samples(draws), BinRule.knuth(), Boundary.NOT_A_KNOT)
    grid = np.linspace(*est.support, 1001)
    p = np.maximum(norm.pdf(grid), 1e-12)
    q = np.maximum(est(grid), 1e-12)
    kl_truth = float(np.trapezoid(p * np.log(p / q), grid))
    self_kl = kl_divergence(est, est, grid_size=1001)
    ok = 0.0 <= kl_truth <= 0.01 and abs(self_kl) <= 1e-12
    report(9, ok, f"KL(truth||estimate) {kl_truth:.2e} <= 1e-2, KL(p||p) {self_kl:.2e}")


def test_criterion_10_cli_round_trip_determinism(tmp_path, monkeypatch):
    # identical config (same seed, same relative paths) in two fresh roots
    artifacts = ("histogram.csv", "curve.csv", "summary.jsonl")
    roots = []
    for run in ("first", "second"):
        root = tmp_path / run
        root.mkdir()
        monkeypatch.chdir(root)
        assert cli_main([
            "generate", "--count", "100", "--seed", "42", "--out-dir", "gen"
        ]) == 0
        assert cli_main([
            "estimate", "--input", "gen/corpus.csv", "--column", "x",
            "--rule", "knuth", "--bc", "not-a-knot", "--out-dir", "est",
        ]) == 0
        roots.append(root)

    corpus_identical = (roots[0] / "gen" / "corpus.csv").read_bytes() == (
        roots[1] / "gen" / "corpus.csv"
    ).read_bytes()
    artifacts_identical = all(
        (roots[0] / "est" / name).read_bytes() == (roots[1] / "est" / name).read_bytes()
        for name in artifacts
    )
    ok = corpus_identical and artifacts_identical
    report(10, ok, (
        f"corpus byte-identical: {corpus_identical}, "
        f"estimate artifacts byte-identical: {artifacts_identical}"
    ))
