"""Tests of the benchmark's own logic: the tail rule, span self times and
the failure accounting of corrupted outputs."""

import numpy as np
import pytest

from checks import Tally, check_cli_summary, check_estimate, cumulative_oracle, knuth_oracle
from measure import Span, SpanRecorder, percentile, self_times, tail_percentile


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1, 100), 90) == 90
    assert tail_percentile(list(range(1, 100)), 90) is None  # 9 samples beyond
    assert tail_percentile(list(range(1, 101)), 90) == 90  # 10 samples beyond
    assert tail_percentile([5.0] * 200, 90) is None  # ties are not beyond
    assert tail_percentile([], 50) is None


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 7.0, 0, 0),
        Span("other-request", 20.0, 21.0, None, 1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, None, 0), Span("x", 1.0, 5.0, 0, 0), Span("y", 3.0, 6.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_recorder_links_parents_and_requests():
    recorder = SpanRecorder()

    def leaf(x):
        return x + 1

    wrapped_leaf = recorder.wrap(leaf, "leaf", attrs=lambda r: {"result": r})

    def outer(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    wrapped_outer = recorder.wrap(outer, "outer")
    recorder.request = 7
    assert wrapped_outer(1) == 4
    names = [s.name for s in recorder.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert [s.parent for s in recorder.spans] == [None, 0, 0]
    assert {s.request for s in recorder.spans} == {7}
    assert recorder.spans[1].attrs == {"result": 2}
    assert recorder.open_span is None
    selfs = self_times(recorder.spans)
    assert selfs[0] <= recorder.spans[0].duration
    assert sum(selfs) == pytest.approx(recorder.spans[0].duration)


GOOD_SUMMARY = {"normalization_analytic": 1.0, "bin_count": 79, "turning_points": 55,
                "sample_count": 868771}
ORACLE = {"bin_count": 79, "turning_points": 55, "sample_count": 868771}


@pytest.mark.parametrize("corruption", [
    {"normalization_analytic": 0.9999999999999999},
    {"bin_count": 80},
    {"turning_points": 54},
    {"sample_count": 868770},
])
def test_corrupted_summary_counts_as_failure(corruption):
    tally = Tally()
    assert tally.record(check_cli_summary(GOOD_SUMMARY, ORACLE))
    assert not tally.record(check_cli_summary({**GOOD_SUMMARY, **corruption}, ORACLE))
    assert (tally.attempted, tally.failed, tally.failed_ratio) == (2, 1, 0.5)
    assert len(tally.reasons) == 1


def test_library_estimate_checks_against_independent_oracles():
    import histospline as hs

    values = np.random.default_rng(3).normal(size=5000)
    bins = knuth_oracle(values)
    F = cumulative_oracle(values, bins)
    for boundary in ("clamped", "natural", "not-a-knot"):
        est = hs.estimate_pdf(hs.Samples(values), hs.BinRule.knuth(), boundary)
        density = est(np.linspace(*est.support, 1001))
        tp = hs.count_turning_points(est, 1001)
        assert check_estimate(est, density, est.min_density(), tp, bins, F) == []
        assert check_estimate(est, density, est.min_density(), tp, bins + 1, F)
        assert check_estimate(est, density, est.min_density(), tp + 1, bins, F)
        assert check_estimate(est, density, est.min_density() + 1e-3, tp, bins, F)
        shifted = F.copy()
        shifted[1:-1] += 1e-9
        assert check_estimate(est, density, est.min_density(), tp, bins, shifted)
