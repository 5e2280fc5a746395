"""Tests for the emergency-braking time-series generator."""

import math
from typing import NamedTuple

import numpy as np
import pytest

import histospline.datagen as datagen
from histospline import (
    DEFAULT_RANGES,
    DataError,
    Samples,
    ScenarioRanges,
    TimeSeries,
    flatten_positions,
    generate_corpus,
)
from histospline.datagen import MAX_CORPUS_SAMPLES, check_corpus_size


class Scenario(NamedTuple):
    """One braking maneuver: initial speed (m/s), driver reaction time (s),
    constant deceleration magnitude (m/s^2), and sample interval (s)."""

    v0: float
    t_react: float
    decel: float
    dt: float

    @property
    def stop_time(self) -> float:
        return self.t_react + self.v0 / self.decel


def simulate(scenario):
    """The one series of ``scenario``: a corpus of one over one-point ranges,
    since ``uniform(a, a)`` returns ``a``."""
    v0, t_react, decel, dt = scenario
    ranges = ScenarioRanges(v0=(v0, v0), t_react=(t_react, t_react), decel=(decel, decel), dt=dt)
    (series,) = generate_corpus(1, ranges)
    return series


class TestSimulateBraking:
    def test_final_position_is_the_stopping_distance(self):
        scenario = Scenario(v0=10.0, t_react=0.0, decel=5.0, dt=0.01)
        series = simulate(scenario)
        assert series.x[-1] == pytest.approx(10.0, abs=scenario.dt * scenario.v0)
        assert series.x[0] == 0.0

    def test_sampling_grid(self):
        scenario = Scenario(v0=12.0, t_react=0.7, decel=4.0, dt=0.05)
        series = simulate(scenario)
        assert np.allclose(np.diff(series.t), 0.05, atol=1e-12)
        # series runs through the stop and not beyond the next sample
        assert series.t[-1] >= scenario.stop_time
        assert series.t[-2] < scenario.stop_time

    def test_positions_monotone(self):
        scenario = Scenario(v0=33.0, t_react=1.4, decel=3.7, dt=0.01)
        series = simulate(scenario)
        assert np.all(np.diff(series.x) >= 0.0)

    def test_reaction_phase_is_linear(self):
        scenario = Scenario(v0=10.0, t_react=1.0, decel=5.0, dt=0.1)
        series = simulate(scenario)
        in_reaction = series.t <= scenario.t_react
        assert np.array_equal(series.x[in_reaction], 10.0 * series.t[in_reaction])

    def test_matches_euler_integration(self):
        # independent oracle: explicit Euler at a fine step
        scenario = Scenario(v0=20.0, t_react=1.0, decel=8.0, dt=0.25)
        series = simulate(scenario)
        dt = 1e-4
        t_grid = np.arange(0.0, scenario.stop_time + dt, dt)
        v = np.where(
            t_grid < scenario.t_react,
            scenario.v0,
            np.maximum(scenario.v0 - scenario.decel * (t_grid - scenario.t_react), 0.0),
        )
        x_euler = np.concatenate([[0.0], np.cumsum(v[:-1]) * dt])
        for tk, xk in zip(series.t, series.x):
            j = min(int(round(tk / dt)), len(t_grid) - 1)
            assert xk == pytest.approx(x_euler[j], abs=1e-2)

    def test_short_stop_still_has_two_samples(self):
        scenario = Scenario(v0=0.5, t_react=0.0, decel=50.0, dt=0.5)
        series = simulate(scenario)
        assert len(series) >= 2

    def test_last_braking_sample_is_not_above_the_stopping_distance(self):
        # series 632 of the default-range corpus of seed 9302: its last
        # sample before the stop computes 201.1948693177767, an ulp above
        # the rest samples' 201.19486931777666
        scenario = Scenario(v0=34.606581759766804, t_react=1.4575493421971235,
                            decel=3.972083507680601, dt=0.01)
        _, unclamped = per_series_braking(scenario)
        assert unclamped[-2] == 201.1948693177767 > unclamped[-1] == 201.19486931777666
        series = simulate(scenario)
        assert np.all(np.diff(series.x) >= 0.0)
        assert series.x[-2] == series.x[-1] == 201.19486931777666
        assert np.array_equal(series.x[:-2], unclamped[:-2])

    def test_default_range_corpus_of_seed_95(self):
        # one of the seeds 95, 172 and 224 of 0..299 whose default corpus
        # held a sample an ulp above its series' rest position
        corpus = generate_corpus(1000, seed=95)
        assert all(np.all(np.diff(series.x) >= 0.0) for series in corpus)


class TestTimeSeriesValidation:
    def test_rejects_nonzero_start(self):
        with pytest.raises(DataError, match="start at 0"):
            TimeSeries(t=np.array([0.0, 1.0]), x=np.array([1.0, 2.0]))

    def test_rejects_reversing_positions(self):
        with pytest.raises(DataError, match="non-decreasing"):
            TimeSeries(t=np.array([0.0, 1.0, 2.0]), x=np.array([0.0, 2.0, 1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError):
            TimeSeries(t=np.array([0.0, 1.0, 2.0]), x=np.array([0.0, 1.0]))

    def test_valid_series_is_a_read_only_copy(self):
        t, x = [0.0, 0.5, 1.0], [0.0, 2.0, 2.0]
        series = TimeSeries(t=t, x=x)
        assert series.t.tolist() == t and series.x.tolist() == x
        assert len(series) == 3
        for arr in (series.t, series.x):
            with pytest.raises(ValueError):
                arr[0] = 9.0

    @pytest.mark.parametrize("t, x, message", [
        ([0.0, 1.0, 2.0], [0.0, np.inf, np.inf], "finite"),
        ([0.0, np.nan, 2.0], [0.0, 1.0, 2.0], "finite"),
        ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], "sample times must be non-decreasing"),
        ([0.0, np.inf], [0.0, 1.0], "sample times must be finite"),
        ([-1e308, 1e308], [0.0, 1.0], "sample times span .* overflows the float range"),
        # generated traces beyond the float range (x = None): the scenario is
        # simulated, and its overflow is this error, not a RuntimeWarning
        (Scenario(v0=1e200, t_react=1.0, decel=1e-100, dt=1e293), None,
         "time series must be finite"),
        (Scenario(v0=1e300, t_react=1e300, decel=1.0, dt=1e299), None,
         "time series must be finite"),
        (Scenario(v0=1.5e308, t_react=0.0, decel=1.0, dt=1e308), None,
         "sample times must be finite"),
    ])
    def test_rejects_bad_traces(self, t, x, message):
        with pytest.raises(DataError, match=message):
            simulate(t) if x is None else TimeSeries(t=np.array(t), x=np.array(x))


class TestGenerateCorpus:
    def test_deterministic_under_fixed_seed(self):
        a = generate_corpus(20, seed=42)
        b = generate_corpus(20, seed=42)
        assert len(a) == len(b) == 20
        for ts_a, ts_b in zip(a, b):
            assert np.array_equal(ts_a.t, ts_b.t)
            assert np.array_equal(ts_a.x, ts_b.x)

    def test_distinct_seeds_differ(self):
        a = generate_corpus(5, seed=1)
        b = generate_corpus(5, seed=2)
        assert any(not np.array_equal(x.x, y.x) for x, y in zip(a, b))

    def test_prefix_stability(self):
        # per-index seeding: a longer corpus extends a shorter one
        short = generate_corpus(5, seed=7)
        long = generate_corpus(10, seed=7)
        for ts_s, ts_l in zip(short, long):
            assert np.array_equal(ts_s.x, ts_l.x)

    def test_degenerate_ranges_reproduce_the_scenario(self):
        ranges = ScenarioRanges(v0=(20.0, 20.0), t_react=(1.0, 1.0), decel=(8.0, 8.0), dt=0.01)
        corpus = generate_corpus(1, ranges=ranges, seed=0)
        t, x = per_series_braking(Scenario(v0=20.0, t_react=1.0, decel=8.0, dt=0.01))
        assert np.array_equal(corpus[0].x, x)
        assert np.array_equal(corpus[0].t, t)
        # at rest at the stopping distance v0 * t_react + v0**2 / (2 * decel)
        assert corpus[0].x[-1] == 45.0

    def test_default_ranges_guarantee_long_stops(self):
        # analytic floor: 25 * 0.8 + 25^2 / (2 * 4.5) = 89.4 m > 65 m
        corpus = generate_corpus(100, seed=5)
        ends = [float(ts.x[-1]) for ts in corpus]
        assert min(ends) > 65.0

    def test_invalid_inputs(self):
        with pytest.raises(DataError, match="count"):
            generate_corpus(0, seed=1)
        with pytest.raises(DataError, match="range"):
            ScenarioRanges(v0=(30.0, 20.0), t_react=(1.0, 1.0), decel=(4.0, 4.0), dt=0.01)
        with pytest.raises(DataError, match="positive"):
            ScenarioRanges(v0=(-1.0, 20.0), t_react=(1.0, 1.0), decel=(4.0, 4.0), dt=0.01)
        with pytest.raises(DataError, match="dt"):
            ScenarioRanges(v0=(20.0, 25.0), t_react=(1.0, 1.0), decel=(4.0, 4.0), dt=-0.5)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(DataError, match="seed must be (>= 0|an integer)"):
            generate_corpus(2, seed=seed)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, "2"])
    def test_count_must_be_an_integer(self, count):
        with pytest.raises(DataError, match="count must be an integer, got"):
            generate_corpus(count, seed=1)

    def test_numpy_integer_count_is_the_same_count(self):
        a, b = generate_corpus(np.int64(2), seed=3), generate_corpus(2, seed=3)
        assert len(a) == 2 and all(np.array_equal(s.x, r.x) for s, r in zip(a, b))

    def test_numpy_integer_seed_is_the_same_seed(self):
        a, b = generate_corpus(2, seed=np.int64(3)), generate_corpus(2, seed=3)
        assert all(np.array_equal(s.x, r.x) for s, r in zip(a, b))

    @pytest.mark.parametrize("ranges, message", [
        (dict(v0=(20.0, np.inf)), "v0 range must be finite"),
        (dict(decel=(np.nan, 4.0)), "decel range must be finite"),
        (dict(t_react=(-0.1, 1.0)), "t_react range must be nonnegative"),
        (dict(decel=(0.0, 4.0)), "decel range must be positive"),
        (dict(decel=(-1.0, 4.0)), "decel range must be positive"),
        (dict(dt=0.0), "dt must be positive"),
        # each field is read as a float, or rejected naming the field
        (dict(v0=(1.0, 10**400)), r"v0 range bound is beyond the float range: 1000"),
        (dict(dt=10**400), r"dt is beyond the float range: 1000"),
        (dict(t_react=(0.0, "1")), r"t_react range bound must be a real number, got '1'$"),
        (dict(decel=(True, 4.0)), r"decel range bound must be a real number, got True$"),
        (dict(dt="0.01"), r"dt must be a real number, got '0.01'$"),
        (dict(dt=np.True_), r"dt must be a real number, got np.True_$"),
        (dict(v0=None), r"v0 range must be a \(min, max\) pair, got None$"),
        (dict(v0=(20.0, 25.0, 30.0)), r"v0 range must be a \(min, max\) pair"),
    ])
    def test_bad_ranges(self, ranges, message):
        fields = dict(v0=(20.0, 25.0), t_react=(1.0, 1.0), decel=(4.0, 4.0), dt=0.01)
        with pytest.raises(DataError, match=message):
            ScenarioRanges(**{**fields, **ranges})

    @pytest.mark.parametrize("fields", [
        dict(v0=(20, 20), t_react=(1, 1), decel=(8, 8), dt=1),
        # an integer dt past int64 overflowed the sample times
        dict(v0=(20, 20), t_react=(0, 10**22), decel=(8, 8), dt=10**22),
        dict(v0=(np.int64(20), np.int64(20)), t_react=(1, 1), decel=(np.float32(8), 8), dt=1),
    ])
    def test_integer_ranges_are_the_float_ranges(self, fields):
        floats = {key: float(v) if key == "dt" else tuple(map(float, v)) for key, v in fields.items()}
        assert ScenarioRanges(**fields) == ScenarioRanges(**floats)
        (got,), (expected,) = (generate_corpus(1, ScenarioRanges(**f), seed=5) for f in (fields, floats))
        for a, b in ((got.t, expected.t), (got.x, expected.x)):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()

    def test_flatten_positions(self):
        corpus = generate_corpus(4, seed=9)
        flat = flatten_positions(corpus)
        assert flat.size == sum(len(ts) for ts in corpus)
        assert flat[0] == corpus[0].x[0]
        # read-only, so Samples holds it without a copy
        assert not flat.flags.writeable
        assert Samples(flat).values is flat
        with pytest.raises(DataError, match="empty"):
            flatten_positions([])

    def test_default_ranges_are_the_documented_ones(self):
        assert DEFAULT_RANGES.v0 == (25.0, 35.0)
        assert DEFAULT_RANGES.t_react == (0.8, 1.5)
        assert DEFAULT_RANGES.decel == (3.5, 4.5)
        assert DEFAULT_RANGES.dt == 0.01


def per_series_braking(scenario):
    """Reference: one maneuver sampled with its own arrays, as generate_corpus
    computed each series before the corpus became one vectorised pass."""
    steps = math.ceil(scenario.stop_time / scenario.dt)
    t = np.arange(steps + 1) * scenario.dt
    s = np.clip(t - scenario.t_react, 0.0, scenario.v0 / scenario.decel)
    braking = scenario.v0 * scenario.t_react + scenario.v0 * s - 0.5 * scenario.decel * s**2
    x = np.where(t <= scenario.t_react, scenario.v0 * t, braking)
    return t, x


def per_series_scenarios(count, ranges, seed):
    """Reference: one PCG64 stream per series, drawn v0, t_react, decel."""
    scenarios = []
    for index in range(count):
        rng = np.random.default_rng((seed, index))
        scenarios.append(Scenario(
            v0=rng.uniform(*ranges.v0),
            t_react=rng.uniform(*ranges.t_react),
            decel=rng.uniform(*ranges.decel),
            dt=ranges.dt,
        ))
    return scenarios


def assert_same_bits(series, t, x):
    assert np.array_equal(series.t.view(np.uint64), t.view(np.uint64))
    assert np.array_equal(series.x.view(np.uint64), x.view(np.uint64))


WIDE_RANGES = ScenarioRanges(v0=(0.5, 60.0), t_react=(0.0, 2.5), decel=(0.4, 9.5), dt=0.003)
# stop times of about 1200 s: one series is 120,001 samples, more than a block
LONG_RANGES = ScenarioRanges(v0=(59.0, 60.0), t_react=(0.5, 1.0), decel=(0.05, 0.051), dt=0.01)


class TestVectorisedCorpus:
    """generate_corpus computes all series in one blocked pass; each value
    has the bits of the per-series loop."""

    @pytest.mark.parametrize("count, ranges, seed", [
        (1000, DEFAULT_RANGES, 1),
        (1000, DEFAULT_RANGES, 7),
        (1000, DEFAULT_RANGES, 42),
        (60, WIDE_RANGES, 3),
        (3, LONG_RANGES, 11),
    ], ids=["default-1", "default-7", "default-42", "wide-dt0.003", "longer-than-a-block"])
    def test_same_bits_as_the_per_series_loop(self, count, ranges, seed):
        corpus = generate_corpus(count, ranges, seed=seed)
        scenarios = per_series_scenarios(count, ranges, seed)
        assert len(corpus) == count
        assert sum(len(ts) for ts in corpus) > datagen.CORPUS_BLOCK
        for series, scenario in zip(corpus, scenarios):
            assert_same_bits(series, *per_series_braking(scenario))
            assert not series.t.flags.writeable and not series.x.flags.writeable
        if ranges is LONG_RANGES:
            assert max(len(ts) for ts in corpus) > datagen.CORPUS_BLOCK
        # the CLI formats the longest series' t once and reuses its prefixes
        longest = max(corpus, key=len).t
        for series in corpus:
            assert np.array_equal(series.t.view(np.uint64), longest[:len(series)].view(np.uint64))

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_block_size_does_not_change_the_result(self, monkeypatch, block):
        monkeypatch.setattr(datagen, "CORPUS_BLOCK", block)
        corpus = generate_corpus(6, WIDE_RANGES, seed=5)
        for series, scenario in zip(corpus, per_series_scenarios(6, WIDE_RANGES, 5)):
            assert_same_bits(series, *per_series_braking(scenario))

    def test_one_point_ranges_are_the_one_series_case(self):
        for scenario in per_series_scenarios(50, WIDE_RANGES, 9):
            assert_same_bits(simulate(scenario), *per_series_braking(scenario))

    def test_one_sample_series_is_a_data_error(self):
        # the stop time underflows to 0, so the series would hold t = 0 only
        ranges = ScenarioRanges(v0=(1e-300, 1e-300), t_react=(0.0, 0.0), decel=(1e300, 1e300),
                                dt=0.01)
        with pytest.raises(DataError, match="length >= 2"):
            generate_corpus(3, ranges, seed=0)

    def test_flat_checks_skip_only_the_jumps_between_series(self):
        t = np.arange(4) * 0.5
        lengths = np.array([3, 4])
        datagen._check_traces(t, np.array([0.0, 1.0, 2.0, 0.0, 1.0, 1.0, 3.0]), lengths)
        with pytest.raises(DataError, match="non-decreasing"):
            datagen._check_traces(t, np.array([0.0, 1.0, 2.0, 0.0, 1.0, 0.5, 3.0]), lengths)
        with pytest.raises(DataError, match="start at 0"):
            datagen._check_traces(t, np.array([0.0, 1.0, 2.0, 0.5, 1.0, 1.0, 3.0]), lengths)


class TestCorpusBound:
    def test_bound_is_checked_before_drawing(self):
        ranges = ScenarioRanges(v0=(25.0, 35.0), t_react=(0.8, 1.5), decel=(3.5, 4.5), dt=1e-9)
        with pytest.raises(DataError, match="exceed the corpus limit"):
            generate_corpus(1, ranges, seed=0)
        with pytest.raises(DataError, match="exceed the corpus limit"):
            generate_corpus(10**12, seed=0)

    def test_limit_itself_is_accepted(self):
        # 1 s stop time at dt = 0.25: 5 samples per series
        ranges = ScenarioRanges(v0=(1.0, 1.0), t_react=(0.0, 0.0), decel=(1.0, 1.0), dt=0.25)
        check_corpus_size(MAX_CORPUS_SAMPLES // 5, ranges)
        with pytest.raises(DataError, match="exceed the corpus limit"):
            check_corpus_size(MAX_CORPUS_SAMPLES // 5 + 1, ranges)

    def test_overflowing_stop_time_is_rejected(self):
        with pytest.raises(DataError, match="longest stop time"):
            ScenarioRanges(v0=(1.0, 1e300), t_react=(0.0, 1.0), decel=(1e-300, 1.0), dt=0.01)

    def test_single_scenario_is_bounded_too(self):
        with pytest.raises(DataError, match="exceed the corpus limit"):
            simulate(Scenario(v0=30.0, t_react=1.0, decel=4.0, dt=1e-9))
        with pytest.raises(DataError, match="longest stop time"):
            simulate(Scenario(v0=1e300, t_react=1.0, decel=1e-300, dt=0.01))
