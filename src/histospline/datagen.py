"""Synthetic emergency-braking time series.

Kinematics: the vehicle holds its initial speed through the driver
reaction time, then decelerates at a constant rate to rest.  Positions
are closed-form, so there is no integration error:

    x(t) = v0 * t                                   t <= t_react
    x(t) = v0 * t_react + v0 * s - decel * s**2 / 2  s = t - t_react
    x(t) = stopping distance                         t >= stop time

Corpora draw scenario parameters uniformly per series from configured
ranges, with one PCG64 stream derived per series index so parallel and
serial generation agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .histogram import _checked_knots, _frozen_array, _real, _size, _trusted

__all__ = [
    "ScenarioRanges",
    "TimeSeries",
    "DEFAULT_RANGES",
    "generate_corpus",
    "flatten_positions",
]


@dataclass(frozen=True)
class ScenarioRanges:
    """Uniform sampling intervals for corpus generation, ints or floats kept as floats
    (see ``_real``); a bool, a string or a range that can draw a bad scenario is a
    :class:`DataError`."""

    v0: tuple[float, float]
    t_react: tuple[float, float]
    decel: tuple[float, float]
    dt: float

    def __post_init__(self):
        for name in ("v0", "t_react", "decel"):
            given = getattr(self, name)
            pair = given if given is None else _real(given, f"{name} range")
            if np.shape(pair) != (2,):
                raise DataError(f"{name} range must be a (min, max) pair, got {given!r}")
            lo, hi = pair.tolist()
            object.__setattr__(self, name, (lo, hi))
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DataError(f"{name} range must be finite")
            if lo > hi:
                raise DataError(f"{name} range has min {lo!r} > max {hi!r}")
        # every drawable scenario must itself be valid
        if self.v0[0] <= 0.0:
            raise DataError("v0 range must be positive")
        if self.t_react[0] < 0.0:
            raise DataError("t_react range must be nonnegative")
        if self.decel[0] <= 0.0:
            raise DataError("decel range must be positive")
        dt = _real(self.dt, "dt")
        if dt.ndim:
            raise DataError(f"dt must be one number, got {self.dt!r}")
        object.__setattr__(self, "dt", dt.item())
        if not math.isfinite(self.dt):
            raise DataError(f"dt must be finite, got {self.dt!r}")
        if self.dt <= 0.0:
            raise DataError("dt must be positive")
        if not math.isfinite(self.t_react[1] + self.v0[1] / self.decel[0]):
            raise DataError("the longest stop time, t_react max + v0 max / decel min, overflows")


# Upper bound on the samples of one corpus (0.8 GB of x; every series' t
# is a prefix of one array), checked before any scenario is drawn.
MAX_CORPUS_SAMPLES = 10**8

# Samples computed per block by _simulate; bounds its temporaries the way
# HISTOGRAM_BLOCK bounds build_histogram's.
CORPUS_BLOCK = 1 << 16


def check_corpus_size(count: int, ranges: ScenarioRanges) -> None:
    """Raise :class:`DataError` if ``count`` series drawn from ``ranges``
    could hold more than :data:`MAX_CORPUS_SAMPLES` samples."""
    longest = (ranges.t_react[1] + ranges.v0[1] / ranges.decel[0]) / ranges.dt
    if not longest < MAX_CORPUS_SAMPLES or count * (math.ceil(longest) + 1) > MAX_CORPUS_SAMPLES:
        raise DataError(
            f"{count} series of up to {longest + 1:.6g} samples each exceed the corpus "
            f"limit of {MAX_CORPUS_SAMPLES} samples; raise dt or narrow the ranges"
        )


# Chosen so the slowest scenario still stops beyond 65 m:
# min distance = 25 * 0.8 + 25**2 / (2 * 4.5) = 89.4 m.
DEFAULT_RANGES = ScenarioRanges(v0=(25.0, 35.0), t_react=(0.8, 1.5), decel=(3.5, 4.5), dt=0.01)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Sampled longitudinal position trace: x starts at 0 and never
    decreases (the vehicle does not reverse)."""

    t: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        t, x = _frozen_array(self.t), _frozen_array(self.x)
        if t.ndim != 1 or t.shape != x.shape:
            raise DataError("t and x must be 1-d arrays of equal length >= 2")
        _check_traces(t, x, np.array([t.size]))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)

    def __len__(self) -> int:
        return self.t.size


def _check_traces(t: np.ndarray, x: np.ndarray, lengths: np.ndarray) -> None:
    """The :class:`TimeSeries` contract for series laid end to end in ``x``,
    ``lengths[i]`` samples each, whose times, prefixes of ``t``, pass the grid contract."""
    if lengths.min() < 2:
        raise DataError("t and x must be 1-d arrays of equal length >= 2")
    _checked_knots(t, "sample times", strict=False)
    if not np.all(np.isfinite(x)):
        raise DataError("time series must be finite")
    starts = np.cumsum(lengths) - lengths
    if np.any(x[starts] != 0.0):
        raise DataError("position trace must start at 0")
    falls = x[1:] < x[:-1]
    falls[starts[1:] - 1] = False  # from one series' last sample to the next one's first
    if np.any(falls):
        raise DataError("position trace must be non-decreasing")


def _simulate(v0: np.ndarray, t_react: np.ndarray, decel: np.ndarray,
              dt: float) -> list[TimeSeries]:
    """Sample each maneuver (one entry of ``v0``, ``t_react``, ``decel`` per
    series) at t = 0, dt, 2*dt, ... through its stop time.

    The final sample is the first one at or past the stop, so a series ends
    at its stopping distance (the vehicle is at rest).  The positions of
    all series are laid end to end and computed ``CORPUS_BLOCK`` samples at
    a time, each with the operations, in the order, of a per-series
    evaluation.  Every series' ``t`` is a prefix of one array.
    """
    lengths = np.ceil((t_react + v0 / decel) / dt).astype(np.int64) + 1
    ends = np.cumsum(lengths)
    starts = ends - lengths
    x = np.empty(int(ends[-1]))
    stop = v0 / decel
    half_decel = 0.5 * decel
    # overflow leaves inf or nan in t or x, which _check_traces rejects
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.arange(lengths.max()) * dt
        reaction_distance = v0 * t_react
        # the rest samples' position, by their operations
        stopping_distance = reaction_distance + v0 * stop - half_decel * stop**2
        for lo in range(0, x.size, CORPUS_BLOCK):
            index = np.arange(lo, min(lo + CORPUS_BLOCK, x.size))
            series = np.searchsorted(ends, index, side="right")
            tb = t[index - starts[series]]
            v0b, t_react_b = v0[series], t_react[series]
            # Clamping the braking-phase offset at the stop keeps the sampled
            # positions monotone through the rest phase, and clamping the
            # position at the stopping distance keeps the last braking
            # samples, whose rounding can land an ulp above it, below it.
            s = np.clip(tb - t_react_b, 0.0, stop[series])
            braking = reaction_distance[series] + v0b * s - half_decel[series] * s**2
            np.minimum(braking, stopping_distance[series], out=braking)
            x[lo:lo + index.size] = np.where(tb <= t_react_b, v0b * tb, braking)
    t.setflags(write=False)
    x.setflags(write=False)
    _check_traces(t, x, lengths)
    return [_trusted(TimeSeries, t=t[:n], x=x[start:start + n])
            for start, n in zip(starts.tolist(), lengths.tolist())]


def generate_corpus(
    count: int,
    ranges: ScenarioRanges | None = None,
    seed: int = 0,
) -> list[TimeSeries]:
    """Generate ``count`` braking series with parameters drawn uniformly
    from ``ranges`` (default :data:`DEFAULT_RANGES`).

    Each series uses its own PCG64 stream seeded by ``(seed, index)``, so
    the corpus is reproducible and independent of generation order.
    Raises :class:`DataError` before drawing when ``count`` is not a
    positive integer, the seed not a non-negative one, or the corpus could
    exceed :data:`MAX_CORPUS_SAMPLES` samples.
    """
    count, seed = _size(count, "count", 1), _size(seed, "seed", 0)
    if ranges is None:
        ranges = DEFAULT_RANGES
    check_corpus_size(count, ranges)
    draws = []
    for index in range(count):
        rng = np.random.default_rng((seed, index))
        draws.append((rng.uniform(*ranges.v0), rng.uniform(*ranges.t_react),
                      rng.uniform(*ranges.decel)))
    v0, t_react, decel = np.array(draws).T
    return _simulate(v0, t_react, decel, ranges.dt)


def flatten_positions(corpus: list[TimeSeries]) -> np.ndarray:
    """Concatenate all position samples of all series, read-only (so
    ``Samples`` holds it uncopied), the input for density over position."""
    if not corpus:
        raise DataError("corpus is empty")
    x = np.concatenate([ts.x for ts in corpus])
    x.setflags(write=False)
    return x
