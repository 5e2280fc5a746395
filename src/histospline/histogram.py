"""Histogram construction and bin-count selection rules.

Bin counts can be chosen by the classic rules (square root, Sturges,
Scott, Freedman-Diaconis), by a fixed user count, or by Knuth's Bayesian
rule, which maximizes a marginal log-posterior over equal-width bin
counts.  Each sample counts once: every rule reads the sample values,
and the histogram's mass of a bin is its integer count over ``N``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError

__all__ = [
    "Samples",
    "BinRule",
    "Histogram",
    "select_bin_count",
    "knuth_log_posterior",
    "build_histogram",
]

RULE_TAGS = ("sqrt", "sturges", "scott", "fd", "knuth", "fixed")

DEFAULT_KNUTH_SEARCH_MAX = 200

# Upper bound on any bin count, checked before edges or counts are allocated.
MAX_BIN_COUNT = 1_000_000

# Upper bound on the Knuth rule's scan, which bounds its time: scanning
# 1..K visits K(K+1)/2 edges, about 7 s for this bound on one Xeon core.
MAX_KNUTH_SEARCH = 10_000

NORMALIZATION_TOL = 1e-12


def _frozen_array(values) -> np.ndarray:
    """``values`` as a read-only float64 array owning its data: as is, or a copy."""
    if (type(values) is np.ndarray and values.dtype == np.float64
            and values.base is None and not values.flags.writeable):
        return values
    out = _real(values, "values", np.array)
    out.setflags(write=False)
    return out


def _real(values, name: str, cast=np.asarray) -> np.ndarray:
    """``cast(values, dtype=float)``; :class:`DataError` naming ``name`` for
    complex values or ones that numpy cannot cast to float."""
    try:
        if not np.iscomplexobj(values):  # the cast to float would drop the imaginary parts
            return cast(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # e.g. a str, a ragged list, 2**1100
        raise DataError(f"{name} must be real numbers ({exc})") from exc
    raise DataError(f"{name} must be real numbers, not complex")


def _checked_knots(values, name: str, strict: bool = True) -> np.ndarray:
    """The grid contract: ``_frozen_array(values)`` if it is 1-d, of at least
    2 finite values, increasing (strictly, unless ``strict`` is False) over
    a finite span, which bounds the difference of any two of them;
    :class:`DataError` naming ``name`` otherwise."""
    knots = _frozen_array(values)
    if knots.ndim != 1 or knots.size < 2:
        raise DataError(f"{name} must be a 1-d array of at least 2 values")
    if not np.all(np.isfinite(knots)):
        raise DataError(f"{name} must be finite")
    if np.any((knots[1:] <= knots[:-1]) if strict else (knots[1:] < knots[:-1])):
        raise DataError(f"{name} must be {'strictly increasing' if strict else 'non-decreasing'}")
    lo, hi = float(knots[0]), float(knots[-1])
    if not math.isfinite(hi - lo):
        raise DataError(f"{name} span {lo!r} to {hi!r} overflows the float range")
    return knots


def _trusted(cls, **fields):
    """Dataclass ``cls`` holding ``fields`` that passed its checks: no copy, no check."""
    instance = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(instance, name, value)
    return instance


def _size(value, name: str, lo: int, hi: int | None = None) -> int:
    """``value`` as an ``int``: an integer (not a bool) in ``lo..hi``, or
    ``>= lo`` when ``hi`` is None; :class:`DataError` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if value < lo or hi is not None and value > hi:
        raise DataError(f"{name} must be " + (f">= {lo}" if hi is None else f"in {lo}..{hi}"))
    return int(value)


@dataclass(frozen=True, eq=False)
class Samples:
    """Observation vector, held as one read-only float64 array of its values.

    Values must be finite, not all equal, with a finite spread
    ``max - min``, which every bin rule and the histogram edges are built
    from.  The ``(min, max)`` found by that check is kept as ``bounds``, a
    pair of floats derived from the values, not a field.  A Knuth scan
    keeps the bin counts of the ``B`` it chose, ``B`` integers, for
    :func:`build_histogram` to divide; the sorted values it scans die
    with it.
    """

    values: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values)
        if values.ndim != 1 or values.size < 2:
            raise DataError("need a 1-d sample vector with at least 2 observations")
        lo, hi = float(values.min()), float(values.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):  # a NaN reaches both, an inf one
            raise DataError("sample values must all be finite")
        if hi == lo:
            raise DataError("all samples are equal; data range is zero")
        if not math.isfinite(hi - lo):
            raise DataError(
                f"sample spread max - min overflows the float range (min {lo!r}, max {hi!r})"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bounds", (lo, hi))
        object.__setattr__(self, "_knuth_counts", None)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class BinRule:
    """Bin-count selection rule.

    ``tag`` is one of ``sqrt``, ``sturges``, ``scott``, ``fd``, ``knuth``,
    ``fixed``.  ``fixed`` requires ``fixed_count``, capped at
    ``MAX_BIN_COUNT``; ``knuth_search_max`` bounds the exhaustive posterior
    scan of the Knuth rule and is capped at ``MAX_KNUTH_SEARCH``.
    """

    tag: str
    fixed_count: int | None = None
    knuth_search_max: int = DEFAULT_KNUTH_SEARCH_MAX

    def __post_init__(self):
        if self.tag not in RULE_TAGS:
            raise DataError(
                f"unknown bin rule {self.tag!r}; expected one of {', '.join(RULE_TAGS)}"
            )
        if self.tag == "fixed":
            count = _size(self.fixed_count, "fixed bin count", 1, MAX_BIN_COUNT)
            object.__setattr__(self, "fixed_count", count)
        elif self.fixed_count is not None:
            raise DataError(f"fixed_count is only valid with the 'fixed' rule, not {self.tag!r}")
        search_max = _size(self.knuth_search_max, "knuth_search_max", 1, MAX_KNUTH_SEARCH)
        object.__setattr__(self, "knuth_search_max", search_max)

    @classmethod
    def sqrt(cls) -> "BinRule":
        return cls("sqrt")

    @classmethod
    def sturges(cls) -> "BinRule":
        return cls("sturges")

    @classmethod
    def scott(cls) -> "BinRule":
        return cls("scott")

    @classmethod
    def freedman_diaconis(cls) -> "BinRule":
        return cls("fd")

    @classmethod
    def knuth(cls, search_max: int = DEFAULT_KNUTH_SEARCH_MAX) -> "BinRule":
        return cls("knuth", knuth_search_max=search_max)

    @classmethod
    def fixed(cls, count: int) -> "BinRule":
        return cls("fixed", fixed_count=count)

    @classmethod
    def parse(cls, text: str, knuth_search_max: int = DEFAULT_KNUTH_SEARCH_MAX) -> "BinRule":
        """Parse a rule label such as ``"knuth"`` or ``"fixed:12"``."""
        text, count = text.strip().lower(), None
        if text.startswith("fixed:"):
            text, raw = text.split(":", 1)
            try:
                count = int(raw)
            except ValueError as exc:
                raise DataError(f"bad fixed bin count {raw!r}") from exc
        elif text == "fixed":
            raise DataError("fixed rule needs a count, e.g. 'fixed:10'")
        return cls(text, fixed_count=count, knuth_search_max=knuth_search_max)

    def label(self) -> str:
        """Canonical string form, the inverse of :meth:`parse`."""
        if self.tag == "fixed":
            return f"fixed:{self.fixed_count}"
        return self.tag


@dataclass(frozen=True, eq=False)
class Histogram:
    """Equal-width density histogram: ``B+1`` edges, ``B`` heights.

    Heights are densities (mass per data unit); the total integral
    ``sum(heights * widths)`` must be 1 to within ``NORMALIZATION_TOL``.
    """

    edges: np.ndarray
    heights: np.ndarray

    def __post_init__(self):
        edges = _checked_knots(self.edges, "edges")
        heights = _frozen_array(self.heights)
        if heights.ndim != 1 or heights.size != edges.size - 1:
            raise DataError("heights must have exactly len(edges) - 1 entries")
        if not np.all(np.isfinite(heights)):
            raise DataError("histogram heights must be finite")
        if np.any(heights < 0.0):
            raise DataError("heights must be nonnegative")
        # finite nonnegative terms: the integral is finite or +inf, never NaN
        with np.errstate(over="ignore"):
            total = float(np.sum(heights * np.diff(edges)))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise DataError(f"histogram is not normalized: integral = {total!r}")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "heights", heights)

    @property
    def bin_count(self) -> int:
        return self.heights.size

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)


def select_bin_count(samples: Samples, rule: BinRule) -> int:
    """Choose the number of equal-width bins for ``samples`` under ``rule``.

    Parameters
    ----------
    samples : Samples
        Observations; only their values enter the rule.
    rule : BinRule
        Selection rule.  ``sqrt`` gives ``round(sqrt(N))``, ``sturges``
        gives ``ceil(log2 N) + 1``, ``scott`` and ``fd`` convert their
        optimal widths (``3.49 * sigma * N**(-1/3)`` and
        ``2 * IQR * N**(-1/3)``) to ``ceil(range / width)``, ``knuth``
        maximizes :func:`knuth_log_posterior` by exhaustive scan over
        ``1..knuth_search_max``, and ``fixed`` returns its count.

    Returns
    -------
    int
        Bin count, always >= 1.  Deterministic for fixed inputs; ties in
        the Knuth scan resolve to the smallest bin count.

    Raises
    ------
    DataError
        If the data has zero standard deviation (for ``scott``), zero
        interquartile range (for ``fd``), or a ``scott`` or ``fd`` count
        above ``MAX_BIN_COUNT`` or width that overflows the float range.
        A zero range never reaches a rule: :class:`Samples` rejects it.
    """
    values = samples.values
    n = values.size
    if rule.tag == "sqrt":
        return max(1, round(math.sqrt(n)))
    if rule.tag == "sturges":
        return math.ceil(math.log2(n)) + 1
    if rule.tag == "fixed":
        return rule.fixed_count
    if rule.tag == "knuth":
        counts = _knuth_scan(np.sort(values), rule.knuth_search_max)
        object.__setattr__(samples, "_knuth_counts", counts)
        return counts.size

    lo, hi = samples.bounds
    if rule.tag == "scott":
        # the squared deviations can overflow; the width check below names it
        with np.errstate(over="ignore"):
            sigma = float(np.std(values))
        if sigma == 0.0:
            raise DataError("zero standard deviation; Scott's rule is undefined")
        width = 3.49 * sigma * n ** (-1.0 / 3.0)
    elif rule.tag == "fd":
        q75, q25 = np.percentile(values, [75.0, 25.0])
        iqr = float(q75 - q25)
        if iqr == 0.0:
            raise DataError("zero interquartile range; Freedman-Diaconis rule is undefined")
        width = 2.0 * iqr * n ** (-1.0 / 3.0)
    if width == math.inf:
        raise DataError(
            f"the {rule.tag} rule's bin width overflows the float range; the data spread "
            f"{hi - lo!r} is too close to the largest float"
        )
    # the ratio can overflow, and the width underflow to 0, on extreme spreads
    bins = (hi - lo) / width if width > 0.0 else math.inf
    if not bins <= MAX_BIN_COUNT:
        raise DataError(
            f"the {rule.tag} rule asks for {bins:.4g} bins, more than the limit of "
            f"{MAX_BIN_COUNT}; the data range is too wide for its bin width"
        )
    return math.ceil(bins)


def knuth_log_posterior(counts, total: int) -> float:
    """Marginal log-posterior of an equal-width histogram with these counts.

    For ``B`` bins holding ``n_k`` of ``N`` samples:

    ``N ln B + lnG(B/2) - B lnG(1/2) - lnG(N + B/2) + sum_k lnG(n_k + 1/2)``

    where ``lnG`` is the log-gamma function.  The value is only meaningful
    relative to other bin counts of the same data, so callers scan ``B``
    and keep the argmax.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size < 1:
        raise DataError("counts must be a non-empty 1-d sequence")
    if np.any(counts < 0):
        raise DataError("counts must be nonnegative")
    if counts.dtype.kind == "f" and not np.all(np.isfinite(counts) & (np.floor(counts) == counts)):
        raise DataError("counts must be whole numbers")
    total = _size(total, "total", 1)
    if int(counts.sum()) != total:
        raise DataError(f"counts sum to {int(counts.sum())}, expected total {total}")
    # fsum rounds once, so the order of the per-bin terms is irrelevant
    return _knuth_head(counts.size, float(total)) + math.fsum(
        map(math.lgamma, (counts + 0.5).tolist()))


def _knuth_head(b: int, n: float) -> float:
    # the posterior without its per-bin terms, from the bin count alone
    return n * math.log(b) + math.lgamma(b / 2.0) - b * math.lgamma(0.5) - math.lgamma(n + b / 2.0)


# Bound on the left edges the Knuth scan materializes at once.
KNUTH_SCAN_CHUNK = 1 << 16

_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def _knuth_scan(sorted_values: np.ndarray, search_max: int) -> np.ndarray:
    """The bin counts (read-only, copied out of their chunk) of the argmax
    of the posterior of the samples ``sorted_values``, in increasing order,
    over ``B = 1..search_max``; ties go to the smallest ``B``.

    Every ``B`` is scored in numpy, within a rounding bound of its exact
    posterior; only the ``B`` whose bound reaches the best posterior seen
    are summed again, by :func:`knuth_log_posterior`, in increasing
    order.  The argmax is therefore that of an exact per-``B`` scan.
    """
    n = sorted_values.size
    best_counts, best_lp = np.array([n]), -math.inf
    for bs, starts, counts, approx, err in _knuth_chunks(sorted_values, search_max):
        # a B whose upper bound is below another B's lower bound, or below
        # an exact posterior already found, is neither the argmax nor tied
        # with it
        floor = max(best_lp, float(np.max(approx - err)))
        for i in np.flatnonzero(approx + err >= floor).tolist():
            b, start = int(bs[i]), int(starts[i])
            lp = knuth_log_posterior(counts[start:start + b], n)
            if lp > best_lp:
                best_counts, best_lp = counts[start:start + b].copy(), lp
    best_counts.setflags(write=False)
    return best_counts


def _knuth_chunks(sorted_values: np.ndarray, search_max: int):
    """Score ``B = 1..search_max`` in chunks of consecutive ``B``, for the
    samples ``sorted_values``, in increasing order (as
    :func:`select_bin_count` sorts them for each scan).

    Yields ``(bs, starts, counts, approx, err)`` per chunk: ``counts``
    holds the bin counts of every ``B`` in ``bs`` end to end, those of
    ``B = bs[i]`` at ``starts[i]``, and the exact posterior
    ``knuth_log_posterior(counts[start:start + B], n)`` lies within
    ``approx[i] ± err[i]``.

    The left edges of a chunk are laid end to end, at most
    ``KNUTH_SCAN_CHUNK`` of them (or the edges of one larger ``B``); each
    chunk takes one ``searchsorted``.  The per-bin terms and their bounds
    are read from tables below 4,096 and only larger counts take the
    Stirling series (see :func:`_lgamma_half`); each term's bound widens
    ``err``.  Edges and counts are those of
    ``np.linspace(lo, hi, B + 1)`` and ``np.histogram``, bit for bit.

    The first chunk, the whole scan at the default bound, searches each
    distinct edge once, in increasing ``k / B``, so each search starts
    where the last one ended.  When the step ``delta / B`` of the chunk's
    largest ``B`` rounds above the smallest normal float, every edge is
    ``k * step + lo``, and every step is ``delta / B`` rounded in the
    normal range, where doubling ``B`` halves the step exactly.  So edge
    ``k`` of an even ``B`` with ``k`` even is edge ``k / 2`` of ``B / 2``,
    bit for bit, and every edge ``k = 0`` is ``lo``; the first chunk
    searches each such edge once and gathers it.  A chunk whose steps
    reach the subnormal floats searches the edges of
    ``np.linspace(lo, hi, B + 1)`` for each of its ``B``, the call
    :func:`build_histogram` makes.  The latest chunk layout
    is kept, so repeated scans of one chunk (``search_max`` up to 361)
    build it once (see :func:`_chunk_layout`).
    """
    lo, hi = sorted_values[0], sorted_values[-1]
    n = sorted_values.size
    delta = hi - lo
    for first, last in _chunk_bounds(search_max):
        layout = _chunk_layout(first, last)
        bs, starts = layout.bs, layout.starts
        steps = delta / bs  # np.linspace's step of each B
        if steps[-1] > _SMALLEST_NORMAL:
            # numpy keeps the lower bound of its search while the keys
            # increase, so keys in value order probe nearby samples
            positions = np.searchsorted(sorted_values, layout.k * steps.take(layout.b_index) + lo)
            if layout.canonical is not None:
                positions = positions.take(layout.canonical)
        else:  # the steps reach the subnormal floats
            positions = np.searchsorted(sorted_values, np.concatenate(
                [np.linspace(lo, hi, b + 1)[:-1] for b in bs.tolist()]))
        # half-open bins, the last one closed at n
        counts = np.diff(positions, append=n)
        ends = starts + bs - 1
        counts[ends] = n - positions[ends]
        terms, slack = _lgamma_half(counts)
        head = _knuth_heads(layout, float(n))
        approx = head + np.add.reduceat(terms, starts)
        # reduceat's B - 1 additions in any order, fsum's rounding and the
        # two additions of the head: (B + 8) eps times the magnitudes
        # involved bounds them all; the Stirling terms add their own bound
        magnitude = np.add.reduceat(np.abs(terms), starts) + np.abs(head) + np.abs(approx) + 1.0
        err = (bs + 8) * np.finfo(float).eps * magnitude + np.add.reduceat(slack, starts)
        yield bs, starts, counts, approx, err


# The scan's per-bin terms lgamma(c + 1/2): the math.lgamma bits below
# LGAMMA_TABLE_SIZE, the Stirling series at and above it, each one within
# STIRLING_ULPS eps times |term| + 2c + 1 of math.lgamma.  Both are tabled,
# with their bounds, for counts below _TABLED_COUNTS.
LGAMMA_TABLE_SIZE = 256
STIRLING_ULPS = 16
_TABLED_COUNTS = 4096


def _stirling(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lgamma(c + 1/2)`` of counts ``c >= LGAMMA_TABLE_SIZE`` by the
    Stirling series, and a bound on each one's distance from
    ``math.lgamma(c + 1/2)``.

    The series ``c log z - z + log(2 pi) / 2 + 1/(12 z) - 1/(360 z^3) +
    1/(1260 z^5)``, ``z = c + 1/2``, is truncated below ``1/(1680 z^7)``,
    under 1e-20 here.  It rounds to a few eps of ``c log z <= |term| +
    z``, as numpy's float64 ``log`` is held to 1 ulp by its validation
    set, and ``math.lgamma`` errs by as much.  The bound is 8 times the
    largest distance measured for counts up to 2e6.
    """
    c = counts.astype(float)
    z = c + 0.5
    r = 1.0 / z
    r2 = r * r
    terms = c * np.log(z) - z + 0.5 * math.log(2.0 * math.pi) + r * (
        1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 / 1260.0))
    return terms, STIRLING_ULPS * np.finfo(float).eps * (np.abs(terms) + 2.0 * z)


def _term_tables() -> tuple[np.ndarray, np.ndarray]:
    # the terms and bounds of _lgamma_half for every count below _TABLED_COUNTS
    terms, slack = _stirling(np.arange(LGAMMA_TABLE_SIZE, _TABLED_COUNTS))
    terms = np.concatenate(([math.lgamma(c + 0.5) for c in range(LGAMMA_TABLE_SIZE)], terms))
    slack = np.concatenate((np.zeros(LGAMMA_TABLE_SIZE), slack))
    terms.setflags(write=False)
    slack.setflags(write=False)
    return terms, slack


_LGAMMA_HALF, _LGAMMA_HALF_SLACK = _term_tables()


def _lgamma_half(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lgamma(c + 1/2)`` of every count, and a bound on its distance from
    ``math.lgamma(c + 1/2)``: the ``math.lgamma`` bits and 0 below
    ``LGAMMA_TABLE_SIZE``, :func:`_stirling` at and above it.  Counts
    below ``_TABLED_COUNTS`` read both from tables built at import."""
    terms = _LGAMMA_HALF.take(counts, mode="clip")
    slack = _LGAMMA_HALF_SLACK.take(counts, mode="clip")
    big = np.flatnonzero(counts >= _TABLED_COUNTS)
    if big.size:
        terms[big], slack[big] = _stirling(counts[big])
    return terms, slack


def _chunk_bounds(search_max: int):
    """``(first, last)`` of each chunk of the scan over ``1..search_max``:
    the largest ``last`` whose ``B = first..last`` have at most
    ``KNUTH_SCAN_CHUNK`` left edges, or ``first`` itself."""
    first = 1
    while first <= search_max:
        # first + ... + last = (last (last + 1) - first (first - 1)) / 2
        last = (math.isqrt(8 * KNUTH_SCAN_CHUNK + 4 * first * (first - 1) + 1) - 1) // 2
        last = min(max(last, first), search_max)
        yield first, last
        first = last + 1


class _ChunkLayout(NamedTuple):
    """What a chunk of the Knuth scan needs of its ``B`` alone: one entry
    per ``B``, per searched edge or per left edge."""

    bs: np.ndarray
    starts: np.ndarray  # where the edges of each B begin
    log_b: np.ndarray  # the n-free terms of _knuth_head
    lgamma_half_b: np.ndarray
    k: np.ndarray  # the index of each searched edge within its B
    b_index: np.ndarray  # int32: the position in bs of each searched edge's B
    # int32, in the chunk that starts at B = 1: the searched edge equal to
    # each left edge; the searched edges are then the distinct ones in
    # increasing k / B, and otherwise every edge in order
    canonical: np.ndarray | None


@functools.lru_cache(maxsize=1)
def _chunk_layout(first: int, last: int) -> _ChunkLayout:
    """The layout of the chunk ``B = first..last``, read-only, as every scan
    with the same chunk shares it."""
    bs = np.arange(first, last + 1)
    starts = np.cumsum(bs) - bs
    b_list = bs.tolist()
    # k and the position in bs of B, of every left edge of the chunk, in order
    b_index = np.repeat(np.arange(bs.size, dtype=np.int32), bs)
    k = np.arange(starts[-1] + bs[-1]) - starts[b_index]
    canonical = None
    if first == 1:
        # divide k and B by the largest power of two dividing both; an edge
        # k = 0 becomes the edge 0 of B = 1
        b = bs[b_index]
        power = np.where(k == 0, b, np.minimum(k & -k, b & -b))
        same_as = starts[b // power - 1] + k // power
        searched = np.flatnonzero(same_as == np.arange(same_as.size))
        searched = searched[np.argsort(k[searched] / b[searched])]
        rank = np.empty(same_as.size, dtype=np.int32)
        rank[searched] = np.arange(searched.size)
        canonical, k, b_index = rank[same_as], k[searched], b_index[searched]
    layout = _ChunkLayout(
        bs=bs,
        starts=starts,
        log_b=np.array(list(map(math.log, b_list))),
        lgamma_half_b=np.array([math.lgamma(b / 2.0) for b in b_list]),
        k=k.astype(float),
        b_index=b_index,
        canonical=canonical,
    )
    for array in layout:
        if array is not None:
            array.setflags(write=False)
    return layout


def _knuth_heads(layout: _ChunkLayout, n: float) -> np.ndarray:
    # _knuth_head(B, n) of every B in the layout, by its operations in its order
    return ((n * layout.log_b + layout.lgamma_half_b) - layout.bs * math.lgamma(0.5)) - np.array(
        list(map(math.lgamma, (n + layout.bs / 2.0).tolist())))


def build_histogram(samples: Samples, bin_count: int) -> Histogram:
    """Build the equal-width density histogram of ``samples``.

    Edges span ``[min(values), max(values)]`` exactly with ``bin_count``
    uniform bins.  Each sample is counted in exactly one bin (half-open
    bins, last bin closed so the maximum is counted); heights are the
    integer counts over ``N`` and over the bin widths, ``count / N``
    rounded once.  The counts are those a Knuth scan kept when it chose
    ``bin_count``, and otherwise are summed over ``HISTOGRAM_BLOCK``-sample
    blocks, each sorted in turn.  Raises :class:`DataError` when a height
    is not finite: its bin is too narrow, or of zero width, as on a range a
    few ulps wide.
    """
    bin_count = _size(bin_count, "bin_count", 1, MAX_BIN_COUNT)
    lo, hi = samples.bounds
    edges = np.linspace(lo, hi, bin_count + 1)
    n = len(samples)
    counts = samples._knuth_counts
    if counts is None or counts.size != bin_count:
        # the samples below each left edge; the last edge is the largest sample
        below = np.zeros(bin_count, dtype=np.intp)
        for i in range(0, n, HISTOGRAM_BLOCK):
            below += np.sort(samples.values[i:i + HISTOGRAM_BLOCK]).searchsorted(edges[:-1])
        counts = np.diff(below, append=n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        heights = counts / n / np.diff(edges)
    if not np.isfinite(heights).all():
        raise DataError(
            f"bin density overflows: {bin_count} bins over a range of {hi - lo!r} "
            "give bin widths too narrow for a finite height"
        )
    heights.setflags(write=False)  # kept as is; linspace's edges are a view, so copied
    return Histogram(edges=edges, heights=heights)


# Samples sorted at a time when no Knuth scan kept the counts, which
# bounds the histogram's temporaries.
HISTOGRAM_BLOCK = 65536
