"""Weighted histogram construction and bin-count selection rules.

Bin counts can be chosen by the classic rules (square root, Sturges,
Scott, Freedman-Diaconis), by a fixed user count, or by Knuth's Bayesian
rule, which maximizes a marginal log-posterior over equal-width bin
counts.  All rules operate on the raw (unweighted) sample values; weights
only enter the histogram masses.
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
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


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
    """Observation vector with per-sample weights.

    Weights default to ``1/N`` each, a read-only view with stride 0, so
    the read-only copy of ``values`` is the only N-sized array held.
    Given weights are copied too; they must be finite and nonnegative with
    a positive sum.  Normalization to unit total mass happens at histogram
    construction time, so only relative weights matter.  Values must be
    finite, not all equal, with a finite spread ``max - min``, which every
    bin rule and the histogram edges are built from.
    """

    values: np.ndarray
    weights: np.ndarray | None = None

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
        if self.weights is None:
            weights = np.broadcast_to(1.0 / values.size, values.shape)
        else:
            weights = _frozen_array(self.weights)
            if weights.shape != values.shape:
                raise DataError("weights must have the same length as values")
            if not np.all(np.isfinite(weights)):
                raise DataError("weights must all be finite")
            if np.any(weights < 0.0):
                raise DataError("weights must be nonnegative")
            with np.errstate(over="ignore"):
                total = float(weights.sum())
            if not math.isfinite(total):
                raise DataError("the weight total overflows the float range")
            if total <= 0.0:
                raise DataError("at least one weight must be positive")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

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
        edges = np.asarray(self.edges, dtype=float)
        heights = np.asarray(self.heights, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise DataError("edges must be a 1-d array of at least 2 values")
        if heights.ndim != 1 or heights.size != edges.size - 1:
            raise DataError("heights must have exactly len(edges) - 1 entries")
        if not (np.all(np.isfinite(edges)) and np.all(np.isfinite(heights))):
            raise DataError("histogram edges and heights must be finite")
        with np.errstate(over="ignore"):  # an infinite width is reported below
            widths = np.diff(edges)
        if np.any(widths <= 0.0):
            raise DataError("edges must be strictly increasing")
        if np.any(heights < 0.0):
            raise DataError("heights must be nonnegative")
        if not np.all(np.isfinite(widths)):
            raise DataError("a bin width overflows the float range")
        # finite nonnegative terms: the integral is finite or +inf, never NaN
        with np.errstate(over="ignore"):
            total = float(np.sum(heights * widths))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise DataError(f"histogram is not normalized: integral = {total!r}")
        object.__setattr__(self, "edges", _frozen_array(edges))
        object.__setattr__(self, "heights", _frozen_array(heights))

    @property
    def bin_count(self) -> int:
        return self.heights.size

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def select_bin_count(samples: Samples, rule: BinRule) -> int:
    """Choose the number of equal-width bins for ``samples`` under ``rule``.

    Parameters
    ----------
    samples : Samples
        Observations; only the raw values enter the rule, never the weights.
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

    lo, hi = float(values.min()), float(values.max())
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
    else:
        return _knuth_scan(values, rule.knuth_search_max)
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


def _knuth_scan(values: np.ndarray, search_max: int) -> int:
    """Argmax of the posterior over ``B = 1..search_max``; ties go to the
    smallest ``B``.

    Every ``B`` is scored in numpy, within a rounding bound of its exact
    posterior; only the ``B`` whose bound reaches the best posterior seen
    are summed again, by :func:`knuth_log_posterior`, in increasing
    order.  The argmax is therefore that of an exact per-``B`` scan.
    """
    n = values.size
    best_b, best_lp = 1, -math.inf
    for bs, starts, counts, approx, err in _knuth_chunks(values, search_max):
        # a B whose upper bound is below another B's lower bound, or below
        # an exact posterior already found, is neither the argmax nor tied
        # with it
        floor = max(best_lp, float(np.max(approx - err)))
        for i in np.flatnonzero(approx + err >= floor).tolist():
            b, start = int(bs[i]), int(starts[i])
            lp = knuth_log_posterior(counts[start:start + b], n)
            if lp > best_lp:
                best_b, best_lp = b, lp
    return best_b


def _knuth_chunks(values: np.ndarray, search_max: int):
    """Score ``B = 1..search_max`` in chunks of consecutive ``B``.

    Yields ``(bs, starts, counts, approx, err)`` per chunk: ``counts``
    holds the bin counts of every ``B`` in ``bs`` end to end, those of
    ``B = bs[i]`` at ``starts[i]``, and the exact posterior
    ``knuth_log_posterior(counts[start:start + B], n)`` lies within
    ``approx[i] ± err[i]``.

    The left edges of a chunk are laid end to end, at most
    ``KNUTH_SCAN_CHUNK`` of them (or the edges of one larger ``B``); each
    chunk takes one ``searchsorted``, and ``lgamma`` runs on its distinct
    counts only.  Edges and counts are those of
    ``np.linspace(lo, hi, B + 1)`` and ``np.histogram``, bit for bit.
    The first chunk, the whole scan at the default bound, searches its
    edges in increasing ``k / B``, so each search starts where the last
    one ended; its layout is built once per process (see
    :func:`_first_chunk_layout`).
    """
    sorted_values = np.sort(values)
    lo, hi = sorted_values[0], sorted_values[-1]
    n = sorted_values.size
    delta = hi - lo
    for first, last in _chunk_bounds(search_max):
        layout = _first_chunk_layout(last) if first == 1 else _chunk_layout(first, last)
        bs, starts, order = layout.bs, layout.starts, layout.order
        k, b_of_edge = layout.k, layout.b_of_edge
        # np.linspace computes k * (delta / B) + lo, or k / B * delta when
        # the step underflows to 0
        step = delta / b_of_edge
        left_edges = np.where(step == 0.0, k / b_of_edge * delta, k * step) + lo
        if order is None:
            positions = np.searchsorted(sorted_values, left_edges, side="left")
        else:
            # numpy keeps the lower bound of its search while the keys
            # increase, so keys in value order probe nearby samples
            positions = np.empty(left_edges.size, dtype=np.intp)
            positions[order] = np.searchsorted(sorted_values, left_edges[order], side="left")
        # half-open bins, the last one closed at n
        counts = np.diff(positions, append=n)
        counts[layout.ends] = n - positions[layout.ends]
        distinct, inverse = np.unique(counts, return_inverse=True)
        lgammas = np.array(list(map(math.lgamma, (distinct + 0.5).tolist())))
        terms = lgammas[inverse]
        head = _knuth_heads(layout, float(n))
        approx = head + np.add.reduceat(terms, starts)
        # reduceat's B - 1 additions in any order, fsum's rounding and the
        # two additions of the head: (B + 8) eps times the magnitudes
        # involved bounds them all
        magnitude = np.add.reduceat(np.abs(terms), starts) + np.abs(head) + np.abs(approx) + 1.0
        err = (bs + 8) * np.finfo(float).eps * magnitude
        yield bs, starts, counts, approx, err


def _chunk_bounds(search_max: int):
    """``(first, last)`` of each chunk of the scan over ``1..search_max``."""
    first = 1
    while first <= search_max:
        last, size = first, first
        while last < search_max and size + last + 1 <= KNUTH_SCAN_CHUNK:
            last += 1
            size += last
        yield first, last
        first = last + 1


class _ChunkLayout(NamedTuple):
    """What a chunk of the Knuth scan needs of its ``B`` alone, one entry
    per ``B`` or per left edge."""

    bs: np.ndarray
    starts: np.ndarray  # where the edges of each B begin
    ends: np.ndarray  # where they end
    k: np.ndarray  # the index of each edge within its B
    b_of_edge: np.ndarray
    log_b: np.ndarray  # the n-free terms of _knuth_head
    lgamma_half_b: np.ndarray
    b_lgamma_half: np.ndarray
    order: np.ndarray | None  # argsort of k / B, in the chunk that starts at B = 1


def _chunk_layout(first: int, last: int) -> _ChunkLayout:
    bs = np.arange(first, last + 1)
    starts = np.cumsum(bs) - bs
    b_list = bs.tolist()
    k = (np.arange(starts[-1] + last) - np.repeat(starts, bs)).astype(float)
    b_of_edge = np.repeat(bs.astype(float), bs)
    return _ChunkLayout(
        bs=bs,
        starts=starts,
        ends=starts + bs - 1,
        k=k,
        b_of_edge=b_of_edge,
        log_b=np.array(list(map(math.log, b_list))),
        lgamma_half_b=np.array([math.lgamma(b / 2.0) for b in b_list]),
        b_lgamma_half=bs * math.lgamma(0.5),
        order=np.argsort(k / b_of_edge) if first == 1 else None,
    )


@functools.lru_cache(maxsize=1)
def _first_chunk_layout(last: int) -> _ChunkLayout:
    """The layout of the chunk ``B = 1..last``, read-only, as every scan
    with the same first chunk shares it."""
    layout = _chunk_layout(1, last)
    for array in layout:
        array.setflags(write=False)
    return layout


def _knuth_heads(layout: _ChunkLayout, n: float) -> np.ndarray:
    # _knuth_head(B, n) of every B in the layout, by its operations in its order
    return ((n * layout.log_b + layout.lgamma_half_b) - layout.b_lgamma_half) - np.array(
        list(map(math.lgamma, (n + layout.bs / 2.0).tolist())))


def build_histogram(samples: Samples, bin_count: int) -> Histogram:
    """Build the equal-width density histogram of ``samples``.

    Edges span ``[min(values), max(values)]`` exactly with ``bin_count``
    uniform bins.  Each sample contributes its weight to exactly one bin
    (half-open bins, last bin closed so the maximum is counted); heights
    are the bin masses divided by total mass and bin width.  Raises
    :class:`DataError` when a height is not finite: its bin is too narrow,
    or of zero width, as on a range a few ulps wide.
    """
    bin_count = _size(bin_count, "bin_count", 1, MAX_BIN_COUNT)
    values, weights = samples.values, samples.weights
    lo, hi = float(values.min()), float(values.max())
    edges = np.linspace(lo, hi, bin_count + 1)
    masses = _bin_masses(values, weights, edges)
    total = masses.sum()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        heights = masses / (total * np.diff(edges))
    if not np.isfinite(heights).all():
        raise DataError(
            f"bin density overflows: {bin_count} bins over a range of {hi - lo!r} "
            "give bin widths too narrow for a finite height"
        )
    return Histogram(edges=edges, heights=heights)


# Samples per block of the mass accumulation, as in np.histogram.
HISTOGRAM_BLOCK = 65536


def _bin_masses(values: np.ndarray, weights: np.ndarray, edges: np.ndarray) -> np.ndarray:
    if not np.all(weights == weights[0]):
        return np.histogram(values, bins=edges, weights=weights)[0]
    # Equal weights, as every CLI run has: np.histogram(values, bins=edges,
    # weights=weights) operation for operation, per block the cumulative
    # weights at the sorted block's edge positions, summed over blocks and
    # differenced.  Equal weights have the same cumulative sums in any
    # order, so only the block's values are sorted, and as cumsum
    # accumulates in order, every block's are a prefix of the first's.
    cumulative_weights = np.concatenate(([0.0], weights[:HISTOGRAM_BLOCK].cumsum()))
    cumulative = np.zeros(edges.size)
    for i in range(0, values.size, HISTOGRAM_BLOCK):
        block = np.sort(values[i:i + HISTOGRAM_BLOCK])
        positions = np.concatenate((
            block.searchsorted(edges[:-1], side="left"),
            block.searchsorted(edges[-1:], side="right"),
        ))
        cumulative += cumulative_weights[positions]
    return np.diff(cumulative)
