"""Discrete domain foundations.

Everything downstream lives on one of two finite domains:

* the periodic grid ``x_i = i/N`` on the torus ``[0,1)`` (or its square),
  carrying complex samples of functions -- see :class:`GridSignal1D` and
  :class:`GridSignal2D`;
* the dyadic lattice of ``[0,1)^2`` together with open sets represented as
  unions of the ``2^n x 2^n`` uniform cells -- see :class:`DyadicInterval`,
  :class:`DyadicRectangle`, :class:`CellRect` and :class:`CellSet`.

The Fourier modules treat the grid as a torus (periodic), but the geometric
objects here are Euclidean: maximal functions and dyadic structure never wrap
around the edge of the square.  Intervals of cells are intervals of
consecutive indices only.

Array axis conventions: for a 2D mask or sample array ``a[i1, i2]``, the
first index moves along the first coordinate axis.  "Axis 1" in the public
API always means the first variable, i.e. numpy axis 0.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

import numpy as np

__all__ = [
    "GridSignal1D",
    "GridSignal2D",
    "DyadicInterval",
    "DyadicRectangle",
    "CellRect",
    "CellSet",
    "enumerate_dyadic_rectangles",
    "maximal_1d_level",
    "strong_maximal_half_level",
    "rectangles_inside",
    "interval_index",
    "index_interval",
    "save_signal",
    "load_signal",
]


def _check_power_of_two(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a positive power of two, got {n}")


def _freeze(a, copy: bool | None = True) -> np.ndarray:
    """a as a read-only complex128 array; copy=None freezes a complex128
    ndarray in place."""
    a = np.array(a, dtype=np.complex128, copy=copy)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _GridSignal:
    """Complex samples on the periodic grid x_i = i/N of the torus [0,1)^ndim.

    samples[i1, ..., id] = f(i1/N, ..., id/N), with the same power-of-two N
    on every axis.  Signals are immutable; arithmetic returns new instances
    of the same class, and an operand that is a signal must have the same
    class and grid.  A signal is called *admissible* when its spectrum
    vanishes on the zero and Nyquist lines of every axis; identities
    involving half-line projections are exact only on that subspace.
    """

    samples: np.ndarray
    ndim: ClassVar[int]  # the number of axes, set by each subclass

    def __post_init__(self):
        # a caller's array is copied: changing it later cannot reach the signal
        self._set_samples(_freeze(self.samples))

    @classmethod
    def _adopt(cls, samples: np.ndarray):
        """A signal on a fresh array that nothing else references, frozen
        without a copy."""
        sig = object.__new__(cls)
        sig._set_samples(_freeze(samples, copy=None))
        return sig

    def _set_samples(self, samples: np.ndarray) -> None:
        object.__setattr__(self, "samples", samples)
        shape = samples.shape
        if len(shape) != self.ndim or len(set(shape)) != 1:
            name = type(self).__name__
            raise ValueError(f"{name} expects a {self.ndim}D sample array with equal axes")
        _check_power_of_two(shape[0])

    @property
    def n_points(self) -> int:
        return self.samples.shape[0]

    def spectrum(self) -> np.ndarray:
        """Fourier coefficients normalized so that f = sum fhat_k e^{2 pi i k.x}."""
        return np.fft.fftn(self.samples) / self.samples.size

    @classmethod
    def from_spectrum(cls, fhat: np.ndarray):
        fhat = np.asarray(fhat, dtype=np.complex128)
        return cls._adopt(np.fft.ifftn(fhat * fhat.size))

    def is_admissible(self, tol: float = 1e-12) -> bool:
        """True when the spectrum vanishes on the zero and Nyquist lines of every axis."""
        fhat = np.abs(self.spectrum())
        scale = np.sqrt(np.sum(fhat**2))
        edges = [0, self.n_points // 2]
        bad = max(float(np.take(fhat, edges, axis=ax).max()) for ax in range(self.ndim))
        return bad <= tol * max(scale, 1e-300)

    def _operand(self, other):
        if isinstance(other, _GridSignal):
            if type(other) is not type(self) or other.n_points != self.n_points:
                raise ValueError("signals live on different grids")
            return other.samples
        return other

    # pointwise algebra
    def __add__(self, other):
        return type(self)._adopt(self.samples + self._operand(other))

    def __sub__(self, other):
        return type(self)._adopt(self.samples - self._operand(other))

    def __mul__(self, other):
        return type(self)._adopt(self.samples * self._operand(other))

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return type(self)._adopt(-self.samples)

    def conj(self):
        return type(self)._adopt(np.conj(self.samples))

    def inner(self, other) -> complex:
        """<f,g> = N^{-d} sum f conj(g); equals sum_k fhat conj(ghat)."""
        return complex(np.vdot(self._operand(other), self.samples) / self.samples.size)

    def norm2(self) -> float:
        return float(np.sqrt(np.mean(np.abs(self.samples) ** 2)))


class GridSignal1D(_GridSignal):
    """Complex samples of a function on [0,1), taken at x_i = i/N."""

    ndim = 1


class GridSignal2D(_GridSignal):
    """Complex samples on the N x N periodic grid, samples[i1, i2] = f(i1/N, i2/N)."""

    ndim = 2


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The dyadic interval [k 2^{-j}, (k+1) 2^{-j}) of [0,1)."""

    j: int
    k: int

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("scale must be nonnegative")
        if not (0 <= self.k < 2**self.j):
            raise ValueError(f"position {self.k} out of range at scale {self.j}")

    @property
    def length(self) -> float:
        return 2.0**-self.j

    @property
    def left(self) -> float:
        return self.k * 2.0**-self.j

    @property
    def center(self) -> float:
        return (self.k + 0.5) * 2.0**-self.j

    def contains(self, other: "DyadicInterval") -> bool:
        if other.j < self.j:
            return False
        return (other.k >> (other.j - self.j)) == self.k

    def cell_span(self, n: int) -> tuple[int, int]:
        """Half-open range of cell indices covered at resolution n (needs j <= n)."""
        if self.j > n:
            raise ValueError("interval finer than the cell grid")
        w = 1 << (n - self.j)
        return self.k * w, (self.k + 1) * w


@dataclass(frozen=True, order=True)
class DyadicRectangle:
    """Product of two dyadic intervals; area 2^{-(j1+j2)}."""

    interval1: DyadicInterval
    interval2: DyadicInterval

    @property
    def area(self) -> float:
        return 2.0 ** -(self.interval1.j + self.interval2.j)

    def contains(self, other: "DyadicRectangle") -> bool:
        return self.interval1.contains(other.interval1) and self.interval2.contains(
            other.interval2
        )

    def to_cellrect(self, n: int) -> "CellRect":
        a1, b1 = self.interval1.cell_span(n)
        a2, b2 = self.interval2.cell_span(n)
        return CellRect(n, a1, b1, a2, b2)

    @classmethod
    def from_indices(cls, j1: int, k1: int, j2: int, k2: int) -> "DyadicRectangle":
        return cls(DyadicInterval(j1, k1), DyadicInterval(j2, k2))


@dataclass(frozen=True, order=True)
class CellRect:
    """An axis-parallel rectangle of whole cells, half-open in cell indices.

    Covers [a1*h, b1*h) x [a2*h, b2*h) with h = 2^{-n}.  Dyadic rectangles
    are the special case where each side is a power-of-two run starting at a
    multiple of its length; the embeddedness computations accept the general
    form because generated examples (rows of squares) need non-dyadic
    placement.
    """

    n: int
    a1: int
    b1: int
    a2: int
    b2: int

    def __post_init__(self):
        m = 1 << self.n
        if not (0 <= self.a1 < self.b1 <= m and 0 <= self.a2 < self.b2 <= m):
            raise ValueError("cell rectangle out of range or empty")

    @property
    def widths(self) -> tuple[Fraction, Fraction]:
        h = Fraction(1, 1 << self.n)
        return (self.b1 - self.a1) * h, (self.b2 - self.a2) * h

    @property
    def center(self) -> tuple[Fraction, Fraction]:
        h = Fraction(1, 1 << self.n)
        return Fraction(self.a1 + self.b1, 2) * h, Fraction(self.a2 + self.b2, 2) * h


@dataclass(frozen=True)
class CellSet:
    """A union of cells of the uniform 2^n x 2^n partition of [0,1)^2.

    The mask is boolean with mask[i1, i2] covering
    [i1 h, (i1+1) h) x [i2 h, (i2+1) h), h = 2^{-n}.  Union and containment
    are exact; measure is the dyadic rational (set bits) * 4^{-n}, which
    float64 represents exactly for every n used here.
    """

    n: int
    mask: np.ndarray = field(compare=False)

    def __post_init__(self):
        m = 1 << self.n
        mask = np.array(self.mask, dtype=bool, copy=True)
        if mask.shape != (m, m):
            raise ValueError(f"mask shape {mask.shape} does not match n={self.n}")
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_cells(cls, n: int, cells) -> "CellSet":
        mask = np.zeros((1 << n, 1 << n), dtype=bool)
        for i1, i2 in cells:
            mask[i1, i2] = True
        return cls(n, mask)

    @property
    def cell_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def measure(self) -> float:
        return self.cell_count * 4.0**-self.n

    def __or__(self, other: "CellSet") -> "CellSet":
        self._check(other)
        return CellSet(self.n, self.mask | other.mask)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CellSet)
            and self.n == other.n
            and bool(np.array_equal(self.mask, other.mask))
        )

    def contains(self, other: "CellSet") -> bool:
        self._check(other)
        return bool(np.all(self.mask | ~other.mask))

    def _check(self, other: "CellSet") -> None:
        if self.n != other.n:
            raise ValueError("resolution mismatch")


def enumerate_dyadic_rectangles(n: int) -> list[DyadicRectangle]:
    """All dyadic rectangles of [0,1)^2 with both scales in [0, n].

    The count is (2^{n+1}-1)^2: each axis contributes 1 + 2 + ... + 2^n
    intervals.
    """
    if n < 0:
        raise ValueError("resolution must be nonnegative")
    intervals = [
        DyadicInterval(j, k) for j in range(n + 1) for k in range(2**j)
    ]
    return [DyadicRectangle(i1, i2) for i1 in intervals for i2 in intervals]


def _covered(g: np.ndarray, one_sided: bool = False) -> np.ndarray:
    """Cells of each row of an integer (L, m) array that lie in an interval of positive sum.

    With prefix sums P (P[0] = 0) the interval [a, b) has positive sum iff
    P[b] > P[a], so cell x is covered iff max_{b > x} P[b] > min_{a <= x} P[a].
    With one_sided=True the interval must start at x, and the test is
    max_{b > x} P[b] > P[x].  This is the level-set primitive of
    :func:`maximal_1d_level` and :func:`strong_maximal_half_level`.
    """
    L, m = g.shape
    P = np.zeros((L, m + 1), dtype=np.int64)
    np.cumsum(g, axis=1, out=P[:, 1:])
    best_end = np.maximum.accumulate(P[:, :0:-1], axis=1)[:, ::-1]
    start = P[:, :-1] if one_sided else np.minimum.accumulate(P[:, :-1], axis=1)
    return best_end > start


@functools.lru_cache(maxsize=None)
def _fraction_at_most(delta, m: int) -> Fraction:
    """The largest p/q <= delta with 1 <= q <= m, from the exact value of delta.

    No average c/l with l <= m lies in (p/q, delta], so the strict
    thresholds "> delta" and "> p/q" select the same averages.  Memoised:
    a call builds m Fractions, and every enlargement makes four.
    """
    d = Fraction(delta)
    return max(Fraction(d.numerator * q // d.denominator, q) for q in range(1, m + 1))


def _occupied_window(mask: np.ndarray, thresholds) -> tuple[slice, slice]:
    """The window of a 2D mask outside which no interval averaging above a threshold reaches.

    thresholds holds one nonnegative Fraction p/q per axis.  Along an axis
    the mask's cells occupy the indices [s0, s1], a span of l = s1 - s0 + 1.
    An interval that meets the span in o <= l indices holds at most o
    cells, so if it averages more than p/q > 0 it is shorter than o q/p,
    and fewer than o (q - p)/p <= l (q - p)/p of its indices lie outside
    the span: it stays in [s0 - e, s1 + e] with e = ceil(l (q - p)/p) - 1,
    at least 0.  So a level set {average > p/q} of the mask is empty
    outside the window, and inside it equals the level set of the window
    taken as a grid of its own, since intervals never wrap.  p/q = 1/2
    gives e = l - 1; p/q >= 1 gives the span itself; p = 0 gives the whole
    axis.  An empty mask has the empty window (slice(0, 0), slice(0, 0)).
    """
    window = []
    for ax, t in enumerate(thresholds):
        occupied = np.logical_or.reduce(mask, axis=1 - ax)
        size, s0 = len(occupied), int(occupied.argmax())
        if not occupied[s0]:
            return slice(0, 0), slice(0, 0)
        s1 = size - 1 - int(occupied[::-1].argmax())
        p, q = t.numerator, t.denominator
        e = size if p == 0 else max(0, -(-(s1 - s0 + 1) * (q - p) // p) - 1)
        window.append(slice(max(0, s0 - e), min(size, s1 + 1 + e)))
    return tuple(window)


# across the lines of maximal_1d_level intervals have one cell, and the
# threshold 1 keeps just the occupied lines
_ONE, _HALF = Fraction(1), Fraction(1, 2)


def maximal_1d_level(U: CellSet, axis: int, delta, one_sided: bool = False) -> CellSet:
    """The level set {M 1_U > delta} of the uncentered 1D maximal function along one axis.

    M 1_U at a cell is the largest average of 1_U over intervals of
    consecutive cells of its line that contain it, without wrap-around;
    axis=1 runs along the first variable, axis=2 along the second.  With
    one_sided=True only intervals starting at the cell count.  That is the
    rising-sun form: its level sets obey the weak bound
    |{M 1_U > delta}| <= |U| / delta with constant exactly one, which the
    two-sided form does not (a single cell has a two-sided level set of
    5 cells at delta = 1/4).

    delta may be a float or a Fraction; either way it is decided on its
    exact value.  It is first replaced by p/q = _fraction_at_most(delta, m),
    which selects the same averages.  An interval [a, b) averages more than
    p/q iff q*count - p*(b - a) > 0, a positive sum of the weights
    q*1_U - p, which :func:`_covered` decides in O(m) per line; every
    integer stays below m^2 in size.  So an average of exactly 1/3 lies
    above the double nearest 1/3, which rounds down, and not above
    Fraction(1, 3).  delta must be nonnegative: below 0 every cell of every
    line would count, with or without U.

    The kernel runs on :func:`_occupied_window` of U's lines.  Across lines
    it keeps the first occupied line to the last: a line without U has
    only weights -p, none covered for p >= 0.  Along them it keeps U's
    occupied span of l cells widened by e = ceil(l (q - p)/p) - 1 cells on
    each side (clipped to the grid, and the whole line when p = 0), since
    an interval averaging more than p/q reaches fewer than l (q - p)/p
    cells past the span.  So a set on a few lines costs O(lines x window),
    and a set spread over the grid the full O(m^2).  The covered cells are
    written into that window of an empty grid, which an empty U leaves
    empty.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    m = 1 << U.n
    t = _fraction_at_most(delta, m)
    lines = U.mask.T if axis == 1 else U.mask
    window = _occupied_window(lines, (_ONE, t))
    covered = np.zeros((m, m), dtype=bool)
    covered[window] = _covered(t.denominator * lines[window].astype(np.int64) - t.numerator, one_sided)
    return CellSet(U.n, covered.T if axis == 1 else covered)


def strong_maximal_half_level(U: CellSet) -> CellSet:
    """The level set {M_S 1_U > 1/2} of the strong maximal function, exactly.

    M_S 1_U at a cell is the largest average of 1_U over the axis-parallel
    cell rectangles that contain it.  Rows [r0, r1] x columns [a, b)
    average more than 1/2 exactly when 2*count - area > 0, a positive sum
    over columns [a, b) of the weights g = 2*colsum - (r1 - r0 + 1);
    :func:`_covered` finds the columns of each row range that such an
    interval covers.  A cell lies in the set iff some row range through its
    row covers its column.  One row start at a time handles every row end
    at once; every value is an integer, so the strict tie at exactly 1/2 is
    decided exactly.

    The set lives on :func:`_occupied_window` of U at 1/2 on both axes.
    The rows of a rectangle averaging more than 1/2 hold shares of U that
    are at most 1, nonzero only on U's occupied rows [s0, s1], and average
    more than 1/2.  The window's argument holds for such shares as it does
    for counts, so the rectangle sticks out of the span by at most
    l - 1 = s1 - s0 rows on each side, and likewise in columns.  The level
    set is empty outside that crop, and inside it equals the level set of
    U's cells in the crop taken as a window of their own, since rectangles
    never wrap.  The level set also commutes with transposition, so the
    row-start loop runs over the crop's shorter side: O(h^2 * w) on an
    h x w crop with h <= w, and O(m^3) only when U spreads over the whole
    grid.  An empty U has an empty level set.
    """
    m = 1 << U.n
    out = np.zeros((m, m), dtype=bool)
    crop = _occupied_window(U.mask, (_HALF, _HALF))
    # level is a view: writing to it fills the crop of out
    mask, level = U.mask[crop].astype(np.int64), out[crop]
    if mask.shape[0] > mask.shape[1]:
        mask, level = mask.T, level.T
    h = mask.shape[0]
    for r0 in range(h):
        heights = np.arange(1, h - r0 + 1)[:, None]
        covered = _covered(2 * np.cumsum(mask[r0:], axis=0) - heights)
        # a row r >= r0 is covered by a range [r0, r1] with r1 >= r
        level[r0:] |= np.logical_or.accumulate(covered[::-1], axis=0)[::-1]
    return CellSet(U.n, out)


def _integral_image(cells: np.ndarray) -> np.ndarray:
    """Zero-padded int32 prefix sums of a 2D grid: ii[r, c] sums the cells
    above-left of (r, c).  int32 holds the cell counts of grids up to 2^15
    cells a side, and it ran faster than int64 in rectangles_inside at
    n = 6."""
    m1, m2 = cells.shape
    ii = np.zeros((m1 + 1, m2 + 1), dtype=np.int32)
    np.cumsum(np.cumsum(cells, axis=0, dtype=np.int32), axis=1, out=ii[1:, 1:])
    return ii


def _box_sum(ii: np.ndarray, r0, r1, c0, c1) -> np.ndarray:
    """Mask cells in rows [r0, r1) x columns [c0, c1); index arrays broadcast."""
    return ii[r1, c1] - ii[r0, c1] - ii[r1, c0] + ii[r0, c0]


def interval_index(j, k):
    """Heap index 2^j - 1 + k of the dyadic interval (j, k); ints or int arrays.

    Heap order lists the intervals by scale, then position: the parent of
    index a is (a - 1) // 2.
    """
    return (1 << j) - 1 + k


def index_interval(a) -> tuple[np.ndarray, np.ndarray]:
    """The scales and positions (j, k) of heap indices a: the inverse of interval_index."""
    a = np.asarray(a, dtype=np.int64)
    # a + 1 = m 2^e with 1/2 <= m < 1, so j = e - 1 = floor(log2(a + 1))
    j = np.frexp(a + 1)[1].astype(np.int64) - 1
    return j, a - interval_index(j, 0)


def _interval_meta(max_scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Scale and position arrays for interval indices 0..2^(J+1)-2."""
    return index_interval(np.arange(2 ** (max_scale + 1) - 1))


@functools.lru_cache(maxsize=None)
def _interval_spans(max_scale: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-open cell spans of every interval index on the 2^n grid.

    Intervals finer than a cell map to the single cell containing them.
    The arrays are cached per (max_scale, n) and read-only.
    """
    j, k = _interval_meta(max_scale)
    coarse = j <= n
    start = np.where(coarse, k << np.maximum(n - j, 0), k >> np.maximum(j - n, 0))
    stop = np.where(coarse, (k + 1) << np.maximum(n - j, 0), start + 1)
    spans = start.astype(np.int64), stop.astype(np.int64)
    for s in spans:
        s.flags.writeable = False
    return spans


def _span_box_sums(cells: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """(K, K) table of the sums of cells over [s0[a1], s1[a1]) x [s0[a2], s1[a2]).

    The box sums difference the integral image along one axis and then the
    other, two gathers of K rows each instead of four of K x K corners.
    """
    ii = _integral_image(cells)
    rows = ii[s1, :] - ii[s0, :]
    return rows[:, s1] - rows[:, s0]


def _spans_inside(mask: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """(K, K) table: True where the box [s0[a1], s1[a1]) x [s0[a2], s1[a2])
    lies in the mask."""
    return _span_box_sums(mask, s0, s1) == (s1 - s0)[:, None] * (s1 - s0)[None, :]


def rectangles_inside(U: CellSet, max_scale: int) -> np.ndarray:
    """Boolean (K, K) array marking rectangles contained in the cell union.

    Entry [a1, a2] corresponds to the rectangle I_{a1} x I_{a2} in interval
    index order; containment means every covered cell of U's grid lies in U.
    """
    return _spans_inside(U.mask, *_interval_spans(max_scale, U.n))


def save_signal(path, sig) -> None:
    """Write a signal as a JSON header line plus little-endian float64 (re, im) pairs."""
    samples = sig.samples
    dims = list(samples.shape)
    inter = np.empty(samples.size * 2, dtype="<f8")
    flat = samples.ravel()
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write((json.dumps({"dims": dims}) + "\n").encode("utf-8"))
        fh.write(inter.tobytes())


def load_signal(path):
    """Inverse of :func:`save_signal`; returns GridSignal1D or GridSignal2D.

    Rejects a header that is not a JSON object whose dims is a list of one
    or two positive ints, a payload whose sample count does not match the
    dims, and non-finite samples.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    dims = header.get("dims") if isinstance(header, dict) else None
    listed = isinstance(dims, list) and len(dims) in (1, 2)
    if not listed or any(type(d) is not int or d < 1 for d in dims):
        raise ValueError(f"signal header needs dims, a list of one or two positive ints: {header!r}")
    need = int(np.prod(dims))
    if raw.size != 2 * need:
        raise ValueError(f"payload holds {raw.size / 2:g} samples, dims {dims} need {need}")
    if not np.all(np.isfinite(raw)):
        raise ValueError("signal has non-finite samples")
    flat = raw[0::2] + 1j * raw[1::2]
    return (GridSignal1D if len(dims) == 1 else GridSignal2D)(flat.reshape(dims))
