"""Rectangle combinatorics: maximal rectangles, embeddedness, thinning.

Implements the geometric side of the two-parameter theory on the cell
grid: maximal dyadic rectangles of an open set, the two-fold enlargement
built from iterated one-parameter maximal functions, the embeddedness
quantities mu (centered dilation inside the enlargement) and nu
(first-axis dilation inside the strong-maximal half-level set), the
weighted rectangle sum they control, bad classes, arithmetic-progression
thinning, scale strata, and the row-of-squares example separating nu
from mu.

A collection of dyadic rectangles is one sorted integer array of keys
(j1, k1, j2, k2); rectangle objects are built only when a caller
iterates over it.

Dilations never wrap: the grid is treated as a window on the plane, and
any part of a dilate falling outside [0,1)^2 fails containment.  The
supremum defining mu and nu is attained at a grid-line crossing of the
dilate boundary and is computed exactly over those finitely many
crossing values, in integer half-cell units: a cell rectangle [a, b) has
integer center C = a + b and half-width W = b - a, grid line p sits at
2p, and the crossing of line p is the ratio |2p - C| / W of two small
integers.  The rasterized dilate only grows with the factor, so
containment is monotone in it: the supremum is the largest crossing
whose dilate stays inside, and a bisection over each axis's crossings
finds it in about log2(m) box sums per rectangle.  Rasterized spans are
floors and ceilings of integer quotients, so non-dyadic square sizes (the
row of squares has side 3 cells and period 5) stay exact, and every
maximal rectangle of a set is bisected at once, in numpy, over one
integral image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    CellRect,
    CellSet,
    DyadicRectangle,
    _box_sum,
    _integral_image,
    _interval_meta,
    _interval_spans,
    interval_index,
    maximal_1d_level,
    rectangles_inside,
    strong_maximal_half_level,
)


@dataclass(frozen=True, eq=False)
class RectCollection:
    """A duplicate-free collection of dyadic rectangles at resolution n.

    keys is a read-only (R, 4) int64 array of rows (j1, k1, j2, k2),
    sorted in that order, which is the dataclass order of DyadicRectangle.
    """

    n: int
    keys: np.ndarray

    def __post_init__(self):
        keys = np.asarray(self.keys, dtype=np.int64).reshape(-1, 4)
        j, k = keys[:, 0::2], keys[:, 1::2]
        if np.any((j < 0) | (j > self.n) | (k >> j != 0)):
            raise ValueError(f"rectangle key out of range at resolution {self.n}")
        keys = keys[np.lexsort(keys.T[::-1])]
        if np.any(np.all(keys[1:] == keys[:-1], axis=1)):
            raise ValueError("duplicate rectangles in collection")
        keys.flags.writeable = False
        object.__setattr__(self, "keys", keys)

    @property
    def rectangles(self) -> tuple[DyadicRectangle, ...]:
        return tuple(DyadicRectangle.from_indices(*key) for key in self.keys.tolist())

    def spans(self) -> np.ndarray:
        """(R, 4) int64 array of the cell spans (a1, b1, a2, b2) at resolution n."""
        s0, s1 = _interval_spans(self.n, self.n)
        h = interval_index(self.keys[:, 0::2], self.keys[:, 1::2])
        return np.stack([s0[h], s1[h]], axis=2).reshape(-1, 4)

    def __iter__(self):
        return iter(self.rectangles)

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RectCollection):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.keys, other.keys)


@dataclass(frozen=True)
class EmbeddednessReport:
    """mu and nu for one rectangle."""

    mu: float
    nu: float


def maximal_rectangles(U: CellSet) -> RectCollection:
    """All dyadic rectangles inside U that are maximal under inclusion.

    A contained rectangle is non-maximal exactly when widening it one
    dyadic level in some axis stays inside U, so it suffices to test the
    two axis parents, which in heap index order sit at (a - 1) // 2.
    Heap index order is key order, so the keys come out sorted.
    """
    inside = rectangles_inside(U, U.n)
    idx = np.arange(inside.shape[0])
    parent, has_parent = (idx - 1) // 2, idx > 0
    good = inside & ~(inside[parent, :] & has_parent[:, None])
    good &= ~(inside[:, parent] & has_parent[None, :])
    j, k = _interval_meta(U.n)
    a, b = np.nonzero(good)
    return RectCollection(U.n, np.stack([j[a], k[a], j[b], k[b]], axis=1))


def enlargement(U: CellSet, delta: float) -> CellSet:
    """V = V12 | V21, each a composition of thresholded 1D maximal functions.

    V12 = {M1 1_{{M2 1_U > delta}} > delta} and symmetrically; thresholds
    are strict and decided exactly, on the exact value of delta, by
    :func:`maximal_1d_level` in O(m^2) per level set.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    v12 = maximal_1d_level(maximal_1d_level(U, 2, delta), 1, delta)
    v21 = maximal_1d_level(maximal_1d_level(U, 1, delta), 2, delta)
    return v12 | v21


def _half_cell_span(center, half, num, den):
    """Cells [lo, hi) met by the dilate by num/den of a span with center C and
    half-width W in half-cell units: floor and ceil of (C -+ (num/den) W) / 2.
    The span is symmetric about C / 2, so hi = C - lo and one floor division does."""
    lo = (center * den - num * half) // (2 * den)
    return lo, center - lo


def _dilation_limits(
    ii: np.ndarray, spans: np.ndarray, first_axis_only: bool = False
) -> np.ndarray:
    """Largest grid-line crossing lambda whose centered dilate stays inside a set.

    ii is the integral image of the set; spans is an (R, 4) int64 array of
    cell rectangles (a1, b1, a2, b2).  In half-cell units a span [a, b) has
    center C = a + b and half-width W = b - a, and its crossings on its own axis
    are lambda = d / W with d = |2p - C| over the grid lines p, so d runs
    over C mod 2, C mod 2 + 2, ...  There the dilate is exactly the
    concentric span [(C - d)/2, (C + d)/2), inside the grid while
    d <= min(C, 2m - C); the other axis rasterizes to
    _half_cell_span(C', W', d, W).  Every end of both spans moves outward as
    d grows, so containment is monotone in d: a dilate inside the set keeps
    every smaller one inside.  Each axis therefore bisects, for all
    rectangles at once, for the largest d that passes, in about log2(m)
    box sums.  The result is the larger of the two axes' crossings as the
    float d / W, 0.0 where none passes.  With first_axis_only, crossings
    come from the first axis alone and the second-axis span stays [a2, b2).
    """
    m = ii.shape[0] - 1
    a1, b1, a2, b2 = spans.T
    center, half = (a1 + b1, a2 + b2), (b1 - a1, b2 - a2)
    out = np.zeros(len(spans))
    for ax in (0,) if first_axis_only else (0, 1):
        C, W = center[ax], half[ax]
        parity = C % 2
        last = (np.minimum(C, 2 * m - C) - parity) // 2
        # t = -1 stands for no passing crossing; steps 2^k, ..., 1 reach every t <= last
        t = np.full(len(spans), -1)
        for k in reversed(range(int(last.max(initial=0) + 1).bit_length())):
            cand = t + (1 << k)
            d = parity + 2 * np.minimum(cand, last)
            own = (C - d) // 2, (C + d) // 2
            other = (a2, b2) if first_axis_only else _half_cell_span(center[1 - ax], half[1 - ax], d, W)
            ok = (cand <= last) & (other[0] >= 0) & (other[1] <= m)
            # only the low end can fall below 0, and only the high end can pass m
            other = np.maximum(other[0], 0), np.minimum(other[1], m)
            box = (*own, *other) if ax == 0 else (*other, *own)
            # the own-axis span has exactly d cells
            ok &= _box_sum(ii, *box) == d * (other[1] - other[0])
            t = np.where(ok, cand, t)
        out = np.maximum(out, np.where(t >= 0, (parity + 2 * t) / W, 0.0))
    return out


def embeddedness(R: CellRect, V: CellSet, U: CellSet) -> EmbeddednessReport:
    """mu and nu of a rectangle: how far it dilates inside the enlargement.

    mu is the largest lambda with the centered dilate lambda*R (both axes
    scaled) rasterized inside V.  nu scales the first axis only and asks
    for containment in {M_S 1_U > 1/2}, taken exactly from
    strong_maximal_half_level.  R is a CellRect on V's grid (a dyadic
    rectangle passes R.to_cellrect(V.n)), and U lives on that grid too.
    This is the batched kernel of journe_sum and stratify run on one
    rectangle.
    """
    if R.n != V.n or U.n != V.n:
        raise ValueError("R, V and U must lie on one cell grid")
    spans = np.array([[R.a1, R.b1, R.a2, R.b2]], dtype=np.int64)
    mu = float(_dilation_limits(_integral_image(V.mask), spans)[0])
    level = strong_maximal_half_level(U)
    nu = float(_dilation_limits(_integral_image(level.mask), spans, first_axis_only=True)[0])
    return EmbeddednessReport(mu, nu)


@dataclass(frozen=True)
class JourneSum:
    """The sum and its ratio to |U|, with the maximal rectangles and their mu."""

    value: float
    ratio: float
    rectangles: RectCollection
    mus: tuple[float, ...]


def journe_sum(U: CellSet, delta: float, epsilon: float) -> JourneSum:
    """sum over maximal rectangles of mu_delta(R)^(-epsilon) |R|, and its ratio to |U|.

    Every maximal rectangle sits inside U, and U sits inside its
    enlargement, so each mu is at least 1 and each term is at most |R|.
    """
    if not 0.0 < delta < 1.0 or not 0.0 < epsilon < 1.0:
        raise ValueError("delta and epsilon must lie in (0,1)")
    V = enlargement(U, delta)
    rects = maximal_rectangles(U)
    mus = _dilation_limits(_integral_image(V.mask), rects.spans()).tolist()
    areas = (2.0 ** -(rects.keys[:, 0] + rects.keys[:, 2])).tolist()
    total = 0.0
    # a sequential sum of Python floats, so that the value keeps its last bit
    for mu, area in zip(mus, areas):
        total += mu**-epsilon * area
    meas = U.measure()
    ratio = total / meas if meas > 0.0 else 0.0
    return JourneSum(total, ratio, rects, tuple(mus))


def bad_class(S: RectCollection, axis: int, gamma: float) -> RectCollection:
    """Members covered more than gamma-fraction by strictly axis-wider peers.

    R is bad when the union of the rectangles of S - {R} whose side in
    the given axis is strictly longer than R's covers more than gamma|R|
    of R.  Coverage is exact cell counting; the inequality is strict.
    Side lengths are taken longest first, so one growing union of the
    longer-sided members serves every member of a length through one
    integral image.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0,1)")
    n = S.n
    spans = S.spans()
    a1, b1, a2, b2 = spans.T
    sides = b1 - a1 if axis == 1 else b2 - a2
    covered = np.zeros(len(S), dtype=np.int64)
    union = np.zeros((1 << n, 1 << n), dtype=bool)
    lengths = np.unique(sides)[::-1]
    # the longest members have no wider peers and stay uncovered
    for wider, side in zip(lengths, lengths[1:]):
        for r0, r1, c0, c1 in spans[sides == wider].tolist():
            union[r0:r1, c0:c1] = True
        at = np.flatnonzero(sides == side)
        covered[at] = _box_sum(_integral_image(union), a1[at], b1[at], a2[at], b2[at])
    # gamma|R| in cells: the common factor 4^-n is a power of two
    bad = covered > gamma * ((b1 - a1) * (b2 - a2))
    return RectCollection(n, S.keys[bad])


def thin_collection(S: RectCollection, mu: float, gamma: float) -> list[RectCollection]:
    """Split S by scale residues mod d so comparable sides are far apart.

    d = ceil(log2(32 mu / (1 - gamma))).  Within a subclass, two distinct
    side lengths in the same axis differ by a factor of at least 2^d,
    which exceeds 16 mu (1 - gamma)^{-1}.  Returns the nonempty
    subclasses in residue order.
    """
    if mu < 1.0:
        raise ValueError("mu must be at least 1")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0,1)")
    d = math.ceil(math.log2(32.0 * mu / (1.0 - gamma)))
    # (j1 mod d, j2 mod d) as one integer, in residue order
    residue = (S.keys[:, 0] % d) * d + S.keys[:, 2] % d
    return [RectCollection(S.n, S.keys[residue == r]) for r in np.unique(residue)]


def stratify(Ucol: RectCollection, V: CellSet) -> dict[int, RectCollection]:
    """Group rectangles by dyadic strata of mu: k=0 for mu <= 1, else 2^{k-1} < mu <= 2^k."""
    mus = _dilation_limits(_integral_image(V.mask), Ucol.spans()).tolist()
    strata = np.array([0 if mu <= 1.0 else math.ceil(math.log2(mu)) for mu in mus], dtype=np.int64)
    return {int(k): RectCollection(Ucol.n, Ucol.keys[strata == k]) for k in np.unique(strata)}


# a row of squares fills 3 cells of every 5 along the first axis: the density
# 3/5 is above 1/2, so the strong-maximal half-level set spans the whole row
_ROW_SIDE = 3
_ROW_PERIOD = 5


@dataclass(frozen=True)
class RowOfSquares:
    """A horizontal row of K congruent squares: its cells, the squares and the middle one."""

    cells: CellSet
    squares: tuple[CellRect, ...]
    middle: CellRect


def row_resolution(K: int) -> int:
    """Grid resolution n of a row of K squares, without building its grid.

    The squares occupy _ROW_SIDE cells of every _ROW_PERIOD along the
    first axis, and n is the smallest fitting K periods: 2^n >= K * period.
    """
    if K < 2:
        raise ValueError(f"need at least two squares, got K={K}")
    return (K * _ROW_PERIOD - 1).bit_length()


def row_of_squares(K: int) -> RowOfSquares:
    """K evenly spaced congruent squares in a horizontal row on a grid of row_resolution(K)."""
    n = row_resolution(K)
    m = 1 << n
    mask = np.zeros((m, m), dtype=bool)
    squares = []
    for q in range(K):
        a = q * _ROW_PERIOD
        squares.append(CellRect(n, a, a + _ROW_SIDE, 0, _ROW_SIDE))
        mask[a : a + _ROW_SIDE, 0:_ROW_SIDE] = True
    return RowOfSquares(CellSet(n, mask), tuple(squares), squares[K // 2])
