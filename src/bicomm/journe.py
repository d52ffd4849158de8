"""Rectangle combinatorics: maximal rectangles, embeddedness, thinning.

Implements the geometric side of the two-parameter theory on the cell
grid: maximal dyadic rectangles of an open set, the two-fold enlargement
built from iterated one-parameter maximal functions, the embeddedness
quantities mu (centered dilation inside the enlargement) and nu
(first-axis dilation inside the strong-maximal half-level set), the
weighted rectangle sum they control, bad classes, arithmetic-progression
thinning, scale strata, and the row-of-squares example separating nu
from mu.

Dilations never wrap: the grid is treated as a window on the plane, and
any part of a dilate falling outside [0,1)^2 fails containment.  The
supremum defining mu and nu is attained at a grid-line crossing of the
dilate boundary and is computed exactly over those finitely many
crossing values, in integer half-cell units: a cell rectangle [a, b) has
integer center C = a + b and half-width W = b - a, grid line p sits at
2p, and the crossing of line p is the ratio |2p - C| / W of two small
integers.  Rasterized spans are floors and ceilings of integer
quotients, so non-dyadic square sizes (the row of squares has side 3
cells and period 5) stay exact, and every maximal rectangle of a set is
handled in one numpy pass over one integral image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grid import (
    CellRect,
    CellSet,
    DyadicRectangle,
    _box_sum,
    _integral_image,
    _interval_meta,
    maximal_1d_level,
    rectangles_inside,
    strong_maximal_half_level,
)


def _rect_key(R: DyadicRectangle) -> tuple[int, int, int, int]:
    """(j1, k1, j2, k2), whose tuple order is the dataclass order of R."""
    return R.interval1.j, R.interval1.k, R.interval2.j, R.interval2.k


@dataclass(frozen=True)
class RectCollection:
    """A duplicate-free collection of dyadic rectangles at resolution n.

    Rectangles are kept sorted by (j1, k1, j2, k2).  attrs carries
    optional per-rectangle annotations (mu, stratum) produced by the
    operations below; it does not participate in equality.
    """

    n: int
    rectangles: tuple[DyadicRectangle, ...]
    attrs: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        # sorting on integer keys gives the dataclass order at a fraction
        # of the cost of DyadicRectangle.__lt__
        by_key = {_rect_key(R): R for R in self.rectangles}
        if len(by_key) != len(self.rectangles):
            raise ValueError("duplicate rectangles in collection")
        keys = sorted(by_key)
        for j1, k1, j2, k2 in keys:
            if j1 > self.n or j2 > self.n:
                raise ValueError(f"{by_key[j1, k1, j2, k2]} is finer than resolution {self.n}")
        object.__setattr__(self, "rectangles", tuple(by_key[k] for k in keys))

    def __iter__(self):
        return iter(self.rectangles)

    def __len__(self) -> int:
        return len(self.rectangles)

    def __contains__(self, R: DyadicRectangle) -> bool:
        return R in set(self.rectangles)


@dataclass(frozen=True)
class EmbeddednessReport:
    """mu and nu for one rectangle; delta records the enlargement used."""

    rectangle: object
    mu: float
    nu: float
    delta: float


def maximal_rectangles(U: CellSet) -> RectCollection:
    """All dyadic rectangles inside U that are maximal under inclusion.

    A contained rectangle is non-maximal exactly when widening it one
    dyadic level in some axis stays inside U, so it suffices to test the
    two axis parents, which in heap index order sit at (a - 1) // 2.
    """
    inside = rectangles_inside(U, U.n)
    idx = np.arange(inside.shape[0])
    parent, has_parent = (idx - 1) // 2, idx > 0
    good = inside & ~(inside[parent, :] & has_parent[:, None])
    good &= ~(inside[:, parent] & has_parent[None, :])
    j, k = _interval_meta(U.n)
    rects = [
        DyadicRectangle.from_indices(int(j[a]), int(k[a]), int(j[b]), int(k[b]))
        for a, b in np.argwhere(good)
    ]
    return RectCollection(U.n, tuple(rects))


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


# crossing entries per block of the batched kernel, which bounds its memory
_CROSSING_BLOCK = 1 << 20


def _half_cell_span(center, half, num, den):
    """Cells [lo, hi) met by the dilate by num/den of a span with center C and
    half-width W in half-cell units: floor and ceil of (C -+ (num/den) W) / 2."""
    reach = num * half
    return (center * den - reach) // (2 * den), -((-center * den - reach) // (2 * den))


def _dilation_limits(
    ii: np.ndarray, spans: np.ndarray, first_axis_only: bool = False
) -> np.ndarray:
    """Largest grid-line crossing lambda whose centered dilate stays inside a set.

    ii is the integral image of the set; spans is an (R, 4) integer array of
    cell rectangles (a1, b1, a2, b2).  In half-cell units the crossing of
    line p on an axis is lambda = |2p - C| / W (p = C/2 excluded), and the
    dilate rasterizes to the cells [floor((C - lambda W)/2),
    ceil((C + lambda W)/2)), computed from lambda = num/den as integer
    quotients.  Crossings are sorted by the float num/den, which is exact:
    correctly rounded division is monotone, and distinct crossings differ
    by at least 1/m^2.  The result is the last crossing before the first
    dilate that leaves the set, 0.0 if the first one does, as float num/den.
    With first_axis_only, crossings come from the first axis alone and the
    second-axis span stays [a2, b2).
    """
    m = ii.shape[0] - 1
    out = np.empty(len(spans))
    lines = 2 * np.arange(m + 1)
    axes = (0,) if first_axis_only else (0, 1)
    step = max(1, _CROSSING_BLOCK // (len(axes) * (m + 1)))
    for start in range(0, len(spans), step):
        a1, b1, a2, b2 = (col[:, None] for col in spans[start : start + step].T)
        center, half = (a1 + b1, a2 + b2), (b1 - a1, b2 - a2)
        num = np.concatenate([np.abs(lines - center[ax]) for ax in axes], axis=1)
        den = np.concatenate([np.broadcast_to(half[ax], (len(a1), m + 1)) for ax in axes], axis=1)
        lam = np.where(num > 0, num / den, np.inf)
        order = np.argsort(lam, axis=1, kind="stable")
        num, den, lam = (np.take_along_axis(x, order, axis=1) for x in (num, den, lam))
        r0, r1 = _half_cell_span(center[0], half[0], num, den)
        c0, c1 = (a2, b2) if first_axis_only else _half_cell_span(center[1], half[1], num, den)
        inside = (r0 >= 0) & (c0 >= 0) & (r1 <= m) & (c1 <= m) & np.isfinite(lam)
        r0, r1, c0, c1 = (np.clip(x, 0, m) for x in (r0, r1, c0, c1))
        inside &= _box_sum(ii, r0, r1, c0, c1) == (r1 - r0) * (c1 - c0)
        # first failing crossing; a sentinel column fails for every rectangle
        first = np.argmin(np.pad(inside, ((0, 0), (0, 1))), axis=1)
        last = lam[np.arange(len(first)), np.maximum(first - 1, 0)]
        out[start : start + len(first)] = np.where(first > 0, last, 0.0)
    return out


def _cell_spans(rects, n: int) -> np.ndarray:
    """(len(rects), 4) int64 array of the cell spans (a1, b1, a2, b2) of dyadic rectangles."""
    return np.array(
        [R.interval1.cell_span(n) + R.interval2.cell_span(n) for R in rects], dtype=np.int64
    ).reshape(-1, 4)


def _maximal_mus(rects, V: CellSet) -> list[float]:
    """mu of each dyadic rectangle of rects inside V, in one batched pass."""
    return _dilation_limits(_integral_image(V.mask), _cell_spans(rects, V.n)).tolist()


def embeddedness(
    R,
    V: CellSet,
    mode: str = "both_axes",
    U: CellSet | None = None,
    delta: float = float("nan"),
) -> EmbeddednessReport:
    """mu and nu of a rectangle: how far it dilates inside the enlargement.

    mu is the largest lambda with the centered dilate lambda*R (both axes
    scaled) rasterized inside V.  nu scales the first axis only and asks
    for containment in {M_S 1_U > 1/2}, taken exactly from
    strong_maximal_half_level; it needs U, which is mandatory for
    mode='first_axis_only' and optional otherwise (nu is NaN when U is
    absent).  R may be a DyadicRectangle or a CellRect.  This is the batched
    kernel of journe_sum and stratify run on one rectangle.
    """
    if mode not in ("both_axes", "first_axis_only"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "first_axis_only" and U is None:
        raise ValueError("mode='first_axis_only' requires U")
    n = V.n
    cr = R.to_cellrect(n) if isinstance(R, DyadicRectangle) else R
    spans = np.array([[cr.a1, cr.b1, cr.a2, cr.b2]], dtype=np.int64)
    mu = float(_dilation_limits(_integral_image(V.mask), spans)[0])
    nu = float("nan")
    if U is not None:
        level = strong_maximal_half_level(U)
        nu = float(_dilation_limits(_integral_image(level.mask), spans, first_axis_only=True)[0])
    return EmbeddednessReport(R, mu, nu, delta)


@dataclass(frozen=True)
class JourneSum:
    value: float
    ratio: float
    table: tuple[EmbeddednessReport, ...]


def journe_sum(U: CellSet, delta: float, epsilon: float) -> JourneSum:
    """sum over maximal rectangles of mu_delta(R)^(-epsilon) |R|, and its ratio to |U|.

    Every maximal rectangle sits inside U, and U sits inside its
    enlargement, so each mu is at least 1 and each term is at most |R|.
    """
    if not 0.0 < delta < 1.0 or not 0.0 < epsilon < 1.0:
        raise ValueError("delta and epsilon must lie in (0,1)")
    V = enlargement(U, delta)
    rects = maximal_rectangles(U)
    reports = []
    total = 0.0
    # a sequential sum, so that the value keeps its last bit
    for R, mu in zip(rects, _maximal_mus(rects, V)):
        reports.append(EmbeddednessReport(R, mu, float("nan"), delta))
        total += mu**-epsilon * R.area
    meas = U.measure()
    ratio = total / meas if meas > 0.0 else 0.0
    return JourneSum(total, ratio, tuple(reports))


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
    spans = _cell_spans(S, n)
    a1, b1, a2, b2 = spans.T
    sides = b1 - a1 if axis == 1 else b2 - a2
    covered = np.zeros(len(S), dtype=np.int64)
    union = np.zeros((1 << n, 1 << n), dtype=bool)
    for side in np.unique(sides)[::-1]:
        at = np.flatnonzero(sides == side)
        covered[at] = _box_sum(_integral_image(union), a1[at], b1[at], a2[at], b2[at])
        for r0, r1, c0, c1 in spans[at]:
            union[r0:r1, c0:c1] = True
    # gamma|R| in cells: the common factor 4^-n is a power of two
    bad = covered > gamma * ((b1 - a1) * (b2 - a2))
    return RectCollection(n, tuple(R for R, b in zip(S, bad) if b))


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
    groups: dict[tuple[int, int], list[DyadicRectangle]] = {}
    for R in S:
        j1, j2 = R.scales
        groups.setdefault((j1 % d, j2 % d), []).append(R)
    return [RectCollection(S.n, tuple(v)) for _, v in sorted(groups.items())]


def stratify(Ucol: RectCollection, V: CellSet) -> dict[int, RectCollection]:
    """Group rectangles by dyadic strata of mu: k=0 for mu <= 1, else 2^{k-1} < mu <= 2^k."""
    buckets: dict[int, list[DyadicRectangle]] = {}
    attrs: dict[DyadicRectangle, dict] = {}
    for R, mu in zip(Ucol, _maximal_mus(Ucol, V)):
        k = 0 if mu <= 1.0 else math.ceil(math.log2(mu))
        buckets.setdefault(k, []).append(R)
        attrs[R] = {"mu": mu, "stratum": k}
    return {
        k: RectCollection(Ucol.n, tuple(v), {R: attrs[R] for R in v})
        for k, v in sorted(buckets.items())
    }


@dataclass(frozen=True)
class RowOfSquares:
    """A horizontal row of K congruent squares and its layout parameters."""

    cells: CellSet
    squares: tuple[CellRect, ...]
    middle: CellRect
    n: int
    side: int
    period: int


def row_of_squares(K: int, density: float = 0.6) -> RowOfSquares:
    """K evenly spaced congruent squares in a horizontal row.

    The squares occupy `side` cells of every `period` cells along the
    first axis, with side/period matching the requested density (> 1/2,
    so the strong-maximal half-level set spans the whole row).  The grid
    resolution is the smallest n fitting K periods.
    """
    if K < 2:
        raise ValueError("need at least two squares")
    frac = Fraction(density).limit_denominator(64)
    if frac <= Fraction(1, 2) or frac >= 1:
        raise ValueError(f"infeasible layout: density {density} not in (1/2, 1)")
    side, period = frac.numerator, frac.denominator
    n = math.ceil(math.log2(K * period))
    m = 1 << n
    if K * period > m or side > m:
        raise ValueError("infeasible layout: row does not fit the grid")
    mask = np.zeros((m, m), dtype=bool)
    squares = []
    for q in range(K):
        a = q * period
        squares.append(CellRect(n, a, a + side, 0, side))
        mask[a : a + side, 0:side] = True
    return RowOfSquares(CellSet(n, mask), tuple(squares), squares[K // 2], n, side, period)
