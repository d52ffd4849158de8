"""Rectangle combinatorics: maximal rectangles, embeddedness, thinning.

Implements the geometric side of the two-parameter theory on the cell
grid: maximal dyadic rectangles of an open set, the two-fold enlargement
built from iterated one-parameter maximal functions, the embeddedness
quantities mu (centered dilation inside the enlargement) and nu
(first-axis dilation inside the strong-maximal half-level set), the
weighted rectangle sum they control, bad classes, arithmetic-progression
thinning, scale strata, and the row-of-squares example separating nu
from mu.

A collection of dyadic rectangles is one strictly increasing integer
array of keys (j1, k1, j2, k2); rectangle objects are built only when a
caller iterates over it.

Dilations never wrap: the grid is treated as a window on the plane, and
any part of a dilate falling outside [0,1)^2 fails containment.  The
supremum defining mu and nu is attained at a grid-line crossing of the
dilate boundary and is computed exactly over those finitely many
crossing values, in integer half-cell units: a cell rectangle [a, b) has
integer center C = a + b and half-width W = b - a, grid line p sits at
2p, and the crossing of line p is the ratio |2p - C| / W of two small
integers.  The rasterized dilate only grows with the factor, so
containment is monotone in it: the supremum is the largest crossing
whose dilate stays inside.  The largest crossing whose dilate stays in
the grid, the grid reach, has a closed form, so each axis first tests
the dilate at its reach with one box sum per rectangle, or with none when
the set fills the grid; only where that dilate meets a hole of the set
does a bisection over the crossings below the reach take about log2(m)
more.  Rasterized spans are floors and ceilings of integer quotients, so
non-dyadic square sizes (the row of squares has side 3 cells and period
5) stay exact, and every maximal rectangle of a set is probed and
bisected at once, in numpy, over one integral image.
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

    keys is a read-only (R, 4) int64 array of rows (j1, k1, j2, k2) that
    must arrive strictly increasing in that order, which is the dataclass
    order of DyadicRectangle; unsorted or repeated keys raise ValueError.
    maximal_rectangles makes them so, and bad_class, thin_collection and
    stratify keep ordered subsets.  The keys are copied, which keeps the
    collection apart from its caller's array.
    """

    n: int
    keys: np.ndarray

    def __post_init__(self):
        # a copy: the collection stays apart from its caller's array
        keys = np.array(self.keys, dtype=np.int64).reshape(-1, 4)
        j, k = keys[:, 0::2], keys[:, 1::2]
        if np.any((j < 0) | (j > self.n) | (k >> j != 0)):
            raise ValueError(f"rectangle key out of range at resolution {self.n}")
        # heap index order is (j, k) order, so one packed code h1 * H + h2
        # orders the keys and equal codes are equal keys
        h = interval_index(j, k)
        code = h[:, 0] * ((2 << self.n) - 1) + h[:, 1]
        if np.any(np.diff(code) <= 0):
            raise ValueError("rectangle keys must be strictly increasing")
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
    :func:`maximal_1d_level`, in O(m^2) per level set at most and on the
    window that its input occupies: U's occupied lines, with its span along
    them widened by about l (1 - delta)/delta cells for a span of l.  When
    V12 covers the grid, V = V12 and the two level sets of V21 are skipped.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    v12 = maximal_1d_level(maximal_1d_level(U, 2, delta), 1, delta)
    if v12.mask.all():
        return v12
    v21 = maximal_1d_level(maximal_1d_level(U, 1, delta), 2, delta)
    return v12 | v21


def _half_cell_span(center, half, num, den):
    """Cells [lo, hi) met by the dilate by num/den of a span with center C and
    half-width W in half-cell units: floor and ceil of (C -+ (num/den) W) / 2.
    The span is symmetric about C / 2, so hi = C - lo and one floor division does."""
    lo = (center * den - num * half) // (2 * den)
    return lo, center - lo


def _dilation_limits(
    mask: np.ndarray, spans: np.ndarray, first_axis_only: bool = False
) -> np.ndarray:
    """Largest grid-line crossing lambda whose centered dilate stays inside a set.

    mask is the set's boolean (m, m) mask; spans is an (R, 4) int64 array of
    cell rectangles (a1, b1, a2, b2).  In half-cell units a span [a, b) has
    center C = a + b and half-width W = b - a, and its crossings on its own axis
    are lambda = d / W with d = |2p - C| over the grid lines p, so d runs
    over C mod 2, C mod 2 + 2, ...  There the dilate is exactly the
    concentric span [(C - d)/2, (C + d)/2), inside the grid while
    d <= min(C, 2m - C); the other axis rasterizes to
    _half_cell_span(C', W', d, W), whose low end floor((C'W - dW') / 2W) is
    >= 0 iff d W' <= C' W, and whose high end C' minus it is <= m iff
    d W' <= (2m - C') W.  The grid reach, the largest d = C (mod 2) with
    d <= min(C, 2m - C) and d W' <= W min(C', 2m - C'), is therefore
    closed-form; it is at least W, since min(C, 2m - C) >= W and
    min(C', 2m - C') >= W'.  Every end of both spans moves outward as
    d grows, so containment is monotone in d: a dilate inside the set keeps
    every smaller one inside.  Each axis therefore tests the dilate at its
    reach once for every rectangle, and bisects, for the rectangles whose
    dilate there meets a hole, for the largest d below the reach that
    passes, in about log2(m) box sums over the set's integral image, all
    inside the grid.  The result is the larger of the two axes' crossings
    as the float d / W, 0.0 where none passes.  With first_axis_only,
    crossings come from the first axis alone, the second-axis span stays
    [a2, b2), and the reach is min(C, 2m - C).
    When the set fills the grid, every in-grid dilate lies inside it, and
    each axis takes its reach with no probe, no bisection and no integral
    image.
    """
    m = mask.shape[0]
    # a set that fills the grid needs no integral image
    ii = None if mask.all() else _integral_image(mask)
    a1, b1, a2, b2 = spans.T
    center, half = (a1 + b1, a2 + b2), (b1 - a1, b2 - a2)
    out = np.zeros(len(spans))
    for ax in (0,) if first_axis_only else (0, 1):
        C, W = center[ax], half[ax]
        parity = C % 2
        reach = np.minimum(C, 2 * m - C)
        if not first_axis_only:
            Co, Wo = center[1 - ax], half[1 - ax]
            reach = np.minimum(reach, W * np.minimum(Co, 2 * m - Co) // Wo)

        def inside(at, d):
            """Whether the in-grid dilate at crossing d of the rectangles at lies in the set."""
            own = (C[at] - d) // 2, (C[at] + d) // 2
            other = (a2[at], b2[at]) if first_axis_only else _half_cell_span(Co[at], Wo[at], d, W[at])
            box = (*own, *other) if ax == 0 else (*other, *own)
            # the own-axis span has exactly d cells
            return _box_sum(ii, *box) == d * (other[1] - other[0])

        # crossings run d = parity + 2t; reach >= W >= parity, so last >= 0
        last = (reach - parity) // 2
        if ii is None:
            out = np.maximum(out, (parity + 2 * last) / W)
            continue
        t = np.where(inside(slice(None), parity + 2 * last), last, -1)
        # bisect below the reach where the probe failed; t = -1 stands for no
        # passing crossing, and steps 2^k, ..., 1 reach every t <= top
        miss = np.flatnonzero((t < 0) & (last > 0))
        top = last[miss] - 1
        tm = np.full(len(miss), -1)
        for k in reversed(range(int(top.max(initial=-1) + 1).bit_length())):
            cand = tm + (1 << k)
            ok = (cand <= top) & inside(miss, parity[miss] + 2 * np.minimum(cand, top))
            tm = np.where(ok, cand, tm)
        t[miss] = tm
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
    mu = float(_dilation_limits(V.mask, spans)[0])
    nu = float(_dilation_limits(strong_maximal_half_level(U).mask, spans, first_axis_only=True)[0])
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
    mu = d / W takes few distinct values (about 32 over the ~1278 maximal
    rectangles of an n = 6 set), so each is raised once by Python's power,
    the libm pow that a per-term loop calls; numpy's power can take a
    vectorized path that rounds apart from it.  The terms are summed left to
    right by np.add.accumulate, which keeps the bits of the sequential
    Python sum; sum() compensates and np.sum sums pairwise, so neither does.
    """
    if not 0.0 < delta < 1.0 or not 0.0 < epsilon < 1.0:
        raise ValueError("delta and epsilon must lie in (0,1)")
    V = enlargement(U, delta)
    rects = maximal_rectangles(U)
    mus = _dilation_limits(V.mask, rects.spans())
    distinct, at = np.unique(mus, return_inverse=True)
    powers = np.array([mu**-epsilon for mu in distinct.tolist()])
    terms = powers[at] * 2.0 ** -(rects.keys[:, 0] + rects.keys[:, 2])
    total = float(np.add.accumulate(terms)[-1]) if len(terms) else 0.0
    meas = U.measure()
    ratio = total / meas if meas > 0.0 else 0.0
    return JourneSum(total, ratio, rects, tuple(mus.tolist()))


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
    """Group rectangles by dyadic strata of mu: k=0 for mu <= 1, else 2^{k-1} < mu <= 2^k.

    frexp writes mu = f 2^e with 1/2 <= f < 1, so 2^{e-1} <= mu < 2^e, and
    k = e unless mu = 2^{e-1} exactly (f = 1/2), where k = e - 1: exact,
    with no rounded logarithm.
    """
    mus = _dilation_limits(V.mask, Ucol.spans())
    f, e = np.frexp(mus)
    strata = np.where(mus <= 1.0, 0, e - (f == 0.5))
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
