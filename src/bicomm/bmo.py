"""Rectangular and product BMO functionals on wavelet coefficients.

The rectangular functional is an exact supremum over dyadic rectangles,
computed by accumulating coefficient energy over the dyadic tree in each
axis.  The product functional's supremum over open sets is approximated
from below by unions of grid cells: a greedy search over dyadic squares
seeded at the rectangular witness, run until no square improves the
ratio, or an exhaustive scan of every cell union when the grid is small
enough to afford it (resolution n <= 2).  Estimates carry the witness set
achieving them so certificates can be re-checked after the fact.

Every containment, of an interval in an interval, of a rectangle in a
cell union or of a cell in a rectangle, is read off the cached cell spans
of the dyadic intervals (grid._interval_spans), with box sums over one
integral image where cells are counted.

Open sets are always unions of cells of the 2^n x 2^n partition; an
arbitrary open set's coefficient sum is approached from within by such
unions as n grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    CellSet,
    _interval_meta,
    _interval_spans,
    _span_box_sums,
    _spans_inside,
    rectangles_inside,
)
from .wavelets import WaveletCoefficients

_EXHAUSTIVE_MAX_SCALE = 2
_CERT_TOL = 1e-12


def _subtree_energy(c: WaveletCoefficients) -> np.ndarray:
    """E[a1, a2] = sum of |c_R|^2 over rectangles R inside I_{a1} x I_{a2}.

    C[a, b] says interval b lies in interval a: its cell span at the finest
    scale lies in a's.
    """
    s0, s1 = _interval_spans(c.max_scale, c.max_scale)
    C = ((s0[:, None] <= s0) & (s1 <= s1[:, None])).astype(np.float64)
    A = np.abs(c.matrix) ** 2
    return C @ A @ C.T


def coefficient_energy(c: WaveletCoefficients, U: CellSet) -> float:
    """Sum of |c_R|^2 over rectangles contained in U."""
    inside = rectangles_inside(U, c.max_scale)
    return float(np.sum(np.abs(c.matrix) ** 2 * inside))


@dataclass(frozen=True)
class BmoEstimate:
    """A lower bound for a BMO-type supremum together with its witness.

    exact=True means the search space was covered exhaustively (all dyadic
    rectangles for the rectangular functional, all cell unions for the
    product functional at tiny resolution), so the value is the supremum
    over that space rather than a bound.
    """

    value: float
    witness: CellSet
    exact: bool

    def recheck(self, c: WaveletCoefficients) -> bool:
        """Certificate: value^2 * |witness| <= energy inside the witness."""
        lhs = self.value**2 * self.witness.measure()
        return lhs <= coefficient_energy(c, self.witness) + _CERT_TOL


def rect_bmo(c: WaveletCoefficients) -> BmoEstimate:
    """Exact sup over dyadic rectangles S of sqrt(|S|^{-1} sum_{R in S} |c_R|^2).

    Ties break toward the first rectangle in (j1, j2, k1, k2) order.  The
    witness is returned as a cell union at resolution n = max_scale.
    """
    J = c.max_scale
    j, _ = _interval_meta(J)
    ratio = _subtree_energy(c) * 2.0 ** (j[:, None] + j[None, :])
    best = ratio.max()
    a1, a2 = np.nonzero(ratio == best)
    # heap order within a scale is k order, so the last two keys order k1, k2
    first = np.lexsort((a2, a1, j[a2], j[a1]))[0]
    a1, a2 = a1[first], a2[first]
    s0, s1 = _interval_spans(J, J)
    mask = np.zeros((1 << J, 1 << J), dtype=bool)
    mask[s0[a1] : s1[a1], s0[a2] : s1[a2]] = True
    return BmoEstimate(float(np.sqrt(best)), CellSet(J, mask), exact=True)


def _square_spans(n: int) -> list[tuple[int, int, int, int]]:
    """Cell spans of all dyadic squares at scales 0..n, in (j, k1, k2) order:
    the pairs of equal-scale interval spans."""
    s0, s1 = _interval_spans(n, n)
    j, _ = _interval_meta(n)
    a1, a2 = np.nonzero(j[:, None] == j[None, :])
    return list(zip(s0[a1].tolist(), s1[a1].tolist(), s0[a2].tolist(), s1[a2].tolist()))


def _greedy_search(c: WaveletCoefficients, seed: BmoEstimate) -> tuple[np.ndarray, float, float]:
    """Grow the rectangular witness seed (rect_bmo(c)) by dyadic squares with
    the best marginal gain.

    Returns the final mask, its energy and its measure.  Each step adds the
    square maximizing the marginal energy-to-measure gain, accepted only
    while the overall ratio improves.  Every accepted square adds a cell, so
    the search stops within 4^n steps.
    """
    n = c.max_scale
    c_abs2 = np.abs(c.matrix) ** 2
    s0, s1 = _interval_spans(n, n)
    mask = seed.witness.mask.copy()
    cell_area = 4.0**-n
    cur_e = float(np.sum(c_abs2[_spans_inside(mask, s0, s1)]))
    cur_m = float(np.count_nonzero(mask)) * cell_area
    squares = _square_spans(n)
    while True:
        best_gain = -np.inf
        best = None
        for r0, r1, q0, q1 in squares:
            new_cells = int(np.count_nonzero(~mask[r0:r1, q0:q1]))
            if new_cells == 0:
                continue
            trial = mask.copy()
            trial[r0:r1, q0:q1] = True
            e = float(np.sum(c_abs2[_spans_inside(trial, s0, s1)]))
            gain = (e - cur_e) / (new_cells * cell_area)
            if gain > best_gain:
                best_gain = gain
                best = (trial, e, cur_m + new_cells * cell_area)
        if best is None:
            break
        trial, e, m = best
        if e / m <= cur_e / cur_m:
            break
        mask, cur_e, cur_m = trial, e, m
    return mask, cur_e, cur_m


def _exhaustive_scan(c: WaveletCoefficients) -> BmoEstimate:
    """Scan every nonempty cell union at resolution n <= 2 (<= 65535 sets)."""
    n = c.max_scale
    m = 1 << n
    cells = m * m
    # cell (i1, i2) is bit i1*m + i2; the bits of a box are disjoint, so
    # their sum is the box's cell set
    cell_bits = (1 << np.arange(cells, dtype=np.int64)).reshape(m, m)
    rmask = _span_box_sums(cell_bits, *_interval_spans(n, n)).astype(np.uint32)
    energies = (np.abs(c.matrix) ** 2).ravel()
    flat_rmask = rmask.ravel()
    sets = np.arange(1, 2**cells, dtype=np.uint32)
    contained = (sets[:, None] & flat_rmask[None, :]) == flat_rmask[None, :]
    e = contained @ energies
    meas = np.bitwise_count(sets).astype(np.float64) * 4.0**-n
    ratio = e / meas
    idx = int(np.argmax(ratio))
    bits = (sets[idx] >> np.arange(cells, dtype=np.uint32)) & 1
    witness = CellSet(n, bits.astype(bool).reshape(m, m))
    return BmoEstimate(float(np.sqrt(ratio[idx])), witness, exact=True)


def product_bmo_lower(c: WaveletCoefficients, method: str = "auto") -> BmoEstimate:
    """Certified lower bound for the open-set supremum of the BMO ratio.

    method='exhaustive' scans all cell unions (only at max_scale <= 2),
    'greedy' runs the seeded square-growing search, and 'auto' picks
    exhaustive when affordable.  The greedy result is a lower bound with a
    witness; its search runs until no square improves the ratio.  Both searches cover rect_bmo's witness but sum its energy in
    another order, so the result is the larger of the search's value and
    rect_bmo's: it dominates rect_bmo to the last bit.  Greedy cost grows with
    4^max_scale per step, so it is intended for the small resolutions the
    experiments use.
    """
    if method not in ("auto", "greedy", "exhaustive"):
        raise ValueError(f"unknown method {method!r}")
    exhaustive = method == "exhaustive" or (method == "auto" and c.max_scale <= _EXHAUSTIVE_MAX_SCALE)
    if exhaustive and c.max_scale > _EXHAUSTIVE_MAX_SCALE:
        raise ValueError("exhaustive scan needs max_scale <= 2")
    rect = rect_bmo(c)
    if exhaustive:
        est = _exhaustive_scan(c)
    else:
        mask, e, m = _greedy_search(c, rect)
        est = BmoEstimate(float(np.sqrt(e / m)), CellSet(c.max_scale, mask), exact=False)
    if est.value >= rect.value:
        return est
    return BmoEstimate(rect.value, rect.witness, est.exact)
