"""Rectangular and product BMO functionals on wavelet coefficients.

The rectangular functional is an exact supremum over dyadic rectangles,
computed by accumulating coefficient energy over the dyadic tree in each
axis.  The product functional's supremum over open sets is approximated
from below by unions of grid cells: a greedy search over dyadic squares
seeded at the rectangular witness, run until no square improves the
ratio, or an exhaustive scan of every cell union when the grid is small
enough to afford it (resolution n <= 2).  Each greedy step scores every
square at once, in blocks of stacked trial masks.  Estimates carry the
witness set achieving them so certificates can be re-checked after the
fact.

Every containment, of an interval in an interval, of a rectangle in a
cell union or of a cell in a rectangle, is read off the cached cell spans
of the dyadic intervals (grid._interval_spans), with box sums over one
integral image where cells are counted.

Open sets are always unions of cells of the 2^n x 2^n partition; an
arbitrary open set's coefficient sum is approached from within by such
unions as n grows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import (
    CellSet,
    _box_sum,
    _integral_image,
    _interval_meta,
    _interval_spans,
    _span_box_sums,
    _spans_inside,
    rectangles_inside,
)
from .wavelets import WaveletCoefficients

_EXHAUSTIVE_MAX_SCALE = 2
# squares a greedy step scores at once: at n = 5 a search with blocks of 64
# peaks at about 4 MiB of arrays, one with every square at once at about 80 MiB
_GREEDY_BLOCK = 64
# cell unions the exhaustive scan tests at once: its (sets, rectangles)
# containment table goes to float64 for the energy product, 25.7 MB for all
# 65,535 unions at n = 2 and 1.6 MB for a block of 4096
_SCAN_BLOCK = 4096
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


@functools.lru_cache(maxsize=None)
def _square_cells(n: int) -> tuple[np.ndarray, ...]:
    """The spans r0, r1, q0, q1 of _square_spans(n) as arrays, and each
    square's (S, 2^n) row and column indicators; cached and read-only."""
    r0, r1, q0, q1 = np.array(_square_spans(n)).T
    cells = np.arange(1 << n)
    in_rows = (r0[:, None] <= cells) & (cells < r1[:, None])
    in_cols = (q0[:, None] <= cells) & (cells < q1[:, None])
    arrays = (r0, r1, q0, q1, in_rows, in_cols)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _best_square(
    c_abs2: np.ndarray, mask: np.ndarray, cur_e: float
) -> tuple[np.ndarray, float, int] | None:
    """The square of best marginal gain (energy added per measure added) over
    mask, whose energy is cur_e, the first in (j, k1, k2) order on a tie.

    Returns the trial mask | square, its energy and its count of new cells;
    None when every square lies in mask.  The squares with new cells are
    scored in blocks of _GREEDY_BLOCK: one stack of trial masks, one stacked
    integral image and one separable box count give each trial's (K, K)
    containment table, K = 2^(n+1) - 1.  Each trial's energy is one np.add.reduce (np.sum's
    reduction) over its own contained coefficients, in their order, so the
    scores are those of scoring the squares one at a time to the bit.
    """
    n = mask.shape[0].bit_length() - 1
    r0, r1, q0, q1, in_rows, in_cols = _square_cells(n)
    s0, s1 = _interval_spans(n, n)
    cell_area = 4.0**-n
    new_cells = _box_sum(_integral_image(~mask), r0, r1, q0, q1)
    candidates = np.flatnonzero(new_cells)
    best_gain, best = -np.inf, None
    for at in range(0, candidates.size, _GREEDY_BLOCK):
        block = candidates[at : at + _GREEDY_BLOCK]
        trials = mask | (in_rows[block, :, None] & in_cols[block, None, :])
        inside = _spans_inside(trials, s0, s1)
        energies = np.array([np.add.reduce(c_abs2[table]) for table in inside])
        gains = (energies - cur_e) / (new_cells[block] * cell_area)
        # argmax takes the block's first maximum, and a later block must beat it
        t = int(np.argmax(gains))
        if gains[t] > best_gain:
            best_gain = gains[t]
            best = (trials[t], float(energies[t]), int(new_cells[block[t]]))
    return best


def _greedy_search(c: WaveletCoefficients, seed: BmoEstimate) -> tuple[np.ndarray, float, float]:
    """Grow the rectangular witness seed (rect_bmo(c)) by dyadic squares with
    the best marginal gain.

    Returns the final mask, its energy and its measure.  Each step adds the
    square of _best_square, accepted only while the overall ratio improves.
    Every accepted square adds a cell, so the search stops within 4^n steps.
    A step scores the S = (4^(n+1) - 1)/3 squares in O(S K^2) integer work
    and S sums, K = 2^(n+1) - 1, holding at most _GREEDY_BLOCK containment
    tables at once.
    """
    n = c.max_scale
    c_abs2 = np.abs(c.matrix) ** 2
    mask = seed.witness.mask
    cell_area = 4.0**-n
    cur_e = float(np.sum(c_abs2[_spans_inside(mask, *_interval_spans(n, n))]))
    cur_m = float(np.count_nonzero(mask)) * cell_area
    while (best := _best_square(c_abs2, mask, cur_e)) is not None:
        trial, e, new_cells = best
        m = cur_m + new_cells * cell_area
        if e / m <= cur_e / cur_m:
            break
        mask, cur_e, cur_m = trial, e, m
    return mask, cur_e, cur_m


def _exhaustive_scan(c: WaveletCoefficients) -> BmoEstimate:
    """Scan every nonempty cell union at resolution n <= 2 (<= 65535 sets),
    _SCAN_BLOCK sets at a time."""
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
    e = np.empty(sets.size)
    for at in range(0, sets.size, _SCAN_BLOCK):
        block = sets[at : at + _SCAN_BLOCK, None]
        e[at : at + _SCAN_BLOCK] = ((block & flat_rmask) == flat_rmask) @ energies
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
    witness; its search runs until no square improves the ratio.  Both
    searches cover rect_bmo's witness but sum its energy in another order,
    so the result is the larger of the search's value and rect_bmo's: it
    dominates rect_bmo to the last bit.  A greedy step scores all
    S = (4^(n+1) - 1)/3 squares, n = max_scale, with O(S 4^n) integer box
    counts and S sums, in blocks of _GREEDY_BLOCK squares so that memory
    stays O(_GREEDY_BLOCK 4^n); the search takes at most 4^n steps.
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
