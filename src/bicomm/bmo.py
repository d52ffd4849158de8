"""Rectangular and product BMO functionals on wavelet coefficients.

The rectangular functional is an exact supremum over dyadic rectangles,
computed by accumulating coefficient energy over the dyadic tree in each
axis.  The product functional's supremum over open sets is approximated
from below by unions of grid cells: a greedy search over dyadic squares
seeded at the rectangular witness, or an exhaustive scan of every cell
union when the grid is small enough to afford it (resolution n <= 2).
Estimates carry the witness set achieving them so certificates can be
re-checked after the fact.

Open sets are always unions of cells of the 2^n x 2^n partition; an
arbitrary open set's coefficient sum is approached from within by such
unions as n grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    CellSet,
    DyadicRectangle,
    _interval_meta,
    _interval_spans,
    _spans_inside,
    rectangles_inside,
)
from .wavelets import WaveletCoefficients

_EXHAUSTIVE_MAX_SCALE = 2
_CERT_TOL = 1e-12


def _containment_matrix(max_scale: int) -> np.ndarray:
    """C[a, b] = True when interval b is contained in interval a."""
    j, k = _interval_meta(max_scale)
    dj = j[None, :] - j[:, None]
    shifted = k[None, :] >> np.maximum(dj, 0)
    return (dj >= 0) & (shifted == k[:, None])


def _subtree_energy(c: WaveletCoefficients) -> np.ndarray:
    """E[a1, a2] = sum of |c_R|^2 over rectangles R inside I_{a1} x I_{a2}."""
    C = _containment_matrix(c.max_scale).astype(np.float64)
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

    def to_json(self) -> dict:
        return {"value": self.value, "witness": self.witness.to_json(), "exact": self.exact}

    @classmethod
    def from_json(cls, obj: dict) -> "BmoEstimate":
        return cls(float(obj["value"]), CellSet.from_json(obj["witness"]), bool(obj["exact"]))


def rect_bmo(c: WaveletCoefficients) -> BmoEstimate:
    """Exact sup over dyadic rectangles S of sqrt(|S|^{-1} sum_{R in S} |c_R|^2).

    Ties break toward the first rectangle in (j1, j2, k1, k2) order.  The
    witness is returned as a cell union at resolution n = max_scale.
    """
    J = c.max_scale
    E = _subtree_energy(c)
    best = -1.0
    best_rect = DyadicRectangle.from_indices(0, 0, 0, 0)
    for j1 in range(J + 1):
        lo1, hi1 = 2**j1 - 1, 2 ** (j1 + 1) - 1
        for j2 in range(J + 1):
            lo2, hi2 = 2**j2 - 1, 2 ** (j2 + 1) - 1
            block = E[lo1:hi1, lo2:hi2] * 2.0 ** (j1 + j2)
            flat = int(np.argmax(block))
            val = float(block.flat[flat])
            if val > best:
                best = val
                k1, k2 = divmod(flat, 2**j2)
                best_rect = DyadicRectangle.from_indices(j1, k1, j2, k2)
    witness = CellSet(J, best_rect.to_cellrect(J).to_mask())
    return BmoEstimate(float(np.sqrt(best)), witness, exact=True)


def _square_spans(n: int) -> list[tuple[int, int, int, int]]:
    """Cell spans of all dyadic squares at scales 0..n, in (j, k1, k2) order."""
    out = []
    for j in range(n + 1):
        w = 1 << (n - j)
        for k1 in range(1 << j):
            for k2 in range(1 << j):
                out.append((k1 * w, (k1 + 1) * w, k2 * w, (k2 + 1) * w))
    return out


def _greedy_search(
    c: WaveletCoefficients, budget: int, seed: BmoEstimate
) -> tuple[np.ndarray, float, float]:
    """Grow the rectangular witness seed (rect_bmo(c)) by dyadic squares with
    the best marginal gain.

    Returns the final mask, its energy and its measure.  Each step adds the
    square maximizing the marginal energy-to-measure gain, accepted only
    while the overall ratio improves.
    """
    n = c.max_scale
    c_abs2 = np.abs(c.matrix) ** 2
    s0, s1 = _interval_spans(n, n)
    mask = seed.witness.mask.copy()
    cell_area = 4.0**-n
    cur_e = float(np.sum(c_abs2[_spans_inside(mask, s0, s1)]))
    cur_m = float(np.count_nonzero(mask)) * cell_area
    squares = _square_spans(n)
    for _ in range(budget):
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
    s0, s1 = _interval_spans(n, n)
    K = s0.shape[0]
    rmask = np.zeros((K, K), dtype=np.uint32)
    for a1 in range(K):
        for a2 in range(K):
            bits = 0
            for i1 in range(s0[a1], s1[a1]):
                for i2 in range(s0[a2], s1[a2]):
                    bits |= 1 << (i1 * m + i2)
            rmask[a1, a2] = bits
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


def product_bmo_lower(
    c: WaveletCoefficients, budget: int = 32, method: str = "auto"
) -> BmoEstimate:
    """Certified lower bound for the open-set supremum of the BMO ratio.

    method='exhaustive' scans all cell unions (only at max_scale <= 2),
    'greedy' runs the seeded square-growing search, and 'auto' picks
    exhaustive when affordable.  The greedy result is a lower bound with a
    witness.  Both searches cover rect_bmo's witness but sum its energy in
    another order, so the result is the larger of the search's value and
    rect_bmo's: it dominates rect_bmo to the last bit.  Greedy cost grows with
    4^max_scale per step, so it is intended for the small resolutions the
    experiments use.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if method not in ("auto", "greedy", "exhaustive"):
        raise ValueError(f"unknown method {method!r}")
    exhaustive = method == "exhaustive" or (method == "auto" and c.max_scale <= _EXHAUSTIVE_MAX_SCALE)
    if exhaustive and c.max_scale > _EXHAUSTIVE_MAX_SCALE:
        raise ValueError("exhaustive scan needs max_scale <= 2")
    rect = rect_bmo(c)
    if exhaustive:
        est = _exhaustive_scan(c)
    else:
        mask, e, m = _greedy_search(c, budget, rect)
        est = BmoEstimate(float(np.sqrt(e / m)), CellSet(c.max_scale, mask), exact=False)
    if est.value >= rect.value:
        return est
    return BmoEstimate(rect.value, rect.witness, est.exact)
