"""Rectangular and product BMO functionals on wavelet coefficients.

The rectangular functional is an exact supremum over dyadic rectangles,
computed by accumulating coefficient energy over the dyadic tree in each
axis.  The product functional, the supremum over open sets U of E(U)/|U|
with E(U) the energy of the rectangles inside U, is exact over the unions
of grid cells: Dinkelbach's ratio iteration (1967) over the minimum cuts
of a closure graph on the dyadic rectangles (Picard 1976), stopped at the
first cut that finds no union of a higher ratio.  Its value never falls
below the rectangular one, to the bit (see product_bmo_lower).  Estimates
carry the witness set achieving them so certificates can be re-checked
after the fact.

Every containment, of an interval in an interval, of a rectangle in a
cell union or of a cell in a rectangle, is read off the cached cell spans
of the dyadic intervals (grid._interval_spans), with box sums over one
integral image where cells are counted.

Open sets are searched as unions of cells of the 2^n x 2^n partition,
n = max_scale, and that search is the supremum over every open set: each
coefficient sits on a rectangle with both scales <= n, so an open set W
holds exactly the rectangles of the cell union U of the rectangles inside
W, with E(U) = E(W) and |U| <= |W|.  Only a symbol with scales above n,
such as the `file` family's, whose analysis drops them, is left with a
lower bound for its own product BMO.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import CellSet, _interval_meta, _interval_spans, _spans_inside, rectangles_inside
from .wavelets import WaveletCoefficients


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
    """A BMO-type supremum together with its witness.

    Both functionals are exact suprema over their search spaces (every
    dyadic rectangle, every cell union), so exact is always True.
    """

    value: float
    witness: CellSet
    exact: bool

    def recheck(self, c: WaveletCoefficients) -> bool:
        """Certificate: value^2 |witness| <= E(witness) (1 + 2 (K^2 + 4) eps).

        E(witness) sums at most K^2 nonnegative terms, K = 2^(max_scale+1) - 1,
        so any summation order has a relative error of at most
        gamma_{K^2} <= 1.01 K^2 u, u = eps/2 (Higham, Lemma 3.1).  The value
        came from another such sum, and its quotient, square root and square
        and the products here add at most 7 roundings: the slack
        4 (K^2 + 4) u exceeds 2 gamma_{K^2} + 7 u, at every scale of c.
        """
        K = c.matrix.shape[0]
        slack = 2 * (K * K + 4) * np.finfo(np.float64).eps
        lhs = self.value**2 * self.witness.measure()
        return lhs <= coefficient_energy(c, self.witness) * (1.0 + slack)


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


@functools.lru_cache(maxsize=None)
def _closure_graph(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[float, ...]]:
    """The arcs of product_bmo_lower's closure graph at resolution n, cached.

    Node a1 K + a2 is the rectangle I_{a1} x I_{a2}, K = 2^(n+1) - 1, and
    the source and the sink follow.  Arc e's reverse is arc e ^ 1.  Arc 2r
    leaves the source for rectangle r, the split arcs come next, and the
    arcs from the cells to the sink end the list in row-major cell order.
    Returns each node's arcs, each arc's head, and capacities that are
    infinite on the split arcs and 0 elsewhere.
    """
    K = (2 << n) - 1
    j = _interval_meta(n)[0].tolist()
    source, sink = K * K, K * K + 1
    out = [[] for _ in range(K * K + 2)]
    head = []

    def link(u: int, v: int) -> None:
        out[u].append(len(head))
        head.append(v)
        out[v].append(len(head))
        head.append(u)

    for r in range(K * K):
        link(source, r)
    for a1 in range(K):
        for a2 in range(K):
            # the halves of I_a are I_{2a+1} and I_{2a+2}
            r = a1 * K + a2
            if j[a1] < n:
                link(r, r + (a1 + 1) * K)
                link(r, r + (a1 + 2) * K)
            elif j[a2] < n:
                link(r, r + a2 + 1)
                link(r, r + a2 + 2)
    splits = len(head) // 2 - K * K
    m = 1 << n
    for a1 in range(m - 1, K):
        for a2 in range(m - 1, K):
            link(a1 * K + a2, sink)
    blank = [0.0] * (2 * K * K) + [np.inf, 0.0] * splits + [0.0] * (2 * m * m)
    return tuple(map(tuple, out)), tuple(head), tuple(blank)


def _max_flow(out, head, cap: list, source: int, sink: int) -> list[int]:
    """Dinic's blocking-flow maximum flow (1970), augmenting the residual
    capacities cap in place from whatever feasible flow they hold.

    Returns the levels of the last breadth-first search, the one that no
    longer reaches the sink: a node has level >= 0 exactly when the source
    reaches it in the residual graph, so those nodes are the source side of
    a minimum cut.  Each augmentation empties its bottleneck arc exactly,
    x - x == 0 in floating point, so every phase ends.
    """
    nodes = len(out)
    while True:
        level = [-1] * nodes
        level[source] = 0
        queue = [source]
        for v in queue:
            lv = level[v] + 1
            for e in out[v]:
                w = head[e]
                if level[w] < 0 and cap[e] > 0:
                    level[w] = lv
                    queue.append(w)
        if level[sink] < 0:
            return level
        # depth-first search for augmenting paths along rising levels, with
        # a current-arc pointer per node and dead ends dropped from the level graph
        current = [0] * nodes
        path = []
        v = source
        while True:
            if v == sink:
                f = min([cap[e] for e in path])
                for e in path:
                    cap[e] -= f
                    cap[e ^ 1] += f
                path.clear()
                v = source
                continue
            arcs = out[v]
            i = current[v]
            lv = level[v] + 1
            while i < len(arcs) and not (cap[e := arcs[i]] > 0 and level[head[e]] == lv):
                i += 1
            current[v] = i
            if i < len(arcs):
                path.append(e)
                v = head[e]
            elif path:
                level[v] = -1
                v = head[path.pop() ^ 1]
                current[v] += 1
            else:
                break


def product_bmo_lower(c: WaveletCoefficients) -> BmoEstimate:
    """The supremum over cell unions U of sqrt(E(U) / |U|), n = max_scale,
    which is the supremum over all open sets: every coefficient has both
    scales <= n, so each open set's ratio is at most that of the cell union
    of its rectangles (see the module docstring).  Only where analyze
    truncated a symbol's finer scales, as for the `file` family, is the
    value a lower bound for that symbol's product BMO.

    For a fixed lambda the U that maximizes E(U) - lambda |U| is a
    maximum-weight closure (Picard 1976), the cells on the source side of
    a minimum cut of _closure_graph(n).  There the source links to each
    rectangle R with capacity |c_R|^2, R to its two halves with infinite
    capacity, split along axis 1 while j1 < n and along axis 2 after, and
    each cell to the sink with capacity lambda 4^-n.  A finite cut keeps
    every cell under a rectangle it keeps, so it costs
    E(all) - E(U) + lambda |U|.  Dinkelbach's iteration (1967) starts from
    rect_bmo's witness with lambda its ratio.  A cut whose cells have a
    ratio above lambda becomes the witness and sets lambda; the first cut
    that does not improve the ratio ends the iteration.  Sink capacities
    only grow, so each cut augments the flow of the one before.

    Each ratio is its witness's energy, one np.add.reduce over the
    contained coefficients, so the value comes from the witness and not
    from the flow.  That sum covers rect_bmo's rectangle in another order
    than rect_bmo's, so the result is the larger of the two values: it
    dominates rect_bmo to the bit.
    """
    n = c.max_scale
    K, m, area = (2 << n) - 1, 1 << n, 4.0**-n
    out, head, blank = _closure_graph(n)
    s0, s1 = _interval_spans(n, n)
    c_abs2 = np.abs(c.matrix) ** 2

    def energy(mask: np.ndarray) -> tuple[float, float]:
        return float(np.add.reduce(c_abs2[_spans_inside(mask, s0, s1)])), np.count_nonzero(mask) * area

    rect = rect_bmo(c)
    mask = rect.witness.mask
    e, size = energy(mask)
    cap = list(blank)
    cap[: 2 * K * K : 2] = c_abs2.ravel().tolist()
    to_sink = slice(len(cap) - 2 * m * m, None, 2)
    lam = 0.0
    while True:
        cap[to_sink] = [r + (e / size - lam) * area for r in cap[to_sink]]
        lam = e / size
        level = _max_flow(out, head, cap, K * K, K * K + 1)
        cut = np.array(level[: K * K]).reshape(K, K)[m - 1 :, m - 1 :] >= 0
        cut_e, cut_size = energy(cut)
        if not cut_size or cut_e / cut_size <= lam:
            break
        mask, e, size = cut, cut_e, cut_size
    value = float(np.sqrt(e / size))
    if value >= rect.value:
        return BmoEstimate(value, CellSet(n, mask), exact=True)
    return rect
