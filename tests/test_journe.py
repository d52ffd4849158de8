"""Rectangle combinatorics: maximal rectangles, embeddedness, thinning."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicomm.grid import (
    CellRect,
    CellSet,
    DyadicRectangle,
    _box_sum,
    _fraction_at_most,
    _integral_image,
    _occupied_window,
    enumerate_dyadic_rectangles,
    maximal_1d_level,
    strong_maximal_half_level,
)
from bicomm import journe
from bicomm.journe import (
    RectCollection,
    _dilation_limits,
    bad_class,
    embeddedness,
    enlargement,
    journe_sum,
    maximal_rectangles,
    row_of_squares,
    row_resolution,
    stratify,
    thin_collection,
)
from bicomm.wavelets import product_wavelet


def collection(n, rects):
    """The RectCollection of an iterable of distinct DyadicRectangle objects,
    in their dataclass order, which is the key order."""
    keys = [(R.interval1.j, R.interval1.k, R.interval2.j, R.interval2.k) for R in sorted(rects)]
    return RectCollection(n, keys)


def rect_inside(R, U):
    a1, b1 = R.interval1.cell_span(U.n)
    a2, b2 = R.interval2.cell_span(U.n)
    return bool(np.all(U.mask[a1:b1, a2:b2]))


def square_set(n, rows, cols):
    return CellSet.from_cells(n, [(i, j) for i in rows for j in cols])


def test_maximal_rectangles_basic_shapes():
    sq = square_set(2, range(2), range(2))
    got = maximal_rectangles(sq)
    assert got.rectangles == (DyadicRectangle.from_indices(1, 0, 1, 0),)

    empty = CellSet(2, np.zeros((4, 4), dtype=bool))
    assert len(maximal_rectangles(empty)) == 0

    full = CellSet(2, np.ones((4, 4), dtype=bool))
    assert maximal_rectangles(full).rectangles == (
        DyadicRectangle.from_indices(0, 0, 0, 0),
    )

    # L-shape: left half plus bottom-left quarter column widened
    L = CellSet.from_cells(2, [(i, 0) for i in range(4)] + [(3, 1)])
    got = set(maximal_rectangles(L))
    for R in got:
        assert rect_inside(R, L)


def brute_maximal(U):
    contained = [R for R in enumerate_dyadic_rectangles(U.n) if rect_inside(R, U)]
    out = []
    for R in contained:
        if not any(S != R and S.contains(R) for S in contained):
            out.append(R)
    return set(out)


def test_maximal_rectangles_matches_bruteforce():
    rng = np.random.default_rng(70)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        U = CellSet(n, rng.random((2**n, 2**n)) < 0.55)
        assert set(maximal_rectangles(U)) == brute_maximal(U)


def test_maximal_rectangles_trusted_keys_and_spans():
    """maximal_rectangles builds its collection with _checked=True, which
    skips the copy and the checks: at n = 2-7 its keys pass the validating
    constructor unchanged, and the cell spans it keeps equal the spans
    computed from the keys.  Both arrays are read-only."""
    for n in range(2, 8):
        m = 1 << n
        sets = [random_set(n, 50 + n, p) for p in (0.1, 0.5, 0.8)]
        sets += [CellSet(n, np.zeros((m, m), dtype=bool)), CellSet(n, np.ones((m, m), dtype=bool))]
        for U in sets:
            got = maximal_rectangles(U)
            checked = RectCollection(U.n, got.keys)
            assert got == checked and got.keys.dtype == np.int64
            assert np.array_equal(got.spans(), checked.spans())
            assert got.spans().shape == (len(got), 4)
            assert not got.keys.flags.writeable and not got.spans().flags.writeable


def test_maximal_rectangles_antichain_and_cover():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        U = CellSet(n, rng.random((2**n, 2**n)) < 0.6)
        col = maximal_rectangles(U)
        rects = list(col)
        for a in rects:
            assert rect_inside(a, U)
            for b in rects:
                if a != b:
                    assert not a.contains(b)
        # every contained dyadic rectangle sits inside some member
        for R in enumerate_dyadic_rectangles(n):
            if rect_inside(R, U):
                assert any(M.contains(R) for M in rects)


def brute_level(mask, axis, delta, one_sided=False):
    """Cells of some interval of consecutive cells averaging more than delta,
    or with one_sided=True the cells that start such an interval.

    Enumerates every interval of every line; an integer count over l cells
    exceeds delta * l exactly when it exceeds floor(delta * l), taken on
    the exact value of delta.
    """
    d = Fraction(delta)
    lines = mask.T if axis == 1 else mask
    m = lines.shape[1]
    P = np.zeros((m, m + 1), dtype=np.int64)
    P[:, 1:] = np.cumsum(lines, axis=1)
    floors = [math.floor(d * length) for length in range(m + 1)]
    out = np.zeros((m, m), dtype=bool)
    for a in range(m):
        for b in range(a + 1, m + 1):
            out[P[:, b] - P[:, a] > floors[b - a], a if one_sided else slice(a, b)] = True
    return out.T if axis == 1 else out


def brute_enlargement(U, delta):
    """Composition of strict-threshold 1D maximal sets, exact arithmetic."""
    w2 = brute_level(U.mask, 2, delta)
    w1 = brute_level(U.mask, 1, delta)
    return brute_level(w2, 1, delta) | brute_level(w1, 2, delta)


def test_enlargement_matches_bruteforce():
    rng = np.random.default_rng(72)
    for trial in range(5):
        U = CellSet(2, rng.random((4, 4)) < 0.4)
        for delta in (0.25, 0.5, 0.75):
            V = enlargement(U, delta)
            assert np.array_equal(V.mask, brute_enlargement(U, delta))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.3, 0.5, 0.7]),
    st.sampled_from([1 / 4, 1 / 3, 0.4, 1 / 2, 0.6, 3 / 4]),
)
def test_enlargement_matches_fraction_oracle(n, seed, density, delta):
    U = random_set(n, seed, density)
    assert np.array_equal(enlargement(U, delta).mask, brute_enlargement(U, delta))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 0.7]))
def test_level_kernel_matches_oracle_at_half(n, seed, density):
    """The level sets and the enlargement at delta = 1/2, the value every
    command uses, against the interval enumeration up to n = 6."""
    U = random_set(n, seed, density)
    for axis in (1, 2):
        assert np.array_equal(maximal_1d_level(U, axis, 0.5).mask, brute_level(U.mask, axis, 0.5))
    assert np.array_equal(enlargement(U, 0.5).mask, brute_enlargement(U, 0.5))


def window_corpus():
    """Sets whose occupied window is smaller than the grid: the empty set at
    n = 0-6; at n = 1-5 a single cell, sparse sets (density 0.02-0.1) on
    the whole grid, and sparse boxes flush with each edge and inside; then
    the rows of 8 and 16 squares, at n = 6 and 7."""
    for n in range(7):
        yield CellSet(n, np.zeros((1 << n, 1 << n), dtype=bool))
    rng = np.random.default_rng(2105)
    for n in range(1, 6):
        m = 1 << n
        yield CellSet.from_cells(n, [tuple(rng.integers(0, m, size=2))])
        for density in (0.02, 0.05, 0.1):
            yield random_set(n, int(rng.integers(2**32)), density)
        for place in ("top", "bottom", "left", "right", "interior"):
            h, w = rng.integers(1, max(m // 2, 1) + 1, size=2)
            r0, c0 = rng.integers(0, m - h + 1), rng.integers(0, m - w + 1)
            r0 = {"top": 0, "bottom": m - h}.get(place, r0)
            c0 = {"left": 0, "right": m - w}.get(place, c0)
            box = np.zeros((m, m), dtype=bool)
            box[r0 : r0 + h, c0 : c0 + w] = rng.random((h, w)) < rng.choice([0.02, 0.05, 0.1])
            box[r0 + rng.integers(h), c0 + rng.integers(w)] = True
            yield CellSet(n, box)
    yield row_of_squares(8).cells
    yield row_of_squares(16).cells


# 1e-9 has p = 0 on every grid here, so no crop along the lines; 0.99 reads
# as (m - 1)/m up to m = 64 and as 98/99 at m = 128, whose windows are the
# occupied span alone; float 1/3 lies below Fraction(1, 3)
WINDOW_DELTAS = (1e-9, 1 / 4, 1 / 3, Fraction(1, 3), 1 / 2, 3 / 4, 0.99)


def test_level_sets_on_occupied_windows():
    """Both sided forms of the level sets against the interval enumeration
    on sets whose window crops the grid, and the enlargement at 1e-9, 1/2
    and 0.99.  The oracle's cost grows as m^2 per level set, 60 ms at
    n = 7, so every WINDOW_DELTAS value runs up to n = 4, those three
    values at n = 5, and the rows of squares take the two-sided form at
    those three and the enlargement at 1/2.  The empty set has the empty
    window and empty level sets at every n, both sided forms, every
    WINDOW_DELTAS value and delta = 0."""
    crops = 0
    for U in window_corpus():
        m = 1 << U.n
        empty = not U.cell_count
        if empty:
            assert _occupied_window(U.mask, (Fraction(1), Fraction(1, 2))) == (slice(0, 0),) * 2
            assert not strong_maximal_half_level(U).mask.any()
            deltas = WINDOW_DELTAS + (0,)
        else:
            deltas = WINDOW_DELTAS if U.n <= 4 else (1e-9, 1 / 2, 0.99)
        for delta in deltas:
            for axis in (1, 2):
                for one_sided in (False, True) if U.n <= 5 or empty else (False,):
                    got = maximal_1d_level(U, axis, delta, one_sided).mask
                    assert np.array_equal(got, brute_level(U.mask, axis, delta, one_sided))
                    lines = U.mask.T if axis == 1 else U.mask
                    window = _occupied_window(lines, (Fraction(1), _fraction_at_most(delta, m)))
                    crops += lines[window].size < lines.size
            if delta in ((1e-9, 1 / 2, 0.99) if U.n <= 5 else (1 / 2,)):
                assert np.array_equal(enlargement(U, delta).mask, brute_enlargement(U, delta))
    assert crops >= 300
    # sets that occupy the first and last lines of both axes take the whole
    # grid at once; the last set of each n occupies them along one axis only
    for U in full_span_corpus():
        m = 1 << U.n
        spans_both = U.mask[[0, -1]].any(axis=1).all() and U.mask[:, [0, -1]].any(axis=0).all()
        for t in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2)):
            window = _occupied_window(U.mask, (t, t))
            assert window == (slice(0, m),) * 2 or not spans_both
        whole = _occupied_window(U.mask, (Fraction(1),) * 2) == (slice(0, m),) * 2
        assert whole == spans_both
        for delta in (1e-9, 1 / 2, 0.99):
            for axis in (1, 2):
                for one_sided in (False, True):
                    got = maximal_1d_level(U, axis, delta, one_sided).mask
                    assert np.array_equal(got, brute_level(U.mask, axis, delta, one_sided))
            assert np.array_equal(enlargement(U, delta).mask, brute_enlargement(U, delta))
        assert np.array_equal(strong_maximal_half_level(U).mask, oracle_half_level(U))


def full_span_corpus():
    """At n = 2-5: two opposite corners, one cell on each edge line, the
    frame, a random set of density 1/2 with its four edges' cells, and
    cells on the first and last row of one column only."""
    rng = np.random.default_rng(3005)
    for n in range(2, 6):
        m = 1 << n
        yield CellSet.from_cells(n, [(0, 0), (m - 1, m - 1)])
        a, b, c, d = rng.integers(1, m - 1, size=4)
        yield CellSet.from_cells(n, [(0, a), (m - 1, b), (c, 0), (d, m - 1)])
        frame = np.ones((m, m), dtype=bool)
        frame[1:-1, 1:-1] = False
        yield CellSet(n, frame)
        dense = rng.random((m, m)) < 0.5
        dense[[0, -1], a] = dense[c, [0, -1]] = True
        yield CellSet(n, dense)
        yield CellSet.from_cells(n, [(0, a), (m - 1, a)])


def test_enlargement_stops_once_v12_covers_the_grid(monkeypatch):
    """The level sets of V21 run only where V12 leaves a cell out, and the
    union equals the oracle's either way."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return maximal_1d_level(*args, **kwargs)

    monkeypatch.setattr("bicomm.journe.maximal_1d_level", counted)
    full = partial = 0
    for n, seed, density, delta in itertools.product(
        range(1, 5), range(2), (0.1, 0.3, 0.5, 0.7), (1 / 4, 1 / 2, 3 / 4)
    ):
        U = random_set(n, seed, density)
        for cells in (U, CellSet(n, U.mask.T)):
            calls.clear()
            v12 = brute_level(brute_level(cells.mask, 2, delta), 1, delta)
            v21 = brute_level(brute_level(cells.mask, 1, delta), 2, delta)
            assert np.array_equal(enlargement(cells, delta).mask, v12 | v21)
            assert len(calls) == (2 if v12.all() else 4)
            full += v12.all()
            partial += not v12.all()
    assert full >= 60 and partial >= 60


def test_level_threshold_domain():
    """delta = 0 keeps every occupied line whole, as 1e-9 does; delta < 0
    would cover empty lines and is rejected; delta >= 1 covers nothing."""
    U = random_set(4, 9, 0.1)
    for axis, occupied in ((1, U.mask.any(axis=0)[None, :]), (2, U.mask.any(axis=1)[:, None])):
        want = np.broadcast_to(occupied, U.mask.shape)
        for delta in (0, 0.0, Fraction(0), 1e-9):
            assert np.array_equal(maximal_1d_level(U, axis, delta).mask, want)
        for delta in (1, 1.5):
            assert not maximal_1d_level(U, axis, delta).mask.any()
        for delta in (-1e-9, -0.5, Fraction(-1, 3)):
            with pytest.raises(ValueError):
                maximal_1d_level(U, axis, delta)


def best_average(mask, cell, axis):
    """The exact largest average of a line over the intervals through a cell."""
    i, j = cell
    line, pos = (mask[:, j], i) if axis == 1 else (mask[i, :], j)
    m = len(line)
    return max(
        Fraction(int(line[a:b].sum()), b - a) for a in range(pos + 1) for b in range(pos + 1, m + 1)
    )


def test_level_kernel_decides_float_ties_exactly():
    """float(1/3) rounds down, so an average of exactly 1/3 exceeds it but
    not Fraction(1, 3); both deltas are decided on their exact value."""
    U = CellSet.from_cells(2, [(0, 0)])
    assert best_average(U.mask, (0, 2), 2) == Fraction(1, 3)
    assert maximal_1d_level(U, 2, 1 / 3).mask[0, 2]
    assert not maximal_1d_level(U, 2, Fraction(1, 3)).mask[0, 2]
    want = brute_enlargement(U, 1 / 3)
    exact = brute_enlargement(U, Fraction(1, 3))
    assert want[0, 2] and not exact[0, 2]
    assert np.array_equal(enlargement(U, 1 / 3).mask, want)
    assert np.array_equal(enlargement(U, Fraction(1, 3)).mask, exact)
    with pytest.raises(ValueError):
        maximal_1d_level(U, 3, 0.5)


def test_enlargement_hand_example():
    U = CellSet.from_cells(2, [(1, 1)])
    V = enlargement(U, 0.4)
    want = square_set(2, range(3), range(3))
    assert np.array_equal(V.mask, want.mask)


def test_enlargement_monotonicity():
    rng = np.random.default_rng(73)
    U = CellSet(3, rng.random((8, 8)) < 0.3)
    big = CellSet(3, U.mask | (rng.random((8, 8)) < 0.2))
    assert enlargement(U, 0.5).contains(U)
    V_small = enlargement(U, 0.5)
    V_big = enlargement(big, 0.5)
    assert np.all(V_big.mask | ~V_small.mask)  # monotone in U
    V_tight = enlargement(U, 0.8)
    assert np.all(V_small.mask | ~V_tight.mask)  # anti-monotone in delta
    with pytest.raises(ValueError):
        enlargement(U, 0.0)
    with pytest.raises(ValueError):
        enlargement(U, 1.0)


# ---------------------------------------------------------------------------
# Fraction oracle of the integer embeddedness kernel: one rectangle at a
# time, crossings and raster spans in exact rational arithmetic.


def _axis_crossings(center: Fraction, half: Fraction, m: int) -> list[Fraction]:
    """Dilation factors at which an edge of the centered dilate meets a grid line."""
    out = []
    for p in range(m + 1):
        line = Fraction(p, m)
        if line != center:
            out.append(abs(line - center) / half)
    return out


def _raster_span(center: Fraction, half: Fraction, lam: Fraction, m: int) -> tuple[int, int]:
    """Cells with positive-measure overlap with the dilated interval."""
    lo = (center - lam * half) * m
    hi = (center + lam * half) * m
    return math.floor(lo), math.ceil(hi)


def _center_half(a: int, b: int, n: int) -> tuple[Fraction, Fraction]:
    """Center and half width of the cell run [a, b) at resolution n."""
    return Fraction(a + b, 2 << n), Fraction(b - a, 2 << n)


def _box_inside(mask: np.ndarray, r0: int, r1: int, c0: int, c1: int) -> bool:
    m = mask.shape[0]
    if r0 < 0 or c0 < 0 or r1 > m or c1 > m:
        return False
    return bool(np.all(mask[r0:r1, c0:c1]))


def oracle_mu(R, V: CellSet) -> float:
    m = 1 << V.n
    cr = R.to_cellrect(V.n) if isinstance(R, DyadicRectangle) else R
    c1, h1 = _center_half(cr.a1, cr.b1, cr.n)
    c2, h2 = _center_half(cr.a2, cr.b2, cr.n)
    mu = Fraction(0)
    for lam in sorted(set(_axis_crossings(c1, h1, m) + _axis_crossings(c2, h2, m))):
        r0, r1 = _raster_span(c1, h1, lam, m)
        q0, q1 = _raster_span(c2, h2, lam, m)
        if not _box_inside(V.mask, r0, r1, q0, q1):
            break
        mu = lam
    return float(mu)


def oracle_nu(cr: CellRect, level: np.ndarray) -> float:
    m = level.shape[0]
    c1, h1 = _center_half(cr.a1, cr.b1, cr.n)
    nu = Fraction(0)
    for lam in sorted(set(_axis_crossings(c1, h1, m))):
        r0, r1 = _raster_span(c1, h1, lam, m)
        if not _box_inside(level, r0, r1, cr.a2, cr.b2):
            break
        nu = lam
    return float(nu)


def oracle_half_level(U: CellSet) -> np.ndarray:
    """Cells of some cell rectangle holding more than half its cells in U.

    Enumerates every rectangle and compares 2*count with its area in
    integers, so ties at exactly one half are excluded exactly.
    """
    m = 1 << U.n
    ii = np.zeros((m + 1, m + 1), dtype=np.int64)
    ii[1:, 1:] = np.cumsum(np.cumsum(U.mask, axis=0), axis=1)
    lo, hi = np.triu_indices(m + 1, 1)  # every column interval [lo, hi)
    out = np.zeros((m, m), dtype=bool)
    for r0, r1 in zip(lo, hi):
        counts = ii[r1, hi] - ii[r0, hi] - ii[r1, lo] + ii[r0, lo]
        heavy = 2 * counts > (r1 - r0) * (hi - lo)
        for c0, c1 in zip(lo[heavy], hi[heavy]):
            out[r0:r1, c0:c1] = True
    return out


def random_set(n: int, seed: int, density: float) -> CellSet:
    m = 1 << n
    return CellSet(n, np.random.default_rng(seed).random((m, m)) < density)


# the best rectangle through cell (6, 6) of this set averages exactly 1/2, a
# tie that the level set {> 1/2} must leave out; a float field that sums
# column means reads 0.5000000000000002 there
TIE_SET = CellSet(
    3,
    np.array(
        [
            [0, 0, 1, 1, 0, 1, 0, 1],
            [1, 0, 0, 0, 1, 1, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 1, 1, 0],
            [0, 1, 0, 0, 0, 1, 1, 1],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0],
        ],
        dtype=bool,
    ),
)


@st.composite
def open_sets(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    return random_set(n, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.3, 0.5, 0.7])))


@st.composite
def embedding_cases(draw):
    """(U, R, delta) with R the cells of a dyadic rectangle or an arbitrary cell rectangle."""
    U = draw(open_sets())
    n, m = U.n, 1 << U.n
    if draw(st.booleans()):
        j1, j2 = draw(st.integers(0, n)), draw(st.integers(0, n))
        k1, k2 = draw(st.integers(0, 2**j1 - 1)), draw(st.integers(0, 2**j2 - 1))
        R = DyadicRectangle.from_indices(j1, k1, j2, k2).to_cellrect(n)
    else:
        a1, a2 = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        R = CellRect(n, a1, draw(st.integers(a1 + 1, m)), a2, draw(st.integers(a2 + 1, m)))
    return U, R, draw(st.sampled_from([0.25, 0.5, 0.75]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(embedding_cases())
def test_embeddedness_matches_fraction_oracle(case):
    U, R, delta = case
    V = enlargement(U, delta)
    rep = embeddedness(R, V, U=U)
    assert rep.mu == oracle_mu(R, V)
    assert rep.nu == oracle_nu(R, oracle_half_level(U))


def scan_dilation_limits(ii: np.ndarray, spans: np.ndarray, first_axis_only: bool = False):
    """Linear-scan reference of the bisecting kernel: every grid line on each axis.

    The crossing of line p is |2p - C| / W in half-cell units, each dilate is
    rasterized with two floor divisions per axis and tested against the
    integral image, and the result is the largest crossing that passes.
    """
    m = ii.shape[0] - 1
    lines = 2 * np.arange(m + 1)
    axes = (0,) if first_axis_only else (0, 1)
    a1, b1, a2, b2 = (col[:, None] for col in np.asarray(spans, dtype=np.int64).T)
    center, half = (a1 + b1, a2 + b2), (b1 - a1, b2 - a2)
    num = np.concatenate([np.abs(lines - center[ax]) for ax in axes], axis=1)
    den = np.concatenate([np.broadcast_to(half[ax], (len(a1), m + 1)) for ax in axes], axis=1)

    def span(c, w):
        return (c * den - num * w) // (2 * den), -((-c * den - num * w) // (2 * den))

    r0, r1 = span(center[0], half[0])
    c0, c1 = (a2, b2) if first_axis_only else span(center[1], half[1])
    inside = (r0 >= 0) & (c0 >= 0) & (r1 <= m) & (c1 <= m)
    r0, r1, c0, c1 = (np.clip(x, 0, m) for x in (r0, r1, c0, c1))
    inside &= _box_sum(ii, r0, r1, c0, c1) == (r1 - r0) * (c1 - c0)
    return np.where(inside, num / den, 0.0).max(axis=1, initial=0.0)


def _scan_corpus():
    """(target set, spans) pairs over random sets at n = 1-6 and rows of squares.

    Each open set U gives three targets, its enlargement, U itself and its
    strong-maximal half level, and two kinds of spans: its maximal
    rectangles and random cell rectangles, most of them not inside.  Sparse
    sets matter: the enlargement of a dense set fills almost the whole grid,
    where a kernel that swaps rows and columns still passes.
    """
    rng = np.random.default_rng(1986)
    densities = (0.1, 0.2, 0.3, 0.5, 0.7)
    opens = [random_set(n, 100 * n + i, p) for n in range(1, 7) for i, p in enumerate(densities)]
    opens += [row_of_squares(K).cells for K in (4, 8, 16)]
    for U in opens:
        m = 1 << U.n
        lo = rng.integers(0, m, size=(300, 2))
        hi = lo + 1 + rng.integers(0, m - lo)
        drawn = np.stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]], axis=1)
        spans = np.concatenate([maximal_rectangles(U).spans(), drawn])
        for target in (enlargement(U, 0.5), U, strong_maximal_half_level(U)):
            yield target, spans


def _reach_corpus():
    """(target set, spans) pairs that pin the grid reach, at n = 1-7.

    On the all-ones grid the reach alone decides every rectangle.  One hole,
    at a random cell or at the center, fails the probe at the reach for the
    rectangles whose dilate meets it, and those bisect below it.  Spans are
    random, flush with each grid edge in turn, and thin on one axis and wide
    on the other, where the other axis's reach binds.  The last pair has no
    spans at all.
    """
    rng = np.random.default_rng(2001)
    for n in range(1, 8):
        m = 1 << n
        lo = rng.integers(0, m, size=(100, 2))
        hi = lo + 1 + rng.integers(0, m - lo)
        drawn = np.stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]], axis=1)
        flush = np.tile(drawn, (4, 1))
        for i, edge in enumerate((0, m, 0, m)):
            flush[100 * i : 100 * (i + 1), i] = edge
        w = np.minimum(rng.integers(1, 4, size=100), m)
        a = rng.integers(0, m - w + 1)
        wide_lo, wide_hi = rng.integers(0, m // 4 + 1, size=100), m - rng.integers(0, m // 4 + 1, size=100)
        thin = np.concatenate([
            np.stack([a, a + w, wide_lo, wide_hi], axis=1),
            np.stack([wide_lo, wide_hi, a, a + w], axis=1),
        ])
        spans = np.concatenate([drawn, flush, thin])
        full = np.ones((m, m), dtype=bool)
        yield CellSet(n, full), spans
        for cell in (tuple(rng.integers(0, m, size=2)), (m // 2, m // 2)):
            holed = full.copy()
            holed[cell] = False
            yield CellSet(n, holed), spans
    yield CellSet(3, np.ones((8, 8), dtype=bool)), np.zeros((0, 4), dtype=np.int64)


def test_dilation_limits_match_linear_scan_bit_for_bit():
    """The reach probe and bisection return the scan's floats, bit for bit, for mu and nu."""
    spans_seen = 0
    for target, spans in itertools.chain(_scan_corpus(), _reach_corpus()):
        ii = _integral_image(target.mask)
        for first_axis_only in (False, True):
            got = _dilation_limits(target.mask, spans, first_axis_only)
            want = scan_dilation_limits(ii, spans, first_axis_only)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            spans_seen += len(spans)
    assert spans_seen > 50_000


def test_cropped_dilation_image_matches_linear_scan(monkeypatch):
    """One rectangle at a time, so the integral image covers that
    rectangle's dilates at the reach alone.  Rectangles flush with each
    edge and each corner of the grid, and random ones, on sets with holes
    at n = 1-6, give the full-grid scan's floats bit for bit, with
    first_axis_only both ways, and most of those images are cropped.  No
    spans give no limits."""
    shapes, cropped = [], 0
    monkeypatch.setattr(journe, "_integral_image", lambda cells: shapes.append(cells.shape) or _integral_image(cells))
    rng = np.random.default_rng(2030)
    for n in range(1, 7):
        m = 1 << n
        holed = np.ones((m, m), dtype=bool)
        holed[tuple(rng.integers(0, m, size=2))] = False
        for mask in (random_set(n, 300 + n, 0.7).mask, random_set(n, 400 + n, 0.9).mask, holed):
            ii = _integral_image(mask)
            for _ in range(4):
                lo = rng.integers(0, m, size=2)
                hi = lo + 1 + rng.integers(0, m - lo)
                for e1, e2 in itertools.product((None, 0, m), repeat=2):
                    a1, b1 = {0: (0, hi[0]), m: (lo[0], m)}.get(e1, (lo[0], hi[0]))
                    a2, b2 = {0: (0, hi[1]), m: (lo[1], m)}.get(e2, (lo[1], hi[1]))
                    spans = np.array([[a1, b1, a2, b2]], dtype=np.int64)
                    for first_axis_only in (False, True):
                        shapes.clear()
                        got = _dilation_limits(mask, spans, first_axis_only)
                        want = scan_dilation_limits(ii, spans, first_axis_only)
                        assert np.array_equal(got.view(np.int64), want.view(np.int64))
                        cropped += shapes != [] and shapes[0] != ii.shape
        for first_axis_only in (False, True):
            none = _dilation_limits(holed, np.zeros((0, 4), dtype=np.int64), first_axis_only)
            assert none.shape == (0,)
    assert cropped >= 600


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(open_sets())
@example(TIE_SET)
@example(row_of_squares(4).cells)
def test_half_level_matches_oracles(U):
    """Equal to the exact rectangle enumeration, ties included."""
    assert np.array_equal(strong_maximal_half_level(U).mask, oracle_half_level(U))


def test_half_level_decides_ties_exactly():
    """The best rectangle average through cell (6, 6) is exactly 1/2."""
    m = 1 << TIE_SET.n
    ii = np.zeros((m + 1, m + 1), dtype=np.int64)
    ii[1:, 1:] = np.cumsum(np.cumsum(TIE_SET.mask, axis=0), axis=1)
    best = max(
        Fraction(int(ii[r1, c1] - ii[r0, c1] - ii[r1, c0] + ii[r0, c0]), (r1 - r0) * (c1 - c0))
        for r0 in range(7)
        for r1 in range(7, m + 1)
        for c0 in range(7)
        for c1 in range(7, m + 1)
    )
    got = strong_maximal_half_level(TIE_SET).mask
    assert best == Fraction(1, 2) and not got[6, 6]
    assert np.array_equal(got, oracle_half_level(TIE_SET))


SUM_CASES = [
    (4, 0, 0.5, 0.5, True),
    (5, 1, 0.5, 0.5, True),
    (5, 2, 0.5, 0.5, True),
    (6, 3, 0.5, 0.5, True),
    (6, 4, 0.5, 0.3, True),
    (6, 5, 0.5, 0.7, True),
    (5, 6, 0.15, 0.5, False),
    (6, 6, 0.2, 0.3, False),
    (3, 0, 0.0, 0.5, False),
]


@pytest.mark.parametrize(
    "n, seed, density, epsilon, full", SUM_CASES, ids=[f"{case[0]}-{case[1]}" for case in SUM_CASES]
)
def test_journe_sum_keeps_sequential_bits(n, seed, density, epsilon, full):
    """Value, ratio and mus are those of a left-to-right loop of Python powers.

    At density 1/2 the enlargement fills the grid and every mu is a grid
    reach; at 0.15 and 0.2 it does not; the empty set sums to 0.0.  The mu
    reference is the Fraction oracle up to n = 5 and the linear scan, which
    matches it bit for bit, at n = 6.
    """
    U = random_set(n, seed, density)
    V = enlargement(U, 0.5)
    assert V.mask.all() == full
    js = journe_sum(U, 0.5, epsilon)
    assert js.rectangles == maximal_rectangles(U)
    if n < 6:
        want = [oracle_mu(R, V) for R in js.rectangles]
    else:
        want = scan_dilation_limits(_integral_image(V.mask), js.rectangles.spans()).tolist()
    total = 0.0
    for R, got, mu in zip(js.rectangles, js.mus, want, strict=True):
        assert got == mu
        total += mu**-epsilon * R.area
    assert js.value.hex() == total.hex()
    meas = U.measure()
    assert js.ratio == (total / meas if meas > 0.0 else 0.0)


def test_journe_sum_of_boxes_keeps_sequential_bits():
    """Boxes with even corners at n = 3: few, large rectangles, whose powers show.

    On random sets a last-bit change in the power of a rare mu is lost in
    the total, but a box has only a handful of maximal rectangles.  numpy's
    vectorized power rounds 2.0**-0.3, the term of a mu = 2 rectangle such
    as the box [2, 4) x [2, 4), apart from Python's on some machines, and
    that moves the sum.
    """
    for a, b, c, d in itertools.product(range(0, 9, 2), repeat=4):
        if a < b and c < d:
            U = square_set(3, range(a, b), range(c, d))
            for epsilon in (0.3, 0.5, 0.7):
                js = journe_sum(U, 0.5, epsilon)
                total = 0.0
                for R, mu in zip(js.rectangles, js.mus, strict=True):
                    total += mu**-epsilon * R.area
                assert js.value.hex() == total.hex()


def test_embeddedness_plane_semantics():
    """Dilates never wrap: a corner cell stops at the boundary."""
    full = CellSet(2, np.ones((4, 4), dtype=bool))
    corner = CellRect(2, 0, 1, 0, 1)
    center = CellRect(2, 2, 3, 2, 3)
    assert embeddedness(corner, full, full).mu == 1.0
    assert embeddedness(center, full, full).mu == 3.0


def test_embeddedness_exact_triple_dilate():
    V = square_set(3, range(1, 7), range(1, 7))
    R = CellRect(3, 3, 5, 3, 5)
    assert embeddedness(R, V, V).mu == 3.0


def test_embeddedness_at_least_one_on_maximal_rectangles():
    rng = np.random.default_rng(74)
    for _ in range(5):
        U = CellSet(3, rng.random((8, 8)) < 0.5)
        if U.cell_count == 0:
            continue
        V = enlargement(U, 0.5)
        for R in maximal_rectangles(U):
            rep = embeddedness(R.to_cellrect(U.n), V, U)
            assert rep.mu >= 1.0
            assert rep.nu >= 1.0


def test_embeddedness_validation():
    """R, V and U must share V's grid."""
    V = CellSet(2, np.ones((4, 4), dtype=bool))
    R = CellRect(2, 0, 2, 0, 2)
    assert embeddedness(R, V, V).nu == 1.0
    with pytest.raises(ValueError):
        embeddedness(CellRect(3, 0, 2, 0, 2), V, V)
    with pytest.raises(ValueError):
        embeddedness(R, V, CellSet(3, np.ones((8, 8), dtype=bool)))


def test_journe_sum_single_square():
    sq = square_set(2, range(2), range(2))
    js = journe_sum(sq, 0.5, 0.5)
    assert js.ratio == 1.0
    assert js.value == sq.measure()
    assert len(js.rectangles) == 1 and js.mus.tolist() == [1.0]


def test_journe_sum_monotone_in_epsilon():
    rng = np.random.default_rng(75)
    U = CellSet(4, rng.random((16, 16)) < 0.45)
    r1 = journe_sum(U, 0.5, 0.3).ratio
    r2 = journe_sum(U, 0.5, 0.7).ratio
    assert r2 <= r1 + 1e-12  # larger epsilon discounts embedded rectangles more


def test_journe_sum_axis_swap_invariant():
    rng = np.random.default_rng(76)
    for _ in range(5):
        U = CellSet(4, rng.random((16, 16)) < 0.4)
        if U.cell_count == 0:
            continue
        swapped = CellSet(4, U.mask.T.copy())
        a = journe_sum(U, 0.5, 0.5)
        b = journe_sum(swapped, 0.5, 0.5)
        assert abs(a.ratio - b.ratio) < 1e-12


def test_journe_sum_dense_set_bounded():
    rng = np.random.default_rng(77)
    U = CellSet(5, rng.random((32, 32)) < 0.6)
    js = journe_sum(U, 0.5, 0.5)
    assert np.isfinite(js.ratio)
    assert js.ratio < 100.0
    with pytest.raises(ValueError):
        journe_sum(U, 0.5, 1.5)


def test_bad_class_singleton_and_example():
    n = 2
    S = collection(n, (DyadicRectangle.from_indices(1, 0, 1, 0),))
    assert len(bad_class(S, 1, 0.5)) == 0

    square = DyadicRectangle.from_indices(1, 0, 1, 0)
    w1 = DyadicRectangle.from_indices(0, 0, 2, 0)
    w2 = DyadicRectangle.from_indices(0, 0, 2, 1)
    S = collection(n, (square, w1, w2))
    bad = bad_class(S, 1, 0.75)
    assert set(bad) == {square}

    # strictness: coverage exactly gamma|R| is not bad
    S2 = collection(n, (square, w1))
    assert len(bad_class(S2, 1, 0.5)) == 0
    assert set(bad_class(S2, 1, 0.49)) == {square}
    with pytest.raises(ValueError):
        bad_class(S, 3, 0.5)
    with pytest.raises(ValueError):
        bad_class(S, 1, 1.0)


def loop_bad_class(S, axis, gamma):
    """Cell-by-cell cover of each member by its strictly axis-wider peers."""
    n = S.n
    scale = (lambda R: R.interval1.j) if axis == 1 else (lambda R: R.interval2.j)
    rects = S.rectangles
    spans = {R: (R.interval1.cell_span(n), R.interval2.cell_span(n)) for R in rects}
    bad = []
    for R in rects:
        (r0, r1), (c0, c1) = spans[R]
        cover = np.zeros((r1 - r0, c1 - c0), dtype=bool)
        for other in rects:
            if other == R or scale(other) >= scale(R):
                continue
            (a0, a1), (b0, b1) = spans[other]
            x0, x1 = max(a0, r0), min(a1, r1)
            y0, y1 = max(b0, c0), min(b1, c1)
            if x0 < x1 and y0 < y1:
                cover[x0 - r0 : x1 - r0, y0 - c0 : y1 - c0] = True
        if int(cover.sum()) * 4.0**-n > gamma * R.area:
            bad.append(R)
    return collection(n, bad)


@st.composite
def rect_collections(draw):
    """The maximal rectangles of a random set, or a random dyadic family."""
    if draw(st.booleans()):
        return maximal_rectangles(draw(open_sets()))
    n = draw(st.integers(1, 3))
    rects = enumerate_dyadic_rectangles(n)
    keep = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(len(rects))
    return collection(n, (R for R, k in zip(rects, keep) if k < 0.15))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rect_collections(), st.sampled_from([1, 2]), st.sampled_from([0.3, 0.5, 0.5 ** (1 / 3)]))
def test_bad_class_matches_loop_oracle(S, axis, gamma):
    assert bad_class(S, axis, gamma) == loop_bad_class(S, axis, gamma)


def test_thin_collection_separation():
    rng = np.random.default_rng(78)
    n = 6
    all_rects = list(enumerate_dyadic_rectangles(2))
    for trial in range(20):
        mu = float(rng.uniform(1.0, 8.0))
        gamma = float(rng.uniform(0.2, 0.9))
        d = math.ceil(math.log2(32.0 * mu / (1.0 - gamma)))
        picks = []
        for _ in range(12):
            j1 = int(rng.integers(0, n + 1))
            j2 = int(rng.integers(0, n + 1))
            k1 = int(rng.integers(0, 2**j1))
            k2 = int(rng.integers(0, 2**j2))
            picks.append(DyadicRectangle.from_indices(j1, k1, j2, k2))
        S = collection(n, set(picks))
        subclasses = thin_collection(S, mu, gamma)
        assert sum(len(c) for c in subclasses) == len(S)
        assert len(subclasses) <= d * d
        # one scale residue pair per subclass, in residue order
        residues = [{(R.interval1.j % d, R.interval2.j % d) for R in sub} for sub in subclasses]
        assert all(len(r) == 1 for r in residues)
        assert [min(r) for r in residues] == sorted(min(r) for r in residues)
        for sub in subclasses:
            for a in sub:
                for b in sub:
                    for axis in (1, 2):
                        ja = a.interval1.j if axis == 1 else a.interval2.j
                        jb = b.interval1.j if axis == 1 else b.interval2.j
                        assert ja == jb or abs(ja - jb) >= d


def test_thin_collection_congruent_single_class():
    n = 3
    rects = tuple(
        DyadicRectangle.from_indices(2, k1, 1, k2) for k1 in range(4) for k2 in range(2)
    )
    S = collection(n, rects)
    subclasses = thin_collection(S, 1.0, 0.5)
    assert len(subclasses) == 1
    assert len(subclasses[0]) == len(rects)
    with pytest.raises(ValueError):
        thin_collection(S, 0.5, 0.5)


def test_rect_collection_keys():
    """Integer keys, strictly increasing in rectangle order and copied;
    objects only on iteration."""
    n = 3
    rects = [R for R in enumerate_dyadic_rectangles(n) if (R.interval1.k + R.interval2.j) % 3 == 0]
    col = collection(n, reversed(rects))
    assert col.rectangles == tuple(sorted(rects)) and list(col) == sorted(rects)
    assert col.keys.dtype == np.int64 and not col.keys.flags.writeable
    assert col == RectCollection(n, col.keys) and col != RectCollection(n + 1, col.keys)
    assert col.spans().tolist() == [
        [*R.interval1.cell_span(n), *R.interval2.cell_span(n)] for R in sorted(rects)
    ]
    # computed spans are read-only and not stored on the collection
    assert not col.spans().flags.writeable and col._spans is None
    outside = DyadicRectangle.from_indices(1, 1, 0, 0)
    assert rects[0] in col.rectangles and outside not in col.rectangles
    assert len(collection(n, ())) == 0 and collection(n, ()).spans().shape == (0, 4)
    # shuffled, reversed, swapped and repeated keys all raise
    maximal = maximal_rectangles(random_set(6, 3, 0.5))
    assert len(maximal) > 1000
    keys = maximal.keys
    swapped = keys.copy()
    swapped[[500, 501]] = swapped[[501, 500]]
    for bad in (
        keys[np.random.default_rng(5).permutation(len(keys))],
        keys[::-1],
        swapped,
        np.concatenate([keys, keys[-1:]]),
        np.concatenate([keys[:3], keys[2:]]),
        keys[[0, 0]],
        [tuple(keys[1]), tuple(keys[0])],
    ):
        with pytest.raises(ValueError, match="strictly increasing"):
            RectCollection(6, bad)
    for key in ((4, 0, 0, 0), (1, 2, 0, 0), (0, 0, -1, 0), (2, -1, 0, 0)):
        with pytest.raises(ValueError, match="out of range"):
            RectCollection(n, [key])
    # the keys are copied: the caller's array stays writable and its later
    # changes do not reach the collection
    keys = maximal.keys.copy()
    copied = RectCollection(6, keys)
    assert np.array_equal(copied.keys, maximal.keys) and not copied.keys.flags.writeable
    assert keys.flags.writeable and not np.shares_memory(copied.keys, keys)
    keys[:] = keys[::-1]
    assert copied == maximal
    assert not np.shares_memory(RectCollection(6, maximal.keys).keys, maximal.keys)


def old_strata(mus) -> list[int]:
    """The per-rectangle comprehension that stratify's frexp strata replaced."""
    return [0 if mu <= 1.0 else math.ceil(math.log2(mu)) for mu in mus]


def test_stratify():
    """The frexp strata equal the old log2 comprehension.

    The corpus is the maximal rectangles of random sets in their
    enlargements, where some mu are exact powers of two above 1, every
    dyadic rectangle in the full grid, and every one in two filled boxes.
    On the full grid every dyadic rectangle's mu is an odd integer (its
    grid reach over its half-width), so mu = 2 and mu = 4 come from the
    boxes: [2, 4)^2 at n = 3 dilates by exactly 2 inside [1, 5)^2, and
    [6, 8)^2 at n = 4 by exactly 4 inside [3, 11)^2.  Those are the top
    ends of strata 1 and 2, which a bare frexp exponent would move up one.
    """
    full = CellSet(2, np.ones((4, 4), dtype=bool))
    center = DyadicRectangle.from_indices(2, 2, 2, 2)
    corner = DyadicRectangle.from_indices(2, 0, 2, 0)
    col = collection(2, (center, corner))
    strata = stratify(col, full)
    # mu is 3.0 at the center (stratum 2) and 1.0 at the corner (stratum 0)
    assert set(strata) == {0, 2}
    assert strata[0].rectangles == (corner,)
    assert strata[2].rectangles == (center,)
    assert corner in strata[0].rectangles and center not in strata[0].rectangles
    assert sum(len(s) for s in strata.values()) == len(col)

    cases = []
    for n, seed, density in itertools.product(range(2, 7), range(4), (0.05, 0.1, 0.2, 0.5)):
        U = random_set(n, 1000 * n + seed, density)
        cases.append((maximal_rectangles(U), enlargement(U, 0.5)))
    for n in range(1, 6):
        full = CellSet(n, np.ones((1 << n, 1 << n), dtype=bool))
        cases.append((collection(n, enumerate_dyadic_rectangles(n)), full))
    for n, lo, hi, key, mu, k in ((3, 1, 5, (2, 1, 2, 1), 2.0, 1), (4, 3, 11, (3, 3, 3, 3), 4.0, 2)):
        box = np.zeros((1 << n, 1 << n), dtype=bool)
        box[lo:hi, lo:hi] = True
        V, R = CellSet(n, box), DyadicRectangle.from_indices(*key)
        col = collection(n, enumerate_dyadic_rectangles(n))
        assert embeddedness(R.to_cellrect(n), V, V).mu == mu
        assert R in stratify(col, V)[k].rectangles
        cases.append((col, V))
    powers = seen = 0
    for col, V in cases:
        mus = _dilation_limits(V.mask, col.spans())
        strata = stratify(col, V)
        assert all(len(sub) for sub in strata.values())
        got = {tuple(key): k for k, sub in strata.items() for key in sub.keys.tolist()}
        assert [got[tuple(key)] for key in col.keys.tolist()] == old_strata(mus.tolist())
        powers += int(np.count_nonzero((mus > 1) & (np.frexp(mus)[0] == 0.5)))
        seen += len(col)
    assert powers >= 200 and seen > 15_000


def test_double_orthogonality_quadruples():
    """Product pairs with eightfold scale gaps in one axis pair orthogonally.

    For pairs (fine, coarse) sharing axis-1 gaps of at least 8x, and the
    two fine rectangles separated by 8x in axis 1 as well, the products
    v_fine conj(v_coarse) are exactly orthogonal.  Needs axis-1 scales up
    to 6, hence N = 512.
    """
    rng = np.random.default_rng(80)
    N = 512
    worst = 0.0
    for _ in range(6):
        jf1 = 6
        jc1 = int(rng.integers(0, 4))
        jf2 = 3
        jc2 = 0
        # axis-2 scales keep each pair comparable (within factor 4)
        ja = int(rng.integers(0, 4))
        jb = min(6, ja + int(rng.integers(0, 3)))
        quad = []
        for j1, j2 in ((jf1, ja), (jc1, jb), (jf2, ja), (jc2, jb)):
            k1 = int(rng.integers(0, 2**j1))
            k2 = int(rng.integers(0, 2**j2))
            quad.append(product_wavelet(DyadicRectangle.from_indices(j1, k1, j2, k2), N))
        p1 = quad[0] * quad[1].conj()
        p2 = quad[2] * quad[3].conj()
        worst = max(worst, abs(p1.inner(p2)))
    assert worst <= 1e-9


def test_row_of_squares_layout():
    row = row_of_squares(4)
    first, second = row.squares[:2]
    assert first.b1 - first.a1 == 3 and second.a1 - first.a1 == 5  # side 3, period 5
    assert row.cells.n == row_resolution(4) == math.ceil(math.log2(4 * 5))
    assert len(row.squares) == 4
    assert row.middle == row.squares[2]
    m = 2**row.cells.n
    assert row.cells.measure() == 4 * (3 / m) ** 2
    for q, sq in enumerate(row.squares):
        assert sq.a1 == q * 5 and sq.b1 == q * 5 + 3
        assert sq.a2 == 0 and sq.b2 == 3
    with pytest.raises(ValueError):
        row_of_squares(1)


def test_row_of_squares_separates_nu_from_mu():
    vals = []
    for K in (4, 8, 16):
        row = row_of_squares(K)
        V = enlargement(row.cells, 0.5)
        rep = embeddedness(row.middle, V, U=row.cells)
        assert rep.mu == 1.0
        vals.append(rep.nu)
    assert abs(vals[0] - 23.0 / 3.0) < 1e-12
    assert abs(vals[1] - 43.0 / 3.0) < 1e-12
    assert abs(vals[2] - 83.0 / 3.0) < 1e-12
    assert vals[0] < vals[1] < vals[2]
    assert vals[1] / 1.0 >= 2.0
