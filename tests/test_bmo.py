"""Rectangular and product BMO functionals and their certificates."""

import csv
import functools
import tracemalloc

import numpy as np
import pytest

from bicomm import bmo
from bicomm.bmo import (
    _best_square,
    _greedy_search,
    _square_spans,
    coefficient_energy,
    product_bmo_lower,
    rect_bmo,
    rectangles_inside,
)
from bicomm.cli import ExperimentConfig, _family_coefficients, run
from bicomm.grid import (
    CellSet,
    DyadicRectangle,
    _interval_spans,
    _spans_inside,
    enumerate_dyadic_rectangles,
    interval_index,
)
from bicomm.journe import row_resolution
from bicomm.wavelets import WaveletCoefficients


def rand_coeffs(rng, n, density=0.5):
    K = 2 ** (n + 1) - 1
    mat = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
    mat[rng.random((K, K)) > density] = 0.0
    return WaveletCoefficients(n, mat)


def rect_inside_cellset(R, U):
    a1, b1 = R.interval1.cell_span(U.n)
    a2, b2 = R.interval2.cell_span(U.n)
    return bool(np.all(U.mask[a1:b1, a2:b2]))


def test_rectangles_inside_matches_bruteforce():
    rng = np.random.default_rng(30)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        U = CellSet(n, rng.random((2**n, 2**n)) < 0.5)
        inside = rectangles_inside(U, n)
        for R in enumerate_dyadic_rectangles(n):
            i = interval_index(R.interval1.j, R.interval1.k)
            j = interval_index(R.interval2.j, R.interval2.k)
            assert inside[i, j] == rect_inside_cellset(R, U)


def test_coefficient_energy_direct():
    rng = np.random.default_rng(31)
    n = 2
    c = rand_coeffs(rng, n)
    U = CellSet(n, rng.random((4, 4)) < 0.6)
    want = 0.0
    for R, val in c.items():
        if rect_inside_cellset(R, U):
            want += abs(val) ** 2
    assert abs(coefficient_energy(c, U) - want) < 1e-12


def brute_rect_bmo(c):
    best = 0.0
    arg = None
    for R in enumerate_dyadic_rectangles(c.max_scale):
        e = 0.0
        for S, val in c.items():
            if R.contains(S):
                e += abs(val) ** 2
        r = np.sqrt(e / R.area)
        if r > best:
            best, arg = r, R
    return best, arg


def test_rect_bmo_matches_bruteforce():
    rng = np.random.default_rng(32)
    for _ in range(10):
        c = rand_coeffs(rng, 3)
        est = rect_bmo(c)
        want, _ = brute_rect_bmo(c)
        assert abs(est.value - want) < 1e-10 * max(1.0, want)
        assert est.exact
        assert est.recheck(c)


def test_rect_bmo_tie_order():
    """Ties go to the first rectangle in (j1, j2, k1, k2) order."""
    for first, second in (((1, 0, 2, 0), (2, 3, 1, 1)), ((2, 0, 2, 3), (2, 3, 2, 0))):
        R = DyadicRectangle.from_indices(*first)
        S = DyadicRectangle.from_indices(*second)
        c = WaveletCoefficients.from_dict(2, {R: 1.0, S: 1.0})
        est = rect_bmo(c)
        assert est.value == np.sqrt(1.0 / R.area)
        cr = R.to_cellrect(2)
        want = np.zeros((4, 4), dtype=bool)
        want[cr.a1 : cr.b1, cr.a2 : cr.b2] = True
        assert np.array_equal(est.witness.mask, want)


def test_square_spans_are_the_dyadic_squares():
    for n in range(4):
        rects = enumerate_dyadic_rectangles(n)
        squares = sorted(R for R in rects if R.interval1.j == R.interval2.j)
        want = [R.interval1.cell_span(n) + R.interval2.cell_span(n) for R in squares]
        assert _square_spans(n) == want


def scalar_best_square(c_abs2, mask, cur_e):
    """The square scan of _best_square one square at a time: a fresh trial
    mask and containment table per square, the first maximum winning."""
    n = mask.shape[0].bit_length() - 1
    s0, s1 = _interval_spans(n, n)
    cell_area = 4.0**-n
    best_gain = -np.inf
    best = None
    for r0, r1, q0, q1 in _square_spans(n):
        new_cells = int(np.count_nonzero(~mask[r0:r1, q0:q1]))
        if new_cells == 0:
            continue
        trial = mask.copy()
        trial[r0:r1, q0:q1] = True
        e = float(np.sum(c_abs2[_spans_inside(trial, s0, s1)]))
        gain = (e - cur_e) / (new_cells * cell_area)
        if gain > best_gain:
            best_gain = gain
            best = (trial, e, new_cells)
    return best


def scalar_greedy_search(c, seed):
    """The greedy search with squares scored one at a time (the oracle of
    the batched _greedy_search)."""
    n = c.max_scale
    c_abs2 = np.abs(c.matrix) ** 2
    s0, s1 = _interval_spans(n, n)
    mask = seed.witness.mask.copy()
    cell_area = 4.0**-n
    cur_e = float(np.sum(c_abs2[_spans_inside(mask, s0, s1)]))
    cur_m = float(np.count_nonzero(mask)) * cell_area
    while True:
        best = scalar_best_square(c_abs2, mask, cur_e)
        if best is None:
            break
        trial, e, new_cells = best
        m = cur_m + new_cells * cell_area
        if e / m <= cur_e / cur_m:
            break
        mask, cur_e, cur_m = trial, e, m
    return mask, cur_e, cur_m


def family_corpus(family, n, seeds, **fields):
    cfg = ExperimentConfig("bmo-scan", N=2 ** (n + 4), n=n, family=family, **fields)
    return [_family_coefficients(cfg, np.random.default_rng(seed)) for seed in seeds]


def comb_coefficients(rng, n):
    """A unit coefficient on row r and teeth below it: on fewer than half the
    columns, a column interval of 2 or 4 rows about row r.  Each tooth's
    ratio is below the row's, so rect_bmo's witness is the row, but the
    tooth adds more energy per new cell than the row holds per cell, so the
    greedy search grows by several squares (the random families mostly
    stop at their seed)."""
    m = 1 << n
    r = int(rng.integers(0, m))
    vals = {DyadicRectangle.from_indices(n, r, 0, 0): 1.0}
    for col in rng.choice(m, max(1, m // 2 - 1), replace=False):
        t = int(rng.integers(1, min(n, 2) + 1))
        energy = 2.0**-n * (2**t - 1 + rng.uniform(0.1, 0.9))
        vals[DyadicRectangle.from_indices(n - t, r >> t, n, int(col))] = float(np.sqrt(energy))
    return WaveletCoefficients.from_dict(n, vals)


def greedy_corpus():
    """random-carleson at n = 1-5 (criterion 7's 200 seeds at n=3), the other
    coefficient families, dense random coefficients, combs, and two equal
    far-apart cells, whose union's ratio equals the seed's (the stop rule's
    equality)."""
    rng = np.random.default_rng(39)
    corpus = [comb_coefficients(rng, n) for n in (1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4)]
    for n, count in ((1, 20), (2, 20), (4, 8), (5, 2)):
        corpus += family_corpus("random-carleson", n, [[n, i] for i in range(count)])
    corpus += family_corpus("random-carleson", 3, [[0, i] for i in range(200)])
    for K in (2, 4):
        n = row_resolution(K)
        corpus += family_corpus("row-of-squares-dual", n, [[K, i] for i in range(3)], K=K)
    for n in range(1, 5):
        for family in ("multiscale-square", "single-rectangle"):
            corpus += family_corpus(family, n, [[n, i] for i in range(4)])
    corpus += [rand_coeffs(rng, n) for n in (2, 3, 3, 4)]
    cells = (DyadicRectangle.from_indices(3, 0, 3, 0), DyadicRectangle.from_indices(3, 5, 3, 6))
    corpus.append(WaveletCoefficients.from_dict(3, dict.fromkeys(cells, 1.0)))
    return corpus


def float_bits(values):
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


@functools.cache
def scalar_searches():
    """(coefficients, seed, scalar_greedy_search result) over greedy_corpus()."""
    searches = []
    for c in greedy_corpus():
        seed = rect_bmo(c)
        searches.append((c, seed, scalar_greedy_search(c, seed)))
    return searches


@pytest.mark.parametrize("block", [3, 64])
def test_greedy_matches_scalar_loop_bit_for_bit(monkeypatch, block):
    """The batched search returns the scalar loop's mask, energy and measure
    to the bit; a block of 3 splits the squares of each scale across blocks."""
    monkeypatch.setattr(bmo, "_GREEDY_BLOCK", block)
    grew = 0
    for c, seed, (want_mask, want_e, want_m) in scalar_searches():
        mask, e, m = _greedy_search(c, seed)
        assert np.array_equal(mask, want_mask)
        assert float_bits([e, m]) == float_bits([want_e, want_m])
        grew += not np.array_equal(mask, seed.witness.mask)
    # the combs grow, so the comparison covers accepted squares
    assert grew >= 10


def tie_instance():
    """Row 0 of the 8 x 8 grid and unit coefficients on the vertical
    dominoes under its cells 0, 1, 4 and 5: the squares of scale 2 over
    columns 0-1 and 4-5 and the four cells under the dominoes each add
    energy 64 per unit of measure, more than any other square."""
    n = 3
    dominoes = [DyadicRectangle.from_indices(2, 0, 3, k) for k in (0, 1, 4, 5)]
    c = WaveletCoefficients.from_dict(n, dict.fromkeys(dominoes, 1.0))
    mask = np.zeros((8, 8), dtype=bool)
    mask[0] = True
    return c, mask


@pytest.mark.parametrize("block", [1, 2, 3, 4, 64, 4096])
def test_tie_goes_to_first_square_in_order(monkeypatch, block):
    """Six squares tie on gain; the first in (j, k1, k2) order wins, as in
    the scalar loop, whether the tied squares share a block or not."""
    monkeypatch.setattr(bmo, "_GREEDY_BLOCK", block)
    c, mask = tie_instance()
    c_abs2 = np.abs(c.matrix) ** 2
    cur_e = coefficient_energy(c, CellSet(3, mask))
    squares = _square_spans(3)
    gains = {}
    for i, (r0, r1, q0, q1) in enumerate(squares):
        new_cells = int(np.count_nonzero(~mask[r0:r1, q0:q1]))
        if new_cells:
            trial = mask.copy()
            trial[r0:r1, q0:q1] = True
            gains[i] = (coefficient_energy(c, CellSet(3, trial)) - cur_e) / (new_cells / 64)
    top = max(gains.values())
    tied = [i for i, g in gains.items() if g == top]
    want = [(0, 2, 0, 2), (0, 2, 4, 6), (1, 2, 0, 1), (1, 2, 1, 2), (1, 2, 4, 5), (1, 2, 5, 6)]
    assert top == 64.0 and [squares[i] for i in tied] == want
    trial, e, new_cells = _best_square(c_abs2, mask, cur_e)
    want_trial = mask.copy()
    want_trial[0:2, 0:2] = True
    assert np.array_equal(trial, want_trial) and (e, new_cells) == (2.0, 2)
    assert np.array_equal(scalar_best_square(c_abs2, mask, cur_e)[0], want_trial)
    # blocks of the squares with new cells: below 4 the first two tied squares
    # fall in different blocks, and below 64 the cells in a later one
    order = {i: pos for pos, i in enumerate(gains)}
    blocks = [order[i] // block for i in tied]
    assert (blocks[0] != blocks[1]) == (block < 4) and (blocks[0] != blocks[2]) == (block < 64)


def test_best_square_none_when_mask_is_full():
    c = rand_coeffs(np.random.default_rng(40), 2)
    full = np.ones((4, 4), dtype=bool)
    assert _best_square(np.abs(c.matrix) ** 2, full, 0.0) is None


def brute_product_bmo(c):
    """Max of sqrt(energy/measure) over every union of cells at n<=2."""
    n = c.max_scale
    m = 2**n
    inside_mass = np.zeros((m, m))
    best = 0.0
    cells = [(i, j) for i in range(m) for j in range(m)]
    for bits in range(1, 2 ** (m * m)):
        mask = np.zeros((m, m), dtype=bool)
        for idx, (i, j) in enumerate(cells):
            if bits >> idx & 1:
                mask[i, j] = True
        U = CellSet(n, mask)
        e = coefficient_energy(c, U)
        best = max(best, np.sqrt(e / U.measure()))
    return best


def test_exhaustive_scan_matches_bruteforce_n1():
    rng = np.random.default_rng(34)
    for _ in range(8):
        c = rand_coeffs(rng, 1, density=0.8)
        est = product_bmo_lower(c, method="exhaustive")
        assert est.exact
        want = brute_product_bmo(c)
        assert abs(est.value - want) < 1e-10 * max(1.0, want)
        assert est.recheck(c)


def test_exhaustive_scan_blocks_match_one_table(monkeypatch):
    """The scan in blocks of _SCAN_BLOCK unions gives the bits of one table
    over all 65,535 unions at n = 2, and its peak stays a small fraction of
    that table's 25.7 MB float64 copy."""
    rng = np.random.default_rng(39)
    cases = [rand_coeffs(rng, 2, density) for density in (0.2, 0.5, 0.9, 1.0) for _ in range(3)]
    cases.append(_family_coefficients(ExperimentConfig("bmo-scan", N=64, n=2), np.random.default_rng([0, 1])))
    blocked = [bmo._exhaustive_scan(c) for c in cases]
    with monkeypatch.context() as m:
        m.setattr(bmo, "_SCAN_BLOCK", 1 << 16)
        whole = [bmo._exhaustive_scan(c) for c in cases]
    for a, b in zip(blocked, whole):
        assert np.float64(a.value).view(np.int64) == np.float64(b.value).view(np.int64)
        assert np.array_equal(a.witness.mask, b.witness.mask)
    tracemalloc.start()
    try:
        bmo._exhaustive_scan(cases[-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_greedy_close_to_exhaustive_n2():
    rng = np.random.default_rng(35)
    worst = 1.0
    for _ in range(15):
        c = rand_coeffs(rng, 2)
        greedy = product_bmo_lower(c, method="greedy").value
        exact = product_bmo_lower(c, method="exhaustive").value
        assert greedy <= exact + 1e-9
        worst = min(worst, greedy / exact)
    assert worst >= 0.75


def test_product_dominates_rect(tmp_path):
    """Bit for bit.  Seeds 39 and 58 of bmo-scan at n=2 read 1 ulp below
    rect_bmo when a search returned the witness energy summed its own way."""
    rng = np.random.default_rng(36)
    for i in range(20):
        c = rand_coeffs(rng, 2 + i % 2)
        rect = rect_bmo(c).value
        for method in ("greedy", "auto"):
            assert product_bmo_lower(c, method=method).value >= rect
    for seed in (39, 58):
        cfg = ExperimentConfig("bmo-scan", N=64, n=2, seed=seed, instances=1, out=str(tmp_path))
        csv_path, _ = run(cfg)
        with open(csv_path, encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        rect = float(row["rect_value"])
        assert float(row["greedy_value"]) >= rect
        assert float(row["product_value"]) >= rect


def test_far_apart_equal_rectangles():
    """Two equal far-apart cells: the union keeps the single-cell ratio."""
    n = 2
    a = DyadicRectangle.from_indices(2, 0, 2, 0)
    b = DyadicRectangle.from_indices(2, 3, 2, 3)
    c = WaveletCoefficients.from_dict(n, {a: 1.0, b: 1.0})
    single = rect_bmo(c).value
    est = product_bmo_lower(c, method="exhaustive")
    assert est.value >= single - 1e-12
    union = CellSet.from_cells(n, [(0, 0), (3, 3)])
    ratio_union = np.sqrt(coefficient_energy(c, union) / union.measure())
    assert abs(est.value - ratio_union) < 1e-12


def test_homogeneity():
    rng = np.random.default_rng(37)
    c = rand_coeffs(rng, 2)
    for fn in (rect_bmo, product_bmo_lower):
        v1 = fn(c).value
        v2 = fn(WaveletCoefficients(c.max_scale, 2.0 * c.matrix)).value
        assert abs(v2 - 2.0 * v1) < 1e-12 * max(1.0, v1)


def test_monotone_in_coefficients_exhaustive():
    rng = np.random.default_rng(38)
    c = rand_coeffs(rng, 2)
    bigger = WaveletCoefficients(2, c.matrix * 1.0 + np.eye(7) * 0.5)
    v1 = product_bmo_lower(c, method="exhaustive").value
    v2 = product_bmo_lower(bigger, method="exhaustive").value
    # pointwise larger magnitudes cannot shrink the exhaustive maximum
    mags_grew = np.all(np.abs(bigger.matrix) >= np.abs(c.matrix) - 1e-15)
    if mags_grew:
        assert v2 >= v1 - 1e-12


def test_dilation_invariance():
    """Halved coefficient on a one-scale-finer square leaves the value fixed."""
    a = DyadicRectangle.from_indices(0, 0, 0, 0)
    c1 = WaveletCoefficients.from_dict(1, {a: 1.0})
    fine = DyadicRectangle.from_indices(1, 0, 1, 0)
    c2 = WaveletCoefficients.from_dict(2, {fine: 0.5})
    v1 = product_bmo_lower(c1, method="exhaustive").value
    v2 = product_bmo_lower(c2, method="exhaustive").value
    assert abs(v2 - v1) < 1e-14


def test_method_validation():
    c = WaveletCoefficients(3, np.zeros((15, 15)))
    with pytest.raises(ValueError):
        product_bmo_lower(c, method="annealing")
    with pytest.raises(ValueError):
        product_bmo_lower(c, method="exhaustive")  # max_scale 3 too large
