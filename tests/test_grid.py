"""Grid signals, dyadic lattice, cell sets and maximal functions."""

import importlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicomm.grid import (
    CellRect,
    CellSet,
    DyadicInterval,
    DyadicRectangle,
    GridSignal1D,
    GridSignal2D,
    _box_sum,
    _covered,
    _fraction_at_most,
    _integral_image,
    _interval_spans,
    _occupied_window,
    _span_box_sums,
    _spans_inside,
    enumerate_dyadic_rectangles,
    index_interval,
    interval_index,
    load_signal,
    maximal_1d_level,
    save_signal,
    strong_maximal_half_level,
)
from bicomm.journe import row_of_squares


def rand_signal_1d(rng, N):
    return GridSignal1D(rng.standard_normal(N) + 1j * rng.standard_normal(N))


def rand_signal_2d(rng, N):
    return GridSignal2D(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))


def test_parseval_normalization():
    """Grid inner product N^{-d} sum f conj(g) equals the spectral inner product."""
    rng = np.random.default_rng(0)
    for N in (8, 32, 128):
        f = rand_signal_1d(rng, N)
        g = rand_signal_1d(rng, N)
        direct = np.mean(f.samples * np.conj(g.samples))
        spectral = np.sum(f.spectrum() * np.conj(g.spectrum()))
        assert abs(f.inner(g) - direct) < 1e-13
        assert abs(direct - spectral) < 1e-13 * max(1.0, abs(direct))
    F = rand_signal_2d(rng, 16)
    G = rand_signal_2d(rng, 16)
    direct = np.mean(F.samples * np.conj(G.samples))
    spectral = np.sum(F.spectrum() * np.conj(G.spectrum()))
    assert abs(F.inner(G) - direct) < 1e-13
    assert abs(direct - spectral) < 1e-13


def test_spectrum_roundtrip():
    rng = np.random.default_rng(1)
    f = rand_signal_1d(rng, 64)
    back = GridSignal1D.from_spectrum(f.spectrum())
    np.testing.assert_allclose(back.samples, f.samples, atol=1e-13)
    F = rand_signal_2d(rng, 32)
    back2 = GridSignal2D.from_spectrum(F.spectrum())
    np.testing.assert_allclose(back2.samples, F.samples, atol=1e-13)


def test_signal_algebra_matches_numpy():
    rng = np.random.default_rng(2)
    f = rand_signal_1d(rng, 32)
    g = rand_signal_1d(rng, 32)
    np.testing.assert_array_equal((f + g).samples, f.samples + g.samples)
    np.testing.assert_array_equal((f - g).samples, f.samples - g.samples)
    np.testing.assert_array_equal((f * g).samples, f.samples * g.samples)
    np.testing.assert_array_equal((f * 2.5).samples, f.samples * 2.5)
    np.testing.assert_array_equal((-f).samples, -f.samples)
    np.testing.assert_array_equal(f.conj().samples, np.conj(f.samples))
    assert abs(f.norm2() - np.sqrt(np.mean(np.abs(f.samples) ** 2))) < 1e-15
    assert type(f + g) is GridSignal1D and type(2.0 * rand_signal_2d(rng, 8)) is GridSignal2D


def test_signal_owns_frozen_samples():
    """A caller's array is copied and every signal's samples are read-only;
    the fresh arrays of arithmetic and from_spectrum are frozen as they are."""
    rng = np.random.default_rng(3)
    for shape, cls in (((16,), GridSignal1D), ((8, 8), GridSignal2D)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = cls(a)
        want = a.copy()
        a[...] = 0.0
        np.testing.assert_array_equal(f.samples, want)
        signals = [f, f + f, f - 1.0, f * f, 2.0 * f, -f, f.conj(), cls.from_spectrum(f.spectrum())]
        for g in signals:
            assert type(g) is cls and g.samples.dtype == np.complex128
            assert not g.samples.flags.writeable
            with pytest.raises(ValueError):
                g.samples[(0,) * len(shape)] = 1.0
        np.testing.assert_array_equal(f.samples, want)
        fresh = np.ones(shape, dtype=np.complex128)
        assert cls._adopt(fresh).samples is fresh and cls(fresh).samples is not fresh
        with pytest.raises(ValueError):
            cls._adopt(np.ones((3,) * len(shape), dtype=np.complex128))


def test_mixed_grid_arithmetic_rejected():
    """A signal operand must live on the same grid: same dimension and size."""
    one, two = GridSignal1D(np.ones(16)), GridSignal2D(np.ones((16, 16)))
    pairs = [(one, two), (two, one)]
    pairs += [(one, GridSignal1D(np.ones(32))), (two, GridSignal2D(np.ones((8, 8))))]
    ops = [
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x * y,
        lambda x, y: x.inner(y),
    ]
    for a, b in pairs:
        for op in ops:
            with pytest.raises(ValueError):
                op(a, b)


def test_power_of_two_enforced():
    with pytest.raises(ValueError):
        GridSignal1D(np.zeros(12))
    with pytest.raises(ValueError):
        GridSignal2D(np.zeros((8, 16)))


def test_admissibility_flag():
    N = 16
    spec = np.zeros(N, dtype=complex)
    spec[3] = 1.0
    assert GridSignal1D.from_spectrum(spec).is_admissible()
    spec[0] = 1.0  # DC
    assert not GridSignal1D.from_spectrum(spec).is_admissible()
    spec[0] = 0.0
    spec[N // 2] = 1.0  # Nyquist
    assert not GridSignal1D.from_spectrum(spec).is_admissible()
    # in 2D every zero and Nyquist line of either axis counts
    spec2 = np.zeros((N, N), dtype=complex)
    spec2[3, 5] = 1.0
    assert GridSignal2D.from_spectrum(spec2).is_admissible()
    for line in ((0, 5), (N // 2, 5), (3, 0), (3, N // 2)):
        bad = spec2.copy()
        bad[line] = 1e-6
        assert not GridSignal2D.from_spectrum(bad).is_admissible()


def test_dyadic_interval_geometry():
    I = DyadicInterval(3, 5)
    assert I.length == 0.125
    assert I.left == 0.625
    assert I.center == 0.6875
    with pytest.raises(ValueError):
        DyadicInterval(2, 4)
    with pytest.raises(ValueError):
        DyadicInterval(-1, 0)


def test_dyadic_interval_containment_exhaustive():
    """contains agrees with the real-line definition for all pairs up to scale 4."""
    ivals = [DyadicInterval(j, k) for j in range(5) for k in range(2**j)]
    for a in ivals:
        for b in ivals:
            real = a.left <= b.left and b.left + b.length <= a.left + a.length
            assert a.contains(b) == real


def test_interval_index_is_heap_order():
    """interval_index lists intervals by scale, then position; index_interval inverts it."""
    ivals = [DyadicInterval(j, k) for j in range(8) for k in range(2**j)]
    assert [interval_index(I.j, I.k) for I in ivals] == list(range(len(ivals)))
    j, k = index_interval(np.arange(len(ivals)))
    assert list(zip(j.tolist(), k.tolist())) == [(I.j, I.k) for I in ivals]
    np.testing.assert_array_equal(interval_index(j, k), np.arange(len(ivals)))
    for a, I in enumerate(ivals[1:], start=1):
        assert ivals[(a - 1) // 2] == DyadicInterval(I.j - 1, I.k // 2)


def test_cell_span():
    I = DyadicInterval(2, 3)
    assert I.cell_span(2) == (3, 4)
    assert I.cell_span(5) == (24, 32)
    with pytest.raises(ValueError):
        I.cell_span(1)
    # the heap-order array form agrees, and its cached arrays are read-only
    s0, s1 = _interval_spans(4, 4)
    assert not s0.flags.writeable and not s1.flags.writeable
    assert list(zip(s0.tolist(), s1.tolist())) == [
        DyadicInterval(j, k).cell_span(4) for j in range(5) for k in range(2**j)
    ]


def test_span_box_sums_match_corner_sums():
    """The separable box sums of a grid equal its four-corner sums and its
    direct slice sums, and the containment table marks the boxes whose
    cells all lie in the mask."""
    rng = np.random.default_rng(12)
    for max_scale, n in ((0, 0), (2, 1), (3, 3), (4, 2), (5, 5)):
        s0, s1 = _interval_spans(max_scale, n)
        for _ in range(3):
            grid = rng.integers(0, 5, size=(1 << n, 1 << n))
            sums, inside = _span_box_sums(grid, s0, s1), _spans_inside(grid > 1, s0, s1)
            corners = _box_sum(_integral_image(grid), s0[:, None], s1[:, None], s0[None, :], s1[None, :])
            assert np.array_equal(sums, corners)
            for a1, a2 in rng.integers(0, len(s0), size=(20, 2)):
                box = grid[s0[a1] : s1[a1], s0[a2] : s1[a2]]
                assert sums[a1, a2] == box.sum() and inside[a1, a2] == bool((box > 1).all())


def test_dyadic_rectangle():
    R = DyadicRectangle.from_indices(1, 0, 2, 3)
    assert R.area == 0.125
    S = DyadicRectangle.from_indices(2, 1, 3, 6)
    assert R.contains(S)
    assert not S.contains(R)
    cr = R.to_cellrect(3)
    assert (cr.a1, cr.b1, cr.a2, cr.b2) == (0, 4, 6, 8)


def test_enumerate_dyadic_rectangles_count():
    for n in range(4):
        rects = enumerate_dyadic_rectangles(n)
        assert len(rects) == (2 ** (n + 1) - 1) ** 2
        assert len(set(rects)) == len(rects)


def test_cellrect_fractions():
    r = CellRect(3, 1, 4, 2, 3)
    assert r.widths == (Fraction(3, 8), Fraction(1, 8))
    assert r.center == (Fraction(5, 16), Fraction(5, 16))
    with pytest.raises(ValueError):
        CellRect(2, 2, 2, 0, 1)
    with pytest.raises(ValueError):
        CellRect(2, 0, 5, 0, 1)


def test_cellset_algebra():
    rng = np.random.default_rng(3)
    n = 3
    a = CellSet(n, rng.random((8, 8)) < 0.4)
    b = CellSet(n, rng.random((8, 8)) < 0.4)
    np.testing.assert_array_equal((a | b).mask, a.mask | b.mask)
    assert (a | b).contains(a)
    assert a.measure() == a.cell_count / 64
    assert CellSet(n, np.ones((8, 8), dtype=bool)).measure() == 1.0
    assert CellSet(n, np.zeros((8, 8), dtype=bool)).cell_count == 0
    with pytest.raises(ValueError):
        a | CellSet(2, np.zeros((4, 4), dtype=bool))


def test_cellset_from_cells_json():
    u = CellSet.from_cells(2, [(0, 1), (3, 2)])
    assert u.cell_count == 2
    assert u.mask[0, 1] and u.mask[3, 2]


def brute_maximal_1d(mask, axis, one_sided=False):
    """Exact maximal averages: every interval of the line through each cell,
    or with one_sided=True every interval starting at the cell."""
    m = mask.shape[0]
    out = np.full(mask.shape, Fraction(0), dtype=object)
    for i1 in range(m):
        for i2 in range(m):
            line = mask[:, i2] if axis == 1 else mask[i1, :]
            pos = i1 if axis == 1 else i2
            starts = [pos] if one_sided else range(pos + 1)
            out[i1, i2] = max(
                Fraction(int(line[a : b + 1].sum()), b - a + 1) for a in starts for b in range(pos, m)
            )
    return out


def thresholds(field):
    """Every value of the field below 1, where ties sit, and two doubles."""
    return sorted({v for v in field.flat if v < 1}) + [0.3, 1 / 3]


def test_maximal_1d_matches_bruteforce():
    rng = np.random.default_rng(4)
    for trial in range(4):
        u = CellSet(3, rng.random((8, 8)) < 0.35)
        for axis in (1, 2):
            want = brute_maximal_1d(u.mask, axis)
            for d in thresholds(want):
                assert np.array_equal(maximal_1d_level(u, axis, d).mask, (want > d).astype(bool))


def test_maximal_1d_one_sided_matches_bruteforce():
    rng = np.random.default_rng(7)
    for trial in range(4):
        u = CellSet(3, rng.random((8, 8)) < 0.35)
        for axis in (1, 2):
            want = brute_maximal_1d(u.mask, axis, one_sided=True)
            for d in thresholds(want):
                got = maximal_1d_level(u, axis, d, one_sided=True)
                assert np.array_equal(got.mask, (want > d).astype(bool))
                assert maximal_1d_level(u, axis, d).contains(got)


def test_one_sided_weak_bound_exact():
    """A single cell shows that the two-sided form needs constant two: at
    d = 1/4 its level set has 5 cells, where constant one allows 4.  The
    one-sided level set has 3."""
    n = 5
    m = 1 << n
    single = CellSet.from_cells(n, [(m // 2, m // 2)])
    d = Fraction(1, 4)
    two_sided = maximal_1d_level(single, 1, d).cell_count
    assert two_sided == 5  # intervals up to length 3 reach 2 cells each way
    assert two_sided * d > single.cell_count  # constant one fails two-sided
    assert maximal_1d_level(single, 1, d, one_sided=True).cell_count == 3


@pytest.mark.parametrize(
    "n, l, delta",
    [(3, 1, 1 / 4), (5, 3, Fraction(1, 3)), (6, 4, 0.3), (6, 7, 1 / 2), (7, 5, 0.2), (7, 10, 0.99)],
)
def test_level_window_bound_is_attained(n, l, delta):
    """A bar of l cells at the centre of a line reaches the window exactly:
    with p/q = _fraction_at_most(delta, m) (17/57 for 0.3 at m = 64, 98/99
    for 0.99 at m = 128), its level set along the line is the bar widened
    by e = ceil(l (q - p)/p) - 1 cells on each side."""
    m = 1 << n
    t = _fraction_at_most(delta, m)
    e = max(0, math.ceil(l * (1 - t) / t) - 1)
    r, c0 = m // 2, (m - l) // 2
    assert 0 <= c0 - e and c0 + l + e <= m
    bar = np.zeros((m, m), dtype=bool)
    bar[r, c0 : c0 + l] = True
    want = np.zeros((m, m), dtype=bool)
    want[r, c0 - e : c0 + l + e] = True
    for axis, mask, level in ((2, bar, want), (1, bar.T, want.T)):
        assert np.array_equal(maximal_1d_level(CellSet(n, mask), axis, delta).mask, level)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.05, 0.2, 0.4, 0.7]),
    st.sampled_from(
        [Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4)]
    ),
)
def test_rising_sun_weak_bound(n, seed, density, d):
    """Rising-sun level sets pack with constant exactly one, in exact
    arithmetic: count{M 1_U > d} * d <= count(U) on both axes."""
    m = 1 << n
    u = CellSet(n, np.random.default_rng(seed).random((m, m)) < density)
    for axis in (1, 2):
        assert maximal_1d_level(u, axis, d, one_sided=True).cell_count * d <= u.cell_count


def test_strong_maximal_matches_bruteforce():
    """The half-level set against every axis-parallel cell rectangle, in integers."""
    rng = np.random.default_rng(5)
    n = 3
    m = 1 << n
    for density in (0.3, 0.45):
        u = CellSet(n, rng.random((m, m)) < density)
        ii = np.zeros((m + 1, m + 1), dtype=np.int64)
        ii[1:, 1:] = np.cumsum(np.cumsum(u.mask, axis=0), axis=1)
        want = np.zeros((m, m), dtype=bool)
        for r0 in range(m):
            for r1 in range(r0, m):
                for c0 in range(m):
                    for c1 in range(c0, m):
                        s = ii[r1 + 1, c1 + 1] - ii[r0, c1 + 1] - ii[r1 + 1, c0] + ii[r0, c0]
                        if 2 * s > (r1 - r0 + 1) * (c1 - c0 + 1):
                            want[r0 : r1 + 1, c0 : c1 + 1] = True
        assert np.array_equal(strong_maximal_half_level(u).mask, want)


def test_strong_maximal_dominates_axes():
    rng = np.random.default_rng(6)
    u = CellSet(4, rng.random((16, 16)) < 0.4)
    half = strong_maximal_half_level(u)
    assert half.contains(u)
    for axis in (1, 2):
        assert half.contains(maximal_1d_level(u, axis, 0.5))


def full_grid_half_level(U: CellSet) -> np.ndarray:
    """The half-level kernel run over the whole grid, one row start at a
    time, with no crop and no transpose: the reference of the cropped one."""
    m = 1 << U.n
    mask = U.mask.astype(np.int64)
    out = np.zeros((m, m), dtype=bool)
    for r0 in range(m):
        heights = np.arange(1, m - r0 + 1)[:, None]
        covered = _covered(2 * np.cumsum(mask[r0:], axis=0) - heights)
        out[r0:] |= np.logical_or.accumulate(covered[::-1], axis=0)[::-1]
    return out


def crop_window(mask: np.ndarray) -> tuple[slice, slice]:
    """Rows x columns [max(0, 2 s0 - s1), min(m, 2 s1 + 1 - s0)) of the
    occupied span [s0, s1] on each axis: where the level set can live."""
    m = mask.shape[0]
    spans = (np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0)))
    return tuple(slice(max(0, 2 * s[0] - s[-1]), min(m, 2 * s[-1] + 1 - s[0])) for s in spans)


def sparse_crop_corpus():
    """Sets whose crop is smaller than the grid, at n = 0-7.

    Per grid: the empty set, one cell, a thin bar along each axis, and
    sparse sets (density 0.02-0.1) inside random sub-boxes at each of the
    four edges and in the interior; then rows of 4, 8, 16 and 32 squares.
    """
    rng = np.random.default_rng(2002)
    for n in range(8):
        m = 1 << n
        yield CellSet(n, np.zeros((m, m), dtype=bool))
        yield CellSet.from_cells(n, [tuple(rng.integers(0, m, size=2))])
        for axis in (0, 1):
            thick, start = rng.integers(1, min(3, m) + 1), rng.integers(0, m)
            lo = rng.integers(0, m - thick + 1)
            bar = np.zeros((m, m), dtype=bool)
            bar[lo : lo + thick, start : rng.integers(start, m) + 1] = True
            yield CellSet(n, bar if axis == 0 else bar.T)
        for place in ("top", "bottom", "left", "right", "interior"):
            for density in (0.02, 0.05, 0.1):
                h, w = rng.integers(1, max(m // 2, 1) + 1, size=2)
                r0, c0 = rng.integers(0, m - h + 1), rng.integers(0, m - w + 1)
                r0 = {"top": 0, "bottom": m - h}.get(place, r0)
                c0 = {"left": 0, "right": m - w}.get(place, c0)
                box = np.zeros((m, m), dtype=bool)
                box[r0 : r0 + h, c0 : c0 + w] = rng.random((h, w)) < density
                yield CellSet(n, box)
    for K in (4, 8, 16, 32):
        yield row_of_squares(K).cells


def test_half_level_crop_matches_full_grid_bit_for_bit():
    """The cropped, transposed kernel against the full-grid loop, on sets
    whose crop is a real crop; the full-grid level set is empty outside it,
    and the shared window at 1/2 on both axes is that crop."""
    real_crops = 0
    for U in sparse_crop_corpus():
        want = full_grid_half_level(U)
        assert np.array_equal(strong_maximal_half_level(U).mask, want)
        if not U.cell_count:
            assert _occupied_window(U.mask, (Fraction(1, 2),) * 2) == (slice(0, 0),) * 2
        else:
            crop = crop_window(U.mask)
            assert _occupied_window(U.mask, (Fraction(1, 2),) * 2) == crop
            outside = want.copy()
            outside[crop] = False
            assert not outside.any()
            real_crops += want[crop].size < want.size
    assert real_crops >= 70


@pytest.mark.parametrize("n, w", [(3, 1), (5, 4), (6, 7), (6, 16)])
def test_half_level_crop_bound_is_attained(n, w):
    """A 1 x w bar at the centre of the grid reaches the crop exactly: its
    level set is its own row over columns [c0 - (w-1), c1 + (w-1))."""
    m = 1 << n
    r, c0 = m // 2, (m - w) // 2
    bar = np.zeros((m, m), dtype=bool)
    bar[r, c0 : c0 + w] = True
    want = np.zeros((m, m), dtype=bool)
    want[r, c0 - (w - 1) : c0 + w + (w - 1)] = True
    for mask, level in ((bar, want), (bar.T, want.T)):
        got = strong_maximal_half_level(CellSet(n, mask)).mask
        assert np.array_equal(got, level)
        assert np.array_equal(got, full_grid_half_level(CellSet(n, mask)))


def test_half_level_commutes_with_transpose():
    rng = np.random.default_rng(11)
    sets = list(sparse_crop_corpus())
    sets += [CellSet(n, rng.random((1 << n, 1 << n)) < p) for n in (2, 4, 5) for p in (0.3, 0.6)]
    for U in sets:
        transposed = strong_maximal_half_level(CellSet(U.n, U.mask.T)).mask
        assert np.array_equal(transposed, strong_maximal_half_level(U).mask.T)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    f = rand_signal_1d(rng, 32)
    p = tmp_path / "sig1.bin"
    save_signal(p, f)
    g = load_signal(p)
    assert isinstance(g, GridSignal1D)
    np.testing.assert_array_equal(g.samples, f.samples)
    F = rand_signal_2d(rng, 16)
    p2 = tmp_path / "sig2.bin"
    save_signal(p2, F)
    G = load_signal(p2)
    assert isinstance(G, GridSignal2D)
    np.testing.assert_array_equal(G.samples, F.samples)


def test_load_signal_rejects_bad_payloads(tmp_path):
    def write(name, header, values):
        path = tmp_path / name
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            fh.write(np.asarray(values, dtype="<f8").tobytes())
        return path

    pairs = np.zeros(2 * 16)
    assert load_signal(write("ok.bin", {"dims": [4, 4]}, pairs)).n_points == 4
    for dims in ([8], [4, 2], [2, 2]):  # 16 samples where dims need 8 or 4
        with pytest.raises(ValueError, match="samples"):
            load_signal(write("size.bin", {"dims": dims}, pairs))
    for bad in (np.nan, np.inf):
        vals = pairs.copy()
        vals[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            load_signal(write("nan.bin", {"dims": [16]}, vals))
    # headers that are not an object whose dims is a list of one or two positive ints
    for header in (
        {"dimz": [16]},
        {"dims": 16},
        {"dims": ["a", "b"]},
        {"dims": [16.0, 16.0]},
        [16, 16],
        {"dims": [True]},
        {"dims": [4, 0]},
        {"dims": [-4, -4]},
        {"dims": []},
        {"dims": [2, 2, 4]},
        {},
        None,
    ):
        with pytest.raises(ValueError, match="positive ints"):
            load_signal(write("header.bin", header, pairs))


@pytest.mark.parametrize("module", ["bicomm.grid", "bicomm.transforms", "bicomm.wavelets"])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
