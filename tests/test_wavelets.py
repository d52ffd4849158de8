"""Band-limited wavelet system: profile, orthonormality, kernels, decay."""

import numpy as np
import pytest

from bicomm.grid import DyadicInterval, DyadicRectangle, GridSignal1D, GridSignal2D
from bicomm.transforms import project_admissible_1d, project_halfline
from bicomm.wavelets import (
    WaveletCoefficients,
    _magnitude,
    _theta,
    analyze,
    commutator_kernel,
    decay_envelope_constant,
    gram_deviation,
    j_max,
    meyer_profile,
    product_wavelet,
    synthesize,
    wavelet_sample,
)


def test_profile_support_and_partition():
    u = np.linspace(-4.0, 4.0, 2001)
    mag = _magnitude(u)
    outside = (np.abs(u) < 2.0 / 3.0 - 1e-9) | (np.abs(u) > 8.0 / 3.0 + 1e-9)
    assert np.all(mag[outside] == 0.0)
    # |W(u)|^2 + |W(2u)|^2 = 1 on [2/3, 4/3], the overlap of consecutive scales
    t = np.linspace(2.0 / 3.0, 4.0 / 3.0, 501)
    s = _magnitude(t) ** 2 + _magnitude(2.0 * t) ** 2
    np.testing.assert_allclose(s, 1.0, atol=1e-12)
    assert abs(abs(meyer_profile(1.0)) ** 2 + abs(meyer_profile(2.0)) ** 2 - 1.0) < 1e-12


def test_profile_phase_and_theta():
    u = np.array([0.8, 1.0, 1.7, 2.5])
    vals = meyer_profile(u)
    np.testing.assert_allclose(vals, np.exp(1j * np.pi * u) * _magnitude(u), atol=1e-15)
    ends = _theta(np.array([0.0, 1.0]))
    np.testing.assert_allclose(ends, [0.0, 1.0], atol=1e-15)
    # theta(t) + theta(1 - t) = 1, so theta(1/2) = 1/2 and |W(1)| = sin(pi/4)
    t = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(_theta(t) + _theta(1.0 - t), 1.0, atol=1e-15)
    assert abs(abs(meyer_profile(1.0)) - np.sin(np.pi / 4)) < 1e-15


def test_wavelet_samples_real_and_split():
    N = 256
    rng = np.random.default_rng(20)
    for _ in range(5):
        j = int(rng.integers(0, j_max(N) + 1))
        I = DyadicInterval(j, int(rng.integers(0, 2**j)))
        sw = wavelet_sample(I, N)
        assert np.max(np.abs(sw.signal.samples.imag)) < 1e-12
        assert abs(sw.signal.norm2() - 1.0) < 1e-12
        np.testing.assert_allclose(
            (sw.plus + sw.minus).samples, sw.signal.samples, atol=1e-12
        )
        np.testing.assert_allclose(sw.plus.conj().samples, sw.minus.samples, atol=1e-12)
        assert (project_admissible_1d(sw.signal) - sw.signal).norm2() < 1e-12


def test_scale_range_enforced():
    assert j_max(16) == 1
    assert j_max(256) == 5
    assert j_max(1024) == 7
    with pytest.raises(ValueError):
        wavelet_sample(DyadicInterval(2, 0), 16)
    with pytest.raises(ValueError):
        j_max(8)


def test_gram_identity_both_transitions():
    """Poisson summation makes the periodized system exactly orthonormal."""
    assert gram_deviation(256) < 1e-10
    assert gram_deviation(512) < 1e-10


def test_translation_shifts_samples_exactly():
    N = 128
    w0 = wavelet_sample(DyadicInterval(3, 0), N).signal.samples
    w5 = wavelet_sample(DyadicInterval(3, 5), N).signal.samples
    np.testing.assert_allclose(np.roll(w0, 5 * (N // 8)), w5, atol=1e-12)


def test_product_wavelet_outer_and_orthonormal():
    N = 64
    R = DyadicRectangle.from_indices(1, 0, 2, 3)
    v = product_wavelet(R, N)
    w1 = wavelet_sample(R.interval1, N).signal.samples
    w2 = wavelet_sample(R.interval2, N).signal.samples
    np.testing.assert_allclose(v.samples, np.outer(w1, w2), atol=1e-13)
    S = DyadicRectangle.from_indices(1, 1, 2, 3)
    assert abs(v.inner(product_wavelet(S, N))) < 1e-12
    assert abs(v.inner(v) - 1.0) < 1e-12


def test_coefficients_mapping():
    R = DyadicRectangle.from_indices(1, 1, 0, 0)
    c = WaveletCoefficients.from_dict(2, {R: 1.5 + 0.5j})
    assert c.get(R) == 1.5 + 0.5j
    assert c.get(DyadicRectangle.from_indices(2, 0, 0, 0)) == 0.0
    items = dict(c.items())
    assert items == {R: 1.5 + 0.5j}
    assert abs(np.sum(np.abs(c.matrix) ** 2) - abs(1.5 + 0.5j) ** 2) < 1e-15
    doubled = WaveletCoefficients(2, 2.0 * c.matrix)
    assert doubled.get(R) == 3.0 + 1.0j
    with pytest.raises(ValueError):
        WaveletCoefficients(1, np.zeros((4, 4)))


def test_analyze_synthesize_roundtrip():
    N = 128
    n = 3
    rng = np.random.default_rng(21)
    K = 2 ** (n + 1) - 1
    c = WaveletCoefficients(n, rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K)))
    f = synthesize(c, N)
    back = analyze(f, n)
    np.testing.assert_allclose(back.matrix, c.matrix, atol=1e-10)
    # Parseval on the rectangle span
    assert abs(f.norm2() ** 2 - np.sum(np.abs(c.matrix) ** 2)) < 1e-10
    # single-wavelet analysis is a one-hot coefficient set
    R = DyadicRectangle.from_indices(2, 1, 1, 0)
    one = analyze(product_wavelet(R, N), n)
    assert abs(one.get(R) - 1.0) < 1e-8
    off = np.abs(one.matrix).sum() - abs(one.get(R))
    assert off < 1e-8


def test_analyze_synthesize_adjoint():
    N = 64
    n = 2
    rng = np.random.default_rng(22)
    f = GridSignal2D(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    K = 2 ** (n + 1) - 1
    c = WaveletCoefficients(n, rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K)))
    lhs = np.sum(analyze(f, n).matrix * np.conj(c.matrix))
    rhs = f.inner(synthesize(c, N))
    assert abs(lhs - rhs) < 1e-10


def test_l4_ratio_scale_invariant():
    """||w_I||_4 |I|^{1/4} is a single constant once wraparound is negligible."""
    N = 1024
    vals = []
    for j in (5, 6, 7):
        w = wavelet_sample(DyadicInterval(j, 0), N).signal
        l4 = float(np.mean(np.abs(w.samples) ** 4) ** 0.25)
        vals.append(l4 * (2.0 ** -j) ** 0.25)
    assert abs(vals[0] - vals[2]) < 1e-3
    assert abs(vals[2] - 0.9189611) < 1e-6


def test_commutator_kernel_zero_case():
    N = 256
    kern = commutator_kernel(DyadicInterval(1, 0), DyadicInterval(4, 7), N)
    assert kern.norm2() < 1e-10


def test_commutator_kernel_diagonal_case():
    """On the admissible subspace the diagonal kernel is the half-line identity.

    The raw kernel also carries a DC atom of exactly 1/2 (the mean of
    |w_I^-|^2), which the identity does not see.
    """
    N = 512
    for j in (2, 4, 6):
        I = DyadicInterval(j, 1)
        kern = commutator_kernel(I, I, N)
        sw = wavelet_sample(I, N)
        rhs = project_halfline(
            GridSignal1D(np.abs(sw.minus.samples) ** 2), -1
        ) - project_halfline(GridSignal1D(np.abs(sw.plus.samples) ** 2), 1)
        resid = (project_admissible_1d(kern) - rhs).norm2()
        assert resid < 1e-9
        dc = np.mean(kern.samples)
        assert abs(dc - 0.5) < 1e-12


def test_commutator_kernel_coarse_case():
    N = 512
    rng = np.random.default_rng(23)
    for _ in range(5):
        jI = int(rng.integers(2, j_max(N) + 1))
        jJ = int(rng.integers(0, jI - 1))
        I = DyadicInterval(jI, int(rng.integers(0, 2**jI)))
        J = DyadicInterval(jJ, int(rng.integers(0, 2**jJ)))
        kern = commutator_kernel(I, J, N)
        wI = wavelet_sample(I, N)
        wJ = wavelet_sample(J, N)
        rhs = wI.minus * wJ.plus - wI.plus * wJ.minus
        assert (kern - rhs).norm2() < 1e-10


def test_commutator_kernel_other_gap():
    """At adjacent scales, in either order, the kernel is neither zero nor
    the coarse product, so the case analysis leaves that gap out."""
    N = 512
    for i, j in (((3, 0), (4, 0)), ((4, 3), (3, 1))):
        I, J = DyadicInterval(*i), DyadicInterval(*j)
        kern = commutator_kernel(I, J, N)
        wI = wavelet_sample(I, N)
        wJ = wavelet_sample(J, N)
        assert kern.norm2() > 0.05
        assert (kern - (wI.minus * wJ.plus - wI.plus * wJ.minus)).norm2() > 0.05


def test_kernel_spectra_disjoint_under_8x_gaps():
    """w_{I,J} and w_{I',J'} have disjoint spectra when all three scale
    relations carry a factor-8 gap."""
    N = 512
    rng = np.random.default_rng(24)
    for _ in range(6):
        jI = 6
        jJ = int(rng.integers(0, jI - 2))
        jIp = int(rng.integers(3, jI - 2))
        jJp = int(rng.integers(0, jIp - 2))
        k1 = commutator_kernel(
            DyadicInterval(jI, int(rng.integers(0, 2**jI))),
            DyadicInterval(jJ, int(rng.integers(0, 2**jJ))),
            N,
        )
        k2 = commutator_kernel(
            DyadicInterval(jIp, int(rng.integers(0, 2**jIp))),
            DyadicInterval(jJp, int(rng.integers(0, 2**jJp))),
            N,
        )
        overlap = float(np.sum(np.abs(k1.spectrum()) * np.abs(k2.spectrum())))
        assert overlap < 1e-10


def test_decay_constant_stable_at_fine_scales():
    N = 1024
    J = j_max(N)
    consts = [decay_envelope_constant(DyadicInterval(j, 0), N) for j in (J - 2, J - 1, J)]
    assert max(consts) / min(consts) - 1.0 < 0.2
    assert 300.0 < consts[-1] < 370.0


def test_decay_constant_translation_invariant():
    N = 256
    a = decay_envelope_constant(DyadicInterval(3, 0), N)
    b = decay_envelope_constant(DyadicInterval(3, 5), N)
    assert abs(a - b) < 1e-9 * a
