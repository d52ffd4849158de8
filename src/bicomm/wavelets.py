"""Band-limited orthonormal wavelet system on the torus.

The mother profile W is supported on +/-[2/3, 8/3] in the dilated frequency
variable u = 2|I| kappa, with

    |W(u)| = sin(pi/2 theta(3t/2 - 1))   on t = |u| in [2/3, 4/3],
    |W(u)| = cos(pi/2 theta(3t/4 - 1))   on t in (4/3, 8/3],

for the C-infinity transition theta(t) = a(t)/(a(t) + a(1-t)) with
a(t) = exp(-1/t), which satisfies theta(t) + theta(1-t) = 1.  The two
branch arguments coincide for t and 2t, so |W(t)|^2 + |W(2t)|^2 = 1 exactly
on the overlap and sum_j |W(2^j u)|^2 = 1 off u = 0.  The wavelets decay
faster than any power of the distance to their interval.

Phase: W(u) = e^{i pi u} |W(u)| for u > 0 with W(-u) = conj(W(u)).  Combined
with the center modulation below this equals the classical orthonormal
construction (the half-shift phase e^{i xi/2} in angular frequency).  The
dilate/translate of the unit interval I = [k 2^{-j}, (k+1) 2^{-j}) is built
directly in frequency space:

    what_I(kappa) = sqrt(|I|) e^{-2 pi i kappa c(I)} W(2 |I| kappa),

where c(I) is the center of I.  Because the spectra are compactly supported
and sampled at integers, the torus system is *exactly* orthonormal whenever
all spectra fit inside the grid band (Poisson summation: frequency sampling
periodizes in space, and integer translates of dyadic wavelets are other
dyadic wavelets).  The admissible scale range j <= j_max(N) keeps every
spectrum inside |kappa| <= N/4, so products of two wavelet factors never
alias past the Nyquist bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (
    DyadicInterval,
    DyadicRectangle,
    GridSignal1D,
    GridSignal2D,
    index_interval,
    interval_index,
)
from .transforms import frequencies, project_halfline

__all__ = [
    "meyer_profile",
    "j_max",
    "SampledWavelet",
    "wavelet_sample",
    "product_wavelet",
    "WaveletCoefficients",
    "analyze",
    "synthesize",
    "commutator_kernel",
    "gram_deviation",
    "decay_envelope_constant",
]


def _theta(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    out = np.where(t <= 0.0, 0.0, np.where(t >= 1.0, 1.0, a / np.where(a + b > 0, a + b, 1.0)))
    return out


def _magnitude(u) -> np.ndarray:
    """|W(u)|: the sine branch on |u| in [2/3, 4/3], the cosine branch above."""
    t = np.abs(np.asarray(u, dtype=np.float64))
    out = np.zeros_like(t)
    lo = (t >= 2.0 / 3.0) & (t <= 4.0 / 3.0)
    hi = (t > 4.0 / 3.0) & (t <= 8.0 / 3.0)
    out[lo] = np.sin(0.5 * np.pi * _theta(1.5 * t[lo] - 1.0))
    out[hi] = np.cos(0.5 * np.pi * _theta(0.75 * t[hi] - 1.0))
    return out


def meyer_profile(u):
    """Value of the profile W at u (complex; zero off +/-[2/3, 8/3])."""
    v = np.asarray(u, dtype=np.float64)
    out = np.exp(1j * np.pi * v) * _magnitude(v)
    if np.isscalar(u):
        return complex(out)
    return out


def j_max(N: int) -> int:
    """Finest admissible scale: floor(log2(3N/16)).

    At this scale the spectrum's outer edge reaches |kappa| = N/4 (where the
    profile vanishes), so all admissible spectra sit strictly inside the grid
    band and pairwise products stay within the Nyquist bin.
    """
    if N < 16:
        raise ValueError("grid too small to hold any admissible wavelet")
    return int(math.floor(math.log2(3 * N / 16)))


@lru_cache(maxsize=64)
def _wavelet_spectra(N: int, J: int) -> np.ndarray:
    """Spectra of all wavelets with scales 0..J, rows in interval_index order."""
    k = frequencies(N).astype(np.float64)
    K = 2 ** (J + 1) - 1
    out = np.zeros((K, N), dtype=np.complex128)
    for j in range(J + 1):
        m = 2.0**-j
        prof = meyer_profile(2.0 * m * k)
        for pos in range(2**j):
            c = (pos + 0.5) * m
            out[interval_index(j, pos)] = math.sqrt(m) * np.exp(-2j * np.pi * k * c) * prof
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _wavelet_samples(N: int, J: int) -> np.ndarray:
    """Real sample matrix (K, N) of the wavelets of _wavelet_spectra."""
    spectra = _wavelet_spectra(N, J)
    samples = np.fft.ifft(spectra * N, axis=1).real
    samples.flags.writeable = False
    return samples


def _check_scale(j: int, N: int) -> None:
    if not (0 <= j <= j_max(N)):
        raise ValueError(f"scale {j} outside the admissible range [0, {j_max(N)}] at N={N}")


@dataclass(frozen=True)
class SampledWavelet:
    """A sampled wavelet with its analytic (half-line) parts."""

    signal: GridSignal1D
    plus: GridSignal1D
    minus: GridSignal1D


def wavelet_sample(I: DyadicInterval, N: int) -> SampledWavelet:
    """Sample w_I on the N-point grid, with w_I^+ and w_I^- alongside.

    Constructed exactly in frequency space; the samples are real and the
    half-line parts are the positive/negative frequency restrictions.
    """
    _check_scale(I.j, N)
    k = frequencies(N)
    what = _wavelet_spectra(N, I.j)[interval_index(I.j, I.k)]
    parts = (what, np.where(k > 0, what, 0), np.where(k < 0, what, 0))
    return SampledWavelet(*(GridSignal1D.from_spectrum(p) for p in parts))


def product_wavelet(R: DyadicRectangle, N: int) -> GridSignal2D:
    """v_R(x1, x2) = w_{R1}(x1) w_{R2}(x2), as the exact outer product of samples."""
    _check_scale(R.interval1.j, N)
    _check_scale(R.interval2.j, N)
    J = max(R.interval1.j, R.interval2.j)
    W = _wavelet_samples(N, J)
    row1 = W[interval_index(R.interval1.j, R.interval1.k)]
    row2 = W[interval_index(R.interval2.j, R.interval2.k)]
    return GridSignal2D(np.outer(row1, row2))


@dataclass(frozen=True)
class WaveletCoefficients:
    """Coefficients c_R = <f, v_R> over rectangles with both scales <= max_scale.

    Stored densely as a (K, K) complex matrix with K = 2^{max_scale+1} - 1;
    interval (j, k) maps to row/column interval_index(j, k) = 2^j - 1 + k.
    The mapping view (:meth:`items`, :meth:`get`) exposes only nonzero
    entries.
    """

    max_scale: int
    matrix: np.ndarray

    def __post_init__(self):
        K = 2 ** (self.max_scale + 1) - 1
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.shape != (K, K):
            raise ValueError(f"matrix shape {m.shape}, expected ({K}, {K})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_dict(cls, max_scale: int, values: dict) -> "WaveletCoefficients":
        K = 2 ** (max_scale + 1) - 1
        m = np.zeros((K, K), dtype=np.complex128)
        for R, v in values.items():
            a = interval_index(R.interval1.j, R.interval1.k)
            b = interval_index(R.interval2.j, R.interval2.k)
            m[a, b] = v
        return cls(max_scale, m)

    def get(self, R: DyadicRectangle) -> complex:
        a = interval_index(R.interval1.j, R.interval1.k)
        b = interval_index(R.interval2.j, R.interval2.k)
        return complex(self.matrix[a, b])

    def items(self):
        a, b = np.nonzero(self.matrix)
        keys = np.stack([*index_interval(a), *index_interval(b)], axis=1)
        for key, v in zip(keys.tolist(), self.matrix[a, b].tolist()):
            yield DyadicRectangle.from_indices(*key), v


def analyze(f: GridSignal2D, n: int) -> WaveletCoefficients:
    """All coefficients <f, v_R> with both scales in [0, n]."""
    N = f.n_points
    _check_scale(n, N)
    W = _wavelet_samples(N, n)
    C = W @ f.samples @ W.T / N**2
    return WaveletCoefficients(n, C)


@lru_cache(maxsize=64)
def _support_spectra(N: int, J: int) -> tuple[np.ndarray, np.ndarray]:
    """The frequencies, in FFT storage order, where some wavelet of scale
    at most J is nonzero, and the rows of _wavelet_spectra on them; both
    read-only.  The profile vanishes exactly off +/-[2/3, 8/3], so these are
    1 <= |k| <= 4 * 2^J / 3, 20 of 128 at N=128, J=3."""
    spectra = _wavelet_spectra(N, J)
    cols = np.flatnonzero(spectra.any(axis=0))
    on = spectra[:, cols]
    cols.flags.writeable = on.flags.writeable = False
    return cols, on


def synthesize(c: WaveletCoefficients, N: int) -> GridSignal2D:
    """sum_R c_R v_R on the N-point grid, built from its spectrum.

    v_R has spectrum S[R1, k1] S[R2, k2], S the rows of _wavelet_spectra,
    so b_hat = S^T C S.  It is computed on the support columns of S alone
    and is exactly zero elsewhere; the samples are left to the signal."""
    _check_scale(c.max_scale, N)
    cols, S = _support_spectra(N, c.max_scale)
    spec = np.zeros((N, N), dtype=np.complex128)
    spec[np.ix_(cols, cols)] = S.T @ c.matrix @ S
    return GridSignal2D._adopt(spectrum=spec)


def commutator_kernel(I: DyadicInterval, J: DyadicInterval, N: int) -> GridSignal1D:
    """w_{I,J} = [M_{w_I}, P_+] conj(w_J).

    It vanishes on the grid when |I| >= 4|J|, and equals
    w_I^- w_J^+ - w_I^+ w_J^- when |J| >= 4|I|.  The raw kernel is
    returned: for I = J it carries a DC atom equal to mean(|w_I^-|^2) = 1/2
    on top of the half-line identity P_-(|w_I^-|^2) - P_+(|w_I^+|^2), which
    is exact on the admissible subspace.  The case analysis does not
    classify the remaining scale gaps.
    """
    wI = wavelet_sample(I, N).signal
    wJc = wavelet_sample(J, N).signal.conj()
    return wI * project_halfline(wJc, 1) - project_halfline(wI * wJc, 1)


def gram_deviation(N: int) -> float:
    """max |<w_I, w_J> - delta_IJ| over all wavelets with scales <= j_max(N)."""
    A = _wavelet_spectra(N, j_max(N))
    G = A @ A.conj().T
    return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def decay_envelope_constant(I: DyadicInterval, N: int) -> float:
    """Smallest C with |w_I(x)| <= C |I|^{-1/2} chi_I(x)^5 on the grid.

    chi_I(x) = (1 + dist(x, I)/|I|)^{-1} with torus distance.  Stability of
    C across scales measures the actual spatial decay of the profile.
    """
    w = wavelet_sample(I, N).signal
    # torus distance to the interval from the offset past its left end
    t = (np.arange(N) / N - I.left) % 1.0
    d = np.where(t < I.length, 0.0, np.minimum(t - I.length, 1.0 - t))
    chi = 1.0 / (1.0 + d / I.length)
    ratio = np.abs(w.samples) * math.sqrt(I.length) / chi**5
    return float(ratio.max())
