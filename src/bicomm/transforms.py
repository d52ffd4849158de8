"""Fourier multiplier operators: Hilbert transforms and frequency projections.

Frequency conventions: a length-N signal has integer frequencies
k in {-N/2, ..., N/2-1} (FFT storage order), and spectra are normalized so
that the grid inner product N^{-d} sum f conj(g) equals
sum_k fhat_k conj(ghat_k) exactly (Parseval with no extra factors).

:func:`hilbert_2d_axis` uses the signature convention, multiplier
sgn(k_axis), under which the transform along an axis equals P+ - P- and
the quadrant projections are the products (I +/- H1)(I +/- H2)/4 on
admissible signals.  All commutator identities downstream are stated in
this normalization; the kernel convention, multiplier -i sgn(k), differs
from it by a factor of -i.

Edge bins: sgn(0) = 0 and the Nyquist multiplier is 0, and the
half-line/quadrant projections exclude both bins, so P+ + P- is the
projection onto the admissible subspace rather than the identity.

Every operator here is one Fourier multiplier read off the cached sign
table _sign(N) and applied by _multiply, in one or two dimensions alike.
It maps a spectrum to a spectrum, so a chain of multipliers takes at most
one forward transform, of a signal that holds only its samples.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import GridSignal1D, GridSignal2D

__all__ = [
    "frequencies",
    "project_halfline",
    "project_admissible_1d",
    "hilbert_2d_axis",
    "project_quadrant",
    "project_admissible_2d",
]


@lru_cache(maxsize=32)
def frequencies(N: int) -> np.ndarray:
    """Integer frequencies in FFT storage order: 0, 1, ..., N/2-1, -N/2, ..., -1."""
    k = np.fft.fftfreq(N, 1.0 / N).astype(np.int64)
    k.flags.writeable = False
    return k


@lru_cache(maxsize=32)
def _sign(N: int) -> np.ndarray:
    """sgn(k) in FFT storage order, with the Nyquist bin set to 0.

    The half-lines are the bins == +1 and == -1, and the admissible bins
    are those != 0.
    """
    s = np.sign(frequencies(N)).astype(np.float64)
    s[N // 2] = 0.0
    s.flags.writeable = False
    return s


def _multiply(f, m: np.ndarray):
    """The Fourier multiplier m applied to f; m broadcasts against the
    spectrum.  The result holds its spectrum alone: it takes no inverse
    transform until someone reads its samples."""
    return type(f)._adopt(spectrum=f.spectrum() * m)


# ---------------------------------------------------------------------------
# 1D operators
# ---------------------------------------------------------------------------


def project_halfline(f: GridSignal1D, sign: int) -> GridSignal1D:
    """Projection onto strictly positive (sign=+1) or negative (sign=-1) frequencies.

    DC and Nyquist are dropped by both projections, so P+ + P- equals the
    admissible projection, not the identity.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _multiply(f, _sign(f.n_points) == sign)


def project_admissible_1d(f: GridSignal1D) -> GridSignal1D:
    """Zero the DC and Nyquist coefficients."""
    return _multiply(f, _sign(f.n_points) != 0)


# ---------------------------------------------------------------------------
# 2D operators (signature convention along each axis)
# ---------------------------------------------------------------------------


def hilbert_2d_axis(f: GridSignal2D, axis: int) -> GridSignal2D:
    """Hilbert transform in one variable, multiplier sgn(k_axis).

    Signature normalization: H_axis = P+ - P- in that variable, so
    H1 = P++ + P+- - P-+ - P-- and H2 = P++ + P-+ - P+- - P-- hold on
    admissible signals.  Multiply by -i to recover the kernel convention.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    s = _sign(f.n_points)
    return _multiply(f, s[:, None] if axis == 1 else s[None, :])


def project_quadrant(f: GridSignal2D, s1: int, s2: int) -> GridSignal2D:
    """Projection onto the open frequency quadrant sign(k1)=s1, sign(k2)=s2."""
    if s1 not in (1, -1) or s2 not in (1, -1):
        raise ValueError("quadrant signs must be +1 or -1")
    s = _sign(f.n_points)
    return _multiply(f, (s == s1)[:, None] & (s == s2)[None, :])


def project_admissible_2d(f: GridSignal2D) -> GridSignal2D:
    """Zero the k1=0, k2=0 and both Nyquist frequency lines."""
    m = _sign(f.n_points) != 0
    return _multiply(f, m[:, None] & m[None, :])
