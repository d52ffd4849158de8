"""The nested commutator [[M_b, H1], H2] and its operator norm.

The commutator is applied by composing pointwise multiplications with the
axis Hilbert transforms and projecting the result to the admissible
subspace, where the four-projection block form T = 4 sum_s s1 s2 P_s M_b
P_{-s} holds exactly.  The four terms map disjoint input quadrants to
disjoint output quadrants.  When the spectrum of b lies in |k_i| <= B_i
with B_i <= N/4, the modes that reach it directly (|k_i| < B_i) and those
that reach it around the frequency circle (|k_i| > N/2 - B_i) stay apart,
so each term is a direct sum of copies of the four little Hankel matrices
built by `quadrant_hankel`, and the operator norm is exactly
4 max_q sigma_max(Gamma_q) over four L-square matrices, L = (B1-1)(B2-1).
Only one SVD is needed for that maximum: the block with the largest
lower bound on sigma_max, from two power steps on Gamma^H Gamma, most
often holds it and gives s = sigma_max by SVD, and each other
block Gamma is certified below s by a Cholesky factorization of
s^2 (1 - delta) I - Gamma^H Gamma (Gamma is complex symmetric, so
Gamma^H = conj(Gamma)).  A block whose certificate fails, as an exact tie
does, gets its own SVD, so the value is bit for bit the four-SVD maximum.
Wider spectra fall back to a private power iteration on T*T with a
seeded start vector.  For N <= 32, `operator_matrix` assembles T itself
over the admissible modes, one `commutator_apply` per unit mode; built
on the definition alone, its largest singular value is the oracle of the
block form.  The dense little Hankel matrix of a holomorphic symbol,
from the same `quadrant_hankel`, rounds out the module: every Hankel
matrix here is built by it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSignal2D
from .transforms import frequencies, hilbert_2d_axis, project_admissible_2d

_DENSE_MAX_N = 32
# spectrum entries at most this fraction of the largest one are FFT roundoff:
# a symbol built from samples carries about 1e-16 of its peak beyond its band
# (synthesized symbols hold exact zeros there); operator_norm drops them
# before it reads the band
_SPECTRUM_FLOOR = 1e-13
_QUADRANTS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
# the Cholesky certificate's margin is delta = _CERT_SLACK (L + 2)^2 eps for
# L-square blocks, 32 times the worst-case rounding of the Gram product and
# the factorization relative to s^2 (see operator_norm)
_CERT_SLACK = 16.0
# the most steps the power iteration of operator_norm's wide-band fallback takes
_POWER_STEPS = 10000


@dataclass(frozen=True)
class NormResult:
    value: float
    iterations: int


def commutator_apply(b: GridSignal2D, f: GridSignal2D) -> GridSignal2D:
    """[[M_b, H1], H2] f, projected to the admissible subspace.

    Expanding the brackets gives four terms; on admissible inputs the
    result equals 4(P++ M_b P-- - P+- M_b P-+ - P-+ M_b P+- + P-- M_b P++) f.
    The raw composition also produces content on the frequency axes (the
    products b*f land there), which the projection removes.

    A signal keeps each representation it computes, and the multipliers
    map spectra to spectra, so this takes at most 9 N x N transforms: f's
    spectrum or samples, the samples of h1, h2 and h12 and of a b built
    from its spectrum, and the spectra of the four products.  The four
    terms are summed as spectra, and the result holds only its spectrum.
    """
    if b.n_points != f.n_points:
        raise ValueError("symbol and argument grids differ")
    h1 = hilbert_2d_axis(f, 1)
    h2 = hilbert_2d_axis(f, 2)
    h12 = hilbert_2d_axis(h2, 1)
    out = (
        b * h12
        - hilbert_2d_axis(b * h2, 1)
        - hilbert_2d_axis(b * h1, 2)
        + hilbert_2d_axis(hilbert_2d_axis(b * f, 2), 1)
    )
    return project_admissible_2d(out)


def bracket(f: GridSignal2D, g: GridSignal2D) -> GridSignal2D:
    """{f, g} = [[M_f, H1], H2] conj(g)."""
    return commutator_apply(f, g.conj())


def quadrant_hankel(spec: np.ndarray, q: tuple[int, int], L1: int, L2: int) -> np.ndarray:
    """The little Hankel matrix Gamma_q of a spectrum over the quadrant q.

    Gamma_q[(k1, k2), (m1, m2)] = spec[q1 (k1 + m1), q2 (k2 + m2)] for
    1 <= k_i, m_i <= L_i, with frequencies taken mod N and rows and columns
    in (k1, k2) row-major order.  spec is N-square, in FFT storage order
    and normalized as GridSignal2D.spectrum; it need not be a whole grid's
    spectrum, only hold every frequency Gamma_q reads (see _band_blocks).
    The entries are one gather through the flat index of _hankel_index.
    """
    return spec.ravel()[_hankel_index(spec.shape[0], q, L1, L2)]


@functools.lru_cache(maxsize=8)
def _hankel_index(N: int, q: tuple[int, int], L1: int, L2: int) -> np.ndarray:
    """Flat index into an N-square spectrum of each entry of Gamma_q; read-only.
    Cached for the four quadrants of two band shapes: the norm of a corpus
    of symbols builds the same blocks over and over."""
    a1 = np.arange(1, L1 + 1)
    a2 = np.arange(1, L2 + 1)
    s1 = (q[0] * (a1[:, None] + a1[None, :])) % N
    s2 = (q[1] * (a2[:, None] + a2[None, :])) % N
    index = ((s1 * N)[:, None, :, None] + s2[None, :, None, :]).reshape(L1 * L2, L1 * L2)
    index.flags.writeable = False
    return index


def operator_norm(b: GridSignal2D, tol: float = 1e-10, seed: int = 0) -> NormResult:
    """Largest singular value of the commutator with symbol b.

    Spectrum entries of b at most _SPECTRUM_FLOOR times the largest are
    dropped, and B_i is the largest |k_i| left.  When B1, B2 <= N/4 the
    value is exact: 4 max_q sigma_max(Gamma_q) over the four quadrant
    Hankel matrices of the kept spectrum (see quadrant_hankel with
    L_i = B_i - 1), with iterations 0.  T is linear in
    b and ||T_b|| <= 4 ||b||_inf <= 4 sum |b_hat| (Young's inequality), so
    the dropped entries move the result by at most 4 sum |b_hat_dropped|.
    Otherwise it returns _power_norm(b, tol, seed), whose iterations count
    its steps; tol and seed act only there.  tol must be finite and
    positive, and a symbol with a NaN or infinite sample raises ValueError.

    The exact maximum takes one SVD, of the block with the largest
    _lower_bound, which gives s; each other block Gamma is L-square,
    L = (B1 - 1)(B2 - 1), and is skipped when A = s^2 (1 - delta) I - H
    has a Cholesky factor, H = Gamma^H Gamma = conj(Gamma) Gamma.  In exact
    arithmetic that proves A positive definite, so sigma_max(Gamma)^2 =
    lambda_max(H) < s^2 (1 - delta).  In floating point, a factorization
    that completes is exact for A + E with ||E|| <= gamma_(L+1) tr(A)
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.5),
    and the computed H is off by at most gamma_(L+2) tr(H), where
    gamma_m = m u / (1 - m u) and u = eps/2.  As tr(A) + tr(H) =
    L s^2 (1 - delta), both stay below (L + 2)^2 u s^2, which complex
    arithmetic raises by a small constant factor; delta =
    _CERT_SLACK (L + 2)^2 eps is 32 times that bound, with room for the
    factor and for the O(L eps) error of the SVD.  So a skipped block's SVD
    would have returned less than s, and the value is bit for bit the
    largest of the four SVDs.  A block whose sigma_max ties s to within
    about delta, such as the conjugate quadrant of a real symbol, fails the
    test and takes its SVD.

    The exact path reads the symbol's kept spectrum and never writes to
    it.  For a symbol that holds its spectrum it allocates no N x N complex
    array, only the N x N magnitudes and kept mask, both freed before the
    blocks reach LAPACK (see _band_blocks); a symbol built from samples
    first computes its spectrum, once, and keeps it.  The blocks are
    dropped one by one as _largest_singular_value is done with them.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    blocks = _band_blocks(b)
    if blocks is None:
        return _power_norm(b, tol, seed)
    return NormResult(4.0 * _largest_singular_value(blocks) if blocks else 0.0, 0)


def _band_blocks(b: GridSignal2D) -> list[np.ndarray] | None:
    """The four quadrant Hankel blocks of operator_norm's exact path, in
    _QUADRANTS order; None when B1 or B2 exceeds N/4, and no blocks when
    B1 or B2 is below 2, where every Gamma_q is empty and the norm is 0.
    A symbol with a NaN or infinite sample raises ValueError.

    The symbol's spectrum is read, never written.  Its magnitudes die once
    the kept mask is read off them, and the blocks are gathered from a
    window of the spectrum at most (N - 3)-square, a copy in which the
    floor zeroes the dropped entries; the mask dies before the gathers.
    """
    N = b.n_points
    spec = b.spectrum()
    mag = np.abs(spec)
    peak = mag.max()
    if not np.isfinite(peak):
        raise ValueError("symbol is not finite")
    keep = mag > _SPECTRUM_FLOOR * peak
    del mag
    k = np.abs(frequencies(N))
    B1 = int(k[keep.any(axis=1)].max(initial=0))
    B2 = int(k[keep.any(axis=0)].max(initial=0))
    if max(B1, B2) > N // 4:
        return None
    if min(B1, B2) < 2:
        # every entry of Gamma_q sits at |k_i| >= 2
        return []
    # Gamma_q reads only |k_i| <= 2 B - 2, B = max(B1, B2): those rows and
    # columns, in FFT order with modulus 4 B - 3, hold every entry it reads
    B = max(B1, B2)
    near = np.ix_(*(np.r_[: 2 * B - 1, N - 2 * B + 2 : N],) * 2)
    window = spec[near]
    window[~keep[near]] = 0
    del keep
    return [quadrant_hankel(window, q, B1 - 1, B2 - 1) for q in _QUADRANTS]


def _lower_bound(gamma: np.ndarray) -> float:
    """||Gamma x|| / ||x|| <= sigma_max(Gamma) for x = (Gamma^H Gamma)^2 x0,
    two power steps from x0, the conjugate of Gamma's longest row; 0 for a
    zero block.  At x0 the quotient is at least that row's length r, and no
    power step lowers it.  Gamma is complex symmetric, so Gamma^H y =
    conj(Gamma conj(y)).  x0 has unit length and each step divides by
    r^2 <= sigma_max^2 <= L r^2, so x stays between 1 and L^2 in length."""
    parts = gamma.view(np.float64)
    row_r2 = np.einsum("ij,ij->i", parts, parts)
    i = np.argmax(row_r2)
    r2 = row_r2[i]
    if not r2:
        return 0.0
    x = gamma[i].conj() / np.sqrt(r2)
    for _ in range(2):
        x = (gamma @ (gamma @ x).conj()).conj() / r2
    return float(np.linalg.norm(gamma @ x) / np.linalg.norm(x))


def _largest_singular_value(blocks: list[np.ndarray]) -> float:
    """max sigma_max over complex symmetric L-square blocks: the SVD of the
    block of largest _lower_bound, which most often holds the maximum, and
    for each other block the Cholesky certificate of operator_norm or, where
    it fails, its SVD, the running maximum becoming s.  Consumes the list,
    dropping each block once it is done with.  The certificate's matrix is
    built in place on the Gram product: negated, then s^2 (1 - delta) added
    to its diagonal."""
    blocks.sort(key=_lower_bound)
    L = blocks[0].shape[0]
    delta = _CERT_SLACK * (L + 2) ** 2 * np.finfo(np.float64).eps
    top = np.linalg.svd(blocks.pop(), compute_uv=False)[0]
    while blocks:
        gamma = blocks.pop()
        a = gamma.conj() @ gamma
        np.negative(a, out=a)
        a.flat[:: L + 1] += top * top * (1.0 - delta)
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            top = max(top, np.linalg.svd(gamma, compute_uv=False)[0])
    return float(top)


def _power_norm(b: GridSignal2D, tol: float, seed) -> NormResult:
    """Largest singular value of T_b by power iteration on T*T over the
    admissible subspace, from a start vector seeded by seed; operator_norm's
    fallback for wide spectra.  Stops when successive Rayleigh quotients
    differ by less than tol, and raises RuntimeError, naming the estimate
    and the last gap, after _POWER_STEPS steps."""
    N = b.n_points
    # T* has symbol conj(b): the axis transforms are self-adjoint
    bc = b.conj()
    rng = np.random.default_rng(seed)
    start = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    v = project_admissible_2d(GridSignal2D(start))
    nv = v.norm2()
    if nv == 0.0:
        raise ValueError("grid too small: admissible subspace is trivial")
    v = v * (1.0 / nv)
    prev = None
    for it in range(1, _POWER_STEPS + 1):
        w = commutator_apply(b, v)
        r = w.norm2() ** 2
        gap = math.inf if prev is None else abs(r - prev)
        if gap < tol or r == 0.0:
            return NormResult(math.sqrt(r), it)
        u = commutator_apply(bc, w)
        nu = u.norm2()
        if nu == 0.0:
            return NormResult(math.sqrt(r), it)
        v = u * (1.0 / nu)
        prev = r
    raise RuntimeError(f"power iteration did not converge: estimate {math.sqrt(prev)}, final gap {gap}")


def operator_matrix(b: GridSignal2D) -> np.ndarray:
    """T_b over the admissible modes as a matrix, N <= _DENSE_MAX_N.

    Rows and columns are the modes (k1, k2) with 0 < |k_i| < N/2, in (k1, k2)
    row-major order, each k_i rising from 1 - N/2; column c is the spectrum
    of commutator_apply(b, e_c) at those modes, for e_c the c-th unit mode.
    Built from the operator's definition alone, so its largest singular
    value is the norm that operator_norm's block form must match.
    """
    N = b.n_points
    if N > _DENSE_MAX_N:
        raise ValueError(f"dense assembly limited to N <= {_DENSE_MAX_N}")
    ks = [k % N for k in range(1 - N // 2, N // 2) if k]
    at = np.ix_(ks, ks)
    columns = []
    for k1 in ks:
        for k2 in ks:
            unit = np.zeros((N, N), dtype=complex)
            unit[k1, k2] = 1.0
            columns.append(commutator_apply(b, GridSignal2D.from_spectrum(unit)).spectrum()[at].ravel())
    return np.stack(columns, axis=1)


def dense_hankel_matrix(b: GridSignal2D) -> np.ndarray:
    """Hankel operator over open-(+,+)-quadrant input modes, N <= 32.

    Rows are the open-(-,-)-quadrant output modes (-k1, -k2), columns the
    input modes (m1, m2), both in row-major order over 1 <= k_i, m_i < N/2;
    the entry is conj(b_hat(k + m)), i.e. the conjugate of Gamma_(+,+).
    The largest singular value is the Hankel norm over the Hardy-type input
    space.  A symbol whose spectrum leaves the closed (+,+) quadrant
    (0 <= k_i < N/2) raises ValueError.
    """
    N = b.n_points
    if N > _DENSE_MAX_N:
        raise ValueError(f"dense assembly limited to N <= {_DENSE_MAX_N}")
    spec = b.spectrum()
    k = frequencies(N)
    leak = float(np.linalg.norm(spec[(k[:, None] < 0) | (k[None, :] < 0)]))
    if leak > 1e-12 * max(1.0, float(np.linalg.norm(spec))):
        raise ValueError("symbol spectrum leaves the closed (+,+) quadrant")
    return quadrant_hankel(spec.conj(), (1, 1), N // 2 - 1, N // 2 - 1)
