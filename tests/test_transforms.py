"""Hilbert transforms and frequency projections."""

import numpy as np
import pytest

from bicomm.grid import GridSignal1D, GridSignal2D
from bicomm.transforms import (
    frequencies,
    hilbert_2d_axis,
    project_admissible_1d,
    project_admissible_2d,
    project_halfline,
    project_quadrant,
)


def rand1d(rng, N):
    return GridSignal1D(rng.standard_normal(N) + 1j * rng.standard_normal(N))


def rand2d(rng, N):
    return GridSignal2D(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))


def test_frequency_order():
    np.testing.assert_array_equal(frequencies(8), [0, 1, 2, 3, -4, -3, -2, -1])


def test_halfline_projections():
    rng = np.random.default_rng(11)
    f = rand1d(rng, 64)
    plus = project_halfline(f, 1)
    minus = project_halfline(f, -1)
    # orthogonal, idempotent, and they sum to the admissible projection
    assert abs(plus.inner(minus)) < 1e-14
    np.testing.assert_allclose(
        project_halfline(plus, 1).samples, plus.samples, atol=1e-13
    )
    np.testing.assert_allclose(
        (plus + minus).samples, project_admissible_1d(f).samples, atol=1e-13
    )
    with pytest.raises(ValueError):
        project_halfline(f, 0)


def test_halfline_conjugate_symmetry_for_real_signals():
    rng = np.random.default_rng(12)
    f = GridSignal1D(rng.standard_normal(64))
    plus = project_halfline(f, 1)
    minus = project_halfline(f, -1)
    np.testing.assert_allclose(plus.conj().samples, minus.samples, atol=1e-13)


def test_signature_vs_kernel_convention():
    """The 2D axis transform is the signed sum of the quadrant projections."""
    rng = np.random.default_rng(13)
    F = rand2d(rng, 32)
    h1 = hilbert_2d_axis(F, 1)
    via_quadrants = (
        project_quadrant(F, 1, 1)
        + project_quadrant(F, 1, -1)
        - project_quadrant(F, -1, 1)
        - project_quadrant(F, -1, -1)
    )
    # h1 also keeps the k1-admissible, k2 in {0, Nyquist} lines that the
    # quadrant projections drop, so compare on the admissible subspace
    np.testing.assert_allclose(
        project_admissible_2d(h1).samples, via_quadrants.samples, atol=1e-12
    )


def test_quadrants_decompose_admissible_part():
    rng = np.random.default_rng(14)
    F = rand2d(rng, 16)
    total = None
    for s1 in (1, -1):
        for s2 in (1, -1):
            q = project_quadrant(F, s1, s2)
            total = q if total is None else total + q
    np.testing.assert_allclose(
        total.samples, project_admissible_2d(F).samples, atol=1e-13
    )
    q1 = project_quadrant(F, 1, 1)
    q2 = project_quadrant(F, -1, 1)
    assert abs(q1.inner(q2)) < 1e-14


def test_axis_transforms_commute():
    rng = np.random.default_rng(15)
    F = rand2d(rng, 32)
    a = hilbert_2d_axis(hilbert_2d_axis(F, 1), 2)
    b = hilbert_2d_axis(hilbert_2d_axis(F, 2), 1)
    np.testing.assert_allclose(a.samples, b.samples, atol=1e-13)
    with pytest.raises(ValueError):
        hilbert_2d_axis(F, 3)
