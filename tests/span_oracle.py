"""Box sums over the cell spans of the dyadic intervals, from one integral image.

The integral-image containment table is the oracle of grid.rectangles_inside,
which halves dyadically instead, and its box sums give the exhaustive
product-BMO scan its rectangle cell sets.
"""

import numpy as np

from bicomm.grid import _integral_image


def span_box_sums(cells: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """(K, K) table of the sums of cells over [s0[a1], s1[a1]) x [s0[a2], s1[a2]).

    The box sums difference the integral image along one axis and then the
    other, two gathers of K rows each instead of four of K x K corners.
    """
    ii = _integral_image(cells)
    rows = ii[s1, :] - ii[s0, :]
    return rows[:, s1] - rows[:, s0]


def spans_inside(mask: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """(K, K) table: True where the box [s0[a1], s1[a1]) x [s0[a2], s1[a2])
    lies in the mask."""
    return span_box_sums(mask, s0, s1) == (s1 - s0)[:, None] * (s1 - s0)[None, :]
