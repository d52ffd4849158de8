"""The exhaustive product-BMO scan: the oracle of product_bmo_lower at n <= 2."""

import numpy as np
from span_oracle import span_box_sums

from bicomm.bmo import BmoEstimate
from bicomm.grid import CellSet, _interval_spans
from bicomm.wavelets import WaveletCoefficients


def exhaustive_product_bmo(c: WaveletCoefficients) -> BmoEstimate:
    """The best of every nonempty cell union at resolution n <= 2, at most
    65,535 sets, from one (sets, rectangles) containment table; the first
    union in bit order wins a tie."""
    n = c.max_scale
    if n > 2:
        raise ValueError("the exhaustive scan needs max_scale <= 2")
    m = 1 << n
    cells = m * m
    # cell (i1, i2) is bit i1*m + i2; the bits of a box are disjoint, so
    # their sum is the box's cell set
    cell_bits = (1 << np.arange(cells, dtype=np.int64)).reshape(m, m)
    rmask = span_box_sums(cell_bits, *_interval_spans(n, n)).astype(np.uint32).ravel()
    sets = np.arange(1, 2**cells, dtype=np.uint32)
    energies = ((sets[:, None] & rmask) == rmask) @ (np.abs(c.matrix) ** 2).ravel()
    ratio = energies / (np.bitwise_count(sets) * 4.0**-n)
    best = int(np.argmax(ratio))
    bits = (sets[best] >> np.arange(cells, dtype=np.uint32)) & 1
    return BmoEstimate(float(np.sqrt(ratio[best])), CellSet(n, bits.reshape(m, m)), exact=True)
