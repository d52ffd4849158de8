"""Numerical workbench for biparameter Hilbert-transform commutators.

Modules:
    grid        periodic grid signals, dyadic lattice, cell-mask open sets,
                maximal functions
    transforms  axis Hilbert transforms, half-line/quadrant projections
    wavelets    band-limited orthonormal wavelet system and its commutator
                kernels
    bmo         product and rectangular BMO functionals on wavelet
                coefficients
    commutator  the nested commutator, its exact norm from quadrant Hankel
                blocks, its own matrix at N <= 32, Hankel form
    journe      dyadic rectangle combinatorics: maximal rectangles,
                embeddedness, covering sums, thinning
    cli         configuration-driven experiment runner
"""

__version__ = "0.1.0"
