"""enstro: a numerical laboratory for extremal enstrophy growth in viscous
scalar conservation laws.

The package is organized around one validated 1-D pseudospectral solver for
the viscous Burgers equation, exact reference solutions to test it against,
a finite-volume solver for multi-dimensional scalar conservation laws,
adjoint-based extremizers for enstrophy growth, and experiment drivers that
measure the sharp bound sup_t E(t) <= C * (1 + 1/nu) from both sides.
"""

__version__ = "0.1.0"
