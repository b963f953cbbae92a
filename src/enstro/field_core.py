"""Periodic scalar fields on the unit circle and their spectral calculus.

Everything downstream (solvers, oracles, optimizers) speaks in terms of the
types defined here: a power-of-two grid on [0, 1), real sample vectors, and
the grid's Fourier multipliers.  Quadrature is the trapezoid rule, which is
exact for band-limited integrands on a periodic grid, so the discrete L2
pairing ``dx * sum(a*b)`` is the inner product used everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ConfigurationError(ValueError):
    """Raised for invalid grid or solver configuration values."""


def _require_grid_size(name: str, n: int) -> None:
    """The one grid rule: ``n`` points, an integer power of two >= 8."""
    if not isinstance(n, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer")
    if n < 8 or n & (n - 1):
        raise ConfigurationError(f"{name} must be a power of two >= 8, got {n}")


def _require_positive(name: str, value: float) -> None:
    """The one rule for a viscosity, time, amplitude or enstrophy level:
    positive and finite, so nan and inf are refused too."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _require_zero_mean(values: np.ndarray) -> None:
    """The zero-mean hypothesis on initial data, to round-off."""
    if abs(float(values.mean())) > 1e-12:
        raise ValueError("initial data must have zero mean (|mean| <= 1e-12)")


@dataclass(frozen=True)
class GridSpec1D:
    """Uniform periodic grid: ``n_points`` samples at x_j = j/n on [0, 1).

    The domain length is fixed at 1; generalized boxes live in the
    finite-volume module, not here.
    """

    n_points: int

    def __post_init__(self) -> None:
        _require_grid_size("n_points", self.n_points)

    @property
    def dx(self) -> float:
        return 1.0 / self.n_points

    @property
    def x(self) -> np.ndarray:
        """Sample locations x_j = j * dx."""
        return np.arange(self.n_points) * self.dx


@dataclass(frozen=True, eq=False)
class Field1D:
    """Real scalar samples on a :class:`GridSpec1D`.  Immutable value type."""

    grid: GridSpec1D
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid "
                f"({self.grid.n_points},)"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class FieldNorms:
    """Summary functionals of a field; ``enstrophy`` is ||u_x||_{L2}^2."""

    l2: float
    linf: float
    tv: float
    mean: float
    enstrophy: float


@dataclass(frozen=True, eq=False)
class SpectralOps:
    """Fourier multipliers of an n-point grid in the rfft layout, k = 0..n/2.

    ``ik`` = 2*pi*i*k drops the unpaired Nyquist mode, which keeps
    derivatives real and skew-adjoint; ``k2``, ``k4`` = (2*pi*k)**2, **4.
    ``dealias`` is the 2/3-rule mask of a quadratic product, and
    ``advect`` = -0.5 * ik * dealias maps the spectrum of u**2 to the
    dealiased spectrum of -(1/2) (u**2)_x.
    """

    ik: np.ndarray
    k2: np.ndarray
    k4: np.ndarray
    dealias: np.ndarray
    advect: np.ndarray


@lru_cache(maxsize=32)
def spectral_ops(n: int) -> SpectralOps:
    """The cached :class:`SpectralOps` table of an n-point grid."""
    k = np.fft.rfftfreq(n, d=1.0 / n)
    ik = 2j * np.pi * k
    ik[-1] = 0.0
    dealias = (k <= n // 3).astype(float)
    ops = SpectralOps(
        ik=ik,
        k2=(2.0 * np.pi * k) ** 2,
        k4=(2.0 * np.pi * k) ** 4,
        dealias=dealias,
        advect=-0.5 * ik * dealias,
    )
    for arr in vars(ops).values():
        arr.setflags(write=False)
    return ops


def derivative(field: Field1D) -> Field1D:
    """Spectral first derivative: mode k times 2*pi*i*k, Nyquist mode
    dropped; see :class:`SpectralOps`."""
    n = field.grid.n_points
    uh = np.fft.rfft(field.values)
    return Field1D(field.grid, np.fft.irfft(uh * spectral_ops(n).ik, n))


def heat_propagate(field: Field1D, nu_t: float) -> Field1D:
    """Apply the periodic heat semigroup: mode k is damped by exp(-nu_t*(2*pi*k)**2).

    The argument is the *product* of diffusivity and elapsed time, so the
    semigroup property reads ``heat(heat(u, a), b) == heat(u, a + b)``.
    """
    if nu_t < 0:
        raise ValueError(f"nu_t must be nonnegative, got {nu_t}")
    if nu_t == 0:
        return Field1D(field.grid, field.values)
    n = field.grid.n_points
    c = np.fft.rfft(field.values) * np.exp(-nu_t * spectral_ops(n).k2)
    return Field1D(field.grid, np.fft.irfft(c, n))


def norms(field: Field1D) -> FieldNorms:
    """Compute the standard summary norms in one pass.

    ``tv`` is the wrap-around total variation sum |u_{j+1} - u_j|.
    """
    v = field.values
    dx = field.grid.dx
    return FieldNorms(
        l2=float(np.sqrt(np.sum(v * v) * dx)),
        linf=float(np.abs(v).max()),
        tv=float(np.abs(np.diff(v, append=v[:1])).sum()),
        mean=float(v.mean()),
        enstrophy=float(enstrophy(np.fft.rfft(v), field.grid.n_points)),
    )


def enstrophy(uh: np.ndarray, n: int) -> np.ndarray:
    """E = ||u_x||_{L2}^2 of the n-point state with rfft data ``uh``, by the
    spectral derivative and trapezoid quadrature; a stack of states along
    the last axis gives one E per state."""
    ux = np.fft.irfft(spectral_ops(n).ik * uh, n)
    return np.sum(ux * ux, axis=-1) * (1.0 / n)


def write_field(field: Field1D, path) -> None:
    """Plain-text dump: ``N=<n> L=1.0`` header, one sample per line."""
    lines = [f"N={field.grid.n_points} L=1.0"]
    lines.extend(repr(float(v)) for v in field.values)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path, header, rows) -> None:
    """The one CSV writer: floats as ``repr`` (exact round trip), the rest
    (ints, strings) as ``str``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                for v in row
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
