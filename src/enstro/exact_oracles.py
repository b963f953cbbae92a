"""Closed-form references the solvers are tested against.

Three independent sources of truth live here:

* the logarithmic-potential transformation of the viscous Burgers equation,
  which turns it into the heat equation and yields machine-accurate
  solutions for arbitrary smooth zero-mean data;
* the stationary viscous shock ``u = -U tanh(x/l)`` with ``l = 2 nu/U``,
  whose whole-line enstrophy ``(2/3) U**3 / nu`` anchors the ``1/nu``
  scaling of extremal enstrophy;
* smoothing estimates for the heat semigroup, packaged as dimensionless
  ratios that must stay bounded as data and times vary.
"""

from __future__ import annotations

import numpy as np

from .field_core import Field1D, derivative, enstrophy, heat_propagate, spectral_ops
from .field_core import _require_nonnegative, _require_positive, _require_zero_mean


class UnderflowError(ArithmeticError):
    """Potential too deep for float64: increase nu or decrease t."""


def shock_enstrophy(U: float, nu: float) -> float:
    """Whole-line enstrophy of the shock ``u = -U tanh(x/l)``, ``l = 2 nu/U``.

    Integrating the steady equation u u_x = nu u_xx once gives
    nu u_x = (u^2 - U^2)/2, whose solution is this profile.  With
    u_x = -(U/l) sech^2(x/l) and integral of sech^4 equal to 4/3, the
    enstrophy is (U/l)^2 * l * 4/3 = (2/3) U^3 / nu.
    """
    _require_positive("U", U)
    _require_positive("nu", nu)
    return (2.0 / 3.0) * U**3 / nu


def hopf_cole_solution(u0: Field1D, nu: float, t: float) -> Field1D:
    """Exact periodic Burgers solution via the logarithmic substitution.

    Writes u = -2 nu (log theta)_x where theta obeys the heat equation.
    The initial potential is shifted by its minimum before exponentiation
    so the largest value of theta0 is exactly 1; this pushes the available
    float64 range entirely toward small values of theta.
    """
    _require_positive("nu", nu)
    _require_nonnegative("t", t)
    _require_zero_mean(u0.values)
    n = u0.grid.n_points

    ops = spectral_ops(n)
    uh = np.fft.rfft(u0.values)
    ph = np.zeros_like(uh)  # the antiderivative, without mean or Nyquist mode
    ph[1:-1] = uh[1:-1] / ops.ik[1:-1]
    phi = np.fft.irfft(ph, n)

    theta0 = np.exp(-(phi - phi.min()) / (2.0 * nu))
    if theta0.min() < 1e-300:
        raise UnderflowError(
            "potential range exceeds float64 after exp(); "
            "increase nu or reduce the data amplitude"
        )
    theta = heat_propagate(Field1D(u0.grid, theta0), nu * t)
    tv = theta.values
    if tv.min() < 1e-300:
        raise UnderflowError(
            "heat-propagated potential underflowed; increase nu or reduce t"
        )
    theta_x = derivative(theta).values
    return Field1D(u0.grid, -2.0 * nu * theta_x / tv)


def heat_estimate_ratios(v0: Field1D, nu: float, t: float) -> tuple[float, float]:
    """Dimensionless smoothing ratios of the heat semigroup.

    r1 = ||d_x e^{nu t D} v0||_L2 * (nu t)^{1/4} / (||v0||_inf^{1/2} ||d_x v0||_L1^{1/2})
    r2 = ||d_x^2 e^{nu t D} v0||_L2 * (nu t)^{3/4} / (same denominator)

    Both stay bounded by an absolute constant over all nonconstant data and
    all positive times; they degenerate for constant data.
    """
    _require_positive("nu", nu)
    _require_positive("t", t)
    n = v0.grid.n_points
    dx = v0.grid.dx
    ops = spectral_ops(n)
    vh = np.fft.rfft(v0.values)
    v_x = np.fft.irfft(ops.ik * vh, n)
    grad_l1 = float(np.abs(v_x).sum() * dx)
    sup = float(np.abs(v0.values).max())
    if grad_l1 < 1e-14:
        raise ValueError("degenerate input: v0 is constant")

    damp = np.exp(-nu * t * ops.k2)
    wh = vh * damp
    w_xx = np.fft.irfft(-ops.k2 * wh, n)
    l2_1 = float(np.sqrt(enstrophy(wh, n)))
    l2_2 = float(np.sqrt(np.sum(w_xx**2) * dx))

    denom = np.sqrt(sup) * np.sqrt(grad_l1)
    r1 = l2_1 * (nu * t) ** 0.25 / denom
    r2 = l2_2 * (nu * t) ** 0.75 / denom
    return r1, r2
