"""Experiment harness for the extremal-enstrophy bounds.

The pieces fit together as a sandwich argument at slope one in 1/nu:

* ``build_lower_bound_datum`` constructs the smooth odd profile (ramp,
  plateau at one, ramp) whose viscous evolution concentrates an O(1)
  fraction of dissipation at the origin, giving sup_t E ~ 1/nu from
  below;
* ``characteristics_report`` certifies the geometric fact the profile is
  built for: every characteristic reaches the origin before it crosses
  a neighbour (no shock forms away from x = 0);
* ``dissipation_window`` measures the dissipation captured in the
  predicted space-time window against the ideal value (2/3) U^3;
* ``nu_sweep`` probes the upper bound sup_t E <= C (1 + 1/nu) across
  viscosities and measures each peak against the enstrophy of the
  steepest admissible viscous shock, (2/3) U^3 / nu; it marches all its
  viscosities as one stack along a leading batch axis, keeping only t
  and E(t) of each member;
* ``fit_power_law`` is the shared log-log least-squares fitter;
* ``initial_datum`` builds each named 1-D datum of ``INITS``, the one table.

All fitted constants are reported, never asserted against theory: the
analysis only proves such constants exist, it does not name them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .burgers_solver import (
    BlowUpError,
    SolverConfig,
    march,
    required_points,
    sup_enstrophy,
    validate_initial,
)
from .exact_oracles import shock_enstrophy
from .field_core import ConfigurationError, Field1D, GridSpec1D, _require_positive
from .field_core import derivative, enstrophy, spectral_ops


class DatumConstructionError(RuntimeError):
    """A certified shape property of constructed data failed to hold."""


class SweepAbortedError(RuntimeError):
    """A sweep run failed; carries the rows completed before the failure."""

    def __init__(self, message: str, partial_rows: list[tuple[float, float, float]]):
        self.partial_rows = list(partial_rows)
        super().__init__(message)


# ----------------------------------------------------------------------
# lower-bound datum
# ----------------------------------------------------------------------


# mollification radius of the plateau shoulders
_DELTA_S = 1.0 / 48.0


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the m-point Gauss-Legendre rule.

    Newton's method on P_m, with P_m and P_{m-1} from the three-term
    recurrence, starts at x = cos(pi (k - 1/4) / (m + 1/2)); the weights are
    w = 2 / ((1 - x^2) P'_m(x)^2).  Nodes and weights are then symmetrized
    about 0.
    """
    x = np.cos(np.pi * (np.arange(m, 0, -1) - 0.25) / (m + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for k in range(2, m + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = m * (p_prev - x * p) / (1.0 - x * x)  # P'_m
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:  # what is left is round-off
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def _kink_correction(s: np.ndarray) -> np.ndarray:
    """h(s): what mollifying a unit kink adds, in units of the radius.

    Mollifying J * max(x - c, 0) with the radius-delta bump rho_delta adds
    J * delta * h((x - c) / delta), where h is even, vanishes for
    |s| >= 1 and h(s) = int_{-1}^{-|s|} (-|s| - tau) rho(tau) dtau.  That
    integral is no difference of O(1) terms, so h keeps its relative
    precision as it goes to zero.  128 Gauss-Legendre nodes on
    [-1, -|s|] reach 4e-17 against a 40-digit reference; 64 leave 3e-13.
    The nodes are built per call by :func:`_gauss_legendre`.
    """
    t, w = _gauss_legendre(128)
    half = 0.5 * (1.0 - np.abs(s))  # half-length of [-1, -|s|]
    rise = np.outer(half, 1.0 + t)  # tau + 1, so 1 - tau^2 = rise * (2 - rise) > 0
    bump = np.exp(-1.0 / (rise * (2.0 - rise)))
    mass = np.exp(-1.0 / (1.0 - t * t)) @ w
    # -|s| - tau = half * (1 - t) and dtau = half * dt
    return half**2 * ((bump * (1.0 - t)) @ w) / mass


def _datum_profile(n: int) -> np.ndarray:
    """Mollified template on x in [1/2, 1) (left half of the odd profile).

    The plateau of the piecewise-linear template is widened by _DELTA_S on
    both sides so that after mollification with a radius-_DELTA_S kernel
    the profile equals one exactly on the stated plateau.  The segments
    through x = 1/2 and x = 0 are linear (the odd reflection continues
    them), so the only kinks are the two plateau shoulders, both with
    slope jump -m.  Away from a kink the symmetric unit-mass kernel
    reproduces the line exactly, so only the kink windows are corrected.
    """
    d = _DELTA_S
    m = 1.0 / (1.0 / 6.0 - d)  # common ramp slope magnitude
    kinks = np.array([2.0 / 3.0 - d, 5.0 / 6.0 + d])
    xs = np.arange(n // 2, n) / n
    vals = np.interp(xs, [0.5, *kinks, 1.0], [0.0, 1.0, 1.0, 0.0])
    # the kink windows are disjoint: only the nearest kink can reach a point
    s = np.min(np.abs(xs[:, None] - kinks), axis=1) / d
    near = s < 1.0
    vals[near] -= m * d * _kink_correction(s[near])
    return vals


def build_lower_bound_datum(grid: GridSpec1D) -> tuple[Field1D, float]:
    """Construct u0 = U*v0 with E(u0) = 1 and certify every shape property.

    v0 is odd, vanishes at 0 and +-1/2, equals +1 exactly on
    [-1/3, -1/6], is nonnegative and concave on [-1/2, 0), increasing on
    [-1/2, -1/3), and decreasing on [-1/6, 0].  Any failed check raises:
    the construction never silently returns a defective profile.
    """
    n = grid.n_points
    v = np.zeros(n)
    v[n // 2 :] = _datum_profile(n)  # x in [1/2, 1) carries the [-1/2, 0) template
    v[1 : n // 2] = -v[: n // 2 : -1]  # exact odd reflection

    _certify_datum(grid, v)
    u_norm = float(np.sqrt(enstrophy(np.fft.rfft(v), n)))
    capital_u = 1.0 / u_norm
    u0 = Field1D(grid, capital_u * v)
    e = float(enstrophy(np.fft.rfft(u0.values), n))
    if abs(e - 1.0) > 1e-10:
        raise DatumConstructionError(
            f"normalized datum has enstrophy {e!r}, expected 1"
        )
    return u0, capital_u


def _certify_datum(grid: GridSpec1D, v: np.ndarray) -> None:
    n = grid.n_points
    x = grid.x
    # oddness: v(x) + v(-x) = 0 exactly by construction; assert anyway
    odd_defect = np.max(np.abs(v + v[(-np.arange(n)) % n]))
    if odd_defect > 1e-12:
        raise DatumConstructionError(f"oddness defect {odd_defect:.3e} > 1e-12")
    # work on the half [-1/2, 0): torus indices n/2..n-1, coordinate x-1
    left = v[n // 2 :]
    xl = x[n // 2 :] - 1.0
    if np.min(left) < -1e-12:
        raise DatumConstructionError("profile negative on [-1/2, 0)")
    plateau = (xl >= -1.0 / 3.0) & (xl <= -1.0 / 6.0)
    plateau_defect = np.max(np.abs(left[plateau] - 1.0))
    if plateau_defect > 1e-12:
        raise DatumConstructionError(
            f"plateau defect {plateau_defect:.3e} > 1e-12"
        )
    # measured for N = 16 to 16384: second differences at most 2.2e-16
    # (round-off of values near one) and no step against the monotone
    # direction, so both shape checks hold to 1e-14
    second = left[:-2] - 2.0 * left[1:-1] + left[2:]
    if np.max(second) > 1e-14:
        raise DatumConstructionError(
            f"concavity defect {np.max(second):.3e} > 1e-14 on [-1/2, 0)"
        )
    rising = xl < -1.0 / 3.0
    if not np.all(np.diff(left[rising]) >= -1e-14):
        raise DatumConstructionError("profile not increasing on [-1/2, -1/3)")
    falling = xl >= -1.0 / 6.0
    if not np.all(np.diff(left[falling]) <= 1e-14):
        raise DatumConstructionError("profile not decreasing on [-1/6, 0)")


class CharacteristicsRow(NamedTuple):
    alpha: float
    t_star: float
    t_s: float
    admissible: bool
    skipped: bool


def characteristics_report(v0: Field1D) -> list[CharacteristicsRow]:
    """Turnover vs origin-arrival time for characteristics from [-1/2, 0).

    t_star = -1/v0'(alpha) (infinite where v0' >= 0) is when neighbouring
    characteristics cross; t_s = -alpha/v0(alpha) is when the one from
    alpha reaches the origin.  Concavity of the profile guarantees
    t_star >= t_s wherever v0 > 0; the function asserts that and raises
    if it fails.  On the linear ramp the two times coincide exactly, so
    the check sits on an equality: a 1e-4 relative slack absorbs the
    spectral-derivative truncation there (measured 4e-5 at 512 points
    and shrinking two orders per grid doubling).  Points with
    v0(alpha) <= 0 are flagged skipped.
    """
    half = slice(v0.grid.n_points // 2, None)
    alpha = v0.grid.x[half] - 1.0  # in [-1/2, 0)
    val, slope = v0.values[half], derivative(v0).values[half]
    skipped = val <= 1e-12
    with np.errstate(divide="ignore"):
        t_s = np.where(skipped, np.inf, -alpha / val)
        t_star = np.where(skipped | (slope >= 0.0), np.inf, -1.0 / slope)
    ok = skipped | (t_star >= t_s * (1.0 - 1e-4))
    bad = alpha[~ok]
    if bad.size:
        raise DatumConstructionError(
            f"characteristics cross before reaching the origin at "
            f"{bad.size} points, first at alpha = {bad[0]:.6f}"
        )
    columns = (alpha, t_star, t_s, ok, skipped)
    return [CharacteristicsRow(*row) for row in zip(*(c.tolist() for c in columns))]


# ----------------------------------------------------------------------
# dissipation window
# ----------------------------------------------------------------------


def dissipation_window(
    u0: Field1D, U: float, nu: float, eps: float
) -> tuple[float, float]:
    """Dissipation captured near the origin against the ideal (2/3) U^3.

    Averages nu * int_O (u_x)^2 over the time window
    I = (1/(6U)+eps, 1/(3U)-eps) with O = (-U eps, U eps), trapezoid in
    time over about 600 sampled steps and rectangle quadrature in space.
    The samples are taken while marching; no field is retained.
    """
    _require_positive("U", U)
    if not 0.0 < eps < 1.0 / (12.0 * U):
        raise ConfigurationError(f"eps must lie in (0, 1/(12 U)), got {eps}")
    t_lo = 1.0 / (6.0 * U) + eps
    t_hi = 1.0 / (3.0 * U) - eps
    cfg = SolverConfig(nu=nu, t_end=t_hi)  # checks nu
    grid = u0.grid
    linf0 = float(np.abs(u0.values).max())
    if linf0 == 0.0:
        return 0.0, (2.0 / 3.0) * U**3
    validate_initial(u0, cfg)
    est_steps = t_hi / (cfg.cfl * grid.dx / linf0)
    stride = max(1, int(est_steps // 600))

    half_width = U * eps
    dist = np.abs((grid.x + 0.5) % 1.0 - 0.5)
    window = dist < half_width
    n = grid.n_points
    ik = spectral_ops(n).ik
    times, integrals = [], []
    steps = march(np.fft.rfft(u0.values)[None], n, grid.dx, [cfg])
    for i, (_, (t,), _, (uh,), _, _) in enumerate(steps, start=1):
        sampled = i % stride == 0 or t == t_hi
        if not sampled or t < t_lo:
            continue
        ux = np.fft.irfft(ik * uh, n)
        times.append(t)
        integrals.append(float(np.sum(ux[window] ** 2) * grid.dx))
    if len(times) < 2:
        raise ValueError("too few snapshots inside the time window")
    measured = nu * np.trapezoid(integrals, times) / (t_hi - t_lo)
    return float(measured), (2.0 / 3.0) * U**3


# ----------------------------------------------------------------------
# datum families and sweeps
# ----------------------------------------------------------------------


# the named 1-D data, each as its samples on a grid
_NAMED_DATA = {
    "sine": lambda g: np.sin(2 * np.pi * g.x),
    "sine2": lambda g: np.sin(4 * np.pi * g.x),
    "mix": lambda g: (
        np.sin(2 * np.pi * g.x) + 0.5 * np.sin(4 * np.pi * g.x) + 0.25 * np.sin(6 * np.pi * g.x)
    ),
    "lower-bound": lambda g: build_lower_bound_datum(g)[0].values,
    "smoothed-step": lambda g: np.tanh(np.sin(2 * np.pi * g.x) / 0.1),
}
INITS = tuple(_NAMED_DATA)


def initial_datum(init: str, grid: GridSpec1D, amp: float = 1.0) -> Field1D:
    """The named datum ``init``, one of INITS, on ``grid`` times ``amp``;
    the smoothed step has its mean removed after the scaling."""
    if init not in _NAMED_DATA:
        raise ConfigurationError(f"unknown init {init!r}; valid: {', '.join(INITS)}")
    vals = amp * _NAMED_DATA[init](grid)
    return Field1D(grid, vals - vals.mean() if init == "smoothed-step" else vals)


def datum_family(name: str, grid: GridSpec1D) -> tuple[Field1D, float]:
    """Unit-enstrophy data for sweeps: u0 = U * v0 with max|v0| = 1."""
    if name == "lower-bound":
        return build_lower_bound_datum(grid)
    if name == "sine":
        capital_u = 1.0 / (np.pi * np.sqrt(2.0))
        return initial_datum("sine", grid, capital_u), capital_u
    raise ConfigurationError(f"unknown datum family {name!r}; available: lower-bound, sine")


def auto_grid(family: str, nu_min: float) -> GridSpec1D:
    """The grid that resolves the family's viscous shock down to nu_min."""
    _, capital_u = datum_family(family, GridSpec1D(512))
    return GridSpec1D(required_points(nu_min, capital_u))


SWEEP_COLUMNS = ("param", "e_star", "t_star")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Sweep rows plus the log-log fit, the two bound constants and the
    range of e_star over the shock enstrophy (2/3) U^3 / nu."""

    param: np.ndarray
    e_star: np.ndarray
    t_star: np.ndarray
    slope: float
    intercept: float
    residual: float
    c_hat: float
    big_c_hat: float
    shock_ratio_min: float
    shock_ratio_max: float

    def __len__(self) -> int:
        return len(self.param)

    def rows(self) -> Iterator[tuple]:
        """Rows in SWEEP_COLUMNS order."""
        return zip(*(getattr(self, c) for c in SWEEP_COLUMNS))

    def summary(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "C_hat": self.big_c_hat,
            "c_hat": self.c_hat,
            "shock_ratio_min": self.shock_ratio_min,
            "shock_ratio_max": self.shock_ratio_max,
        }


def fit_power_law(rows: list[tuple[float, float]]) -> tuple[float, float, float]:
    """OLS fit of log y on log x in closed form on the centred logs:
    slope = sum(dx dy) / sum(dx^2), intercept = mean(ly) - slope mean(lx).
    The residual is the max relative deviation."""
    if len(rows) < 4:
        raise ValueError(f"need at least 4 rows to fit, got {len(rows)}")
    arr = np.asarray(rows, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("power-law fit needs strictly positive values")
    lx, ly = np.log(arr[:, 0]), np.log(arr[:, 1])
    dx, dy = lx - lx.mean(), ly - ly.mean()
    slope = np.sum(dx * dy) / np.sum(dx * dx)
    intercept = ly.mean() - slope * lx.mean()
    fit_y = np.exp(intercept + slope * lx)
    residual = float(np.max(np.abs(fit_y - arr[:, 1]) / arr[:, 1]))
    return float(slope), float(intercept), residual


def _enstrophy_peaks(
    u0: Field1D, cfgs: list[SolverConfig]
) -> list[tuple[float, float]]:
    """``sup_enstrophy`` of each config's run from ``u0``, all marched as
    one stack.

    Each step keeps only t and the enstrophy, by the formula of the
    diagnostics row, so every member's samples equal its own
    :func:`simulate` run's bit for bit.
    """
    n, dx = u0.grid.n_points, u0.grid.dx
    uh = np.fft.rfft(np.tile(u0.values, (len(cfgs), 1)))
    steps = [(np.arange(len(cfgs)), np.zeros(len(cfgs)), enstrophy(uh, n))]
    for live, t, _, uh, _, _ in march(uh, n, dx, cfgs):
        steps.append((live, t, enstrophy(uh, n)))
    member, t, e = (np.concatenate(col) for col in zip(*steps))
    return [sup_enstrophy(t[member == j], e[member == j]) for j in range(len(cfgs))]


def nu_sweep(
    family: str, nus: list[float], cfg: SolverConfig, grid: GridSpec1D | None = None
) -> SweepResult:
    """sup_t E(t) across viscosities, with the slope-one sandwich constants.

    Fits log e_star against log(1/nu); reports C_hat = max over rows of
    e_star / (1 + 1/nu), c_hat = min over rows of nu * e_star, and the
    range over rows of e_star / shock_enstrophy(U, nu), U being the
    datum's amplitude.

    The viscosities march as one stack with a batch axis, one member per
    nu (see :func:`march`); each row equals that of its own run through
    :func:`simulate` and :func:`sup_enstrophy`.  A run that fails aborts
    the sweep: the error names the largest failing nu and carries the
    rows of the larger ones, re-marched without the failed members.
    """
    if len(nus) < 4:
        raise ConfigurationError("sweep needs at least 4 viscosities for the fit")
    if grid is None:
        grid = auto_grid(family, min(nus))
    u0, capital_u = datum_family(family, grid)
    e0 = enstrophy(np.fft.rfft(u0.values), grid.n_points)
    if abs(np.sqrt(e0) - 1.0) > 1e-10 or abs(float(u0.values.mean())) > 1e-12:
        raise DatumConstructionError("sweep datum violates the hypothesis set")
    cfgs: list[SolverConfig] = []
    failure = None
    for nu in sorted(nus, reverse=True):
        try:
            run_cfg = dataclasses.replace(cfg, nu=nu)
            validate_initial(u0, run_cfg)
        except ConfigurationError as exc:
            failure = (nu, exc)
            break
        cfgs.append(run_cfg)
    peaks: list[tuple[float, float]] = []
    while cfgs:
        try:
            peaks = _enstrophy_peaks(u0, cfgs)
            break
        except BlowUpError as exc:
            failure = (cfgs[exc.member].nu, exc)
            cfgs = cfgs[: exc.member]
    rows = [(c.nu, e_star, t_star) for c, (t_star, e_star) in zip(cfgs, peaks)]
    if failure is not None:
        nu, exc = failure
        raise SweepAbortedError(f"run at nu = {nu:g} failed: {exc}", rows) from exc
    slope, intercept, residual = fit_power_law(
        [(1.0 / nu, e) for nu, e, _ in rows]
    )
    arr = np.asarray(rows, dtype=float)
    ratio_upper = arr[:, 1] / (1.0 + 1.0 / arr[:, 0])
    ratio_lower = arr[:, 0] * arr[:, 1]
    ratio_shock = [e / shock_enstrophy(capital_u, nu) for nu, e, _ in rows]
    return SweepResult(
        param=arr[:, 0],
        e_star=arr[:, 1],
        t_star=arr[:, 2],
        slope=slope,
        intercept=intercept,
        residual=residual,
        c_hat=float(np.min(ratio_lower)),
        big_c_hat=float(np.max(ratio_upper)),
        shock_ratio_min=float(min(ratio_shock)),
        shock_ratio_max=float(max(ratio_shock)),
    )
