"""Constrained maximization of enstrophy production.

Two ascent problems over the sphere {zero-mean u : E(u) = e0} with
E(u) = int (u_x)^2:

* the instantaneous problem maximizes the production rate
  R(u) = -nu int (u_xx)^2 - (1/2) int (u_x)^3;
* the finite-time problem maximizes E(u(T)) along the viscous Burgers
  flow, with gradients from the exact discrete adjoint of the
  integrating-factor RK4 march.  The forward march keeps the stage tape
  each RK4 step returns, the samples u of its four stages, and the adjoint
  reads it back; the ascent's gradient reuses the tape of the objective's
  march at the same point, so each iterate marches forward once.  Many
  ascents run in lockstep, as one stacked march and one stacked adjoint
  walk per round.  Above ``ADJOINT_STORAGE_BUDGET_BYTES`` the gradient
  keeps checkpoints instead and rebuilds the tape block by block by
  re-marching from them.

Ascent is Riemannian: the L2 gradient is preconditioned by the inverse
Laplacian (H1-seminorm metric), in which the constraint sphere's normal
at u is u itself; it is projected along u onto the sphere's tangent
space, so the slope along the step is its squared H1 seminorm, and
iterates are retracted back by amplitude rescaling.  Armijo backtracking
keeps the objective monotone across accepted steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .burgers_solver import SolverConfig, _rate_terms, march, step_spectral
from .field_core import (
    Field1D, GridSpec1D, _require_positive, _require_zero_mean, enstrophy, spectral_ops
)

ADJOINT_STORAGE_BUDGET_BYTES = 256 * 2**20

RECORD_COLUMNS = ("iter", "objective", "step", "constraint_residual", "grad_norm")

# Armijo search: first trial step, backtracking factor, sufficient increase
_STEP0 = 0.5
_ARMIJO_FACTOR = 0.5
_ARMIJO_DECREASE = 1e-4


@dataclass(frozen=True)
class OptimConfig:
    """Knobs shared by both sphere-constrained ascent problems."""

    e0: float
    nu: float
    T: float | None = None
    max_iters: int = 200
    grad_tol: float = 1e-6

    def __post_init__(self) -> None:
        _require_positive("e0", self.e0)
        _require_positive("nu", self.nu)
        if self.T is not None:
            _require_positive("T", self.T)
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True, eq=False)
class OptimRecord:
    """Per-accepted-iteration ascent history plus a convergence flag.

    ``converged`` is True when the ascent stopped before ``max_iters``: the
    relative gradient norm fell to ``grad_tol``, or no Armijo step survived
    backtracking to round-off, which makes the point stationary.
    """

    objective: np.ndarray
    step: np.ndarray
    constraint_residual: np.ndarray
    grad_norm: np.ndarray
    converged: bool

    def __post_init__(self) -> None:
        n = len(self.objective)
        for name in ("objective", "step", "constraint_residual", "grad_norm"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            if arr.shape != (n,):
                raise ValueError(f"column {name!r} has inconsistent length")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.objective)

    def rows(self) -> Iterator[tuple]:
        """Rows in RECORD_COLUMNS order."""
        return zip(
            range(len(self)),
            self.objective,
            self.step,
            self.constraint_residual,
            self.grad_norm,
        )


# ----------------------------------------------------------------------
# instantaneous problem: functional and its exact discrete gradient
# ----------------------------------------------------------------------


def rate_functional(u: Field1D, nu: float) -> float:
    """R(u) = -nu int (u_xx)^2 - (1/2) int (u_x)^3 on the grid, the
    instantaneous (1/2) dE/dt, computed spectrally."""
    _require_positive("nu", nu)
    n = u.grid.n_points
    _, dissipation, cubic = _rate_terms(np.fft.rfft(u.values), n, u.grid.dx, nu)
    return dissipation + cubic


def rate_gradient(u: Field1D, nu: float) -> Field1D:
    """Exact L2 gradient of the discrete rate functional.

    delta R / delta u = -2 nu d_x^4 u + (3/2) d_x((u_x)^2); because the
    discrete functional uses the spectral derivative matrix, this formula
    with pointwise squaring is its exact gradient (the derivative matrix
    is anti-self-adjoint), so finite differences match to roundoff.
    """
    _require_positive("nu", nu)
    n = u.grid.n_points
    ops = spectral_ops(n)
    uh = np.fft.rfft(u.values)
    ux = np.fft.irfft(ops.ik * uh, n)
    fourth = np.fft.irfft(ops.k4 * uh, n)
    dsq = np.fft.irfft(ops.ik * np.fft.rfft(ux**2), n)
    return Field1D(u.grid, -2.0 * nu * fourth + 1.5 * dsq)


# ----------------------------------------------------------------------
# sphere geometry
# ----------------------------------------------------------------------


def _retract(vals: np.ndarray, e0: float, n: int) -> np.ndarray:
    e = enstrophy(np.fft.rfft(vals), n)
    if e <= 0:
        raise ValueError("cannot retract a field with zero enstrophy")
    return vals * np.sqrt(e0 / e)


def _tangent_direction(
    u_vals: np.ndarray, g_vals: np.ndarray, n: int, dx: float
) -> tuple[np.ndarray, float, float]:
    """Preconditioned gradient projected tangent to {E = const}.

    With P = (-d_xx)^-1 on the mean-free part, P g is the gradient in the
    H1-seminorm metric, where the sphere's normal at u is u itself and
    <P g, u>_H1 = <g, u>_L2.  So d = P g - (<g, u>_L2 / E(u)) u.  Returns
    (direction, slope, metric_norm) where slope = <g, d>_L2 = ||d||_H1^2 >= 0
    is the directional derivative along d and metric_norm = ||d||_H1.
    """
    gh = np.fft.rfft(g_vals)
    gh[0] = 0.0
    gh[1:] /= spectral_ops(n).k2[1:]
    coef = float(np.sum(g_vals * u_vals) * dx) / enstrophy(np.fft.rfft(u_vals), n)
    d = np.fft.irfft(gh, n) - coef * u_vals
    slope = float(np.sum(g_vals * d) * dx)
    return d, slope, float(np.sqrt(enstrophy(np.fft.rfft(d), n)))


def _ascend(
    starts: np.ndarray,
    grid: GridSpec1D,
    cfgs: Sequence[OptimConfig],
    objective: Callable[[np.ndarray, list[int]], Sequence[float]],
    gradient: Callable[[np.ndarray, list[int]], np.ndarray],
) -> tuple[np.ndarray, list[float], list[OptimRecord]]:
    """Riemannian Armijo ascents on the spheres {E = cfg.e0}, one per row of
    ``starts`` and of ``cfgs``, run in lockstep.

    ``objective(points, members)`` evaluates a stack of points, row i for
    member ``members[i]``; ``gradient(points, members)`` gives the gradients
    at points that the last objective call evaluated.  Each round makes one
    gradient call, for the members that just started or just accepted a
    step, and then one objective call, for every member's next Armijo trial.
    A member keeps its own step size, Armijo test, stopping rules and
    record, so it takes the steps it would take alone, and it leaves the
    stack when it stops.  Returns the optima, their objectives and records.
    """
    n, dx = grid.n_points, grid.dx
    u = np.array([_retract(s - s.mean(), c.e0, n) for s, c in zip(starts, cfgs)])

    def residual(m: int) -> float:
        return abs(enstrophy(np.fft.rfft(u[m]), n) - cfgs[m].e0) / cfgs[m].e0

    members = list(range(len(cfgs)))
    j = [float(v) for v in objective(u, members)]
    rows = [[(j[m], 0.0, residual(m), np.nan)] for m in members]
    eta = [_STEP0] * len(cfgs)
    iters = [0] * len(cfgs)
    norm0: list[float | None] = [None] * len(cfgs)
    converged = [True] * len(cfgs)
    step: list = [None] * len(cfgs)  # (d, slope, gnorm) at the member's iterate
    fresh, trying = members, []  # members at a new iterate; members backtracking
    while True:
        for m in fresh:
            if iters[m] == cfgs[m].max_iters:
                converged[m] = False
        fresh = [m for m in fresh if converged[m]]
        for m, g in zip(fresh, gradient(u[fresh], fresh) if fresh else ()):
            iters[m] += 1
            step[m] = _tangent_direction(u[m], g, n, dx)
            if norm0[m] is None:
                norm0[m] = max(step[m][2], 1e-300)
            if step[m][2] > cfgs[m].grad_tol * norm0[m]:
                trying.append(m)
        # a member whose step has shrunk to round-off is stationary
        batch = sorted(
            m
            for m in trying
            if eta[m] * step[m][2] > 1e-16 * max(1.0, np.sqrt(cfgs[m].e0))
        )
        if not batch:
            break
        trials = np.array(
            [_retract(u[m] + eta[m] * step[m][0], cfgs[m].e0, n) for m in batch]
        )
        fresh, trying = [], []
        for m, trial, j_trial in zip(batch, trials, objective(trials, batch)):
            j_trial = float(j_trial)
            if j_trial >= j[m] + _ARMIJO_DECREASE * eta[m] * step[m][1]:
                u[m], j[m] = trial, j_trial
                rows[m].append((j[m], eta[m], residual(m), step[m][2]))
                eta[m] = min(eta[m] / _ARMIJO_FACTOR, 64.0 * _STEP0)
                fresh.append(m)
            else:
                eta[m] *= _ARMIJO_FACTOR
                trying.append(m)
    records = []
    for r, ok in zip(rows, converged):
        cols = np.asarray(r, dtype=float)
        records.append(OptimRecord(cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3], ok))
    return u, j, records


def default_seeds(
    grid: GridSpec1D, e0: float, count: int = 5, rng_seed: int = 2025
) -> list[Field1D]:
    """Low modes plus seeded band-limited perturbations, all on {E = e0}."""
    if count < 1:
        raise ValueError("count must be at least 1")
    n, x = grid.n_points, grid.x
    rng = np.random.default_rng(rng_seed)
    raw = [
        np.sin(2.0 * np.pi * x),
        np.sin(4.0 * np.pi * x),
        np.sin(2.0 * np.pi * x) + 0.5 * np.sin(4.0 * np.pi * x) + 0.25 * np.sin(6.0 * np.pi * x),
    ]
    while len(raw) < count:
        v = np.zeros(n)
        for k in range(1, 7):
            v += rng.normal() / k * np.sin(2.0 * np.pi * k * x)
            v += rng.normal() / k * np.cos(2.0 * np.pi * k * x)
        raw.append(v)
    out = []
    for v in raw[:count]:
        out.append(Field1D(grid, _retract(v - v.mean(), e0, n)))
    return out


def instantaneous_maximize(
    cfg: OptimConfig, grid: GridSpec1D, rng_seed: int = 2025
) -> tuple[Field1D, float, OptimRecord]:
    """Maximize the production rate R over the sphere, best of multi-start."""
    best = None
    for seed in default_seeds(grid, cfg.e0, rng_seed=rng_seed):
        (u,), (j,), (record,) = _ascend(
            seed.values[None],
            grid,
            [cfg],
            objective=lambda v, _: [rate_functional(Field1D(grid, v[0]), cfg.nu)],
            gradient=lambda v, _: rate_gradient(Field1D(grid, v[0]), cfg.nu).values[None],
        )
        if best is None or j > best[1]:
            best = (u, j, record)
    u, j, record = best
    return Field1D(grid, u), j, record


# ----------------------------------------------------------------------
# finite-time problem: forward march, discrete adjoint, ascent
# ----------------------------------------------------------------------


def _march_forward(
    u0_vals: np.ndarray,
    T: Sequence[float],
    nu: Sequence[float],
    n: int,
    dx: float,
    tape_bytes: int = 0,
    stride: int = 0,
) -> tuple[np.ndarray, list[list[float]], dict[int, np.ndarray], list | None]:
    """March a (B, n) stack of starts, member i to time ``T[i]`` at viscosity
    ``nu[i]``; return ``(uh_T, dts, checkpoints, tape)``.

    The members step together through :func:`march`'s stack path, each at
    its own dt.  ``uh_T`` holds each member's final spectrum and ``dts[i]``
    member i's steps.  With ``tape_bytes > 0`` it keeps the stage tape, one
    ``(live, dts, stages)`` entry per stacked step as :func:`march` yields
    them, while the whole stack's tape fits in ``tape_bytes``; a tape that
    outgrows them is dropped and returned as None.  With ``stride > 0`` it
    keeps the spectra of the members still marching at stacked steps 0,
    stride, 2*stride, ... before the last step instead.
    """
    uh = np.fft.rfft(u0_vals)
    uh_T = np.empty_like(uh)
    dts: list[list[float]] = [[] for _ in T]
    checkpoints: dict[int, np.ndarray] = {0: uh} if stride else {}
    tape: list | None = [] if tape_bytes > 0 else None
    kept = 0
    cfgs = [SolverConfig(nu=v, t_end=t) for t, v in zip(T, nu)]
    for i, (live, _, dt, uh, _, stages) in enumerate(march(uh, n, dx, cfgs), start=1):
        for m, step in zip(live.tolist(), dt.tolist()):
            dts[m].append(step)
        uh_T[live] = uh  # a member's last write is its final spectrum
        if stride and i % stride == 0:
            checkpoints[i] = uh
        if tape is not None:
            kept += stages.nbytes
            if kept > tape_bytes:
                tape = None
            else:
                tape.append((live, dt, stages))
    checkpoints.pop(i, None)  # the final state starts no step
    return uh_T, dts, checkpoints, tape


def _checkpoint_plan(
    n_steps: int, budget_bytes: int, spectrum_bytes: int, step_bytes: int
) -> tuple[int, int]:
    """``(stride, block)`` of the re-march path, re-marching fewest steps.

    The path keeps a checkpoint every ``stride`` steps and rebuilds the
    tape of at most ``block`` steps of a segment at a time; together they
    fit in ``budget_bytes``, or in one checkpoint and one step's tape when
    the budget is smaller than that floor.  A block shorter than its
    segment is re-marched from the segment's checkpoint.
    """
    budget = max(budget_bytes, spectrum_bytes + step_bytes)

    def remarched(length: int, block: int) -> int:
        blocks = -(-length // block)
        return blocks * length - block * blocks * (blocks - 1) // 2

    best = None
    for stride in range(1, n_steps + 1):
        count = -(-n_steps // stride)
        block = min(stride, (budget - count * spectrum_bytes) // step_bytes)
        if block < 1:
            continue
        last = n_steps - (count - 1) * stride
        cost = (count - 1) * remarched(stride, block) + remarched(last, block)
        key = (cost, count * spectrum_bytes + block * step_bytes)
        if best is None or key < best[0]:
            best = (key, stride, block)
    return best[1], best[2]


def _retape(uh: np.ndarray, dts: list[float], skip: int, nu: np.ndarray, n: int) -> list:
    """Re-march the one-member stack ``uh`` at the (1, 1) viscosity column
    ``nu`` through ``dts``; the stage tape of all but the first ``skip``
    steps, in :func:`_march_forward`'s layout."""
    live = np.zeros(1, dtype=int)
    tape = []
    for j, dt in enumerate(dts):
        dt = np.array([dt])
        uh, stages = step_spectral(uh, dt[:, None], nu, n)
        if j >= skip:
            tape.append((live, dt, stages))
    return tape


def _nonlinear_adjoint(a: np.ndarray, v_hat: np.ndarray, n: int) -> np.ndarray:
    """Transpose of the linearized dealiased advection -(a v)_x about the
    state with samples ``a``."""
    return np.fft.rfft(a * np.fft.irfft(-2.0 * spectral_ops(n).advect * v_hat, n))


def _adjoint_step(
    stages: np.ndarray,
    lam_hat: np.ndarray,
    dt: float | np.ndarray,
    nu: float | np.ndarray,
    n: int,
) -> np.ndarray:
    """Pull the objective gradient back through one forward RK4 step, whose
    stage samples ``stages`` the forward march recorded.

    ``lam_hat`` may be a (B, n//2+1) stack, with ``dt`` and ``nu`` (B, 1)
    columns and ``stages`` (4, B, n), one row per member; as in
    :func:`step_spectral`, each row equals its own row call bit for bit.
    """
    ops = spectral_ops(n)
    e1 = np.exp(-0.5 * dt * nu * ops.k2)
    e2 = e1 * e1
    s1, s2, s3, s4 = stages

    w = lam_hat.copy()
    w[..., 0] = 0.0  # transpose of the mean projection
    l_k1 = (dt / 6.0) * (e2 * w)
    l_k2 = (dt / 3.0) * (e1 * w)
    l_k3 = (dt / 3.0) * (e1 * w)
    l_k4 = (dt / 6.0) * w
    l_u = e2 * w

    v4 = _nonlinear_adjoint(s4, l_k4, n)
    l_u += e2 * v4
    l_k3 += dt * (e1 * v4)

    v3 = _nonlinear_adjoint(s3, l_k3, n)
    l_u += e1 * v3
    l_k2 += 0.5 * dt * v3

    v2 = _nonlinear_adjoint(s2, l_k2, n)
    l_u += e1 * v2
    l_k1 += 0.5 * dt * (e1 * v2)

    l_u += _nonlinear_adjoint(s1, l_k1, n)
    return l_u


def _pull_back(
    tape: list, lam: np.ndarray, nu: np.ndarray, n: int, rows: Sequence[int]
) -> np.ndarray:
    """Walk the adjoint of the marched members ``rows`` back through a stage
    tape of :func:`_march_forward`, last step first.

    ``lam`` and the column ``nu`` hold one row per member of ``rows``, which
    ascend.  A member joins the walk at its own last step, so tapes of
    different lengths line up at their ends, and every row steps as it
    would alone.
    """
    rows = np.asarray(rows)
    marching = None
    for live, dts, stages in reversed(tape):
        # members only leave a march, so the live set changes with its size
        if len(live) != marching:
            marching = len(live)
            cols = np.searchsorted(live, rows)
            took = live[np.minimum(cols, marching - 1)] == rows  # rows that take the step
            whole = len(rows) == marching and took.all()
            cols = cols[took]
        if whole:
            lam = _adjoint_step(stages, lam, dts[:, None], nu, n)
        elif cols.size:
            lam[took] = _adjoint_step(
                stages[:, cols], lam[took], dts[cols, None], nu[took], n
            )
    return lam


def _gradients(
    points: np.ndarray,
    T: Sequence[float],
    nu: Sequence[float],
    marched: tuple,
    rows: Sequence[int],
    n: int,
    dx: float,
) -> np.ndarray:
    """Exact L2 gradients of u0 -> E(u(T)) for the members ``rows``
    (ascending) of the stack that :func:`_march_forward` marched to
    ``marched``; row i of ``points`` is where member ``rows[i]`` started.

    The backward pass transposes, step by step, exactly the arithmetic of
    the forward march, reading each RK4 stage's samples from the march's
    stage tape, one stacked walk for all rows.  When the march dropped its
    tape, each row keeps checkpoints instead and rebuilds its tape block by
    block by re-marching from them, checkpoints and tape together within
    ``ADJOINT_STORAGE_BUDGET_BYTES`` (see :func:`_checkpoint_plan`); the
    result is bit for bit the same.
    """
    uh_T, dts, _, tape = marched
    # terminal condition: L2 gradient of E at u(T) is -2 u_xx(T)
    lam = 2.0 * spectral_ops(n).k2 * uh_T[rows]
    nu_col = np.array([[nu[r]] for r in rows])
    if tape is not None:
        lam = _pull_back(tape, lam, nu_col, n, rows)
    else:
        step_bytes = 4 * n * np.dtype(float).itemsize  # one step's (4, n) stage samples
        for i, r in enumerate(rows):
            steps, one = dts[r], slice(i, i + 1)
            stride, block = _checkpoint_plan(
                len(steps), ADJOINT_STORAGE_BUDGET_BYTES, uh_T[r].nbytes, step_bytes
            )
            _, _, checkpoints, _ = _march_forward(
                points[one], [T[r]], [nu[r]], n, dx, stride=stride
            )
            hi = len(steps)  # step j maps state j to state j + 1
            while hi > 0:
                seg = (hi - 1) // stride * stride
                lo = max(seg, hi - block)
                # a block's tape lives only while it is pulled back
                lam[one] = _pull_back(
                    _retape(checkpoints[seg], steps[seg:hi], lo - seg, nu_col[one], n),
                    lam[one],
                    nu_col[one],
                    n,
                    [0],
                )
                hi = lo
    lam[..., 0] = 0.0
    return np.fft.irfft(lam, n)


def finite_time_objective(u0: Field1D, T: float, nu: float) -> float:
    """E(u(T)) for the discrete forward march started at u0."""
    if not 0.0 <= T < np.inf:
        raise ValueError(f"T must be nonnegative and finite, got {T}")
    _require_positive("nu", nu)
    n, dx = u0.grid.n_points, u0.grid.dx
    if T == 0:
        return float(enstrophy(np.fft.rfft(u0.values), n))
    uh_T, _, _, _ = _march_forward(u0.values[None], [T], [nu], n, dx)
    return float(enstrophy(uh_T[0], n))


def finite_time_gradient(u0: Field1D, T: float, nu: float) -> Field1D:
    """Exact L2 gradient of u0 -> E(u(T)) via the discrete adjoint.

    Central finite differences of the discrete objective match the result
    to roundoff-limited accuracy.  The march keeps its stage tape within
    ``ADJOINT_STORAGE_BUDGET_BYTES``, or checkpoints when the tape does not
    fit (see :func:`_gradients`); the result is bit for bit the same.
    """
    _require_positive("T", T)
    _require_positive("nu", nu)
    _require_zero_mean(u0.values)
    n, dx = u0.grid.n_points, u0.grid.dx
    u0s = u0.values[None]
    marched = _march_forward(u0s, [T], [nu], n, dx, ADJOINT_STORAGE_BUDGET_BYTES)
    g = _gradients(u0s, [T], [nu], marched, [0], n, dx)
    return Field1D(u0.grid, g[0])


def finite_time_maximize(
    cfgs: Sequence[OptimConfig], grid: GridSpec1D, seeds: Sequence[Field1D]
) -> list[tuple[Field1D, float, OptimRecord]]:
    """Maximize E(u(T)) over the sphere {E(u0) = cfg.e0}, one ascent per
    (cfg, seed) pair; returns one ``(optimum, E(u(T)), record)`` per pair.

    The ascents run in lockstep (see :func:`_ascend`): every round marches
    each member's next Armijo trial in one stack, keeping the stage tape
    within ``ADJOINT_STORAGE_BUDGET_BYTES`` for the whole stack, and the
    next round's gradients walk that tape back in one stack, so each
    iterate marches forward once.  Each member's result equals that of its
    ascent alone, bit for bit.
    """
    cfgs, seeds = list(cfgs), list(seeds)
    if not cfgs or len(cfgs) != len(seeds):
        raise ValueError("finite_time_maximize needs one seed per config, at least one")
    if any(cfg.T is None for cfg in cfgs):
        raise ValueError("finite_time_maximize needs cfg.T")
    if any(float(np.abs(seed.values).max()) == 0.0 for seed in seeds):
        raise ValueError("seed must be nonzero")
    n, dx = grid.n_points, grid.dx
    last = None  # (members, T, nu, march) of the last objective call

    def objective(points: np.ndarray, members: list[int]) -> np.ndarray:
        nonlocal last
        last = None  # free the old tape before marching
        T, nu = [cfgs[m].T for m in members], [cfgs[m].nu for m in members]
        marched = _march_forward(points, T, nu, n, dx, ADJOINT_STORAGE_BUDGET_BYTES)
        last = members, T, nu, marched
        return enstrophy(marched[0], n)

    def gradient(points: np.ndarray, members: list[int]) -> np.ndarray:
        marched_members, T, nu, marched = last
        rows = [marched_members.index(m) for m in members]
        return _gradients(points, T, nu, marched, rows, n, dx)

    starts = np.array([seed.values for seed in seeds])
    u, j, records = _ascend(starts, grid, cfgs, objective, gradient)
    return [(Field1D(grid, row), jm, rec) for row, jm, rec in zip(u, j, records)]
