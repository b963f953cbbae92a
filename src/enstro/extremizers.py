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
  march at the same point, so each iterate marches forward once.  Above
  ``ADJOINT_STORAGE_BUDGET_BYTES`` the gradient keeps checkpoints instead
  and rebuilds the tape block by block by replaying the recorded steps
  from them.

Both problems ascend their members, one (config, seed) pair each, in
lockstep, one stack per evaluation, whose gradients reuse what the
evaluation computed; see :func:`_ascend`.

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

from .bounds_lab import initial_datum
from .burgers_solver import SolverConfig, _integrating_factors, _rate_terms, march
from .burgers_solver import step_spectral
from .field_core import Field1D, GridSpec1D, _frozen_array, enstrophy, spectral_ops
from .field_core import _require_count, _require_nonnegative, _require_positive
from .field_core import _require_zero_mean

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
        _require_positive("grad_tol", self.grad_tol)
        if self.T is not None:
            _require_positive("T", self.T)
        _require_count("max_iters", self.max_iters)


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
        for name in RECORD_COLUMNS[1:]:
            message = f"column {name!r} has inconsistent length"
            arr = _frozen_array(getattr(self, name), (n,), message)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.objective)

    def rows(self) -> Iterator[tuple]:
        """Rows in RECORD_COLUMNS order."""
        return zip(range(len(self)), *(getattr(self, c) for c in RECORD_COLUMNS[1:]))


# ----------------------------------------------------------------------
# instantaneous problem: functional and its exact discrete gradient
# ----------------------------------------------------------------------


def rate_functional(u: Field1D, nu: float) -> float:
    """R(u) = -nu int (u_xx)^2 - (1/2) int (u_x)^3 on the grid, the
    instantaneous (1/2) dE/dt, computed spectrally."""
    _require_positive("nu", nu)
    n = u.grid.n_points
    _, dissipation, cubic = _rate_terms(np.fft.rfft(u.values), n, u.grid.dx, nu)
    return float(dissipation + cubic)


def rate_gradient(u: Field1D, nu: float) -> Field1D:
    """Exact L2 gradient of the discrete rate functional.

    delta R / delta u = -2 nu d_x^4 u + (3/2) d_x((u_x)^2); because the
    discrete functional uses the spectral derivative matrix, this formula
    with pointwise squaring is its exact gradient (the derivative matrix
    is anti-self-adjoint), so finite differences match to roundoff.
    """
    _require_positive("nu", nu)
    n, uh = u.grid.n_points, np.fft.rfft(u.values)
    ux, _, _ = _rate_terms(uh, n, u.grid.dx, nu)
    return Field1D(u.grid, _rate_gradient(uh, ux, nu, n))


def _rate_gradient(uh: np.ndarray, ux: np.ndarray, nu: float | np.ndarray, n: int) -> np.ndarray:
    """:func:`rate_gradient` of the state with rfft data ``uh`` and samples of
    u_x ``ux``, as :func:`_rate_terms` made them; a stack row by row, at a
    scalar or (B, 1) nu.  Three transforms, whatever the stack's size."""
    ops = spectral_ops(n)
    fourth = np.fft.irfft(ops.k4 * uh, n)
    dsq = np.fft.irfft(ops.ik * np.fft.rfft(ux**2), n)
    return -2.0 * nu * fourth + 1.5 * dsq


# ----------------------------------------------------------------------
# sphere geometry
# ----------------------------------------------------------------------


def _retract(vals: np.ndarray, e0: float | np.ndarray, n: int) -> np.ndarray:
    """Rescale ``vals`` onto {E = e0}; a (B, n) stack row by row, at one e0 per row."""
    e = enstrophy(np.fft.rfft(vals), n)
    if np.any(e <= 0):
        raise ValueError("cannot retract a field with zero enstrophy")
    return vals * np.sqrt(e0 / e)[..., None]


def _tangent_direction(
    u_vals: np.ndarray, g_vals: np.ndarray, n: int, dx: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Preconditioned gradient projected tangent to {E = const}.

    With P = (-d_xx)^-1 on the mean-free part, P g is the gradient in the
    H1-seminorm metric, where the sphere's normal at u is u itself and
    <P g, u>_H1 = <g, u>_L2.  So d = P g - (<g, u>_L2 / E(u)) u.  Returns
    (direction, slope, metric_norm) where slope = <g, d>_L2 = ||d||_H1^2 >= 0
    is the directional derivative along d and metric_norm = ||d||_H1; a
    (B, n) stack of points and gradients gives one of each per row.
    """
    gh = np.fft.rfft(g_vals)
    gh[..., 0] = 0.0
    gh[..., 1:] /= spectral_ops(n).k2[1:]
    coef = np.sum(g_vals * u_vals, axis=-1) * dx / enstrophy(np.fft.rfft(u_vals), n)
    d = np.fft.irfft(gh, n) - coef[..., None] * u_vals
    slope = np.sum(g_vals * d, axis=-1) * dx
    return d, slope, np.sqrt(enstrophy(np.fft.rfft(d), n))


def _ascend(
    starts: np.ndarray,
    grid: GridSpec1D,
    cfgs: Sequence[OptimConfig],
    evaluate: Callable[[np.ndarray, list[int]], tuple],
) -> tuple[np.ndarray, list[float], list[OptimRecord]]:
    """Riemannian Armijo ascents on the spheres {E = cfg.e0}, one per row of
    ``starts`` and of ``cfgs``, run in lockstep.

    ``evaluate(points, members)`` evaluates a stack of points, row i for
    member ``members[i]``, and returns their objectives together with a
    function of row positions in ``points`` that gives the gradients at
    those rows, built from what the evaluation computed.  Each round takes
    the gradients of the members that just started or just accepted a step
    from the last evaluation, and then makes one evaluation, of every
    member's next Armijo trial; tangent directions, retractions and
    residuals run as one stack too.  A member keeps its own step size,
    Armijo test, stopping rules and record, so it takes the steps it would
    take alone, and it leaves the stack when it stops.  Returns the optima,
    their objectives and records.
    """
    if not len(cfgs) or len(cfgs) != len(starts):
        raise ValueError("an ascent needs one seed per config, at least one")
    n, dx = grid.n_points, grid.dx
    e0, grad_tol, max_iters = np.array([(c.e0, c.grad_tol, c.max_iters) for c in cfgs]).T
    u = _retract(starts - starts.mean(axis=-1, keepdims=True), e0, n)

    def residual(m: np.ndarray) -> np.ndarray:
        return np.abs(enstrophy(np.fft.rfft(u[m]), n) - e0[m]) / e0[m]

    fresh, trying = np.arange(len(cfgs)), np.arange(0)  # at a new iterate; backtracking
    evaluated = fresh  # the members of the last evaluation, ascending
    j, gradients = evaluate(u, fresh.tolist())
    j = np.asarray(j, dtype=float)
    rows = [[(jm, 0.0, res, np.nan)] for jm, res in zip(j, residual(fresh))]
    d, slope, gnorm = np.zeros_like(u), np.zeros_like(j), np.zeros_like(j)
    eta, norm0 = np.full_like(j, _STEP0), np.zeros_like(j)
    iters, converged = np.zeros(len(cfgs), dtype=int), np.ones(len(cfgs), dtype=bool)
    while True:
        converged[fresh[iters[fresh] == max_iters[fresh]]] = False
        fresh = fresh[iters[fresh] < max_iters[fresh]]
        if fresh.size:
            g = gradients(np.searchsorted(evaluated, fresh))
            iters[fresh] += 1
            d[fresh], slope[fresh], gnorm[fresh] = _tangent_direction(u[fresh], g, n, dx)
            first = np.maximum(gnorm[fresh], 1e-300)
            norm0[fresh] = np.where(iters[fresh] == 1, first, norm0[fresh])
            moving = gnorm[fresh] > grad_tol[fresh] * norm0[fresh]
            trying = np.sort(np.concatenate([trying, fresh[moving]]))
        gradients = None  # else the stage tape it holds stays alive through the next march
        # a member whose step has shrunk to round-off is stationary
        floor = 1e-16 * np.maximum(1.0, np.sqrt(e0[trying]))
        batch = trying[eta[trying] * gnorm[trying] > floor]
        if not batch.size:
            break
        trials = _retract(u[batch] + eta[batch, None] * d[batch], e0[batch], n)
        j_trial, gradients = evaluate(trials, batch.tolist())
        j_trial, evaluated = np.asarray(j_trial, dtype=float), batch
        ok = j_trial >= j[batch] + _ARMIJO_DECREASE * eta[batch] * slope[batch]
        fresh, trying = batch[ok], batch[~ok]
        u[fresh], j[fresh] = trials[ok], j_trial[ok]
        for m, res in zip(fresh, residual(fresh)):
            rows[m].append((j[m], eta[m], res, gnorm[m]))
        eta[fresh] = np.minimum(eta[fresh] / _ARMIJO_FACTOR, 64.0 * _STEP0)
        eta[trying] *= _ARMIJO_FACTOR
    records = [OptimRecord(*np.asarray(r).T, bool(c)) for r, c in zip(rows, converged)]
    return u, j.tolist(), records


def default_seeds(
    grid: GridSpec1D, e0: float, count: int = 5, rng_seed: int = 2025
) -> list[Field1D]:
    """Low modes plus seeded band-limited perturbations, all on {E = e0}."""
    if count < 1:
        raise ValueError("count must be at least 1")
    n, x = grid.n_points, grid.x
    raw = [initial_datum(name, grid).values for name in ("sine", "sine2", "mix")]
    if count > len(raw):  # only these draw, so only these load numpy.random
        rng = np.random.default_rng(rng_seed)
        while len(raw) < count:
            v = np.zeros(n)
            for k in range(1, 7):
                v += rng.normal() / k * np.sin(2.0 * np.pi * k * x)
                v += rng.normal() / k * np.cos(2.0 * np.pi * k * x)
            raw.append(v)
    raw = np.array(raw[:count])
    return [Field1D(grid, v) for v in _retract(raw - raw.mean(axis=-1, keepdims=True), e0, n)]


def instantaneous_maximize(
    cfgs: Sequence[OptimConfig], grid: GridSpec1D, seeds: Sequence[Field1D]
) -> list[tuple[Field1D, float, OptimRecord]]:
    """Maximize the rate R at cfg.nu over the sphere {E(u) = cfg.e0}, one ascent
    per (cfg, seed) pair, run in lockstep (see :func:`_ascend`); returns one
    ``(optimum, R, record)`` per pair, bit for bit that of its ascent alone."""
    n, nu = grid.n_points, np.array([cfg.nu for cfg in cfgs])

    def evaluate(points: np.ndarray, members: list[int]) -> tuple:
        uh, nu_m = np.fft.rfft(points), nu[members]
        ux, dissipation, cubic = _rate_terms(uh, n, grid.dx, nu_m)
        return dissipation + cubic, lambda r: _rate_gradient(uh[r], ux[r], nu_m[r, None], n)

    u, j, records = _ascend(np.array([s.values for s in seeds]), grid, cfgs, evaluate)
    return [(Field1D(grid, row), jm, rec) for row, jm, rec in zip(u, j, records)]


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
) -> tuple[np.ndarray, list[list[float]], list | None]:
    """March a (B, n) stack of starts, member i to time ``T[i]`` at viscosity
    ``nu[i]``; return ``(uh_T, dts, tape)``.

    The members step together through :func:`march` as one stack, each at
    its own dt.  ``uh_T`` holds each member's final spectrum and ``dts[i]``
    member i's steps.  With ``tape_bytes > 0`` it keeps the stage tape, one
    ``(live, dts, stages)`` entry per stacked step as :func:`march` yields
    them, while the whole stack's tape fits in ``tape_bytes``; otherwise the
    tape is None and :func:`_replay` rebuilds it from ``dts``.

    The tape is decided before it is filled: the first step, which every
    member takes, bounds it by ``stages.nbytes * max_i(T[i] / dt_i)``, the
    step count that :func:`march`'s step budget trusts by the maximum
    principle, and a bound above ``tape_bytes`` keeps no tape at all.  A
    tape that outgrows ``tape_bytes`` all the same, as the discrete march
    is not proven to obey that principle, is dropped when it does.
    """
    uh = np.fft.rfft(u0_vals)
    uh_T = np.empty_like(uh)
    dts: list[list[float]] = [[] for _ in T]
    tape: list | None = [] if tape_bytes > 0 else None
    kept = 0
    cfgs = [SolverConfig(nu=v, t_end=t) for t, v in zip(T, nu)]
    for live, _, dt, uh, _, stages in march(uh, n, dx, cfgs):
        for m, step in zip(live.tolist(), dt.tolist()):
            dts[m].append(step)
        uh_T[live] = uh  # a member's last write is its final spectrum
        if tape == [] and stages.nbytes * max(t / d[0] for t, d in zip(T, dts)) > tape_bytes:
            tape = None  # cannot fit, by the first step's count
        if tape is not None:
            kept += stages.nbytes
            if kept > tape_bytes:
                tape = None
            else:
                tape.append((live, dt, stages))
    return uh_T, dts, tape


def _checkpoint_plan(
    n_steps: int, budget_bytes: int, spectrum_bytes: int, step_bytes: int
) -> tuple[int, int]:
    """``(stride, block)`` of the checkpoint path, replaying fewest steps.

    The path keeps a checkpoint every ``stride`` steps and rebuilds the
    tape of at most ``block`` steps of a segment at a time; together they
    fit in ``budget_bytes``, or in one checkpoint and one step's tape when
    the budget is smaller than that floor.  A block shorter than its
    segment is replayed from the segment's checkpoint.
    """
    budget = max(budget_bytes, spectrum_bytes + step_bytes)

    def replayed(length: int, block: int) -> int:
        blocks = -(-length // block)
        return blocks * length - block * blocks * (blocks - 1) // 2

    best = None
    for stride in range(1, n_steps + 1):
        count = -(-n_steps // stride)
        block = min(stride, (budget - count * spectrum_bytes) // step_bytes)
        if block < 1:
            continue
        last = n_steps - (count - 1) * stride
        cost = (count - 1) * replayed(stride, block) + replayed(last, block)
        key = (cost, count * spectrum_bytes + block * step_bytes)
        if best is None or key < best[0]:
            best = (key, stride, block)
    return best[1], best[2]


def _replay(uh: np.ndarray, dts: list[float], nu: np.ndarray, n: int) -> Iterator[tuple]:
    """Step the one-member stack ``uh`` at the (1, 1) viscosity column ``nu``
    through the recorded steps ``dts``; yields ``(uh, tape_entry)`` after each,
    the entry in :func:`_march_forward`'s layout, bit for bit the march's."""
    live = np.zeros(1, dtype=int)
    for dt in dts:
        dt = np.array([dt])
        uh, stages = step_spectral(uh, dt[:, None], nu, n)
        yield uh, (live, dt, stages)


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
    e1, e2 = _integrating_factors(dt, nu, n)
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
    points: np.ndarray, nu: Sequence[float], marched: tuple, rows: Sequence[int], n: int
) -> np.ndarray:
    """Exact L2 gradients of u0 -> E(u(T)) at the rows ``rows`` (ascending)
    of the stack ``points`` that :func:`_march_forward` marched to
    ``marched``, at the viscosities ``nu``.

    The backward pass transposes, step by step, exactly the arithmetic of
    the forward march, reading each RK4 stage's samples from the march's
    stage tape, one stacked walk for all rows.  When the march dropped its
    tape, each row replays its recorded steps once to keep checkpoints, and
    then rebuilds its tape block by block by replaying them from the
    checkpoints, checkpoints and tape together within
    ``ADJOINT_STORAGE_BUDGET_BYTES`` (see :func:`_checkpoint_plan`); the
    result is bit for bit the same.
    """
    uh_T, dts, tape = marched
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
            last = (len(steps) - 1) // stride * stride  # the last step a checkpoint starts
            checkpoints = [np.fft.rfft(points[r : r + 1])]  # states 0, stride, ..., last
            replayed = enumerate(_replay(checkpoints[0], steps[:last], nu_col[one], n), 1)
            checkpoints += [uh for k, (uh, _) in replayed if k % stride == 0]
            hi = len(steps)  # step k maps state k to state k + 1
            while hi > 0:
                seg = (hi - 1) // stride * stride
                lo = max(seg, hi - block)
                replayed = _replay(checkpoints[seg // stride], steps[seg:hi], nu_col[one], n)
                tape = [entry for k, (_, entry) in enumerate(replayed, seg) if k >= lo]
                lam[one] = _pull_back(tape, lam[one], nu_col[one], n, [0])
                del tape  # a block's tape lives only while it is pulled back
                hi = lo
    lam[..., 0] = 0.0
    return np.fft.irfft(lam, n)


def finite_time_objective(u0: Field1D, T: float, nu: float) -> float:
    """E(u(T)) for the discrete forward march started at u0."""
    _require_nonnegative("T", T)
    _require_positive("nu", nu)
    n, dx = u0.grid.n_points, u0.grid.dx
    if T == 0:
        return float(enstrophy(np.fft.rfft(u0.values), n))
    uh_T, _, _ = _march_forward(u0.values[None], [T], [nu], n, dx)
    return float(enstrophy(uh_T[0], n))


def finite_time_gradient(u0: Field1D, T: float, nu: float) -> Field1D:
    """Exact L2 gradient of u0 -> E(u(T)) via the discrete adjoint.

    Central finite differences of the discrete objective match the result
    to roundoff-limited accuracy.  The march keeps its stage tape within
    ``ADJOINT_STORAGE_BUDGET_BYTES``; when the tape does not fit, the adjoint
    replays the recorded steps from checkpoints instead (see
    :func:`_gradients`), and the result is bit for bit the same.
    """
    _require_positive("T", T)
    _require_positive("nu", nu)
    _require_zero_mean(u0.values)
    n, u0s = u0.grid.n_points, u0.values[None]
    marched = _march_forward(u0s, [T], [nu], n, u0.grid.dx, ADJOINT_STORAGE_BUDGET_BYTES)
    return Field1D(u0.grid, _gradients(u0s, [nu], marched, [0], n)[0])


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
    if any(cfg.T is None for cfg in cfgs):
        raise ValueError("finite_time_maximize needs cfg.T")
    n = grid.n_points

    def evaluate(points: np.ndarray, members: list[int]) -> tuple:
        T, nu = [cfgs[m].T for m in members], [cfgs[m].nu for m in members]
        marched = _march_forward(points, T, nu, n, grid.dx, ADJOINT_STORAGE_BUDGET_BYTES)
        return enstrophy(marched[0], n), lambda rows: _gradients(points, nu, marched, rows, n)

    starts = np.array([seed.values for seed in seeds])
    u, j, records = _ascend(starts, grid, cfgs, evaluate)
    return [(Field1D(grid, row), jm, rec) for row, jm, rec in zip(u, j, records)]
