"""Finite-volume solver for the confined kinetic equation in d = 1.

Splitting: the generator is split into row-wise spatial advection
(-v df/dx, central second-order flux with minmod limiter) and a column-wise
velocity operator written in divergence form

    d_v ( d_v f + D f ),    D(x, v) = V'(x) - (M'/M)(v),

which folds the force term V'(x) d_v f into the velocity step.  The velocity
flux uses exponentially fitted face weights delta(w) = 1/w - 1/(e^w - 1),
w = dv * D at the face, so the discrete per-column equilibrium with ratios
g_{m+1}/g_m = exp(-w_{m+1/2}) carries exactly zero flux.  One time step is
the symmetric composition transport(dt/2) . velocity(dt) . transport(dt/2),
each substep advanced with Heun's two-stage method.  Both substeps are
evaluated in flux form: the transport pair combines the Courant-scaled face
fluxes of its two stages, and the linear velocity operator's pair
f + dt L f + (dt^2/2) L^2 f is one conservative update with a four-point
face flux.  Both kernels work on the field transposed to one row per
velocity and padded with two ghost columns at each x-wall, where every
pass is one contiguous array operation (see ``kernels``); ``Stepper``
keeps a segment's state in that layout and loads and stores the natural
(Nx, Nv) field only at the segment's ends.  Boundaries: specular
reflection at the x-walls, zero flux at the v-walls; both conserve mass
to machine precision.

Between two emission points (diagnostics, snapshots, steady-state window
ends, the last step) ``run`` and ``steady_state_reference`` advance one
segment with ``Stepper.advance``, which merges the two adjacent transport
half-steps of consecutive steps (Strang 1968): a segment of n steps is
T(dt/2) [V(dt) T(dt)]^(n-1) V(dt) T(dt/2), n + 1 transport Heun pairs
instead of 2n.  With exact substeps T(dt/2) T(dt/2) = T(dt);
with Heun substeps the two schemes differ by O(dt^2) at a fixed time, the
order of the scheme itself.  The merged T(dt) runs at Courant number
v_max dt / dx, so a segment is fused exactly when that is at most 1/2
(``fuses_transport``), the SSP bound under which each forward-Euler
stage of the minmod transport keeps positivity; above it every step is
the symmetric one.

``steady_state_reference`` marches windows of steps to a steady state
and starts each window from a type-II Anderson mixture of the last window
ends, which removes the slow mode that a plain march leaves to decay at
the truncated operator's spectral gap; it still accepts only the end of
a marched window.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .grid import Field, PhaseGrid
from .model import ModelParams, equilibrium_drift, grad_potential

__all__ = [
    "SolverConfig",
    "Sinks",
    "NumericalAbort",
    "default_initial_condition",
    "cfl_timestep",
    "cc_delta",
    "velocity_face_coefficients",
    "discrete_velocity_equilibrium",
    "fuses_transport",
    "run",
    "steady_state_reference",
    "write_checkpoint",
    "read_checkpoint",
]

CHECKPOINT_MAGIC = b"KINFPCK1"


class NumericalAbort(RuntimeError):
    """Raised when the solution leaves the finite range; carries the step index."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite values at step {step}")


@dataclass(frozen=True)
class SolverConfig:
    """Everything needed to reproduce a run."""

    model: ModelParams
    grid: PhaseGrid
    t_final: float
    dt: float | str = "auto"  # "auto" derives the step from the CFL bound
    cfl_safety: float = 0.45
    snapshot_cadence: int = 1000
    diagnostics_cadence: int = 100

    def __post_init__(self):
        problems = []
        if not 0.0 <= self.t_final < np.inf:
            problems.append(f"t_final must be nonnegative and finite, got {self.t_final}")
        safety_ok = 0.0 < self.cfl_safety <= 1.0
        if not safety_ok:
            problems.append(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if self.snapshot_cadence < 1 or self.diagnostics_cadence < 1:
            problems.append("cadences must be positive step counts")
        if self.dt != "auto":
            if not self.dt > 0.0:
                problems.append(f"dt must be positive, got {self.dt}")
            elif safety_ok:
                bound = cfl_timestep(self.grid, self.model, self.cfl_safety)
                if self.dt > bound * (1.0 + 1e-12):
                    problems.append(
                        f"dt={self.dt:g} exceeds the CFL bound {bound:g} "
                        f"(cfl_safety={self.cfl_safety})"
                    )
        if problems:
            raise ValueError("; ".join(problems))

    def resolve_dt(self) -> tuple[float, int]:
        """(dt, n_steps) actually used; auto mode lands exactly on t_final."""
        if self.t_final == 0.0:
            return 0.0, 0
        if self.dt == "auto":
            bound = cfl_timestep(self.grid, self.model, self.cfl_safety)
            n = max(1, int(np.ceil(self.t_final / bound)))
            return self.t_final / n, n
        n = max(1, int(round(self.t_final / self.dt)))
        if abs(n * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            n = int(np.ceil(self.t_final / self.dt))
        return float(self.dt), n


@dataclass
class Sinks:
    """Callbacks that ``run`` hands each due field and its step, on the
    snapshot or diagnostics cadence; a sink computes what it records."""

    snapshot: Callable[[Field, int], None] | None = None
    diagnostics: Callable[[Field, int], None] | None = None


def _exp_cell_averages(centers: np.ndarray, width: float) -> np.ndarray:
    # exact cell averages of exp(-|u|/2); |u| is smooth inside every cell
    # because u = 0 always falls on a cell edge (even counts, symmetric grid)
    return np.exp(-np.abs(centers) / 2.0) * np.sinh(width / 4.0) / (width / 4.0)


def default_initial_condition(grid: PhaseGrid) -> Field:
    """Default initial field: exact cell averages of the normalised
    double-exponential exp(-|x|/2 - |v|/2) / 16.

    Cell averaging (rather than point sampling) keeps the discrete mass
    equal to the integral over the truncated box, so the deficit from 1 is
    the domain-truncation tail only.
    """
    fx = _exp_cell_averages(grid.x_centers, grid.dx)
    fv = _exp_cell_averages(grid.v_centers, grid.dv)
    return Field(fx[:, None] * fv[None, :] / 16.0, grid, 0.0)


def cfl_timestep(grid: PhaseGrid, params: ModelParams, cfl_safety: float = 1.0) -> float:
    """Explicit stability envelope for the split scheme.

    cfl_safety * min( dx / v_max,  dv^2 / 2,  dv / max|D| ),
    covering advection, velocity diffusion and velocity drift; max|D| is
    taken over the grid's cell centers and velocity faces.
    """
    if not (0.0 < cfl_safety <= 1.0):
        raise ValueError("cfl_safety must lie in (0, 1]")
    gv = np.abs(grad_potential(grid.x_centers, params)).max()
    faces = np.concatenate([[-grid.v_max], grid.v_faces_interior, [grid.v_max]])
    dr = np.abs(equilibrium_drift(faces, params)).max()
    max_d = float(gv + dr)
    bounds = [grid.dx / grid.v_max, grid.dv**2 / 2.0]
    if max_d > 0.0:
        bounds.append(grid.dv / max_d)
    return cfl_safety * min(bounds)


def cc_delta(w):
    """Exponential-fitting face weight delta(w) = 1/w - 1/(e^w - 1).

    Series for |w| < 1e-4 to avoid cancellation.  Elsewhere the formula
    holds at any size: e^w - 1 overflows to inf for large w, leaving 1/w,
    and rounds to -1 for w below about -37, leaving 1 + 1/w.
    delta(0) = 1/2, delta(-w) = 1 - delta(w).
    """
    w = np.asarray(w, dtype=np.float64)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-4
    ws = w[small]
    out[small] = 0.5 - ws / 12.0 + ws**3 / 720.0
    wr = w[~small]
    with np.errstate(over="ignore"):
        out[~small] = 1.0 / wr - 1.0 / np.expm1(wr)
    return out if out.ndim else float(out)


def velocity_face_coefficients(grid: PhaseGrid, params: ModelParams):
    """Per-face flux coefficients (cp, cm) of the velocity operator.

    Interior face m+1/2 of column n carries the flux
        F = cp[n, m] f[n, m+1] + cm[n, m] f[n, m],
    cp = 1/dv + D (1 - delta(w)), cm = -1/dv + D delta(w), w = dv D, with
    D evaluated at (x_n, v_{m+1/2}).
    """
    gv = grad_potential(grid.x_centers[:, None], params)
    d_face = gv - equilibrium_drift(grid.v_faces_interior, params)
    w = grid.dv * d_face
    dl = cc_delta(w)
    cp = 1.0 / grid.dv + d_face * (1.0 - dl)
    cm = -1.0 / grid.dv + d_face * dl
    return np.ascontiguousarray(cp), np.ascontiguousarray(cm)


def discrete_velocity_equilibrium(
    grid: PhaseGrid, params: ModelParams, x_value: float = 0.0
) -> np.ndarray:
    """Zero-flux profile of one velocity column, normalised to unit mass.

    Successive ratios are g_{m+1}/g_m = exp(-dv * D(x_value, v_{m+1/2})),
    the exact stationary state of the discrete velocity operator.
    """
    gv = grad_potential(np.array([x_value]), params).item()
    w = grid.dv * (gv - equilibrium_drift(grid.v_faces_interior, params))
    logg = np.concatenate([[0.0], np.cumsum(-w)])
    g = np.exp(logg - logg.max())
    return g / (g.sum() * grid.dv)


class Stepper:
    """Precomputed-coefficient stepping engine for one (grid, model) pair.

    It steps the model's one operator: specular x-walls, the force V'(x) of
    each column, transport on.  One step is transport(dt/2) . velocity(dt)
    . transport(dt/2), each substep a Heun pair; ``advance`` takes a segment
    of steps, fused when ``fuses_transport`` allows it (see the module
    docstring).  A transport Heun pair is stage = f + dF(F1),
    out = f + dF(F1 + F2)/2 on the Courant-scaled face fluxes F1 = F(f),
    F2 = F(stage), where dF(F) is each cell's left-face flux minus its
    right-face flux; the velocity Heun step is one kernel call on weights
    folded from the face coefficients and dt (see ``kernels``).

    The stepper steps its own state, a ``kernels.state_array``: the field
    transposed to one row per velocity and padded with two ghost columns
    at each x-wall, so that every kernel pass is one contiguous array
    operation.  ``advance`` loads a natural-layout (Nx, Nv) field into the
    state once, calls ``self.step`` on the state once per step, and stores
    once at the segment end.  ``step(values, dt)`` on a natural-layout
    field is ``advance`` of a copy by one step, so ``values`` is left
    untouched and a new array returned.  Inside a
    segment the state between two steps is not a solution value at any
    time; only the segment's result may be observed.

    The Courant numbers for dt and dt/2, the velocity weights and whether
    a segment fuses depend on dt: they are worked out when a step first
    sees a dt and again only when dt changes.  The first build also
    allocates, once the build's temporaries are freed so that it reuses
    their memory, the state, the stage state, the two transport face
    fluxes F1 and F2 and a two-row kernel scratch array (about six
    fields).  After that neither a step nor a segment allocates an array.
    The kernels are looked up on the ``kernels`` module at each call, so a
    wrapper installed there (a profiler, a tracer) sees them all.  The
    state holds nothing between calls of ``step`` or ``advance``, so fields
    on the same grid may share a stepper.
    """

    def __init__(self, grid: PhaseGrid, params: ModelParams):
        self.grid = grid
        self.params = params
        self._dt = None  # the dt of the Courant numbers and weights

    def _coefficients(self, dt: float):
        """(Courant numbers for dt/2, for dt, velocity weights) of this dt."""
        if dt != self._dt:
            g = self.grid
            ratio = dt / g.dx
            self._courant = (g.v_centers * (0.5 * ratio), g.v_centers * ratio)
            self._fuse = fuses_transport(g, dt)
            cp, cm = velocity_face_coefficients(g, self.params)
            self._weights = kernels.velocity_heun_weights(cp, cm, dt, g.dv)
            del cp, cm
            if self._dt is None:
                shape = (g.Nx, g.Nv)
                self._state, self._stage, self._f1, self._f2 = (
                    kernels.state_array(shape) for _ in range(4)
                )
                self._scratch = kernels.scratch_array(shape)
            self._dt = dt
        return (*self._courant, self._weights)

    def _transport_heun(self, courant):
        """Advance the state in place by the transport Heun pair whose
        Courant numbers are ``courant``."""
        state, stage, f1, f2 = self._state, self._stage, self._f1, self._f2
        kernels.transport_rhs_kernel(state, courant, f1, self._scratch)
        kernels.transport_increment(f1, courant, stage)
        np.add(state, stage, out=stage)
        kernels.transport_rhs_kernel(stage, courant, f2, self._scratch)
        np.add(f1, f2, out=f2)
        half = kernels.transport_increment(f2, courant, stage)
        np.multiply(half, 0.5, out=half)
        np.add(state, half, out=state)

    def step(
        self, values: np.ndarray, dt: float, *, opens: bool = True, closes: bool = True
    ) -> np.ndarray:
        """Advance one split step.

        ``values`` is the stepper's own state, which ``advance`` passes and
        which is advanced in place, or a natural-layout field, which is
        left untouched: its step is the one-step segment of a copy.
        ``opens``/``closes`` say whether the step starts/ends a fused
        segment, and only ``advance`` sets them; the defaults give the
        symmetric step T(dt/2) V(dt) T(dt/2).
        """
        half, full, weights = self._coefficients(dt)
        state = self._state
        if values is not state:
            return self.advance(values.copy(), dt, 1)
        if opens:
            self._transport_heun(half)
        kernels.velocity_rhs_kernel(state, weights, state, self._scratch)
        self._transport_heun(half if closes else full)
        return state

    def advance(self, values: np.ndarray, dt: float, n: int) -> np.ndarray:
        """Advance ``values`` in place by one segment of n steps and return it.

        The segment's transport half-steps merge when ``fuses_transport``
        holds for (grid, dt) (see the module docstring); otherwise every
        step is the symmetric one.
        """
        self._coefficients(dt)
        state, fuse = self._state, self._fuse
        np.copyto(kernels.interior(state), values)
        for i in range(n):
            self.step(
                state, dt,
                opens=i == 0 or not fuse, closes=i == n - 1 or not fuse,
            )
        np.copyto(values, kernels.interior(state))
        return values


def fuses_transport(grid: PhaseGrid, dt: float) -> bool:
    """Whether adjacent transport half-steps may merge into one T(dt).

    True when v_max dt / dx <= 1/2, the SSP bound that keeps every
    forward-Euler stage of the merged minmod transport positive.
    """
    return grid.v_max * dt / grid.dx <= 0.5


def _check_grid(field: Field, config: SolverConfig, what: str) -> None:
    if field.grid != config.grid:
        raise ValueError(f"{what} lives on {field.grid}, not on the configured {config.grid}")


def _emit(sinks: Sinks, field: Field, step: int, snapshot=True, diagnostics=True):
    """Hand ``field`` and ``step`` to the sinks that are set and due."""
    if snapshot and sinks.snapshot is not None:
        sinks.snapshot(field, step)
    if diagnostics and sinks.diagnostics is not None:
        sinks.diagnostics(field, step)


def run(
    config: SolverConfig,
    field0: Field | None = None,
    sinks: Sinks | None = None,
    start_step: int = 0,
) -> Field:
    """Step from t = 0 (or a resumed state) to t_final, emitting on cadence.

    Deterministic for a fixed config.  Transport half-steps are fused within
    each segment (see the module docstring); a segment ends at every
    diagnostics or snapshot step and at the last step, and starts at
    ``start_step``.  The output cadences are therefore part of the numerics
    (at O(dt^2)), and a resumed run continues bit-identically when
    ``start_step`` ends a segment of the same config: the state, the step
    size and the step counter then fully determine every later operation.
    ``run`` computes no observable itself: each sink receives the field
    and its step.  A ``field0`` on another grid, a ``start_step`` past
    the configured last step, a ``field0`` whose time is not
    ``start_step`` x dt, or a ``start_step`` inside a fused segment, is
    refused with ValueError before the first emission.
    Non-finite values abort with the offending step index.
    """
    sinks = sinks or Sinks()
    if field0 is None:
        field0 = default_initial_condition(config.grid)
    _check_grid(field0, config, "initial field")
    dt, n_steps = config.resolve_dt()
    if start_step > n_steps:
        raise ValueError(
            f"resume step {start_step} lies past step {n_steps}, the last of this config"
        )
    expected = start_step * dt
    if not math.isclose(field0.time_stamp, expected, rel_tol=1e-12):
        raise ValueError(
            f"initial field time {field0.time_stamp!r} differs from "
            f"step {start_step} x dt {dt!r} = {expected!r} of this config"
        )
    fuse = fuses_transport(config.grid, dt)
    # fused segments end only at emissions, so an uninterrupted run
    # passes through any other step without stopping there
    cadences = (config.diagnostics_cadence, config.snapshot_cadence)
    if fuse and start_step < n_steps and all(start_step % c for c in cadences):
        raise ValueError(
            f"resume step {start_step} is neither a diagnostics nor a snapshot "
            f"step of this config (cadences {cadences[0]} and {cadences[1]}); "
            "the resumed run would not match an uninterrupted one"
        )
    if not np.all(np.isfinite(field0.values)):
        raise NumericalAbort(start_step, "non-finite initial data")
    if start_step == 0:
        _emit(sinks, field0, 0)
    if start_step == n_steps:
        return field0

    stepper = Stepper(config.grid, config.model)
    values = field0.values.copy()
    step = start_step
    while step < n_steps:
        end = min(min((step // c + 1) * c for c in cadences), n_steps)
        stepper.advance(values, dt, end - step)
        step = end
        if not np.all(np.isfinite(values)):
            raise NumericalAbort(step)
        last = step == n_steps
        _emit(
            sinks, Field(values.copy(), config.grid, step * dt), step,
            snapshot=last or step % config.snapshot_cadence == 0,
            diagnostics=last or step % config.diagnostics_cadence == 0,
        )
    return Field(values, config.grid, n_steps * dt)


# Anderson depth m of the steady-state march: it mixes the last m + 1
# window ends, m difference columns in the least-squares problem.  Each
# unit of depth holds two more fields; at 96^2 depth 5 saved 2 of 13
# windows for 2.5 % more peak memory of the whole process.
ANDERSON_DEPTH = 3


def _anderson_mix(ends, res, order, out):
    """Write the type-II Anderson mixture sum_i a_i G(x_i) into ``out``.

    Type-II Anderson mixing (Anderson 1965; Walker & Ni 2011) of a
    fixed-point map G: ``ends[i]`` holds a window end G(x_i) and
    ``res[i]`` its residual G(x_i) - x_i, for the slots i of ``order``,
    oldest first.  The next start state is sum_i a_i G(x_i), with
    sum_i a_i = 1 and a chosen to minimise the norm of the mixed residual
    sum_i a_i (G(x_i) - x_i).  The norm is that of L2(1/f), with f the
    newest window end, so each cell counts with its squared relative
    error times its mass.  A Euclidean norm weighs the bulk of the field
    alone and leaves the tails behind: on the 200^2 desk reference it left
    3 times the L1 error against a reference marched to a rate of 1e-8.
    Cells below the rounding level of the field's maximum are weighted as
    if they were at it.  ``out`` first holds the weight 1/f, so the solve
    needs one more field-sized temporary at a time.
    """
    newest = ends[order[-1]]
    weight = np.maximum(newest, np.finfo(float).eps * newest.max(), out=out)
    np.divide(1.0, weight, out=weight)
    n = len(order)
    gram = np.empty((n, n))
    for a, i in enumerate(order):
        weighted = weight * res[i]
        for b in range(a, n):
            gram[a, b] = gram[b, a] = np.vdot(weighted, res[order[b]])
    # min |F_k - sum_j c_j (F_k - F_j)|^2 by its normal equations; a
    # ridge of 1e-12 of their mean diagonal keeps them solvable when the
    # residual differences are (nearly) collinear
    rhs = gram[-1, -1] - gram[-1, :-1]
    lhs = rhs[:, None] + rhs[None, :] - gram[-1, -1] + gram[:-1, :-1]
    lhs[np.diag_indices(n - 1)] += 1e-12 * np.trace(lhs) / (n - 1) + np.finfo(float).tiny
    coef = np.linalg.solve(lhs, rhs)
    np.multiply(1.0 - coef.sum(), newest, out=out)
    for c, j in zip(coef, order[:-1]):
        out += c * ends[j]
    return out


def steady_state_reference(
    config: SolverConfig,
    tol_rate: float = 1e-8,
    field0: Field | None = None,
) -> Field:
    """March windows of steps until one's L1 change rate drops below tol_rate.

    A window is ``config.diagnostics_cadence`` steps, and its rate is
    ||end - start||_1 / (window length).  Each window is one
    ``Stepper.advance`` segment, fused when ``fuses_transport`` allows it
    (see the module docstring), until a fused window meets tol_rate.  The
    fused and symmetric steps have fixed points O(dt^2) apart, so the march
    then goes on with windows of one-step segments and returns the end of
    the first one that meets tol_rate: a steady state of the symmetric
    step.

    The window is a contraction whose slowest mode decays at the truncated
    operator's small spectral gap, so each window starts from an Anderson
    mixture of the last ANDERSON_DEPTH + 1 window ends (``_anderson_mix``)
    rather than from the last end alone.  The ends and their residuals
    live in a ring of ANDERSON_DEPTH + 1 preallocated slots; each window
    takes the next slot, which holds the oldest entry once the ring is
    full.  The mixture is clipped at 0 and rescaled to field0's mass.  The
    history restarts (``used`` = 0 stored ends) when the march turns to
    symmetric windows (a different map) and when a window's rate exceeds
    the one before it.  Acceptance does not depend on the mixing:
    the result is a marched window's end, and its time stamp is field0's
    plus the steps marched, so it counts steps and is not a solution time.
    config.t_final caps the steps marched, and exhausting it raises with
    the window count and the last rate.  A ``tol_rate`` that is not
    positive and finite, or a ``field0`` on another grid, is refused with
    ValueError.
    """
    # bound per call: perfbench counts a solve's windows by wrapped l1_distance calls
    from .diagnostics import l1_distance

    if not 0.0 < tol_rate < np.inf:
        raise ValueError(f"tol_rate must be positive and finite, got {tol_rate}")
    if field0 is None:
        field0 = default_initial_condition(config.grid)
    _check_grid(field0, config, "initial field")
    dt, n_steps = config.resolve_dt()
    window = config.diagnostics_cadence
    grid = config.grid
    stepper = Stepper(grid, config.model)
    slots = ANDERSON_DEPTH + 1
    ends = np.empty((slots,) + field0.values.shape)
    residuals = np.empty_like(ends)
    total0 = field0.values.sum()
    values = field0.values.copy()
    step = windows = used = 0
    symmetric = False  # the last phase, taken only when the windows fuse
    k = slots - 1  # the ring slot of the last window
    rate = prev_rate = np.inf
    while step < n_steps:
        todo = min(window, n_steps - step)
        k = (k + 1) % slots
        res = residuals[k]
        np.copyto(res, values)
        if symmetric:
            for _ in range(todo):
                stepper.advance(values, dt, 1)
        else:
            stepper.advance(values, dt, todo)
        step += todo
        windows += 1
        if not np.all(np.isfinite(values)):
            raise NumericalAbort(step)
        rate = l1_distance(Field(values, grid), Field(res, grid)) / (todo * dt)
        np.subtract(values, res, out=res)
        if rate < tol_rate:
            if symmetric or not fuses_transport(grid, dt):
                return Field(values, grid, field0.time_stamp + step * dt)
            symmetric = True
            used = 0
        else:
            if rate > prev_rate:
                used = 0
            np.copyto(ends[k], values)
            used = min(used + 1, slots)
            if used > 1:
                order = [(k - used + 1 + i) % slots for i in range(used)]  # oldest first
                _anderson_mix(ends, residuals, order, values)
                np.maximum(values, 0.0, out=values)
                values *= total0 / values.sum()
        prev_rate = rate
    raise RuntimeError(
        f"steady state not reached within {n_steps} steps ({windows} windows); "
        f"last rate {rate:.3e} (tolerance {tol_rate:.3e})"
    )


# Checkpoint layout: 8-byte magic, then little-endian int64 Nx, Nv, step,
# float64 L, v_max, time, then Nx*Nv float64 cell values, x-major.
_HEADER = struct.Struct("<8sqqqddd")


def write_checkpoint(field: Field, step: int, path) -> None:
    g = field.grid
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                CHECKPOINT_MAGIC, g.Nx, g.Nv, step, g.L, g.v_max, field.time_stamp
            )
        )
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_checkpoint(path) -> tuple[Field, int]:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"truncated checkpoint: {path}")
        magic, nx, nv, step, L, v_max, time_stamp = _HEADER.unpack(head)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        if not np.isfinite(time_stamp):
            raise ValueError(f"non-finite checkpoint time {time_stamp!r}: {path}")
        # the header is checked whole before the payload is read, so a
        # corrupt cell count cannot ask for more memory than the file holds
        grid = PhaseGrid(L=L, v_max=v_max, Nx=nx, Nv=nv)
        size = nx * nv * 8
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < size:
            raise ValueError(f"truncated checkpoint payload: {path}")
        if left > size:
            raise ValueError(f"trailing bytes after the checkpoint payload: {path}")
        data = np.frombuffer(fh.read(size), dtype="<f8").astype(np.float64)
    return Field(data.reshape(nx, nv), grid, time_stamp), int(step)
