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
each substep advanced with Heun's two-stage method.  Boundaries: specular
reflection at the x-walls, zero flux at the v-walls; both conserve mass to
machine precision.

Between two emission points (diagnostics, snapshots, steady-state window
ends, the last step) ``run`` and ``steady_state_reference`` merge the two
adjacent transport half-steps of consecutive steps (Strang 1968): a segment
of n steps is T(dt/2) [V(dt) T(dt)]^(n-1) V(dt) T(dt/2), n + 1 transport
Heun pairs instead of 2n.  With exact substeps T(dt/2) T(dt/2) = T(dt);
with Heun substeps the two schemes differ by O(dt^2) at a fixed time, the
order of the scheme itself.  The merged T(dt) runs at Courant number
v_max dt / dx, so segments are fused only when that is at most 1/2, the
SSP bound under which each forward-Euler stage of the minmod transport
keeps positivity; above it every step is the symmetric one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .grid import Field, PhaseGrid, build_grid
from .model import ModelParams, equilibrium_drift, grad_potential

__all__ = [
    "SolverConfig",
    "Sinks",
    "NumericalAbort",
    "build_grid",
    "default_initial_condition",
    "double_exponential_datum",
    "cfl_timestep",
    "cc_delta",
    "velocity_face_coefficients",
    "discrete_velocity_equilibrium",
    "transport_rhs",
    "velocity_rhs",
    "fuses_transport",
    "strang_step",
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
        if self.model.dim != 1:
            raise ValueError("the solver is one-dimensional")
        if self.t_final < 0.0:
            raise ValueError("t_final must be nonnegative")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.snapshot_cadence < 1 or self.diagnostics_cadence < 1:
            raise ValueError("cadences must be positive step counts")
        if self.dt != "auto":
            bound = cfl_timestep(self.grid, self.model, self.cfl_safety)
            if self.dt <= 0.0:
                raise ValueError("dt must be positive")
            if self.dt > bound * (1.0 + 1e-12):
                raise ValueError(
                    f"dt={self.dt:g} exceeds the CFL bound {bound:g} "
                    f"(cfl_safety={self.cfl_safety})"
                )

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
    """Callbacks receiving snapshots and diagnostics during a run."""

    snapshot: Callable[[Field, int], None] | None = None
    diagnostics: Callable[[object], None] | None = None
    reference: Field | None = None  # enables the L1-distance observable
    weight: np.ndarray | None = None  # optional weight for a weighted L1
    weight_id: str = "custom"


def double_exponential_datum(x, v):
    """Normalised double-exponential profile exp(-|x|/2 - |v|/2) / 16."""
    return np.exp(-np.abs(x) / 2.0 - np.abs(v) / 2.0) / 16.0


def _exp_cell_averages(centers: np.ndarray, width: float) -> np.ndarray:
    # exact cell averages of exp(-|u|/2); |u| is smooth inside every cell
    # because u = 0 always falls on a cell edge (even counts, symmetric grid)
    return np.exp(-np.abs(centers) / 2.0) * np.sinh(width / 4.0) / (width / 4.0)


def default_initial_condition(grid: PhaseGrid) -> Field:
    """Default initial field: exact cell averages of the double-exponential.

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
    gv = np.abs(grad_potential(grid.x_centers[:, None], params)).max()
    faces = np.concatenate([[-grid.v_max], grid.v_faces_interior, [grid.v_max]])
    dr = np.abs(equilibrium_drift(faces[:, None], params)).max()
    max_d = float(gv + dr)
    bounds = [grid.dx / grid.v_max, grid.dv**2 / 2.0]
    if max_d > 0.0:
        bounds.append(grid.dv / max_d)
    return cfl_safety * min(bounds)


def cc_delta(w):
    """Exponential-fitting face weight delta(w) = 1/w - 1/(e^w - 1).

    Series for |w| < 1e-4 to avoid cancellation; asymptotic forms guard
    overflow for |w| > 500.  delta(0) = 1/2, delta(-w) = 1 - delta(w).
    """
    w = np.asarray(w, dtype=np.float64)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-4
    ws = w[small]
    out[small] = 0.5 - ws / 12.0 + ws**3 / 720.0
    big_pos = w > 500.0
    big_neg = w < -500.0
    rest = ~(small | big_pos | big_neg)
    wr = w[rest]
    out[rest] = 1.0 / wr - 1.0 / np.expm1(wr)
    out[big_pos] = 1.0 / w[big_pos]
    out[big_neg] = 1.0 + 1.0 / w[big_neg]
    return out if out.ndim else float(out)


def velocity_face_coefficients(
    grid: PhaseGrid, params: ModelParams, freeze_x: float | None = None
):
    """Per-face flux coefficients (cp, cm) of the velocity operator.

    Interior face m+1/2 of column n carries the flux
        F = cp[n, m] f[n, m+1] + cm[n, m] f[n, m],
    cp = 1/dv + D (1 - delta(w)), cm = -1/dv + D delta(w), w = dv D, with
    D evaluated at (x_n, v_{m+1/2}).  ``freeze_x`` evaluates the force at
    a fixed position instead (used by the velocity-only subproblem).
    """
    vf = grid.v_faces_interior
    if freeze_x is None:
        gv = np.asarray(grad_potential(grid.x_centers[:, None], params))
    else:
        gv = np.full(grid.Nx, grad_potential(np.array([freeze_x]), params).item())
    dr = np.asarray(equilibrium_drift(vf[:, None], params))[:, 0]
    d_face = gv.reshape(-1, 1) - dr[None, :]
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
    dr = np.asarray(equilibrium_drift(grid.v_faces_interior[:, None], params))[:, 0]
    w = grid.dv * (gv - dr)
    logg = np.concatenate([[0.0], np.cumsum(-w)])
    g = np.exp(logg - logg.max())
    return g / (g.sum() * grid.dv)


def transport_rhs(field: Field, bc: str = "specular") -> np.ndarray:
    """Increment of the spatial-advection substep (per unit time)."""
    code = {"specular": kernels.BC_SPECULAR, "periodic": kernels.BC_PERIODIC}[bc]
    return kernels.transport_rhs_kernel(
        field.values, field.grid.v_centers, field.grid.dx, code
    )


def velocity_rhs(
    field: Field, params: ModelParams, freeze_x: float | None = None
) -> np.ndarray:
    """Increment of the velocity drift-diffusion substep (per unit time)."""
    cp, cm = velocity_face_coefficients(field.grid, params, freeze_x)
    return kernels.velocity_rhs_kernel(field.values, cp, cm, field.grid.dv)


class Stepper:
    """Precomputed-coefficient stepping engine for one (grid, model) pair.

    One step is transport(dt/2) . velocity(dt) . transport(dt/2), each
    substep a Heun pair.  Inside a fused segment (see the module docstring)
    a step that does not open the segment skips the leading T(dt/2), which
    the previous step's T(dt) already covered, and a step that does not
    close it ends with T(dt).  The stepper owns a workspace allocated once:
    the Heun increments k1 and k2, the stage state, and a ``kernels.Workspace``
    (three more field-sized arrays and two masks), so a step allocates no
    array.  The kernels are looked up on the ``kernels`` module at each
    call, so a wrapper installed there (a profiler, a tracer) sees them all.

    ``step(values, dt)`` leaves ``values`` untouched and returns a new array;
    ``step(values, dt, out=values)`` advances in place.  The workspace holds
    no state between steps, so fields on the same grid may share a stepper.
    The state between an unclosed step and the next is not a solution value
    at any time; only a closing step's result may be observed.
    """

    def __init__(
        self,
        grid: PhaseGrid,
        params: ModelParams,
        transport_enabled: bool = True,
        velocity_enabled: bool = True,
        freeze_x: float | None = None,
        bc: str = "specular",
    ):
        self.grid = grid
        self.params = params
        self.transport_enabled = transport_enabled
        self.velocity_enabled = velocity_enabled
        self.bc_code = {"specular": kernels.BC_SPECULAR, "periodic": kernels.BC_PERIODIC}[bc]
        self.cp, self.cm = velocity_face_coefficients(grid, params, freeze_x)
        self._v = np.ascontiguousarray(grid.v_centers)
        shape = (grid.Nx, grid.Nv)
        self._k1 = np.empty(shape)
        self._k2 = np.empty(shape)
        self._stage = np.empty(shape)
        self._work = kernels.Workspace(shape)

    def _heun(self, rhs, values, dt, out):
        """out = values + dt/2 (k1 + k2), k1 = rhs(values), k2 = rhs(values + dt k1)."""
        k1 = rhs(values, self._k1)
        stage = np.multiply(dt, k1, out=self._stage)
        np.add(values, stage, out=stage)
        k2 = rhs(stage, self._k2)
        np.add(k1, k2, out=k2)
        np.multiply(0.5 * dt, k2, out=k2)
        return np.add(values, k2, out=out)

    def _transport(self, values, out):
        return kernels.transport_rhs_kernel(
            values, self._v, self.grid.dx, self.bc_code, out, self._work
        )

    def _velocity(self, values, out):
        return kernels.velocity_rhs_kernel(
            values, self.cp, self.cm, self.grid.dv, out, self._work
        )

    def step(
        self,
        values: np.ndarray,
        dt: float,
        out: np.ndarray | None = None,
        *,
        opens: bool = True,
        closes: bool = True,
    ) -> np.ndarray:
        """Advance one split step; the result goes to ``out`` (new array if None).

        ``opens``/``closes`` say whether the step starts/ends a fused
        segment; the defaults give the symmetric step T(dt/2) V(dt) T(dt/2).
        """
        if out is None:
            out = np.empty_like(values)
        src = values
        if self.transport_enabled and opens:
            src = self._heun(self._transport, src, 0.5 * dt, out)
        if self.velocity_enabled:
            src = self._heun(self._velocity, src, dt, out)
        if self.transport_enabled:
            src = self._heun(self._transport, src, 0.5 * dt if closes else dt, out)
        if src is not out:
            np.copyto(out, src)
        return out


def fuses_transport(grid: PhaseGrid, dt: float) -> bool:
    """Whether adjacent transport half-steps may merge into one T(dt).

    True when v_max dt / dx <= 1/2, the SSP bound that keeps every
    forward-Euler stage of the merged minmod transport positive.
    """
    return grid.v_max * dt / grid.dx <= 0.5


def strang_step(field: Field, params: ModelParams, dt: float, *, _stepper=None) -> Field:
    """Advance one symmetric split step of size dt; validates the CFL bound."""
    if dt < 0.0:
        raise ValueError("dt must be nonnegative")
    if dt == 0.0:
        return field.copy()
    bound = cfl_timestep(field.grid, params, 1.0)
    if dt > bound * (1.0 + 1e-12):
        raise ValueError(f"dt={dt:g} exceeds the CFL bound {bound:g}")
    stepper = _stepper or Stepper(field.grid, params)
    vals = stepper.step(field.values, dt)
    return Field(vals, field.grid, field.time_stamp + dt)


def _emit_diagnostics(field: Field, sinks: Sinks):
    from .diagnostics import DiagnosticsRecord, l1_distance, mass

    dist = None
    wl1 = None
    if sinks.reference is not None:
        dist = l1_distance(field, sinks.reference)
        if sinks.weight is not None:
            wl1 = l1_distance(field, sinks.reference, weight=sinks.weight)
    rec = DiagnosticsRecord(
        time=field.time_stamp,
        mass=mass(field),
        min_value=float(field.values.min()),
        max_value=float(field.values.max()),
        l1_distance_to_reference=dist,
        weighted_l1=wl1,
        weight_id=sinks.weight_id if wl1 is not None else None,
    )
    if sinks.diagnostics is not None:
        sinks.diagnostics(rec)
    return rec


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
    Non-finite values abort with the offending step index.
    """
    sinks = sinks or Sinks()
    if field0 is None:
        field0 = default_initial_condition(config.grid)
    if field0.grid != config.grid:
        raise ValueError("initial field does not live on the configured grid")
    if not np.all(np.isfinite(field0.values)):
        raise NumericalAbort(start_step, "non-finite initial data")
    dt, n_steps = config.resolve_dt()
    if start_step == 0 and sinks.snapshot is not None:
        sinks.snapshot(field0, 0)
    if start_step == 0 and sinks.diagnostics is not None:
        _emit_diagnostics(field0, sinks)
    if n_steps == 0 or start_step >= n_steps:
        return field0

    stepper = Stepper(config.grid, config.model)
    fuse = fuses_transport(config.grid, dt)
    values = field0.values.copy()
    opens = True
    for k in range(start_step, n_steps):
        step = k + 1
        emit_diag = step % config.diagnostics_cadence == 0 or step == n_steps
        emit_snap = step % config.snapshot_cadence == 0 or step == n_steps
        closes = emit_diag or emit_snap or not fuse
        stepper.step(values, dt, out=values, opens=opens, closes=closes)
        opens = closes
        if emit_diag or emit_snap:
            if not np.all(np.isfinite(values)):
                raise NumericalAbort(step)
            f = Field(values.copy(), config.grid, step * dt)
            if emit_snap and sinks.snapshot is not None:
                sinks.snapshot(f, step)
            if emit_diag:
                _emit_diagnostics(f, sinks)
    return Field(values, config.grid, n_steps * dt)


def steady_state_reference(
    config: SolverConfig,
    tol_rate: float = 1e-8,
    field0: Field | None = None,
    max_steps: int | None = None,
) -> Field:
    """Integrate until the windowed L1 change rate drops below tol_rate.

    The rate ||f(t + w) - f(t)||_1 / w is checked every diagnostics-cadence
    window; config.t_final (or max_steps) caps the horizon, and exhausting
    it raises with the last observed rate.  Each window is one fused
    segment when ``fuses_transport`` allows it (see the module docstring)
    until a fused window meets tol_rate.  The fused and symmetric steps have
    fixed points O(dt^2) apart, so the march then goes on with symmetric
    windows and returns the first one that meets tol_rate: the result is a
    steady state of the symmetric step, the one ``strang_step`` takes.
    """
    from .diagnostics import l1_distance

    if tol_rate <= 0.0:
        raise ValueError("tol_rate must be positive")
    if field0 is None:
        field0 = default_initial_condition(config.grid)
    dt, n_steps = config.resolve_dt()
    if max_steps is not None:
        n_steps = min(n_steps, max_steps)
    window = config.diagnostics_cadence
    stepper = Stepper(config.grid, config.model)
    fuse = fuses_transport(config.grid, dt)
    values = field0.values.copy()
    prev = Field(values.copy(), config.grid, field0.time_stamp)
    step = 0
    rate = np.inf
    while step < n_steps:
        todo = min(window, n_steps - step)
        for i in range(todo):
            stepper.step(
                values, dt, out=values,
                opens=i == 0 or not fuse, closes=i == todo - 1 or not fuse,
            )
        step += todo
        if not np.all(np.isfinite(values)):
            raise NumericalAbort(step)
        cur = Field(values.copy(), config.grid, field0.time_stamp + step * dt)
        rate = l1_distance(cur, prev) / (todo * dt)
        if rate < tol_rate:
            if not fuse:
                return cur
            fuse = False
        prev = cur
    raise RuntimeError(
        f"steady state not reached within {n_steps} steps; last rate {rate:.3e} "
        f"(tolerance {tol_rate:.3e})"
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
        data = np.frombuffer(fh.read(nx * nv * 8), dtype="<f8").astype(np.float64)
    if data.size != nx * nv:
        raise ValueError(f"truncated checkpoint payload: {path}")
    grid = PhaseGrid(L=L, v_max=v_max, Nx=int(nx), Nv=int(nv))
    return Field(data.reshape(nx, nv), grid, time_stamp), int(step)
