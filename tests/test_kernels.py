"""The kernels match the plain vectorised formulas bit for bit, the one-pass
Heun steps they make match the two-stage Heun pairs they replace, and the
stepper's transposed state steps exactly as the natural-layout formulas."""

import numpy as np
import pytest

from kinfp import ModelParams, PhaseGrid
from kinfp import kernels
from kinfp.solver import Stepper, cfl_timestep, fuses_transport, velocity_face_coefficients
from oracles import to_state

DESK_PARAMS = ModelParams(alpha=1.5, kind="exp", beta=0.5)


def reference_transport_flux(values, courant):
    Nx, Nv = values.shape
    ext = np.empty((Nx + 4, Nv))
    ext[2 : Nx + 2] = values
    ext[0] = values[1, ::-1]
    ext[1] = values[0, ::-1]
    ext[Nx + 2] = values[Nx - 1, ::-1]
    ext[Nx + 3] = values[Nx - 2, ::-1]
    d = ext[1:] - ext[:-1]
    a, b = d[:-1], d[1:]
    slope = np.minimum(np.maximum(np.minimum(a, b), 0.0), np.maximum(a, b))
    left = ext[1 : Nx + 2] + 0.5 * slope[: Nx + 1]
    right = ext[2 : Nx + 3] - 0.5 * slope[1 : Nx + 2]
    return np.where(courant >= 0.0, courant * left, courant * right)


def reference_velocity_heun(values, cp, cm, dt, dv):
    """One velocity Heun step f + H[k] - H[k-1] per column, with the
    four-point face flux of ``kernels.velocity_heun_weights`` written out:
    a coefficient of a face beyond the column's faces, and a cell beyond
    the column's cells, is zero."""
    a = dt / dv
    b = 0.5 * a * a
    pp = np.pad(cp, ((0, 0), (1, 1)))  # pp[:, k + 1] is face k
    pm = np.pad(cm, ((0, 0), (1, 1)))
    wm = cm * pm[:, :-2] * -b
    w0 = ((cm - cp - pp[:, :-2]) * b + a) * cm
    w1 = ((cm - cp + pm[:, 2:]) * b + a) * cp
    w2 = cp * pp[:, 2:] * b
    f = np.pad(values, ((0, 0), (1, 1)))  # f[:, m + 1] is cell m
    flux = w0 * f[:, 1:-2] + w1 * f[:, 2:-1] + w2 * f[:, 3:]
    flux = flux + wm * f[:, :-3]
    flux = np.pad(flux, ((0, 0), (1, 1)))
    return values + (flux[:, 1:] - flux[:, :-1])


def reference_transport_heun(values, courant):
    f1 = reference_transport_flux(values, courant)
    stage = values + (f1[:-1] - f1[1:])
    s = f1 + reference_transport_flux(stage, courant)
    return values + (s[:-1] - s[1:]) * 0.5


def reference_advance(values, grid, params, dt, n, fuse):
    """A segment of n steps in the natural (Nx, Nv) layout, fused when
    ``fuse`` is set."""
    half = grid.v_centers * (0.5 * (dt / grid.dx))
    full = grid.v_centers * (dt / grid.dx)
    cp, cm = velocity_face_coefficients(grid, params)
    for i in range(n):
        if i == 0 or not fuse:
            values = reference_transport_heun(values, half)
        values = reference_velocity_heun(values, cp, cm, dt, grid.dv)
        values = reference_transport_heun(values, half if i == n - 1 or not fuse else full)
    return values


def upwind_faces(out, courant):
    """The (Nx + 1, Nv) face fluxes from the transport kernel's layout,
    where a face's flux sits in the column of its upwind cell."""
    nx = out.shape[1] - 4
    return np.where(courant[:, None] >= 0.0, out[:, 1 : nx + 2], out[:, 2 : nx + 3]).T


def reference_velocity_rhs(values, cp, cm, dv):
    """L f of the Chang-Cooper operator, flux differences per column."""
    out = np.empty_like(values)
    flux = cp * values[:, 1:] + cm * values[:, :-1]
    out[:, 0] = flux[:, 0] / dv
    np.subtract(flux[:, 1:], flux[:, :-1], out=out[:, 1:-1])
    out[:, 1:-1] /= dv
    out[:, -1] = -flux[:, -1] / dv
    return out


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize(
    "L, v_max, nx, nv",
    [(50.0, 50.0, 64, 96), (50.0, 50.0, 128, 128), (1.0, 1.5, 128, 2)],
)
def test_kernels_bitwise_match_reference(rng, L, v_max, nx, nv):
    grid = PhaseGrid(L, v_max, nx, nv)
    dt = 0.3 * grid.dx / grid.v_max
    courant = grid.v_centers * (dt / grid.dx)
    cp, cm = velocity_face_coefficients(grid, DESK_PARAMS)
    weights = kernels.velocity_heun_weights(cp, cm, dt, grid.dv)
    scratch = kernels.scratch_array((nx, nv))
    faces = kernels.state_array((nx, nv))
    increment = kernels.state_array((nx, nv))
    # the same buffers twice on different inputs: stale buffer state would show
    for _ in range(2):
        values = rng.standard_normal((nx, nv))
        state = to_state(values)
        ref = reference_transport_flux(values, courant)
        got = kernels.transport_rhs_kernel(state, courant, faces, scratch)
        assert got is faces
        assert np.array_equal(bits(upwind_faces(got, courant)), bits(ref))
        got = kernels.transport_increment(faces, increment)
        assert got is increment
        assert np.array_equal(bits(kernels.interior(got)), bits(ref[:-1] - ref[1:]))
        # in place, as the stepper calls it
        ref = reference_velocity_heun(values, cp, cm, dt, grid.dv)
        got = kernels.velocity_rhs_kernel(state, weights, scratch)
        assert got is state
        assert np.array_equal(bits(kernels.interior(got)), bits(ref))


@pytest.mark.parametrize("nx, nv", [(2, 2), (4, 2), (64, 96), (128, 128)])
@pytest.mark.parametrize("safety", [0.45, 0.9])
def test_advance_bitwise_matches_natural_layout_reference(rng, nx, nv, safety):
    """Segments of 1, 2 and 7 steps in the stepper's transposed, padded
    state give the bits of the natural-layout formulas, fused below
    Courant 1/2 and symmetric above, one after another on the same stepper
    and array, and ``step`` gives the symmetric step."""
    grid = PhaseGrid(50.0, 50.0, nx, nv)
    dt = cfl_timestep(grid, DESK_PARAMS, safety)
    fuse = fuses_transport(grid, dt)
    assert fuse == (safety < 0.5)
    stepper = Stepper(grid, DESK_PARAMS)
    values = rng.random((nx, nv))
    ref = values.copy()
    for n in (1, 2, 7):
        assert stepper.advance(values, dt, n) is values
        ref = reference_advance(ref, grid, DESK_PARAMS, dt, n, fuse)
        assert np.array_equal(bits(values), bits(ref))
    stepped = stepper.step(values, dt)
    ref = reference_advance(ref, grid, DESK_PARAMS, dt, 1, False)
    assert np.array_equal(bits(stepped), bits(ref))


@pytest.mark.parametrize("safety", [0.45, 1.0])
def test_velocity_heun_matches_two_stage_pair(rng, safety):
    """The one-pass step equals f + dt/2 (k1 + k2), k1 = L f, k2 = L (f + dt k1),
    of the per-column flux formula, and keeps each column's mass."""
    grid = PhaseGrid(50.0, 50.0, 64, 96)
    cp, cm = velocity_face_coefficients(grid, DESK_PARAMS)
    dt = safety * min(grid.dv**2 / 2.0, grid.dx / grid.v_max)
    values = rng.random((grid.Nx, grid.Nv))
    k1 = reference_velocity_rhs(values, cp, cm, grid.dv)
    k2 = reference_velocity_rhs(values + dt * k1, cp, cm, grid.dv)
    pair = values + 0.5 * dt * (k1 + k2)
    weights = kernels.velocity_heun_weights(cp, cm, dt, grid.dv)
    state = to_state(values)
    scratch = kernels.scratch_array(values.shape)
    kernels.velocity_rhs_kernel(state, weights, scratch)
    got = kernels.interior(state)
    assert np.abs(got - pair).max() <= 1e-14 * np.abs(pair).max()
    col0, col1 = values.sum(axis=1), got.sum(axis=1)
    assert np.abs(col1 - col0).max() <= 1e-14 * col0.max()


def test_transport_heun_positive_and_conservative_at_half_courant(rng):
    """At Courant number exactly 1/2 in the fastest columns the Heun pair
    of the flux form keeps every cell nonnegative and the mass, on a rough
    field whose tails fall to 1e-170: there the products of two differences
    underflow, and the median form still limits the slope.  (At Courant
    number 1 this field turns negative.)"""
    grid = PhaseGrid(50.0, 50.0, 64, 64)
    r = np.abs(grid.x_centers[:, None]) + np.abs(grid.v_centers[None, :])
    values = 10.0 ** (-170.0 * (r - r.min()) / (r.max() - r.min()))
    values *= 1.0 + 0.9 * rng.random(values.shape)
    assert values.min() < 1e-169
    courant = 0.5 * grid.v_centers / np.abs(grid.v_centers).max()
    assert np.abs(courant).max() == 0.5
    stepper = Stepper(grid, DESK_PARAMS)
    stepper._coefficients(grid.dx / grid.v_max)  # the first dt allocates the state
    np.copyto(kernels.interior(stepper._state), values)
    vals = kernels.interior(stepper._state)
    mass0 = values.sum()
    for _ in range(50):
        stepper._transport_heun(courant)
        assert vals.min() >= 0.0
    assert abs(vals.sum() - mass0) <= 1e-14 * mass0
