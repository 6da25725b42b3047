"""The workspace kernels match the plain vectorised formulas bit for bit, and
the one-pass Heun steps they make match the two-stage Heun pairs they replace."""

import numpy as np
import pytest

from kinfp import ModelParams, build_grid
from kinfp import kernels
from kinfp.solver import Stepper, velocity_face_coefficients

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


def reference_velocity_heun(values, weights):
    wm, w0, w1, w2 = weights
    f = values.reshape(-1)
    padded = np.concatenate([[0.0], f, [0.0]])
    flux = w0 * f[:-1] + w1 * f[1:] + w2 * padded[3:] + wm * padded[:-3]
    flux = np.concatenate([[0.0], flux, [0.0]])
    return values + (flux[1:] - flux[:-1]).reshape(values.shape)


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
    grid = build_grid(L, v_max, nx, nv)
    dt = 0.3 * grid.dx / grid.v_max
    courant = grid.v_centers * (dt / grid.dx)
    weights = kernels.velocity_heun_weights(
        *velocity_face_coefficients(grid, DESK_PARAMS), dt, grid.dv
    )
    work = kernels.Workspace((nx, nv))
    faces = np.empty((nx + 1, nv))
    out = np.empty((nx, nv))
    # the same workspace twice on different inputs: stale buffer state would show
    for _ in range(2):
        values = rng.standard_normal((nx, nv))
        ref = reference_transport_flux(values, courant)
        got = kernels.transport_rhs_kernel(values, courant, faces, work)
        assert got is faces
        assert np.array_equal(bits(got), bits(ref))
        ref = reference_velocity_heun(values, weights)
        got = kernels.velocity_rhs_kernel(values, weights, out, work)
        assert got is out
        assert np.array_equal(bits(got), bits(ref))
    # in place, as the stepper calls it
    inplace = values.copy()
    kernels.velocity_rhs_kernel(inplace, weights, inplace, work)
    assert np.array_equal(bits(inplace), bits(ref))


@pytest.mark.parametrize("safety", [0.45, 1.0])
def test_velocity_heun_matches_two_stage_pair(rng, safety):
    """The one-pass step equals f + dt/2 (k1 + k2), k1 = L f, k2 = L (f + dt k1),
    of the per-column flux formula, and keeps each column's mass."""
    grid = build_grid(50.0, 50.0, 64, 96)
    cp, cm = velocity_face_coefficients(grid, DESK_PARAMS)
    dt = safety * min(grid.dv**2 / 2.0, grid.dx / grid.v_max)
    values = rng.random((grid.Nx, grid.Nv))
    k1 = reference_velocity_rhs(values, cp, cm, grid.dv)
    k2 = reference_velocity_rhs(values + dt * k1, cp, cm, grid.dv)
    pair = values + 0.5 * dt * (k1 + k2)
    weights = kernels.velocity_heun_weights(cp, cm, dt, grid.dv)
    got = kernels.velocity_rhs_kernel(
        values, weights, np.empty_like(values), kernels.Workspace(values.shape)
    )
    assert np.abs(got - pair).max() <= 1e-14 * np.abs(pair).max()
    col0, col1 = values.sum(axis=1), got.sum(axis=1)
    assert np.abs(col1 - col0).max() <= 1e-14 * col0.max()


def test_transport_heun_positive_and_conservative_at_half_courant(rng):
    """At Courant number exactly 1/2 in the fastest columns the Heun pair
    of the flux form keeps every cell nonnegative and the mass, on a rough
    field whose tails fall to 1e-170: there the products of two differences
    underflow, and the median form still limits the slope.  (At Courant
    number 1 this field turns negative.)"""
    grid = build_grid(50.0, 50.0, 64, 64)
    r = np.abs(grid.x_centers[:, None]) + np.abs(grid.v_centers[None, :])
    values = 10.0 ** (-170.0 * (r - r.min()) / (r.max() - r.min()))
    values *= 1.0 + 0.9 * rng.random(values.shape)
    assert values.min() < 1e-169
    courant = 0.5 * grid.v_centers / np.abs(grid.v_centers).max()
    assert np.abs(courant).max() == 0.5
    stepper = Stepper(grid, DESK_PARAMS)
    stepper._coefficients(grid.dx / grid.v_max)  # the first dt allocates the workspace
    mass0 = values.sum()
    vals = values.copy()
    for _ in range(50):
        vals = stepper._transport_heun(vals, courant, vals)
        assert vals.min() >= 0.0
    assert abs(vals.sum() - mass0) <= 1e-14 * mass0
