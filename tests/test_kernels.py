"""The workspace kernels match the plain vectorised formulas bit for bit."""

import numpy as np
import pytest

from kinfp import ModelParams, build_grid
from kinfp import kernels
from kinfp.solver import velocity_face_coefficients


def reference_transport_rhs(values, v_centers, dx):
    Nx, Nv = values.shape
    ext = np.empty((Nx + 4, Nv))
    ext[2 : Nx + 2] = values
    ext[0] = values[1, ::-1]
    ext[1] = values[0, ::-1]
    ext[Nx + 2] = values[Nx - 1, ::-1]
    ext[Nx + 3] = values[Nx - 2, ::-1]
    d = ext[1:] - ext[:-1]
    a, b = d[:-1], d[1:]
    slope = np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) < np.abs(b), a, b)) / dx
    left = ext[1 : Nx + 2] + 0.5 * dx * slope[: Nx + 1]
    right = ext[2 : Nx + 3] - 0.5 * dx * slope[1 : Nx + 2]
    flux = np.where(v_centers >= 0.0, v_centers * left, v_centers * right)
    out = np.empty_like(values)
    np.subtract(flux[:-1], flux[1:], out=out)
    out /= dx
    return out


def reference_velocity_rhs(values, cp, cm, dv):
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
    cp, cm = velocity_face_coefficients(grid, ModelParams(alpha=1.5, kind="exp", beta=0.5))
    fp, fm = kernels.flat_faces(cp), kernels.flat_faces(cm)
    work = kernels.Workspace((nx, nv))
    out = np.empty((nx, nv))
    # the same workspace twice on different inputs: stale buffer state would show
    for _ in range(2):
        values = rng.standard_normal((nx, nv))
        ref = reference_transport_rhs(values, grid.v_centers, grid.dx)
        got = kernels.transport_rhs_kernel(values, grid.v_centers, grid.dx, out, work)
        assert got is out
        assert np.array_equal(bits(got), bits(ref))
        ref = reference_velocity_rhs(values, cp, cm, grid.dv)
        got = kernels.velocity_rhs_kernel(values, fp, fm, grid.dv, out, work)
        assert got is out
        assert np.array_equal(bits(got), bits(ref))
