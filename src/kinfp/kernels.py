"""Hot stencil kernels: vectorised numpy writing through a preallocated workspace.

A symmetric time step evaluates the transport kernel four times and the
velocity kernel twice (a step inside a fused segment evaluates transport
twice), and a run takes hundreds of thousands of steps.  Both kernels
write their result into ``out`` and keep every intermediate in a
``Workspace`` allocated once per grid shape, so a warmed-up call allocates
no array.  Without a workspace argument a call builds a throwaway one.

Transport kernel: second-order flux for the row-wise linear advection with
speed v_m, minmod-limited reconstruction, upwinded by the sign of the
(constant per column) speed.  The velocity columns are split by that sign:
v < 0 exactly in the first ``searchsorted(v_centers, 0)`` columns of the
ascending velocity grid, so each face builds only its upwind state, the
right state x_{j+1} - dx/2 s_{j+1} for v < 0 and the left state
x_j + dx/2 s_j for v >= 0.  The cell differences are stored one row
further up in the v < 0 columns, so that the limiter, the slope and the
flux of one face share a row in every column and run as whole-array
operations; only the differences and the upwind states are built per half.
Boundary closure is either specular (ghost cells mirror the interior with
the velocity index flipped, which makes the paired wall fluxes cancel
exactly) or periodic (test fixture).

Velocity kernel: drift-diffusion flux differences per column with
precomputed face coefficients; zero flux through the outermost faces.

Both kernels perform the same floating-point operations, in the same order,
as the plain vectorised formulas kept as the reference in the kernel tests,
so their results are bit-identical to them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BC_SPECULAR",
    "BC_PERIODIC",
    "Workspace",
    "transport_rhs_kernel",
    "velocity_rhs_kernel",
]

BC_SPECULAR = 0
BC_PERIODIC = 1


class Workspace:
    """Scratch arrays for the kernels on one (Nx, Nv) grid.

    Three float arrays of about one field each plus two boolean masks.  The
    velocity kernel reuses the transport arrays, so a workspace must not be
    shared by two kernel calls running at the same time.
    """

    def __init__(self, shape: tuple[int, int]):
        nx, nv = shape
        self.diff = np.empty((nx + 2, nv))  # limiter differences, shifted per sign
        self.absdiff = np.empty((nx + 2, nv))
        self.face = np.empty((nx + 1, nv))  # slope, then upwind state, then flux
        self.nonpos = np.empty((nx + 1, nv), dtype=bool)
        self.smaller = np.empty((nx + 1, nv), dtype=bool)
        n = nx * (nv - 1)
        self.vflux = self.diff.reshape(-1)[:n].reshape(nx, nv - 1)
        self.vterm = self.absdiff.reshape(-1)[:n].reshape(nx, nv - 1)


def _ghost_rows(values, bc_code):
    """Views of the ghost cells x_{-2}, x_{-1}, x_{Nx}, x_{Nx+1}."""
    nx = values.shape[0]
    if bc_code == BC_PERIODIC:
        return values[nx - 2], values[nx - 1], values[0], values[1]
    return values[1, ::-1], values[0, ::-1], values[nx - 1, ::-1], values[nx - 2, ::-1]


def transport_rhs_kernel(values, v_centers, dx, bc_code, out=None, work=None):
    """Advection increment d f/dt = -v df/dx, conservative flux-difference form.

    ``v_centers`` must be ascending.  Row f of the face arrays is the face
    between cells f-1 and f (f = 0..Nx).  Its upwind cell u is f-1 where
    v >= 0 and f where v < 0, and row f of ``work.diff`` holds x_u - x_{u-1},
    so the limiter of every face reads rows f and f+1.
    """
    nx, nv = values.shape
    if out is None:
        out = np.empty_like(values)
    if work is None:
        work = Workspace(values.shape)
    neg = slice(0, int(np.searchsorted(v_centers, 0.0)))
    pos = slice(neg.stop, nv)
    g0, g1, g2, g3 = _ghost_rows(values, bc_code)
    d, ad, s = work.diff, work.absdiff, work.face
    np.subtract(values[1:, pos], values[:-1, pos], out=d[2 : nx + 1, pos])
    np.subtract(values[1:, neg], values[:-1, neg], out=d[1:nx, neg])
    np.subtract(g1[pos], g0[pos], out=d[0, pos])
    np.subtract(values[0, pos], g1[pos], out=d[1, pos])
    np.subtract(g2[pos], values[nx - 1, pos], out=d[nx + 1, pos])
    np.subtract(values[0, neg], g1[neg], out=d[0, neg])
    np.subtract(g2[neg], values[nx - 1, neg], out=d[nx, neg])
    np.subtract(g3[neg], g2[neg], out=d[nx + 1, neg])
    # minmod(a, b) / dx with a = d[:-1], b = d[1:]
    a, b = d[:-1], d[1:]
    np.multiply(a, b, out=s)
    np.less_equal(s, 0.0, out=work.nonpos)
    np.abs(d, out=ad)
    np.less(ad[:-1], ad[1:], out=work.smaller)
    np.copyto(s, b)
    np.copyto(s, a, where=work.smaller)
    np.copyto(s, 0.0, where=work.nonpos)
    np.divide(s, dx, out=s)
    # upwind state: x_j + dx/2 s_j (v >= 0), x_{j+1} - dx/2 s_{j+1} (v < 0)
    np.multiply(0.5 * dx, s, out=s)
    np.add(g1[pos], s[0, pos], out=s[0, pos])
    np.add(values[:, pos], s[1:, pos], out=s[1:, pos])
    np.subtract(values[:, neg], s[:nx, neg], out=s[:nx, neg])
    np.subtract(g2[neg], s[nx, neg], out=s[nx, neg])
    np.multiply(v_centers, s, out=s)
    np.subtract(s[:-1], s[1:], out=out)
    np.divide(out, dx, out=out)
    return out


def velocity_rhs_kernel(values, cp, cm, dv, out=None, work=None):
    """Drift-diffusion increment per column from precomputed face coefficients."""
    if out is None:
        out = np.empty_like(values)
    if work is None:
        work = Workspace(values.shape)
    flux, term = work.vflux, work.vterm
    np.multiply(cp, values[:, 1:], out=flux)
    np.multiply(cm, values[:, :-1], out=term)
    np.add(flux, term, out=flux)
    np.divide(flux[:, 0], dv, out=out[:, 0])
    np.subtract(flux[:, 1:], flux[:, :-1], out=out[:, 1:-1])
    np.divide(out[:, 1:-1], dv, out=out[:, 1:-1])
    np.divide(flux[:, -1], -dv, out=out[:, -1])
    return out
