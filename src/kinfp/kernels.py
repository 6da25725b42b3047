"""Hot stencil kernels: vectorised numpy writing through a preallocated workspace.

A symmetric time step evaluates the transport kernel four times and the
velocity kernel once (a step inside a fused segment evaluates transport
twice), and a run takes hundreds of thousands of steps.  Both kernels
write their result into ``out`` and keep every intermediate in a
``Workspace`` allocated once per grid shape, so a call allocates no array.
A step's cost is about its number of whole-array passes: at 400^2 every
pass goes to L3, at 96^2 each is mostly ufunc call overhead.

Transport kernel: the upwind face fluxes of the row-wise linear advection
with speed v_m, already scaled by the Courant number c_m = v_m dt / dx of
each column, so one forward-Euler stage is f + F[:-1] - F[1:].  The
reconstruction is minmod-limited, minmod(a, b) = median(0, a, b) =
min(max(min(a, b), 0), max(a, b)), four passes over the undivided cell
differences.  The velocity columns are split by the sign of c: c < 0
exactly in the first ``searchsorted(courant, 0)`` columns of the ascending
velocity grid, so each face builds only its upwind state, the right state
x_{j+1} - s_{j+1}/2 for c < 0 and the left state x_j + s_j/2 for c >= 0.
The cell differences are stored one row further up in the c < 0 columns,
so that the limiter, the slope and the flux of one face share a row in
every column and run as whole-array operations; only the differences and
the upwind states are built per half.  The x-walls are specular: the
ghost cells mirror the interior with the velocity index flipped, which
makes the paired wall fluxes cancel exactly.  Eight passes per call.

Velocity kernel: one whole Heun step of the Chang-Cooper drift-diffusion
operator.  The operator L is linear, so f + dt L f + (dt^2/2) L^2 f is a
conservative update f + H[k] - H[k-1] with the four-point face flux
H_k = w-_k f_{k-1} + w0_k f_k + w1_k f_{k+1} + w2_k f_{k+2}, whose weights
``velocity_heun_weights`` folds from the face coefficients and dt.  It runs
as one contiguous pass over the Nx*Nv - 1 faces between consecutive cells
of the raveled field: the faces that join the last cell of one column to
the first cell of the next carry zero weights, as do the weights that
would reach across them, so each column's mass telescopes exactly.  Nine
passes per call, where two evaluations of L and the Heun arithmetic took
fifteen.

Both kernels perform the same floating-point operations, in the same order,
as the plain vectorised formulas kept as the reference in the kernel tests,
so their results are bit-identical to them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Workspace",
    "velocity_heun_weights",
    "transport_rhs_kernel",
    "velocity_rhs_kernel",
]


class Workspace:
    """Scratch arrays for the kernels on one (Nx, Nv) grid.

    Two float arrays of about one field each.  The velocity kernel keeps
    its face fluxes in ``vflux``, a flat view of the transport's ``diff``
    bordered by the two zero wall fluxes, and its products in ``vterm``, a
    flat view of ``face``, so a workspace must not be shared by two kernel
    calls running at the same time.
    """

    def __init__(self, shape: tuple[int, int]):
        nx, nv = shape
        self.diff = np.empty((nx + 2, nv))  # limiter differences, shifted per sign
        self.face = np.empty((nx + 1, nv))  # max(a, b) of the limiter
        self.vflux = self.diff.reshape(-1)[: nx * nv + 1]
        self.vterm = self.face.reshape(-1)[: nx * nv]


def velocity_heun_weights(cp, cm, dt, dv):
    """The four flat face weights (w-, w0, w1, w2) of one velocity Heun step.

    ``cp`` and ``cm`` are the per-column (Nx, Nv - 1) face coefficients of
    ``solver.velocity_face_coefficients``: face k carries the flux
    G_k = cp_k f_{k+1} + cm_k f_k, and L f = (G_k - G_{k-1}) / dv.  With
    a = dt/dv and b = a^2/2 the Heun flux is
    H = a G + b (cp (G_{k+1} - G_k) + cm (G_k - G_{k-1})), which expands to
    w-_k = -b cm_k cm_{k-1}, w0_k = cm_k (a + b (cm_k - cp_k - cp_{k-1})),
    w1_k = cp_k (a + b (cm_k - cp_k + cm_{k+1})), w2_k = b cp_k cp_{k+1},
    where a coefficient of a face beyond the column's last face is zero.
    Entry k of each weight belongs to the face between flat cells k and
    k + 1 (Nx*Nv - 1 faces), and the faces between columns get zero weights.
    Each weight is built in place in its own array.
    """
    nx, nf = cp.shape
    a = dt / dv
    b = 0.5 * a * a
    weights = np.zeros((4, nx, nf + 1))
    wm, w0, w1, w2 = weights[:, :, :nf]
    np.multiply(cm[:, 1:], cm[:, :-1], out=wm[:, 1:])
    wm *= -b
    np.subtract(cm, cp, out=w0)
    w0[:, 1:] -= cp[:, :-1]
    np.subtract(cm, cp, out=w1)
    w1[:, :-1] += cm[:, 1:]
    for w, c in ((w0, cm), (w1, cp)):
        w *= b
        w += a
        w *= c
    np.multiply(cp[:, :-1], cp[:, 1:], out=w2[:, :-1])
    w2 *= b
    return tuple(weights.reshape(4, -1)[:, :-1])


def transport_rhs_kernel(values, courant, out, work):
    """Upwind face fluxes of d f/dt = -v df/dx over one step, into ``out``.

    ``courant`` holds c_m = v_m dt / dx per column and must be ascending;
    ``out`` has Nx + 1 rows, and one forward-Euler stage of length dt is
    values + out[:-1] - out[1:].  Row f of the face arrays is the face
    between cells f-1 and f (f = 0..Nx).  Its upwind cell u is f-1 where
    c >= 0 and f where c < 0, and row f of ``work.diff`` holds
    x_u - x_{u-1}, so the limiter of every face reads rows f and f+1.  The
    specular ghost cells x_{-2}, x_{-1}, x_{Nx}, x_{Nx+1} are views of the
    mirrored rows.
    """
    nx, nv = values.shape
    neg = slice(0, int(np.searchsorted(courant, 0.0)))
    pos = slice(neg.stop, nv)
    g0, g1 = values[1, ::-1], values[0, ::-1]
    g2, g3 = values[nx - 1, ::-1], values[nx - 2, ::-1]
    d, s = work.diff, out
    np.subtract(values[1:, pos], values[:-1, pos], out=d[2 : nx + 1, pos])
    np.subtract(values[1:, neg], values[:-1, neg], out=d[1:nx, neg])
    np.subtract(g1[pos], g0[pos], out=d[0, pos])
    np.subtract(values[0, pos], g1[pos], out=d[1, pos])
    np.subtract(g2[pos], values[nx - 1, pos], out=d[nx + 1, pos])
    np.subtract(values[0, neg], g1[neg], out=d[0, neg])
    np.subtract(g2[neg], values[nx - 1, neg], out=d[nx, neg])
    np.subtract(g3[neg], g2[neg], out=d[nx + 1, neg])
    # minmod(a, b) = median(0, a, b) with a = d[:-1], b = d[1:]
    a, b = d[:-1], d[1:]
    np.maximum(a, b, out=work.face)
    np.minimum(a, b, out=s)
    np.maximum(s, 0.0, out=s)
    np.minimum(s, work.face, out=s)
    # upwind state: x_j + s_j/2 (c >= 0), x_{j+1} - s_{j+1}/2 (c < 0)
    np.multiply(s, 0.5, out=s)
    np.add(g1[pos], s[0, pos], out=s[0, pos])
    np.add(values[:, pos], s[1:, pos], out=s[1:, pos])
    np.subtract(values[:, neg], s[:nx, neg], out=s[:nx, neg])
    np.subtract(g2[neg], s[nx, neg], out=s[nx, neg])
    np.multiply(courant, s, out=s)
    return out


def velocity_rhs_kernel(values, weights, out, work):
    """One Heun step of the velocity operator: out = values + H[k] - H[k-1].

    ``weights`` are the four flat arrays of ``velocity_heun_weights`` for
    the step's dt; ``values`` is C-contiguous, and ``out`` may be
    ``values``.  The face fluxes H go to ``work.vflux`` between its two
    zero wall entries, the faces before the first and after the last cell;
    the weighted neighbours, then the flux differences, go to ``work.vterm``.
    """
    wm, w0, w1, w2 = weights
    f = values.reshape(-1)
    h = work.vflux
    inner, t = h[1:-1], work.vterm[:-1]
    h[0] = h[-1] = 0.0
    np.multiply(w0, f[:-1], out=inner)
    np.multiply(w1, f[1:], out=t)
    np.add(inner, t, out=inner)
    np.multiply(w2[:-1], f[2:], out=t[:-1])
    np.add(inner[:-1], t[:-1], out=inner[:-1])
    np.multiply(wm[1:], f[:-2], out=t[1:])
    np.add(inner[1:], t[1:], out=inner[1:])
    dh = work.vterm
    np.subtract(h[1:], h[:-1], out=dh)
    return np.add(values, dh.reshape(values.shape), out=out)
