"""Hot stencil kernels: contiguous numpy passes over a transposed, padded state.

A symmetric time step evaluates the transport kernel four times and the
velocity kernel once (a step inside a fused segment evaluates transport
twice), and a run takes hundreds of thousands of steps.  A pass over a
whole contiguous array runs at close to memory speed, while a pass over a
strided half of the columns costs about twice as much at 96^2, so both
kernels make every pass one contiguous operation on a state laid out for
them.

State layout: a field of (Nx, Nv) cells is held as a C-contiguous array of
shape (Nv, Nx + 4), one row per velocity (``state_array``).  The cells sit
in columns 2..Nx+1 (``interior`` is their natural-layout view), and the
columns 0, 1, Nx+2 and Nx+3 are the specular ghost cells x_{-2}, x_{-1},
x_{Nx}, x_{Nx+1}: the mirrored cells with the velocity index flipped, so
row m's ghosts are the boundary cells of row Nv-1-m in reverse column
order.  A ``PhaseGrid``'s velocities are antisymmetric with an even Nv, so
the first Nv/2 rows (v < 0) are one contiguous block of the raveled array
and the rest (v > 0) the next: the transport kernels split there.

Transport kernel: the upwind face fluxes of the row-wise linear advection
with speed v_m, already scaled by the Courant number c_m = v_m dt / dx of
each row, so one forward-Euler stage is f + dF with dF the flux of a
cell's left face minus that of its right face (``transport_increment``).
The kernel first refreshes the ghost columns with two small copies, then
works on the raveled state: one flat difference, the minmod limiter
minmod(a, b) = median(0, a, b) = min(max(min(a, b), 0), max(a, b)) in
four passes, and the slope halving.  Each face flux is stored in the
column of its upwind cell: x_j + s_j/2 in cell j's column for v >= 0 (the
face to its right) and x_j - s_j/2 for v < 0 (the face to its left), one
contiguous pass per row block, then the Courant multiply.  The differences
that span two rows reach only ghost-column slopes.  The specular ghosts make
the paired wall fluxes cancel exactly.

Velocity kernel: one whole Heun step of the Chang-Cooper drift-diffusion
operator.  The operator L is linear, so f + dt L f + (dt^2/2) L^2 f is a
conservative update f + H[k] - H[k-1] with the four-point face flux
H_k = w-_k f_{k-1} + w0_k f_k + w1_k f_{k+1} + w2_k f_{k+2}, whose weights
``velocity_heun_weights`` folds from the face coefficients and dt.  In the
transposed state the faces between velocity cells are the gaps between
rows, so every pass is one contiguous block of rows; the zero fluxes of
the v-walls are the first and last flux rows, and each column's mass
telescopes exactly.  Nine passes per call, and the step is taken in place.

Both kernels perform the same floating-point operations, in the same order,
as the plain vectorised formulas kept as the reference in the kernel tests,
so their results are bit-identical to them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "state_array",
    "scratch_array",
    "interior",
    "velocity_heun_weights",
    "transport_rhs_kernel",
    "transport_increment",
    "velocity_rhs_kernel",
]


def state_array(shape: tuple[int, int]) -> np.ndarray:
    """A zeroed kernel state (or flux array) for a field of shape (Nx, Nv)."""
    nx, nv = shape
    return np.zeros((nv, nx + 4))


def scratch_array(shape: tuple[int, int]) -> np.ndarray:
    """The scratch array both kernels take, for a field of shape (Nx, Nv):
    two rows of Nv + 1 state rows each."""
    nx, nv = shape
    return np.zeros((2, (nv + 1) * (nx + 4)))


def interior(state: np.ndarray) -> np.ndarray:
    """The natural-layout (Nx, Nv) view of a state's cells."""
    return state[:, 2:-2].T


def velocity_heun_weights(cp, cm, dt, dv):
    """The four face weights (w-, w0, w1, w2) of one velocity Heun step.

    ``cp`` and ``cm`` are the per-column (Nx, Nv - 1) face coefficients of
    ``solver.velocity_face_coefficients``: face k carries the flux
    G_k = cp_k f_{k+1} + cm_k f_k, and L f = (G_k - G_{k-1}) / dv.  With
    a = dt/dv and b = a^2/2 the Heun flux is
    H = a G + b (cp (G_{k+1} - G_k) + cm (G_k - G_{k-1})), which expands to
    w-_k = -b cm_k cm_{k-1}, w0_k = cm_k (a + b (cm_k - cp_k - cp_{k-1})),
    w1_k = cp_k (a + b (cm_k - cp_k + cm_{k+1})), w2_k = b cp_k cp_{k+1},
    where a coefficient of a face beyond the column's last face is zero.
    The result has shape (4, (Nv - 1)(Nx + 4)): each weight is laid out
    like the first Nv - 1 rows of the raveled state, its row k for face k
    between state rows k and k + 1, with zero weights in the ghost
    columns.  Each weight is built in place.
    """
    nx, nf = cp.shape
    cp, cm = cp.T, cm.T
    a = dt / dv
    b = 0.5 * a * a
    weights = np.zeros((4, nf, nx + 4))
    wm, w0, w1, w2 = weights[:, :, 2:-2]
    np.multiply(cm[1:], cm[:-1], out=wm[1:])
    wm *= -b
    np.subtract(cm, cp, out=w0)
    w0[1:] -= cp[:-1]
    np.subtract(cm, cp, out=w1)
    w1[:-1] += cm[1:]
    for w, c in ((w0, cm), (w1, cp)):
        w *= b
        w += a
        w *= c
    np.multiply(cp[:-1], cp[1:], out=w2[:-1])
    w2 *= b
    return weights.reshape(4, -1)


def transport_rhs_kernel(state, courant, out, scratch):
    """Upwind face fluxes of d f/dt = -v df/dx over one step, into ``out``.

    ``state`` is a kernel state whose ghost columns the kernel refreshes;
    ``courant`` holds c_m = v_m dt / dx per row, negative on exactly the
    first Nv/2 rows, as on every ``PhaseGrid``.  ``out`` has the state's
    shape and receives each face flux in the column of the face's upwind
    cell: cell j's left face in the first Nv/2 rows and its right face in
    the rest; its first and last flat entries are left as they are.
    ``scratch`` is the field's ``scratch_array``, overwritten.
    """
    nv, w = state.shape
    # row m's ghosts are row Nv-1-m's boundary cells in reverse order
    np.copyto(state[:, :2], state[::-1, 3:1:-1])
    np.copyto(state[:, -2:], state[::-1, -3:-5:-1])
    p, f = state.reshape(-1), out.reshape(-1)
    n = p.size
    d, top = scratch[0, : n - 1], scratch[1, : n - 2]
    # the differences that span two rows reach only ghost-column slopes
    np.subtract(p[1:], p[:-1], out=d)
    # minmod(a, b) = median(0, a, b); cell j's slope lands in f[j]
    a, b = d[:-1], d[1:]
    s = f[1:-1]
    np.maximum(a, b, out=top)
    np.minimum(a, b, out=s)
    np.maximum(s, 0.0, out=s)
    np.minimum(s, top, out=s)
    np.multiply(s, 0.5, out=s)
    # upwind state: x_j - s_j/2 (c < 0), x_j + s_j/2 (c > 0)
    k = nv // 2 * w
    np.subtract(p[1:k], f[1:k], out=f[1:k])
    np.add(p[k:-1], f[k:-1], out=f[k:-1])
    np.multiply(out, courant[:, None], out=out)
    return out


def transport_increment(faces, out):
    """out = F(left face) - F(right face) per cell, from the face fluxes of
    ``transport_rhs_kernel`` (c < 0 on the first Nv/2 rows).

    Every interior cell of ``out`` is written; of the ghost columns, the
    last entry of row Nv/2 - 1 and the first of row Nv/2 are left as they are.
    """
    nv, w = faces.shape
    f, o = faces.reshape(-1), out.reshape(-1)
    k = nv // 2 * w
    np.subtract(f[: k - 1], f[1:k], out=o[: k - 1])
    np.subtract(f[k:-1], f[k + 1 :], out=o[k + 1 :])
    return out


def velocity_rhs_kernel(state, weights, scratch):
    """One Heun step of the velocity operator, in place: state += H[k] - H[k-1].

    ``weights`` are those of ``velocity_heun_weights`` for the step's dt;
    ``state`` is returned.  The face fluxes H go to the first row of
    ``scratch`` between its two zero wall rows, the faces below the first
    and above the last velocity cell; the weighted neighbours, then the
    flux differences, go to its second row.  ``scratch`` is the field's
    ``scratch_array``, overwritten.
    """
    nv, w = state.shape
    wm, w0, w1, w2 = weights
    f = state.reshape(-1)
    m, m2 = (nv - 1) * w, (nv - 2) * w
    h = scratch[0, : (nv + 1) * w]
    inner, t = h[w:-w], scratch[1]
    h[:w] = h[-w:] = 0.0
    np.multiply(w0, f[:m], out=inner)
    np.multiply(w1, f[w:], out=t[:m])
    np.add(inner, t[:m], out=inner)
    np.multiply(w2[:m2], f[2 * w :], out=t[:m2])
    np.add(inner[:m2], t[:m2], out=inner[:m2])
    np.multiply(wm[w:], f[:m2], out=t[:m2])
    np.add(inner[w:], t[:m2], out=inner[w:])
    dh = t[: nv * w]
    np.subtract(h[w:], h[:-w], out=dh)
    return np.add(state, dh.reshape(state.shape), out=state)
