"""Finite-difference oracles of the dual operator L*, for the tests alone.

``apply_Lstar_fd`` is a centered second-order discretisation of L* F for a
callable F, and ``apply_Lstar_fd_richardson`` its extrapolation to fourth
order; they check the closed forms of :mod:`kinfp.model` (criterion 4 and
``test_verify.py``).  ``lstar_term_scale`` is the magnitude against which
their relative errors are measured.  ``to_state`` loads a field into the
kernels' padded state, for the kernel tests of ``test_kernels.py`` and
``test_solver.py``.
"""

import numpy as np

from kinfp import kernels
from kinfp.model import (
    LyapunovSpec,
    ModelParams,
    _weight_derivatives,
    apply_Lstar_exact,
    equilibrium_drift,
    grad_potential,
    grad_v_H,
    lyapunov_H,
)


def apply_Lstar_fd(F, x, v, params: ModelParams, h: float):
    """Centered second-order finite-difference approximation of L* F at (x, v).

    F is a callable F(x, v) -> float, evaluated at float x and v; x and v
    may be given as floats or one-element arrays.  The same base step is
    used in both coordinates, scaled automatically to the point: the
    energy-type functions differenced here vary on the scale of the point
    itself, so the effective step is h * (10 + x^2 + v^2), which keeps
    truncation and roundoff balanced near the empirical 1e-6 accuracy
    target (a fixed step is roundoff-dominated once the differenced values
    grow like E^ell).
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    # V' and M'/M at one-element arrays: numpy's scalar pow rounds
    # differently from its array loop, which the closed forms use elsewhere
    xa = np.asarray(x, dtype=np.float64).reshape(1)
    va = np.asarray(v, dtype=np.float64).reshape(1)
    gv = grad_potential(xa, params).item()
    dr = equilibrium_drift(va, params).item()
    x, v = xa.item(), va.item()
    heff = h * (10.0 + x * x + v * v)
    f0 = float(F(x, v))
    if not np.isfinite(f0):
        raise ArithmeticError("non-finite value of F at the base point")
    fvp, fvm = float(F(x, v + heff)), float(F(x, v - heff))
    dFx = (float(F(x + heff, v)) - float(F(x - heff, v))) / (2.0 * heff)
    dFv = (fvp - fvm) / (2.0 * heff)
    d2Fv = (fvp - 2.0 * f0 + fvm) / (heff * heff)
    out = v * dFx - gv * dFv + d2Fv + dr * dFv
    if not np.isfinite(out):
        raise ArithmeticError("non-finite finite-difference evaluation")
    return out


def apply_Lstar_fd_richardson(F, x, v, params: ModelParams, h: float):
    """Richardson-extrapolated oracle: (4 fd(h/2) - fd(h)) / 3, O(h^4)."""
    return (
        4.0 * apply_Lstar_fd(F, x, v, params, h / 2.0)
        - apply_Lstar_fd(F, x, v, params, h)
    ) / 3.0


def lstar_term_scale(x, v, params: ModelParams, spec: LyapunovSpec, target: str):
    """Magnitude scale of the dual-operator terms composing the target.

    Sum of the absolute values of the contributions that are added (with
    cancellation) to form L* applied to the target.  Relative errors of
    numerical evaluations are meaningful against this scale: near zero
    crossings of the result itself, |fd - exact| / |exact| is unbounded for
    any finite-difference method while the term scale stays O(1).
    """
    ep = np.abs(apply_Lstar_exact(x, v, params, spec, "energy_power"))
    ct = spec.eps * np.abs(apply_Lstar_exact(x, v, params, spec, "cross_term"))
    if target in ("energy_power", "cross_term", "full_h"):
        return ep + ct
    if target != "weight_m":
        raise ValueError(f"unknown target {target!r}")
    h = lyapunov_H(x, v, params, spec)
    _, p1, p2 = _weight_derivatives(h, spec)
    g = grad_v_H(x, v, params, spec)
    return np.abs(p1) * (ep + ct) + np.abs(p2) * (g * g)


def to_state(values):
    state = kernels.state_array(values.shape)
    np.copyto(kernels.interior(state), values)
    return state
