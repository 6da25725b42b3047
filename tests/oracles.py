"""Reference forms and finite-difference oracles of L*, for the tests alone.

``apply_Lstar_fd`` is a centered second-order discretisation of L* F for a
callable F, and ``apply_Lstar_fd_richardson`` its extrapolation to fourth
order; they check the closed forms of :mod:`kinfp.model` (criterion 4 and
``test_verify.py``).  ``lstar_term_scale`` is the magnitude against which
their relative errors are measured.  The ``*_reference`` functions are the
closed forms written out term by term, each power of E and H taken
directly: the model computes the same quantities as sums of rank-one
products of axis factors, from one power of E and one of H
(``test_model.py`` holds the two to each other).  ``to_state`` loads a
field into the kernels' padded state, for the kernel tests of
``test_kernels.py`` and ``test_solver.py``.
"""

import numpy as np

from kinfp import kernels
from kinfp.model import (
    ExpWeight,
    LyapunovSpec,
    ModelParams,
    apply_Lstar_exact,
    energy,
    equilibrium_drift,
    grad_potential,
    grad_v_H,
    jbracket,
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
    p1, p2 = weight_derivatives(lyapunov_H(x, v, params, spec), spec)
    g = grad_v_H(x, v, params, spec)
    return np.abs(p1) * (ep + ct) + np.abs(p2) * (g * g)


def weight_derivatives(h, spec: LyapunovSpec):
    """(Phi'(H), Phi''(H)) for the weight m = Phi(H) of the spec's mode,
    each power of H taken directly."""
    if isinstance(spec.mode, ExpWeight):
        th, de = spec.mode.theta, spec.mode.delta
        c = de * th / 2.0
        m = np.exp(de * h ** (th / 2.0))
        p1 = c * h ** (th / 2.0 - 1.0) * m
        p2 = c * h ** (th / 2.0 - 2.0) * m * ((th / 2.0 - 1.0) + c * h ** (th / 2.0))
    else:
        r = spec.mode.k / spec.ell
        p1 = r * h ** (r - 1.0)
        p2 = r * (r - 1.0) * h ** (r - 2.0)
    return p1, p2


def lyapunov_H_reference(x, v, params: ModelParams, spec: LyapunovSpec):
    """H = E^ell + eps <x>^A <v>^(-B) x v."""
    x, v = np.asarray(x, dtype=np.float64), np.asarray(v, dtype=np.float64)
    cross = jbracket(x) ** spec.a_exp * jbracket(v) ** (-spec.b_exp) * x * v
    return energy(x, v, params) ** spec.ell + spec.eps * cross


def grad_v_H_reference(x, v, params: ModelParams, spec: LyapunovSpec):
    """d_v H = ell E^(ell-1) v + eps (<x>^A <v>^(-B) x - B <x>^A x v <v>^(-B-2) v)."""
    x, v = np.asarray(x, dtype=np.float64), np.asarray(v, dtype=np.float64)
    A, B = spec.a_exp, spec.b_exp
    jx, jv = jbracket(x), jbracket(v)
    cross = jx**A * (jv ** (-B) * x - B * x * v * jv ** (-B - 2.0) * v)
    return spec.ell * energy(x, v, params) ** (spec.ell - 1.0) * v + spec.eps * cross


def lstar_energy_power_reference(x, v, params: ModelParams, spec: LyapunovSpec):
    """L*(E^ell) = ell E^(ell-1) [(ell-1) v^2/E + 1 + v M'/M]."""
    v = np.asarray(v, dtype=np.float64)
    e, ell = energy(x, v, params), spec.ell
    return ell * e ** (ell - 1.0) * (
        (ell - 1.0) * v * v / e + 1.0 + v * equilibrium_drift(v, params)
    )


def lstar_cross_term_reference(x, v, params: ModelParams, spec: LyapunovSpec):
    """L* of <x>^A <v>^(-B) x v, gathered into one expanded bracket."""
    x, v = np.asarray(x, dtype=np.float64), np.asarray(v, dtype=np.float64)
    A, B = spec.a_exp, spec.b_exp
    jx, jv = jbracket(x), jbracket(v)
    xv, vsq, dr = x * v, v * v, equilibrium_drift(v, params)
    bracket = (
        vsq
        + A * xv * xv / (jx * jx)
        - jx ** (params.alpha - 2.0) * (x * x - B * xv * xv / (jv * jv))
        - B * xv * (3.0 / (jv * jv) - (B + 2.0) * vsq / jv**4)
        + (x * dr - B * xv * v * dr / (jv * jv))
    )
    return jx**A / jv**B * bracket


def lstar_weight_reference(x, v, params: ModelParams, spec: LyapunovSpec):
    """L*(Phi(H)) = Phi'(H) L*(H) + Phi''(H) (d_v H)^2 from the references."""
    lh = lstar_energy_power_reference(x, v, params, spec) + spec.eps * (
        lstar_cross_term_reference(x, v, params, spec)
    )
    p1, p2 = weight_derivatives(lyapunov_H_reference(x, v, params, spec), spec)
    g = grad_v_H_reference(x, v, params, spec)
    return p1 * lh + p2 * (g * g)


def to_state(values):
    state = kernels.state_array(values.shape)
    np.copyto(kernels.interior(state), values)
    return state
