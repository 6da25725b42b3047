"""Closed-form building blocks of the confined kinetic Fokker-Planck model.

The model is the linear kinetic equation

    df/dt = -v d_x f + V'(x) d_v f + d_v(M d_v(f / M))

on phase space (x, v) in R x R, with confining potential
V(x) = <x>^alpha / alpha (where <z> = sqrt(1 + z^2)) and a local velocity
equilibrium M that is either sub-exponential, M ~ exp(-<v>^beta / beta), or
fat-tailed polynomial, M ~ <v>^(-1-gamma).

This module evaluates every closed-form quantity attached to that equation:
the potential and its gradient, the logarithmic drift M'/M of the
equilibrium (the only way M enters the operator, so M is never
normalised), the mechanical energy E = v^2/2 + V(x), the candidate
Lyapunov functions H = E^ell + eps <x>^A <v>^(-B) x v, the dual (adjoint)
operator applied analytically to E^ell, to the cross term, to H and to
weights built from H, the concave comparison function used in the drift
inequality and that inequality's left side L* m + phi(m), and the
closed-form tail asymptotic of the spatial density of exp(-delta E^(beta/2))
with its first Laplace correction.  Each closed form of E, H, d_v H and L*
is written once, over a private holder of the spec-free terms at the given
points (<x>, <v>, x v, E, the drift, ...), so an evaluation that needs
several of them computes those terms once.

Array convention: the model is one-dimensional, and every closed form is
elementwise in x and v, which broadcast against each other.  Pass scalars
for one point, two arrays of shape (N,) for N points, or an x column of
shape (rows, 1) against a v row of shape (n,) for the (rows, n) grid of
their pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = [
    "ModelParams",
    "ExpWeight",
    "PolyWeight",
    "LyapunovSpec",
    "jbracket",
    "potential",
    "grad_potential",
    "equilibrium_drift",
    "energy",
    "lyapunov_H",
    "grad_v_H",
    "lyapunov_weight",
    "apply_Lstar_exact",
    "drift_excess",
    "phi",
    "asymptotic_density",
    "asymptotic_prefactor",
    "asymptotic_correction",
]

#: admissible targets for :func:`apply_Lstar_exact`
LSTAR_TARGETS = ("energy_power", "cross_term", "full_h", "weight_m")


@dataclass(frozen=True)
class ModelParams:
    """Confinement and equilibrium parameters of the one-dimensional model.

    Parameters
    ----------
    alpha : float
        Potential exponent, must exceed 1.
    kind : str
        ``"exp"`` for the sub-exponential equilibrium, ``"poly"`` for the
        polynomial one.
    beta : float, optional
        Velocity-tail exponent for ``kind="exp"`` (beta > 0).
    gamma : float, optional
        Velocity-tail exponent for ``kind="poly"``, gamma > 0: the
        equilibrium <v>^(-1-gamma) then has finite mass.  The convergence
        theory (and the drift certifier) needs gamma > 1.
    """

    alpha: float
    kind: str
    beta: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        problems = []
        if self.kind not in ("exp", "poly"):
            problems.append(f"kind must be 'exp' or 'poly', got {self.kind!r}")
        if not self.alpha > 1.0:
            problems.append(f"alpha must exceed 1, got {self.alpha}")
        if self.kind == "exp" and (self.beta is None or not self.beta > 0.0):
            problems.append(f"exp equilibrium requires beta > 0, got {self.beta}")
        if self.kind == "poly" and (self.gamma is None or not self.gamma > 0.0):
            problems.append(f"poly equilibrium requires gamma > 0, got {self.gamma}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class ExpWeight:
    """Weight mode m = exp(delta * H^(theta/2)) with theta in (0, 1]."""

    theta: float
    delta: float

    def __post_init__(self):
        problems = []
        if not (0.0 < self.theta <= 1.0):
            problems.append(f"theta must lie in (0, 1], got {self.theta}")
        if not self.delta > 0.0:
            problems.append(f"delta must be positive, got {self.delta}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class PolyWeight:
    """Weight mode m = H^(k/ell) with k > 1."""

    k: float

    def __post_init__(self):
        if not self.k > 1.0:
            raise ValueError(f"k must exceed 1, got {self.k}")


@dataclass(frozen=True)
class LyapunovSpec:
    """Parameters of a candidate Lyapunov weight.

    H(x, v) = E^ell + eps * <x>^a_exp * <v>^(-b_exp) * (x . v), with the
    weight m built from H according to ``mode``.  ``eps = 0`` is the
    degenerate pure-energy weight.
    """

    ell: float
    eps: float
    a_exp: float
    b_exp: float
    mode: ExpWeight | PolyWeight

    def __post_init__(self):
        problems = []
        if not self.ell > 1.0:
            problems.append(f"ell must exceed 1, got {self.ell}")
        if not self.eps >= 0.0:
            problems.append(f"eps must be nonnegative, got {self.eps}")
        if not (0.0 < self.b_exp < 1.0):
            problems.append(f"b_exp must lie in (0, 1), got {self.b_exp}")
        if isinstance(self.mode, PolyWeight) and self.mode.k > self.ell:
            problems.append(
                f"poly weight needs k <= ell, got k={self.mode.k}, ell={self.ell}"
            )
        if problems:
            raise ValueError("; ".join(problems))

    def equivalence_ok(self, alpha: float) -> bool:
        """Whether H is comparable to E^ell for small eps.

        The sufficient condition is (A+1)_+ / alpha + (1-B)/2 <= ell with
        A = a_exp and B = b_exp.
        """
        return (
            max(self.a_exp + 1.0, 0.0) / alpha + (1.0 - self.b_exp) / 2.0
            <= self.ell + 1e-12
        )


def _check_spec(params: ModelParams, spec: LyapunovSpec) -> None:
    if spec.eps > 0.0 and not spec.equivalence_ok(params.alpha):
        raise ValueError(
            "Lyapunov spec violates the comparability condition "
            f"(A+1)_+/alpha + (1-B)/2 <= ell for alpha={params.alpha}: {spec}"
        )


def _powers(base):
    # base**y as a function of y, each exponent computed once
    return cache(lambda y: base**y)


def _bracket(sq):
    # <z> from z^2
    return np.sqrt(1.0 + sq)


def jbracket(z):
    """Japanese bracket <z> = sqrt(1 + z^2), a smooth surrogate for |z|."""
    z = np.asarray(z, dtype=np.float64)
    return _bracket(z * z)


def _potential(jx, params: ModelParams):
    # V from <x>
    return jx**params.alpha / params.alpha


def potential(x, params: ModelParams):
    """Confining potential V(x) = <x>^alpha / alpha (minimum 1/alpha)."""
    return _potential(jbracket(x), params)


def grad_potential(x, params: ModelParams):
    """V'(x) = <x>^(alpha-2) x."""
    x = np.asarray(x, dtype=np.float64)
    return jbracket(x) ** (params.alpha - 2.0) * x


def _drift(v, jv, params: ModelParams):
    # M'/M from v and <v>
    if params.kind == "exp":
        return -(jv ** (params.beta - 2.0)) * v
    return -(1.0 + params.gamma) * jv ** (-2.0) * v


def equilibrium_drift(v, params: ModelParams):
    """Logarithmic drift M'(v) / M(v) of the local equilibrium.

    Power-law in both cases: -<v>^(beta-2) v for the sub-exponential
    equilibrium and -(1+gamma) <v>^(-2) v for the polynomial one.
    """
    v = np.asarray(v, dtype=np.float64)
    return _drift(v, jbracket(v), params)


class _Points:
    """The spec-free terms at points (x, v), each computed once, on first use.

    The closed forms below read them from here, so one evaluation of several
    forms at the same points shares them: ``xsq`` = x^2, ``vsq`` = v^2,
    ``xv`` = x v, ``jx`` = <x>, ``jv`` = <v>, the energy ``e``, the drift
    ``dr`` = M'/M, ``xdr`` = x dr and ``vdr`` = v dr.  ``e_pow(y)`` is E^y,
    computed once per exponent.

    Every term broadcasts: x of shape (rows, 1) and v of shape (n,) give
    the x-only terms on (rows, 1), the v-only ones on (n,) and only the
    mixed ones (x v, E, x dr) on the (rows, n) grid.
    """

    def __init__(self, x, v, params: ModelParams):
        self.params = params
        self.x = np.asarray(x, dtype=np.float64)
        self.v = np.asarray(v, dtype=np.float64)

    @cached_property
    def xsq(self):
        return self.x * self.x

    @cached_property
    def vsq(self):
        return self.v * self.v

    @cached_property
    def xv(self):
        return self.x * self.v

    @cached_property
    def jx(self):
        return _bracket(self.xsq)

    @cached_property
    def jv(self):
        return _bracket(self.vsq)

    @cached_property
    def e(self):
        return 0.5 * self.vsq + _potential(self.jx, self.params)

    @cached_property
    def e_pow(self):
        return _powers(self.e)

    @cached_property
    def dr(self):
        return _drift(self.v, self.jv, self.params)

    @cached_property
    def xdr(self):
        return self.x * self.dr

    @cached_property
    def vdr(self):
        return self.v * self.dr


def energy(x, v, params: ModelParams):
    """Mechanical energy E(x, v) = v^2 / 2 + V(x)."""
    return _Points(x, v, params).e


def _h(p: _Points, spec: LyapunovSpec):
    cross = p.jx**spec.a_exp * p.jv ** (-spec.b_exp) * p.xv
    return p.e**spec.ell + spec.eps * cross


def lyapunov_H(x, v, params: ModelParams, spec: LyapunovSpec):
    """Candidate Lyapunov function H = E^ell + eps <x>^A <v>^(-B) x v."""
    _check_spec(params, spec)
    return _h(_Points(x, v, params), spec)


def _grad_v_h(p: _Points, spec: LyapunovSpec):
    jv = p.jv
    cross = p.jx**spec.a_exp * (
        jv ** (-spec.b_exp) * p.x - spec.b_exp * p.xv * jv ** (-spec.b_exp - 2.0) * p.v
    )
    return spec.ell * p.e_pow(spec.ell - 1.0) * p.v + spec.eps * cross


def grad_v_H(x, v, params: ModelParams, spec: LyapunovSpec):
    """Velocity derivative of H, exact.

    d_v H = ell E^(ell-1) v
            + eps (<x>^A <v>^(-B) x - B <x>^A x v <v>^(-B-2) v).
    """
    _check_spec(params, spec)
    return _grad_v_h(_Points(x, v, params), spec)


def _dual_energy_power(p: _Points, ell: float):
    # L*(E^ell) = ell E^(ell-1) [ (ell-1) v^2/E + 1 + v M'/M ]
    return ell * p.e_pow(ell - 1.0) * ((ell - 1.0) * p.vsq / p.e + 1.0 + p.vdr)


def _dual_cross_term(p: _Points, a_exp: float, b_exp: float):
    # L* applied to <x>^A <v>^(-B) x v, gathered into one exact expression.
    A, B = a_exp, b_exp
    jx, jv, xv, vsq = p.jx, p.jv, p.xv, p.vsq
    bracket = (
        vsq
        + A * xv * xv / (jx * jx)
        - jx ** (p.params.alpha - 2.0) * (p.xsq - B * xv * xv / (jv * jv))
        - B * xv * (3.0 / (jv * jv) - (B + 2.0) * vsq / jv**4)
        + (p.xdr - B * xv * p.vdr / (jv * jv))
    )
    return jx**A / jv**B * bracket


def _dual_full_h(p: _Points, spec: LyapunovSpec):
    # L*(H) = L*(E^ell) + eps L*(cross)
    return _dual_energy_power(p, spec.ell) + spec.eps * _dual_cross_term(
        p, spec.a_exp, spec.b_exp
    )


def _weight(hp, spec: LyapunovSpec):
    # m = Phi(H) from hp(y) = H^y
    if isinstance(spec.mode, ExpWeight):
        return np.exp(spec.mode.delta * hp(spec.mode.theta / 2.0))
    return hp(spec.mode.k / spec.ell)


def _weight_derivatives(h, spec: LyapunovSpec):
    """(m, Phi'(H), Phi''(H)) for the weight m = Phi(H) of the given mode."""
    hp = _powers(h)
    m = _weight(hp, spec)
    if isinstance(spec.mode, ExpWeight):
        th, de = spec.mode.theta, spec.mode.delta
        c = de * th / 2.0
        p1 = c * hp(th / 2.0 - 1.0) * m
        p2 = c * hp(th / 2.0 - 2.0) * m * ((th / 2.0 - 1.0) + c * hp(th / 2.0))
    else:
        r = spec.mode.k / spec.ell
        p1 = r * hp(r - 1.0)
        p2 = r * (r - 1.0) * hp(r - 2.0)
    return m, p1, p2


def _dual_weight(p: _Points, spec: LyapunovSpec, p1, p2):
    # L*(Phi(H)) = Phi'(H) L*(H) + Phi''(H) (d_v H)^2
    g = _grad_v_h(p, spec)
    return p1 * _dual_full_h(p, spec) + p2 * (g * g)


def lyapunov_weight(x, v, params: ModelParams, spec: LyapunovSpec):
    """Weight m(x, v) built from H: exp(delta H^(theta/2)) or H^(k/ell)."""
    return _weight(_powers(lyapunov_H(x, v, params, spec)), spec)


def apply_Lstar_exact(x, v, params: ModelParams, spec: LyapunovSpec, target: str):
    """Dual operator L* applied analytically to one of four targets.

    L* m = v d_x m - V'(x) d_v m + d_v^2 m + (M'/M)(v) d_v m

    target:
      ``"energy_power"``  L*(E^ell)
      ``"cross_term"``    L*(<x>^A <v>^(-B) x v)  (eps not applied)
      ``"full_h"``        L*(H) = L*(E^ell) + eps L*(cross)
      ``"weight_m"``      L*(Phi(H)) = Phi'(H) L*(H) + Phi''(H) (d_v H)^2
    """
    if target not in LSTAR_TARGETS:
        raise ValueError(f"unknown target {target!r}, expected one of {LSTAR_TARGETS}")
    _check_spec(params, spec)
    p = _Points(x, v, params)
    if target == "energy_power":
        return _dual_energy_power(p, spec.ell)
    if target == "cross_term":
        return _dual_cross_term(p, spec.a_exp, spec.b_exp)
    if target == "full_h":
        return _dual_full_h(p, spec)
    _, p1, p2 = _weight_derivatives(_h(p, spec), spec)
    return _dual_weight(p, spec, p1, p2)


def drift_excess(x, v, params: ModelParams, spec: LyapunovSpec):
    """Left side s = L* m + phi(m) of the drift inequality s <= C 1_{B_R}.

    Equal bit for bit to ``apply_Lstar_exact(x, v, params, spec, "weight_m")
    + phi(lyapunov_weight(x, v, params, spec), spec)``, with the same checks
    (the spec's comparability condition, phi's domain), but each point's
    terms are computed once: E, <x>, <v>, x v and the drift, then H, m,
    Phi'(H), Phi''(H) and d_v H, with each power of E and H taken once.
    x and v broadcast, so an x column of shape (rows, 1) against a v row of
    shape (n,) gives s on the (rows, n) grid with the terms of one
    coordinate computed once per axis value.
    :func:`kinfp.verify.scan_drift_inequality` calls it that way on blocks
    of grid rows: the scan's memory then grows with ``lyapunov.samples``
    only through s, r^2 and the radius masks.
    """
    _check_spec(params, spec)
    p = _Points(x, v, params)
    m, p1, p2 = _weight_derivatives(_h(p, spec), spec)
    return _dual_weight(p, spec, p1, p2) + phi(m, spec)


def phi(mval, spec: LyapunovSpec):
    """Concave comparison function of the drift inequality.

    Exp mode: phi(m) = m (ln m)^(-(1-theta)/theta), with phi(1) = 0 by
    convention (the literal formula degenerates as ln m -> 0); values below
    1 are rejected.  Poly mode: phi(m) = m^(1-1/k), accepted for any m > 0
    (its natural concave extension with phi(0) = 0).
    """
    m = np.asarray(mval, dtype=np.float64)
    if isinstance(spec.mode, ExpWeight):
        if np.any(m < 1.0):
            raise ValueError("exp-mode phi is only defined for weights >= 1")
        th = spec.mode.theta
        if th == 1.0:
            out = m.copy()
        else:
            with np.errstate(divide="ignore"):
                out = np.where(
                    m > 1.0, m * np.log(m) ** (-(1.0 - th) / th), 0.0
                )
    else:
        if np.any(m <= 0.0):
            raise ValueError("poly-mode phi is only defined for positive weights")
        out = m ** (1.0 - 1.0 / spec.mode.k)
    return out if out.ndim else float(out)


def _check_tail_params(alpha: float, beta: float, delta: float) -> None:
    if alpha <= 0.0 or beta <= 0.0 or delta <= 0.0:
        raise ValueError("need alpha > 0, beta > 0, delta > 0")


def _tail_power(x, alpha: float, beta: float):
    # V(x)^(beta/2) with V = <x>^alpha/alpha: the tail exponent lam over delta
    return (_bracket(x * x) ** alpha / alpha) ** (beta / 2.0)


def asymptotic_prefactor(alpha: float, beta: float, delta: float) -> float:
    """Constant C = 2 sqrt(pi) alpha^(beta/4) / sqrt(beta delta alpha).

    Valid as a formula for any alpha > 0 (the linear-potential alpha = 1 is
    the exploratory edge of the confinement range).
    """
    _check_tail_params(alpha, beta, delta)
    return 2.0 * math.sqrt(math.pi) * alpha ** (beta / 4.0) / math.sqrt(
        beta * delta * alpha
    )


def asymptotic_density(x, alpha: float, beta: float, delta: float):
    """Leading-order large-|x| density of the profile exp(-delta E^(beta/2)).

    rho(x) ~ C |x|^((alpha/2)(1-beta/2)) exp(-delta (<x>^alpha/alpha)^(beta/2))
    obtained by a Laplace expansion of the velocity integral.
    The ratio to the true integral tends to 1 as |x| -> infinity, with a
    slowly decaying correction of order 1/(delta V(x)^(beta/2)).
    """
    xa = np.asarray(x, dtype=np.float64)
    if np.any(xa == 0.0):
        raise ValueError("the asymptotic needs |x| > 0")
    c = asymptotic_prefactor(alpha, beta, delta)
    out = (
        c
        * np.abs(xa) ** ((alpha / 2.0) * (1.0 - beta / 2.0))
        * np.exp(-delta * _tail_power(xa, alpha, beta))
    )
    return out if out.ndim else float(out)


def asymptotic_correction(x, alpha: float, beta: float, delta: float):
    """First Laplace correction 1 + c1/lam to :func:`asymptotic_density`.

    With V = <x>^alpha/alpha and lam = delta V^(beta/2), the density is
    exactly

        rho(x) = sqrt(2) V^(1/2) exp(-lam)
                 * int_0^inf t^(-1/2) exp(-lam ((1+t)^(beta/2) - 1)) dt,

    and Watson's lemma expands it as

        rho(x) = C |x|^((alpha/2)(1-beta/2)) exp(-lam) (1 + c1/lam + c2/lam^2 + ...)

    with c1 = 3(2-beta)/(8 beta) and c2 = 5(2-beta)(10-13 beta)/(128 beta^2).
    The returned factor keeps c1, so the product with the leading form is off
    by about c2/lam^2.  At beta = 2 the velocity integral is Gaussian and the
    factor is exactly 1.
    """
    _check_tail_params(alpha, beta, delta)
    xa = np.asarray(x, dtype=np.float64)
    c1 = 3.0 * (2.0 - beta) / (8.0 * beta)
    out = 1.0 + c1 / (delta * _tail_power(xa, alpha, beta))
    return out if out.ndim else float(out)
