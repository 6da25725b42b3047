"""Closed-form building blocks of the confined kinetic Fokker-Planck model.

The model is the linear kinetic equation

    df/dt = -v . grad_x f + grad_x V . grad_v f + div_v(M grad_v(f / M))

on phase space (x, v) in R^d x R^d, with confining potential
V(x) = <x>^alpha / alpha (where <z> = sqrt(1 + |z|^2)) and a local velocity
equilibrium M that is either sub-exponential, M ~ exp(-<v>^beta / beta), or
fat-tailed polynomial, M ~ <v>^(-d-gamma).

This module evaluates every closed-form quantity attached to that equation:
the potential and its gradient, the normalised equilibria and their
logarithmic drifts, the mechanical energy E = |v|^2/2 + V(x), the candidate
Lyapunov functions H = E^ell + eps <x>^A <v>^(-B) (x.v), the dual (adjoint)
operator applied analytically to E^ell, to the cross term, to H and to
weights built from H, the concave comparison function used in the drift
inequality and that inequality's left side L* m + phi(m), the sub-geometric
decay profiles, and the closed-form tail asymptotic of the spatial density
of exp(-delta E^(beta/2)) with its first Laplace correction.  Each closed
form of E, H, grad_v H and L* is written once, over a private holder of the
spec-free terms at the given points (<x>, <v>, x.v, E, the drift, ...), so
an evaluation that needs several of them computes those terms once.

scipy is imported on the first evaluation of ``ModelParams.norm_const``
(through :func:`equilibrium`), the one quadrature here; the stepping and
certification paths never evaluate it, so they never import scipy.

Array convention: every function accepts points whose LAST axis is the space
dimension d, broadcasting over any leading axes.  Plain Python scalars are
accepted for d = 1.  Shape (N,) therefore means one point in d = N; pass
shape (N, 1) for N points on a line.
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
    "equilibrium",
    "equilibrium_drift",
    "energy",
    "lyapunov_H",
    "grad_v_H",
    "lyapunov_weight",
    "apply_Lstar_exact",
    "drift_excess",
    "phi",
    "theta_decay",
    "asymptotic_density",
    "asymptotic_prefactor",
    "asymptotic_correction",
]

#: admissible targets for :func:`apply_Lstar_exact`
LSTAR_TARGETS = ("energy_power", "cross_term", "full_h", "weight_m")

# quadrature tolerances for the equilibrium normalisation constant; the
# truncation radius is grown until the analytic tail bound drops below
# _TAIL_BOUND so the quoted accuracy is honest.
_QUAD_EPSABS = 1e-14
_QUAD_EPSREL = 1e-12
_TAIL_BOUND = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Confinement and equilibrium parameters.

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
        Velocity-tail exponent for ``kind="poly"``.  Any gamma > 0 gives a
        normalisable equilibrium; the convergence theory (and the drift
        certifier) needs gamma > 1.
    dim : int
        Space dimension d (the finite-volume solver only supports d = 1,
        the formulas here are dimension-agnostic).
    """

    alpha: float
    kind: str
    beta: float | None = None
    gamma: float | None = None
    dim: int = 1

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
        if int(self.dim) != self.dim or self.dim < 1:
            problems.append(f"dim must be a positive integer, got {self.dim}")
        if problems:
            raise ValueError("; ".join(problems))

    @cached_property
    def norm_const(self) -> float:
        """Normalisation constant of the unnormalised equilibrium over R^d.

        Computed by adaptive Gauss-Kronrod quadrature of the radial profile
        on [0, R] with R chosen so that a closed-form majorant of the tail
        integral is below 1e-12.
        """
        # scipy costs most of the package's import time; only this needs it
        from scipy import integrate, special

        d = self.dim
        surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        if self.kind == "exp":
            b = self.beta

            def profile(r):
                return r ** (d - 1) * np.exp(-np.sqrt(1.0 + r * r) ** b / b)

            def tail(R):
                # integrand <= r^(d-1) exp(-r^beta/beta); substitute w = r^b/b
                return b ** (d / b - 1.0) * float(
                    special.gammaincc(d / b, R**b / b) * special.gamma(d / b)
                )

            radius = 10.0
            while tail(radius) >= _TAIL_BOUND and radius < 1e9:
                radius *= 2.0
            val, _ = integrate.quad(
                profile, 0.0, radius, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=400
            )
        else:
            # split at r = 1 and map the tail through u = 1/r, which turns
            # it into int_0^1 u^(gamma-1) (1+u^2)^(-(d+gamma)/2) du: exact,
            # no truncation needed even for slowly decaying tails.
            g = self.gamma
            core, _ = integrate.quad(
                lambda r: r ** (d - 1) * (1.0 + r * r) ** (-(d + g) / 2.0),
                0.0,
                1.0,
                epsabs=_QUAD_EPSABS,
                epsrel=_QUAD_EPSREL,
                limit=400,
            )
            tail_val, _ = integrate.quad(
                lambda u: u ** (g - 1.0) * (1.0 + u * u) ** (-(d + g) / 2.0),
                0.0,
                1.0,
                epsabs=_QUAD_EPSABS,
                epsrel=_QUAD_EPSREL,
                limit=400,
            )
            val = core + tail_val
        out = surface * val
        if not out > 0.0:
            raise ArithmeticError("equilibrium normalisation quadrature failed")
        return out


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


def _vec(z, dim: int) -> np.ndarray:
    a = np.asarray(z, dtype=np.float64)
    if a.ndim == 0:
        if dim != 1:
            raise ValueError(f"scalar point given but dim={dim}")
        a = a.reshape(1)
    if a.shape[-1] != dim:
        raise ValueError(f"last axis must have length dim={dim}, got shape {a.shape}")
    return a


def _powers(base):
    # base**y as a function of y, each exponent computed once
    return cache(lambda y: base**y)


def _bracket(sq):
    # <z> from |z|^2
    return np.sqrt(1.0 + sq)


def jbracket(z):
    """Japanese bracket <z> = sqrt(1 + |z|^2), a smooth surrogate for |z|."""
    a = np.asarray(z, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1)
    return _bracket(np.sum(a * a, axis=-1))


def _potential(jx, params: ModelParams):
    # V from <x>
    return jx**params.alpha / params.alpha


def potential(x, params: ModelParams):
    """Confining potential V(x) = <x>^alpha / alpha (minimum 1/alpha)."""
    x = _vec(x, params.dim)
    return _potential(jbracket(x), params)


def grad_potential(x, params: ModelParams):
    """grad V(x) = <x>^(alpha-2) x."""
    x = _vec(x, params.dim)
    return jbracket(x)[..., None] ** (params.alpha - 2.0) * x


def equilibrium(v, params: ModelParams):
    """Normalised local velocity equilibrium M(v); integrates to 1 over R^d."""
    v = _vec(v, params.dim)
    jv = jbracket(v)
    if params.kind == "exp":
        raw = np.exp(-(jv**params.beta) / params.beta)
    else:
        raw = jv ** (-params.dim - params.gamma)
    return raw / params.norm_const


def _drift(v, jv, params: ModelParams):
    # grad_v M / M from v and <v>
    jv = jv[..., None]
    if params.kind == "exp":
        return -(jv ** (params.beta - 2.0)) * v
    return -(params.dim + params.gamma) * jv ** (-2.0) * v


def equilibrium_drift(v, params: ModelParams):
    """Logarithmic drift grad_v M / M of the local equilibrium.

    Power-law in both cases: -<v>^(beta-2) v for the sub-exponential
    equilibrium and -(d+gamma) <v>^(-2) v for the polynomial one.
    """
    v = _vec(v, params.dim)
    return _drift(v, jbracket(v), params)


class _Points:
    """The spec-free terms at points (x, v), each computed once, on first use.

    The closed forms below read them from here, so one evaluation of several
    forms at the same points shares them.  ``x``, ``v`` and the drift ``dr``
    keep the space axis; ``xsq`` = |x|^2, ``vsq`` = |v|^2, ``xv`` = x.v,
    ``jx`` = <x>, ``jv`` = <v>, the energy ``e``, ``xdr`` = x.dr and
    ``vdr`` = v.dr drop it.  ``e_pow(y)`` is E^y, computed once per exponent.

    Every term broadcasts: x of shape (rows, 1, d) and v of shape (1, n, d)
    give the x-only terms on (rows, 1), the v-only ones on (1, n) and only
    the mixed ones (x.v, E, x.dr) on the (rows, n) grid.
    """

    def __init__(self, x, v, params: ModelParams):
        self.params = params
        self.x = _vec(x, params.dim)
        self.v = _vec(v, params.dim)

    @cached_property
    def xsq(self):
        return np.sum(self.x * self.x, axis=-1)

    @cached_property
    def vsq(self):
        return np.sum(self.v * self.v, axis=-1)

    @cached_property
    def xv(self):
        return np.sum(self.x * self.v, axis=-1)

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
        return np.sum(self.x * self.dr, axis=-1)

    @cached_property
    def vdr(self):
        return np.sum(self.v * self.dr, axis=-1)


def energy(x, v, params: ModelParams):
    """Mechanical energy E(x, v) = |v|^2 / 2 + V(x)."""
    return _Points(x, v, params).e


def _h(p: _Points, spec: LyapunovSpec):
    cross = p.jx**spec.a_exp * p.jv ** (-spec.b_exp) * p.xv
    return p.e**spec.ell + spec.eps * cross


def lyapunov_H(x, v, params: ModelParams, spec: LyapunovSpec):
    """Candidate Lyapunov function H = E^ell + eps <x>^A <v>^(-B) (x . v)."""
    _check_spec(params, spec)
    return _h(_Points(x, v, params), spec)


def _grad_v_h(p: _Points, spec: LyapunovSpec):
    jx = p.jx[..., None]
    jv = p.jv[..., None]
    xv = p.xv[..., None]
    cross = jx**spec.a_exp * (
        jv ** (-spec.b_exp) * p.x - spec.b_exp * xv * jv ** (-spec.b_exp - 2.0) * p.v
    )
    return spec.ell * p.e_pow(spec.ell - 1.0)[..., None] * p.v + spec.eps * cross


def grad_v_H(x, v, params: ModelParams, spec: LyapunovSpec):
    """Velocity gradient of H, exact.

    grad_v H = ell E^(ell-1) v
               + eps (<x>^A <v>^(-B) x - B <x>^A (x.v) <v>^(-B-2) v).
    """
    _check_spec(params, spec)
    return _grad_v_h(_Points(x, v, params), spec)


def _dual_energy_power(p: _Points, ell: float):
    # L*(E^ell) = ell E^(ell-1) [ (ell-1)|v|^2/E + d + v . (grad_v M / M) ]
    return ell * p.e_pow(ell - 1.0) * ((ell - 1.0) * p.vsq / p.e + p.params.dim + p.vdr)


def _dual_cross_term(p: _Points, a_exp: float, b_exp: float):
    # L* applied to <x>^A <v>^(-B) (x.v), gathered into one exact expression.
    d = p.params.dim
    A, B = a_exp, b_exp
    jx, jv, xv, vsq = p.jx, p.jv, p.xv, p.vsq
    bracket = (
        vsq
        + A * xv * xv / (jx * jx)
        - jx ** (p.params.alpha - 2.0) * (p.xsq - B * xv * xv / (jv * jv))
        - B * xv * ((d + 2.0) / (jv * jv) - (B + 2.0) * vsq / jv**4)
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
    # L*(Phi(H)) = Phi'(H) L*(H) + Phi''(H) |grad_v H|^2
    g = _grad_v_h(p, spec)
    return p1 * _dual_full_h(p, spec) + p2 * np.sum(g * g, axis=-1)


def lyapunov_weight(x, v, params: ModelParams, spec: LyapunovSpec):
    """Weight m(x, v) built from H: exp(delta H^(theta/2)) or H^(k/ell)."""
    return _weight(_powers(lyapunov_H(x, v, params, spec)), spec)


def apply_Lstar_exact(x, v, params: ModelParams, spec: LyapunovSpec, target: str):
    """Dual operator L* applied analytically to one of four targets.

    L* m = v . grad_x m - grad_x V . grad_v m + Lap_v m + (grad_v M / M) . grad_v m

    target:
      ``"energy_power"``  L*(E^ell)
      ``"cross_term"``    L*(<x>^A <v>^(-B) (x.v))  (eps not applied)
      ``"full_h"``        L*(H) = L*(E^ell) + eps L*(cross)
      ``"weight_m"``      L*(Phi(H)) = Phi'(H) L*(H) + Phi''(H) |grad_v H|^2
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
    terms are computed once: E, <x>, <v>, x.v and the drift, then H, m,
    Phi'(H), Phi''(H) and grad_v H, with each power of E and H taken once.
    The terms broadcast over the leading axes, so x of shape (rows, 1, 1)
    and v of shape (1, n, 1) give s on the (rows, n) grid with the terms of
    one coordinate computed once per axis value.
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


def theta_decay(t, spec: LyapunovSpec, lam: float = 1.0):
    """Sub-geometric decay profile matched to the weight mode.

    Exp mode: Theta(t) = exp(-lam t^theta); poly mode: Theta(t) = (1+t)^(-k).
    ``lam`` is a caller-supplied fit parameter, not derived from constants.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0):
        raise ValueError("t must be nonnegative")
    if isinstance(spec.mode, ExpWeight):
        out = np.exp(-lam * t**spec.mode.theta)
    else:
        out = (1.0 + t) ** (-spec.mode.k)
    return out if out.ndim else float(out)


def _check_tail_params(alpha: float, beta: float, delta: float) -> None:
    if alpha <= 0.0 or beta <= 0.0 or delta <= 0.0:
        raise ValueError("need alpha > 0, beta > 0, delta > 0")


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
    for d = 1, obtained by a Laplace expansion of the velocity integral.
    The ratio to the true integral tends to 1 as |x| -> infinity, with a
    slowly decaying correction of order 1/(delta V(x)^(beta/2)).
    """
    xa = np.asarray(x, dtype=np.float64)
    if np.any(xa == 0.0):
        raise ValueError("the asymptotic needs |x| > 0")
    c = asymptotic_prefactor(alpha, beta, delta)
    vpot = np.sqrt(1.0 + xa * xa) ** alpha / alpha
    out = (
        c
        * np.abs(xa) ** ((alpha / 2.0) * (1.0 - beta / 2.0))
        * np.exp(-delta * vpot ** (beta / 2.0))
    )
    return out if out.ndim else float(out)


def asymptotic_correction(x, alpha: float, beta: float, delta: float):
    """First Laplace correction 1 + c1/lam to :func:`asymptotic_density`.

    With V = <x>^alpha/alpha and lam = delta V^(beta/2), the d = 1 density is
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
    vpot = np.sqrt(1.0 + xa * xa) ** alpha / alpha
    c1 = 3.0 * (2.0 - beta) / (8.0 * beta)
    out = 1.0 + c1 / (delta * vpot ** (beta / 2.0))
    return out if out.ndim else float(out)
