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
with its first Laplace correction.

Each closed form of E, H, d_v H and L* is written once, over one private
holder of the axis factors at the given points: the x-only terms (<x>,
<x>^A x, ...) and the v-only ones (<v>, the drift, <v>^(-B) v, ...), each
computed once, and E, the one mixed term they share.  A mixed form is a
short sum of rank-one products of those factors: the cross term
<x>^A x <v>^(-B) v is one, its v-derivative one, and its L* three.  H and
d_v H take one power of E (E^(ell-1) is E^ell / E), and the weight and its
chain rule one power of H.

Array convention: the model is one-dimensional, and every closed form is
elementwise in x and v, which broadcast against each other.  Pass scalars
for one point, two arrays of shape (N,) for N points, or an x column of
shape (rows, 1) against a v row of shape (n,) for the (rows, n) grid of
their pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    """The axis factors at points (x, v) and the energy E, each computed
    once, on first use.

    x-only: ``xsq`` = x^2 and ``jx`` = <x>.  v-only: ``vsq`` = v^2, ``jv``
    = <v>, the drift ``dr`` = M'/M and ``vdr`` = v dr.  With a spec, the
    cross term <x>^A x <v>^(-B) v is the outer product of ``ax`` = <x>^A x
    and ``bv`` = <v>^(-B) v, with ``jxa`` = <x>^A, ``jvb`` = <v>^(-B) and
    ``dbv`` = d_v bv = <v>^(-B) (1 - B v^2/<v>^2).  The one mixed term is
    the energy ``e``.

    Every term broadcasts: x of shape (rows, 1) and v of shape (n,) give
    the x factors on (rows, 1) and the v factors on (n,), once per axis
    value, and only E on the (rows, n) grid.
    """

    def __init__(self, x, v, params: ModelParams, spec: LyapunovSpec | None = None):
        self.params = params
        self.spec = spec
        self.x = np.asarray(x, dtype=np.float64)
        self.v = np.asarray(v, dtype=np.float64)

    @cached_property
    def xsq(self):
        return self.x * self.x

    @cached_property
    def vsq(self):
        return self.v * self.v

    @cached_property
    def jx(self):
        return _bracket(self.xsq)

    @cached_property
    def jv(self):
        return _bracket(self.vsq)

    @cached_property
    def dr(self):
        return _drift(self.v, self.jv, self.params)

    @cached_property
    def vdr(self):
        return self.v * self.dr

    @cached_property
    def jxa(self):
        return self.jx**self.spec.a_exp

    @cached_property
    def ax(self):
        return self.jxa * self.x

    @cached_property
    def jvb(self):
        return self.jv ** (-self.spec.b_exp)

    @cached_property
    def bv(self):
        return self.jvb * self.v

    @cached_property
    def dbv(self):
        return self.jvb * (1.0 - self.spec.b_exp * self.vsq / (1.0 + self.vsq))

    @cached_property
    def e(self):
        return 0.5 * self.vsq + _potential(self.jx, self.params)


def energy(x, v, params: ModelParams):
    """Mechanical energy E(x, v) = v^2 / 2 + V(x)."""
    return _Points(x, v, params).e


def _h_de(p: _Points):
    # H = E^ell + (eps <x>^A x) (<v>^(-B) v) and ell E^(ell-1), taken as
    # ell E^ell / E: one power of E for both
    e_ell = p.e**p.spec.ell
    h = (p.spec.eps * p.ax) * p.bv
    h += e_ell
    e_ell *= p.spec.ell
    e_ell /= p.e
    return h, e_ell


def lyapunov_H(x, v, params: ModelParams, spec: LyapunovSpec):
    """Candidate Lyapunov function H = E^ell + eps <x>^A <v>^(-B) x v."""
    _check_spec(params, spec)
    return _h_de(_Points(x, v, params, spec))[0]


def _grad_v_h(p: _Points, de):
    # d_v H = ell E^(ell-1) v + (eps <x>^A x) d_v(<v>^(-B) v)
    g = de * p.v
    g += (p.spec.eps * p.ax) * p.dbv
    return g


def grad_v_H(x, v, params: ModelParams, spec: LyapunovSpec):
    """Velocity derivative of H, exact.

    d_v H = ell E^(ell-1) v + eps <x>^A x <v>^(-B) (1 - B v^2 / <v>^2).
    """
    _check_spec(params, spec)
    p = _Points(x, v, params, spec)
    return _grad_v_h(p, _h_de(p)[1])


def _dual_energy_power(p: _Points, de):
    # L*(E^ell) = ell E^(ell-1) [ (ell-1) v^2/E + 1 + v M'/M ]
    out = (p.spec.ell - 1.0) * p.vsq / p.e
    out += 1.0 + p.vdr
    out *= de
    return out


def _dual_cross_term(p: _Points):
    # L* of a(x) b(v) = <x>^A x <v>^(-B) v is v a' b - V' a b' + a (b'' + dr b'),
    # three outer products a1 b1 - a2 b' + a b3 of axis factors:
    #   a1 = <x>^A (1 + A x^2/<x>^2),  b1 = <v>^(-B) v^2,
    #   a2 = V' a = <x>^(A+alpha-2) x^2,
    #   b3 = dr b' - B <v>^(-B) v (3/<v>^2 - (B+2) v^2/<v>^4).
    A, B = p.spec.a_exp, p.spec.b_exp
    a1 = p.jxa * (1.0 + A * p.xsq / (1.0 + p.xsq))
    a2 = p.jx ** (A + p.params.alpha - 2.0) * p.xsq
    b1 = p.jvb * p.vsq
    jv2 = 1.0 + p.vsq
    b3 = p.dr * p.dbv - B * p.bv * (3.0 - (B + 2.0) * p.vsq / jv2) / jv2
    out = a1 * b1
    out -= a2 * p.dbv
    out += p.ax * b3
    return out


def _dual_full_h(p: _Points, de):
    # L*(H) = L*(E^ell) + eps L*(cross)
    out = _dual_cross_term(p)
    out *= p.spec.eps
    out += _dual_energy_power(p, de)
    return out


def _weight_power(spec: LyapunovSpec) -> float:
    # y in m = exp(delta H^y), y = theta/2, or in m = H^y, y = k/ell
    if isinstance(spec.mode, ExpWeight):
        return spec.mode.theta / 2.0
    return spec.mode.k / spec.ell


def _weight(h, spec: LyapunovSpec):
    # (H^y, m): the one power of H that the weight takes, and the weight,
    # the same array as H^y for the poly weight
    hy = h ** _weight_power(spec)
    if isinstance(spec.mode, ExpWeight):
        return hy, np.exp(spec.mode.delta * hy)
    return hy, hy


def _dual_weight(p: _Points):
    # (L*(Phi(H)), m), with L*(Phi(H)) = Phi'(H) L*(H) + Phi''(H) (d_v H)^2
    # written through the one power H^y:
    #   exp, c = delta y:  m (c H^y/H) [L*H + (y - 1 + c H^y) (d_v H)^2/H],
    #   poly:              y (m/H) [L*H + (y - 1) (d_v H)^2/H].
    # NaN wherever it overflows, so wherever m does: a point whose terms
    # leave the float range fails a scan instead of passing as -inf.
    h, de = _h_de(p)
    lh = _dual_full_h(p, de)
    g2h = _grad_v_h(p, de)
    del de  # one mixed array fewer alive under the weight's temporaries
    g2h *= g2h
    g2h /= h
    y = _weight_power(p.spec)
    hy, m = _weight(h, p.spec)
    if isinstance(p.spec.mode, ExpWeight):
        out = hy
        out *= p.spec.mode.delta * y
        g2h *= (y - 1.0) + out
        out /= h
        out *= m
    else:
        g2h *= y - 1.0
        out = m / h
        out *= y
    g2h += lh
    out *= g2h
    overflow = np.isinf(out)
    if overflow.any():
        out = np.where(overflow, np.nan, out)
    return out, m


def lyapunov_weight(x, v, params: ModelParams, spec: LyapunovSpec):
    """Weight m(x, v) built from H: exp(delta H^(theta/2)) or H^(k/ell)."""
    _check_spec(params, spec)
    p = _Points(x, v, params, spec)
    return _weight(_h_de(p)[0], spec)[1]


def apply_Lstar_exact(x, v, params: ModelParams, spec: LyapunovSpec, target: str):
    """Dual operator L* applied analytically to one of four targets.

    L* m = v d_x m - V'(x) d_v m + d_v^2 m + (M'/M)(v) d_v m

    target:
      ``"energy_power"``  L*(E^ell)
      ``"cross_term"``    L*(<x>^A <v>^(-B) x v)  (eps not applied)
      ``"full_h"``        L*(H) = L*(E^ell) + eps L*(cross)
      ``"weight_m"``      L*(Phi(H)) = Phi'(H) L*(H) + Phi''(H) (d_v H)^2,
                          NaN where it overflows, so where m does
    """
    if target not in LSTAR_TARGETS:
        raise ValueError(f"unknown target {target!r}, expected one of {LSTAR_TARGETS}")
    _check_spec(params, spec)
    p = _Points(x, v, params, spec)
    if target == "cross_term":
        return _dual_cross_term(p)
    if target == "weight_m":
        return _dual_weight(p)[0]
    de = _h_de(p)[1]
    if target == "energy_power":
        return _dual_energy_power(p, de)
    return _dual_full_h(p, de)


def drift_excess(x, v, params: ModelParams, spec: LyapunovSpec):
    """Left side s = L* m + phi(m) of the drift inequality s <= C 1_{B_R}.

    Equal bit for bit to ``apply_Lstar_exact(x, v, params, spec, "weight_m")
    + phi(lyapunov_weight(x, v, params, spec), spec)``, with the same checks
    (the spec's comparability condition, phi's domain), but each point's
    terms are computed once: the axis factors, then E, one power of E for
    H and d_v H, one power of H for m and its chain rule, with the mixed
    temporaries reused in place.  s is NaN wherever L* m overflows, so
    wherever m does, and never -inf.  x and v broadcast, so an x column of
    shape (rows, 1) against a v row of shape (n,) gives s on the (rows, n)
    grid with the factors of one coordinate computed once per axis value.
    :func:`kinfp.verify.scan_drift_inequality` calls it that way on blocks
    of grid rows: the scan's memory then grows with ``lyapunov.samples``
    only through s, r^2 and the radius masks.
    """
    _check_spec(params, spec)
    lm, m = _dual_weight(_Points(x, v, params, spec))
    lm += phi(m, spec)
    return lm


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
            out = np.log(m, out=np.empty_like(m))
            with np.errstate(divide="ignore"):
                out **= -(1.0 - th) / th
            out *= m
            np.copyto(out, 0.0, where=m == 1.0)
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
