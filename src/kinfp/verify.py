"""Independent checks of the Lyapunov drift inequality.

Two tools live here:

* a centered finite-difference discretisation of the dual operator L*,
  used as an oracle against the closed-form expressions in
  :mod:`kinfp.model`;
* a grid-scan certifier that tests the drift condition

      L* m <= C 1_{B_R} - phi(m)

  pointwise on a box, reporting the smallest admissible exclusion radius R,
  the observed constant C inside the ball, and the worst margin outside.

The scan is a numerical check at sampled points, not a proof: "<=" is
certified literally, with the scanned C absorbing all constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ExpWeight,
    LyapunovSpec,
    ModelParams,
    PolyWeight,
    apply_Lstar_exact,
    energy,
    equilibrium_drift,
    grad_potential,
    lyapunov_H,
    lyapunov_weight,
    phi,
)

__all__ = [
    "ScanConfig",
    "CertificateReport",
    "apply_Lstar_fd",
    "apply_Lstar_fd_richardson",
    "lstar_term_scale",
    "scan_drift_inequality",
    "equivalence_constants",
    "find_certified_spec",
    "subexp_weight_exponents",
    "poly_weight_exponents",
    "EXP_SEARCH_GRID",
    "POLY_SEARCH_GRID",
]


def subexp_weight_exponents(alpha: float, a: float, b: float) -> tuple[float, float]:
    """Map proof parameters (a, b) of the quadratic-energy weight to (A, B).

    The sub-exponential construction uses x-exponent A = alpha*a and
    v-exponent B = 1 - b with a, b in (0, 1).
    """
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("a and b must lie in (0, 1)")
    return alpha * a, 1.0 - b


def poly_weight_exponents(
    alpha: float, ell: float, a: float, b: float
) -> tuple[float, float]:
    """Map proof parameters (a, b) of the E^ell weight to (A, B).

    The polynomial construction uses A = alpha*(ell - 2 + a), B = 1 - b.
    """
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("a and b must lie in (0, 1)")
    return alpha * (ell - 2.0 + a), 1.0 - b


@dataclass(frozen=True)
class ScanConfig:
    """Sampling plan for the drift-inequality scan (d = 1).

    The scan covers the box [-x_half, x_half] x [-v_half, v_half] with a
    tensor-product grid of ``samples_per_axis`` points per axis plus both
    coordinate axes sampled explicitly (the tightest points of the
    inequality sit near the axes).
    """

    x_half: float = 50.0
    v_half: float = 50.0
    samples_per_axis: int = 256
    exclusion_radii: tuple[float, ...] = (20.0, 25.0, 30.0, 35.0, 40.0, 45.0)

    def __post_init__(self):
        if self.samples_per_axis < 16:
            raise ValueError("samples_per_axis must be at least 16")
        if self.x_half <= 0 or self.v_half <= 0:
            raise ValueError("box half-widths must be positive")
        if not self.exclusion_radii:
            raise ValueError("need at least one candidate radius")
        rmax = max(self.exclusion_radii)
        if rmax >= self.x_half or rmax >= self.v_half:
            raise ValueError("candidate radii must be smaller than the box")


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one drift-inequality scan."""

    passed: bool
    chosen_R: float
    chosen_C: float
    min_margin_outside: float
    worst_point: tuple[float, float]
    spec_echo: LyapunovSpec

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (
            f"{state} R={self.chosen_R:g} C={self.chosen_C:.6g} "
            f"min_margin_outside={self.min_margin_outside:.6g} "
            f"worst_point=({self.worst_point[0]:.3f},{self.worst_point[1]:.3f})"
        )


def apply_Lstar_fd(F, x, v, params: ModelParams, h: float):
    """Centered second-order finite-difference approximation of L* F at (x, v).

    F is a callable F(x, v) -> float taking d-vectors.  The same base step
    is used in every coordinate, scaled automatically to the point: the
    energy-type functions differenced here vary on the scale of the point
    itself, so the effective step is h * (10 + |x|^2 + |v|^2), which keeps
    truncation and roundoff balanced near the empirical 1e-6 accuracy
    target (a fixed step is roundoff-dominated once the differenced values
    grow like E^ell).
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    d = params.dim
    if x.size != d or v.size != d:
        raise ValueError("point size does not match params.dim")
    heff = h * (10.0 + float(np.sum(x * x)) + float(np.sum(v * v)))

    gv = np.asarray(grad_potential(x, params)).reshape(-1)
    dr = np.asarray(equilibrium_drift(v, params)).reshape(-1)
    f0 = float(F(x, v))
    if not np.isfinite(f0):
        raise ArithmeticError("non-finite value of F at the base point")
    out = 0.0
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = heff
        fxp = float(F(x + ei, v))
        fxm = float(F(x - ei, v))
        fvp = float(F(x, v + ei))
        fvm = float(F(x, v - ei))
        dFx = (fxp - fxm) / (2.0 * heff)
        dFv = (fvp - fvm) / (2.0 * heff)
        d2Fv = (fvp - 2.0 * f0 + fvm) / (heff * heff)
        out += v[i] * dFx - gv[i] * dFv + d2Fv + dr[i] * dFv
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
    from .model import _weight_derivatives, grad_v_H

    ep = np.abs(apply_Lstar_exact(x, v, params, spec, "energy_power"))
    ct = spec.eps * np.abs(apply_Lstar_exact(x, v, params, spec, "cross_term"))
    if target in ("energy_power", "cross_term", "full_h"):
        return ep + ct
    if target != "weight_m":
        raise ValueError(f"unknown target {target!r}")
    h = lyapunov_H(x, v, params, spec)
    _, p1, p2 = _weight_derivatives(h, spec)
    g = grad_v_H(x, v, params, spec)
    return np.abs(p1) * (ep + ct) + np.abs(p2) * np.sum(g * g, axis=-1)


def _scan_points(cfg: ScanConfig) -> tuple[np.ndarray, np.ndarray]:
    xs = np.linspace(-cfg.x_half, cfg.x_half, cfg.samples_per_axis)
    vs = np.linspace(-cfg.v_half, cfg.v_half, cfg.samples_per_axis)
    xg, vg = np.meshgrid(xs, vs, indexing="ij")
    x = np.concatenate([xg.ravel(), xs, np.zeros_like(vs)])
    v = np.concatenate([vg.ravel(), np.zeros_like(xs), vs])
    return x, v


def _check_mode_ranges(params: ModelParams, spec: LyapunovSpec) -> None:
    if isinstance(spec.mode, ExpWeight):
        if params.kind != "exp":
            raise ValueError("exp weight mode requires an exp equilibrium")
        th_max = min(1.0, params.beta / 2.0)
        if spec.mode.theta > th_max + 1e-12:
            raise ValueError(
                f"theta={spec.mode.theta} outside the admissible range "
                f"(0, {th_max}] for beta={params.beta}"
            )
    else:
        if params.kind != "poly":
            raise ValueError("poly weight mode requires a poly equilibrium")
        if not (1.5 < spec.ell < 1.0 + params.gamma / 2.0):
            raise ValueError(
                f"poly mode needs 3/2 < ell < 1 + gamma/2, got ell={spec.ell}, "
                f"gamma={params.gamma}"
            )


def scan_drift_inequality(
    params: ModelParams, spec: LyapunovSpec, cfg: ScanConfig
) -> CertificateReport:
    """Scan the pointwise drift inequality L* m <= C 1_{B_R} - phi(m).

    The margin at a point is -(L* m + phi(m)); a candidate radius R passes
    when the margin is nonnegative at every sampled point outside the
    Euclidean ball B_R.  The smallest passing candidate is selected and C
    is the observed supremum of L* m + phi(m) inside the ball (floored at
    zero).  On failure the report carries the most violating point outside
    the largest candidate ball.
    """
    if params.dim != 1:
        raise ValueError("the scan certifier is one-dimensional")
    _check_mode_ranges(params, spec)
    x, v = _scan_points(cfg)
    xp = x[:, None]
    vp = v[:, None]
    lst = apply_Lstar_exact(xp, vp, params, spec, "weight_m")
    m = lyapunov_weight(xp, vp, params, spec)
    s = lst + phi(m, spec)  # must be <= 0 outside the ball
    r2 = x * x + v * v
    for radius in sorted(cfg.exclusion_radii):
        outside = r2 > radius * radius
        margins = -s[outside]
        mmin = float(np.min(margins))
        if mmin >= 0.0:
            inside = ~outside
            c_obs = float(np.max(s[inside])) if np.any(inside) else 0.0
            i = int(np.argmin(margins))
            wp = (float(x[outside][i]), float(v[outside][i]))
            return CertificateReport(
                passed=True,
                chosen_R=float(radius),
                chosen_C=max(c_obs, 0.0),
                min_margin_outside=mmin,
                worst_point=wp,
                spec_echo=spec,
            )
    radius = max(cfg.exclusion_radii)
    outside = r2 > radius * radius
    margins = -s[outside]
    i = int(np.argmin(margins))
    inside = ~outside
    c_obs = float(np.max(s[inside])) if np.any(inside) else 0.0
    return CertificateReport(
        passed=False,
        chosen_R=float(radius),
        chosen_C=max(c_obs, 0.0),
        min_margin_outside=float(margins[i]),
        worst_point=(float(x[outside][i]), float(v[outside][i])),
        spec_echo=spec,
    )


def equivalence_constants(
    params: ModelParams, spec: LyapunovSpec, cfg: ScanConfig
) -> tuple[float, float]:
    """Measured (c1, c2) with c1 E^ell <= H <= c2 E^ell on the scan box."""
    x, v = _scan_points(cfg)
    xp = x[:, None]
    vp = v[:, None]
    ratio = lyapunov_H(xp, vp, params, spec) / energy(xp, vp, params) ** spec.ell
    c1 = float(np.min(ratio))
    c2 = float(np.max(ratio))
    if c1 <= 0.0:
        raise ValueError(f"H is not positive on the scan box (c1={c1}); spec rejected")
    return c1, c2


# Documented coarse search grids for certificate hunting.  Candidates are
# tried in order and the first passing one is returned, so the result is
# deterministic.  delta values that would overflow exp(delta * H^(theta/2))
# at the box corner are skipped.
EXP_SEARCH_GRID: dict[str, tuple[float, ...]] = {
    "eps": (0.2, 0.3, 0.45),
    "a_exp": (1.0, 0.75, 0.5),
    "b_exp": (0.6, 0.5, 0.4, 0.7),
    "delta": (2.0, 1.5, 1.0, 0.5, 0.25, 0.1, 0.05),
}
POLY_SEARCH_GRID: dict[str, tuple[float, ...]] = {
    "eps": (0.3, 0.45, 0.2),
    "a_exp": (0.0, -0.25, 0.25),
    "b_exp": (0.9, 0.7, 0.5),
}
_MAX_LOG_WEIGHT = 600.0  # keep exp-mode weights inside float64 range


def find_certified_spec(
    params: ModelParams,
    cfg: ScanConfig,
    *,
    theta: float | None = None,
    ell: float = 2.0,
    k: float | None = None,
    search_grid: dict[str, tuple[float, ...]] | None = None,
) -> tuple[LyapunovSpec | None, CertificateReport]:
    """Coarse grid search for a certified Lyapunov spec.

    Exp equilibria: pass ``theta`` (the weight is exp(delta H^(theta/2))
    built on the quadratic-energy H, ell = 2 by default); the grid ranges
    over (eps, A, B, delta) from ``EXP_SEARCH_GRID``.  Poly equilibria:
    pass ``ell`` and ``k``; the grid ranges over (eps, A, B) from
    ``POLY_SEARCH_GRID``.

    Returns the first passing spec with its report, or (None, report) with
    the least-bad failing report if nothing in the grid passes.
    """
    best: CertificateReport | None = None
    if params.kind == "exp":
        if theta is None:
            raise ValueError("exp search needs theta")
        grid = search_grid or EXP_SEARCH_GRID
        corner = np.array([[cfg.x_half]]), np.array([[cfg.v_half]])
        for a_exp in grid["a_exp"]:
            for b_exp in grid["b_exp"]:
                for eps in grid["eps"]:
                    probe = LyapunovSpec(
                        ell=ell,
                        eps=eps,
                        a_exp=a_exp,
                        b_exp=b_exp,
                        mode=ExpWeight(theta=theta, delta=1.0),
                    )
                    if not probe.equivalence_ok(params.alpha):
                        continue
                    h_corner = lyapunov_H(
                        corner[0], corner[1], params, probe
                    ).item()
                    for delta in grid["delta"]:
                        if delta * h_corner ** (theta / 2.0) > _MAX_LOG_WEIGHT:
                            continue
                        spec = LyapunovSpec(
                            ell=ell,
                            eps=eps,
                            a_exp=a_exp,
                            b_exp=b_exp,
                            mode=ExpWeight(theta=theta, delta=delta),
                        )
                        report = scan_drift_inequality(params, spec, cfg)
                        if report.passed:
                            return spec, report
                        if best is None or (
                            report.min_margin_outside > best.min_margin_outside
                        ):
                            best = report
    else:
        if k is None:
            raise ValueError("poly search needs k")
        grid = search_grid or POLY_SEARCH_GRID
        for a_exp in grid["a_exp"]:
            for b_exp in grid["b_exp"]:
                for eps in grid["eps"]:
                    spec = LyapunovSpec(
                        ell=ell,
                        eps=eps,
                        a_exp=a_exp,
                        b_exp=b_exp,
                        mode=PolyWeight(k=k),
                    )
                    if not spec.equivalence_ok(params.alpha):
                        continue
                    report = scan_drift_inequality(params, spec, cfg)
                    if report.passed:
                        return spec, report
                    if best is None or (
                        report.min_margin_outside > best.min_margin_outside
                    ):
                        best = report
    assert best is not None, "empty search grid"
    return None, best
