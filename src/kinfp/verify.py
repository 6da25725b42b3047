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
certified literally, with the scanned C absorbing all constants.  The
scan points are a tensor-product grid plus both coordinate axes, and the
scan keeps only the two axes: it evaluates s = L* m + phi(m) with
:func:`kinfp.model.drift_excess` on blocks of whole grid rows, an x
column broadcast against the v row, so terms of one coordinate are
computed once per axis value.  Its memory grows with the sample count
only through s, r^2 and the radius masks.  The search shares the axes
and r^2 across its candidates and stops scanning a failing candidate at
its first violating block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ExpWeight,
    LyapunovSpec,
    ModelParams,
    PolyWeight,
    apply_Lstar_exact,
    drift_excess,
    equilibrium_drift,
    grad_potential,
    lyapunov_H,
)

__all__ = [
    "ScanConfig",
    "CertificateReport",
    "apply_Lstar_fd",
    "apply_Lstar_fd_richardson",
    "lstar_term_scale",
    "scan_drift_inequality",
    "find_certified_spec",
    "EXP_SEARCH_GRID",
    "POLY_SEARCH_GRID",
]

# Grid points per block of the drift scan: a block is max(1, _SCAN_CHUNK // n)
# grid rows of n points, so each mixed temporary of drift_excess is about
# 128 KiB.  The eight benchmark searches (256 and 1024 samples per axis) took,
# median of seven in-process runs on a 2-vCPU Xeon with AVX-512: 0.95 s at
# 2^12, 0.76 s at 2^13, 0.68 s at 2^14, 0.68 s at 2^15 and 0.75 s at 2^16;
# one block took 2.4 s.
_SCAN_CHUNK = 1 << 14


@dataclass(frozen=True)
class ScanConfig:
    """Sampling plan for the drift-inequality scan.

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
        problems = []
        if self.samples_per_axis < 16:
            problems.append(
                f"samples_per_axis must be at least 16, got {self.samples_per_axis}"
            )
        if not (0 < self.x_half < np.inf and 0 < self.v_half < np.inf):
            problems.append("box half-widths must be positive and finite")
        if not self.exclusion_radii:
            problems.append("need at least one candidate radius")
        elif not max(self.exclusion_radii) < min(self.x_half, self.v_half):
            problems.append(
                f"candidate radii must be smaller than the box, got {self.exclusion_radii} "
                f"for half-widths {self.x_half} and {self.v_half}"
            )
        if problems:
            raise ValueError("; ".join(problems))


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
    return np.abs(p1) * (ep + ct) + np.abs(p2) * (g * g)


def _scan_points(cfg: ScanConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan's axes xs, vs (n samples across each side of the box) and
    r^2 at its points.

    The points are the grid (xs[i], vs[j]) in x-major order, then the
    x-axis (xs[i], 0), then the v-axis (0, vs[j]): n^2 + 2n of them.
    """
    n = cfg.samples_per_axis
    xs = np.linspace(-cfg.x_half, cfg.x_half, n)
    vs = np.linspace(-cfg.v_half, cfg.v_half, n)
    grid = (xs * xs)[:, None] + (vs * vs)[None, :]
    return xs, vs, np.concatenate([grid.reshape(-1), xs * xs, vs * vs])


def _point(i: int, xs, vs) -> tuple[float, float]:
    """The scan point with index i in the order of :func:`_scan_points`."""
    n = xs.size
    if i < n * n:
        return float(xs[i // n]), float(vs[i % n])
    i -= n * n
    return (float(xs[i]), 0.0) if i < n else (0.0, float(vs[i - n]))


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


def _drift_excess_chunks(
    params: ModelParams, spec: LyapunovSpec, xs, vs, r2, stop_radius: float | None = None
) -> np.ndarray | None:
    """s = L* m + phi(m) at the scan points, filled in blocks of grid rows.

    Each block is max(1, _SCAN_CHUNK // n) x-rows of the grid, evaluated
    by broadcasting an x column against the v row, so terms of one
    coordinate are computed once per axis value.  The 2n axis points are
    filled with the last block.  With ``stop_radius`` it returns None
    after the first block, short of the last, holding a point with
    r > stop_radius where not s <= 0 (s > 0 or NaN): every candidate
    radius up to stop_radius then fails.
    """
    n = xs.size
    rows = max(1, _SCAN_CHUNK // n)
    s = np.empty_like(r2)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        block = s[r0 * n : r1 * n]
        block[:] = drift_excess(xs[r0:r1, None], vs, params, spec).reshape(-1)
        if stop_radius is not None and r1 < n:
            outside = r2[r0 * n : r1 * n] > stop_radius * stop_radius
            if not np.max(block, where=outside, initial=-np.inf) <= 0.0:
                return None
    zeros = np.zeros(n)
    s[n * n :] = drift_excess(
        np.concatenate([xs, zeros]), np.concatenate([zeros, vs]), params, spec
    )
    return s


def _report(s, xs, vs, r2, cfg: ScanConfig, spec: LyapunovSpec) -> CertificateReport:
    """The report of s over the points; overwrites s inside the chosen ball."""
    for radius in sorted(cfg.exclusion_radii):  # ends on the largest if none passes
        inside = r2 <= radius * radius
        worst = float(np.max(s, where=~inside, initial=-np.inf))
        if worst <= 0.0:
            break
    c_obs = float(np.max(s, where=inside, initial=-np.inf))
    np.copyto(s, -np.inf, where=inside)  # the worst point lies outside the ball
    i = int(np.argmax(s))
    return CertificateReport(
        passed=worst <= 0.0,
        chosen_R=float(radius),
        chosen_C=max(c_obs, 0.0),
        min_margin_outside=-worst,
        worst_point=_point(i, xs, vs),
        spec_echo=spec,
    )


def _scan(
    params: ModelParams, spec: LyapunovSpec, cfg: ScanConfig, points, fail_fast: bool = False
) -> CertificateReport | None:
    """The scan of ``spec`` over ``points`` from :func:`_scan_points`.

    With ``fail_fast`` a spec with a violation outside the largest
    candidate radius before its last block gives None there; a spec that
    reaches its last block gives its report.
    """
    _check_mode_ranges(params, spec)
    stop = max(cfg.exclusion_radii) if fail_fast else None
    s = _drift_excess_chunks(params, spec, *points, stop_radius=stop)
    return None if s is None else _report(s, *points, cfg, spec)


def scan_drift_inequality(
    params: ModelParams, spec: LyapunovSpec, cfg: ScanConfig
) -> CertificateReport:
    """Scan the pointwise drift inequality L* m <= C 1_{B_R} - phi(m).

    With s = L* m + phi(m), a candidate radius R passes when s <= 0 at every
    sampled point outside the Euclidean ball B_R.  The report is built for
    the smallest passing candidate, or for the largest candidate when none
    passes: its margin is -max(s) outside the ball, its worst point the
    first point attaining that maximum, and C the largest s inside the
    ball, floored at zero.  A NaN of s outside the ball fails every
    candidate and gives a NaN margin at the first NaN point.
    """
    return _scan(params, spec, cfg, _scan_points(cfg))


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
    ``POLY_SEARCH_GRID``.  A is the outermost loop, then B, eps and delta;
    candidates failing ``LyapunovSpec.equivalence_ok`` are skipped.

    Returns the first passing spec with its report.  If nothing passes it
    returns (None, report) with the first report of the largest
    ``min_margin_outside``; a grid without any candidate raises ValueError.

    The candidates share one set of scan points.  A candidate passes if and
    only if s <= 0 at every point outside the largest candidate radius, so
    a failing candidate stops at its first block with s > 0 or NaN there,
    and a candidate that reaches its last block is reported from the s it
    holds.  Only a search that passes nothing rescans the failed
    candidates that stopped early, in full, for their reports: at most one
    extra full scan per candidate.
    """
    if params.kind == "exp":
        if theta is None:
            raise ValueError("exp search needs theta")
        grid = search_grid or EXP_SEARCH_GRID
        base = ExpWeight(theta=theta, delta=1.0)
        # one-element arrays: numpy's scalar pow rounds differently from
        # the array loop that the scan uses
        corner = np.array([cfg.x_half]), np.array([cfg.v_half])

        def modes(probe: LyapunovSpec) -> list:
            h_corner = lyapunov_H(*corner, params, probe).item()
            return [
                ExpWeight(theta=theta, delta=delta)
                for delta in grid["delta"]
                if not delta * h_corner ** (theta / 2.0) > _MAX_LOG_WEIGHT
            ]
    else:
        if k is None:
            raise ValueError("poly search needs k")
        grid = search_grid or POLY_SEARCH_GRID
        base = PolyWeight(k=k)

        def modes(probe: LyapunovSpec) -> list:
            return [base]

    points = _scan_points(cfg)
    failed = []
    for a_exp, b_exp, eps in itertools.product(grid["a_exp"], grid["b_exp"], grid["eps"]):
        probe = LyapunovSpec(ell=ell, eps=eps, a_exp=a_exp, b_exp=b_exp, mode=base)
        if not probe.equivalence_ok(params.alpha):
            continue
        for mode in modes(probe):
            spec = replace(probe, mode=mode)
            report = _scan(params, spec, cfg, points, fail_fast=True)
            if report is not None and report.passed:
                return spec, report
            failed.append((spec, report))
    if not failed:
        raise ValueError("the search grid holds no admissible candidate")
    best = None
    for spec, report in failed:
        if report is None:
            report = _scan(params, spec, cfg, points)
        if best is None or report.min_margin_outside > best.min_margin_outside:
            best = report
    return None, best
