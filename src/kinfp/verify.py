"""A grid-scan certifier of the Lyapunov drift inequality.

It tests the drift condition

    L* m <= C 1_{B_R} - phi(m)

pointwise on a box, reporting the smallest admissible exclusion radius R,
the observed constant C inside the ball, and the worst margin outside.

The scan is a numerical check at sampled points, not a proof: "<=" is
certified literally, with the scanned C absorbing all constants.  The
scan points are one tensor-product grid of two exactly antisymmetric
axes that each hold 0, so it covers both coordinate axes and the origin
(the tightest points of the inequality sit near the axes).  s = L* m +
phi(m) is even under (x, v) -> (-x, -v) bit for bit, so the scan
evaluates it with :func:`kinfp.model.drift_excess` only on the grid rows
with x <= 0, in blocks of rows, an x column broadcast against the v row.
Its memory grows with the sample count only through the half grid's s,
r^2 and radius masks.  The search shares the points across its
candidates and stops a failing candidate at its first violating block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .model import ExpWeight, LyapunovSpec, ModelParams, PolyWeight, drift_excess, lyapunov_H

__all__ = [
    "ScanConfig",
    "CertificateReport",
    "check_weight_mode",
    "scan_drift_inequality",
    "find_certified_spec",
    "EXP_SEARCH_GRID",
    "POLY_SEARCH_GRID",
]

# Grid points per block of the drift scan: a block is max(1, _SCAN_CHUNK // n)
# grid rows of n points, so each mixed temporary of drift_excess is about
# 128 KiB.  The eight benchmark searches (256 and 1024 samples per axis, the
# rows with x <= 0) took, median of seven in-process runs in each of two
# rounds on a 2-vCPU Xeon with AVX-512: 0.18 s at 2^12, 0.135-0.144 s at
# 2^13, 0.123-0.126 s at 2^14, 0.120-0.128 s at 2^15 and 0.130-0.142 s at
# 2^16; one block took 0.34-0.37 s.  2^15 is no faster and doubles the
# temporaries.
_SCAN_CHUNK = 1 << 14


@dataclass(frozen=True)
class ScanConfig:
    """Sampling plan for the drift-inequality scan.

    The scan covers the box [-x_half, x_half] x [-v_half, v_half] with a
    tensor-product grid of ``samples_per_axis`` equispaced points per axis
    plus 0 (an odd count's middle point is 0), so the grid takes in both
    coordinate axes and the origin (the tightest points of the inequality
    sit near the axes).  The axes are exactly antisymmetric, and the scan
    evaluates the grid's rows with x <= 0.
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


def _axis(half: float, n: int) -> np.ndarray:
    """n equispaced samples across [-half, half] and an exact 0 (added for
    an even n, the middle sample for an odd n), exactly antisymmetric: the
    negative samples are linspace's and the positive ones their negation."""
    neg = np.linspace(-half, half, n)[: n // 2]
    return np.concatenate([neg, [0.0], -neg[::-1]])


def _scan_points(cfg: ScanConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan's rows xs (the x axis's part with x <= 0), its v axis vs
    (see :func:`_axis`) and r^2, the squared radii of the points (xs[i],
    vs[j]).  s(-x, -v) = s(x, v) bit for bit, so these rows, the whole
    grid's first in x-major order, hold every value of s and its first
    worst point."""
    xs = _axis(cfg.x_half, cfg.samples_per_axis)[: cfg.samples_per_axis // 2 + 1]
    vs = _axis(cfg.v_half, cfg.samples_per_axis)
    return xs, vs, (xs * xs)[:, None] + (vs * vs)[None, :]


def check_weight_mode(params: ModelParams, spec: LyapunovSpec) -> None:
    """Refuse a weight mode that does not fit the equilibrium family: the
    exp weight needs an exp model with theta <= min(1, beta/2), the poly
    weight a poly model with 3/2 < ell < 1 + gamma/2."""
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
    """s = L* m + phi(m) on the scan grid, filled in blocks of grid rows.

    Each block is max(1, _SCAN_CHUNK // vs.size) x-rows of the grid,
    evaluated by broadcasting an x column against the v row, so terms of
    one coordinate are computed once per axis value.  With
    ``stop_radius`` it returns None after the first block, short of the
    last, holding a point with r > stop_radius where not s <= 0 (s > 0 or
    NaN): every candidate radius up to stop_radius then fails.
    """
    rows = max(1, _SCAN_CHUNK // vs.size)
    s = np.empty_like(r2)
    for r0 in range(0, xs.size, rows):
        r1 = r0 + rows
        s[r0:r1] = drift_excess(xs[r0:r1, None], vs, params, spec)
        if stop_radius is not None and r1 < xs.size:
            outside = r2[r0:r1] > stop_radius * stop_radius
            if not np.max(s[r0:r1], where=outside, initial=-np.inf) <= 0.0:
                return None
    return s


def _report(s, xs, vs, r2, cfg: ScanConfig, spec: LyapunovSpec) -> CertificateReport:
    """The report of s over the grid; overwrites s inside the chosen ball."""
    for radius in sorted(cfg.exclusion_radii):  # ends on the largest if none passes
        inside = r2 <= radius * radius
        worst = float(np.max(s, where=~inside, initial=-np.inf))
        if worst <= 0.0:
            break
    c_obs = float(np.max(s, where=inside, initial=-np.inf))
    np.copyto(s, -np.inf, where=inside)  # the worst point lies outside the ball
    i, j = np.unravel_index(np.argmax(s), s.shape)
    return CertificateReport(
        passed=worst <= 0.0,
        chosen_R=float(radius),
        chosen_C=max(c_obs, 0.0),
        min_margin_outside=-worst,
        worst_point=(float(xs[i]), float(vs[j])),
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
    check_weight_mode(params, spec)
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
    first grid point in x-major order attaining that maximum, and C the
    largest s inside the ball (the origin included), floored at zero.  A
    NaN of s outside the ball fails every candidate and gives a NaN margin
    at the first NaN point.  s(-x, -v) = s(x, v), so the worst point has
    x <= 0: a point with x > 0 ties with its mirror, which comes first.
    """
    return _scan(params, spec, cfg, _scan_points(cfg))


# Documented coarse search grids for certificate hunting.  Candidates are
# tried in order and the first passing one is returned, so the result is
# deterministic.  delta values whose log weight delta * H^(theta/2) at the
# box corner exceeds _MAX_LOG_WEIGHT are skipped.
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
# The largest log weight at the box corner that the exp search tries.  A
# search policy, not a float guard: an overflowing weight makes s NaN and
# fails the scan anyway.  It decides the alpha = 2, beta = 3 search, where
# it skips (eps 0.2, A 1, B 0.6, delta 0.25), whose corner exponent is
# 625.2 and which passes with R = 40; dropping it changes that certificate.
_MAX_LOG_WEIGHT = 600.0


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
