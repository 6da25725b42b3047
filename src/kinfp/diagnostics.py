"""Observables and post-processing for solver output.

Everything here is a pure function over immutable snapshots: mass, spatial
density, (weighted) L1 distances, the energy-profile reference field, the
energy scatter with its dispersion statistic, tail-asymptotic comparison,
and least-squares fitting of sub-geometric decay laws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, PhaseGrid
from .model import ModelParams, asymptotic_density, energy

__all__ = [
    "DiagnosticsRecord",
    "RateFit",
    "EnergyScatter",
    "TailComparison",
    "mass",
    "density",
    "l1_distance",
    "reference_profile",
    "energy_scatter",
    "tail_comparison",
    "rate_fit",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar observables emitted on a cadence during a run."""

    time: float
    mass: float
    min_value: float
    max_value: float
    l1_distance_to_reference: float | None = None


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of a sub-geometric decay law to a distance series."""

    mode: str  # "exp" (log dist ~ -lam t^theta) or "poly" (log dist ~ -k log(1+t))
    theta: float | None
    fitted: float  # lam-hat or k-hat
    window: tuple[float, float]
    residual_rms: float


@dataclass(frozen=True)
class EnergyScatter:
    """Per-cell (E, f) pairs plus an energy-binned dispersion statistic."""

    energies: np.ndarray
    values: np.ndarray
    dispersion: float
    bins: int


@dataclass(frozen=True)
class TailComparison:
    """Deviation of a density tail from the closed-form asymptotic."""

    max_rel_deviation: float
    delta_hat: float
    window: tuple[float, float]


def density(field: Field) -> np.ndarray:
    """Spatial density rho_n = sum_m f_{n,m} dv."""
    return field.values.sum(axis=1) * field.grid.dv


def mass(field: Field) -> float:
    """Total mass sum f dx dv, accumulated exactly as sum(density) dx."""
    return float(density(field).sum() * field.grid.dx)


def l1_distance(f: Field, g: Field, weight: np.ndarray | None = None) -> float:
    """Weighted L1 distance sum |f - g| w dx dv (w = 1 when absent)."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    diff = np.abs(f.values - g.values)
    if weight is not None:
        w = np.asarray(weight, dtype=np.float64)
        if w.shape != diff.shape:
            raise ValueError("weight shape does not match the fields")
        diff = diff * w
    return float(diff.sum() * f.grid.cell_volume)


def reference_profile(
    grid: PhaseGrid, params: ModelParams, delta: float, normalize: bool = False
) -> Field:
    """Energy profile exp(-delta E^(beta/2)) sampled at cell centers.

    This is the closed-form stand-in for the (non-explicit) steady state of
    the sub-exponential model; optionally normalised to unit mass.
    """
    if params.kind != "exp":
        raise ValueError("the energy reference profile needs an exp equilibrium")
    if not delta >= 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    e = energy(grid.x_centers[:, None], grid.v_centers, params)
    vals = np.exp(-delta * e ** (params.beta / 2.0))
    f = Field(vals, grid, 0.0)
    if normalize:
        f.values /= mass(f)
    return f


def energy_scatter(
    field: Field, params: ModelParams, bins: int = 64, mass_coverage: float = 0.999
) -> EnergyScatter:
    """One (E, f) pair per cell plus the vertical dispersion of the scatter.

    The scatter carries every cell.  The dispersion is the root-mean-square
    spread of log f around its bin mean, over ``bins`` uniform energy bins
    spanning the occupied range (the energy interval carrying
    ``mass_coverage`` of the field's |f|; higher cells fall into the last
    bin).  The log scale matches the decades the density spans on the
    scatter plot: it vanishes up to binning error exactly when f is a
    function of the energy alone, whereas a linear-f spread is dominated by
    how steeply the profile itself decays across the lowest bin and cannot
    separate an exact energy profile from a genuinely scattered field.
    Cells with f <= 0 are excluded from the dispersion (not the scatter).
    """
    g = field.grid
    e = energy(g.x_centers[:, None], g.v_centers, params).ravel()
    f = field.values.ravel()
    lo = float(e.min())
    total = float(np.abs(f).sum())
    if total > 0.0:
        order = np.argsort(e, kind="stable")
        cum = np.cumsum(np.abs(f[order]))
        cut = int(np.searchsorted(cum, mass_coverage * total))
        hi = float(e[order[min(cut, e.size - 1)]])
    else:
        hi = float(e.max())
    if hi <= lo:
        hi = float(e.max())
    pos = f > 0.0
    if not np.any(pos):
        return EnergyScatter(energies=e, values=f, dispersion=0.0, bins=bins)
    ep, logf = e[pos], np.log(f[pos])
    idx = np.minimum(((ep - lo) / (hi - lo) * bins).astype(np.int64), bins - 1)
    sums = np.bincount(idx, weights=logf, minlength=bins)
    counts = np.bincount(idx, minlength=bins)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    dev = logf - means[idx]
    return EnergyScatter(
        energies=e, values=f, dispersion=float(np.sqrt(np.mean(dev * dev))), bins=bins
    )


def tail_comparison(
    x: np.ndarray,
    rho: np.ndarray,
    params: ModelParams,
    delta: float,
    window: tuple[float, float],
) -> TailComparison:
    """Compare a density tail against the closed-form asymptotic.

    Returns the maximum relative deviation |rho / rho_asym - 1| over the
    window together with the best-fit decay parameter delta-hat: the known
    power-law prefactor |x|^((alpha/2)(1-beta/2)) is divided out and the
    remaining log density is regressed linearly against
    (<x>^alpha / alpha)^(beta/2), whose slope is -delta-hat.  Without the
    prefactor removal the fitted slope absorbs part of the power law and
    underestimates delta; with it, densities built from the closed form
    return delta exactly.  The fit is invariant under rescaling rho by a
    positive constant.
    """
    if params.kind != "exp":
        raise ValueError("tail comparison needs an exp equilibrium")
    x = np.asarray(x, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    lo, hi = window
    if not lo < hi:
        raise ValueError("empty window")
    sel = (x >= lo) & (x <= hi)
    if sel.sum() < 2:
        raise ValueError("window contains fewer than two samples")
    xs, rs = x[sel], rho[sel]
    if np.any(rs <= 0.0):
        raise ValueError("window contains nonpositive density values")
    ref = asymptotic_density(xs, params.alpha, params.beta, delta)
    dev = float(np.max(np.abs(rs / ref - 1.0)))
    u = (np.sqrt(1.0 + xs * xs) ** params.alpha / params.alpha) ** (params.beta / 2.0)
    pref_exp = (params.alpha / 2.0) * (1.0 - params.beta / 2.0)
    y = np.log(rs) - pref_exp * np.log(np.abs(xs))
    slope, _ = np.polyfit(u, y, 1)
    return TailComparison(max_rel_deviation=dev, delta_hat=float(-slope), window=window)


def rate_fit(
    series,
    mode: str,
    theta: float | None = None,
    t_burn: float | None = None,
) -> RateFit:
    """Fit a sub-geometric decay law to a (t, distance) series.

    ``mode="exp"`` fits log(dist) = a - lam t^theta (requires ``theta``);
    ``mode="poly"`` fits log(dist) = a - k log(1 + t).  An initial transient
    t < t_burn is dropped before fitting; the default burn-in is 10% of the
    series time span.  At least 8 samples must survive.
    """
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("series must be an (N, 2) array of (t, distance) rows")
    t, dist = arr[:, 0], arr[:, 1]
    if t_burn is None:
        t_burn = t.min() + 0.1 * (t.max() - t.min())
    keep = t >= t_burn
    t, dist = t[keep], dist[keep]
    if np.any(dist <= 0.0):
        raise ValueError("distances must be positive on the fit window")
    if t.size < 8:
        raise ValueError(f"need at least 8 samples after burn-in, got {t.size}")
    if mode == "exp":
        if theta is None or not 0.0 < theta <= 1.0:
            raise ValueError("exp mode needs theta in (0, 1]")
        s = t**theta
    elif mode == "poly":
        s = np.log1p(t)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    y = np.log(dist)
    slope, intercept = np.polyfit(s, y, 1)
    resid = y - (slope * s + intercept)
    return RateFit(
        mode=mode,
        theta=theta if mode == "exp" else None,
        fitted=float(-slope),
        window=(float(t.min()), float(t.max())),
        residual_rms=float(np.sqrt(np.mean(resid * resid))),
    )
