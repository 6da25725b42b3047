"""Correctness checks on what one benchmark operation produced.

Every check returns a list of failure messages; an empty list means the
output is correct.  The checks read the files a command wrote, so a
corrupted file makes them fire (``selftest.py`` shows each one firing).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

MASS_DRIFT_MAX = 1e-10
NEGATIVE_FLOOR = 1e-14  # min >= -NEGATIVE_FLOOR * max
SYMMETRY_MAX = 1e-6

# README certificate table: (eps, A, B, delta, R) per regime; delta is None
# for the polynomial weight.
CERTIFICATES = {
    "exp-a1.5-b0.5": (0.2, 1.0, 0.6, 2.0, 20.0),
    "exp-a2.0-b1.0": (0.2, 1.0, 0.6, 1.0, 25.0),
    "exp-a2.0-b3.0": (0.45, 1.0, 0.6, 0.1, 45.0),
    "poly-a2.0-g2.0": (0.3, 0.0, 0.9, None, 35.0),
}


def exit_code(code: int) -> list[str]:
    return [] if code == 0 else [f"command exited with {code}"]


def manifest_complete(outdir: Path) -> list[str]:
    """The manifest names every file in the directory and nothing else."""
    path = outdir / "manifest.json"
    if not path.is_file():
        return ["manifest.json missing"]
    listed = set(json.loads(path.read_text())["outputs"])
    present = {p.name for p in outdir.iterdir()} - {"manifest.json"}
    problems = []
    if present - listed:
        problems.append(f"files not in the manifest: {sorted(present - listed)}")
    if listed - present:
        problems.append(f"manifest names missing files: {sorted(listed - present)}")
    return problems


def diagnostics_series(outdir: Path, t_final: float) -> list[str]:
    """Mass drift, positivity and the final time of diagnostics.csv."""
    path = outdir / "diagnostics.csv"
    if not path.is_file():
        return ["diagnostics.csv missing"]
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[0] < 2:
        return [f"diagnostics.csv has {rows.shape[0]} rows"]
    t, m, lo, hi = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    problems = []
    drift = float(np.max(np.abs(m - m[0])) / abs(m[0]))
    if not drift < MASS_DRIFT_MAX:
        problems.append(f"relative mass drift {drift:.3e} >= {MASS_DRIFT_MAX:g}")
    worst = float(np.min(lo + NEGATIVE_FLOOR * hi))
    if not worst >= 0.0:
        problems.append(f"min below -{NEGATIVE_FLOOR:g}*max (min column {lo.min():.3e})")
    if not abs(t[-1] - t_final) <= 1e-12 * max(1.0, t_final):
        problems.append(f"last row at t={float(t[-1])!r}, expected {t_final!r}")
    return problems


def steady_field(values: np.ndarray, mass0: float, mass1: float, rate: float,
                 tol_rate: float) -> list[str]:
    """Window rate, even symmetry f(x, v) = f(-x, -v) and mass of a steady field."""
    problems = []
    if not rate < tol_rate:
        problems.append(f"window rate {rate:.3e} >= tolerance {tol_rate:g}")
    asym = float(np.max(np.abs(values - values[::-1, ::-1])))
    if not asym <= SYMMETRY_MAX:
        problems.append(f"even-symmetry defect {asym:.3e} > {SYMMETRY_MAX:g}")
    drift = abs(mass1 - mass0) / abs(mass0)
    if not drift < MASS_DRIFT_MAX:
        problems.append(f"relative mass drift {drift:.3e} >= {MASS_DRIFT_MAX:g}")
    return problems


def certificate(regime: str, samples: int, spec, report) -> list[str]:
    """A search result equals the README table entry for its regime."""
    want = CERTIFICATES[regime]
    if spec is None or not report.passed:
        return [f"{regime}@{samples}: no certificate found"]
    delta = getattr(spec.mode, "delta", None)
    got = (spec.eps, spec.a_exp, spec.b_exp, delta, report.chosen_R)
    if got != want:
        return [f"{regime}@{samples}: (eps, A, B, delta, R) = {got}, expected {want}"]
    return []


def repeats_identical(digests: set[str]) -> list[str]:
    """Repeats of one seed must end on bit-identical fields."""
    return [] if len(digests) <= 1 else ["final field differs between repeats of one seed"]


def payload_sha256(values: np.ndarray) -> str:
    """Digest of a field's cell values as little-endian float64, x-major."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()
