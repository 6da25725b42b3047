"""Uniform cell-centered phase-space mesh and cell-averaged fields (d = 1)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PhaseGrid", "Field"]


@dataclass(frozen=True)
class PhaseGrid:
    """Rectangular phase-space box [-L, L] x [-v_max, v_max], uniform cells.

    Cell centers are x_n = -L + (n + 1/2) dx and v_m = -v_max + (m + 1/2) dv
    with dx = 2L/Nx, dv = 2 v_max/Nv; they are built in a form that is
    exactly antisymmetric in floating point (x_n = -x_{Nx-1-n}).  Once
    checked, L and v_max are stored as floats and Nx and Nv as ints.
    """

    L: float
    v_max: float
    Nx: int
    Nv: int

    def __post_init__(self):
        problems = [
            f"{name} must be positive and finite, got {w}"
            for name, w in (("L", self.L), ("v_max", self.v_max))
            if not 0 < w < np.inf
        ]
        problems += [
            f"{name} must be an even positive integer, got {n}"
            for name, n in (("Nx", self.Nx), ("Nv", self.Nv))
            if n % 1 != 0 or n <= 0 or n % 2 != 0
        ]
        if problems:
            raise ValueError("; ".join(problems))
        for name, cast in (("L", float), ("v_max", float), ("Nx", int), ("Nv", int)):
            object.__setattr__(self, name, cast(getattr(self, name)))

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.Nx

    @property
    def dv(self) -> float:
        return 2.0 * self.v_max / self.Nv

    @property
    def x_centers(self) -> np.ndarray:
        return (np.arange(self.Nx) - (self.Nx - 1) / 2.0) * self.dx

    @property
    def v_centers(self) -> np.ndarray:
        return (np.arange(self.Nv) - (self.Nv - 1) / 2.0) * self.dv

    @property
    def v_faces_interior(self) -> np.ndarray:
        """Interior velocity faces v_{m+1/2}, m = 0..Nv-2."""
        return (np.arange(1, self.Nv) - self.Nv / 2.0) * self.dv

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dv


@dataclass
class Field:
    """Cell values f_{n,m} on a PhaseGrid (x along axis 0, v along axis 1)."""

    values: np.ndarray
    grid: PhaseGrid
    time_stamp: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.Nx, self.grid.Nv):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.Nx}, {self.grid.Nv})"
            )
        if not 0.0 <= self.time_stamp < np.inf:
            raise ValueError(f"time_stamp must be nonnegative and finite, got {self.time_stamp}")
