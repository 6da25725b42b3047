"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the correctness checks of its outputs.

Only public entry points of ``kinfp.cli``, ``kinfp.solver``,
``kinfp.diagnostics`` and ``kinfp.verify`` are called, always through the
module attribute so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import kinfp.cli as cli
import kinfp.diagnostics as diagnostics
import kinfp.solver as solver
import kinfp.verify as verify

import checks

MODEL = ("model.alpha = 1.5", "model.kind = exp", "model.beta = 0.5")


@dataclass
class OpResult:
    code: int
    outdir: Path | None = None
    results: list = field(default_factory=list)  # certify: (regime, n, spec, report)


def seeded_datum(grid, seed: int) -> np.ndarray:
    """Positive unit-mass mix of shifted double-exponentials.

    The seed places three narrow bumps on the default profile
    exp(-|x|/2 - |v|/2).  The bumps decay faster than the profile, so the
    tails, which set how long the march to a steady state takes, are the
    same for every seed.  The mix is made even under (x, v) -> (-x, -v), so
    the steady state it relaxes to is even too.
    """
    rng = np.random.default_rng(seed)
    x = grid.x_centers[:, None]
    v = grid.v_centers[None, :]
    g = np.exp(-np.abs(x) / 2.0 - np.abs(v) / 2.0)
    for _ in range(3):
        a, b = rng.uniform(-3.0, 3.0, size=2)
        g += rng.uniform(0.25, 0.75) * np.exp(-np.abs(x - a) - np.abs(v - b))
    f = g + g[::-1, ::-1]
    return f / (f.sum() * grid.dx * grid.dv)


def _quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args, **kwargs)


class _Command:
    """A ``kinfp`` command run in process on a seeded initial datum."""

    name = ""
    reference = "none"

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.inputs = workdir / "inputs"
        self.config_path = self.inputs / "run.cfg"

    def config_lines(self) -> list[str]:
        raise NotImplementedError

    def setup(self) -> float:
        """Write the config and the initial checkpoint, build the reference
        and a Stepper as the command will; returns the config parse time."""
        self.inputs.mkdir(parents=True, exist_ok=True)
        initial = self.inputs / "initial.ckpt"
        text = "\n".join(
            [*MODEL, *self.config_lines(), "initial.preset = file",
             f"initial.file = {initial}", f"diagnostics.reference = {self.reference}"]
        ) + "\n"
        self.config_path.write_text(text)
        t0 = time.perf_counter()
        self.cfg = cli.parse_config(text)
        parse_s = time.perf_counter() - t0
        self.solver_cfg = self.cfg.solver_config()
        self.grid = grid = self.solver_cfg.grid
        self.initial = solver.Field(seeded_datum(grid, self.seed), grid, 0.0)
        solver.write_checkpoint(self.initial, 0, initial)
        if self.reference == "profile":
            diagnostics.reference_profile(
                grid, self.solver_cfg.model, self.cfg["diagnostics.delta"], normalize=True
            )
        solver.Stepper(grid, self.solver_cfg.model)
        self.dt, self.n_steps = self.solver_cfg.resolve_dt()
        return parse_s

    def argv(self, outdir: Path) -> list[str]:
        return [self.command, "--config", str(self.config_path), "--output", str(outdir)]

    def run(self, outdir: Path) -> OpResult:
        return OpResult(_quiet(cli.main, self.argv(outdir)), outdir)

    def count_steps(self, res: OpResult) -> int:
        return self.n_steps


class Simulate(_Command):
    command = "simulate"
    reference = "profile"

    def check(self, res: OpResult) -> list[str]:
        problems = checks.exit_code(res.code)
        if res.code == 0:
            problems += checks.diagnostics_series(res.outdir, self.n_steps * self.dt)
            problems += checks.manifest_complete(res.outdir)
        return problems

    def final_field(self, res: OpResult):
        return solver.read_checkpoint(res.outdir / "last_checkpoint.ckpt")[0]


class Simulate400(Simulate):
    """README production config: stepping 1.28 MB arrays is over 90% of the
    wall time, and with it the page faults and system time."""

    name = "simulate-400"
    STEPS = 40

    def config_lines(self):
        return [
            "grid.L = 400", "grid.v_max = 400", "grid.Nx = 400", "grid.Nv = 400",
            "time.dt = 6.25e-4", f"time.t_final = {self.STEPS * 6.25e-4!r}",
            "diagnostics.delta = 1.15", "diagnostics.cadence = 10",
            "diagnostics.snapshot_cadence = 20", "output.snapshot_format = checkpoint",
        ]


class SimulateCsv128(Simulate):
    """Desk box with CSV snapshots at short cadences: emission (cli and
    diagnostics) is about half the wall time, and the arrays fit in L2."""

    name = "simulate-csv-128"

    def config_lines(self):
        return [
            "grid.Nx = 128", "grid.Nv = 128", "time.dt = 7e-3", "time.t_final = 2.1",
            "diagnostics.cadence = 5", "diagnostics.snapshot_cadence = 20",
            "output.snapshot_format = csv",
        ]


class Steady96(_Command):
    """Time to a steady state of stated accuracy, however it is reached."""

    name = "steady-96"
    command = "steady-state"
    TOL_RATE = 1e-5
    WINDOW = 1000

    def config_lines(self):
        return [
            "grid.L = 30", "grid.v_max = 30", "grid.Nx = 96", "grid.Nv = 96",
            "time.t_final = 500", f"diagnostics.cadence = {self.WINDOW}",
        ]

    def argv(self, outdir):
        return super().argv(outdir) + ["--tol-rate", repr(self.TOL_RATE)]

    def count_steps(self, res: OpResult) -> int:
        # the step count to tolerance is the returned time stamp over dt
        return int(round(self.final_field(res).time_stamp / self.dt)) if res.code == 0 else 0

    def final_field(self, res: OpResult):
        return solver.read_checkpoint(res.outdir / "steady_state.ckpt")[0]

    def check(self, res: OpResult) -> list[str]:
        problems = checks.exit_code(res.code)
        if res.code != 0:
            return problems
        f = self.final_field(res)
        # the rate of one more window from the returned field
        stepper = solver.Stepper(f.grid, self.solver_cfg.model)
        values = f.values.copy()
        for _ in range(self.WINDOW):
            values = stepper.step(values, self.dt)
        after = solver.Field(values, f.grid, 0.0)
        rate = diagnostics.l1_distance(after, solver.Field(f.values, f.grid, 0.0)) / (
            self.WINDOW * self.dt
        )
        problems += checks.steady_field(
            f.values, diagnostics.mass(self.initial), diagnostics.mass(f), rate, self.TOL_RATE
        )
        problems += checks.manifest_complete(res.outdir)
        return problems


class Certify:
    """The four README certificate searches: the only workload that runs
    verify and model, and one a stepper change must leave flat."""

    name = "certify"
    grid = None  # no phase grid: nothing is stepped
    REGIMES = {
        "exp-a1.5-b0.5": ["model.alpha = 1.5", "model.kind = exp", "model.beta = 0.5",
                          "lyapunov.mode = exp", "lyapunov.theta = 0.25"],
        "exp-a2.0-b1.0": ["model.alpha = 2.0", "model.kind = exp", "model.beta = 1.0",
                          "lyapunov.mode = exp", "lyapunov.theta = 0.5"],
        "exp-a2.0-b3.0": ["model.alpha = 2.0", "model.kind = exp", "model.beta = 3.0",
                          "lyapunov.mode = exp", "lyapunov.theta = 1.0"],
        "poly-a2.0-g2.0": ["model.alpha = 2.0", "model.kind = poly", "model.gamma = 2.0",
                           "lyapunov.mode = poly", "lyapunov.ell = 1.75", "lyapunov.k = 1.5"],
    }
    SAMPLES = (256, 1024)

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir  # the searches do not depend on the seed

    def setup(self) -> float:
        self.searches = []
        parse_s = 0.0
        for n in self.SAMPLES:
            for regime, lines in self.REGIMES.items():
                text = "\n".join([*lines, f"lyapunov.samples = {n}"]) + "\n"
                t0 = time.perf_counter()
                cfg = cli.parse_config(text)
                parse_s += time.perf_counter() - t0
                if cfg["lyapunov.mode"] == "exp":
                    kw = dict(theta=cfg["lyapunov.theta"], ell=cfg["lyapunov.ell"])
                else:
                    kw = dict(ell=cfg["lyapunov.ell"], k=cfg["lyapunov.k"])
                self.searches.append((regime, n, cfg.model_params(), cfg.scan_config(), kw))
        return parse_s

    def run(self, outdir) -> OpResult:
        res = OpResult(0)
        for regime, n, params, scan_cfg, kw in self.searches:
            spec, report = verify.find_certified_spec(params, scan_cfg, **kw)
            res.results.append((regime, n, spec, report))
        return res

    def check(self, res: OpResult) -> list[str]:
        problems = []
        for regime, n, spec, report in res.results:
            problems += checks.certificate(regime, n, spec, report)
        return problems

    def count_steps(self, res: OpResult) -> int:
        return len(res.results)  # one "step" of certify is one search

    def final_field(self, res):
        return None


WORKLOADS = {w.name: w for w in (Simulate400, SimulateCsv128, Steady96, Certify)}
