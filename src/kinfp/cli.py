"""Command-line entry points tying the solver, certifier and diagnostics together.

Subcommands: ``simulate``, ``verify-lyapunov``, ``fit-rate``, ``steady-state``,
``export-reference``.  Exit codes: 0 success/pass, 1 usage, configuration or
input error (every ValueError or OSError a command raises ends there, with
its message), 2 verification failure, 3 numerical abort.

All real numbers in CSV output are written in scientific notation with 17
significant digits so 64-bit values round-trip bit-faithfully.  Every run
directory receives exactly one ``manifest.json`` naming each file the
command produced (the manifest also records the config echo, the package
version and the wall time; the data files themselves are deterministic for
a fixed config).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import SCHEMA, ConfigError, RunConfig, parse_config
from .diagnostics import (
    density,
    mass,
    rate_fit,
    reference_profile,
)
from .grid import Field
from .solver import (
    NumericalAbort,
    Sinks,
    default_initial_condition,
    read_checkpoint,
    run,
    steady_state_reference,
    write_checkpoint,
)
from .verify import find_certified_spec, scan_drift_inequality

FMT = "%.16e"  # 17 significant digits

# spec keys that ``verify-lyapunov --search`` chooses itself (delta only
# under lyapunov.mode = exp; the config refuses it under poly)
_SEARCHED_KEYS = ("lyapunov.eps", "lyapunov.a_exp", "lyapunov.b_exp", "lyapunov.delta")


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(FMT % float(c) for c in row) + "\n")


def _write_field_csv(path: Path, field: Field) -> None:
    g = field.grid
    xg = np.repeat(g.x_centers, g.Nv)
    vg = np.tile(g.v_centers, g.Nx)
    _write_csv(path, "x,v,f", zip(xg, vg, field.values.ravel()))


def _write_manifest(outdir: Path, command: str, cfg: RunConfig, outputs, t0: float):
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.entries},
        "outputs": sorted(outputs),
        "wall_time_s": time.time() - t0,
    }
    # written whole or not at all, as last_checkpoint.ckpt is
    tmp = outdir / "manifest.json.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, outdir / "manifest.json")
    finally:
        tmp.unlink(missing_ok=True)


def _load_config(path: str) -> RunConfig:
    return parse_config(Path(path).read_text())


def _initial_field(cfg: RunConfig, grid) -> Field:
    if cfg["initial.preset"] == "file":
        field, _ = read_checkpoint(cfg["initial.file"])
        if field.grid != grid:
            raise ConfigError(
                ["initial.file: checkpoint grid does not match the configured grid"]
            )
        return Field(field.values, grid, 0.0)
    return default_initial_condition(grid)


def _reference_field(cfg: RunConfig, grid, params) -> Field | None:
    source = cfg["diagnostics.reference"]
    if source == "none":
        return None
    if source == "profile":
        return reference_profile(grid, params, cfg["diagnostics.delta"], normalize=True)
    field, _ = read_checkpoint(cfg["diagnostics.reference_file"])
    if field.grid != grid:
        raise ConfigError(["diagnostics.reference_file: grid mismatch"])
    return field


def cmd_simulate(cfg: RunConfig, outdir: Path, resume: str | None = None) -> int:
    """Run the solver; ``run`` refuses a resume state it would not continue exactly."""
    t0 = time.time()
    params = cfg.model_params()
    solver_cfg = cfg.solver_config()
    grid = solver_cfg.grid
    outputs: list[str] = []
    snap_fmt = cfg["output.snapshot_format"]
    diag_rows: list[tuple] = []
    density_rows: list[tuple] = []
    distance_rows: list[tuple] = []
    reference = _reference_field(cfg, grid, params)
    if resume:
        field0, start_step = read_checkpoint(resume)
    else:
        field0, start_step = _initial_field(cfg, grid), 0

    # the output directory is made only once run has accepted the state:
    # its first sink call or its return comes after the resume checks
    def on_snapshot(field: Field, step: int):
        outdir.mkdir(parents=True, exist_ok=True)
        stem = f"snapshot_{step:08d}"
        if snap_fmt == "csv":
            name = stem + ".csv"
            _write_field_csv(outdir / name, field)
        else:
            name = stem + ".ckpt"
            write_checkpoint(field, step, outdir / name)
        outputs.append(name)
        # a process killed mid-write must not destroy the last good
        # checkpoint (no fsync: a power loss may still truncate it)
        tmp = outdir / "last_checkpoint.ckpt.tmp"
        write_checkpoint(field, step, tmp)
        os.replace(tmp, outdir / "last_checkpoint.ckpt")
        rho = density(field)
        density_rows.extend(
            (field.time_stamp, x, r) for x, r in zip(grid.x_centers, rho)
        )

    def on_diagnostics(rec):
        diag_rows.append(
            (
                rec.time,
                rec.mass,
                rec.min_value,
                rec.max_value,
                rec.l1_distance_to_reference if rec.l1_distance_to_reference is not None else np.nan,
            )
        )
        if rec.l1_distance_to_reference is not None:
            distance_rows.append((rec.time, rec.l1_distance_to_reference))

    sinks = Sinks(snapshot=on_snapshot, diagnostics=on_diagnostics, reference=reference)
    final = None
    try:
        final = run(solver_cfg, field0, sinks, start_step=start_step)
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)

    # an aborted run keeps every row it collected before the abort
    outdir.mkdir(parents=True, exist_ok=True)
    if (outdir / "last_checkpoint.ckpt").exists():
        outputs.append("last_checkpoint.ckpt")
    for name, header, rows in (
        ("diagnostics.csv", "t,mass,min,max,l1_to_reference", diag_rows),
        ("density_series.csv", "t,x,rho", density_rows),
        ("distance_series.csv", "t,distance", distance_rows),
    ):
        if rows:
            _write_csv(outdir / name, header, rows)
            outputs.append(name)
    _write_manifest(outdir, "simulate", cfg, outputs, t0)
    if final is None:
        return 3
    print(f"simulate: t={final.time_stamp:g} mass={mass(final):.12g} -> {outdir}")
    return 0


def cmd_verify_lyapunov(cfg: RunConfig, outdir: Path, search: bool = False) -> int:
    t0 = time.time()
    params = cfg.model_params()
    scan_cfg = cfg.scan_config()
    if search:
        chosen = [key for key in _SEARCHED_KEYS if cfg[key] != SCHEMA[key][1]]
        if chosen:
            raise ValueError(
                f"--search chooses {', '.join(chosen)} itself; leave them at their defaults"
            )
    if not search:
        report = scan_drift_inequality(params, cfg.lyapunov_spec(), scan_cfg)
    elif cfg["lyapunov.mode"] == "exp":
        _, report = find_certified_spec(
            params, scan_cfg, theta=cfg["lyapunov.theta"], ell=cfg["lyapunov.ell"]
        )
    else:
        _, report = find_certified_spec(
            params, scan_cfg, ell=cfg["lyapunov.ell"], k=cfg["lyapunov.k"]
        )
    outdir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"passed = {report.passed}",
        f"chosen_R = {report.chosen_R!r}",
        f"chosen_C = {report.chosen_C!r}",
        f"min_margin_outside = {report.min_margin_outside!r}",
        f"worst_point = {report.worst_point!r}",
        f"spec = {report.spec_echo!r}",
    ]
    (outdir / "certificate.txt").write_text("\n".join(lines) + "\n")
    _write_manifest(outdir, "verify-lyapunov", cfg, ["certificate.txt"], t0)
    print(report.summary())
    return 0 if report.passed else 2


def cmd_fit_rate(cfg: RunConfig, series_path: str, outdir: Path) -> int:
    t0 = time.time()
    rows = []
    with open(series_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#") or s.lower().startswith("t,"):
                continue
            parts = s.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 't,distance'")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(f"line {lineno}: cannot parse numbers") from None
    if not rows:
        raise ValueError("empty series")
    mode = cfg["diagnostics.rate_mode"]
    t = np.asarray(rows)[:, 0]
    span = t.max() - t.min()
    fit = rate_fit(
        rows,
        mode,
        theta=cfg["diagnostics.rate_theta"] if mode == "exp" else None,
        t_burn=t.min() + cfg["diagnostics.rate_burn_fraction"] * span,
    )
    outdir.mkdir(parents=True, exist_ok=True)
    lines = [
        f"mode = {fit.mode}",
        f"theta = {fit.theta!r}",
        f"fitted = {fit.fitted!r}",
        f"window = {fit.window!r}",
        f"residual_rms = {fit.residual_rms!r}",
    ]
    (outdir / "rate_fit.txt").write_text("\n".join(lines) + "\n")
    _write_manifest(outdir, "fit-rate", cfg, ["rate_fit.txt"], t0)
    label = "lambda" if mode == "exp" else "k"
    print(f"fit-rate: {label}={fit.fitted:.6g} residual_rms={fit.residual_rms:.3g}")
    return 0


def cmd_steady_state(cfg: RunConfig, outdir: Path, tol_rate: float) -> int:
    t0 = time.time()
    solver_cfg = cfg.solver_config()
    field0 = _initial_field(cfg, solver_cfg.grid)
    try:
        ref = steady_state_reference(solver_cfg, tol_rate=tol_rate, field0=field0)
    except (RuntimeError, NumericalAbort) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    outdir.mkdir(parents=True, exist_ok=True)
    write_checkpoint(ref, 0, outdir / "steady_state.ckpt")
    _write_csv(
        outdir / "steady_density.csv",
        "x,rho",
        zip(solver_cfg.grid.x_centers, density(ref)),
    )
    _write_manifest(
        outdir, "steady-state", cfg, ["steady_state.ckpt", "steady_density.csv"], t0
    )
    # every window but the last marches the full cadence
    dt = solver_cfg.resolve_dt()[0]
    steps = round((ref.time_stamp - field0.time_stamp) / dt)
    windows = -(-steps // solver_cfg.diagnostics_cadence)
    print(
        f"steady-state: frozen at t={ref.time_stamp:g} after {windows} windows "
        f"({steps} steps), mass={mass(ref):.12g}"
    )
    return 0


def cmd_export_reference(cfg: RunConfig, outdir: Path) -> int:
    t0 = time.time()
    params = cfg.model_params()
    grid = cfg.phase_grid()
    ref = reference_profile(grid, params, cfg["diagnostics.delta"], normalize=True)
    outdir.mkdir(parents=True, exist_ok=True)
    write_checkpoint(ref, 0, outdir / "reference_profile.ckpt")
    _write_field_csv(outdir / "reference_profile.csv", ref)
    _write_manifest(
        outdir,
        "export-reference",
        cfg,
        ["reference_profile.ckpt", "reference_profile.csv"],
        t0,
    )
    print(f"export-reference: delta={cfg['diagnostics.delta']:g} -> {outdir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kinfp",
        description="Finite-volume kinetic Fokker-Planck simulator and Lyapunov certifier",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="configuration file path")
        sp.add_argument("--output", default=None, help="output directory")

    sp = sub.add_parser("simulate", help="run the finite-volume solver")
    common(sp)
    sp.add_argument("--resume", default=None, help="checkpoint to continue from")

    sp = sub.add_parser("verify-lyapunov", help="scan the drift inequality")
    common(sp)
    sp.add_argument(
        "--search",
        action="store_true",
        help="grid-search (eps, A, B, delta) instead of using the configured spec",
    )

    sp = sub.add_parser("fit-rate", help="fit a decay law to a distance series")
    common(sp)
    sp.add_argument("--series", required=True, help="CSV file of t,distance rows")

    sp = sub.add_parser("steady-state", help="integrate to a steady reference field")
    common(sp)
    sp.add_argument("--tol-rate", type=float, default=1e-8, help="L1 rate tolerance")

    sp = sub.add_parser("export-reference", help="write the energy-profile reference")
    common(sp)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        outdir = Path(args.output) if args.output else Path(cfg["output.dir"])
        if args.command == "simulate":
            return cmd_simulate(cfg, outdir, resume=args.resume)
        if args.command == "verify-lyapunov":
            return cmd_verify_lyapunov(cfg, outdir, search=args.search)
        if args.command == "fit-rate":
            return cmd_fit_rate(cfg, args.series, outdir)
        if args.command == "steady-state":
            return cmd_steady_state(cfg, outdir, tol_rate=args.tol_rate)
        return cmd_export_reference(cfg, outdir)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
