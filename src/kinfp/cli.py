"""Command-line entry points tying the solver, certifier and diagnostics together.

Subcommands: ``simulate``, ``verify-lyapunov``, ``fit-rate``, ``steady-state``,
``export-reference``.  Exit codes: 0 success/pass, 1 usage, configuration or
input error (every ValueError or OSError a command raises ends there, with
its message), 2 verification failure, 3 numerical abort.

All real numbers in CSV output are written in scientific notation with 17
significant digits so 64-bit values round-trip bit-faithfully.  Each
subparser names its ``cmd_*`` function, which ``main`` calls with the
config, the parsed arguments, the output directory and a ``save(name,
write)`` callback.  A command writes every file through ``save``: it
makes the directory, writes the file whole or not at all (``_replace``)
and lists its name.  The command returns its exit code with a one-line
reason.  Once the output directory exists, ``main`` times the command and
writes the one ``manifest.json`` naming the listed files, with the exit
code and reason, the config echo, the package version and the wall time
(the data files are deterministic for a fixed config); a command that
fails with an OSError or ValueError after writing a file gets its
manifest too.  Inputs are checked by the config parser and the library
functions that read them.  ``simulate`` alone decides what a diagnostics
row holds, from each field ``run`` emits: (t, mass, min, max, L1 to the
reference or NaN).
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
from .config import SCHEMA, RunConfig, parse_config
from .diagnostics import density, l1_distance, mass, rate_fit, reference_profile
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
from .verify import (
    EXP_SEARCH_GRID,
    POLY_SEARCH_GRID,
    check_weight_mode,
    find_certified_spec,
    scan_drift_inequality,
)

FMT = "%.16e"  # 17 significant digits


def _write_csv(path: Path, header: str, table) -> None:
    """One header line, then one FMT-formatted line per row of ``table``."""
    np.savetxt(path, table, fmt=FMT, delimiter=",", header=header, comments="")


def _write_field_csv(path: Path, field: Field) -> None:
    g = field.grid
    xg = np.repeat(g.x_centers, g.Nv)
    vg = np.tile(g.v_centers, g.Nx)
    _write_csv(path, "x,v,f", np.column_stack((xg, vg, field.values.ravel())))


def _write_keys(path: Path, **values) -> None:
    """One ``key = value`` line per keyword, each value in its str form."""
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))


def _replace(path: Path, write) -> None:
    """Write ``path`` whole or not at all: ``write(tmp)`` fills a temporary
    file that then replaces ``path``, and a failed write leaves no temporary
    file behind (no fsync: a power loss may still truncate ``path``).
    ``write`` may hard-link ``tmp`` to a file already written: every kinfp
    writer replaces a file and never edits one, so a linked name keeps its
    bytes."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_manifest(outdir: Path, command: str, cfg: RunConfig, outputs, code: int,
                    reason: str, wall_s: float):
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.entries},
        "outputs": sorted(outputs),
        "exit_code": code,
        "exit_reason": reason,
        "wall_time_s": wall_s,
    }

    def dump(tmp: Path) -> None:
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    _replace(outdir / "manifest.json", dump)


def _initial_field(cfg: RunConfig, grid) -> Field:
    if cfg["initial.preset"] == "file":
        field, _ = read_checkpoint(cfg["initial.file"])
        return Field(field.values, field.grid, 0.0)
    return default_initial_condition(grid)


def _reference_field(cfg: RunConfig, grid, params) -> Field | None:
    source = cfg["diagnostics.reference"]
    if source == "none":
        return None
    if source == "profile":
        return reference_profile(grid, params, cfg["diagnostics.delta"], normalize=True)
    field = read_checkpoint(cfg["diagnostics.reference_file"])[0]
    if field.grid != grid:
        raise ValueError(f"reference field lives on {field.grid}, not on the configured {grid}")
    return field


def cmd_simulate(cfg: RunConfig, args, outdir: Path, save) -> tuple[int, str]:
    """Run the solver, building each diagnostics row from the emitted
    field; ``run`` refuses a field or resume state it would not continue."""
    params = cfg.model_params()
    solver_cfg = cfg.solver_config()
    grid = solver_cfg.grid
    snap_fmt = cfg["output.snapshot_format"]
    diag_rows: list[tuple] = []
    density_rows: list[tuple] = []
    reference = _reference_field(cfg, grid, params)
    if args.resume:
        field0, start_step = read_checkpoint(args.resume)
    else:
        field0, start_step = _initial_field(cfg, grid), 0

    # the output directory is made only once run has accepted the state:
    # its first sink call or its return comes after its input checks
    def on_snapshot(field: Field, step: int):
        stem = f"snapshot_{step:08d}"
        if snap_fmt == "csv":
            save(stem + ".csv", lambda tmp: _write_field_csv(tmp, field))
            save("last_checkpoint.ckpt", lambda tmp: write_checkpoint(field, step, tmp))
        else:
            save(stem + ".ckpt", lambda tmp: write_checkpoint(field, step, tmp))
            save("last_checkpoint.ckpt", lambda tmp: os.link(outdir / (stem + ".ckpt"), tmp))
        rho = density(field)
        density_rows.extend(
            (field.time_stamp, x, r) for x, r in zip(grid.x_centers, rho)
        )

    def on_diagnostics(field: Field, step: int):
        dist = np.nan if reference is None else l1_distance(field, reference)
        values = field.values
        diag_rows.append((field.time_stamp, mass(field), values.min(), values.max(), dist))

    sinks = Sinks(snapshot=on_snapshot, diagnostics=on_diagnostics)
    final = None
    try:
        final = run(solver_cfg, field0, sinks, start_step=start_step)
    except NumericalAbort as exc:
        abort = f"numerical abort: {exc}"
        print(abort, file=sys.stderr)

    # an aborted run keeps every row it collected before the abort, and a
    # manifest even when it collected none
    outdir.mkdir(parents=True, exist_ok=True)
    distance_rows = [] if reference is None else [(row[0], row[4]) for row in diag_rows]
    for name, header, rows in (
        ("diagnostics.csv", "t,mass,min,max,l1_to_reference", diag_rows),
        ("density_series.csv", "t,x,rho", density_rows),
        ("distance_series.csv", "t,distance", distance_rows),
    ):
        if rows:
            save(name, lambda tmp: _write_csv(tmp, header, rows))
    if final is None:
        return 3, abort
    print(f"simulate: t={final.time_stamp:g} mass={mass(final):.12g} -> {outdir}")
    return 0, "completed"


def cmd_verify_lyapunov(cfg: RunConfig, args, outdir: Path, save) -> tuple[int, str]:
    params = cfg.model_params()
    scan_cfg = cfg.scan_config()
    if args.search:
        # the search reads theta or k, and ell, as the configured weight mode does
        check_weight_mode(params, cfg.lyapunov_spec())
        exp = cfg["lyapunov.mode"] == "exp"
        keys = [f"lyapunov.{name}" for name in (EXP_SEARCH_GRID if exp else POLY_SEARCH_GRID)]
        chosen = [key for key in keys if cfg[key] != SCHEMA[key][1]]
        if chosen:
            raise ValueError(
                f"--search chooses {', '.join(chosen)} itself; leave them at their defaults"
            )
        weight = {"theta": cfg["lyapunov.theta"]} if exp else {"k": cfg["lyapunov.k"]}
        _, report = find_certified_spec(params, scan_cfg, ell=cfg["lyapunov.ell"], **weight)
    else:
        report = scan_drift_inequality(params, cfg.lyapunov_spec(), scan_cfg)
    keys = dict(
        passed=report.passed,
        chosen_R=report.chosen_R,
        chosen_C=report.chosen_C,
        min_margin_outside=report.min_margin_outside,
        worst_point=report.worst_point,
        spec=report.spec_echo,
    )
    save("certificate.txt", lambda tmp: _write_keys(tmp, **keys))
    print(report.summary())
    return 0 if report.passed else 2, report.summary()


def cmd_fit_rate(cfg: RunConfig, args, outdir: Path, save) -> tuple[int, str]:
    rows = []
    with open(args.series) as fh:
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
    fit = rate_fit(
        rows,
        mode,
        theta=cfg["diagnostics.rate_theta"] if mode == "exp" else None,
        burn_fraction=cfg["diagnostics.rate_burn_fraction"],
    )
    keys = dict(
        mode=fit.mode,
        theta=fit.theta,
        fitted=fit.fitted,
        window=fit.window,
        residual_rms=fit.residual_rms,
    )
    save("rate_fit.txt", lambda tmp: _write_keys(tmp, **keys))
    label = "lambda" if mode == "exp" else "k"
    print(f"fit-rate: {label}={fit.fitted:.6g} residual_rms={fit.residual_rms:.3g}")
    return 0, "completed"


def cmd_steady_state(cfg: RunConfig, args, outdir: Path, save) -> tuple[int, str]:
    solver_cfg = cfg.solver_config()
    field0 = _initial_field(cfg, solver_cfg.grid)
    try:
        ref = steady_state_reference(solver_cfg, tol_rate=args.tol_rate, field0=field0)
    except RuntimeError as exc:  # NumericalAbort is one
        print(f"error: {exc}", file=sys.stderr)
        return 3, str(exc)
    save("steady_state.ckpt", lambda tmp: write_checkpoint(ref, 0, tmp))
    table = np.column_stack((solver_cfg.grid.x_centers, density(ref)))
    save("steady_density.csv", lambda tmp: _write_csv(tmp, "x,rho", table))
    # field0 starts at t = 0, and every window but the last marches the full cadence
    dt = solver_cfg.resolve_dt()[0]
    steps = round(ref.time_stamp / dt)
    windows = -(-steps // solver_cfg.diagnostics_cadence)
    print(
        f"steady-state: frozen at t={ref.time_stamp:g} after {windows} windows "
        f"({steps} steps), mass={mass(ref):.12g}"
    )
    return 0, "completed"


def cmd_export_reference(cfg: RunConfig, args, outdir: Path, save) -> tuple[int, str]:
    params = cfg.model_params()
    grid = cfg.phase_grid()
    ref = reference_profile(grid, params, cfg["diagnostics.delta"], normalize=True)
    save("reference_profile.ckpt", lambda tmp: write_checkpoint(ref, 0, tmp))
    save("reference_profile.csv", lambda tmp: _write_field_csv(tmp, ref))
    print(f"export-reference: delta={cfg['diagnostics.delta']:g} -> {outdir}")
    return 0, "completed"


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kinfp",
        description="Finite-volume kinetic Fokker-Planck simulator and Lyapunov certifier",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", required=True, help="configuration file path")
        sp.add_argument("--output", default=None, help="output directory")
        sp.set_defaults(func=func)
        return sp

    sp = command("simulate", cmd_simulate, "run the finite-volume solver")
    sp.add_argument("--resume", default=None, help="checkpoint to continue from")

    sp = command("verify-lyapunov", cmd_verify_lyapunov, "scan the drift inequality")
    sp.add_argument(
        "--search",
        action="store_true",
        help="grid-search (eps, A, B, delta) instead of using the configured spec",
    )

    sp = command("fit-rate", cmd_fit_rate, "fit a decay law to a distance series")
    sp.add_argument("--series", required=True, help="CSV file of t,distance rows")

    sp = command("steady-state", cmd_steady_state, "integrate to a steady reference field")
    sp.add_argument("--tol-rate", type=float, default=1e-8, help="L1 rate tolerance")

    command("export-reference", cmd_export_reference, "write the energy-profile reference")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
        outdir = Path(args.output) if args.output else Path(cfg["output.dir"])
        t0 = time.time()
        outputs: set[str] = set()

        def save(name: str, write) -> None:
            outdir.mkdir(parents=True, exist_ok=True)
            _replace(outdir / name, write)
            outputs.add(name)

        try:
            code, reason = args.func(cfg, args, outdir, save)
        except (OSError, ValueError) as exc:
            if not outputs:
                raise
            print(f"error: {exc}", file=sys.stderr)
            code, reason = 1, f"error: {exc}"
        if outdir.is_dir():
            _write_manifest(outdir, args.command, cfg, outputs, code, reason, time.time() - t0)
        return code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
