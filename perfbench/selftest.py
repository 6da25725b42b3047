"""Show that every correctness check passes on real output and fires on a
corrupted copy of it.  Runs tiny versions of the workloads (a few seconds).

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np

import kinfp.solver as solver

import checks
import workloads


class TinySimulate(workloads.Simulate):
    name = "selftest-simulate"

    def config_lines(self):
        return [
            "grid.L = 10", "grid.v_max = 10", "grid.Nx = 16", "grid.Nv = 16",
            "time.t_final = 0.5", "diagnostics.cadence = 5",
            "diagnostics.snapshot_cadence = 10", "output.snapshot_format = csv",
        ]


class TinySteady(workloads.Steady96):
    name = "selftest-steady"

    def config_lines(self):
        return [line.replace("= 96", "= 16") for line in super().config_lines()]


class TinyCertify(workloads.Certify):
    SAMPLES = (256,)


def _edit_csv(path: Path, edit) -> None:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    header = path.read_text().splitlines()[0]
    rows = edit(rows)
    np.savetxt(path, rows, delimiter=",", header=header, comments="", fmt="%.16e")


def _rewrite_field(path: Path, edit) -> None:
    field, step = solver.read_checkpoint(path)
    solver.write_checkpoint(solver.Field(edit(field.values.copy()), field.grid,
                                         field.time_stamp), step, path)


def _mass_bump(rows):
    rows[len(rows) // 2, 1] *= 1.0 + 1e-8
    return rows


def _negative_min(rows):
    rows[-1, 2] = -1e-12 * rows[-1, 3]
    return rows


def _add_stray(d: Path):
    (d / "stray.txt").write_text("not produced by the command\n")


def _drop_listed(d: Path):
    (d / "density_series.csv").unlink()


def _asymmetric(values):
    # move mass between two cells that are not mirror images: mass is kept
    values[3, 4] += 1e-4
    values[5, 4] -= 1e-4
    return values


def main(workdir: Path) -> int:
    shutil.rmtree(workdir, ignore_errors=True)
    failures = 0

    def expect(label: str, problems: list[str], should_fire: bool, needle: str = ""):
        nonlocal failures
        fired = [p for p in problems if needle in p] if should_fire else problems
        ok = bool(fired) if should_fire else not problems
        failures += not ok
        state = "PASS" if ok else "FAIL"
        detail = fired[0].splitlines()[-1] if fired else "no check fired"
        print(f"{state} {label}: {detail}")

    def corrupted(w, res, name, mutate):
        copy = w.workdir / name
        shutil.copytree(res.outdir, copy)
        mutate(copy)
        return w.check(workloads.OpResult(res.code, copy))

    def diag(edit):
        return lambda d: _edit_csv(d / "diagnostics.csv", edit)

    sim = TinySimulate(workdir / "simulate", seed=7)
    sim.setup()
    res = sim.run(sim.workdir / "out")
    expect("simulate pristine", sim.check(res), False)
    expect("simulate exit code", sim.check(workloads.OpResult(3, res.outdir)), True, "exited")
    for label, mutate, needle in [
        ("mass-drift", diag(_mass_bump), "mass drift"),
        ("positivity", diag(_negative_min), "min below"),
        ("final-time", diag(lambda rows: rows[:-1]), "last row"),
        ("unlisted-file", _add_stray, "not in the manifest"),
        ("missing-file", _drop_listed, "missing files"),
        ("no-manifest", lambda d: (d / "manifest.json").unlink(), "manifest.json missing"),
    ]:
        expect(f"simulate {label}", corrupted(sim, res, label, mutate), True, needle)

    st = TinySteady(workdir / "steady", seed=7)
    st.setup()
    res = st.run(st.workdir / "out")

    def field(edit):
        return lambda d: _rewrite_field(d / "steady_state.ckpt", edit)

    expect("steady pristine", st.check(res), False)
    expect("steady exit code", st.check(workloads.OpResult(3, res.outdir)), True, "exited")
    for label, mutate, needle in [
        ("not-converged", field(lambda v: st.initial.values.copy()), "window rate"),
        ("asymmetry", field(_asymmetric), "even-symmetry"),
        ("mass", field(lambda v: v * (1.0 + 1e-8)), "mass drift"),
    ]:
        expect(f"steady {label}", corrupted(st, res, label, mutate), True, needle)

    cert = TinyCertify(workdir / "certify", seed=7)
    cert.setup()
    res = cert.run(None)
    expect("certify pristine", cert.check(res), False)
    regime, n, spec, report = res.results[0]
    for label, got_spec, got_report, needle in [
        ("radius", spec, dataclasses.replace(report, chosen_R=report.chosen_R + 5.0), "expected"),
        ("spec", dataclasses.replace(spec, eps=spec.eps + 0.05), report, "expected"),
        ("none", None, report, "no certificate"),
    ]:
        one = workloads.OpResult(0, None, [(regime, n, got_spec, got_report)])
        expect(f"certify {label}", cert.check(one), True, needle)

    values = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    bumped = values.copy()
    bumped[1, 1] = np.nextafter(bumped[1, 1], 2.0)
    same = {checks.payload_sha256(values), checks.payload_sha256(values.copy())}
    expect("repeats pristine", checks.repeats_identical(same), False)
    one_ulp = {checks.payload_sha256(values), checks.payload_sha256(bumped)}
    expect("repeats one ulp apart", checks.repeats_identical(one_ulp), True, "differs")

    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"selftest_failures": failures}))
    return 1 if failures else 0
