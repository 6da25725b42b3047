"""Command-line entry points: exit codes, outputs, manifest, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from kinfp.cli import main
from kinfp.config import parse_config
from kinfp.solver import read_checkpoint

MINIMAL = "model.alpha = 1.5\nmodel.kind = exp\nmodel.beta = 0.5\n"

SMALL_RUN = (
    MINIMAL
    + "grid.Nx = 32\ngrid.Nv = 32\ngrid.L = 20\ngrid.v_max = 20\n"
    + "time.t_final = 0.2\ndiagnostics.cadence = 5\ndiagnostics.snapshot_cadence = 10\n"
)

VERIFY_PASS = (
    "model.alpha = 2.0\nmodel.kind = exp\nmodel.beta = 1.0\n"
    + "lyapunov.eps = 0.2\nlyapunov.a_exp = 1.0\nlyapunov.b_exp = 0.6\n"
    + "lyapunov.theta = 0.5\nlyapunov.delta = 1.0\nlyapunov.samples = 96\n"
    + "lyapunov.radii = 20,30,40\n"
)


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _manifest(outdir):
    with open(Path(outdir) / "manifest.json") as fh:
        return json.load(fh)


def test_bad_config_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, "model.alpha = 0.5\nmodel.kind = exp\nmodel.beta = 1\n")
    assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
    assert "alpha" in capsys.readouterr().err


def test_simulate_zero_horizon_writes_initial_snapshot(tmp_path):
    cfg = _write(tmp_path, SMALL_RUN + "time.t_final = 0.0\n".replace("time.t_final = 0.2\n", ""))
    # keep a single t_final key: rebuild the text explicitly
    text = SMALL_RUN.replace("time.t_final = 0.2", "time.t_final = 0.0")
    cfg = _write(tmp_path, text)
    out = tmp_path / "zero"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    man = _manifest(out)
    assert "snapshot_00000000.csv" in man["outputs"]
    assert (out / "diagnostics.csv").exists()


def test_simulate_outputs_and_manifest_complete(tmp_path):
    cfg = _write(tmp_path, SMALL_RUN)
    out = tmp_path / "run1"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    man = _manifest(out)
    listed = set(man["outputs"])
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert listed == on_disk  # exactly one manifest naming every output
    assert man["command"] == "simulate"
    assert "wall_time_s" in man


def test_simulate_rerun_byte_identical_data(tmp_path):
    cfg = _write(tmp_path, SMALL_RUN)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--output", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--output", str(out2)]) == 0
    names = {p.name for p in out1.iterdir()} - {"manifest.json"}
    for name in sorted(names):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_simulate_resume_matches_uninterrupted(tmp_path):
    text = (
        SMALL_RUN.replace("time.t_final = 0.2", "time.t_final = 0.6")
        .replace("diagnostics.snapshot_cadence = 10", "diagnostics.snapshot_cadence = 5")
        + "output.snapshot_format = checkpoint\n"
    )
    cfg = _write(tmp_path, text, "c2.cfg")
    ck_dir = tmp_path / "ck"
    assert main(["simulate", "--config", cfg, "--output", str(ck_dir)]) == 0
    snaps = sorted(ck_dir.glob("snapshot_*.ckpt"))
    interior = [p for p in snaps[1:-1]]  # neither the initial nor the final state
    assert interior
    mid = interior[len(interior) // 2]
    res_dir = tmp_path / "resumed"
    assert (
        main(
            ["simulate", "--config", cfg, "--output", str(res_dir), "--resume", str(mid)]
        )
        == 0
    )
    f_full, _ = read_checkpoint(ck_dir / "last_checkpoint.ckpt")
    f_res, _ = read_checkpoint(res_dir / "last_checkpoint.ckpt")
    np.testing.assert_array_equal(f_full.values, f_res.values)


def test_simulate_resume_rejects_relabelled_time(tmp_path, capsys):
    # checkpoint at step 10 under auto dt (about 0.027); cfl_safety = 0.2
    # gives dt = 0.0125, which would relabel t = 0.27 as t = 0.125
    text = (
        SMALL_RUN.replace("time.t_final = 0.2", "time.t_final = 0.6")
        + "output.snapshot_format = checkpoint\n"
    )
    cfg = _write(tmp_path, text)
    ck_dir = tmp_path / "ck"
    assert main(["simulate", "--config", cfg, "--output", str(ck_dir)]) == 0
    ck = ck_dir / "snapshot_00000010.ckpt"
    field, step = read_checkpoint(ck)
    assert step == 10 and field.time_stamp == pytest.approx(0.6 / 22 * 10)
    other = _write(tmp_path, text + "time.cfl_safety = 0.2\n", "other.cfg")
    capsys.readouterr()
    argv = ["simulate", "--config", other, "--output", str(tmp_path / "r"), "--resume", str(ck)]
    assert main(argv) == 1
    dt, _ = parse_config(Path(other).read_text()).solver_config().resolve_dt()
    assert dt == pytest.approx(0.0125)
    err = capsys.readouterr().err
    assert repr(field.time_stamp) in err and repr(10 * dt) in err


def test_simulate_resume_rejects_step_inside_a_segment(tmp_path, capsys):
    """Resume from step 10 under cadences that do not stop there: an
    uninterrupted run fuses straight across step 10, so exit 1."""
    text = (
        SMALL_RUN.replace("time.t_final = 0.2", "time.t_final = 0.6")
        + "output.snapshot_format = checkpoint\n"
    )
    cfg = _write(tmp_path, text)
    ck_dir = tmp_path / "ck"
    assert main(["simulate", "--config", cfg, "--output", str(ck_dir)]) == 0
    ck = str(ck_dir / "snapshot_00000010.ckpt")

    def resume(diag, snap):
        lines = text.replace("diagnostics.cadence = 5", f"diagnostics.cadence = {diag}")
        lines = lines.replace("snapshot_cadence = 10", f"snapshot_cadence = {snap}")
        other = _write(tmp_path, lines, f"c{diag}_{snap}.cfg")
        out = tmp_path / f"r{diag}_{snap}"
        return main(["simulate", "--config", other, "--output", str(out), "--resume", ck])

    capsys.readouterr()
    assert resume(7, 4) == 1
    assert "resume step 10" in capsys.readouterr().err
    assert resume(7, 5) == 0  # step 10 is a snapshot step
    assert resume(2, 7) == 0  # step 10 is a diagnostics step


def test_seed_flag_removed(tmp_path):
    cfg = _write(tmp_path, SMALL_RUN)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg, "--output", str(tmp_path / "o"), "--seed", "1"])
    assert exc.value.code == 2


def test_verify_lyapunov_pass_and_fail(tmp_path):
    cfg = _write(tmp_path, VERIFY_PASS)
    out = tmp_path / "cert"
    assert main(["verify-lyapunov", "--config", cfg, "--output", str(out)]) == 0
    text = (out / "certificate.txt").read_text()
    assert "passed = True" in text
    # degenerate eps = 0: no confinement mechanism in x, must fail
    cfg_fail = _write(tmp_path, VERIFY_PASS.replace("lyapunov.eps = 0.2", "lyapunov.eps = 0.0"), "f.cfg")
    out2 = tmp_path / "cert2"
    assert main(["verify-lyapunov", "--config", cfg_fail, "--output", str(out2)]) == 2
    # invalid spec (theta outside the admissible range) exits 1
    cfg_bad = _write(tmp_path, VERIFY_PASS.replace("lyapunov.theta = 0.5", "lyapunov.theta = 0.9"), "b.cfg")
    assert main(["verify-lyapunov", "--config", cfg_bad, "--output", str(tmp_path / "x")]) == 1


def test_fit_rate_exact_and_errors(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + "diagnostics.rate_theta = 0.5\n")
    t = np.linspace(0.0, 40.0, 50)
    d = np.exp(-0.3 * t**0.5)
    series = tmp_path / "series.csv"
    series.write_text("t,distance\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(t, d)))
    out = tmp_path / "fit"
    assert main(["fit-rate", "--config", cfg, "--series", str(series), "--output", str(out)]) == 0
    text = (out / "rate_fit.txt").read_text()
    fitted = float(text.split("fitted = ")[1].splitlines()[0])
    assert fitted == pytest.approx(0.3, abs=1e-6)
    # empty series
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["fit-rate", "--config", cfg, "--series", str(empty), "--output", str(out)]) == 1
    # malformed row reports its line number
    bad = tmp_path / "bad.csv"
    bad.write_text("t,distance\n1.0,2.0\nnot-a-number\n")
    assert main(["fit-rate", "--config", cfg, "--series", str(bad), "--output", str(out)]) == 1
    assert "line 3" in capsys.readouterr().err


def test_simulate_numerical_abort_exits_three(tmp_path):
    from kinfp import build_grid
    from kinfp.grid import Field
    from kinfp.solver import write_checkpoint

    grid = build_grid(20.0, 20.0, 32, 32)
    bad = np.full((32, 32), np.nan)
    ck = tmp_path / "bad.ckpt"
    write_checkpoint(Field(bad, grid, 0.0), 0, ck)
    cfg = _write(tmp_path, SMALL_RUN + "initial.preset = file\n" + f"initial.file = {ck}\n")
    out = tmp_path / "abort"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 3
    man = _manifest(out)
    for name in man["outputs"]:
        assert (out / name).exists()


def test_steady_state_and_export_reference(tmp_path):
    text = (
        MINIMAL
        + "grid.Nx = 32\ngrid.Nv = 32\ngrid.L = 20\ngrid.v_max = 20\n"
        + "time.t_final = 150\ndiagnostics.cadence = 50\n"
    )
    cfg = _write(tmp_path, text)
    out = tmp_path / "steady"
    assert main(["steady-state", "--config", cfg, "--output", str(out), "--tol-rate", "1e-3"]) == 0
    f, _ = read_checkpoint(out / "steady_state.ckpt")
    assert f.values.min() >= 0.0
    out2 = tmp_path / "ref"
    assert main(["export-reference", "--config", cfg, "--output", str(out2)]) == 0
    ref, _ = read_checkpoint(out2 / "reference_profile.ckpt")
    assert abs(ref.values.sum() * f.grid.cell_volume - 1.0) < 1e-12  # normalised
