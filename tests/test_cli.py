"""Command-line entry points: exit codes, outputs, manifest, determinism."""

import json
import os
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


@pytest.mark.parametrize("reference", ["none", "profile", "file"])
def test_distance_series_is_the_l1_column_of_diagnostics(tmp_path, reference):
    """distance_series.csv holds the (t, l1_to_reference) columns of
    diagnostics.csv bit for bit, and exists only with a reference.  A
    reference file is the profile that export-reference wrote on the same
    grid."""
    text = SMALL_RUN + f"diagnostics.reference = {reference}\n"
    if reference == "file":
        ref = tmp_path / "ref"
        assert main(["export-reference", "--config", _write(tmp_path, SMALL_RUN),
                     "--output", str(ref)]) == 0
        text += f"diagnostics.reference_file = {ref / 'reference_profile.ckpt'}\n"
    out = tmp_path / "o"
    assert main(["simulate", "--config", _write(tmp_path, text), "--output", str(out)]) == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "t,mass,min,max,l1_to_reference" and len(lines) > 2
    columns = [",".join((row.split(",")[0], row.split(",")[4])) for row in lines[1:]]
    if reference == "none":
        assert not (out / "distance_series.csv").exists()
        assert all(c.endswith(",nan") for c in columns)
    else:
        assert (out / "distance_series.csv").read_text().splitlines() == ["t,distance", *columns]


def test_checkpoint_snapshots_link_last_checkpoint(tmp_path):
    """With checkpoint snapshots, last_checkpoint.ckpt is the newest
    snapshot's file under a second name, not a second copy."""
    text = SMALL_RUN + "output.snapshot_format = checkpoint\n"
    out = tmp_path / "o"
    assert main(["simulate", "--config", _write(tmp_path, text), "--output", str(out)]) == 0
    newest = sorted(out.glob("snapshot_*.ckpt"))[-1]
    assert newest.name == "snapshot_00000008.ckpt"
    assert os.path.samefile(out / "last_checkpoint.ckpt", newest)
    assert "last_checkpoint.ckpt" in _manifest(out)["outputs"]


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
    # the resumed directory names the checkpoint it continued
    assert _manifest(res_dir)["options"] == {"resume": str(mid)}


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
    assert not (tmp_path / "r").exists()
    dt, _ = parse_config(Path(other).read_text()).solver_config().resolve_dt()
    assert dt == pytest.approx(0.0125)
    err = capsys.readouterr().err
    assert repr(field.time_stamp) in err and repr(10 * dt) in err
    # a refused resume into a directory that already exists leaves it as it was
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("keep")
    argv = ["simulate", "--config", other, "--output", str(kept), "--resume", str(ck)]
    assert main(argv) == 1
    assert [p.name for p in kept.iterdir()] == ["notes.txt"]


def test_simulate_resume_refuses_a_header_larger_than_its_file(tmp_path, capsys):
    from kinfp.solver import _HEADER, CHECKPOINT_MAGIC

    # 2^20 x 2^20 cells claimed, 64 payload bytes present
    ck = tmp_path / "huge.ckpt"
    ck.write_bytes(_HEADER.pack(CHECKPOINT_MAGIC, 2**20, 2**20, 0, 20.0, 20.0, 0.0) + bytes(64))
    cfg = _write(tmp_path, SMALL_RUN)
    out = tmp_path / "r"
    assert main(["simulate", "--config", cfg, "--output", str(out), "--resume", str(ck)]) == 1
    assert "truncated checkpoint payload" in capsys.readouterr().err
    assert not out.exists()


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
    assert not (tmp_path / "r7_4").exists()
    assert resume(7, 5) == 0  # step 10 is a snapshot step
    assert resume(2, 7) == 0  # step 10 is a diagnostics step


def test_simulate_resume_past_the_configured_end_exits_one(tmp_path, capsys):
    """A checkpoint at step 20 resumed under a horizon of 5 steps is
    refused naming both steps: exit 1, and no directory is made."""
    text = SMALL_RUN + "time.dt = 0.01\noutput.snapshot_format = checkpoint\n"
    ck_dir = tmp_path / "ck"
    assert main(["simulate", "--config", _write(tmp_path, text), "--output", str(ck_dir)]) == 0
    short = _write(tmp_path, text.replace("time.t_final = 0.2", "time.t_final = 0.05"), "s.cfg")
    capsys.readouterr()
    out = tmp_path / "r"
    argv = ["simulate", "--config", short, "--output", str(out),
            "--resume", str(ck_dir / "last_checkpoint.ckpt")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: resume step 20 lies past step 5, the last of this config\n"
    )
    assert not out.exists()


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


def test_verify_lyapunov_search_pass_and_least_bad(tmp_path):
    """--search writes the first passing spec; a search that passes nothing
    exits 2 with the report of the largest margin over its candidates."""
    from kinfp import LyapunovSpec, PolyWeight, scan_drift_inequality
    from kinfp.verify import POLY_SEARCH_GRID

    search = (
        "model.alpha = 2.0\nmodel.kind = exp\nmodel.beta = 1.0\n"
        + "lyapunov.mode = exp\nlyapunov.theta = 0.5\nlyapunov.samples = 64\n"
    )
    out = tmp_path / "found"
    assert main(["verify-lyapunov", "--search", "--config", _write(tmp_path, search),
                 "--output", str(out)]) == 0
    text = (out / "certificate.txt").read_text()
    assert "passed = True" in text
    assert ("spec = LyapunovSpec(ell=2.0, eps=0.2, a_exp=1.0, b_exp=0.6, "
            "mode=ExpWeight(theta=0.5, delta=1.0))") in text

    nothing = (
        "model.alpha = 2.0\nmodel.kind = poly\nmodel.gamma = 2.0\n"
        + "lyapunov.mode = poly\nlyapunov.ell = 1.75\nlyapunov.k = 1.5\n"
        + "lyapunov.samples = 64\nlyapunov.radii = 5\n"
    )
    cfg = parse_config(nothing)
    best = None
    for a_exp in POLY_SEARCH_GRID["a_exp"]:
        for b_exp in POLY_SEARCH_GRID["b_exp"]:
            for eps in POLY_SEARCH_GRID["eps"]:
                spec = LyapunovSpec(1.75, eps, a_exp, b_exp, PolyWeight(k=1.5))
                if spec.equivalence_ok(2.0):
                    r = scan_drift_inequality(cfg.model_params(), spec, cfg.scan_config())
                    if best is None or r.min_margin_outside > best.min_margin_outside:
                        best = r
    out = tmp_path / "none"
    assert main(["verify-lyapunov", "--search", "--config", _write(tmp_path, nothing, "n.cfg"),
                 "--output", str(out)]) == 2
    text = (out / "certificate.txt").read_text()
    assert "passed = False" in text
    assert f"min_margin_outside = {best.min_margin_outside!r}" in text
    assert f"worst_point = {best.worst_point!r}" in text
    assert f"spec = {best.spec!r}" in text


@pytest.mark.parametrize(
    "lines, keys",
    [
        (["lyapunov.eps = 0.01"], ["lyapunov.eps"]),
        (["lyapunov.delta = 7", "lyapunov.b_exp = 0.1"], ["lyapunov.b_exp", "lyapunov.delta"]),
        (["lyapunov.a_exp = 0.5"], ["lyapunov.a_exp"]),
    ],
)
def test_verify_lyapunov_search_refuses_searched_keys(tmp_path, capsys, lines, keys):
    """--search chooses eps, A, B (and delta under exp) itself, so a config
    that sets one of them exits 1 naming each and writes nothing; the same
    keys at their defaults still run the search."""
    base = (
        "model.alpha = 2.0\nmodel.kind = exp\nmodel.beta = 1.0\n"
        + "lyapunov.mode = exp\nlyapunov.theta = 0.5\nlyapunov.samples = 16\n"
        + "lyapunov.radii = 20\n"
    )
    out = tmp_path / "o"
    cfg = _write(tmp_path, base + "\n".join(lines) + "\n")
    assert main(["verify-lyapunov", "--search", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(key in err for key in keys)
    assert not out.exists()
    defaults = "lyapunov.eps = 0.2\nlyapunov.a_exp = 1.0\nlyapunov.b_exp = 0.6\nlyapunov.delta = 2.0\n"
    cfg = _write(tmp_path, base + defaults, "d.cfg")
    assert main(["verify-lyapunov", "--search", "--config", cfg, "--output", str(out)]) in (0, 2)
    assert (out / "certificate.txt").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (MINIMAL + "lyapunov.mode = poly\n", "poly weight mode requires a poly equilibrium"),
        (
            "model.alpha = 2.0\nmodel.kind = poly\nmodel.gamma = 2.0\n",
            "exp weight mode requires an exp equilibrium",
        ),
    ],
    ids=["poly-mode-exp-model", "exp-mode-poly-model"],
)
def test_verify_lyapunov_mode_against_kind_same_error_with_search(
    tmp_path, capsys, text, message
):
    """A weight mode of the other equilibrium family exits 1 with the same
    mode-against-kind message with and without --search, and writes nothing."""
    cfg = _write(tmp_path, text + "lyapunov.samples = 16\nlyapunov.radii = 20\n")
    out = tmp_path / "o"
    errors = []
    for flags in ([], ["--search"]):
        assert main(["verify-lyapunov", *flags, "--config", cfg, "--output", str(out)]) == 1
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0] == errors[1] == f"error: {message}\n"


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
    assert "line 3: expected 't,distance'" in capsys.readouterr().err
    bad.write_text("t,distance\n1.0,2.0\n3.0,abc\n")
    assert main(["fit-rate", "--config", cfg, "--series", str(bad), "--output", str(out)]) == 1
    assert "line 3: cannot parse numbers" in capsys.readouterr().err
    # a non-finite distance is refused and writes no fit
    nonfinite = tmp_path / "nan.csv"
    nonfinite.write_text(series.read_text().replace(f"{float(d[20])!r}", "nan"))
    refused = tmp_path / "refused"
    argv = ["fit-rate", "--config", cfg, "--series", str(nonfinite), "--output", str(refused)]
    assert main(argv) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not (refused / "rate_fit.txt").exists()


# the finfo.max datum below overflows the mass sum and the velocity kernel
# on purpose, and the transport stage then meets inf - inf, before the
# abort that this test checks
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_simulate_numerical_abort_exits_three(tmp_path):
    from kinfp import PhaseGrid
    from kinfp.grid import Field
    from kinfp.solver import default_initial_condition, write_checkpoint

    grid = PhaseGrid(20.0, 20.0, 32, 32)
    bad = np.full((32, 32), np.nan)
    ck = tmp_path / "bad.ckpt"
    write_checkpoint(Field(bad, grid, 0.0), 0, ck)
    cfg = _write(tmp_path, SMALL_RUN + "initial.preset = file\n" + f"initial.file = {ck}\n")
    out = tmp_path / "abort"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 3
    man = _manifest(out)
    for name in man["outputs"]:
        assert (out / name).exists()

    # finite but overflowing data aborts at the first diagnostics step (5);
    # the rows that step 0 produced are still written and listed.  The
    # scheme's updates are convex-like in range, so it takes a velocity
    # column at the largest float, which the drift pushes past it
    huge = default_initial_condition(grid).values.copy()
    huge[16] = np.finfo(float).max
    ck = tmp_path / "huge.ckpt"
    write_checkpoint(Field(huge, grid, 0.0), 0, ck)
    cfg = _write(
        tmp_path,
        SMALL_RUN + "initial.preset = file\n" + f"initial.file = {ck}\n"
        + "diagnostics.reference = profile\n",
    )
    out = tmp_path / "abort-late"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 3
    man = _manifest(out)
    for name in ("density_series.csv", "distance_series.csv", "diagnostics.csv"):
        assert name in man["outputs"]
    assert set(man["outputs"]) == {p.name for p in out.iterdir()} - {"manifest.json"}
    density_t = np.loadtxt(out / "density_series.csv", delimiter=",", skiprows=1)[:, 0]
    assert np.all(density_t == 0.0) and density_t.size == grid.Nx
    dist = np.loadtxt(out / "distance_series.csv", delimiter=",", skiprows=1, ndmin=2)
    assert dist.shape == (1, 2) and dist[0, 0] == 0.0


def test_steady_state_and_export_reference(tmp_path, capsys):
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
    # the summary names the steps marched, which t counts: mixing windows
    # of 10 steps, then at least one full window of 50
    dt, _ = parse_config(text).solver_config().resolve_dt()
    steps = round(f.time_stamp / dt)
    assert steps % 10 == 0 and steps >= 60
    assert f"after {steps} steps, mass=" in capsys.readouterr().out
    out2 = tmp_path / "ref"
    assert main(["export-reference", "--config", cfg, "--output", str(out2)]) == 0
    ref, _ = read_checkpoint(out2 / "reference_profile.ckpt")
    assert abs(ref.values.sum() * f.grid.cell_volume - 1.0) < 1e-12  # normalised


POLY_RUN = (
    "model.alpha = 2.0\nmodel.kind = poly\nmodel.gamma = 2.0\n"
    + "grid.Nx = 32\ngrid.Nv = 32\ngrid.L = 20\ngrid.v_max = 20\n"
    + "time.t_final = 0.1\nlyapunov.mode = poly\nlyapunov.samples = 32\n"
)


def test_poly_gamma_below_one_simulates_but_is_not_certified(tmp_path, capsys):
    cfg = _write(tmp_path, POLY_RUN.replace("model.gamma = 2.0", "model.gamma = 0.5"))
    assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "sim")]) == 0
    out = tmp_path / "cert"
    assert main(["verify-lyapunov", "--config", cfg, "--output", str(out)]) == 1
    assert "1 + gamma/2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, flags",
    [
        ("simulate", POLY_RUN + "diagnostics.reference = profile\n", []),
        ("export-reference", POLY_RUN, []),
        ("export-reference", SMALL_RUN + "diagnostics.delta = -1\n", []),
        ("export-reference", SMALL_RUN + "diagnostics.delta = nan\n", []),
        ("export-reference", SMALL_RUN + "diagnostics.delta = inf\n", []),
        ("export-reference", SMALL_RUN + "diagnostics.delta = 1e6\n", []),
        ("steady-state", SMALL_RUN, ["--tol-rate", "-1"]),
        ("steady-state", SMALL_RUN, ["--tol-rate", "0"]),
        ("steady-state", SMALL_RUN, ["--tol-rate", "nan"]),
        ("steady-state", SMALL_RUN, ["--tol-rate", "inf"]),
        ("simulate", SMALL_RUN.replace("grid.v_max = 20", "grid.v_max = inf"), []),
    ],
    ids=[
        "simulate-poly-profile", "export-poly", "export-delta-neg", "export-delta-nan",
        "export-delta-inf", "export-delta-underflow", "steady-tol", "steady-tol-zero",
        "steady-tol-nan", "steady-tol-inf", "simulate-vmax-inf",
    ],
)
def test_command_value_errors_exit_one(tmp_path, capsys, command, text, flags):
    """A ValueError raised inside a command is reported, not a traceback,
    and the command leaves no output directory behind."""
    out = tmp_path / "o"
    argv = [command, "--config", _write(tmp_path, text), "--output", str(out), *flags]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_manifest_replaced_whole_or_not_at_all(tmp_path, monkeypatch):
    """A manifest write that fails part way leaves the previous manifest
    and no temporary file."""
    import kinfp.cli as cli

    cfg = _write(tmp_path, SMALL_RUN)
    out = tmp_path / "ref"
    argv = ["export-reference", "--config", cfg, "--output", str(out)]
    assert main(argv) == 0
    files = sorted(p.name for p in out.iterdir())
    before = (out / "manifest.json").read_bytes()

    def interrupted(obj, fh, **kwargs):
        fh.write('{"command": ')
        raise RuntimeError("interrupted")

    monkeypatch.setattr(cli.json, "dump", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        main(argv)
    assert (out / "manifest.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == files


@pytest.mark.parametrize("source", ["simulate-initial", "steady-initial", "reference", "resume"])
def test_field_from_another_box_exits_one(tmp_path, capsys, source):
    """A checkpoint of the configured shape from a box of another L is
    refused by the solver before anything is written: exit 1, no directory."""
    from kinfp import PhaseGrid
    from kinfp.solver import default_initial_condition, write_checkpoint

    ck = tmp_path / "other.ckpt"
    write_checkpoint(default_initial_condition(PhaseGrid(40.0, 20.0, 32, 32)), 0, ck)
    initial = f"initial.preset = file\ninitial.file = {ck}\n"
    command, extra, flags = {
        "simulate-initial": ("simulate", initial, []),
        "steady-initial": ("steady-state", initial, ["--tol-rate", "1e300"]),
        "reference": (
            "simulate", f"diagnostics.reference = file\ndiagnostics.reference_file = {ck}\n", []
        ),
        "resume": ("simulate", "", ["--resume", str(ck)]),
    }[source]
    out = tmp_path / "o"
    argv = [command, "--config", _write(tmp_path, SMALL_RUN + extra), "--output", str(out), *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "L=40.0" in err and "not on the configured" in err
    assert not out.exists()


def test_last_checkpoint_replaced_whole_or_not_at_all(tmp_path, monkeypatch):
    """A last_checkpoint.ckpt write that fails part way keeps the previous
    checkpoint and leaves no temporary file; the command exits 1, and main
    still writes the manifest of the files written before the failure."""
    import kinfp.cli as cli

    write = cli.write_checkpoint

    def interrupted(field, step, path):
        if Path(path).name == "last_checkpoint.ckpt.tmp" and step > 0:
            Path(path).write_bytes(b"KINFP")
            raise OSError("interrupted")
        write(field, step, path)

    monkeypatch.setattr(cli, "write_checkpoint", interrupted)
    out = tmp_path / "o"
    assert main(["simulate", "--config", _write(tmp_path, SMALL_RUN), "--output", str(out)]) == 1
    names = ["last_checkpoint.ckpt", "snapshot_00000000.csv", "snapshot_00000008.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.json"])
    assert read_checkpoint(out / "last_checkpoint.ckpt")[1] == 0
    # the manifest names exactly the files written, with the exit reason
    man = _manifest(out)
    assert man["outputs"] == names
    assert man["exit_code"] == 1 and man["exit_reason"] == "error: interrupted"


@pytest.mark.parametrize("name", ["snapshot_00000008.csv", "density_series.csv"])
def test_csv_written_whole_or_not_at_all(tmp_path, monkeypatch, name):
    """A snapshot or series CSV write that fails part way leaves no partial
    file under any name; the command exits 1, and the manifest names
    exactly the directory's other files."""
    import kinfp.cli as cli

    write = cli._write_csv

    def interrupted(path, header, rows):
        if Path(path).name.startswith(name):
            Path(path).write_text(header + "\n1.0")
            raise OSError("interrupted")
        write(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", interrupted)
    out = tmp_path / "o"
    assert main(["simulate", "--config", _write(tmp_path, SMALL_RUN), "--output", str(out)]) == 1
    on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert not [p for p in on_disk if p.startswith(name)]
    man = _manifest(out)
    assert man["outputs"] == on_disk and "snapshot_00000000.csv" in on_disk
    assert man["exit_code"] == 1 and man["exit_reason"] == "error: interrupted"


@pytest.mark.parametrize(
    "command, code",
    [
        ("simulate-abort", 3), ("verify-lyapunov", 0), ("verify-fail", 2), ("fit-rate", 0),
        ("steady-state", 0), ("export-reference", 0),
    ],
)
def test_manifest_lists_exactly_the_files_written(tmp_path, command, code):
    """main writes the one manifest after every exit that made a directory,
    and it names every other file there and records the command's options
    other than the config and output paths."""
    from kinfp import PhaseGrid
    from kinfp.grid import Field
    from kinfp.solver import write_checkpoint

    series = tmp_path / "series.csv"
    t = np.linspace(0.0, 40.0, 50)
    series.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, np.exp(-t**0.5))))
    bad = tmp_path / "bad.ckpt"
    write_checkpoint(Field(np.full((32, 32), np.nan), PhaseGrid(20.0, 20.0, 32, 32), 0.0), 0, bad)
    text, argv, options = {
        "simulate-abort": (
            SMALL_RUN + f"initial.preset = file\ninitial.file = {bad}\n", ["simulate"],
            {"resume": None},
        ),
        "verify-lyapunov": (VERIFY_PASS, ["verify-lyapunov"], {"search": False}),
        "verify-fail": (
            VERIFY_PASS.replace("lyapunov.eps = 0.2", "lyapunov.eps = 0.0"), ["verify-lyapunov"],
            {"search": False},
        ),
        "fit-rate": (MINIMAL, ["fit-rate", "--series", str(series)], {"series": str(series)}),
        "steady-state": (
            SMALL_RUN, ["steady-state", "--tol-rate", "1e300"], {"tol_rate": 1e300}
        ),
        "export-reference": (SMALL_RUN, ["export-reference"], {}),
    }[command]
    out = tmp_path / "o"
    assert main([*argv, "--config", _write(tmp_path, text), "--output", str(out)]) == code
    man = _manifest(out)
    assert man["command"] == argv[0] and man["exit_code"] == code
    assert man["options"] == options
    assert man["outputs"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


def test_steady_state_that_is_not_reached_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["steady-state", "--config", _write(tmp_path, SMALL_RUN), "--output", str(out),
            "--tol-rate", "1e-14"]
    assert main(argv) == 3
    assert "steady state not reached" in capsys.readouterr().err
    assert not out.exists()
