"""The stepping, steady-state and certification paths run without importing scipy."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COLD_PATH = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    import kinfp, kinfp.cli
    from kinfp import cli

    out = Path(sys.argv[1])
    sim = out / "sim.cfg"
    sim.write_text(
        "model.alpha = 1.5\\nmodel.kind = exp\\nmodel.beta = 0.5\\n"
        "grid.Nx = 16\\ngrid.Nv = 16\\ngrid.L = 10\\ngrid.v_max = 10\\n"
        "time.dt = 0.01\\ntime.t_final = 0.04\\n"
        "diagnostics.reference = profile\\ndiagnostics.cadence = 2\\n"
        "diagnostics.snapshot_cadence = 2\\noutput.snapshot_format = checkpoint\\n"
    )
    assert cli.main(["simulate", "--config", str(sim), "--output", str(out / "sim")]) == 0
    search = out / "search.cfg"
    search.write_text(
        "model.alpha = 2.0\\nmodel.kind = exp\\nmodel.beta = 1.0\\n"
        "lyapunov.mode = exp\\nlyapunov.theta = 0.5\\nlyapunov.samples = 16\\n"
    )
    code = cli.main(["verify-lyapunov", "--search", "--config", str(search),
                     "--output", str(out / "search")])
    assert code in (0, 2), code
    steady = out / "steady.cfg"
    steady.write_text(
        "model.alpha = 1.5\\nmodel.kind = exp\\nmodel.beta = 0.5\\n"
        "grid.Nx = 16\\ngrid.Nv = 16\\ngrid.L = 10\\ngrid.v_max = 10\\n"
        "time.t_final = 100\\ndiagnostics.cadence = 50\\n"
    )
    assert cli.main(["steady-state", "--config", str(steady), "--tol-rate", "1e-4",
                     "--output", str(out / "steady")]) == 0
    loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
    assert not loaded, f"imported on the cold path: {loaded}"

    print("cold path ok")
    """
)


def test_simulate_and_search_do_not_import_scipy(tmp_path):
    """A fresh interpreter that imports the package, runs a small simulate
    with profile diagnostics and checkpoint snapshots, a small certificate
    search and a small steady-state march has imported no scipy module."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PATH, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("cold path ok")
