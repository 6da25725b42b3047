"""Strict flat-key configuration: parsing, defaults, violations, round-trip."""

import dataclasses
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinfp.config import SCHEMA, ConfigError, parse_config, serialize_config

MINIMAL = """
model.alpha = 1.5
model.kind = exp
model.beta = 0.5
"""


def test_minimal_config_applies_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg["grid.Nx"] == 128
    assert cfg["time.dt"] == "auto"
    assert cfg["time.cfl_safety"] == 0.45
    assert cfg["output.dir"] == "out"
    params = cfg.model_params()
    assert params.alpha == 1.5 and params.beta == 0.5
    grid = cfg.phase_grid()
    assert grid.L == 50.0 and grid.Nx == 128


def test_alpha_at_most_one_rejected():
    with pytest.raises(ConfigError, match="alpha must exceed 1"):
        parse_config("model.alpha = 0.9\nmodel.kind = exp\nmodel.beta = 0.5\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL + "grid.cells = 10\n")


def test_all_violations_reported():
    bad = "model.alpha = 0.5\nmodel.kind = exp\nmodel.beta = -1\ngrid.Nx = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    text = str(err.value)
    assert "alpha" in text and "beta" in text and "Nx" in text


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="model.alpha"):
        parse_config("model.kind = exp\nmodel.beta = 1.0\n")
    with pytest.raises(ConfigError, match="model.gamma"):
        parse_config("model.alpha = 2.0\nmodel.kind = poly\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL + "model.alpha = 2.0\n")


def test_dt_cfl_validation_reports_both_values():
    text = MINIMAL + "time.dt = 0.5\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "0.5" in msg and "CFL" in msg
    # a compliant dt passes
    cfg = parse_config(MINIMAL + "time.dt = 1e-3\n")
    assert cfg.solver_config().resolve_dt()[0] == pytest.approx(1e-3)


def test_round_trip_idempotent():
    text = MINIMAL + "grid.Nx = 64\ngrid.Nv = 64\ntime.t_final = 2.5\n"
    cfg1 = parse_config(text)
    cfg2 = parse_config(serialize_config(cfg1))
    assert cfg1 == cfg2
    assert serialize_config(cfg1) == serialize_config(cfg2)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\n" + MINIMAL)
    assert cfg["model.alpha"] == 1.5


def test_radii_list_parsing():
    cfg = parse_config(MINIMAL + "lyapunov.radii = 10, 20,30\n")
    assert cfg["lyapunov.radii"] == (10.0, 20.0, 30.0)
    scan = cfg.scan_config()
    assert scan.exclusion_radii == (10.0, 20.0, 30.0)


@given(
    alpha=st.floats(1.01, 4.0),
    beta=st.floats(0.1, 4.0),
    nx=st.sampled_from([32, 64, 128]),
    t_final=st.floats(0.0, 20.0),
)
@settings(max_examples=30, deadline=None)
def test_round_trip_property(alpha, beta, nx, t_final):
    text = (
        f"model.alpha = {alpha!r}\nmodel.kind = exp\nmodel.beta = {beta!r}\n"
        f"grid.Nx = {nx}\ntime.t_final = {t_final!r}\n"
    )
    cfg1 = parse_config(text)
    cfg2 = parse_config(serialize_config(cfg1))
    assert cfg1 == cfg2


def test_schema_defaults_are_self_consistent():
    # every non-required default must parse through its own serializer
    cfg = parse_config(MINIMAL)
    assert [key for key, _ in cfg.entries] == list(SCHEMA)


def _defaults(fn):
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


def test_schema_defaults_match_the_library_defaults():
    """SCHEMA repeats the defaults of the library objects and functions
    that read its keys, and ``--tol-rate`` repeats
    ``steady_state_reference``'s; each pair must agree."""
    from kinfp.cli import _build_parser
    from kinfp.diagnostics import rate_fit
    from kinfp.solver import SolverConfig, steady_state_reference
    from kinfp.verify import ScanConfig, find_certified_spec

    solver = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    scan = {f.name: f.default for f in dataclasses.fields(ScanConfig)}
    pairs = [
        ("time.dt", solver["dt"]),
        ("time.cfl_safety", solver["cfl_safety"]),
        ("diagnostics.snapshot_cadence", solver["snapshot_cadence"]),
        ("diagnostics.cadence", solver["diagnostics_cadence"]),
        ("lyapunov.scan_x", scan["x_half"]),
        ("lyapunov.scan_v", scan["v_half"]),
        ("lyapunov.samples", scan["samples_per_axis"]),
        ("lyapunov.radii", scan["exclusion_radii"]),
        ("lyapunov.ell", _defaults(find_certified_spec)["ell"]),
        ("diagnostics.rate_burn_fraction", _defaults(rate_fit)["burn_fraction"]),
    ]
    assert [(key, SCHEMA[key][1]) for key, _ in pairs] == pairs
    args = _build_parser().parse_args(["steady-state", "--config", "run.cfg"])
    assert args.tol_rate == _defaults(steady_state_reference)["tol_rate"]


@pytest.mark.parametrize(
    "line",
    [
        "diagnostics.rate_k = 2.0",
        "diagnostics.tail_window_lo = 20",
        "diagnostics.tail_window_hi = 40",
        "lyapunov.fd_step = 1e-4",
    ],
)
def test_inert_keys_rejected(line):
    # these keys once parsed but changed nothing; they are unknown now
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL + line + "\n")


def test_violations_from_every_object_reported_together():
    bad = MINIMAL + "model.alpha = 0.9\ngrid.v_max = -1\nlyapunov.eps = -0.5\n"
    with pytest.raises(ConfigError) as err:
        parse_config(bad.replace("model.alpha = 1.5\n", ""))
    text = str(err.value)
    assert "alpha must exceed 1" in text
    assert "v_max must be positive" in text
    assert "eps must be nonnegative" in text


@pytest.mark.parametrize(
    "line, message",
    [
        ("lyapunov.samples = 3", "samples_per_axis"),
        ("lyapunov.b_exp = 2", "b_exp"),
        ("lyapunov.radii = 60", "radii must be smaller than the box"),
        ("lyapunov.eps = nan", "eps must be nonnegative"),
    ],
)
def test_lyapunov_values_rejected_at_parse_time(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(MINIMAL + line + "\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("grid.L = inf", "L must be positive and finite"),
        ("grid.v_max = inf", "v_max must be positive and finite"),
        ("time.t_final = inf", "t_final must be nonnegative and finite"),
        ("lyapunov.scan_x = inf", "half-widths must be positive and finite"),
        ("lyapunov.scan_v = inf", "half-widths must be positive and finite"),
    ],
)
def test_infinite_box_and_horizon_rejected_at_parse_time(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(MINIMAL + line + "\n")


@pytest.mark.parametrize(
    "key, value",
    [
        ("diagnostics.delta", "-2"),
        ("diagnostics.delta", "inf"),
        ("diagnostics.delta", "nan"),
        ("diagnostics.rate_theta", "5"),
        ("diagnostics.rate_theta", "0"),
        ("diagnostics.rate_theta", "nan"),
    ],
)
def test_diagnostics_values_rejected_at_parse_time(key, value):
    """The checks that reference_profile and rate_fit run on their inputs
    refuse the values when the config is parsed, for every command."""
    rule = {
        "diagnostics.delta": "delta must be nonnegative and finite",
        "diagnostics.rate_theta": r"exp mode needs theta in \(0, 1\]",
    }[key]
    with pytest.raises(ConfigError, match=f"{key}: {rule}"):
        parse_config(MINIMAL + f"{key} = {value}\n")


def test_diagnostics_values_at_the_range_edges_parse():
    cfg = parse_config(MINIMAL + "diagnostics.delta = 0\ndiagnostics.rate_theta = 1\n")
    assert cfg["diagnostics.delta"] == 0.0 and cfg["diagnostics.rate_theta"] == 1.0


@pytest.mark.parametrize("fraction", [-3.0, -1e-9, 1.0, 2.0])
def test_rate_burn_fraction_outside_unit_interval_rejected(fraction):
    with pytest.raises(ConfigError, match="rate_burn_fraction"):
        parse_config(MINIMAL + f"diagnostics.rate_burn_fraction = {fraction!r}\n")
    parse_config(MINIMAL + "diagnostics.rate_burn_fraction = 0.0\n")


def test_poly_gamma_follows_model_params():
    # gamma in (0, 1] is a valid equilibrium; only gamma <= 0 is refused
    text = "model.alpha = 2.0\nmodel.kind = poly\nmodel.gamma = {}\n"
    assert parse_config(text.format(0.5)).model_params().gamma == 0.5
    with pytest.raises(ConfigError, match="gamma > 0"):
        parse_config(text.format(0.0))


@pytest.mark.parametrize(
    "text, key",
    [
        ("model.alpha = 2.0\nmodel.kind = poly\nmodel.gamma = 2.0\nmodel.beta = 0.5\n",
         "model.beta"),
        (MINIMAL + "model.gamma = 2.0\n", "model.gamma"),
        (MINIMAL + "initial.file = start.ckpt\n", "initial.file"),
        (MINIMAL + "diagnostics.reference = profile\n"
         + "diagnostics.reference_file = ref.ckpt\n", "diagnostics.reference_file"),
        (MINIMAL + "lyapunov.mode = poly\nlyapunov.theta = 0.5\n", "lyapunov.theta"),
        (MINIMAL + "lyapunov.mode = poly\nlyapunov.delta = 1.0\n", "lyapunov.delta"),
        (MINIMAL + "lyapunov.k = 0.5\n", "lyapunov.k"),
        (MINIMAL + "diagnostics.rate_mode = poly\ndiagnostics.rate_theta = 3\n",
         "diagnostics.rate_theta"),
    ],
)
def test_key_ignored_by_selected_variant_rejected(text, key):
    # each key is read under one value of its choice key only
    with pytest.raises(ConfigError, match=f"{key}: only used when"):
        parse_config(text)
    # at its default the key is accepted, as serialize_config writes it
    cfg = parse_config(text.replace(f"{key} = ", f"# {key} = "))
    assert parse_config(serialize_config(cfg)) == cfg
