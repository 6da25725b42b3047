"""Strict flat-key configuration: parsing, defaults, violations, round-trip."""

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
    assert set(cfg.as_dict()) == set(SCHEMA)


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
