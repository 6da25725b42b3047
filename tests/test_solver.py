"""Grid construction, finite-volume substeps, stepping, run loop, checkpoints."""

import tracemalloc

import numpy as np
import pytest

from kinfp import (
    Field,
    ModelParams,
    SolverConfig,
    Sinks,
    build_grid,
    cfl_timestep,
    default_initial_condition,
    l1_distance,
    mass,
    run,
    steady_state_reference,
    strang_step,
    transport_rhs,
    velocity_rhs,
)
from kinfp.solver import (
    Stepper,
    cc_delta,
    discrete_velocity_equilibrium,
    double_exponential_datum,
    fuses_transport,
    read_checkpoint,
    velocity_face_coefficients,
    write_checkpoint,
)


@pytest.fixture(scope="module")
def desk():
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    grid = build_grid(50.0, 50.0, 64, 64)
    return params, grid


# ---------------------------------------------------------------- grid


def test_grid_centers_match_formula():
    g = build_grid(400.0, 400.0, 400, 400)
    assert g.dx == 2.0
    assert g.x_centers[0] == -399.0
    assert g.x_centers[-1] == 399.0
    np.testing.assert_allclose(
        g.x_centers, -400.0 + (np.arange(400) + 0.5) * 2.0, rtol=0, atol=1e-12
    )


def test_grid_two_cell_symmetry():
    g = build_grid(1.0, 1.0, 2, 2)
    np.testing.assert_array_equal(g.x_centers, [-0.5, 0.5])


def test_grid_centers_exactly_antisymmetric():
    g = build_grid(50.0, 37.0, 128, 96)
    assert np.all(g.x_centers == -g.x_centers[::-1])
    assert np.all(g.v_centers == -g.v_centers[::-1])


def test_grid_rejects_odd_counts():
    with pytest.raises(ValueError):
        build_grid(50.0, 50.0, 127, 128)
    with pytest.raises(ValueError):
        build_grid(50.0, 50.0, 128, 0)
    with pytest.raises(ValueError):
        build_grid(-1.0, 50.0, 128, 128)


# ---------------------------------------------------------------- initial condition


def test_initial_datum_values():
    assert double_exponential_datum(0.0, 0.0) == 1.0 / 16.0
    x, v = 1.7, -2.4
    assert double_exponential_datum(x, v) == double_exponential_datum(-x, -v)


def test_initial_condition_mass_production_resolution():
    # continuum mass is exactly 1; cell averaging leaves only the
    # domain-truncation deficit at the production resolution
    g = build_grid(400.0, 400.0, 400, 400)
    f = default_initial_condition(g)
    assert abs(mass(f) - 1.0) < 1e-3
    assert np.all(f.values >= 0.0)
    np.testing.assert_array_equal(f.values, f.values[::-1, ::-1])
    # cell averages agree with the pointwise datum to second order
    fine = build_grid(50.0, 50.0, 1024, 1024)
    ff = default_initial_condition(fine)
    pointwise = double_exponential_datum(fine.x_centers[:, None], fine.v_centers[None, :])
    assert np.abs(ff.values - pointwise).max() < 3e-4 * pointwise.max()


# ---------------------------------------------------------------- CFL


def test_cfl_production_configuration():
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    g = build_grid(400.0, 400.0, 400, 400)
    bound = cfl_timestep(g, params, 1.0)
    # dx/v_max = 0.005 dominates; the production step 6.25e-4 fits under it
    assert bound == pytest.approx(0.005, rel=1e-12)
    assert 6.25e-4 <= bound
    # doubling v_max halves the advective bound
    g2 = build_grid(400.0, 800.0, 400, 800)
    assert cfl_timestep(g2, params, 1.0) == pytest.approx(0.0025, rel=1e-12)
    # safety scales linearly
    assert cfl_timestep(g, params, 0.5) == pytest.approx(0.0025, rel=1e-12)


# ---------------------------------------------------------------- transport substep


def test_transport_constant_field_zero_increment(desk):
    _, grid = desk
    f = Field(np.full((grid.Nx, grid.Nv), 0.37), grid)
    assert np.all(transport_rhs(f) == 0.0)


def test_transport_specular_increment_sums_to_zero(desk, rng):
    _, grid = desk
    f = Field(rng.random((grid.Nx, grid.Nv)), grid)
    r = transport_rhs(f)
    assert abs(r.sum()) <= 1e-13 * np.abs(r).sum()


def test_transport_smooth_advection_order():
    """Refinement halves dx and cuts the L1 error by >= 3.6 (order >= 1.85)."""

    def l1_error(nx):
        L = 1.0
        grid = build_grid(L, 1.5, nx, 2)
        dx = grid.dx
        x = grid.x_centers
        speed = grid.v_centers[1]  # constant per row
        f = np.tile((2.0 + np.sin(np.pi * x))[:, None], (1, 2))
        T = 0.4
        dt = 0.4 * dx / abs(speed)
        n = int(np.ceil(T / dt))
        dt = T / n
        fld = Field(f, grid)
        stepper = Stepper(grid, ModelParams(alpha=2.0, kind="exp", beta=2.0), bc="periodic")
        vals = fld.values
        for _ in range(n):
            vals = stepper._heun(stepper._transport, vals, dt, np.empty_like(vals))
        row = 1
        exact = 2.0 + np.sin(np.pi * (x - speed * T))
        return np.abs(vals[:, row] - exact).sum() * dx

    e1, e2 = l1_error(128), l1_error(256)
    assert e1 / e2 >= 3.6


# ---------------------------------------------------------------- velocity substep


def test_cc_delta_values():
    assert cc_delta(0.0) == 0.5
    assert cc_delta(1.0) == pytest.approx(1.0 - 1.0 / (np.e - 1.0), rel=1e-14)
    assert cc_delta(1.0) == pytest.approx(0.418023, abs=1e-6)
    assert cc_delta(-1.0) == pytest.approx(1.0 - cc_delta(1.0), rel=1e-14)
    # series branch agrees with the direct formula near the switch point
    w = 0.99e-4
    direct = 1.0 / w - 1.0 / np.expm1(w)
    assert cc_delta(w) == pytest.approx(direct, abs=1e-12)
    # overflow guards
    assert cc_delta(800.0) == pytest.approx(1.0 / 800.0, rel=1e-12)
    assert cc_delta(-800.0) == pytest.approx(1.0 - 1.0 / 800.0, rel=1e-12)


def test_velocity_equilibrium_zero_increment(desk):
    params, grid = desk
    g = discrete_velocity_equilibrium(grid, params, x_value=0.0)
    f = Field(np.tile(g, (grid.Nx, 1)), grid)
    r = velocity_rhs(f, params, freeze_x=0.0)
    assert np.abs(r).max() <= 1e-12 * g.max() / grid.dv**2


def test_velocity_column_mass_conserved(desk, rng):
    params, grid = desk
    f = Field(rng.random((grid.Nx, grid.Nv)), grid)
    r = velocity_rhs(f, params)
    col = r.sum(axis=1)
    assert np.abs(col).max() <= 1e-13 * np.abs(r).sum(axis=1).max()


# ---------------------------------------------------------------- full step


def test_strang_zero_dt_identity(desk):
    params, grid = desk
    f = default_initial_condition(grid)
    g = strang_step(f, params, 0.0)
    np.testing.assert_array_equal(f.values, g.values)
    assert g.time_stamp == f.time_stamp


def test_strang_mass_conservation_one_step(desk):
    params, grid = desk
    f = default_initial_condition(grid)
    dt = cfl_timestep(grid, params, 0.45)
    g = strang_step(f, params, dt)
    assert abs(mass(g) - mass(f)) <= 1e-13 * mass(f)
    assert g.values.min() >= -1e-14 * g.values.max()
    assert g.time_stamp == dt


def test_strang_one_step_production_resolution():
    # one full step at the production configuration: mass to 1e-12 and the
    # max-norm grows at most O(dt)
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    grid = build_grid(400.0, 400.0, 400, 400)
    f = default_initial_condition(grid)
    g = strang_step(f, params, 6.25e-4)
    assert abs(mass(g) - mass(f)) <= 1e-12 * mass(f)
    assert g.values.max() <= f.values.max() * (1.0 + 1e-2)


def test_strang_rejects_cfl_violation(desk):
    params, grid = desk
    f = default_initial_condition(grid)
    with pytest.raises(ValueError):
        strang_step(f, params, 10.0 * cfl_timestep(grid, params, 1.0))


def test_step_symmetry_equivariance(desk):
    """Point reflection (x, v) -> (-x, -v) commutes with the scheme."""
    params, grid = desk
    f = default_initial_condition(grid)
    dt = cfl_timestep(grid, params, 0.45)
    g = f
    for _ in range(20):
        g = strang_step(g, params, dt)
    np.testing.assert_allclose(g.values, g.values[::-1, ::-1], rtol=0, atol=1e-15)


def test_step_default_leaves_input_untouched(desk):
    params, grid = desk
    values = default_initial_condition(grid).values
    before = values.copy()
    dt = cfl_timestep(grid, params, 0.45)
    stepper = Stepper(grid, params)
    out = stepper.step(values, dt)
    assert out is not values
    assert not np.shares_memory(out, values)
    np.testing.assert_array_equal(values.view(np.uint64), before.view(np.uint64))
    # out=values advances in place to the same bits
    inplace = values.copy()
    assert stepper.step(inplace, dt, out=inplace) is inplace
    np.testing.assert_array_equal(inplace.view(np.uint64), out.view(np.uint64))


def test_strang_step_leaves_field_untouched(desk):
    params, grid = desk
    f = default_initial_condition(grid)
    before = f.values.copy()
    g = strang_step(f, params, cfl_timestep(grid, params, 0.45))
    assert not np.shares_memory(g.values, f.values)
    np.testing.assert_array_equal(f.values.view(np.uint64), before.view(np.uint64))


def test_shared_stepper_matches_separate_steppers(desk, rng):
    """Two fields stepped alternately through one stepper, as in c01."""
    params, grid = desk
    dt = cfl_timestep(grid, params, 0.45)
    f1 = default_initial_condition(grid).values
    f2 = f1 * (1.0 + 0.5 * rng.random(f1.shape))
    shared = Stepper(grid, params)
    a1, a2 = f1, f2
    for _ in range(5):
        a1 = shared.step(a1, dt)
        a2 = shared.step(a2, dt)
    own1, own2 = Stepper(grid, params), Stepper(grid, params)
    b1, b2 = f1, f2
    for _ in range(5):
        b1 = own1.step(b1, dt)
    for _ in range(5):
        b2 = own2.step(b2, dt)
    np.testing.assert_array_equal(a1.view(np.uint64), b1.view(np.uint64))
    np.testing.assert_array_equal(a2.view(np.uint64), b2.view(np.uint64))


def test_inplace_step_allocates_under_two_fields():
    """A warmed-up in-place step allocates no field-sized temporary.

    The bound is not zero: numpy's ufunc iterator may buffer up to 64 KiB
    per operand on strided views.  One 256^2 field is 512 KiB.
    """
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    grid = build_grid(50.0, 50.0, 256, 256)
    stepper = Stepper(grid, params)
    values = default_initial_condition(grid).values.copy()
    dt = cfl_timestep(grid, params, 0.45)
    stepper.step(values, dt, out=values)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        stepper.step(values, dt, out=values)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * values.nbytes


# ---------------------------------------------------------------- run loop


def _desk_config(t_final=0.5, **kw):
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    grid = build_grid(50.0, 50.0, 64, 64)
    defaults = dict(
        model=params,
        grid=grid,
        t_final=t_final,
        dt="auto",
        cfl_safety=0.45,
        snapshot_cadence=10,
        diagnostics_cadence=5,
    )
    defaults.update(kw)
    return SolverConfig(**defaults)


def test_solver_config_validates_explicit_dt():
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    grid = build_grid(50.0, 50.0, 64, 64)
    bound = cfl_timestep(grid, params, 0.45)
    with pytest.raises(ValueError):
        SolverConfig(model=params, grid=grid, t_final=1.0, dt=2.0 * bound)
    cfg = SolverConfig(model=params, grid=grid, t_final=1.0, dt=0.5 * bound)
    assert cfg.resolve_dt()[0] == 0.5 * bound


def test_run_zero_horizon_returns_initial():
    cfg = _desk_config(t_final=0.0)
    f0 = default_initial_condition(cfg.grid)
    out = run(cfg, f0)
    np.testing.assert_array_equal(out.values, f0.values)


def test_run_deterministic_and_emits():
    cfg = _desk_config()
    records = []
    snaps = []
    sinks = Sinks(
        snapshot=lambda f, step: snaps.append(step),
        diagnostics=lambda rec: records.append(rec),
    )
    out1 = run(cfg, None, sinks)
    out2 = run(cfg, None, Sinks())
    np.testing.assert_array_equal(out1.values, out2.values)
    assert len(records) > 2
    assert records[0].time == 0.0
    assert all(r.mass > 0.0 for r in records)
    drift = max(abs(r.mass - records[0].mass) for r in records)
    assert drift <= 1e-12 * records[0].mass
    assert snaps[0] == 0


def test_run_weighted_diagnostics_records():
    cfg = _desk_config(t_final=0.1)
    ref = default_initial_condition(cfg.grid)
    w = np.ones((cfg.grid.Nx, cfg.grid.Nv)) * 2.0
    records = []
    run(cfg, None, Sinks(diagnostics=records.append, reference=ref, weight=w))
    assert all(r.l1_distance_to_reference is not None for r in records)
    tail = records[-1]
    assert tail.weighted_l1 == pytest.approx(2.0 * tail.l1_distance_to_reference, rel=1e-12)


def test_run_checkpoint_resume_bit_identical(tmp_path):
    cfg = _desk_config(t_final=0.3, snapshot_cadence=5)
    dt, n = cfg.resolve_dt()
    mid = 5 * max(1, (n // 2) // 5)  # a snapshot step near the middle
    saved = {}

    def snap(field, step):
        if step == mid:
            path = tmp_path / "mid.ckpt"
            write_checkpoint(field, step, path)
            saved["path"] = path

    run(cfg, None, Sinks(snapshot=snap))
    full = run(cfg, None, Sinks())
    field, step = read_checkpoint(saved["path"])
    assert step == mid
    resumed = run(cfg, field, Sinks(), start_step=step)
    np.testing.assert_array_equal(full.values, resumed.values)


def _unfused(cfg, values, n, dt):
    stepper = Stepper(cfg.grid, cfg.model)
    for _ in range(n):
        values = stepper.step(values, dt)
    return values


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Counts of kernel calls, taken through the ``kernels`` module attributes."""
    import kinfp.kernels as kernels

    counts = {"transport_rhs_kernel": 0, "velocity_rhs_kernel": 0}

    def counting(name):
        fn = getattr(kernels, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(kernels, name, counting(name))
    return counts


@pytest.mark.parametrize("n, cadence, pairs", [(1, 100, 2), (7, 100, 8), (7, 3, 10)])
def test_fused_segment_kernel_calls(kernel_calls, n, cadence, pairs):
    """A segment of n steps makes n + 1 transport Heun pairs and n velocity
    pairs; 7 steps at cadence 3 are segments of 3, 3 and 1 steps."""
    dt, _ = _desk_config().resolve_dt()
    cfg = _desk_config(t_final=n * dt, dt=dt, snapshot_cadence=100, diagnostics_cadence=cadence)
    assert cfg.resolve_dt() == (dt, n) and fuses_transport(cfg.grid, dt)
    run(cfg)
    assert kernel_calls == {"transport_rhs_kernel": 2 * pairs, "velocity_rhs_kernel": 2 * n}


def test_steady_march_fuses_then_ends_symmetric(kernel_calls):
    """A window is one fused segment until one meets the tolerance; the
    march then returns after a window of symmetric steps."""
    cfg = _desk_config(t_final=50.0, diagnostics_cadence=6)
    f = steady_state_reference(cfg, tol_rate=1e300)  # accepts every window
    assert f.time_stamp == 12 * cfg.resolve_dt()[0]
    assert kernel_calls == {"transport_rhs_kernel": 2 * (7 + 12), "velocity_rhs_kernel": 2 * 12}


def test_steady_state_is_steady_under_symmetric_steps():
    """On a coarse grid the fused and symmetric fixed points lie far enough
    apart that a fused-only march would fail this (rate 7.5e-5 here)."""
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    cfg = SolverConfig(
        model=params, grid=build_grid(30.0, 30.0, 12, 12), t_final=500.0,
        diagnostics_cadence=200,
    )
    dt, _ = cfg.resolve_dt()
    assert fuses_transport(cfg.grid, dt)
    f = steady_state_reference(cfg, tol_rate=1e-5)
    after = Field(_unfused(cfg, f.values, 200, dt), cfg.grid)
    assert l1_distance(after, Field(f.values, cfg.grid)) / (200 * dt) < 1e-5


def test_run_above_half_courant_is_unfused():
    cfg = _desk_config(t_final=0.3, cfl_safety=0.9)
    dt, n = cfg.resolve_dt()
    assert cfg.grid.v_max * dt / cfg.grid.dx > 0.5 and not fuses_transport(cfg.grid, dt)
    f0 = default_initial_condition(cfg.grid)
    np.testing.assert_array_equal(run(cfg, f0).values, _unfused(cfg, f0.values, n, dt))


def test_fused_minus_unfused_is_second_order():
    """Heun's T(dt) and two T(dt/2) differ by O(dt^3) per step, so the
    endpoint difference over a fixed horizon falls about 4x per halving of dt."""
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    grid = build_grid(20.0, 20.0, 32, 32)
    f0 = default_initial_condition(grid)
    diffs = []
    for n in (32, 64, 128):
        dt = 0.4 * grid.dx / grid.v_max * 32 / n
        cfg = SolverConfig(
            model=params, grid=grid, t_final=n * dt, dt=dt,
            snapshot_cadence=10_000, diagnostics_cadence=10_000,
        )
        assert cfg.resolve_dt() == (dt, n)
        fused = run(cfg, f0).values
        diffs.append(np.abs(fused - _unfused(cfg, f0.values, n, dt)).sum() * grid.cell_volume)
    ratios = np.array(diffs[:-1]) / np.array(diffs[1:])
    assert np.all((ratios > 3.5) & (ratios < 4.5)), ratios


def test_resume_bit_identical_with_distinct_cadences(tmp_path):
    """Segments end at snapshot steps (every 7) and at diagnostics steps
    (every 10); a run resumed from any snapshot matches the full run."""
    cfg = _desk_config(t_final=0.5, snapshot_cadence=7, diagnostics_cadence=10)
    dt, n = cfg.resolve_dt()

    def snap(field, step):
        write_checkpoint(field, step, tmp_path / f"s{step}.ckpt")

    full = run(cfg, None, Sinks(snapshot=snap))
    assert fuses_transport(cfg.grid, dt)
    steps = range(7, n, 7)
    assert any(step % 10 for step in steps) and len(steps) >= 4
    for step in steps:
        field, k = read_checkpoint(tmp_path / f"s{step}.ckpt")
        resumed = run(cfg, field, Sinks(), start_step=k)
        np.testing.assert_array_equal(full.values, resumed.values)


def test_checkpoint_round_trip(tmp_path, desk):
    _, grid = desk
    f = default_initial_condition(grid)
    f = Field(f.values, grid, 1.25)
    path = tmp_path / "f.ckpt"
    write_checkpoint(f, 42, path)
    g, step = read_checkpoint(path)
    assert step == 42
    assert g.time_stamp == 1.25
    assert g.grid == grid
    np.testing.assert_array_equal(f.values, g.values)
    with pytest.raises(ValueError):
        (tmp_path / "bad.ckpt").write_bytes(b"not a checkpoint")
        read_checkpoint(tmp_path / "bad.ckpt")


# ---------------------------------------------------------------- steady state


def test_steady_state_fixed_point_terminates_immediately(desk):
    params, grid = desk
    cfg = _desk_config(t_final=50.0)
    g = discrete_velocity_equilibrium(grid, params, x_value=0.0)
    # velocity-only dynamics: its exact fixed point must be detected at once
    eq = Field(np.tile(g, (grid.Nx, 1)), grid)
    stepper = Stepper(grid, params, transport_enabled=False, freeze_x=0.0)
    dt, _ = cfg.resolve_dt()
    vals = eq.values
    for _ in range(cfg.diagnostics_cadence):
        vals = stepper.step(vals, dt)
    rate = np.abs(vals - eq.values).sum() * grid.cell_volume / (cfg.diagnostics_cadence * dt)
    assert rate < 1e-12


def test_velocity_only_converges_to_column_equilibrium():
    # Gaussian equilibrium has a spectral gap, so the velocity-only flow
    # reaches the discrete fixed point quickly (the sub-exponential cases
    # relax sub-geometrically and would need far longer horizons)
    params = ModelParams(alpha=2.0, kind="exp", beta=2.0)
    grid = build_grid(50.0, 50.0, 64, 64)
    geq = discrete_velocity_equilibrium(grid, params, x_value=0.0)
    f0 = default_initial_condition(grid)
    stepper = Stepper(grid, params, transport_enabled=False, freeze_x=0.0)
    dt = cfl_timestep(grid, params, 0.45)
    vals = f0.values.copy()
    for _ in range(3200):
        vals = stepper.step(vals, dt)
    # velocity dynamics conserves each column's mass separately
    col_mass = f0.values.sum(axis=1) * grid.dv
    target = col_mass[:, None] * geq[None, :]
    dist = np.abs(vals - target).sum() * grid.cell_volume
    assert dist < 1e-8


def test_steady_state_exhaustion_raises():
    cfg = _desk_config(t_final=0.05)
    with pytest.raises(RuntimeError, match="last rate"):
        steady_state_reference(cfg, tol_rate=1e-14)
