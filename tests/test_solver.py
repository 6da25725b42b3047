"""Grid construction, finite-volume substeps, stepping, run loop, checkpoints."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from kinfp import (
    Field,
    ModelParams,
    PhaseGrid,
    SolverConfig,
    Sinks,
    cfl_timestep,
    default_initial_condition,
    l1_distance,
    mass,
    run,
    steady_state_reference,
)
from kinfp import kernels
from kinfp.solver import (
    ANDERSON_DEPTH,
    Stepper,
    _anderson_mix,
    cc_delta,
    discrete_velocity_equilibrium,
    fuses_transport,
    read_checkpoint,
    velocity_face_coefficients,
    write_checkpoint,
)
from oracles import to_state


@pytest.fixture(scope="module")
def desk():
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    grid = PhaseGrid(50.0, 50.0, 64, 64)
    return params, grid


def transport_increment(values, grid, dt):
    """One forward-Euler transport stage's increment dF over dt."""
    courant = grid.v_centers * (dt / grid.dx)
    faces = kernels.transport_rhs_kernel(
        to_state(values), courant, kernels.state_array(values.shape),
        kernels.scratch_array(values.shape),
    )
    increment = kernels.transport_increment(faces, courant, kernels.state_array(values.shape))
    return kernels.interior(increment).copy()


def velocity_steps(values, grid, params, dt, n=1):
    """n velocity Heun steps of length dt, the stepper's kernel call, into a
    new array."""
    weights = kernels.velocity_heun_weights(
        *velocity_face_coefficients(grid, params), dt, grid.dv
    )
    state, scratch = to_state(values), kernels.scratch_array(values.shape)
    for _ in range(n):
        kernels.velocity_rhs_kernel(state, weights, state, scratch)
    return kernels.interior(state).copy()


# ---------------------------------------------------------------- grid


def test_grid_centers_match_formula():
    g = PhaseGrid(400.0, 400.0, 400, 400)
    assert g.dx == 2.0
    assert g.x_centers[0] == -399.0
    assert g.x_centers[-1] == 399.0
    np.testing.assert_allclose(
        g.x_centers, -400.0 + (np.arange(400) + 0.5) * 2.0, rtol=0, atol=1e-12
    )


def test_grid_two_cell_symmetry():
    g = PhaseGrid(1.0, 1.0, 2, 2)
    np.testing.assert_array_equal(g.x_centers, [-0.5, 0.5])


def test_grid_stores_float_box_and_int_counts():
    g = PhaseGrid(np.int64(2), 1, 4.0, np.int64(2))
    assert [type(w) for w in (g.L, g.v_max, g.Nx, g.Nv)] == [float, float, int, int]
    assert g == PhaseGrid(2.0, 1.0, 4, 2)


def test_grid_centers_exactly_antisymmetric():
    g = PhaseGrid(50.0, 37.0, 128, 96)
    assert np.all(g.x_centers == -g.x_centers[::-1])
    assert np.all(g.v_centers == -g.v_centers[::-1])


def test_grid_rejects_odd_counts():
    with pytest.raises(ValueError):
        PhaseGrid(50.0, 50.0, 127, 128)
    with pytest.raises(ValueError):
        PhaseGrid(50.0, 50.0, 128, 0)
    with pytest.raises(ValueError):
        PhaseGrid(-1.0, 50.0, 128, 128)


# ---------------------------------------------------------------- initial condition


def test_initial_condition_mass_production_resolution():
    # continuum mass is exactly 1; cell averaging leaves only the
    # domain-truncation deficit at the production resolution
    g = PhaseGrid(400.0, 400.0, 400, 400)
    f = default_initial_condition(g)
    assert abs(mass(f) - 1.0) < 1e-3
    assert np.all(f.values >= 0.0)
    np.testing.assert_array_equal(f.values, f.values[::-1, ::-1])
    # cell averages agree with the pointwise datum to second order
    fine = PhaseGrid(50.0, 50.0, 1024, 1024)
    ff = default_initial_condition(fine)
    x, v = fine.x_centers[:, None], fine.v_centers[None, :]
    pointwise = np.exp(-np.abs(x) / 2.0 - np.abs(v) / 2.0) / 16.0
    assert np.abs(ff.values - pointwise).max() < 3e-4 * pointwise.max()


# ---------------------------------------------------------------- CFL


def test_cfl_production_configuration():
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    g = PhaseGrid(400.0, 400.0, 400, 400)
    bound = cfl_timestep(g, params, 1.0)
    # dx/v_max = 0.005 dominates; the production step 6.25e-4 fits under it
    assert bound == pytest.approx(0.005, rel=1e-12)
    assert 6.25e-4 <= bound
    # doubling v_max halves the advective bound
    g2 = PhaseGrid(400.0, 800.0, 400, 800)
    assert cfl_timestep(g2, params, 1.0) == pytest.approx(0.0025, rel=1e-12)
    # safety scales linearly
    assert cfl_timestep(g, params, 0.5) == pytest.approx(0.0025, rel=1e-12)


# ---------------------------------------------------------------- transport substep


def test_transport_constant_field_zero_increment(desk):
    _, grid = desk
    f = Field(np.full((grid.Nx, grid.Nv), 0.37), grid)
    r = transport_increment(f.values, grid, 0.5 * grid.dx / grid.v_max)
    assert np.all(r == 0.0)


def test_transport_specular_increment_sums_to_zero(desk, rng):
    _, grid = desk
    f = Field(rng.random((grid.Nx, grid.Nv)), grid)
    r = transport_increment(f.values, grid, 0.5 * grid.dx / grid.v_max)
    assert abs(r.sum()) <= 1e-13 * np.abs(r).sum()


def test_transport_smooth_advection_order():
    """Refinement halves dx and cuts the L1 error by >= 3.6 (order >= 1.85).

    Specular walls fold the line of period 4L onto the box: the columns
    f(x, +s) = g(x) and f(x, -s) = g(2L - x) of a 4L-periodic g are advected
    to g(y - sT) at y = x and y = 2L - x.
    """

    def l1_error(nx):
        L = 1.0
        grid = PhaseGrid(L, 1.5, nx, 2)
        dx = grid.dx
        x = grid.x_centers
        speed = grid.v_centers[1]  # +s; column 0 moves at -s

        def g(y):
            return 2.0 + np.sin(np.pi * y / (2 * L))

        def exact(t):
            return np.stack([g(2 * L - x - speed * t), g(x - speed * t)], axis=1)

        T = 0.4
        dt = 0.4 * dx / abs(speed)
        n = int(np.ceil(T / dt))
        dt = T / n
        stepper = Stepper(grid, ModelParams(alpha=2.0, kind="exp", beta=2.0))
        _, courant, _ = stepper._coefficients(dt)
        np.copyto(kernels.interior(stepper._state), exact(0.0))
        for _ in range(n):
            stepper._transport_heun(courant)
        return np.abs(kernels.interior(stepper._state) - exact(T)).sum() * dx

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


@pytest.mark.parametrize(
    "w, want",
    [
        (500.0, 1.0 / 500.0),
        (709.8, 1.0 / 709.8),
        (1e6, 1e-6),
        (np.inf, 0.0),
        (-745.0, 1.0 - 1.0 / 745.0),
        (-1e6, 1.0 - 1e-6),
        (-np.inf, 1.0),
    ],
)
def test_cc_delta_formula_at_range_edges(w, want):
    # e^w - 1 overflows to inf or rounds to -1 here; the formula still holds
    # and raises no floating-point warning
    with np.errstate(all="raise"):
        got = cc_delta(w)
        vec = cc_delta(np.array([0.0, w]))
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)
    assert vec[0] == 0.5 and vec[1] == got


def test_cc_delta_monotone_in_unit_interval():
    # decreasing from 1 to 0 across the series switch at |w| = 1e-4
    w = np.concatenate(
        [-np.logspace(6, -8, 400), [0.0], np.logspace(-8, 6, 400)]
    )
    d = cc_delta(w)
    assert np.all((d >= 0.0) & (d <= 1.0))
    assert np.all(np.diff(d) <= 0.0)
    # delta(w) + delta(-w) = 1, to the formula's cancellation error of about
    # eps / |w| just above the switch
    np.testing.assert_allclose(d + cc_delta(-w), 1.0, rtol=0.0, atol=2.5e-12)


def column_equilibria(grid, params):
    """The discrete velocity equilibrium of each column x_n, as row n."""
    return np.array(
        [discrete_velocity_equilibrium(grid, params, x_value=x) for x in grid.x_centers]
    )


def test_velocity_equilibrium_zero_increment(desk):
    params, grid = desk
    g = column_equilibria(grid, params)
    dt = cfl_timestep(grid, params, 0.45)
    r = velocity_steps(g, grid, params, dt) - g
    assert np.abs(r).max() <= 1e-12 * g.max() * dt / grid.dv**2


def test_velocity_column_mass_conserved(desk, rng):
    params, grid = desk
    f = Field(rng.random((grid.Nx, grid.Nv)), grid)
    dt = cfl_timestep(grid, params, 0.45)
    r = velocity_steps(f.values, grid, params, dt) - f.values
    col = r.sum(axis=1)
    assert np.abs(col).max() <= 1e-13 * np.abs(r).sum(axis=1).max()


# ---------------------------------------------------------------- full step


def test_strang_zero_dt_identity(desk):
    params, grid = desk
    f = default_initial_condition(grid)
    g = Field(Stepper(grid, params).step(f.values, 0.0), grid)
    np.testing.assert_array_equal(f.values, g.values)


def test_strang_mass_conservation_one_step(desk):
    params, grid = desk
    f = default_initial_condition(grid)
    dt = cfl_timestep(grid, params, 0.45)
    g = Field(Stepper(grid, params).step(f.values, dt), grid)
    assert abs(mass(g) - mass(f)) <= 1e-13 * mass(f)
    assert g.values.min() >= -1e-14 * g.values.max()


def test_strang_one_step_production_resolution():
    # one full step at the production configuration: mass to 1e-12 and the
    # max-norm grows at most O(dt)
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    grid = PhaseGrid(400.0, 400.0, 400, 400)
    f = default_initial_condition(grid)
    g = Field(Stepper(grid, params).step(f.values, 6.25e-4), grid)
    assert abs(mass(g) - mass(f)) <= 1e-12 * mass(f)
    assert g.values.max() <= f.values.max() * (1.0 + 1e-2)


def test_step_symmetry_equivariance(desk):
    """Point reflection (x, v) -> (-x, -v) commutes with the scheme."""
    params, grid = desk
    f = default_initial_condition(grid)
    dt = cfl_timestep(grid, params, 0.45)
    stepper = Stepper(grid, params)
    g = f.values
    for _ in range(20):
        g = stepper.step(g, dt)
    np.testing.assert_allclose(g, g[::-1, ::-1], rtol=0, atol=1e-15)


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
    # the one-step segment advances in place to the same bits
    inplace = values.copy()
    assert stepper.advance(inplace, dt, 1) is inplace
    np.testing.assert_array_equal(inplace.view(np.uint64), out.view(np.uint64))


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


def _warm_stepper_256():
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    grid = PhaseGrid(50.0, 50.0, 256, 256)
    stepper = Stepper(grid, params)
    values = default_initial_condition(grid).values.copy()
    dt = cfl_timestep(grid, params, 0.45)
    stepper.advance(values, dt, 2)
    return stepper, values, dt


def _traced_peak(fn):
    """Peak bytes allocated while ``fn`` runs, above what was held before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_inplace_step_allocates_under_two_fields():
    """A warmed-up in-place step, the one-step segment, allocates no
    field-sized temporary.

    The bound is not zero: numpy's ufunc iterator may buffer up to 64 KiB
    per operand on strided views.  One 256^2 field is 512 KiB.
    """
    stepper, values, dt = _warm_stepper_256()
    peak = _traced_peak(lambda: stepper.advance(values, dt, 1))
    assert peak < 2 * values.nbytes


def test_segment_allocates_under_one_field():
    """A warmed-up segment of 5 fused steps, with the load of ``values``
    into the stepper's state and the store back, allocates less than one
    256^2 field."""
    stepper, values, dt = _warm_stepper_256()
    peak = _traced_peak(lambda: stepper.advance(values, dt, 5))
    assert peak < values.nbytes


@pytest.mark.parametrize("cfl_safety", [0.45, 0.9])
def test_advance_calls_step_through_the_attribute_once_per_step(monkeypatch, cfl_safety):
    """``advance`` takes each step through ``Stepper.step`` as looked up on
    the class, so a wrapper there (a tracer's step span) sees every step;
    the segment is fused below Courant 1/2 and symmetric above."""
    calls = []
    step = Stepper.step

    def counting(self, *args, **kwargs):
        calls.append((kwargs["opens"], kwargs["closes"]))
        return step(self, *args, **kwargs)

    monkeypatch.setattr(Stepper, "step", counting)
    cfg = _desk_config(cfl_safety=cfl_safety)
    dt, _ = cfg.resolve_dt()
    fuse = fuses_transport(cfg.grid, dt)
    assert fuse == (cfl_safety < 0.5)
    values = default_initial_condition(cfg.grid).values.copy()
    Stepper(cfg.grid, cfg.model).advance(values, dt, 4)
    if fuse:
        assert calls == [(True, False), (False, False), (False, False), (False, True)]
    else:
        assert calls == [(True, True)] * 4


# ---------------------------------------------------------------- run loop


def _desk_config(t_final=0.5, **kw):
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    grid = PhaseGrid(50.0, 50.0, 64, 64)
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
    grid = PhaseGrid(50.0, 50.0, 64, 64)
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
    dt = cfg.resolve_dt()[0]
    fields = []
    snaps = []
    sinks = Sinks(
        snapshot=lambda f, step: snaps.append(step),
        diagnostics=lambda f, step: fields.append((f, step)),
    )
    out1 = run(cfg, None, sinks)
    out2 = run(cfg, None, Sinks())
    np.testing.assert_array_equal(out1.values, out2.values)
    assert len(fields) > 2
    assert fields[0][0].time_stamp == 0.0
    assert all(f.time_stamp == step * dt for f, step in fields)
    masses = [mass(f) for f, _ in fields]
    assert all(m > 0.0 for m in masses)
    drift = max(abs(m - masses[0]) for m in masses)
    assert drift <= 1e-12 * masses[0]
    assert snaps[0] == 0


def test_run_computes_no_observables(monkeypatch):
    """``run`` hands its sinks the field and computes no diagnostic itself:
    with both sinks set it completes while mass and l1_distance raise."""
    import kinfp.diagnostics as diagnostics

    def refuse(*args, **kwargs):
        raise AssertionError("run computed an observable")

    monkeypatch.setattr(diagnostics, "mass", refuse)
    monkeypatch.setattr(diagnostics, "l1_distance", refuse)
    cfg = _desk_config(t_final=0.1)
    snaps, diags = [], []
    sinks = Sinks(
        snapshot=lambda f, step: snaps.append(step),
        diagnostics=lambda f, step: diags.append(step),
    )
    run(cfg, None, sinks)
    assert snaps and diags


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
    Heun steps, one kernel call each; 7 steps at cadence 3 are segments of
    3, 3 and 1 steps."""
    dt, _ = _desk_config().resolve_dt()
    cfg = _desk_config(t_final=n * dt, dt=dt, snapshot_cadence=100, diagnostics_cadence=cadence)
    assert cfg.resolve_dt() == (dt, n) and fuses_transport(cfg.grid, dt)
    run(cfg)
    assert kernel_calls == {"transport_rhs_kernel": 2 * pairs, "velocity_rhs_kernel": n}


def test_steady_march_fuses_then_ends_symmetric(kernel_calls):
    """A window is one fused segment until one meets the tolerance; the
    march then returns after a window of symmetric steps."""
    cfg = _desk_config(t_final=50.0, diagnostics_cadence=6)
    f = steady_state_reference(cfg, tol_rate=1e300)  # accepts every window
    assert f.time_stamp == 12 * cfg.resolve_dt()[0]
    assert kernel_calls == {"transport_rhs_kernel": 2 * (7 + 12), "velocity_rhs_kernel": 12}


def test_steady_state_is_steady_under_symmetric_steps():
    """On a coarse grid the fused and symmetric fixed points lie far enough
    apart that a fused-only march would fail this (rate 7.5e-5 here)."""
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    cfg = SolverConfig(
        model=params, grid=PhaseGrid(30.0, 30.0, 12, 12), t_final=500.0,
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
    grid = PhaseGrid(20.0, 20.0, 32, 32)
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


def test_checkpoint_refuses_trailing_bytes_and_non_finite_header(tmp_path, desk):
    from kinfp.solver import _HEADER, CHECKPOINT_MAGIC

    _, grid = desk
    values = default_initial_condition(grid).values
    path = tmp_path / "f.ckpt"
    write_checkpoint(Field(values, grid, 0.75), 3, path)
    good = path.read_bytes()
    path.write_bytes(good + bytes(15))
    with pytest.raises(ValueError, match="trailing bytes"):
        read_checkpoint(path)
    path.write_bytes(good[:-8])
    with pytest.raises(ValueError, match="truncated checkpoint payload"):
        read_checkpoint(path)
    payload = good[_HEADER.size :]
    ok = (grid.Nx, grid.Nv)
    # the header is checked against the file size before the payload is read
    for nx, nv, L, v_max, time_stamp, message in [
        (*ok, 50.0, 50.0, np.inf, "non-finite checkpoint time"),
        (*ok, 50.0, 50.0, np.nan, "non-finite checkpoint time"),
        (*ok, np.inf, 50.0, 0.75, "L must be positive and finite"),
        (*ok, 50.0, np.inf, 0.75, "v_max must be positive and finite"),
        (-2, grid.Nv, 50.0, 50.0, 0.75, "Nx must be an even positive integer"),
        (2**20, 2**20, 50.0, 50.0, 0.75, "truncated checkpoint payload"),
        (2**31, 2**31, 50.0, 50.0, 0.75, "truncated checkpoint payload"),
    ]:
        head = _HEADER.pack(CHECKPOINT_MAGIC, nx, nv, 3, L, v_max, time_stamp)
        path.write_bytes(head + payload)
        with pytest.raises(ValueError, match=message):
            read_checkpoint(path)


# ---------------------------------------------------------------- steady state


def test_steady_state_fixed_point_terminates_immediately(desk):
    params, grid = desk
    cfg = _desk_config(t_final=50.0)
    # velocity-only dynamics: its exact fixed point must be detected at once
    eq = column_equilibria(grid, params)
    dt, _ = cfg.resolve_dt()
    vals = velocity_steps(eq, grid, params, dt, cfg.diagnostics_cadence)
    rate = np.abs(vals - eq).sum() * grid.cell_volume / (cfg.diagnostics_cadence * dt)
    assert rate < 1e-12


def test_velocity_only_converges_to_column_equilibrium():
    # Gaussian equilibrium has a spectral gap, so the velocity-only flow
    # reaches the discrete fixed point quickly (the sub-exponential cases
    # relax sub-geometrically and would need far longer horizons)
    params = ModelParams(alpha=2.0, kind="exp", beta=2.0)
    grid = PhaseGrid(50.0, 50.0, 64, 64)
    f0 = default_initial_condition(grid)
    dt = cfl_timestep(grid, params, 0.45)
    vals = velocity_steps(f0.values, grid, params, dt, 4800)
    # velocity dynamics conserves each column's mass separately
    col_mass = f0.values.sum(axis=1) * grid.dv
    target = col_mass[:, None] * column_equilibria(grid, params)
    dist = np.abs(vals - target).sum() * grid.cell_volume
    assert dist < 1e-8


def test_steady_state_exhaustion_raises():
    cfg = _desk_config(t_final=0.05)
    with pytest.raises(RuntimeError, match="last rate"):
        steady_state_reference(cfg, tol_rate=1e-14)


def _small_steady_problem():
    """16^2 desk model on a 20 box, 100-step windows, from an even datum
    with an off-centre bump (and its mirror image)."""
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    grid = PhaseGrid(20.0, 20.0, 16, 16)
    cfg = SolverConfig(model=params, grid=grid, t_final=5000.0, diagnostics_cadence=100)
    x, v = grid.x_centers[:, None], grid.v_centers[None, :]
    f = default_initial_condition(grid).values + 0.02 * np.exp(-np.abs(x - 4.0) - np.abs(v + 2.0))
    return cfg, Field(f + f[::-1, ::-1], grid)


def test_accelerated_steady_march(kernel_calls):
    """The returned field passes the benchmark's steady-state checks, the
    time stamp counts the steps marched, and the march is short: the plain
    march it replaced took 39 windows of 100 steps on this problem."""
    cfg, f0 = _small_steady_problem()
    dt, _ = cfg.resolve_dt()
    window = cfg.diagnostics_cadence
    f = steady_state_reference(cfg, tol_rate=1e-5, field0=f0)
    steps = kernel_calls["velocity_rhs_kernel"]  # one velocity Heun step per step
    assert f.time_stamp / dt == pytest.approx(steps, abs=1e-9)
    assert steps % window == 0 and steps // window <= 39 // 2
    assert abs(mass(f) / mass(f0) - 1.0) <= 1e-12
    assert f.values.min() >= 0.0
    assert np.abs(f.values - f.values[::-1, ::-1]).max() <= 1e-12 * f.values.max()
    after = _unfused(cfg, f.values, window, dt)
    assert l1_distance(Field(after, cfg.grid), Field(f.values, cfg.grid)) / (window * dt) < 1e-5


def test_anderson_mix_reads_the_ring_in_the_given_order(rng):
    """The mixture depends on the slots only through ``order``: a wrapped
    ring gives the same bits as the same ends stacked oldest first."""
    slots = ANDERSON_DEPTH + 1
    ends = rng.uniform(0.5, 2.0, size=(slots, 6, 5))
    res = rng.normal(size=(slots, 6, 5))
    for used in range(2, slots + 1):
        for k in range(slots):
            order = [(k - used + 1 + i) % slots for i in range(used)]
            ring = _anderson_mix(ends, res, order, np.empty((6, 5)))
            flat = _anderson_mix(ends[order], res[order], list(range(used)), np.empty((6, 5)))
            np.testing.assert_array_equal(ring, flat)


def test_anderson_mix_solves_an_affine_map_from_two_ends(rng):
    """For G(x) = c x + b the residual is affine in x, so two ends on a
    line through the fixed point x* mix to G(x*) = x*, up to the ridge."""
    c, b = 0.9, rng.uniform(0.5, 1.5, size=(4, 3))
    fixed = b / (1.0 - c)
    d = rng.uniform(0.1, 0.3, size=b.shape)
    starts = np.stack([fixed + d, fixed + 2.0 * d])
    ends = c * starts + b
    res = ends - starts
    # oldest in slot 1, newest in slot 0
    out = _anderson_mix(ends[::-1].copy(), res[::-1].copy(), [1, 0], np.empty(b.shape))
    np.testing.assert_allclose(out, fixed, rtol=1e-9)


def test_steady_state_exhaustion_names_the_windows():
    cfg, f0 = _small_steady_problem()
    dt, _ = cfg.resolve_dt()
    capped = dataclasses.replace(cfg, t_final=250 * dt, dt=dt)
    with pytest.raises(RuntimeError, match=r"within 250 steps \(3 windows\); last rate"):
        steady_state_reference(capped, tol_rate=1e-5, field0=f0)


def test_run_refuses_a_state_it_would_not_continue_exactly():
    """``run`` owns both resume checks: the initial time must be
    start_step x dt, and start_step must end a fused segment."""
    cfg = _desk_config(t_final=0.3, snapshot_cadence=5, diagnostics_cadence=10)
    dt, n = cfg.resolve_dt()
    assert fuses_transport(cfg.grid, dt) and n > 10
    values = default_initial_condition(cfg.grid).values
    with pytest.raises(ValueError, match="differs from step 5"):
        run(cfg, Field(values, cfg.grid, 5 * dt * 1.5), start_step=5)
    with pytest.raises(ValueError, match="resume step 7"):
        run(cfg, Field(values, cfg.grid, 7 * dt), start_step=7)
    run(cfg, Field(values, cfg.grid, 5 * dt), start_step=5)  # a snapshot step


def test_run_refuses_a_start_step_past_the_last_step():
    """A resume past the configured end is refused before the first
    emission, naming both steps; a resume at the last step returns its
    field unchanged and emits nothing."""
    cfg = _desk_config(t_final=0.3, snapshot_cadence=5, diagnostics_cadence=5)
    dt, n = cfg.resolve_dt()
    values = default_initial_condition(cfg.grid).values
    emitted = []
    sinks = Sinks(
        snapshot=lambda f, step: emitted.append(step),
        diagnostics=lambda f, step: emitted.append(step),
    )
    late = 5 * (n // 5 + 1)
    with pytest.raises(ValueError, match=f"resume step {late} lies past step {n}"):
        run(cfg, Field(values, cfg.grid, late * dt), sinks, start_step=late)
    out = run(cfg, Field(values, cfg.grid, n * dt), sinks, start_step=n)
    np.testing.assert_array_equal(out.values, values)
    assert emitted == []


def test_run_refuses_a_field_from_another_box():
    """An initial field of the configured shape from a box of another L is
    refused before the first emission."""
    cfg = _desk_config(t_final=0.1)
    g = cfg.grid
    other = default_initial_condition(PhaseGrid(2.0 * g.L, g.v_max, g.Nx, g.Nv))
    emitted = []
    sinks = Sinks(
        snapshot=lambda f, step: emitted.append(step),
        diagnostics=lambda f, step: emitted.append(step),
    )
    with pytest.raises(ValueError, match="initial field lives on .*not on the configured"):
        run(cfg, other, sinks)
    assert emitted == []


def test_steady_state_refuses_a_field_from_another_box():
    """The 16^2 field of an L = 20 box is not marched as if it lay on an
    L = 10 box of the same shape (a tolerance that accepts any window
    would return it relabelled)."""
    cfg, f0 = _small_steady_problem()
    smaller = dataclasses.replace(cfg, grid=PhaseGrid(10.0, 20.0, 16, 16))
    with pytest.raises(ValueError, match="initial field lives on .*not on the configured"):
        steady_state_reference(smaller, tol_rate=1e300, field0=f0)


@pytest.mark.parametrize("tol_rate", [0.0, -1.0, np.inf, np.nan])
def test_steady_state_refuses_a_tolerance_that_is_not_positive_and_finite(tol_rate):
    cfg, f0 = _small_steady_problem()
    with pytest.raises(ValueError, match="tol_rate must be positive and finite"):
        steady_state_reference(cfg, tol_rate=tol_rate, field0=f0)
