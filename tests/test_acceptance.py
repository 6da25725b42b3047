"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive desk-scale
runs are shared through session fixtures; everything is deterministic (fixed
seeds, fixed configurations).  Runtimes quoted in the printed lines are
informational, not asserted.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate

from kinfp import (
    ExpWeight,
    Field,
    LyapunovSpec,
    ModelParams,
    PhaseGrid,
    PolyWeight,
    ScanConfig,
    Sinks,
    SolverConfig,
    apply_Lstar_exact,
    cfl_timestep,
    default_initial_condition,
    energy,
    energy_scatter,
    find_certified_spec,
    l1_distance,
    lyapunov_H,
    lyapunov_weight,
    mass,
    potential,
    rate_fit,
    run,
    steady_state_reference,
)
from kinfp.diagnostics import density
from kinfp.model import asymptotic_correction, asymptotic_prefactor
from kinfp import kernels
from kinfp.solver import (
    Stepper,
    discrete_velocity_equilibrium,
    fuses_transport,
    velocity_face_coefficients,
)
from oracles import apply_Lstar_fd_richardson, lstar_term_scale

DESK_PARAMS = ModelParams(alpha=1.5, kind="exp", beta=0.5)


def _report(criterion: str, passed: bool, detail: str):
    state = "PASS" if passed else "FAIL"
    print(f"\n[acceptance] {criterion}: {state} ({detail})")
    assert passed, f"{criterion}: {detail}"


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="session")
def desk128_pair():
    """Two lockstep desk runs (L=v_max=50, 128^2, auto dt, 1e4 steps).

    Advances as ``run`` does: one fused 100-step segment between
    emissions.  Returns per-emission series: mass/min/max
    of the first run and the L1 distance between the runs (distinct
    nonnegative equal-mass data).
    """
    grid = PhaseGrid(50.0, 50.0, 128, 128)
    dt = cfl_timestep(grid, DESK_PARAMS, 0.45)
    assert fuses_transport(grid, dt)
    stepper = Stepper(grid, DESK_PARAMS)
    f1 = default_initial_condition(grid).values.copy()
    x, v = grid.x_centers[:, None], grid.v_centers[None, :]
    g = np.exp(-np.abs(x - 3.0) / 1.5 - np.abs(v + 2.0) / 1.0)
    g *= f1.sum() / g.sum()  # equal discrete mass
    f2 = g
    masses, mins, maxs, dists = [], [], [], []
    cell = grid.cell_volume
    t0 = time.time()
    for _ in range(100):
        stepper.advance(f1, dt, 100)
        stepper.advance(f2, dt, 100)
        masses.append(f1.sum() * cell)
        mins.append(f1.min())
        maxs.append(f1.max())
        dists.append(np.abs(f1 - f2).sum() * cell)
    return {
        "mass0": mass(default_initial_condition(grid)),
        "masses": np.array(masses),
        "mins": np.array(mins),
        "maxs": np.array(maxs),
        "dists": np.array(dists),
        "runtime": time.time() - t0,
    }


@pytest.fixture(scope="session")
def desk200_run():
    """Desk stand-in for the production figure run: 200^2, T=50, default datum.

    Runs ``run``, the production loop with its fused segments between
    emissions.  Returns the final field, the initial field, and snapshots
    every 200 steps (used later for the decay-rate fit against the steady
    reference).
    """
    grid = PhaseGrid(50.0, 50.0, 200, 200)
    cfg = SolverConfig(
        model=DESK_PARAMS, grid=grid, t_final=50.0, cfl_safety=0.45,
        snapshot_cadence=200, diagnostics_cadence=200,
    )
    f0 = default_initial_condition(grid)
    snaps = []

    def keep(field, step):
        if step > 0 and step % 200 == 0:
            snaps.append((field.time_stamp, field.values))

    t0 = time.time()
    final = run(cfg, f0, Sinks(snapshot=keep))
    return {
        "grid": grid,
        "config": cfg,
        "initial": f0,
        "final": final,
        "snapshots": snaps,
        "runtime": time.time() - t0,
    }


@pytest.fixture(scope="session")
def steady_ref(desk200_run):
    """Steady reference continued from the T=50 state until one 2000-step
    window's L1 rate is below 1e-6 per unit time, after mixing windows of
    400 steps: 24,000 steps.  That leaves it 5.0e-5 in L1 from a reference
    marched on to a rate of 1e-8, where a rate of 1e-5 would leave 6.7e-4
    (measured once, not checked here)."""
    grid = desk200_run["grid"]
    cfg = SolverConfig(
        model=DESK_PARAMS, grid=grid, t_final=1500.0, cfl_safety=0.45,
        diagnostics_cadence=2000,
    )
    t0 = time.time()
    ref = steady_state_reference(cfg, tol_rate=1e-6, field0=desk200_run["final"])
    return {"field": ref, "runtime": time.time() - t0}


# ------------------------------------------------------------------ criteria


def test_c01_mass_conservation(desk128_pair):
    """Criterion 1: relative mass drift < 1e-10 over 1e4 desk steps."""
    r = desk128_pair
    drift = np.abs(r["masses"] - r["mass0"]).max() / r["mass0"]
    _report(
        "criterion 1 (mass conservation)",
        drift < 1e-10,
        f"max relative drift {drift:.3e}, runtime {r['runtime']:.0f}s",
    )


def test_c02_positivity(desk128_pair):
    """Criterion 2: min cell value >= -1e-14 * max at every emission."""
    r = desk128_pair
    worst = (r["mins"] / np.maximum(r["maxs"], 1e-300)).min()
    _report(
        "criterion 2 (positivity)",
        bool(np.all(r["mins"] >= -1e-14 * r["maxs"])),
        f"worst min/max ratio {worst:.3e}",
    )


def test_c03_equilibrium_preservation():
    """Criterion 3: velocity-only flow leaves each column's discrete
    equilibrium fixed (the velocity Heun step of the production stepper)."""
    grid = PhaseGrid(50.0, 50.0, 128, 128)
    f_eq = discrete_velocity_equilibrium(grid, DESK_PARAMS)
    dt = cfl_timestep(grid, DESK_PARAMS, 0.45)
    weights = kernels.velocity_heun_weights(
        *velocity_face_coefficients(grid, DESK_PARAMS), dt, grid.dv
    )
    state = kernels.state_array(f_eq.shape)
    np.copyto(kernels.interior(state), f_eq)
    scratch = kernels.scratch_array(f_eq.shape)
    t0 = time.time()
    for _ in range(1000):
        kernels.velocity_rhs_kernel(state, weights, scratch)
    rel = np.abs(kernels.interior(state) - f_eq).max() / f_eq.max()
    _report(
        "criterion 3 (Chang-Cooper equilibrium preservation)",
        rel < 1e-12,
        f"max relative change {rel:.3e} over 1e3 steps, {time.time()-t0:.0f}s",
    )


def test_c04_exact_vs_fd_dual_operator():
    """Criterion 4: closed-form dual operator vs Richardson finite differences.

    100 seeded points in [-20, 20]^2 per model; relative error measured
    against max(|exact|, term-magnitude scale) so the check stays well posed
    at zero crossings of L*F, where a ratio to |exact| alone is unbounded
    for any finite-difference scheme.
    """
    models = [
        (ModelParams(alpha=1.5, kind="exp", beta=0.5),
         LyapunovSpec(2.0, 0.05, 0.5, 0.6, ExpWeight(0.25, 0.05))),
        (ModelParams(alpha=2.0, kind="exp", beta=1.0),
         LyapunovSpec(2.0, 0.05, 0.5, 0.6, ExpWeight(0.5, 0.05))),
        (ModelParams(alpha=2.0, kind="exp", beta=2.0),
         LyapunovSpec(2.0, 0.05, 0.5, 0.6, ExpWeight(1.0, 0.02))),
        (ModelParams(alpha=1.5, kind="exp", beta=3.0),
         LyapunovSpec(2.0, 0.05, 0.5, 0.6, ExpWeight(1.0, 0.02))),
        (ModelParams(alpha=2.0, kind="poly", gamma=1.5),
         LyapunovSpec(1.7, 0.1, 0.0, 0.6, PolyWeight(1.4))),
        (ModelParams(alpha=2.0, kind="poly", gamma=2.0),
         LyapunovSpec(1.75, 0.1, 0.0, 0.6, PolyWeight(1.5))),
        (ModelParams(alpha=1.5, kind="poly", gamma=3.0),
         LyapunovSpec(2.0, 0.1, 0.0, 0.6, PolyWeight(1.5))),
    ]
    rng = np.random.default_rng(0)
    pts = rng.uniform(-20.0, 20.0, size=(100, 2))
    t0 = time.time()
    worst = 0.0
    for params, spec in models:
        for target, F in (
            ("full_h", lambda a, b, P=params, S=spec: float(lyapunov_H(a, b, P, S))),
            ("weight_m", lambda a, b, P=params, S=spec: float(lyapunov_weight(a, b, P, S))),
        ):
            for x, v in pts:
                ex = float(apply_Lstar_exact(x, v, params, spec, target))
                fd = apply_Lstar_fd_richardson(F, [x], [v], params, 1e-4)
                den = max(abs(ex), float(lstar_term_scale(x, v, params, spec, target)))
                worst = max(worst, abs(fd - ex) / den)
    _report(
        "criterion 4 (exact vs finite-difference dual operator)",
        worst < 1e-6,
        f"worst relative error {worst:.3e} over 7 models x 2 targets x 100 pts, "
        f"{time.time()-t0:.0f}s",
    )


def test_c05_lyapunov_certification():
    """Criterion 5: drift certificates for all four parameter regimes via the
    documented coarse search grids (box 50x50, a 257^2 grid: 256 samples
    per axis and 0, and the 1025^2 grid of 1024 samples), each the
    (eps, A, B, delta, R) of the README table (delta None for poly)."""
    cases = [
        (ModelParams(alpha=1.5, kind="exp", beta=0.5), dict(theta=0.25),
         (0.2, 1.0, 0.6, 2.0, 20.0)),
        (ModelParams(alpha=2.0, kind="exp", beta=1.0), dict(theta=0.5),
         (0.2, 1.0, 0.6, 1.0, 25.0)),
        (ModelParams(alpha=2.0, kind="exp", beta=3.0), dict(theta=1.0),
         (0.45, 1.0, 0.6, 0.1, 45.0)),
        (ModelParams(alpha=2.0, kind="poly", gamma=2.0), dict(ell=1.75, k=1.5),
         (0.3, 0.0, 0.9, None, 35.0)),
    ]
    t0 = time.time()
    details = []
    ok = True
    for (params, kw, expected), samples in itertools.product(cases, (256, 1024)):
        spec, report = find_certified_spec(params, ScanConfig(samples_per_axis=samples), **kw)
        ok = ok and spec is not None and report.passed and report.min_margin_outside >= 0
        got = None if spec is None else (
            spec.eps, spec.a_exp, spec.b_exp, getattr(spec.mode, "delta", None),
            report.chosen_R,
        )
        ok = ok and got == expected
        tag = f"{params.kind}:{params.beta or params.gamma}@{samples}"
        details.append(
            f"{tag} {got} R={report.chosen_R:g} margin={report.min_margin_outside:.3g}"
        )
    _report(
        "criterion 5 (Lyapunov certification)",
        ok,
        "; ".join(details) + f"; {time.time()-t0:.0f}s",
    )


def test_c06_tail_asymptotic():
    """Criterion 6: quadrature of the energy-profile density vs the closed
    form with C = 4.0154, required within 2% on x in [200, 380].

    The closed form is the leading Laplace order times its first correction
    1 + c1/lam (c1 = 9/8 here, lam = delta V^(beta/2) from 7.6 to 9.6 on the
    window).  The leading order alone is 12..16% off here and first reaches
    2% near x ~ 4.3e4; the two-term form leaves about c2/lam^2 (c2 = 105/128),
    at most 1.2% on the window.
    """
    alpha, beta, delta = 1.5, 0.5, 1.15
    c = asymptotic_prefactor(alpha, beta, delta)
    t0 = time.time()
    xs = np.linspace(200.0, 380.0, 19)
    devs = []
    for x in xs:
        vpot = math.sqrt(1.0 + x * x) ** alpha / alpha
        quadval, _ = integrate.quad(
            lambda v: math.exp(-delta * (v * v / 2.0 + vpot) ** (beta / 2.0)),
            -np.inf,
            np.inf,
            limit=200,
        )
        leading = c * x ** ((alpha / 2.0) * (1.0 - beta / 2.0)) * math.exp(
            -delta * vpot ** (beta / 2.0)
        )
        closed = leading * asymptotic_correction(x, alpha, beta, delta)
        devs.append(abs(quadval / closed - 1.0))
    worst = max(devs)
    _report(
        "criterion 6 (tail asymptotic within 2%)",
        worst < 0.02,
        f"max |quad/closed - 1| = {worst:.4f} on [200, 380] against the "
        f"leading Laplace order times 1 + c1/(delta V^(beta/2)); "
        f"{time.time()-t0:.0f}s",
    )


def test_c07_figure_tail_replication(desk200_run):
    """Criterion 7: log-density regression against (<x>^alpha/alpha)^(beta/2)
    over x in [20, 40] at T = 50 yields a positive decay slope with residual
    RMS < 0.1 (no numeric tolerance on delta-hat itself)."""
    r = desk200_run
    grid = r["grid"]
    rho = density(r["final"])
    sel = (grid.x_centers >= 20.0) & (grid.x_centers <= 40.0)
    xs, rs = grid.x_centers[sel], rho[sel]
    assert np.all(rs > 0.0)
    u = (np.sqrt(1.0 + xs * xs) ** 1.5 / 1.5) ** 0.25
    slope, icpt = np.polyfit(u, np.log(rs), 1)
    resid = np.log(rs) - (slope * u + icpt)
    rms = float(np.sqrt(np.mean(resid**2)))
    delta_hat = -slope
    _report(
        "criterion 7 (figure-scale tail replication)",
        delta_hat > 0.0 and rms < 0.1,
        f"delta_hat={delta_hat:.3f}, residual RMS={rms:.4f} (log units), "
        f"run {r['runtime']:.0f}s",
    )


def test_c08_l1_contraction(desk128_pair):
    """Criterion 8: the L1 distance between two equal-mass solutions is
    non-increasing within 1e-8 per emission."""
    d = desk128_pair["dists"]
    max_increase = float(np.diff(d).max())
    _report(
        "criterion 8 (L1 contraction)",
        max_increase <= 1e-8,
        f"max per-emission increase {max_increase:.3e}, final distance {d[-1]:.3e}",
    )


def test_c09_subgeometric_decay(desk200_run, steady_ref):
    """Criterion 9: stretched-exponential fit of the decay toward the steady
    reference (theta = 0.25) gives a positive rate with residual RMS < 0.3,
    and the fitter recovers synthetic generators to 1e-6."""
    ref = steady_ref["field"].values
    grid = desk200_run["grid"]
    series = np.array(
        [(t, np.abs(s - ref).sum() * grid.cell_volume) for t, s in desk200_run["snapshots"]]
    )
    fit = rate_fit(series, "exp", theta=0.25)
    # synthetic exact recovery
    t = np.linspace(0.0, 40.0, 60)
    lam_fit = rate_fit(np.c_[t, np.exp(-0.3 * t**0.5)], "exp", theta=0.5)
    k_fit = rate_fit(np.c_[t, (1.0 + t) ** (-2.0)], "poly")
    synth_ok = abs(lam_fit.fitted - 0.3) < 1e-6 and abs(k_fit.fitted - 2.0) < 1e-6
    _report(
        "criterion 9 (sub-geometric decay shape)",
        fit.fitted > 0.0 and fit.residual_rms < 0.3 and synth_ok,
        f"lambda_hat={fit.fitted:.3f}, residual RMS={fit.residual_rms:.3f}, "
        f"synthetic recovery ok={synth_ok}, reference march {steady_ref['runtime']:.0f}s "
        f"(frozen at t={steady_ref['field'].time_stamp:.0f})",
    )


def test_steady_reference_even_symmetry(steady_ref):
    """Supporting check: the generator commutes with (x, v) -> (-x, -v), so
    the steady reference of symmetric data is even to well below 1e-6."""
    g = steady_ref["field"].values
    dev = float(np.abs(g - g[::-1, ::-1]).max())
    assert dev <= 1e-6, f"steady reference asymmetry {dev:.3e}"


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_steady_state_converges_to_the_exact_gaussian_steady_state(alpha):
    """Supporting check of the whole scheme: at beta = 2, M'/M = -v, and
    f_inf ~ exp(-V(x) - v^2/2) is the exact steady state for every alpha.

    The measure is the relative L1 error of ``steady_state_reference``
    (L = v_max = 8, 200-step windows, tol_rate 1e-10) against the exact
    state sampled at cell centres and scaled to the computed mass.  At
    N = 16, 32, 64 it reads 2.45e-1, 7.43e-2, 1.96e-2 (alpha = 2) and
    2.19e-1, 6.73e-2, 1.78e-2 (alpha = 1.5): order 1.93 and 1.92 between
    32 and 64."""
    params = ModelParams(alpha=alpha, kind="exp", beta=2.0)
    errors = []
    for n in (16, 32, 64):
        grid = PhaseGrid(8.0, 8.0, n, n)
        cfg = SolverConfig(model=params, grid=grid, t_final=1e4, diagnostics_cadence=200)
        f = steady_state_reference(cfg, tol_rate=1e-10)
        exact = np.exp(-potential(grid.x_centers, params)[:, None] - grid.v_centers**2 / 2.0)
        g = Field(exact, grid, 0.0)
        g.values *= mass(f) / mass(g)
        errors.append(l1_distance(f, g) / mass(f))
    order = math.log2(errors[1] / errors[2])
    _report(
        f"exact steady state (alpha={alpha}, beta=2)",
        order >= 1.8 and errors[2] < 2.5e-2,
        "relative L1 errors " + ", ".join(f"{e:.2e}" for e in errors) + f", order {order:.2f}",
    )


@pytest.fixture(scope="module")
def gaussian_steady():
    """The beta = 2, alpha = 2 steady state on L = v_max = 8 at 64^2
    (200-step windows, tol_rate 1e-11) and its grid and model."""
    params = ModelParams(alpha=2.0, kind="exp", beta=2.0)
    grid = PhaseGrid(8.0, 8.0, 64, 64)
    cfg = SolverConfig(model=params, grid=grid, t_final=1e4, diagnostics_cadence=200)
    return params, grid, steady_state_reference(cfg, tol_rate=1e-11)


@pytest.mark.parametrize(
    "datum, gap", [("default", 1.0), ("shifted", 0.5)], ids=["even", "shifted"]
)
def test_decay_to_the_gaussian_steady_state_at_the_kramers_rate(gaussian_steady, datum, gap):
    """Supporting check, the time-dependent twin of the exact steady state:
    at alpha = beta = 2 the generator is the Kramers operator, whose
    eigenvalues are -(n + m)/2 +- i (n - m) sqrt(3)/2 (Risken ch. 10), so
    the L1 distance to the steady state decays at |Re lambda| of the
    slowest mode the datum excites.  The shifted datum
    exp(-|x - 1|/2 - |v|/2) excites the n + m = 1 modes (rate 1/2).  The
    default datum is even under (x, v) -> (-x, -v), which the odd
    n + m = 1 modes are not, so they are never excited, and its rate is 1.

    Diagnostics every 10 steps to T = 14; the rate is the slope of log
    distance on t in [4, 12].  It reads 0.984 (default) and 0.522
    (shifted), with distances well above the ~1e-5 gap between the fixed
    points of the fused and symmetric steps."""
    params, grid, ref = gaussian_steady
    if datum == "default":
        f0 = default_initial_condition(grid)
    else:
        x, v = grid.x_centers[:, None], grid.v_centers
        f0 = Field(np.exp(-np.abs(x - 1.0) / 2.0 - np.abs(v) / 2.0), grid)
        f0.values *= mass(ref) / mass(f0)
    cfg = SolverConfig(model=params, grid=grid, t_final=14.0, diagnostics_cadence=10)
    series = []

    def distance(field, step):
        if field.time_stamp <= 12.0:
            series.append((field.time_stamp, l1_distance(field, ref)))

    run(cfg, f0, Sinks(diagnostics=distance))
    fit = rate_fit(series, "exp", theta=1.0, burn_fraction=1.0 / 3.0)
    _report(
        f"Kramers decay rate ({datum} datum, alpha=beta=2)",
        abs(fit.fitted / gap - 1.0) < 0.1,
        f"rate {fit.fitted:.3f} on t in [{fit.window[0]:.2f}, {fit.window[1]:.2f}] "
        f"against {gap}",
    )


def test_c10_energy_dispersion(desk200_run, steady_ref):
    """Criterion 10: the steady state hugs a single energy profile, so its
    binned vertical dispersion is at least 5x below the initial datum's.

    The companion (alpha, beta) = (1, 1) case named in the original figure
    comparison sits outside the admissible confinement range (alpha > 1 is
    enforced); a nearby exploratory run (alpha = 1.001) is reported as an
    observational output only.
    """
    f0 = desk200_run["initial"]
    d0 = energy_scatter(f0, DESK_PARAMS).dispersion
    dG = energy_scatter(steady_ref["field"], DESK_PARAMS).dispersion
    ratio = d0 / dG

    # observational output (not gated): near-linear potential, beta = 1
    obs_params = ModelParams(alpha=1.001, kind="exp", beta=1.0)
    grid = PhaseGrid(50.0, 50.0, 128, 128)
    cfg = SolverConfig(
        model=obs_params, grid=grid, t_final=40.0, cfl_safety=0.45,
        diagnostics_cadence=500,
    )
    d0_obs = energy_scatter(default_initial_condition(grid), obs_params).dispersion
    dT_obs = energy_scatter(run(cfg), obs_params).dispersion
    print(
        f"\n[acceptance] criterion 10 observational (alpha~1, beta=1): "
        f"dispersion f0={d0_obs:.3e}, f(T=40)={dT_obs:.3e}, ratio={d0_obs/dT_obs:.2f}"
    )
    _report(
        "criterion 10 (energy-profile dispersion)",
        ratio >= 5.0,
        f"dispersion f0={d0:.3e}, steady={dG:.3e}, ratio={ratio:.1f}",
    )
