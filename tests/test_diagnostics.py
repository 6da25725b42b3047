"""Observables: mass, density, distances, scatter, tail fit, rate fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from kinfp import (
    Field,
    ModelParams,
    PhaseGrid,
    default_initial_condition,
    density,
    energy,
    energy_scatter,
    l1_distance,
    lyapunov_weight,
    mass,
    rate_fit,
    reference_profile,
    tail_comparison,
)
from kinfp.model import asymptotic_density


@pytest.fixture(scope="module")
def desk():
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    grid = PhaseGrid(50.0, 50.0, 64, 64)
    return params, grid


def test_mass_zero_and_linearity(desk, rng):
    _, grid = desk
    zero = Field(np.zeros((grid.Nx, grid.Nv)), grid)
    assert mass(zero) == 0.0
    a = Field(rng.random((grid.Nx, grid.Nv)), grid)
    b = Field(rng.random((grid.Nx, grid.Nv)), grid)
    ab = Field(a.values + b.values, grid)
    assert mass(ab) == pytest.approx(mass(a) + mass(b), rel=1e-14)


def test_default_mass_close_to_one(desk):
    _, grid = desk
    assert mass(default_initial_condition(grid)) == pytest.approx(1.0, abs=1e-3)


def test_density_sums_to_mass_exactly(desk, rng):
    _, grid = desk
    f = Field(rng.random((grid.Nx, grid.Nv)), grid)
    assert float(density(f).sum() * grid.dx) == mass(f)


def test_density_of_default_profile():
    # analytic v-marginal of the double-exponential is e^(-|x|/2)/4
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    grid = PhaseGrid(50.0, 50.0, 512, 512)
    rho = density(default_initial_condition(grid))
    expected = np.exp(-np.abs(grid.x_centers) / 2.0) / 4.0
    # cell averaging of the v-profile plus truncation keep it within 0.1%
    assert np.abs(rho - expected).max() < 1e-3 * expected.max()
    assert np.all(rho[: grid.Nx // 2] == rho[: grid.Nx // 2 - 1 : -1])  # even


def test_density_separable_proportional(desk, rng):
    _, grid = desk
    gx = rng.random(grid.Nx)
    hv = rng.random(grid.Nv)
    f = Field(gx[:, None] * hv[None, :], grid)
    rho = density(f)
    np.testing.assert_allclose(rho, gx * (hv.sum() * grid.dv), rtol=1e-13)


def test_l1_distance_metric(desk, rng):
    _, grid = desk
    f = Field(rng.random((grid.Nx, grid.Nv)), grid)
    g = Field(rng.random((grid.Nx, grid.Nv)), grid)
    h = Field(rng.random((grid.Nx, grid.Nv)), grid)
    assert l1_distance(f, f) == 0.0
    assert l1_distance(f, g) == l1_distance(g, f)
    assert l1_distance(f, h) <= l1_distance(f, g) + l1_distance(g, h) + 1e-12
    other = Field(np.zeros((4, 4)), PhaseGrid(1.0, 1.0, 4, 4))
    with pytest.raises(ValueError):
        l1_distance(f, other)
    with pytest.raises(ValueError, match="weight shape does not match the fields"):
        l1_distance(f, g, weight=np.ones((grid.Nv, grid.Nx + 1)))


def test_l1_weighted_against_direct_sum(desk):
    params, grid = desk
    from kinfp import ExpWeight, LyapunovSpec

    spec = LyapunovSpec(2.0, 0.05, 0.5, 0.6, ExpWeight(theta=0.25, delta=0.05))
    w = lyapunov_weight(grid.x_centers[:, None], grid.v_centers, params, spec)
    f0 = default_initial_condition(grid)
    f2 = Field(2.0 * f0.values, grid)
    got = l1_distance(f2, f0, weight=w)
    direct = float((np.abs(f2.values - f0.values) * w).sum() * grid.cell_volume)
    assert got == direct


def test_reference_profile_values(desk):
    params, grid = desk
    ref0 = reference_profile(grid, params, delta=0.0)
    assert np.all(ref0.values == 1.0)
    # profile value at the origin: exp(-1.15 * (1/1.5)^(1/4)) = 0.353758
    e0 = float(energy(0.0, 0.0, params))
    assert math.exp(-1.15 * e0**0.25) == pytest.approx(0.3537580, abs=1e-7)
    ref = reference_profile(grid, params, delta=1.15)
    e = energy(grid.x_centers[:, None], grid.v_centers, params)
    np.testing.assert_allclose(
        ref.values, np.exp(-1.15 * np.asarray(e) ** 0.25), rtol=1e-14
    )
    np.testing.assert_array_equal(ref.values, ref.values[::-1, ::-1])
    with pytest.raises(ValueError):
        reference_profile(grid, ModelParams(alpha=2.0, kind="poly", gamma=2.0), 1.0)


@pytest.mark.parametrize("delta", [-2.0, np.inf, np.nan])
def test_reference_profile_refuses_delta_outside_its_range(desk, delta):
    params, grid = desk
    with pytest.raises(ValueError, match="delta must be nonnegative and finite"):
        reference_profile(grid, params, delta)


@pytest.mark.parametrize("delta", [1e3, 1e6])
def test_reference_profile_refuses_to_normalise_an_underflowed_profile(desk, delta):
    """A delta large enough to underflow every cell leaves no mass to
    divide by; the unnormalised profile is still all zeros."""
    params, grid = desk
    assert np.all(reference_profile(grid, params, delta).values == 0.0)
    with pytest.raises(ValueError, match="cannot be normalised"):
        reference_profile(grid, params, delta, normalize=True)


def test_energy_scatter_pure_energy_function_has_tiny_dispersion(desk):
    params, grid = desk
    ref = reference_profile(grid, params, delta=1.15, normalize=True)
    sc_ref = energy_scatter(ref, params)
    sc_f0 = energy_scatter(default_initial_condition(grid), params)
    assert sc_ref.energies.size == grid.Nx * grid.Nv
    assert sc_f0.dispersion > 0.0
    assert sc_ref.dispersion < 0.2 * sc_f0.dispersion  # binning error only


def test_energy_scatter_of_a_field_with_no_positive_cell_has_no_dispersion(desk):
    params, grid = desk
    sc = energy_scatter(Field(np.zeros((grid.Nx, grid.Nv)), grid), params)
    assert sc.dispersion == 0.0 and sc.energies.size == grid.Nx * grid.Nv


def test_energy_scatter_of_a_function_of_the_energy_is_binning_error():
    """exp(-E) at alpha = 1.5, beta = 2 on a 12 box at 128^2: the dispersion
    is binning error alone, so it shrinks as 1/bins.  It reads 0.128,
    0.064, 0.030 and 0.013 at 16, 32, 64 and 128 bins; with the cells
    above the coverage cutoff lumped into the last bin it read 20.6."""
    params = ModelParams(alpha=1.5, kind="exp", beta=2.0)
    grid = PhaseGrid(12.0, 12.0, 128, 128)
    f = Field(np.exp(-energy(grid.x_centers[:, None], grid.v_centers, params)), grid)
    bins = (16, 32, 64, 128)
    disp = [energy_scatter(f, params, n).dispersion for n in bins]
    assert all(n * d < 2.5 for n, d in zip(bins, disp)), disp
    assert all(d1 <= 0.6 * d0 for d0, d1 in zip(disp, disp[1:])), disp


def test_tail_comparison_recovers_known_delta():
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    x = np.linspace(20.0, 45.0, 120)
    delta_true = 0.9
    rho = 3.7 * asymptotic_density(x, 1.5, 0.5, delta_true)  # arbitrary prefactor
    got = tail_comparison(x, rho, params, delta=delta_true, window=(20.0, 45.0))
    assert got.delta_hat == pytest.approx(delta_true, rel=1e-2)


def test_tail_comparison_quadrature_window():
    """Quadrature density of the energy profile vs the closed form.

    The leading-order asymptotic carries a slowly decaying correction, about
    +14% around x ~ 300 for these parameters; the fitted slope still
    recovers delta to a couple of percent.
    """
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    delta = 1.15
    x = np.linspace(200.0, 380.0, 10)
    rho = np.array(
        [
            integrate.quad(
                lambda v: math.exp(
                    -delta * float(energy(xx, v, params)) ** (params.beta / 2.0)
                ),
                -np.inf,
                np.inf,
                limit=200,
            )[0]
            for xx in x
        ]
    )
    got = tail_comparison(x, rho, params, delta=delta, window=(200.0, 380.0))
    assert 0.10 < got.max_rel_deviation < 0.20  # the measured Laplace correction
    assert got.delta_hat == pytest.approx(delta, rel=2e-2)


def test_tail_comparison_core_window_flagged(desk):
    params, grid = desk
    f0 = default_initial_condition(grid)
    rho = density(f0)
    got = tail_comparison(
        grid.x_centers, rho, params, delta=1.15, window=(0.5, 10.0)
    )
    assert got.max_rel_deviation > 0.5  # asymptotic regime does not apply


def test_tail_comparison_rejects_nonpositive(desk):
    params, grid = desk
    x = grid.x_centers
    rho = np.zeros_like(x)
    with pytest.raises(ValueError):
        tail_comparison(x, rho, params, delta=1.15, window=(20.0, 40.0))


@pytest.mark.parametrize(
    "kind, window, message",
    [
        ("poly", (20.0, 40.0), "tail comparison needs an exp equilibrium"),
        ("exp", (40.0, 20.0), "empty window"),
        ("exp", (20.0, 21.5), "window contains fewer than two samples"),
    ],
)
def test_tail_comparison_refuses_a_poly_model_or_a_window_without_two_samples(
    desk, kind, window, message
):
    _, grid = desk
    params = ModelParams(alpha=1.5, kind=kind, **({"beta": 0.5} if kind == "exp" else {"gamma": 2.0}))
    x = grid.x_centers
    with pytest.raises(ValueError, match=message):
        tail_comparison(x, np.ones_like(x), params, delta=1.15, window=window)


def test_rate_fit_exact_recovery():
    t = np.linspace(0.0, 40.0, 60)
    d = np.exp(-0.3 * t**0.5)
    fit = rate_fit(np.c_[t, d], "exp", theta=0.5)
    assert fit.fitted == pytest.approx(0.3, abs=1e-6)
    assert fit.residual_rms < 1e-12
    d2 = (1.0 + t) ** (-2.0)
    fit2 = rate_fit(np.c_[t, d2], "poly")
    assert fit2.fitted == pytest.approx(2.0, abs=1e-6)


def test_rate_fit_with_noise(rng):
    t = np.linspace(0.0, 60.0, 120)
    d = np.exp(-0.3 * t**0.5) * np.exp(rng.normal(0.0, 0.01, t.size))
    fit = rate_fit(np.c_[t, d], "exp", theta=0.5)
    assert fit.fitted == pytest.approx(0.3, rel=0.05)


def test_rate_fit_scale_invariance():
    t = np.linspace(0.0, 40.0, 50)
    d = np.exp(-0.7 * t**0.25)
    a = rate_fit(np.c_[t, d], "exp", theta=0.25)
    b = rate_fit(np.c_[t, 17.0 * d], "exp", theta=0.25)
    assert a.fitted == pytest.approx(b.fitted, rel=1e-12)


def test_rate_fit_burn_fraction_sets_the_window_start():
    """The window starts at the first time at least burn_fraction of the
    span past the first sample: 10 % by default, none at 0."""
    t = np.linspace(2.0, 12.0, 21)  # spaced 0.5
    series = np.c_[t, np.exp(-t**0.5)]
    assert rate_fit(series, "exp", theta=0.5).window == (3.0, 12.0)
    assert rate_fit(series, "exp", theta=0.5, burn_fraction=0.0).window == (2.0, 12.0)
    assert rate_fit(series, "exp", theta=0.5, burn_fraction=0.52).window == (7.5, 12.0)


def test_rate_fit_input_validation():
    t = np.linspace(0.0, 10.0, 20)
    with pytest.raises(ValueError):
        rate_fit(np.c_[t, -np.ones_like(t)], "exp", theta=0.5)
    with pytest.raises(ValueError):
        rate_fit(np.c_[t[:5], np.exp(-t[:5])], "exp", theta=0.5)  # < 8 samples
    with pytest.raises(ValueError):
        rate_fit(np.c_[t, np.exp(-t)], "weird")
    with pytest.raises(ValueError):
        rate_fit(np.c_[t, np.exp(-t)], "exp", theta=2.0)
    for shape in [(t.size,), (t.size, 3)]:
        with pytest.raises(ValueError, match=r"series must be an \(N, 2\) array"):
            rate_fit(np.ones(shape), "poly")
    for fraction in (-0.1, 1.0, np.nan):
        with pytest.raises(ValueError, match="burn-in fraction must lie in"):
            rate_fit(np.c_[t, np.exp(-t)], "poly", burn_fraction=fraction)
    for bad in (np.nan, np.inf):
        for col in (0, 1):
            series = np.c_[t, np.exp(-t)]
            series[12, col] = bad
            for mode, theta in (("exp", 0.5), ("poly", None)):
                with pytest.raises(ValueError, match="must be finite"):
                    rate_fit(series, mode, theta=theta)


@given(
    lam=st.floats(0.05, 2.0),
    theta=st.floats(0.2, 1.0),
    scale=st.floats(0.1, 10.0),
)
@settings(max_examples=25, deadline=None)
def test_rate_fit_recovers_generator_property(lam, theta, scale):
    t = np.linspace(0.0, 30.0, 40)
    d = scale * np.exp(-lam * t**theta)
    fit = rate_fit(np.c_[t, d], "exp", theta=theta)
    assert fit.fitted == pytest.approx(lam, rel=1e-6)
