"""Closed-form model quantities against hand values and independent oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

import kinfp
from kinfp import (
    ExpWeight,
    LyapunovSpec,
    ModelParams,
    PolyWeight,
    apply_Lstar_exact,
    asymptotic_correction,
    asymptotic_density,
    drift_excess,
    energy,
    equilibrium,
    equilibrium_drift,
    grad_potential,
    grad_v_H,
    jbracket,
    lyapunov_H,
    lyapunov_weight,
    phi,
    potential,
)
from kinfp.model import LSTAR_TARGETS, asymptotic_prefactor


def test_jbracket_values():
    assert float(jbracket(0.0)) == 1.0
    assert float(jbracket(3.0)) == pytest.approx(math.sqrt(10.0), rel=1e-15)
    assert float(jbracket(-3.0)) == float(jbracket(3.0))
    # vectorised: elementwise
    out = jbracket(np.array([3.0, 0.0]))
    assert out.shape == (2,)
    assert out[1] == 1.0


def test_potential_and_gradient_values():
    p15 = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    p2 = ModelParams(alpha=2.0, kind="exp", beta=2.0)
    assert float(potential(0.0, p15)) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert float(potential(2.0, p2)) == pytest.approx(2.5, rel=1e-15)
    assert grad_potential(2.0, p2).item() == pytest.approx(2.0, rel=1e-15)
    assert grad_potential(1.0, p15).item() == pytest.approx(2.0 ** (-0.25), rel=1e-12)


def test_grad_potential_matches_finite_differences(rng):
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    xs = rng.uniform(-50.0, 50.0, size=100)
    for x in xs:
        h = 1e-6 * max(1.0, abs(x))
        fd = (float(potential(x + h, params)) - float(potential(x - h, params))) / (
            2.0 * h
        )
        g = grad_potential(x, params).item()
        assert abs(fd - g) / max(abs(g), 1e-12) < 1e-6


def test_equilibrium_normalisation_constants():
    # beta = 2: closed form sqrt(2 pi) e^(-1/2)
    p = ModelParams(alpha=2.0, kind="exp", beta=2.0)
    assert p.norm_const == pytest.approx(math.sqrt(2 * math.pi) * math.exp(-0.5), rel=1e-10)
    assert p.norm_const == pytest.approx(1.52035, abs=5e-6)
    # gamma = 1: arctan antiderivative gives exactly pi
    pp = ModelParams(alpha=1.5, kind="poly", gamma=1.0)
    assert pp.norm_const == pytest.approx(math.pi, rel=1e-12)
    assert float(equilibrium(0.0, pp)) == pytest.approx(1.0 / math.pi, rel=1e-12)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
def test_exp_equilibrium_integrates_to_one(beta):
    params = ModelParams(alpha=1.5, kind="exp", beta=beta)
    val, _ = integrate.quad(
        lambda v: float(equilibrium(v, params)), -1000.0, 1000.0, limit=300
    )
    # tail beyond |v| = 1000 bounded through the unnormalised majorant
    from scipy import special

    tail = (
        2.0
        * beta ** (1.0 / beta - 1.0)
        * special.gammaincc(1.0 / beta, 1000.0**beta / beta)
        * special.gamma(1.0 / beta)
        / params.norm_const
    )
    assert abs(val - 1.0) <= tail + 1e-8


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_poly_equilibrium_integrates_to_one(gamma):
    params = ModelParams(alpha=1.5, kind="poly", gamma=gamma)
    val, _ = integrate.quad(
        lambda v: float(equilibrium(v, params)), -1000.0, 1000.0, limit=300
    )
    tail = 2.0 * 1000.0 ** (-gamma) / gamma / params.norm_const
    assert abs(val - 1.0) <= tail + 1e-8


def test_equilibrium_even_symmetry(rng, exp_params, poly_params):
    for params in (exp_params, poly_params):
        v = rng.uniform(0.0, 30.0, size=20)
        np.testing.assert_allclose(
            np.asarray([float(equilibrium(t, params)) for t in v]),
            np.asarray([float(equilibrium(-t, params)) for t in v]),
            rtol=0,
        )


def test_equilibrium_drift_values():
    pg = ModelParams(alpha=2.0, kind="exp", beta=2.0)
    assert equilibrium_drift(3.0, pg).item() == pytest.approx(-3.0, rel=1e-15)
    p05 = ModelParams(alpha=2.0, kind="exp", beta=0.5)
    assert equilibrium_drift(1.0, p05).item() == pytest.approx(-(2.0 ** (-0.75)), rel=1e-12)
    pp = ModelParams(alpha=1.5, kind="poly", gamma=1.0)
    assert equilibrium_drift(1.0, pp).item() == pytest.approx(-1.0, rel=1e-15)


def test_equilibrium_drift_is_log_gradient(rng, exp_params, poly_params):
    for params in (exp_params, poly_params):
        for v in rng.uniform(-50.0, 50.0, size=40):
            h = 1e-6 * max(1.0, abs(v))
            fd = (
                math.log(float(equilibrium(v + h, params)))
                - math.log(float(equilibrium(v - h, params)))
            ) / (2.0 * h)
            dr = equilibrium_drift(v, params).item()
            assert abs(fd - dr) / max(abs(dr), 1e-9) < 1e-6


def test_energy_values_and_symmetry(rng):
    p2 = ModelParams(alpha=2.0, kind="exp", beta=2.0)
    assert float(energy(0.0, 0.0, p2)) == pytest.approx(0.5, rel=1e-15)
    assert float(energy(1.0, 2.0, p2)) == pytest.approx(3.0, rel=1e-15)
    x, v = rng.uniform(-10, 10, 2)
    assert float(energy(x, v, p2)) == float(energy(-x, -v, p2))


def test_lyapunov_H_values(exp_params):
    p2 = ModelParams(alpha=2.0, kind="exp", beta=2.0)
    spec = LyapunovSpec(2.0, 0.1, 0.5, 0.6, ExpWeight(theta=1.0, delta=0.1))
    assert float(lyapunov_H(0.0, 0.0, p2, spec)) == pytest.approx(0.25, rel=1e-15)
    # degenerate eps = 0 collapses to E^ell
    s0 = LyapunovSpec(2.0, 0.0, 0.5, 0.6, ExpWeight(theta=1.0, delta=0.1))
    x, v = 1.3, -0.7
    assert float(lyapunov_H(x, v, p2, s0)) == float(energy(x, v, p2)) ** 2
    # hand value at (1, 1)
    spec11 = LyapunovSpec(2.0, 1e-3, 0.05, 0.95, ExpWeight(theta=0.25, delta=1e-2))
    e = 0.5 + 2.0**0.75 / 1.5
    expected = e * e + 1e-3 * 2.0 ** (0.05 / 2.0) * 2.0 ** (-0.95 / 2.0)
    assert float(lyapunov_H(1.0, 1.0, exp_params, spec11)) == pytest.approx(
        expected, rel=1e-14
    )


def test_lyapunov_spec_validation():
    with pytest.raises(ValueError):
        LyapunovSpec(0.9, 0.1, 0.5, 0.6, ExpWeight(theta=0.5, delta=0.1))
    with pytest.raises(ValueError):
        LyapunovSpec(2.0, 0.1, 0.5, 1.2, ExpWeight(theta=0.5, delta=0.1))
    with pytest.raises(ValueError):  # poly weight requires k <= ell
        LyapunovSpec(1.6, 0.1, 0.0, 0.6, PolyWeight(k=1.7))
    with pytest.raises(ValueError):
        ExpWeight(theta=1.5, delta=0.1)
    # comparability condition rejected at evaluation time
    p = ModelParams(alpha=1.1, kind="exp", beta=0.5)
    bad = LyapunovSpec(2.0, 0.1, 1.9, 0.9, ExpWeight(theta=0.25, delta=0.1))
    with pytest.raises(ValueError):
        lyapunov_H(1.0, 1.0, p, bad)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(alpha=0.9, kind="exp", beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=1.5, kind="exp", beta=-1.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=1.5, kind="poly", gamma=-0.5)
    with pytest.raises(ValueError):
        ModelParams(alpha=1.5, kind="weird", beta=1.0)


def test_model_params_are_one_dimensional():
    # the model has no space-dimension option
    with pytest.raises(TypeError):
        ModelParams(alpha=2.0, kind="exp", beta=1.0, dim=1)
    # d = 1 surface factor: the Gaussian constant is sqrt(2 pi) e^(-1/2)
    p = ModelParams(alpha=2.0, kind="exp", beta=2.0)
    assert p.norm_const == pytest.approx(math.sqrt(2.0 * math.pi) * math.exp(-0.5), rel=1e-12)


def test_grad_v_H_values_and_fd(rng, exp_params, exp_spec):
    p2 = ModelParams(alpha=2.0, kind="exp", beta=2.0)
    s0 = LyapunovSpec(2.0, 0.0, 0.5, 0.6, ExpWeight(theta=1.0, delta=0.1))
    assert grad_v_H(0.0, 0.0, p2, s0).item() == 0.0
    assert grad_v_H(0.0, 1.0, p2, s0).item() == pytest.approx(2.0, rel=1e-15)
    for _ in range(20):
        x, v = rng.uniform(-20, 20, 2)
        h = 1e-5 * (1.0 + abs(v))
        fd = (
            float(lyapunov_H(x, v + h, exp_params, exp_spec))
            - float(lyapunov_H(x, v - h, exp_params, exp_spec))
        ) / (2.0 * h)
        g = grad_v_H(x, v, exp_params, exp_spec).item()
        assert abs(fd - g) / max(abs(g), 1e-8) < 1e-6


def test_apply_Lstar_energy_power_hand_values():
    p2 = ModelParams(alpha=2.0, kind="exp", beta=2.0)
    spec = LyapunovSpec(2.0, 0.0, 0.5, 0.6, ExpWeight(theta=1.0, delta=0.1))
    assert float(apply_Lstar_exact(0.0, 1.0, p2, spec, "energy_power")) == pytest.approx(
        2.0, rel=1e-14
    )
    # at v = 0 only the Laplacian term survives: ell E^(ell-1)
    x = 3.0
    e = float(energy(x, 0.0, p2))
    assert float(apply_Lstar_exact(x, 0.0, p2, spec, "energy_power")) == pytest.approx(
        2.0 * e, rel=1e-14
    )


def test_apply_Lstar_linearity_and_degenerate(rng, exp_params):
    spec = LyapunovSpec(2.0, 0.07, 0.5, 0.6, ExpWeight(theta=0.25, delta=0.1))
    s0 = LyapunovSpec(2.0, 0.0, 0.5, 0.6, ExpWeight(theta=0.25, delta=0.1))
    for _ in range(25):
        x, v = rng.uniform(-20, 20, 2)
        full = float(apply_Lstar_exact(x, v, exp_params, spec, "full_h"))
        ep = float(apply_Lstar_exact(x, v, exp_params, spec, "energy_power"))
        ct = float(apply_Lstar_exact(x, v, exp_params, spec, "cross_term"))
        assert full == ep + spec.eps * ct  # exact identity, same arithmetic
        assert float(apply_Lstar_exact(x, v, exp_params, s0, "full_h")) == float(
            apply_Lstar_exact(x, v, exp_params, s0, "energy_power")
        )


def test_apply_Lstar_weight_chain_rule(rng, exp_params, exp_spec, poly_params, poly_spec):
    """weight_m must equal Phi'(H) L*H + Phi''(H) |grad_v H|^2, recomputed here."""
    for params, spec in ((exp_params, exp_spec), (poly_params, poly_spec)):
        for _ in range(20):
            x, v = rng.uniform(-15, 15, 2)
            got = float(apply_Lstar_exact(x, v, params, spec, "weight_m"))
            h = float(lyapunov_H(x, v, params, spec))
            full = float(apply_Lstar_exact(x, v, params, spec, "full_h"))
            g = grad_v_H(x, v, params, spec).item()
            if isinstance(spec.mode, ExpWeight):
                th, de = spec.mode.theta, spec.mode.delta
                m = math.exp(de * h ** (th / 2.0))
                p1 = de * th / 2.0 * h ** (th / 2.0 - 1.0) * m
                p2 = (
                    de
                    * th
                    / 2.0
                    * h ** (th / 2.0 - 2.0)
                    * m
                    * ((th / 2.0 - 1.0) + de * th / 2.0 * h ** (th / 2.0))
                )
            else:
                r = spec.mode.k / spec.ell
                m = h**r
                p1 = r * h ** (r - 1.0)
                p2 = r * (r - 1.0) * h ** (r - 2.0)
            expected = p1 * full + p2 * g * g
            assert got == pytest.approx(expected, rel=1e-12)


def test_drift_excess_bitwise_matches_composition():
    """s = L* m + phi(m), with each point's terms computed once, equals the
    public forms added, bit for bit, on a grid that includes both axes."""
    cases = [
        (
            ModelParams(alpha=1.5, kind="exp", beta=0.5),
            LyapunovSpec(2.0, 0.2, 0.75, 0.6, ExpWeight(theta=0.25, delta=0.1)),
        ),
        (
            ModelParams(alpha=2.0, kind="exp", beta=3.0),
            LyapunovSpec(2.0, 0.45, 1.0, 0.6, ExpWeight(theta=1.0, delta=0.1)),
        ),
        (
            ModelParams(alpha=2.0, kind="poly", gamma=2.0),
            LyapunovSpec(1.75, 0.3, 0.0, 0.9, PolyWeight(k=1.5)),
        ),
    ]
    zs = np.linspace(-50.0, 50.0, 37)
    xg, vg = np.meshgrid(zs, zs, indexing="ij")
    x = np.concatenate([xg.ravel(), zs, np.zeros_like(zs)])
    v = np.concatenate([vg.ravel(), np.zeros_like(zs), zs])
    for params, spec in cases:
        got = drift_excess(x, v, params, spec)
        want = apply_Lstar_exact(x, v, params, spec, "weight_m") + phi(
            lyapunov_weight(x, v, params, spec), spec
        )
        assert got.shape == (x.shape[0],)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    # the comparability check of the public forms still applies
    bad = LyapunovSpec(1.1, 0.2, 3.0, 0.1, ExpWeight(theta=0.25, delta=0.1))
    with pytest.raises(ValueError):
        drift_excess(x, v, cases[0][0], bad)


def test_apply_Lstar_unknown_target(exp_params, exp_spec):
    with pytest.raises(ValueError):
        apply_Lstar_exact(1.0, 1.0, exp_params, exp_spec, "nonsense")


def test_phi_values_and_domain():
    s_th1 = LyapunovSpec(2.0, 0.1, 0.5, 0.6, ExpWeight(theta=1.0, delta=0.1))
    assert phi(7.3, s_th1) == pytest.approx(7.3, rel=1e-15)
    s_half = LyapunovSpec(2.0, 0.1, 0.5, 0.6, ExpWeight(theta=0.5, delta=0.1))
    assert phi(math.e, s_half) == pytest.approx(math.e, rel=1e-14)
    assert phi(1.0, s_half) == 0.0  # boundary convention
    with pytest.raises(ValueError):
        phi(0.99, s_half)
    s_poly = LyapunovSpec(2.0, 0.1, 0.5, 0.6, PolyWeight(k=2.0))
    assert phi(4.0, s_poly) == pytest.approx(2.0, rel=1e-15)
    assert phi(0.25, s_poly) == pytest.approx(0.5, rel=1e-15)  # concave extension
    with pytest.raises(ValueError):
        phi(-1.0, s_poly)


def test_phi_nondecreasing_tail():
    # phi(m) = m (ln m)^(-sigma) with sigma = (1-theta)/theta is increasing
    # exactly on [e^sigma, infinity); for theta >= 1/2 that includes [e, inf).
    s_half = LyapunovSpec(2.0, 0.1, 0.5, 0.6, ExpWeight(theta=0.5, delta=0.1))
    m = np.linspace(math.e, 200.0, 400)
    assert np.all(np.diff(phi(m, s_half)) >= 0.0)
    s_quarter = LyapunovSpec(2.0, 0.1, 0.5, 0.6, ExpWeight(theta=0.25, delta=0.1))
    m = np.linspace(math.exp(3.0), 200.0, 400)
    assert np.all(np.diff(phi(m, s_quarter)) >= 0.0)


def test_asymptotic_density_constant_and_shape():
    assert asymptotic_prefactor(1.5, 0.5, 1.15) == pytest.approx(4.0154, abs=1e-4)
    # prefactor exponent (alpha/2)(1 - beta/2) for the linear-potential case
    lo, hi = asymptotic_density(np.array([100.0, 200.0]), 1.0, 1.0, 2.0)
    v100 = math.sqrt(1 + 100.0**2) ** 1.0 / 1.0
    v200 = math.sqrt(1 + 200.0**2) ** 1.0 / 1.0
    ratio = (hi / lo) * math.exp(2.0 * (v200**0.5 - v100**0.5))
    assert ratio == pytest.approx(2.0**0.25, rel=1e-6)
    with pytest.raises(ValueError):
        asymptotic_density(0.0, 1.5, 0.5, 1.15)


def test_asymptotic_density_ratio_tends_to_one():
    """Laplace limit: quadrature/closed-form ratio decreases toward 1.

    The correction decays like 1/(delta V^(beta/2)), so the ratio is still
    about 1.14 at x = 300 and falls below 1.01 only near x ~ 2.7e5.
    """
    alpha, beta, delta = 1.5, 0.5, 1.15

    def ratio(x):
        vpot = math.sqrt(1 + x * x) ** alpha / alpha
        # shifted integrand avoids underflow at large x
        val, _ = integrate.quad(
            lambda v: math.exp(
                -delta * ((v * v / 2 + vpot) ** (beta / 2) - vpot ** (beta / 2))
            ),
            -4e5,
            4e5,
            limit=400,
        )
        pref = asymptotic_prefactor(alpha, beta, delta) * x ** (
            (alpha / 2) * (1 - beta / 2)
        )
        return val / pref

    r300, r1e4, r1e6 = ratio(300.0), ratio(1e4), ratio(1e6)
    assert r300 == pytest.approx(1.137, abs=5e-3)
    assert abs(r1e4 - 1.0) < abs(r300 - 1.0)
    assert abs(r1e6 - 1.0) < abs(r1e4 - 1.0)
    assert abs(r1e6 - 1.0) < 0.01


def _density_over_leading(x, alpha, beta, delta):
    """Quadrature of exp(-delta E^(beta/2)) over v, divided by the leading
    closed form; both carry exp(-lam), which is factored out analytically."""
    vpot = math.sqrt(1 + x * x) ** alpha / alpha
    lam = delta * vpot ** (beta / 2)
    width = math.sqrt(4 * vpot / (lam * beta))  # Gaussian width near v = 0

    def shifted(u):
        # (V + v^2/2)^(beta/2) - V^(beta/2) without cancellation
        v = u * width
        rise = math.expm1((beta / 2) * math.log1p(v * v / (2 * vpot)))
        return math.exp(-lam * rise)

    val, _ = integrate.quad(
        shifted, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400
    )
    pref = asymptotic_prefactor(alpha, beta, delta)
    lead = pref * x ** ((alpha / 2) * (1 - beta / 2))
    return 2 * width * val / lead, lam


def test_asymptotic_correction_next_order():
    """Two-term Watson expansion: the corrected residual is about c2/lam^2."""
    # beta = 2: the v-integral is Gaussian, c1 = 0 and the leading form is exact
    assert asymptotic_correction(50.0, 2.0, 2.0, 1.0) == 1.0
    ratio, _ = _density_over_leading(50.0, 2.0, 2.0, 1.0)
    assert abs(ratio - 1.0) < 1e-12

    for alpha, beta, delta in ((1.5, 0.5, 1.15), (1.5, 1.0, 0.5), (3.0, 0.5, 2.0)):
        c2 = 5 * (2 - beta) * (10 - 13 * beta) / (128 * beta**2)
        for x in (300.0, 1e4):
            ratio, lam = _density_over_leading(x, alpha, beta, delta)
            corrected = abs(ratio / asymptotic_correction(x, alpha, beta, delta) - 1)
            assert corrected <= 2 * abs(c2) / lam**2
            assert 10 * corrected < abs(ratio - 1)

    xs = np.array([-300.0, 300.0, 1e4])
    vec = asymptotic_correction(xs, 1.5, 0.5, 1.15)
    assert vec.shape == (3,) and vec[0] == vec[1]
    assert vec[2] == asymptotic_correction(1e4, 1.5, 0.5, 1.15)
    for bad in ((0.0, 0.5, 1.15), (1.5, -0.5, 1.15), (1.5, 0.5, 0.0)):
        with pytest.raises(ValueError):
            asymptotic_correction(300.0, *bad)


def test_lyapunov_weight_modes(exp_params, exp_spec, poly_params, poly_spec):
    x, v = 2.0, -1.0
    h = float(lyapunov_H(x, v, exp_params, exp_spec))
    assert float(lyapunov_weight(x, v, exp_params, exp_spec)) == pytest.approx(
        math.exp(exp_spec.mode.delta * h ** (exp_spec.mode.theta / 2.0)), rel=1e-14
    )
    hp = float(lyapunov_H(x, v, poly_params, poly_spec))
    assert float(lyapunov_weight(x, v, poly_params, poly_spec)) == pytest.approx(
        hp ** (poly_spec.mode.k / poly_spec.ell), rel=1e-14
    )


BROADCAST_MODELS = {
    "exp": (
        ModelParams(alpha=1.5, kind="exp", beta=0.5),
        LyapunovSpec(2.0, 0.2, 1.0, 0.6, ExpWeight(theta=0.25, delta=2.0)),
    ),
    "poly": (
        ModelParams(alpha=2.0, kind="poly", gamma=2.0),
        LyapunovSpec(1.75, 0.3, 0.0, 0.9, PolyWeight(k=1.5)),
    ),
}
CLOSED_FORMS = {
    "energy": lambda x, v, params, spec: energy(x, v, params),
    "lyapunov_H": lyapunov_H,
    "grad_v_H": grad_v_H,
    "lyapunov_weight": lyapunov_weight,
    "drift_excess": drift_excess,
    **{
        f"Lstar_{target}": (
            lambda x, v, params, spec, target=target: apply_Lstar_exact(
                x, v, params, spec, target
            )
        )
        for target in LSTAR_TARGETS
    },
}


@pytest.mark.parametrize("model", sorted(BROADCAST_MODELS))
@pytest.mark.parametrize("form", sorted(CLOSED_FORMS))
def test_closed_form_broadcasts_column_against_row(form, model):
    """An x column (rows, 1) against a v row (n,) gives the (rows, n) grid,
    equal bit for bit to the same pairs passed as two flat (N,) arrays; a
    scalar pair gives a 0-d value of that grid."""
    params, spec = BROADCAST_MODELS[model]
    f = CLOSED_FORMS[form]
    xs = np.linspace(-40.0, 40.0, 9)
    vs = np.linspace(-30.0, 30.0, 12)
    grid = f(xs[:, None], vs, params, spec)
    assert grid.shape == (xs.size, vs.size)
    assert np.all(np.isfinite(grid))
    flat = f(np.repeat(xs, vs.size), np.tile(vs, xs.size), params, spec)
    assert flat.shape == (xs.size * vs.size,)
    np.testing.assert_array_equal(grid.reshape(-1).view(np.uint64), flat.view(np.uint64))
    one = f(xs[2], vs[7], params, spec)
    assert np.ndim(one) == 0
    assert float(one) == pytest.approx(grid[2, 7], rel=1e-13)
