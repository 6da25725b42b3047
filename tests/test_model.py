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
from oracles import (
    grad_v_H_reference,
    lstar_cross_term_reference,
    lstar_energy_power_reference,
    lstar_term_scale,
    lstar_weight_reference,
    lyapunov_H_reference,
)


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


def test_equilibrium_drift_values():
    pg = ModelParams(alpha=2.0, kind="exp", beta=2.0)
    assert equilibrium_drift(3.0, pg).item() == pytest.approx(-3.0, rel=1e-15)
    p05 = ModelParams(alpha=2.0, kind="exp", beta=0.5)
    assert equilibrium_drift(1.0, p05).item() == pytest.approx(-(2.0 ** (-0.75)), rel=1e-12)
    pp = ModelParams(alpha=1.5, kind="poly", gamma=1.0)
    assert equilibrium_drift(1.0, pp).item() == pytest.approx(-1.0, rel=1e-15)


def test_equilibrium_drift_is_log_gradient(rng, exp_params, poly_params):
    def log_profile(v, params):
        # log of the unnormalised equilibrium, written out independently
        jv = math.sqrt(1.0 + v * v)
        if params.kind == "exp":
            return -(jv**params.beta) / params.beta
        return -(1.0 + params.gamma) * math.log(jv)

    for params in (exp_params, poly_params):
        for v in rng.uniform(-50.0, 50.0, size=40):
            h = 1e-6 * max(1.0, abs(v))
            fd = (log_profile(v + h, params) - log_profile(v - h, params)) / (2.0 * h)
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


FAMILIES = [("exp", 0.5), ("exp", 1.0), ("exp", 2.0), ("exp", 3.0),
            ("poly", 1.5), ("poly", 2.0), ("poly", 3.0)]


@pytest.mark.parametrize("kind, power", FAMILIES)
def test_equilibrium_drift_is_odd_and_log_gradient(rng, kind, power):
    """M is even, so M'/M is odd bit for bit and 0 at v = 0; it is the
    derivative of the unnormalised log profile, -<v>^beta / beta or
    -(1 + gamma) log<v>, across each family's exponent range."""
    shape = {"beta": power} if kind == "exp" else {"gamma": power}
    params = ModelParams(alpha=1.5, kind=kind, **shape)
    v = rng.uniform(0.0, 200.0, size=50)
    np.testing.assert_array_equal(
        equilibrium_drift(-v, params), -equilibrium_drift(v, params)
    )
    assert equilibrium_drift(0.0, params).item() == 0.0

    def log_profile(t):
        jt = math.sqrt(1.0 + t * t)
        return -(jt**power) / power if kind == "exp" else -(1.0 + power) * math.log(jt)

    for t in v[:20]:
        h = 1e-6 * max(1.0, t)
        fd = (log_profile(t + h) - log_profile(t - h)) / (2.0 * h)
        dr = equilibrium_drift(t, params).item()
        assert abs(fd - dr) / max(abs(dr), 1e-9) < 1e-6


def test_model_params_are_one_dimensional():
    # the model has no space-dimension option
    with pytest.raises(TypeError):
        ModelParams(alpha=2.0, kind="exp", beta=1.0, dim=1)


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


README_CERTIFICATES = [
    (ModelParams(alpha=1.5, kind="exp", beta=0.5),
     LyapunovSpec(2.0, 0.2, 1.0, 0.6, ExpWeight(theta=0.25, delta=2.0))),
    (ModelParams(alpha=2.0, kind="exp", beta=1.0),
     LyapunovSpec(2.0, 0.2, 1.0, 0.6, ExpWeight(theta=0.5, delta=1.0))),
    (ModelParams(alpha=2.0, kind="exp", beta=3.0),
     LyapunovSpec(2.0, 0.45, 1.0, 0.6, ExpWeight(theta=1.0, delta=0.1))),
    (ModelParams(alpha=2.0, kind="poly", gamma=2.0),
     LyapunovSpec(1.75, 0.3, 0.0, 0.9, PolyWeight(k=1.5))),
]


# the models of criterion 4 (test_acceptance.py)
C04_MODELS = [
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


@pytest.mark.parametrize(
    "params, spec", README_CERTIFICATES + C04_MODELS,
    ids=[f"readme{i}" for i in range(4)] + [f"c04-{i}" for i in range(7)],
)
def test_rank_one_forms_match_expanded_references(params, spec):
    """The model's closed forms (the cross term's L* as three outer products
    of axis factors, one power of E for H and d_v H, one power of H for the
    weight's chain rule) agree with the expanded references of oracles.py,
    which take each power directly: the L* targets within 1e-12 of the term
    scale, H and d_v H within 1e-13 of theirs, on a grid holding both axes."""
    half = np.linspace(0.0, 50.0, 19)
    axis = np.concatenate([-half[:0:-1], half])
    x, v = axis[:, None], axis
    lstar = {
        "energy_power": lstar_energy_power_reference(x, v, params, spec),
        "cross_term": lstar_cross_term_reference(x, v, params, spec),
        "weight_m": lstar_weight_reference(x, v, params, spec),
    }
    lstar["full_h"] = lstar["energy_power"] + spec.eps * lstar["cross_term"]
    for target in LSTAR_TARGETS:
        got = apply_Lstar_exact(x, v, params, spec, target)
        scale = lstar_term_scale(x, v, params, spec, target)
        weight = spec.eps if target == "cross_term" else 1.0  # its share of L* H
        assert np.all(weight * np.abs(got - lstar[target]) <= 1e-12 * scale), target
    e = energy(x, v, params)
    cross = jbracket(x) ** spec.a_exp * np.abs(x) * jbracket(v) ** (-spec.b_exp)
    h_scale = e**spec.ell + spec.eps * cross * np.abs(v)
    g_scale = spec.ell * e ** (spec.ell - 1.0) * np.abs(v) + spec.eps * cross * (1.0 + spec.b_exp)
    h_err = np.abs(lyapunov_H(x, v, params, spec) - lyapunov_H_reference(x, v, params, spec))
    g_err = np.abs(grad_v_H(x, v, params, spec) - grad_v_H_reference(x, v, params, spec))
    assert np.all(h_err <= 1e-13 * h_scale)
    assert np.all(g_err <= 1e-13 * g_scale)


def _assert_mirror_even(x, v, params, spec):
    """drift_excess(-x, -v) equals drift_excess(x, v) bit for bit, with NaN
    at the same points; returns the NaN count."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = drift_excess(x, v, params, spec)
        mirror = drift_excess(-x, -v, params, spec)
    nan = np.isnan(s)
    np.testing.assert_array_equal(np.isnan(mirror), nan)
    np.testing.assert_array_equal(mirror[~nan].view(np.uint64), s[~nan].view(np.uint64))
    return np.count_nonzero(nan)


def test_drift_excess_is_even_under_the_phase_mirror():
    """s(-x, -v) = s(x, v) bit for bit: V and M are even and H pairs x with
    v, and negation is exact in floating point.  The certifier's scan
    evaluates only the grid rows with x <= 0 on that account.  Checked on
    a grid holding both axes and on random (rows, 1) x (n,) points for the
    README certificates, on the 100 box for beta = 3, where s is NaN at
    some points, and for a seeded sweep over admissible models and specs."""
    rng = np.random.default_rng(24)
    zs = np.linspace(-50.0, 50.0, 37)
    for params, spec in README_CERTIFICATES:
        _assert_mirror_even(zs[:, None], zs, params, spec)
        x, v = rng.uniform(-50.0, 50.0, (40, 1)), rng.uniform(-50.0, 50.0, 60)
        assert _assert_mirror_even(x, v, params, spec) == 0
    x, v = rng.uniform(-100.0, 100.0, (40, 1)), rng.uniform(-100.0, 100.0, 60)
    assert _assert_mirror_even(x, v, *README_CERTIFICATES[2]) > 0
    checked = 0
    while checked < 60:
        alpha = rng.uniform(1.05, 3.0)
        eps, a_exp, b_exp = rng.uniform(0.0, 0.5), rng.uniform(-0.5, 1.5), rng.uniform(0.05, 0.95)
        if rng.random() < 0.5:
            params = ModelParams(alpha=alpha, kind="exp", beta=rng.uniform(0.2, 3.0))
            theta = rng.uniform(0.05, min(1.0, params.beta / 2.0))
            mode = ExpWeight(theta=theta, delta=rng.uniform(0.05, 2.0))
            ell = rng.uniform(1.2, 3.0)
        else:
            params = ModelParams(alpha=alpha, kind="poly", gamma=rng.uniform(1.2, 4.0))
            ell = rng.uniform(1.5, 1.0 + params.gamma / 2.0)
            mode = PolyWeight(k=rng.uniform(1.01, ell))
        spec = LyapunovSpec(ell, eps, a_exp, b_exp, mode)
        if not spec.equivalence_ok(alpha):
            continue
        half = rng.choice([10.0, 50.0])
        x, v = rng.uniform(-half, half, (12, 1)), rng.uniform(-half, half, 30)
        _assert_mirror_even(x, v, params, spec)
        checked += 1


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
