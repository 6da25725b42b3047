"""Finite-difference oracle and drift-inequality certifier."""

import dataclasses
import itertools

import numpy as np
import pytest

from kinfp import (
    ExpWeight,
    LyapunovSpec,
    ModelParams,
    PolyWeight,
    ScanConfig,
    apply_Lstar_exact,
    drift_excess,
    energy,
    find_certified_spec,
    lyapunov_H,
    lyapunov_weight,
    scan_drift_inequality,
)
import kinfp.verify as verify
from kinfp import CertificateReport
from oracles import apply_Lstar_fd, apply_Lstar_fd_richardson

FAST_SCAN = ScanConfig(samples_per_axis=96, exclusion_radii=(20.0, 30.0, 40.0))


def test_fd_constant_is_zero(exp_params):
    for h in (1e-2, 1e-3, 1e-4):
        assert apply_Lstar_fd(lambda x, v: 4.2, [0.7], [-1.3], exp_params, h) == 0.0


def test_fd_matches_hand_value_gaussian():
    p2 = ModelParams(alpha=2.0, kind="exp", beta=2.0)
    fd = apply_Lstar_fd(
        lambda x, v: float(energy(x, v, p2)) ** 2, [0.0], [1.0], p2, 1e-4
    )
    assert fd == pytest.approx(2.0, abs=1e-6)


def test_fd_matches_exact_full_h(rng, exp_params, exp_spec):
    F = lambda x, v: float(lyapunov_H(x, v, exp_params, exp_spec))
    for _ in range(20):
        x, v = rng.uniform(-20, 20, 2)
        ex = float(apply_Lstar_exact(x, v, exp_params, exp_spec, "full_h"))
        fd = apply_Lstar_fd_richardson(F, [x], [v], exp_params, 1e-4)
        assert abs(fd - ex) / abs(ex) < 1e-6


@pytest.mark.parametrize("kind", ["exp", "poly"])
def test_fd_richardson_consistency(rng, kind):
    """Halving h shrinks the error by ~4x (observed order >= 1.9)."""
    if kind == "exp":
        params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
        spec = LyapunovSpec(2.0, 0.05, 0.5, 0.6, ExpWeight(theta=0.25, delta=0.05))
    else:
        params = ModelParams(alpha=2.0, kind="poly", gamma=2.0)
        spec = LyapunovSpec(1.75, 0.1, 0.0, 0.6, PolyWeight(k=1.5))
    F = lambda x, v: float(lyapunov_H(x, v, params, spec))
    orders = []
    for _ in range(20):
        x, v = rng.uniform(-20, 20, 2)
        ex = float(apply_Lstar_exact(x, v, params, spec, "full_h"))
        e1 = abs(apply_Lstar_fd(F, [x], [v], params, 2e-3) - ex)
        e2 = abs(apply_Lstar_fd(F, [x], [v], params, 1e-3) - ex)
        if e2 > 1e-13 * abs(ex):  # skip points already at roundoff
            orders.append(np.log2(e1 / e2))
    assert len(orders) >= 10
    assert min(orders) >= 1.9


def test_fd_point_as_float_or_one_element_array(exp_params, exp_spec):
    seen = []

    def F(x, v):
        seen.append((type(x), type(v)))
        return float(lyapunov_H(x, v, exp_params, exp_spec))

    outs = [
        apply_Lstar_fd(F, x, v, exp_params, 1e-4)
        for x, v in ((1.7, -2.4), ([1.7], [-2.4]), (np.array([1.7]), np.array([-2.4])))
    ]
    assert all(type(out) is float for out in outs)
    assert outs[0] == outs[1] == outs[2]
    assert set(seen) == {(float, float)}


def test_fd_rejects_bad_input(exp_params):
    with pytest.raises(ValueError):
        apply_Lstar_fd(lambda x, v: 1.0, [0.0], [0.0], exp_params, -1e-4)
    with pytest.raises(ArithmeticError):
        apply_Lstar_fd(lambda x, v: float("nan"), [0.0], [0.0], exp_params, 1e-4)


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(samples_per_axis=8)
    with pytest.raises(ValueError):
        ScanConfig(exclusion_radii=(60.0,))  # radius outside the box
    with pytest.raises(ValueError):
        ScanConfig(x_half=-1.0)


def test_scan_degenerate_eps_fails_on_x_axis(exp_params):
    """Without the cross term there is no confinement mechanism in x."""
    spec = LyapunovSpec(2.0, 0.0, 0.5, 0.6, ExpWeight(theta=0.25, delta=2.0))
    report = scan_drift_inequality(exp_params, spec, FAST_SCAN)
    assert not report.passed
    assert report.min_margin_outside < 0.0
    assert abs(report.worst_point[1]) < 1.0  # worst point sits on the x-axis


def test_scan_passing_case():
    params = ModelParams(alpha=2.0, kind="exp", beta=1.0)
    spec = LyapunovSpec(2.0, 0.2, 1.0, 0.6, ExpWeight(theta=0.5, delta=1.0))
    report = scan_drift_inequality(params, spec, FAST_SCAN)
    assert report.passed
    assert report.min_margin_outside >= 0.0
    assert report.chosen_C >= 0.0
    assert report.chosen_R in FAST_SCAN.exclusion_radii


def test_scan_report_independent_of_chunk_size(monkeypatch):
    """The scan fills s in blocks of whole grid rows; blocks of one row
    (a chunk of 7 points) and of two rows (the last block holds one)
    give the report of one block over all points.  100 samples per axis
    and 0 make a 101 x 101 grid, whose 51 rows with x <= 0 are scanned."""
    cfg = ScanConfig(samples_per_axis=100, exclusion_radii=(20.0, 30.0, 40.0))
    n_points = 101 * 101
    passing = (
        ModelParams(alpha=2.0, kind="exp", beta=1.0),
        LyapunovSpec(2.0, 0.2, 1.0, 0.6, ExpWeight(theta=0.5, delta=1.0)),
    )
    failing = (
        ModelParams(alpha=1.5, kind="exp", beta=0.5),
        LyapunovSpec(2.0, 0.0, 0.5, 0.6, ExpWeight(theta=0.25, delta=2.0)),
    )
    for params, spec in (passing, failing):
        reports = []
        for chunk in (n_points, 7, 300):
            monkeypatch.setattr(verify, "_SCAN_CHUNK", chunk)
            reports.append(scan_drift_inequality(params, spec, cfg))
        whole = reports[0]
        assert whole.passed == (spec is passing[1])
        for small in reports[1:]:
            for f in dataclasses.fields(CertificateReport):
                assert getattr(small, f.name) == getattr(whole, f.name), f.name


def _flat_scan(params, spec, cfg):
    """Reference scan over materialised points: s from one drift_excess call
    over the meshgrid of the scan's whole axes, both halves, and the report
    from masked copies of it."""
    xs = verify._axis(cfg.x_half, cfg.samples_per_axis)
    vs = verify._axis(cfg.v_half, cfg.samples_per_axis)
    x, v = np.meshgrid(xs, vs, indexing="ij")
    with np.errstate(invalid="ignore", over="ignore"):
        s = drift_excess(x, v, params, spec)
    r2 = x * x + v * v
    for radius in sorted(cfg.exclusion_radii):
        outside = r2 > radius * radius
        worst = float(np.max(s[outside]))
        if worst <= 0.0:
            break
    i = np.flatnonzero(outside)[np.argmax(s[outside])]
    x, v = x.reshape(-1), v.reshape(-1)
    report = CertificateReport(
        passed=worst <= 0.0,
        chosen_R=float(radius),
        chosen_C=max(float(np.max(s[~outside], initial=-np.inf)), 0.0),
        min_margin_outside=-worst,
        worst_point=(float(x[i]), float(v[i])),
        spec_echo=spec,
    )
    return s, report


@pytest.mark.parametrize("samples", [16, 37, 100, 256])
@pytest.mark.parametrize("chunk", ["default", 7, "uneven"])
def test_tensor_scan_matches_flat_reference(monkeypatch, samples, chunk):
    """The row-block scan of the rows with x <= 0 gives s bit for bit on
    those rows, and the report field for field, of one drift_excess call
    over the whole materialised grid: with one block, blocks of one row,
    and blocks of four rows that do not divide the half's row count.  The
    whole grid's s is even under (x, v) -> (-x, -v) bit for bit, NaN
    included (beta = 3 on the 100 box)."""
    cfg = ScanConfig(v_half=45.0, samples_per_axis=samples, exclusion_radii=(20.0, 30.0, 40.0))
    nan_cfg = ScanConfig(x_half=100.0, v_half=100.0, samples_per_axis=samples)
    xs, vs, _ = verify._scan_points(cfg)
    assert xs.size == samples // 2 + 1 and vs.size == samples + (samples % 2 == 0)
    if chunk == "uneven":
        chunk = 4 * vs.size
        assert xs.size % 4 != 0
    if chunk != "default":
        monkeypatch.setattr(verify, "_SCAN_CHUNK", chunk)
    cases = [
        (ModelParams(alpha=2.0, kind="exp", beta=1.0),
         LyapunovSpec(2.0, 0.2, 1.0, 0.6, ExpWeight(theta=0.5, delta=1.0)), cfg),
        (ModelParams(alpha=1.5, kind="exp", beta=0.5),
         LyapunovSpec(2.0, 0.0, 0.5, 0.6, ExpWeight(theta=0.25, delta=2.0)), cfg),
        (ModelParams(alpha=2.0, kind="poly", gamma=2.0),
         LyapunovSpec(1.75, 0.3, 0.0, 0.9, PolyWeight(k=1.5)), cfg),
        (ModelParams(alpha=2.0, kind="exp", beta=3.0),
         LyapunovSpec(2.0, 0.45, 1.0, 0.6, ExpWeight(theta=1.0, delta=0.1)), nan_cfg),
    ]
    for params, spec, scan_cfg in cases:
        want_s, want = _flat_scan(params, spec, scan_cfg)
        assert np.array_equal(want_s[::-1, ::-1].view(np.uint64), want_s.view(np.uint64))
        points = verify._scan_points(scan_cfg)
        with np.errstate(invalid="ignore", over="ignore"):
            s = verify._drift_excess_chunks(params, spec, *points)
            got = scan_drift_inequality(params, spec, scan_cfg)
        assert s.shape == (xs.size, vs.size)
        assert np.array_equal(s.view(np.uint64), want_s[: xs.size].view(np.uint64))
        _assert_reports_equal(got, want)
    assert np.isnan(want.min_margin_outside)  # the beta = 3 case


@pytest.mark.parametrize("half", [50.0, 45.0, 10.0])
@pytest.mark.parametrize("samples", [16, 17, 23, 256, 257])
def test_scan_axes_hold_their_samples_and_zero_once(half, samples):
    """Each axis is exactly antisymmetric: its negative samples are those of
    the linspace of its side, bit for bit, and its positive ones their
    negation, within 2 ulp of the half-width of linspace's, with one exact
    0 between them (added for an even count; an odd count's middle sample,
    7.1e-15 from linspace for 23 samples across 100, becomes 0).  The
    scan's rows are the axis's part with x <= 0, against the whole v axis."""
    cfg = ScanConfig(
        x_half=half, v_half=half, samples_per_axis=samples, exclusion_radii=(1.0,)
    )
    axis = verify._axis(half, samples)
    spaced = np.linspace(-half, half, samples)
    size = samples + (samples % 2 == 0)
    assert axis.shape == (size,)
    assert np.array_equal(axis, -axis[::-1])
    assert np.all(np.diff(axis) > 0.0)
    assert np.count_nonzero(axis == 0.0) == 1
    neg, pos = axis[axis < 0.0], axis[axis > 0.0]
    assert np.array_equal(neg, spaced[: samples // 2])
    assert np.all(np.abs(pos - spaced[-(samples // 2):]) <= 2 * np.spacing(half))
    xs, vs, r2 = verify._scan_points(cfg)
    assert np.array_equal(xs, axis[axis <= 0.0])
    assert np.array_equal(vs, axis)
    assert r2.shape == (xs.size, size)
    assert np.array_equal(r2, xs[:, None] ** 2 + vs[None, :] ** 2)


def test_certified_constant_covers_the_origin():
    """C is at least s at the origin, which a 256-sample linspace misses:
    on the desk regime s(0, 0) = 5.16 exceeds every other sample inside
    B_20 (the largest, 5.09, sits beside it at (-0.196, 0))."""
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    spec = LyapunovSpec(2.0, 0.2, 1.0, 0.6, ExpWeight(theta=0.25, delta=2.0))
    report = scan_drift_inequality(params, spec, ScanConfig())
    origin = float(drift_excess(np.zeros(1), np.zeros(1), params, spec)[0])
    assert report.passed and report.chosen_R == 20.0
    assert report.chosen_C >= origin > 5.0


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize(
    "peaks, want",
    [
        ([(3, 12)], (3, 12)),
        ([(1, None)], (1, None)),
        ([(None, 1)], (None, 1)),
        ([(5, 9), (2, None)], (2, None)),  # an x-axis point in an earlier row
        ([(5, None), (2, 9)], (2, 9)),  # a grid point in an earlier row
        ([(None, 0), (6, None)], (6, None)),  # the v-axis is the row x = 0
        ([(None, 12), (None, 3)], (None, 3)),  # within a row, v ascends
        ([(7, 1), (6, 13)], (6, 13)),  # the grid is x-major
        ([(12, 5), (10, None)], (3, 10)),  # x > 0: reported as its mirror
    ],
    ids=["grid", "x-axis", "v-axis", "tie-x-axis-grid", "tie-grid-x-axis", "tie-axes",
         "tie-v-axis", "tie-grid", "mirror"],
)
def test_worst_point_maps_back_to_its_coordinates(monkeypatch, chunk, peaks, want):
    """With s = 1 exactly at the given points and their mirrors (-x, -v)
    (indices into the 16 nonzero samples of each axis, None for the 0 that
    the scan adds to each axis) and below 1 elsewhere, the worst point is
    the first of them in the whole grid's x-major order.  The mirror of an
    index i is 15 - i, so a peak with x > 0 is reported as its mirror."""
    cfg = ScanConfig(x_half=10.0, v_half=12.0, samples_per_axis=16, exclusion_radii=(1.0,))
    xs, vs = verify._axis(10.0, 16), verify._axis(12.0, 16)
    xs, vs = xs[xs != 0.0], vs[vs != 0.0]

    def coords(i, j):
        return (0.0 if i is None else xs[i], 0.0 if j is None else vs[j])

    def mirror(i, j):
        return (None if i is None else 15 - i, None if j is None else 15 - j)

    def peaked(x, v, params, spec):
        points = [coords(*p) for p in peaks] + [coords(*mirror(*p)) for p in peaks]
        return 1.0 - np.min([(x - a) ** 2 + (v - b) ** 2 for a, b in points], axis=0)

    monkeypatch.setattr(verify, "drift_excess", peaked)
    if chunk is not None:
        monkeypatch.setattr(verify, "_SCAN_CHUNK", chunk)
    params = ModelParams(alpha=2.0, kind="exp", beta=1.0)
    spec = LyapunovSpec(2.0, 0.2, 1.0, 0.6, ExpWeight(theta=0.5, delta=1.0))
    report = scan_drift_inequality(params, spec, cfg)
    assert not report.passed
    assert report.min_margin_outside == -1.0
    assert report.worst_point == coords(*want)


def test_scan_radius_permutation_invariance():
    params = ModelParams(alpha=2.0, kind="exp", beta=1.0)
    spec = LyapunovSpec(2.0, 0.2, 1.0, 0.6, ExpWeight(theta=0.5, delta=1.0))
    a = scan_drift_inequality(
        params, spec, ScanConfig(samples_per_axis=64, exclusion_radii=(40.0, 20.0, 30.0))
    )
    b = scan_drift_inequality(
        params, spec, ScanConfig(samples_per_axis=64, exclusion_radii=(20.0, 30.0, 40.0))
    )
    assert a.passed == b.passed
    assert a.chosen_R == b.chosen_R
    assert a.min_margin_outside == b.min_margin_outside


def test_scan_box_monotonicity():
    """Enlarging the box can only lower the outside margin for a failing spec."""
    params = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    spec = LyapunovSpec(2.0, 0.0, 0.5, 0.6, ExpWeight(theta=0.25, delta=2.0))
    small = scan_drift_inequality(
        params, spec, ScanConfig(x_half=40.0, v_half=40.0, samples_per_axis=64,
                                 exclusion_radii=(20.0,))
    )
    big = scan_drift_inequality(
        params, spec, ScanConfig(x_half=60.0, v_half=60.0, samples_per_axis=96,
                                 exclusion_radii=(20.0,))
    )
    assert not small.passed
    assert not big.passed
    assert big.min_margin_outside <= small.min_margin_outside + 1e-9


def test_scan_rejects_out_of_range_modes():
    p = ModelParams(alpha=1.5, kind="exp", beta=0.5)
    spec = LyapunovSpec(2.0, 0.2, 1.0, 0.6, ExpWeight(theta=0.5, delta=1.0))
    with pytest.raises(ValueError):  # theta must stay <= beta/2
        scan_drift_inequality(p, spec, FAST_SCAN)
    ppoly = ModelParams(alpha=2.0, kind="poly", gamma=2.0)
    bad_ell = LyapunovSpec(2.5, 0.2, 0.0, 0.6, PolyWeight(k=1.5))
    with pytest.raises(ValueError):  # needs 3/2 < ell < 1 + gamma/2
        scan_drift_inequality(ppoly, bad_ell, FAST_SCAN)
    with pytest.raises(ValueError):  # weight mode / equilibrium mismatch
        scan_drift_inequality(ppoly, spec, FAST_SCAN)


def test_find_certified_spec_exp():
    params = ModelParams(alpha=2.0, kind="exp", beta=1.0)
    spec, report = find_certified_spec(params, FAST_SCAN, theta=0.5)
    assert spec is not None
    assert report.passed
    assert report.min_margin_outside >= 0.0


def test_find_certified_spec_poly():
    params = ModelParams(alpha=2.0, kind="poly", gamma=2.0)
    spec, report = find_certified_spec(params, FAST_SCAN, ell=1.75, k=1.5)
    assert spec is not None
    assert report.passed


def _recording_scan(monkeypatch, margins, passes_at=None):
    """Replace the scan with a recorder.  The fail-fast scan of candidate i
    records it and passes when i == passes_at; the full scan of recorded
    candidate i fails with margins[i].  Returns the lists of fail-fast and
    full-scan specs."""
    calls, rescans = [], []

    def scan(params, spec, cfg, points, fail_fast=False):
        if fail_fast:
            calls.append(spec)
            if len(calls) - 1 != passes_at:
                return None
        else:
            rescans.append(spec)
        i = next(j for j, c in enumerate(calls) if c is spec)
        return CertificateReport(
            passed=i == passes_at,
            chosen_R=45.0,
            chosen_C=0.0,
            min_margin_outside=margins[i],
            worst_point=(0.0, 0.0),
            spec_echo=spec,
        )

    monkeypatch.setattr(verify, "_scan", scan)
    return calls, rescans


def test_search_candidate_order_and_least_bad(monkeypatch):
    """The search visits (A, B, eps) in grid order, skips specs that fail the
    equivalence condition (A = 3) and, for exp weights, delta values that
    overflow at the box corner (2.0 and 0.5 at theta = 1, where delta
    H^(1/2) <= 600 needs delta < 0.24).  With nothing passing it returns the
    first report of the largest margin."""
    exp_grid = {
        "eps": (0.2, 0.45),
        "a_exp": (1.0, 3.0),
        "b_exp": (0.6, 0.4),
        "delta": (2.0, 0.5, 0.1, 0.05),
    }
    margins = [-5.0, -3.0, -1.0, -4.0, -1.0, -2.0, -6.0, -7.0]
    calls, rescans = _recording_scan(monkeypatch, margins)
    params = ModelParams(alpha=2.0, kind="exp", beta=3.0)
    spec, report = find_certified_spec(
        params, ScanConfig(), theta=1.0, search_grid=exp_grid
    )
    assert [(s.eps, s.a_exp, s.b_exp, s.mode.delta) for s in calls] == [
        (0.2, 1.0, 0.6, 0.1), (0.2, 1.0, 0.6, 0.05),
        (0.45, 1.0, 0.6, 0.1), (0.45, 1.0, 0.6, 0.05),
        (0.2, 1.0, 0.4, 0.1), (0.2, 1.0, 0.4, 0.05),
        (0.45, 1.0, 0.4, 0.1), (0.45, 1.0, 0.4, 0.05),
    ]
    assert all(s.ell == 2.0 and s.mode.theta == 1.0 for s in calls)
    assert spec is None
    assert report.min_margin_outside == -1.0
    assert report.spec_echo is calls[2]
    assert rescans == calls  # only a search that passes nothing rescans, in order

    poly_grid = {"eps": (0.3, 0.2), "a_exp": (0.0, 3.0), "b_exp": (0.9, 0.5)}
    calls, rescans = _recording_scan(monkeypatch, [-2.0, -3.0, -0.5, -1.0])
    params = ModelParams(alpha=2.0, kind="poly", gamma=2.0)
    spec, report = find_certified_spec(
        params, ScanConfig(), ell=1.75, k=1.5, search_grid=poly_grid
    )
    assert [(s.eps, s.a_exp, s.b_exp) for s in calls] == [
        (0.3, 0.0, 0.9), (0.2, 0.0, 0.9), (0.3, 0.0, 0.5), (0.2, 0.0, 0.5),
    ]
    assert all(s.ell == 1.75 and s.mode == PolyWeight(k=1.5) for s in calls)
    assert spec is None
    assert report.spec_echo is calls[2]

    # the first passing candidate ends the search
    calls, rescans = _recording_scan(monkeypatch, [-2.0, -3.0, -0.5, -1.0], passes_at=1)
    spec, report = find_certified_spec(
        params, ScanConfig(), ell=1.75, k=1.5, search_grid=poly_grid
    )
    assert len(calls) == 2
    assert spec is calls[1] and report.passed
    assert rescans == []


def _assert_reports_equal(got, want):
    for f in dataclasses.fields(CertificateReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a == b or (f.name == "min_margin_outside" and np.isnan(a) and np.isnan(b)), f.name


@pytest.mark.parametrize("chunk", [None, 7])
def test_fail_fast_decision_matches_full_scan(monkeypatch, chunk):
    """The search's fail-fast scan fails exactly the specs that the full scan
    fails and stops at the block of the first violation outside the largest
    radius.  A scan that reaches its last block, its last drift_excess
    call, gives the full scan's report.  The 64-sample NaN case (33 rows
    of 65) is one block at the default size, so it cannot stop early there.
    The full scans run at the default chunk size (the report does not
    depend on it)."""
    chunks = []
    full_excess = verify.drift_excess

    def counted(*args):
        chunks.append(None)
        return full_excess(*args)

    monkeypatch.setattr(verify, "drift_excess", counted)
    beta1 = ModelParams(alpha=2.0, kind="exp", beta=1.0)
    cfg = ScanConfig()
    nan_cfg = ScanConfig(x_half=100.0, v_half=100.0, samples_per_axis=64)
    cases = {  # name: (params, spec, cfg, the block where the fail-fast scan ends)
        "passing": (beta1, LyapunovSpec(2.0, 0.2, 1.0, 0.6, ExpWeight(0.5, 1.0)), cfg, "last"),
        "first chunk": (beta1, LyapunovSpec(2.0, 0.2, 1.0, 0.6, ExpWeight(0.5, 2.0)), cfg, "first"),
        "later": (beta1, LyapunovSpec(2.0, 0.2, 1.0, 0.6, ExpWeight(0.5, 1.5)), cfg, "later"),
        "nan outside": (ModelParams(alpha=2.0, kind="exp", beta=3.0),
                        LyapunovSpec(2.0, 0.45, 1.0, 0.6, ExpWeight(1.0, 0.1)), nan_cfg, "first"),
    }
    with np.errstate(invalid="ignore", over="ignore"):
        full_scans = [scan_drift_inequality(*case[:3]) for case in cases.values()]
    if chunk is not None:
        monkeypatch.setattr(verify, "_SCAN_CHUNK", chunk)
    for full, (name, (params, spec, scan_cfg, ends)) in zip(full_scans, cases.items()):
        del chunks[:]
        with np.errstate(invalid="ignore", over="ignore"):
            fast = verify._scan(
                params, spec, scan_cfg, verify._scan_points(scan_cfg), fail_fast=True
            )
        assert full.passed == (name == "passing"), name
        assert (fast is not None and fast.passed) == full.passed, name
        xs, vs, _ = verify._scan_points(scan_cfg)
        last = -(-xs.size // max(1, verify._SCAN_CHUNK // vs.size))  # the block count
        n = len(chunks)
        assert {"first": n == 1, "later": 1 < n < last, "last": n == last}[ends], (name, n)
        if n == last:  # a scan that reaches its last block keeps its report
            _assert_reports_equal(fast, full)
        else:
            assert fast is None, name


def _full_scan_search(params, cfg, theta, grid):
    """Reference exp search: every candidate scanned in full, in the search's
    order, keeping the first report of the largest margin."""
    best = None
    for a_exp, b_exp, eps, delta in itertools.product(
        grid["a_exp"], grid["b_exp"], grid["eps"], grid["delta"]
    ):
        spec = LyapunovSpec(2.0, eps, a_exp, b_exp, ExpWeight(theta, delta))
        report = scan_drift_inequality(params, spec, cfg)
        assert not report.passed
        if best is None or report.min_margin_outside > best.min_margin_outside:
            best = report
    return best


@pytest.mark.parametrize("chunk", [None, 1024])
def test_search_without_pass_matches_full_scan_reference(monkeypatch, chunk):
    """At 64 samples a scan (33 rows of 65) is one block at the default
    size, so every failed candidate keeps the report of its complete scan;
    with blocks of 15 rows (a chunk of 1024 points) every one stops early
    and is rescanned."""
    cfg = ScanConfig(samples_per_axis=64)
    cases = [
        (ModelParams(alpha=2.0, kind="exp", beta=3.0), 1.0,
         {"eps": (0.2, 0.3), "a_exp": (1.0,), "b_exp": (0.6, 0.4), "delta": (0.1, 0.05)}),
        (ModelParams(alpha=2.0, kind="exp", beta=1.0), 0.5,
         {"eps": (0.2,), "a_exp": (1.0,), "b_exp": (0.6,), "delta": (2.0, 1.5)}),
    ]
    scan, rescans = verify._scan, []

    def counted(*args, fail_fast=False):
        if not fail_fast:
            rescans.append(args[1])
        return scan(*args, fail_fast=fail_fast)

    for params, theta, grid in cases:
        want = _full_scan_search(params, cfg, theta, grid)
        monkeypatch.setattr(verify, "_scan", counted)
        if chunk is not None:
            monkeypatch.setattr(verify, "_SCAN_CHUNK", chunk)
        del rescans[:]
        spec, report = find_certified_spec(params, cfg, theta=theta, search_grid=grid)
        monkeypatch.undo()
        assert spec is None and not report.passed
        _assert_reports_equal(report, want)
        n_candidates = len(list(itertools.product(*grid.values())))
        assert len(rescans) == (0 if chunk is None else n_candidates)


def test_search_without_candidates_raises():
    params = ModelParams(alpha=2.0, kind="poly", gamma=2.0)
    no_eps = {"eps": (), "a_exp": (0.0,), "b_exp": (0.9,)}
    not_equivalent = {"eps": (0.3,), "a_exp": (3.0,), "b_exp": (0.9,)}
    for grid in (no_eps, not_equivalent):
        with pytest.raises(ValueError, match="no admissible candidate"):
            find_certified_spec(params, FAST_SCAN, ell=1.75, k=1.5, search_grid=grid)


def test_scan_overflow_fails_with_nan_margin():
    """At beta = 3 on a 100 x 100 box the weight overflows and s is NaN at
    some points outside every ball: the scan fails, its margin is NaN and
    the worst point is the first NaN point, the corner (-100, -100)."""
    params = ModelParams(alpha=2.0, kind="exp", beta=3.0)
    spec = LyapunovSpec(2.0, 0.45, 1.0, 0.6, ExpWeight(theta=1.0, delta=0.1))
    cfg = ScanConfig(x_half=100.0, v_half=100.0, samples_per_axis=64)
    with np.errstate(invalid="ignore", over="ignore"):
        report = scan_drift_inequality(params, spec, cfg)
    assert not report.passed
    assert report.chosen_R == 45.0
    assert np.isnan(report.min_margin_outside)
    assert report.worst_point == (-100.0, -100.0)
    assert report.summary().startswith("FAIL R=45 ")



def test_drift_excess_is_nan_where_it_overflows():
    """At beta = 3, delta = 0.1 on the 100 x 100 box the weight overflows at
    the box's far corners, and L* m overflows where m is still finite near
    them.  s is NaN at each such point, never -inf, which would count as
    s <= 0: the scan fails with a NaN margin at the corner (-100, -100)."""
    params = ModelParams(alpha=2.0, kind="exp", beta=3.0)
    spec = LyapunovSpec(2.0, 0.45, 1.0, 0.6, ExpWeight(theta=1.0, delta=0.1))
    cfg = ScanConfig(x_half=100.0, v_half=100.0, samples_per_axis=256)
    xs, vs, _ = verify._scan_points(cfg)
    with np.errstate(invalid="ignore", over="ignore"):
        s = drift_excess(xs[:, None], vs, params, spec)
        m = lyapunov_weight(xs[:, None], vs, params, spec)
        report = scan_drift_inequality(params, spec, cfg)
    overflow = np.isinf(m)
    assert overflow.any()
    assert np.all(np.isnan(s[overflow]))
    assert not np.isinf(s).any()
    assert np.isnan(s).sum() > overflow.sum()  # L* m overflowed at some finite m
    assert not report.passed
    assert np.isnan(report.min_margin_outside)
    assert report.worst_point == (-100.0, -100.0)
    assert report.summary().startswith("FAIL ")
