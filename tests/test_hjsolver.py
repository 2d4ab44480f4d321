import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from liequad.cotangent import (
    CotangentBundle,
    InvariantField,
    PhasePoint,
    TangentPhaseVector,
    build_casimir_field,
    build_mixed_field,
    left_invariant_hamiltonian_field,
)
from liequad.expquad import exp_semisimple
from liequad.liealg import CasimirForm, central_casimir, killing_casimir
from liequad import hjsolver
from liequad.liegroup import ChartDomainError, forbid_exp_oracle, make_group, matrix_exp_oracle
from liequad.hjsolver import (
    RATE_DRIFT_DT,
    RATE_DRIFT_TOL,
    CompleteSolutionChart,
    HypothesisError,
    fiber_isotropy_defect,
    hj_residual,
    integrate_by_quadratures,
)


def bundle_for(key):
    return CotangentBundle(make_group(key))


def casimir_field_for(bundle):
    key = bundle.group.name
    if key in ("so3", "su2", "sl2r"):
        return build_casimir_field(bundle, killing_casimir(bundle.algebra))
    if key == "heis3":
        return build_casimir_field(bundle, central_casimir(bundle.algebra))
    return build_casimir_field(bundle, CasimirForm(bundle.algebra, lambda a: a, name="sq"))


def abelian_chart():
    b = bundle_for("rn:3")
    X = build_casimir_field(b, CasimirForm(b.algebra, lambda a: a, name="sq"))
    a0 = np.array([0.9, -0.4, 0.2])
    return b, CompleteSolutionChart(b, X, PhasePoint(b.group.identity(), a0)), a0


# -- abelian closed forms ----------------------------------------------------
# For the translation group the raw momentum pair is (alpha, alpha), so the
# reduction has rank 3 with all singular values sqrt(2), the fibers are the
# group itself, and every quantity below has a closed form.


def test_abelian_reduction_structure():
    _b, chart, _a0 = abelian_chart()
    assert chart.k == 3
    assert chart.ell == 3
    assert np.isclose(chart.sigma_min, np.sqrt(2.0), atol=1e-12)


def test_abelian_momentum_coordinate_norm():
    b, chart, a0 = abelian_chart()
    da = np.array([0.05, -0.03, 0.02])
    lam, n = chart.coords(PhasePoint(b.group.identity(), a0 + da))
    assert np.linalg.norm(n) <= 1e-12
    assert np.isclose(np.linalg.norm(lam), np.sqrt(2.0) * np.linalg.norm(da), atol=1e-10)


def test_abelian_generating_function_closed_form():
    # the fiber leg of the path integral is <alpha, displacement>
    b, chart, a0 = abelian_chart()
    entry = chart.gchart.to_coords
    zl = np.zeros(3)
    n = np.array([0.3, 0.1, -0.2])
    q_n = entry(chart.point(zl, n).g)
    assert np.isclose(chart.generating_function(zl, n), a0 @ q_n, atol=1e-12)
    lam, _ = chart.coords(PhasePoint(b.group.identity(), a0 + np.array([0.05, -0.03, 0.02])))
    a_lam = chart.point(lam, zl).alpha
    assert np.allclose(entry(chart.point(lam, n).g), q_n, atol=1e-12)
    dW = chart.generating_function(lam, n) - chart.generating_function(lam, zl)
    assert np.isclose(dW, a_lam @ q_n, atol=1e-12)


def test_abelian_linearizing_map_closed_form():
    _b, chart, a0 = abelian_chart()
    entry = chart.gchart.to_coords
    zl = np.zeros(3)
    n = np.array([0.3, 0.1, -0.2])
    q_n = entry(chart.point(zl, n).g)
    phi = chart.linearizing_map(zl, n)
    assert np.isclose(np.linalg.norm(phi), np.linalg.norm(n) / np.sqrt(2.0), atol=1e-12)
    lam = np.array([0.04, -0.01, 0.03])
    assert np.allclose(chart.linearizing_map(lam, n), phi, atol=1e-12)
    beta = chart.flow_rate(chart._node(zl, [zl])[0])
    assert np.isclose(np.linalg.norm(beta), np.linalg.norm(a0) / np.sqrt(2.0), atol=1e-12)
    assert np.isclose(phi @ beta, (a0 @ q_n) / 2.0, atol=1e-12)


def test_abelian_flow_is_straight_line():
    b, chart, a0 = abelian_chart()
    grp = b.group
    ts = np.linspace(0.0, 2.0, 9)
    with forbid_exp_oracle():
        s = chart.linear_flow(ts)
    for t, p in zip(s.ts, s.points):
        want = matrix_exp_oracle(grp, a0, t)
        assert np.linalg.norm(p.g.matrix - want.matrix) <= 1e-12
        assert np.allclose(p.alpha, a0, atol=1e-12)
    assert s.diagnostics["audit_max"] <= 1e-9


# -- quadrature flows against independent references -------------------------


@pytest.mark.parametrize(
    "key,a0,horizon",
    [
        ("so3", [0.7, -0.2, 0.4], 1.2),
        ("su2", [0.5, 0.4, -0.3], 0.8),
        ("sl2r", [0.5, 0.3, -0.2], 1.5),
    ],
)
def test_killing_casimir_flow_matches_exponential(key, a0, horizon):
    b = bundle_for(key)
    grp = b.group
    X = build_casimir_field(b, killing_casimir(b.algebra))
    a0 = np.array(a0)
    p0 = PhasePoint(grp.identity(), a0)
    ts = np.linspace(0.0, horizon, 9)
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, p0, ts)
    xi = np.linalg.solve(b.algebra.killing_form(), a0)
    for t, p in zip(s.ts, s.points):
        want = matrix_exp_oracle(grp, xi, t)
        assert np.linalg.norm(p.g.matrix - want.matrix) <= 1e-8
        assert np.allclose(p.alpha, a0, atol=1e-10)
    assert s.diagnostics["audit_max"] <= 1e-9


def test_central_flow_heis3_matches_exponential():
    b = bundle_for("heis3")
    grp = b.group
    X = build_casimir_field(b, central_casimir(b.algebra))
    a0 = np.array([0.4, -0.3, 0.8])
    ts = np.linspace(0.0, 2.0, 9)
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, PhasePoint(grp.identity(), a0), ts)
    xi = np.array([0.0, 0.0, a0[2]])
    for t, p in zip(s.ts, s.points):
        want = matrix_exp_oracle(grp, xi, t)
        assert np.linalg.norm(p.g.matrix - want.matrix) <= 1e-10
        assert np.allclose(p.alpha, a0, atol=1e-12)


def test_rescaled_casimir_flow_matches_reparametrized_subgroup():
    # a fiberwise-constant rescale keeps the hypotheses intact but makes the
    # trajectory a reparametrized subgroup curve: exp(t * c * xi) with the
    # coefficient evaluated on the conserved momentum
    b = bundle_for("so3")
    grp = b.group
    phi = killing_casimir(b.algebra)
    X = build_mixed_field(b, [(phi.energy, lambda p: 1.0 + 0.2 * float(phi.energy(p.alpha)))])
    a0 = np.array([0.7, -0.2, 0.4])
    p0 = PhasePoint(grp.identity(), a0)
    ts = np.linspace(0.0, 1.0, 7)
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, p0, ts)
    xi = phi(a0)
    c = 1.0 + 0.2 * float(phi.energy(a0))
    for t, p in zip(s.ts, s.points):
        want = matrix_exp_oracle(grp, xi, c * t)
        assert np.linalg.norm(p.g.matrix - want.matrix) <= 1e-8
        assert np.allclose(p.alpha, a0, atol=1e-10)


def test_first_integrals_constant_along_quadrature_flow():
    b = bundle_for("so3")
    X = casimir_field_for(b)
    a0 = np.array([0.7, -0.2, 0.4])
    p0 = PhasePoint(b.group.identity(), a0)
    F0 = b.momentum_pair(p0)
    ts = np.linspace(0.0, 2.0, 9)
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, p0, ts)
    for p in s.points:
        assert np.linalg.norm(b.momentum_pair(p) - F0) <= 1e-8


def test_long_run_recenters_and_stays_accurate():
    b = bundle_for("so3")
    grp = b.group
    X = casimir_field_for(b)
    a0 = np.array([0.7, -0.2, 0.4])
    ts = np.linspace(0.0, 6.0, 25)
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, PhasePoint(grp.identity(), a0), ts)
    assert s.diagnostics["recenters"] >= 1
    assert s.diagnostics["audit_max"] <= 1e-9
    xi = np.linalg.solve(b.algebra.killing_form(), a0)
    for t, p in zip(s.ts, s.points):
        want = matrix_exp_oracle(grp, xi, t)
        assert np.linalg.norm(p.g.matrix - want.matrix) <= 1e-8


def test_hyperbolic_killing_flow_on_several_panels():
    # a real spectrum gives one chart with an infinite window, so one fiber
    # solve covers [0, 12] on several Chebyshev time panels
    b = bundle_for("sl2r")
    grp = b.group
    X = casimir_field_for(b)
    a0 = 4.0 * np.array([0.5, 0.3, -0.2])
    ts = np.linspace(0.0, 12.0, 17)
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, PhasePoint(grp.identity(), a0), ts)
    assert s.diagnostics["recenters"] == 0
    xi = np.linalg.solve(b.algebra.killing_form(), a0)
    for t, p in zip(ts, s.points):
        want = expm(t * grp.algebra_matrix(xi))
        assert np.linalg.norm(p.g.matrix - want) <= 1e-8 * np.linalg.norm(want)


def test_backward_times():
    b = bundle_for("so3")
    grp = b.group
    X = casimir_field_for(b)
    a0 = np.array([0.7, -0.2, 0.4])
    ts = np.linspace(0.0, -2.0, 9)
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, PhasePoint(grp.identity(), a0), ts)
    xi = np.linalg.solve(b.algebra.killing_form(), a0)
    for t, p in zip(s.ts, s.points):
        want = matrix_exp_oracle(grp, xi, t)
        assert np.linalg.norm(p.g.matrix - want.matrix) <= 1e-8


@pytest.mark.parametrize(
    "ts,recenters", [([0.0, 7.5], 2), ([0.0, -7.5], 2), ([0.0, 0.5, 9.0], 2)]
)
def test_coarse_grid_past_one_chart(ts, recenters):
    # the Killing-field window from a0 is 3.026; a chart whose next time lies
    # more than a window past its last time hands over at its window's edge,
    # so [0, 7.5] and [0, 0.5, 9.0] take the charts at 0, 3.026 and 6.052
    b = bundle_for("so3")
    grp = b.group
    X = casimir_field_for(b)
    a0 = np.array([0.7, -0.2, 0.4])
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, PhasePoint(grp.identity(), a0), np.array(ts))
    assert len(s.points) == len(ts)
    if recenters is not None:
        assert s.diagnostics["recenters"] == recenters
    xi = np.linalg.solve(b.algebra.killing_form(), a0)
    for t, p in zip(ts, s.points):
        assert np.linalg.norm(p.g.matrix - matrix_exp_oracle(grp, xi, t).matrix) <= 1e-8


def test_one_chart_serves_a_grid_in_any_order():
    # the stacked solve takes repeated, unsorted and mixed-sign times, and each
    # time's point does not depend on the order of the grid
    b = bundle_for("so3")
    grp = b.group
    X = casimir_field_for(b)
    a0 = np.array([0.7, -0.2, 0.4])
    p0 = PhasePoint(grp.identity(), a0)
    ts = np.array([0.5, -0.25, 0.0, 0.5, 0.25, -0.5])
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, p0, ts)
        ref = integrate_by_quadratures(b, X, p0, np.unique(ts))
    assert s.diagnostics["recenters"] == 0 and len(s.points) == len(ts)
    xi = np.linalg.solve(b.algebra.killing_form(), a0)
    for t, p in zip(ts, s.points):
        assert np.linalg.norm(p.g.matrix - matrix_exp_oracle(grp, xi, t).matrix) <= 1e-8
        q = ref.points[int(np.searchsorted(ref.ts, t))]
        assert np.array_equal(p.g.matrix, q.g.matrix) and np.array_equal(p.alpha, q.alpha)


def test_grid_that_holds_the_rate_drift_probe_time():
    # the grid straddles 0 and holds +-RATE_DRIFT_DT, the times the stack's
    # own probe row can take (+ here, the side of 0.5): the grid gets exactly
    # its samples, the probe none of its own, and each point does not depend
    # on the order of the grid
    b = bundle_for("so3")
    grp = b.group
    X = casimir_field_for(b)
    a0 = np.array([0.7, -0.2, 0.4])
    p0 = PhasePoint(grp.identity(), a0)
    ts = np.array([0.25, -RATE_DRIFT_DT, 0.0, -0.4, 0.5, RATE_DRIFT_DT, -0.1])
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, p0, ts)
        ref = integrate_by_quadratures(b, X, p0, ts[::-1])
    assert len(s.points) == len(s.diagnostics["audits"]) == len(ts)
    assert 0.0 <= s.diagnostics["rate_drift_max"] <= RATE_DRIFT_TOL
    xi = np.linalg.solve(b.algebra.killing_form(), a0)
    for t, p, q in zip(ts, s.points, ref.points[::-1]):
        assert np.linalg.norm(p.g.matrix - expm(t * grp.algebra_matrix(xi))) <= 1e-8
        assert np.array_equal(p.g.matrix, q.g.matrix) and np.array_equal(p.alpha, q.alpha)


def test_failed_rate_drift_probe_reaches_nothing(monkeypatch):
    # with the probe row pushed past the Cayley boundary on the walked side,
    # the walk still reaches the output times and the probe alone fails: the
    # failure must not name the last output time as reached
    monkeypatch.setattr(hjsolver, "RATE_DRIFT_DT", 6.0)
    b = bundle_for("so3")
    X = casimir_field_for(b)
    p0 = PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4]))
    with pytest.raises(ChartDomainError) as err:
        integrate_by_quadratures(b, X, p0, np.array([0.0, 0.25, 0.5]))
    assert err.value.t_achieved == 0.0


def test_one_segment_of_a_whole_window(monkeypatch):
    # [0, 3.0] is one chart whose single time spans almost its window of
    # 3.026: one Chebyshev time panel covers it, inside the one fiber solve of
    # the flow
    calls = []
    solve = CompleteSolutionChart._gauss_newton

    def counted(chart, beta, ts):
        calls.append(len(ts))
        return solve(chart, beta, ts)

    monkeypatch.setattr(CompleteSolutionChart, "_gauss_newton", counted)
    b = bundle_for("so3")
    grp = b.group
    X = casimir_field_for(b)
    a0 = np.array([0.7, -0.2, 0.4])
    ts = np.array([0.0, 3.0])
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, PhasePoint(grp.identity(), a0), ts)
    assert s.diagnostics["recenters"] == 0 and s.diagnostics["audit_max"] <= 1e-9
    assert calls == [4]  # one stack: the rate-drift probe, t = 0 after it, then the flow's two times
    xi = np.linalg.solve(b.algebra.killing_form(), a0)
    for t, p in zip(ts, s.points):
        assert np.linalg.norm(p.g.matrix - matrix_exp_oracle(grp, xi, t).matrix) <= 1e-8


def test_fiber_solve_past_the_chart_is_a_typed_failure(monkeypatch):
    # with ten windows in one chart the flow runs into the Cayley boundary at
    # t = 3.782 and must say how far it got
    window = hjsolver.chart_window
    monkeypatch.setattr(hjsolver, "chart_window", lambda *args: 10.0 * window(*args))
    b = bundle_for("so3")
    X = casimir_field_for(b)
    p0 = PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4]))
    with pytest.raises(ChartDomainError) as err:
        integrate_by_quadratures(b, X, p0, np.linspace(0.0, 6.0, 25))
    assert 3.0 < err.value.t_achieved <= 3.782


def test_fiber_solve_whose_first_time_fails_is_a_typed_failure(monkeypatch):
    # the only time lies past the Cayley boundary, so no panel reaches it:
    # the solve must stop after its last panel halving and report that it
    # reached nothing
    window = hjsolver.chart_window
    monkeypatch.setattr(hjsolver, "chart_window", lambda *args: 10.0 * window(*args))
    b = bundle_for("so3")
    X = casimir_field_for(b)
    p0 = PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4]))
    with pytest.raises(ChartDomainError) as err:
        integrate_by_quadratures(b, X, p0, np.array([0.0, 6.0]))
    assert err.value.t_achieved == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_output_time_is_refused_before_any_solve(monkeypatch, bad):
    # a NaN or infinite time has no chart plan and no doubling count: both
    # routes name it before any node is solved
    def no_solve(*_args, **_kwargs):
        raise AssertionError("a node was solved")

    monkeypatch.setattr(CompleteSolutionChart, "_node", no_solve)
    b = bundle_for("so3")
    p0 = PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4]))
    ts = np.array([0.0, 0.5, bad])
    message = re.escape(f"output time ts[2] = {bad} is not finite")
    with pytest.raises(ValueError, match=message):
        integrate_by_quadratures(b, casimir_field_for(b), p0, ts)
    with pytest.raises(ValueError, match=message):
        exp_semisimple(b.group, np.array([0.3, -0.5, 0.4]), ts)


def test_time_zero_sample_and_state_rows():
    b = bundle_for("so3")
    grp = b.group
    X = casimir_field_for(b)
    a0 = np.array([0.7, -0.2, 0.4])
    ts = np.array([0.0, 0.25, 0.5])
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, PhasePoint(grp.identity(), a0), ts)
    assert np.linalg.norm(s.points[0].g.matrix - grp.identity().matrix) <= 1e-10
    rows = s.state_rows()
    assert rows.shape == (3, 1 + grp.flat_dim + grp.dim)
    assert np.allclose(rows[:, 0], ts)


# -- chart internals ----------------------------------------------------------


def test_chart_inversion_roundtrip():
    rng = np.random.default_rng(21)
    b = bundle_for("so3")
    X = casimir_field_for(b)
    chart = CompleteSolutionChart(b, X, PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4])))
    for _ in range(10):
        lam = 0.05 * rng.standard_normal(chart.ell)
        n = 0.2 * rng.standard_normal(chart.k)
        lam2, n2 = chart.coords(chart.point(lam, n))
        assert np.allclose(lam2, lam, atol=1e-9)
        assert np.allclose(n2, n, atol=1e-9)


def test_flow_rate_constant_on_fiber():
    b = bundle_for("so3")
    X = casimir_field_for(b)
    chart = CompleteSolutionChart(b, X, PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4])))
    zl = np.zeros(chart.ell)
    beta0 = chart.flow_rate(chart._node(zl, np.zeros((1, chart.k)))[0])
    for n in ([0.2], [-0.3], [0.45]):
        beta = chart.flow_rate(chart._node(zl, [n])[0])
        assert np.allclose(beta, beta0, atol=1e-10)


@pytest.mark.parametrize("key", ["so3", "su2", "sl2r"])
def test_linearizing_map_evolves_linearly(key):
    # independent recomputation of the map at flowed points, not the running
    # bookkeeping: checks path independence of the fiber-leg integral too, and
    # the fiber quadrature against the flow's time panels
    b = bundle_for(key)
    X = casimir_field_for(b)
    p0 = PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4]))
    chart = CompleteSolutionChart(b, X, p0)
    ts = np.linspace(0.0, 1.0, 5)
    with forbid_exp_oracle():
        s = chart.linear_flow(ts)
    beta = s.diagnostics["flow_rate"]
    lam = s.diagnostics["lam"]
    for t, p in zip(s.ts, s.points):
        _, n_t = chart.coords(p)
        phi = chart.linearizing_map(lam, n_t)
        assert np.linalg.norm(phi - t * beta) <= 1e-9


def test_fd_route_differs_by_boundary_pairing_only():
    # d/dlam of the generating function equals the evolving map plus the
    # tautological pairing of the momentum-direction tangents plus a function
    # of lam alone; the difference must not depend on the fiber coordinate
    b = bundle_for("so3")
    X = casimir_field_for(b)
    chart = CompleteSolutionChart(b, X, PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4])))
    lam = np.array([0.02, -0.01, 0.015, 0.005, -0.02])
    offsets = []
    for n in ([0.12], [-0.2], [0.3]):
        nn = np.array(n)
        fd = chart.linearizing_map(lam, nn, method="fd")
        fast = chart.linearizing_map(lam, nn)
        offsets.append(fd - fast - chart.theta_pairing(lam, nn))
    offsets = np.array(offsets)
    assert np.max(np.abs(offsets - offsets[0])) <= 1e-8
    # the pairing term is genuinely present: the offset itself is not the map
    assert np.linalg.norm(offsets[0]) > 1e-4


def test_unknown_linearizing_method_rejected():
    b = bundle_for("so3")
    X = casimir_field_for(b)
    chart = CompleteSolutionChart(b, X, PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4])))
    with pytest.raises(ValueError, match="method"):
        chart.linearizing_map(np.zeros(chart.ell), np.zeros(chart.k), method="bogus")


def test_isotropy_defect_small_at_regular_points():
    rng = np.random.default_rng(22)
    for key in ("so3", "su2", "sl2r", "heis3", "rn:3"):
        b = bundle_for(key)
        count = 0
        while count < 5:
            alpha = rng.standard_normal(b.group.dim)
            if not b.algebra.is_coadjoint_regular(alpha):
                continue
            count += 1
            g = matrix_exp_oracle(b.group, 0.4 * rng.standard_normal(b.group.dim))
            assert fiber_isotropy_defect(b, PhasePoint(g, alpha)) <= 1e-8


def test_hypothesis_checks_pass_on_every_catalogue_group():
    a0 = np.array([0.7, -0.2, 0.4])
    for key in ("so3", "su2", "sl2r", "heis3", "rn:3"):
        b = bundle_for(key)
        X = casimir_field_for(b)
        chart = CompleteSolutionChart(b, X, PhasePoint(b.group.identity(), a0))
        assert chart.ell + chart.k == 2 * b.group.dim


# -- solution-property residual ----------------------------------------------


def test_solution_sections_have_small_residual():
    b, chart, _a0 = abelian_chart()
    lam = np.array([0.03, -0.02, 0.01])
    for n in ([0.2, -0.1, 0.15], [0.0, 0.25, -0.1]):
        r = hj_residual(b, lambda l, m: chart.point(l, m), lam, np.array(n))
        assert r <= 1e-6


def test_sheared_section_fails_residual():
    # momentum drift across the fibers breaks the potential property
    b, chart, _a0 = abelian_chart()
    lam = np.array([0.03, -0.02, 0.01])
    shear = np.array([0.5, -0.3, 0.8])

    def bad_section(l, m):
        p = chart.point(l, m)
        return PhasePoint(p.g, p.alpha + 0.3 * float(m[0]) * shear)

    r = hj_residual(b, bad_section, lam, np.array([0.2, -0.1, 0.15]))
    assert r > 1e-2


def test_regular_chart_sections_have_small_residual():
    b = bundle_for("so3")
    X = casimir_field_for(b)
    chart = CompleteSolutionChart(b, X, PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4])))
    lam = np.array([0.02, -0.01, 0.015, 0.005, -0.02])
    r = hj_residual(b, lambda l, m: chart.point(l, m), lam, np.array([0.2]))
    assert r <= 1e-6


# -- hypothesis failures ------------------------------------------------------


def test_momentum_breaking_dynamics_rejected():
    # the free rigid body conserves the spatial momentum but not the body
    # momentum, so the momentum pair is not conserved and the chart refuses
    b = bundle_for("so3")
    Q = np.diag([1.0, 2.0, 3.0])
    X = left_invariant_hamiltonian_field(b, lambda a: Q @ a, name="rigid")
    with pytest.raises(HypothesisError, match="not tangent"):
        CompleteSolutionChart(b, X, PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4])))


def test_momentum_pair_rank_checked_against_the_isotropy_count():
    # the isotropy count is scale-free and reads 5 at any nonzero so3
    # momentum, but the pair's ad* block scales with alpha: at 1e-9 the
    # Jacobian ranks it as noise next to its identity blocks, rank 3
    b = bundle_for("so3")
    X = casimir_field_for(b)
    alpha = np.array([0.7, -0.2, 0.4])
    chart = CompleteSolutionChart(b, X, b.base_point(1e-6 * alpha))
    assert (chart.k, chart.ell) == (1, 5)
    with pytest.raises(HypothesisError, match="momentum-pair rank 3 disagrees with the isotropy count 5"):
        CompleteSolutionChart(b, X, b.base_point(1e-9 * alpha))


def test_fiber_varying_speed_rejected():
    # tangent to the fibers, but the speed wobbles along them, so the
    # linearized evolution cannot be affine; on the backward grid the probe
    # row sits at -RATE_DRIFT_DT, and the drift shows there too
    b = bundle_for("so3")
    Binv = np.linalg.inv(b.algebra.killing_form())

    def wobble(p):
        scale = 1.0 + 0.4 * np.sin(3.0 * p.g.matrix[0, 1])
        return TangentPhaseVector(scale * (Binv @ p.alpha), np.zeros(3))

    X = InvariantField(b, wobble, name="wobble")
    p0 = PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4]))
    for end in (1.0, -1.0):
        with pytest.raises(HypothesisError, match="drift"):
            with forbid_exp_oracle():
                integrate_by_quadratures(b, X, p0, np.linspace(0.0, end, 5))


@pytest.mark.parametrize("end", [1.0, -1.0])
def test_rate_drift_probe_walks_no_panel_across_the_centre(monkeypatch, end):
    # the probe is one more interpolated time on the side the grid walks, so
    # a grid of one sign asks _panel for no span on the other side of 0
    spans = []
    panel = CompleteSolutionChart._panel

    def spied(chart, beta, a, b, start):
        spans.append((a, b))
        return panel(chart, beta, a, b, start)

    monkeypatch.setattr(CompleteSolutionChart, "_panel", spied)
    b = bundle_for("so3")
    X = casimir_field_for(b)
    a0 = np.array([0.7, -0.2, 0.4])
    ts = np.linspace(0.0, end, 9)
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, PhasePoint(b.group.identity(), a0), ts)
    assert spans and all(lo * end >= 0.0 and hi * end >= 0.0 for lo, hi in spans)
    assert 0.0 <= s.diagnostics["rate_drift_max"] <= RATE_DRIFT_TOL
    xi = np.linalg.solve(b.algebra.killing_form(), a0)
    for t, p in zip(ts, s.points):
        assert np.linalg.norm(p.g.matrix - expm(t * b.group.algebra_matrix(xi))) <= 1e-8


def test_grid_shorter_than_the_rate_drift_probe():
    # the walk runs on past 0.005 to the probe at RATE_DRIFT_DT
    b = bundle_for("so3")
    X = casimir_field_for(b)
    a0 = np.array([0.7, -0.2, 0.4])
    ts = np.array([0.0, 0.005])
    assert ts[-1] < RATE_DRIFT_DT
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, PhasePoint(b.group.identity(), a0), ts)
    assert len(s.points) == 2 and 0.0 <= s.diagnostics["rate_drift_max"] <= RATE_DRIFT_TOL
    xi = np.linalg.solve(b.algebra.killing_form(), a0)
    for t, p in zip(ts, s.points):
        assert np.linalg.norm(p.g.matrix - expm(t * b.group.algebra_matrix(xi))) <= 1e-8
