import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from liequad import hjsolver
from liequad.cotangent import CotangentBundle, build_casimir_field
from liequad.expquad import (
    ExponentialCurve,
    NoAdmissibleCovectorError,
    exp_by_quadratures,
    exp_general,
    exp_semisimple,
    heisenberg_scan,
    regular_scan,
)
from liequad.hjsolver import RATE_DRIFT_TOL, integrate_by_quadratures
from liequad.liealg import killing_casimir, make_algebra
from liequad.liegroup import (
    ChartDomainError,
    forbid_exp_oracle,
    make_group,
    matrix_exp_oracle,
)
from liequad.reconstruct import make_product_scenario

TS = np.linspace(0.0, 1.0, 17)


def hat_so3(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0.0]])


def rodrigues(v):
    th = np.linalg.norm(v)
    if th < 1e-14:
        return np.eye(3)
    K = hat_so3(v / th)
    return np.eye(3) + np.sin(th) * K + (1 - np.cos(th)) * (K @ K)


def sup_oracle_error(group, xi, curve):
    worst = 0.0
    for t, e in zip(curve.ts, curve.elements):
        ref = matrix_exp_oracle(group, xi, t=t).matrix
        worst = max(worst, np.linalg.norm(e.matrix - ref))
    return worst


def test_time_zero_is_identity():
    g = make_group("so3")
    cur = exp_semisimple(g, np.array([0.2, -0.5, 0.8]), np.array([0.0]))
    assert np.allclose(cur.elements[0].matrix, np.eye(3), atol=1e-12)


def test_so3_axis_curve_matches_two_oracles():
    g = make_group("so3")
    phi = killing_casimir(g.algebra)
    xi = np.array([0.0, 0.0, 1.0])
    alpha = g.algebra.killing_form() @ xi  # phi maps it back to xi
    with forbid_exp_oracle():
        cur = exp_by_quadratures(g, phi, alpha, TS)
    assert sup_oracle_error(g, xi, cur) <= 1e-6
    for t, e in zip(cur.ts, cur.elements):
        assert np.linalg.norm(e.matrix - rodrigues(t * xi)) <= 1e-6


def test_su2_regular_direction_stays_unitary():
    g = make_group("su2")
    rng = np.random.default_rng(31)
    xi = rng.standard_normal(3)
    xi /= np.linalg.norm(xi)
    with forbid_exp_oracle():
        cur = exp_semisimple(g, xi, TS)
    assert sup_oracle_error(g, xi, cur) <= 1e-6
    for e in cur.elements:
        m = e.matrix
        assert np.linalg.norm(m @ m.conj().T - np.eye(2)) <= 1e-8


def test_sl2r_hyperbolic_direction():
    g = make_group("sl2r")
    xi = np.array([0.9, 0.3, 0.1])  # dominated by the diagonal generator
    with forbid_exp_oracle():
        cur = exp_semisimple(g, xi, TS)
    assert sup_oracle_error(g, xi, cur) <= 1e-6
    for e in cur.elements:
        assert abs(np.linalg.det(e.matrix) - 1.0) <= 1e-8


@pytest.mark.parametrize("xi", [(0.2, -0.3, 0.1, 0.3), (0.5, 0.2, -0.4, 0.7)])
def test_curved_two_dimensional_fiber(xi):
    # on rotations x translations the fiber is a plane in Cayley coordinates
    # and the flow rows curve inside it, so the fiber solve cannot follow one
    # straight line in n
    grp = make_product_scenario().group
    xi = np.array(xi)
    with forbid_exp_oracle():
        curve = exp_general(grp, xi, TS)
    for t, e in zip(TS, curve.elements):
        assert np.linalg.norm(e.matrix - expm(t * grp.algebra_matrix(xi))) <= 1e-8


def test_sl2r_hyperbolic_coarse_grid_restarts_from_the_converged_row():
    # a real spectrum never leaves the Cayley chart, so one chart serves
    # [0, 6.6]; the fiber solve halves its first panel twice, and the last
    # panel once more, each panel starting from the converged row before it
    grp = make_group("sl2r")
    xi = np.array([-0.3237, 0.3145, 0.1172])
    with forbid_exp_oracle():
        curve = exp_semisimple(grp, xi, np.linspace(0.0, 6.6, 4))
    assert curve.diagnostics["doublings"] == 0
    assert sup_oracle_error(grp, xi, curve) <= 1e-9


@pytest.mark.parametrize("key", ["so3", "su2", "sl2r"])
def test_seeded_directions_match_oracle(key):
    g = make_group(key)
    rng = np.random.default_rng(97)
    checked = 0
    while checked < 3:
        xi = rng.standard_normal(3)
        xi *= rng.uniform(0.3, 1.0) / np.linalg.norm(xi)
        if not g.algebra.is_adjoint_regular(xi):
            continue
        with forbid_exp_oracle():
            cur = exp_semisimple(g, xi, TS)
        assert sup_oracle_error(g, xi, cur) <= 1e-6
        checked += 1


@pytest.mark.parametrize("key", ["so3", "sl2r"])
def test_one_parameter_subgroup_property(key):
    # uniform grid past the base chart, so the squaring path is exercised
    g = make_group(key)
    xi = np.array([0.5, -0.3, 0.2]) if key == "so3" else np.array([0.6, 0.2, 0.1])
    ts = np.linspace(0.0, 2.0, 9)
    with forbid_exp_oracle():
        cur = exp_semisimple(g, xi, ts)
    n = len(ts)
    for i in range(n):
        for j in range(n - i):
            prod = cur.elements[i].matrix @ cur.elements[j].matrix
            assert np.linalg.norm(prod - cur.elements[i + j].matrix) <= 1e-6


@pytest.mark.parametrize("key", ["so3", "su2", "sl2r"])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), norm=st.floats(0.3, 1.0))
def test_random_regular_directions_are_one_parameter_subgroups(key, seed, norm):
    # the uniform grid on [0, 2] holds every sum t_i + t_j <= 2; on so3 the
    # longer directions leave the base chart there and are squared
    g = make_group(key)
    xi = np.random.default_rng(seed).standard_normal(3)
    xi *= norm / np.linalg.norm(xi)
    assume(g.algebra.is_adjoint_regular(xi))
    ts = np.linspace(0.0, 2.0, 9)
    with forbid_exp_oracle():
        cur = exp_semisimple(g, xi, ts)
    for i in range(len(ts)):
        for j in range(len(ts) - i):
            prod = cur.elements[i].matrix @ cur.elements[j].matrix
            assert np.linalg.norm(prod - cur.elements[i + j].matrix) <= 1e-6
    assert sup_oracle_error(g, xi, cur) <= 1e-6


def test_curve_reports_the_measured_rate_drift():
    # the curve's rate drift is the one its quadrature integration measured
    g = make_group("so3")
    phi = killing_casimir(g.algebra)
    alpha = g.algebra.killing_form() @ np.array([0.3, -0.5, 0.4])
    with forbid_exp_oracle():
        cur = exp_by_quadratures(g, phi, alpha, TS)
        bundle = CotangentBundle(g)
        traj = integrate_by_quadratures(
            bundle, build_casimir_field(bundle, phi), bundle.point(g.identity(), alpha), TS)
    assert cur.diagnostics["doublings"] == 0
    assert cur.diagnostics["rate_drift_max"] == traj.diagnostics["rate_drift_max"] <= RATE_DRIFT_TOL


def test_long_grid_uses_squaring_and_tracks_drift():
    g = make_group("so3")
    xi = np.array([0.0, 0.0, 1.0])
    cur = exp_semisimple(g, xi, np.linspace(0.0, 6.0, 13))
    assert cur.diagnostics["doublings"] >= 1
    assert cur.diagnostics["squaring_factor"] == 2 ** cur.diagnostics["doublings"]
    assert cur.diagnostics["squaring_membership_max"] <= 1e-10
    assert sup_oracle_error(g, xi, cur) <= 1e-6


def test_zero_direction_is_rejected():
    g = make_group("so3")
    with pytest.raises(ValueError, match="not adjoint-regular"):
        exp_semisimple(g, np.zeros(3), TS)


def test_degenerate_killing_form_is_rejected():
    g = make_group("heis3")
    with pytest.raises(ValueError, match="degenerate"):
        exp_semisimple(g, np.array([0.0, 0.0, 1.0]), TS)


def test_non_regular_covector_is_rejected():
    g = make_group("heis3")
    phi = killing_casimir(make_algebra("so3"))  # any form; the covector fails first
    with pytest.raises(ValueError, match="regular"):
        exp_by_quadratures(g, phi, np.array([0.5, -0.2, 0.0]), TS)


def test_heis3_central_direction_matches_unipotent_form():
    g = make_group("heis3")
    cur = exp_general(g, np.array([0.0, 0.0, 1.0]), TS)
    for t, e in zip(cur.ts, cur.elements):
        closed = np.eye(3)
        closed[0, 2] = t
        assert np.max(np.abs(e.matrix - closed)) <= 1e-8


def test_heis3_horizontal_direction_proven_empty():
    g = make_group("heis3")
    with pytest.raises(NoAdmissibleCovectorError) as err:
        exp_general(g, np.array([1.0, 0.0, 0.0]), TS)
    assert err.value.proven_empty
    assert "proven empty" in str(err.value)


def test_so3_general_route_agrees_with_semisimple():
    g = make_group("so3")
    xi = np.array([0.4, 0.2, -0.9])
    xi /= np.linalg.norm(xi)
    c1 = exp_semisimple(g, xi, TS)
    c2 = exp_general(g, xi, TS)
    worst = max(
        np.linalg.norm(a.matrix - b.matrix)
        for a, b in zip(c1.elements, c2.elements)
    )
    assert worst <= 1e-8


def test_continuation_failure_reports_reached_time():
    # a grid too long for the squaring budget must name how far it got
    g = make_group("so3")
    xi = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ChartDomainError, match="past t="):
        exp_semisimple(g, xi, np.array([0.0, 400.0]))


def test_failure_on_a_halved_grid_reports_the_given_grid_time(monkeypatch):
    # a window of three times the Cayley reach takes exp(t e3) over [0, 12] to
    # 2 doublings, and the halved grid fails at t = 1.875 having reached 1.5:
    # on the given grid those are 7.5 and 6.0
    monkeypatch.setattr(hjsolver, "REACH_MARGIN", 3.0)
    with pytest.raises(ChartDomainError, match="halved 2 times") as err:
        exp_semisimple(make_group("so3"), np.array([0.0, 0.0, 1.0]), np.linspace(0.0, 12.0, 9))
    assert err.value.t_achieved == 6.0


def test_regular_scan_heis3():
    rep = regular_scan(make_algebra("heis3"), n_samples=2000, seed=11)
    assert rep["generic_isotropy_dim"] == 1
    assert rep["fraction_regular"] == 1.0
    assert rep["strata"] == {"1": 2000}


def test_regular_scan_abelian_all_regular():
    rep = regular_scan(make_algebra("rn:3"), n_samples=400, seed=11)
    assert rep["generic_isotropy_dim"] == 3
    assert rep["fraction_regular"] == 1.0


def test_regular_scan_so3():
    rep = regular_scan(make_algebra("so3"), n_samples=400, seed=11)
    assert rep["generic_isotropy_dim"] == 1
    assert rep["strata"] == {"1": 400}


def test_regular_scan_needs_a_sample():
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            regular_scan(make_algebra("so3"), n_samples=n)


def test_heis3_plane_isotropy_is_exact_under_roundoff():
    # covectors on the singular plane, including roundoff-level deviations,
    # must land in the dimension-3 stratum
    a = make_algebra("heis3")
    assert a.isotropy_dimension(np.array([0.3, -0.8, 0.0])) == 3
    assert a.isotropy_dimension(np.array([0.3, -0.8, 1e-17])) == 3
    assert a.isotropy_dimension(np.array([0.3, -0.8, 1e-6])) == 1


def test_heisenberg_scan_flags_the_matching_reading():
    rep = heisenberg_scan(n_xi_samples=32, seed=7)
    assert rep["matching_reading"] == "a1 = a2 = 0"
    assert rep["boundary_found"] == f"admissible iff {rep['matching_reading']}"
    n = rep["n_samples"]
    assert rep["readings"]["a1 = a2 = 0"]["agreements"] == n
    assert rep["readings"]["a1 = a2"]["agreements"] < n
    by_xi = {tuple(r["xi"]): r["admissible"] for r in rep["samples"]}
    assert by_xi[(0.0, 0.0, 1.0)]
    assert not by_xi[(1.0, 0.0, 0.0)]
    assert not by_xi[(1.0, 1.0, 0.0)]


def test_curve_matrices_accessor():
    g = make_group("so3")
    cur = exp_semisimple(g, np.array([0.0, 0.0, 0.5]), np.array([0.0, 1.0]))
    mats = cur.matrices()
    assert len(mats) == 2
    assert isinstance(cur, ExponentialCurve)
    assert np.allclose(mats[0], np.eye(3), atol=1e-12)


@pytest.mark.parametrize("xi", [(0.0, 0.0, 1.0), (0.6, -0.5, 0.6)])
def test_long_exponential_predicts_its_doublings(xi):
    # the doubling count comes from the Cayley chart's reach along exp(t xi),
    # so no attempt on a grid that leaves the chart is made and thrown away
    g = make_group("so3")
    xi = np.asarray(xi) / np.linalg.norm(xi)
    with forbid_exp_oracle():
        cur = exp_semisimple(g, xi, np.linspace(0.0, 6.0, 13))
    assert cur.diagnostics["doublings"] == 3
    assert sup_oracle_error(g, xi, cur) <= 1e-6
