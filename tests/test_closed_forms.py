"""The scenarios' closed forms against finite differences, and the linear split at the section.

Each scenario gives its action generators W and its section Jacobian Ds in
closed form.  These tests hold them to the finite-difference quantities they
replace, on seeded points: W against a Richardson difference of the action
flows, Ds against a central difference of the section, the split's eta and
Y against the group-factor rate and the push-forward of the field (also as
the two hypothesis checks read them), and the solved factor map's Jacobian
against a central difference of its residual.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from liequad import reconstruct
from liequad.cotangent import CotangentBundle, CotangentChart, PhasePoint, left_invariant_hamiltonian_field
from liequad.liegroup import CayleyChart, make_group, matrix_exp_oracle
from liequad.numutil import central_jacobian
from liequad.reconstruct import (
    FIELD_CHECK_BALL,
    FLOW_RESIDUAL_TOL,
    HorizontalityError,
    HorizontalSubmersion,
    VerticalityError,
    _algebra_fit,
    _along_field,
    _chart_ball,
    build_theta,
    check_theta_horizontal,
    check_vertical,
    fundamental_matrix,
    isotropy_basis_at,
    make_product_scenario,
    make_so3_scenario,
    make_tstar_scenario,
    section_split,
    split_eta,
)

ROOT = Path(__file__).resolve().parent.parent
INERTIA = np.array([1.0, 2.0, 3.0])


def fd_generators(sys_, m):
    """Reference W: chart velocities of the action flows by a Richardson difference.

    The wide step keeps roundoff small and the Richardson level removes the
    second-order truncation term, so the columns come out to about twelve
    digits.
    """
    u0 = sys_.chart_coords([m], [m])[0]

    def along(xi):
        return sys_.chart_coords([sys_.act(matrix_exp_oracle(sys_.group, xi), m)], [m])[0] - u0

    return central_jacobian(along, np.zeros(sys_.group.dim), 1e-4, richardson=True)


def fd_eta(sys_, theta, m):
    """Reference rate: the right-translated derivative of the factor map along the field at m.

    The central difference steps 1e-5 along the field, wider than
    ``FD_STEP``, so the factor solves' noise stays far below the compared
    tolerances.
    """
    u, du = sys_.chart_coords([m], [m])[0], sys_.velocities([m])[0]
    g0 = theta(m)
    warm = theta.coords_of(g0)
    h = 1e-5 / max(1.0, float(np.linalg.norm(du)))
    fwd, bwd = (theta(p, warm=warm).matrix for p in sys_.chart_points([u + h * du, u - h * du], [m, m]))
    return _algebra_fit(sys_.group, (fwd - bwd) / (2.0 * h) @ np.linalg.inv(g0.matrix))


def rigid_body(group_name="so3"):
    bundle = CotangentBundle(make_group(group_name))
    field = left_invariant_hamiltonian_field(bundle, lambda mu: INERTIA * mu, name="anisotropic")
    return make_tstar_scenario(bundle.group, field)


def pair_rotation(m):
    q, p = m[:3], m[3:]
    mu = np.cross(q, p)
    return np.concatenate([np.cross(mu, q), np.cross(mu, p)])


SCENARIOS = {
    "tstar-so3": lambda: make_tstar_scenario("so3"),
    # su2 runs through the complex flattening of its matrices
    "tstar-su2": lambda: make_tstar_scenario("su2"),
    "tstar-sl2r": lambda: make_tstar_scenario("sl2r"),
    "rigid-body": rigid_body,
    "pairs-position": lambda: make_so3_scenario(section="position"),
    "pairs-momentum": lambda: make_so3_scenario(section="momentum"),
    "pairs-rotation": lambda: make_so3_scenario(field=pair_rotation, section="momentum"),
    "product": make_product_scenario,
}


def seeded_points(sys_, seed, count=4):
    rng = np.random.default_rng(seed)
    return [sys_.random_point(rng) for _ in range(count)]


def as_row(x):
    """A point or form value as one real vector; a phase point is its group matrix and its momentum."""
    if isinstance(x, PhasePoint):
        return np.concatenate([x.g.matrix.real.ravel(), x.g.matrix.imag.ravel(), x.alpha])
    return np.ravel(x)


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_stacked_forms_match_one_row_calls(key):
    # row i of a stacked form is the form's one-row call on row i: no row
    # reads another, and the one-point forms are those one-row calls
    sys_ = SCENARIOS[key]()
    rng = np.random.default_rng(39)
    points = seeded_points(sys_, 40, count=5)
    centres = points[1:] + points[:1]
    gs = [matrix_exp_oracle(sys_.group, 0.4 * rng.standard_normal(sys_.group.dim)) for _ in points]
    lams = sys_.projections(points)
    secs = sys_.sections(lams)
    coords = sys_.chart_coords(points, centres)
    back = sys_.chart_points(coords, centres)
    pairs = {
        "projections": (lams, [sys_.project(m) for m in points]),
        "sections": (secs, [sys_.section(lam) for lam in lams]),
        "actions": (sys_.actions(gs, points), [sys_.act(g, m) for g, m in zip(gs, points)]),
        "chart_coords": (coords, [sys_.chart_coords([m], [c])[0] for m, c in zip(points, centres)]),
        "chart_points": (back, [sys_.chart_points([u], [c])[0] for u, c in zip(coords, centres)]),
        "velocities": (sys_.velocities(points), [sys_.velocities([m])[0] for m in points]),
        "velocities in the centres' charts": (
            sys_.velocities(points, centres), [sys_.velocities([m], [c])[0] for m, c in zip(points, centres)]),
        "generator_matrices": (sys_.generator_matrices(points), [fundamental_matrix(sys_, m) for m in points]),
        "generator_matrices in the centres' charts": (
            sys_.generator_matrices(points, centres),
            [sys_.generator_matrices([m], [c])[0] for m, c in zip(points, centres)]),
        "section_jacobians": (sys_.section_jacobians(lams), [sys_.section_jacobians(lam[None])[0] for lam in lams]),
    }
    for name, (stacked, rows) in pairs.items():
        assert len(stacked) == len(rows) == 5, name
        for a, b in zip(stacked, rows):
            a, b = as_row(a), as_row(b)
            assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-15 * max(1.0, np.max(np.abs(b))), name
    # chart_points inverts chart_coords, and on the cotangent bundle both
    # are those of the independent CotangentChart at the centre
    assert np.max(np.abs(sys_.chart_coords(back, centres) - coords)) <= 1e-12
    if isinstance(points[0], PhasePoint):
        for m, c, u, p in zip(points, centres, coords, back):
            chart = CotangentChart(sys_.group, c.g)
            assert np.max(np.abs(u - chart.to_coords(m))) <= 1e-12
            assert np.max(np.abs(as_row(p) - as_row(chart.from_coords(u)))) <= 1e-12
    # one solve per row, free or under a stabilizer, bitwise that of the row alone
    eta, Y = section_split(sys_, lams.T)
    for i, lam in enumerate(lams):
        eta_i, Y_i = section_split(sys_, lam)
        assert np.array_equal(eta[i], eta_i) and np.array_equal(Y[i], Y_i)


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_generators_match_richardson_differences(key):
    sys_ = SCENARIOS[key]()
    for m in seeded_points(sys_, 31):
        W = fundamental_matrix(sys_, m)
        assert W.shape == (sys_.dim, sys_.group.dim)
        assert np.max(np.abs(W - fd_generators(sys_, m))) <= 1e-9


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_section_jacobian_matches_central_differences(key):
    sys_ = SCENARIOS[key]()
    for m in seeded_points(sys_, 32):
        lam = sys_.project(m)
        sec = sys_.section(lam)
        Ds = sys_.section_jacobians(lam[None])[0]
        fd = central_jacobian(lambda x: sys_.chart_coords([sys_.section(x)], [sec])[0], lam, 1e-6)
        assert Ds.shape == (sys_.dim, sys_.quotient_dim)
        assert np.max(np.abs(Ds - fd)) <= 1e-7


@pytest.mark.parametrize("convention", ["position", "momentum"])
def test_section_jacobian_past_the_edge_is_that_of_the_clamped_section(convention):
    # event location probes the quotient field just past the domain edge,
    # where the section clamps its radicand: the Jacobian must stay finite
    sys_ = make_so3_scenario(section=convention)
    lam = np.array([2.0, 3.0, 2.6])
    assert sys_.section_margin(lam) < 0
    sec = sys_.section(lam)
    fd = central_jacobian(lambda x: sys_.chart_coords([sys_.section(x)], [sec])[0], lam, 1e-6)
    assert np.max(np.abs(sys_.section_jacobians(lam[None])[0] - fd)) <= 1e-7
    assert np.all(np.isfinite(section_split(sys_, lam)[1]))


@pytest.mark.parametrize("key", sorted(set(SCENARIOS) - {"product"}))
def test_split_matches_difference_rate_and_push_forward(key):
    sys_ = SCENARIOS[key]()
    points = seeded_points(sys_, 33, count=3)
    theta = build_theta(sys_, sys_.section(sys_.project(points[0])))
    for m in points:
        lam = sys_.project(m)
        sec = sys_.section(lam)
        eta, Y = section_split(sys_, lam)
        assert np.linalg.norm(eta - fd_eta(sys_, theta, sec)) <= 1e-7
        assert np.linalg.norm(Y - _along_field(sys_, sys_.project, sec)) <= 1e-7


@pytest.mark.parametrize("key", ["pairs-momentum", "pairs-position"])
def test_hypothesis_checks_read_the_split_and_solve_no_factor(key, monkeypatch):
    # the free particle is horizontal for the momentum section only, and
    # vertical for neither; both checks keep those verdicts with every factor
    # solve refused, and their values are the difference rates at p0 and at
    # the check's ball points
    sys_ = SCENARIOS[key]()
    lam0 = np.array([2.0, 3.0, 1.0])
    theta = build_theta(sys_, sys_.section(lam0))
    p0 = sys_.act(matrix_exp_oracle(sys_.group, np.array([0.3, -0.2, 0.4])), sys_.section(lam0))
    points = [p0, *_chart_ball(sys_, p0, *FIELD_CHECK_BALL)]
    horizontal = max(float(np.linalg.norm(fd_eta(sys_, theta, m))) for m in points)
    vertical = max(float(np.linalg.norm(_along_field(sys_, sys_.project, m))) for m in points)

    def refuse(*_args, **_kwargs):
        raise AssertionError("group-factor solve")

    monkeypatch.setattr(HorizontalSubmersion, "__call__", refuse)
    if key == "pairs-momentum":
        assert check_theta_horizontal(sys_, p0) <= 1e-12
    else:
        with pytest.raises(HorizontalityError):
            check_theta_horizontal(sys_, p0)
    with pytest.raises(VerticalityError):
        check_vertical(sys_, p0)
    # with the tolerances lifted each check returns the maximum it measured
    monkeypatch.setattr(reconstruct, "HORIZONTAL_TOL", np.inf)
    monkeypatch.setattr(reconstruct, "VERTICAL_TOL", np.inf)
    assert abs(check_theta_horizontal(sys_, p0) - horizontal) <= 1e-7
    assert abs(check_vertical(sys_, p0) - vertical) <= 1e-7


def test_split_needs_no_chart_inversion(monkeypatch):
    sys_ = rigid_body()

    def refuse(*_args, **_kwargs):
        raise AssertionError("chart inversion")

    # the tstar scenario's phase chart and the factor solve's group chart are both Cayley charts
    monkeypatch.setattr(CayleyChart, "from_coords", refuse)
    eta, Y = section_split(sys_, np.array([0.7, -0.4, 0.5]))
    assert np.all(np.isfinite(eta)) and np.all(np.isfinite(Y))


def test_split_rate_of_the_rigid_body_is_inertia_times_momentum():
    sys_ = rigid_body()
    mu = np.array([0.7, -0.4, 0.5])
    assert np.max(np.abs(split_eta(sys_, mu) - np.array([0.7, -0.8, 1.5]))) <= 1e-14
    rng = np.random.default_rng(34)
    for _ in range(4):
        mu = rng.standard_normal(3)
        assert np.max(np.abs(split_eta(sys_, mu) - INERTIA * mu)) <= 1e-13


def test_split_under_a_stabilizer_gives_the_minimum_norm_rate():
    # the product scenario's rate is fixed only up to rotations about the
    # state's own vector: the split picks the one orthogonal to them, and its
    # generator is the field's orbit velocity
    sys_ = make_product_scenario()
    for m in seeded_points(sys_, 35):
        lam = sys_.project(m)
        sec = sys_.section(lam)
        eta, Y = section_split(sys_, lam)
        chi = isotropy_basis_at(sys_, sec)[:, 0]
        assert abs(eta @ chi) <= 1e-12
        du = sys_.velocities([sec])[0]
        assert np.linalg.norm(fundamental_matrix(sys_, sec) @ eta - du) <= 1e-12
        assert np.linalg.norm(Y) <= 1e-12


@pytest.mark.parametrize("key", ["pairs-momentum", "product"])
def test_factor_solve_jacobian_matches_central_differences(key):
    sys_ = SCENARIOS[key]()
    theta = HorizontalSubmersion(sys_, sys_.section(sys_.project(sys_.random_point(np.random.default_rng(36)))))
    gchart = theta.gchart
    rng = np.random.default_rng(37)
    for m in seeded_points(sys_, 38):
        target = sys_.section(sys_.project(m))
        n = 0.3 * rng.standard_normal(sys_.group.dim)
        g = gchart.from_coords(n)

        def residual(x):
            return sys_.chart_coords([sys_.act(gchart.from_coords(x), target)], [m])[0]

        fd = central_jacobian(residual, n, 1e-6)
        assert np.max(np.abs(theta.jacobians([m], [sys_.act(g, target)], [g])[0] - fd)) <= 1e-7


def test_connection_route_never_differentiates_the_factor_map(monkeypatch):
    # the benchmark's own connection call: its scenario, start and reference
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    call = workloads._connection_call(np.random.default_rng([1, 1]))

    def refuse(*_args, **_kwargs):
        raise AssertionError("finite difference on the connection route")

    monkeypatch.setattr(reconstruct, "_along_field", refuse)
    sample = call.run()
    monkeypatch.undo()
    assert sample.diagnostics["route"] == "connection"
    assert sample.diagnostics["flow_residual_max"] <= FLOW_RESIDUAL_TOL
    err = max(float(np.linalg.norm(a - b)) for a, b in zip(call.emitted(sample), call.reference()))
    assert err <= call.tol

