import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from liequad.cotangent import (
    CotangentBundle,
    InvariantField,
    PhasePoint,
    TangentPhaseVector,
    left_invariant_hamiltonian_field,
)
from liequad import reconstruct
from liequad.expquad import exp_general
from liequad.liegroup import ChartDomainError, MatrixGroup, forbid_exp_oracle, make_group, matrix_exp_oracle
from liequad.reconstruct import (
    FD_STEP,
    HorizontalityError,
    HorizontalSubmersion,
    ReconstructionError,
    SectionDomainError,
    ThetaConnection,
    VerticalityError,
    _default_quotient_integrator,
    build_theta,
    connection_reproduction_defect,
    flow_residual_rows,
    isotropy_basis_at,
    isotropy_dimension_at,
    make_product_scenario,
    make_so3_scenario,
    make_tstar_scenario,
    momentum_defect,
    projected_field_defect,
    quotient_field,
    transversality_defect,
    two_step_reconstruct,
    usual_reconstruct,
    validate_invariant_system,
    vertical_integrate,
)
from test_closed_forms import fd_eta

TS = np.linspace(0.0, 1.0, 65)

_cache = {}


def cached(key, builder):
    if key not in _cache:
        _cache[key] = builder()
    return _cache[key]


def tstar_so3(field=None, name="default"):
    def build():
        return make_tstar_scenario("so3", field)

    return cached(("tstar-so3", name), build)


def fiber_rotation_field(bundle):
    c = np.array([0.4, -0.3, 0.5])

    def ev(p):
        return TangentPhaseVector(np.zeros(3), np.cross(c, p.alpha))

    return InvariantField(bundle, ev, name="fiber-rotation")


def so3_bundle():
    return cached("so3-bundle", lambda: CotangentBundle(make_group("so3")))


def tstar_start():
    alpha0 = np.array([0.7, -0.4, 0.5])
    g0 = matrix_exp_oracle(make_group("so3"), np.array([0.2, 0.1, -0.3]))
    return PhasePoint(g0, alpha0), alpha0


def pair_start(sys_, lam=(2.0, 3.0, 1.0)):
    lam0 = np.asarray(lam, float)
    m_sec = sys_.section(lam0)
    g = matrix_exp_oracle(sys_.group, np.array([0.3, -0.2, 0.4]))
    return sys_.act(g, m_sec), m_sec, lam0


def near_section_point(sys_, rng, spread=0.7):
    """Moderate displacement of a random section point; inside factor-solve reach."""
    lam = sys_.project(sys_.random_point(rng))
    xi = rng.standard_normal(sys_.group.dim)
    xi *= spread * rng.uniform() / np.linalg.norm(xi)
    return sys_.act(matrix_exp_oracle(sys_.group, xi), sys_.section(lam))


def ambient_oracle(bundle, field, p0, ts):
    rhs = bundle.ambient_rhs(field)
    sol = solve_ivp(
        rhs,
        (float(ts[0]), float(ts[-1])),
        bundle.ambient_coords(p0),
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
        t_eval=ts,
    )
    assert sol.status == 0
    return [bundle.from_ambient(sol.y[:, k]) for k in range(sol.y.shape[1])]


def phase_gap(a, b):
    return float(np.linalg.norm(a.g.matrix - b.g.matrix) + np.linalg.norm(a.alpha - b.alpha))


# -- scenario axioms -----------------------------------------------------------


def test_cotangent_scenario_axioms():
    d = validate_invariant_system(tstar_so3())
    assert d["action_identity"] <= 1e-10
    assert d["action_composition"] <= 1e-10
    assert d["projection_invariance"] <= 1e-10
    assert d["section_property"] <= 1e-10
    assert d["field_invariance"] <= 1e-8
    assert d["momentum_equivariance"] <= 1e-10
    assert d["momentum_equation"] <= 1e-10


def test_vector_pair_scenario_axioms():
    sys_ = cached("pairs-free", make_so3_scenario)
    d = validate_invariant_system(sys_)
    assert d["action_identity"] <= 1e-10
    assert d["action_composition"] <= 1e-10
    assert d["projection_invariance"] <= 1e-10
    assert d["section_property"] <= 1e-10
    assert d["field_invariance"] <= 1e-8
    assert d["momentum_equivariance"] <= 1e-10
    assert d["momentum_equation"] <= 1e-10


def test_product_scenario_axioms():
    sys_ = cached("product", make_product_scenario)
    d = validate_invariant_system(sys_)
    assert d["action_identity"] <= 1e-10
    assert d["action_composition"] <= 1e-10
    assert d["projection_invariance"] <= 1e-10
    assert d["field_invariance"] <= 1e-8


def test_invariant_projection_roundtrip_on_sections():
    rng = np.random.default_rng(21)
    for convention in ("position", "momentum"):
        sys_ = make_so3_scenario(section=convention)
        for _ in range(25):
            a, b = rng.uniform(0.2, 4.0, 2)
            c = rng.uniform(-0.9, 0.9) * np.sqrt(a * b)
            lam = np.array([a, b, c])
            assert np.linalg.norm(sys_.project(sys_.section(lam)) - lam) <= 1e-12


def test_isotropy_dimensions():
    sys_ = cached("pairs-free", make_so3_scenario)
    rng = np.random.default_rng(4)
    for _ in range(10):
        assert isotropy_dimension_at(sys_, sys_.random_point(rng)) == 0
    q = np.array([1.0, 0.2, -0.3])
    assert isotropy_dimension_at(sys_, np.concatenate([q, 2.0 * q])) == 1
    prod = cached("product", make_product_scenario)
    for _ in range(5):
        m = prod.random_point(rng)
        basis = isotropy_basis_at(prod, m)
        assert basis.shape[1] == 1
        # the stabilizer is rotation about the state's own axis
        axis = basis[:3, 0] / np.linalg.norm(basis[:3, 0])
        assert abs(abs(axis @ (m[:3] / np.linalg.norm(m[:3]))) - 1.0) <= 1e-6


def test_momentum_map_defining_equation():
    rng = np.random.default_rng(9)
    sys_ = cached("pairs-free", make_so3_scenario)
    for _ in range(6):
        assert momentum_defect(sys_, sys_.random_point(rng)) <= 1e-10
    ct = tstar_so3()
    for _ in range(6):
        assert momentum_defect(ct, ct.random_point(rng)) <= 1e-10


# -- group-factor maps ----------------------------------------------------------


def test_solved_factor_matches_group_part():
    # on a trivialized cotangent bundle the factor map is the group component
    sys_ = tstar_so3()
    m0 = sys_.section(np.array([0.7, -0.4, 0.5]))
    theta = build_theta(sys_, m0, use_exact=False)
    assert isinstance(theta, HorizontalSubmersion)
    rng = np.random.default_rng(12)
    for _ in range(6):
        p = sys_.random_point(rng)
        assert np.linalg.norm(theta(p).matrix - p.g.matrix) <= 1e-10


def test_build_theta_certifies_vector_pair_factor():
    sys_ = cached("pairs-momentum", lambda: make_so3_scenario(section="momentum"))
    m0 = sys_.section(np.array([2.0, 3.0, 1.0]))
    theta = cached("theta-pairs-momentum", lambda: build_theta(sys_, m0))
    ident = np.eye(3)
    assert np.linalg.norm(theta(m0).matrix - ident) <= 1e-10
    rng = np.random.default_rng(31)
    for _ in range(10):
        m = near_section_point(sys_, rng)
        assert sys_.chart_distance(m, sys_.act(theta(m), sys_.section(sys_.project(m)))) <= 1e-8
        on_sec = sys_.section(sys_.project(m))
        assert np.linalg.norm(theta(on_sec).matrix - ident) <= 1e-8


def test_factor_and_projection_are_jointly_immersive():
    sys_ = cached("pairs-momentum", lambda: make_so3_scenario(section="momentum"))
    m0 = sys_.section(np.array([2.0, 3.0, 1.0]))
    theta = cached("theta-pairs-momentum", lambda: build_theta(sys_, m0))
    assert transversality_defect(sys_, theta, m0) > 1e-6
    prod = cached("product", make_product_scenario)
    mp = prod.section(np.array([1.5]))
    thp = cached("theta-product", lambda: build_theta(prod, mp))
    assert transversality_defect(prod, thp, mp) > 1e-6


def test_stabilized_factor_solve_is_deterministic():
    # minimal-norm updates fix the representative despite the gauge freedom
    prod = cached("product", make_product_scenario)
    mp = prod.section(np.array([1.5]))
    rng = np.random.default_rng(44)
    m = near_section_point(prod, rng)
    a = HorizontalSubmersion(prod, mp)(m)
    b = HorizontalSubmersion(prod, mp)(m)
    assert np.array_equal(a.matrix, b.matrix)
    assert prod.chart_distance(m, prod.act(a, prod.section(prod.project(m)))) <= 1e-8


def test_factor_base_point_must_sit_on_section():
    sys_ = cached("pairs-free", make_so3_scenario)
    off = sys_.act(matrix_exp_oracle(sys_.group, np.array([0.0, 0.0, 0.5])), sys_.section(np.array([2.0, 3.0, 1.0])))
    with pytest.raises(ReconstructionError):
        HorizontalSubmersion(sys_, off)


def test_factor_solve_failures_are_typed():
    # rotations of up to about 1.5 rad push some solves to the edge of the
    # identity chart; each must either solve or raise ReconstructionError
    sys_ = cached("pairs-momentum", lambda: make_so3_scenario(section="momentum"))
    lam0 = np.array([2.0, 3.0, 1.0])
    theta = cached("theta-pairs-momentum", lambda: build_theta(sys_, sys_.section(lam0)))
    rng = np.random.default_rng(3)
    solved = 0
    for _ in range(40):
        g = matrix_exp_oracle(sys_.group, 0.5 * rng.standard_normal(3))
        m = sys_.act(g, sys_.section(lam0 + 0.2 * rng.standard_normal(3)))
        try:
            defect = sys_.chart_distance(m, sys_.act(theta(m), sys_.section(sys_.project(m))))
        except ReconstructionError:
            continue
        assert defect <= 1e-8
        solved += 1
    assert solved >= 36
    # a warm start past the chart fails at the first chart inversion
    with pytest.raises(ReconstructionError) as info:
        theta(sys_.section(lam0), warm=np.full(3, 3.0))
    assert isinstance(info.value.__cause__, ChartDomainError)


# -- transport of the quotient motion -------------------------------------------


def test_two_step_free_particle_matches_exact_flight():
    sys_ = cached("pairs-momentum", lambda: make_so3_scenario(section="momentum"))
    m0 = sys_.section(np.array([2.0, 3.0, 1.0]))
    theta = cached("theta-pairs-momentum", lambda: build_theta(sys_, m0))
    p0, _, _ = pair_start(sys_)
    sample = two_step_reconstruct(sys_, theta, p0, TS)
    q0, v0 = p0[:3], p0[3:]
    worst = max(
        np.linalg.norm(pt - np.concatenate([q0 + t * v0, v0]))
        for t, pt in zip(sample.ts, sample.points)
    )
    assert worst <= 1e-6
    assert sample.diagnostics["flow_residual_max"] <= 1e-5
    assert sample.diagnostics["factor_drift_max"] <= 1e-6
    assert sample.diagnostics["quotient_match_max"] <= 1e-8


def test_two_step_rejects_factor_moving_field():
    # straight-line motion turns the factor of the position-aligned section
    sys_ = cached("pairs-position", lambda: make_so3_scenario(section="position"))
    m0 = sys_.section(np.array([2.0, 3.0, 1.0]))
    theta = cached("theta-pairs-position", lambda: build_theta(sys_, m0))
    p0, _, _ = pair_start(sys_)
    with pytest.raises(HorizontalityError):
        two_step_reconstruct(sys_, theta, p0, TS)


def test_two_step_rejects_orbit_tangent_field():
    sys_ = tstar_so3()
    theta = cached("theta-tstar", lambda: build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5]))))
    p0, _ = tstar_start()
    with pytest.raises(HorizontalityError):
        two_step_reconstruct(sys_, theta, p0, TS)


def test_two_step_zero_field_is_constant():
    def build():
        b = so3_bundle()
        fld = InvariantField(b, lambda p: TangentPhaseVector(np.zeros(3), np.zeros(3)), name="rest")
        return make_tstar_scenario(b.group, fld)

    sys_ = cached(("tstar-so3", "rest"), build)
    theta = cached("theta-tstar-rest", lambda: build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5]))))
    p0, _ = tstar_start()
    sample = two_step_reconstruct(sys_, theta, p0, TS)
    assert max(phase_gap(p, p0) for p in sample.points) <= 1e-12


def fiber_rotation_scenario():
    def build():
        b = so3_bundle()
        return make_tstar_scenario(b.group, fiber_rotation_field(b))

    return cached(("tstar-so3", "fiber-rotation"), build)


def fiber_rotation_two_step():
    def build():
        sys_ = fiber_rotation_scenario()
        theta = build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5])))
        p0, _ = tstar_start()
        return two_step_reconstruct(sys_, theta, p0, TS)

    return cached("two-step-fiber-rotation", build)


def test_two_step_cotangent_fiber_motion_vs_adaptive_oracle():
    sys_ = fiber_rotation_scenario()
    sample = fiber_rotation_two_step()
    p0, _ = tstar_start()
    oracle = ambient_oracle(so3_bundle(), fiber_rotation_field(so3_bundle()), p0, TS)
    assert max(phase_gap(a, b) for a, b in zip(sample.points, oracle)) <= 1e-5
    assert sample.diagnostics["flow_residual_max"] <= 1e-5


def decay_start():
    """A field whose relative-alignment invariant decays to the domain edge in finite time."""

    def decay(m, rate=2.0):
        q, p = m[:3], m[3:]
        return np.concatenate([np.zeros(3), rate * ((q @ p) / (q @ q) * q - p)])

    def build():
        sys_ = make_so3_scenario(field=decay, section="position")
        m0 = sys_.section(np.array([2.0, 3.0, 1.0]))
        return sys_, build_theta(sys_, m0), sys_.act(matrix_exp_oracle(sys_.group, np.array([0.3, -0.2, 0.4])), m0)

    return cached("decay", build)


def test_two_step_reports_section_domain_exit():
    sys_, theta, p0 = decay_start()
    grid = np.linspace(0.0, 8.0, 129)
    with pytest.raises(SectionDomainError) as info:
        two_step_reconstruct(sys_, theta, p0, grid)
    err = info.value
    assert 4.0 < err.t_achieved < 7.0
    assert 0 < len(err.partial.points) < len(grid)
    assert err.partial.diagnostics["flow_residual_max"] <= 1e-5
    assert err.partial.diagnostics["factor_drift_max"] <= 1e-6


def test_gate_stencil_stays_inside_the_cut_curve():
    # one output time is kept before the cut at t_reached = 5.41: the gate
    # still reads the quotient curve only inside [0, t_reached]
    sys_, theta, p0 = decay_start()
    inner = _default_quotient_integrator(sys_)
    read = []

    def spied(Y, lam0, t_span):
        gamma, t_reached = inner(Y, lam0, t_span)
        return lambda t: read.append(np.atleast_1d(t)) or gamma(t), t_reached

    with pytest.raises(SectionDomainError) as info:
        two_step_reconstruct(sys_, theta, p0, [0.0, 8.0], quotient_integrator=spied)
    assert len(info.value.partial.points) == 1
    read = np.concatenate(read)
    assert 0.0 <= read.min() and read.max() <= info.value.t_achieved


def test_gate_refuses_a_curve_shorter_than_its_stencil():
    # 1.5e-6 of quotient curve leaves no room for a stencil 2 FD_STEP wide
    sys_, theta, p0 = decay_start()
    inner = _default_quotient_integrator(sys_)

    def cut(Y, lam0, t_span):
        return inner(Y, lam0, t_span)[0], 1.5e-6

    with pytest.raises(ReconstructionError, match=r"ends at t=1\.5e-06, inside the gate's stencil") as info:
        two_step_reconstruct(sys_, theta, p0, [0.0, 8.0], quotient_integrator=cut)
    assert not isinstance(info.value, SectionDomainError)


def test_two_step_gate_rejects_skewed_quotient_motion():
    sys_ = cached("pairs-momentum", lambda: make_so3_scenario(section="momentum"))
    m0 = sys_.section(np.array([2.0, 3.0, 1.0]))
    theta = cached("theta-pairs-momentum", lambda: build_theta(sys_, m0))
    p0, _, _ = pair_start(sys_)
    inner = _default_quotient_integrator(sys_)

    def skewed(Y, lam0, t_span):
        return inner(lambda lam: 1.05 * Y(lam), lam0, t_span)

    with pytest.raises(ReconstructionError, match="flow-equation"):
        two_step_reconstruct(sys_, theta, p0, TS, quotient_integrator=skewed)


def test_gate_reads_the_quotient_curve_in_two_vector_calls():
    # one read at the output times and one at the stencil points, not one per output time
    sys_ = cached("pairs-momentum", lambda: make_so3_scenario(section="momentum"))
    theta = cached("theta-pairs-momentum", lambda: build_theta(sys_, sys_.section(np.array([2.0, 3.0, 1.0]))))
    p0, _, _ = pair_start(sys_)
    inner = _default_quotient_integrator(sys_)
    reads = []

    def spied(Y, lam0, t_span):
        gamma, t_reached = inner(Y, lam0, t_span)
        return lambda t: reads.append(np.shape(t)) or gamma(t), t_reached

    sample = two_step_reconstruct(sys_, theta, p0, TS, quotient_integrator=spied)
    assert len(sample.points) == len(TS)
    assert len(reads) == 2 and reads[0] == TS.shape


# -- the quotient curve on Chebyshev-Picard panels ----------------------------------


def counted_field(sys_):
    """The quotient field of sys_ and the list of the arguments it was called with."""
    Y, seen = quotient_field(sys_), []
    return (lambda lam: seen.append(np.asarray(lam, float)) or Y(lam)), seen


def quotient_case(case):
    """(scenario, start, span) of a quotient curve the routes integrate."""
    if case == "pairs-momentum":
        sys_, _theta, p0 = pairs_momentum()
        return sys_, sys_.project(p0), (0.0, 1.0)
    _b, _fld, sys_ = anisotropic_scenario(case)
    return sys_, np.array([0.7, -0.4, 0.5]), (0.0, 1.0)


@pytest.mark.parametrize("case", ["so3", "su2", "sl2r", "pairs-momentum"])
def test_quotient_curve_matches_dop853(case):
    # the rigid body of the connection routes and the free particle of the
    # two-step one, each field call one stack of a panel's 17 nodes
    sys_, lam0, span = quotient_case(case)
    Y, seen = counted_field(sys_)
    gamma, t_reached = _default_quotient_integrator(sys_)(Y, lam0, span)
    assert t_reached == span[1]
    assert all(lam.shape == (len(lam0), 17) for lam in seen)
    Yref = quotient_field(sys_)
    ref = solve_ivp(lambda _t, lam: Yref(lam), span, lam0, method="DOP853", rtol=1e-13, atol=1e-15, t_eval=TS)
    assert np.max(np.abs(gamma(TS) - ref.y)) <= 1e-12


def test_connection_route_calls_the_quotient_field_in_few_stacks(monkeypatch):
    # lam and g are one state on the quotient panels: one stacked split of the
    # panel's 17 nodes per Picard sweep gives both rates, and nothing else splits
    run, calls, split = route_runner("connection"), [], reconstruct.section_split
    monkeypatch.setattr(reconstruct, "section_split", lambda s, lams: calls.append(np.shape(lams)) or split(s, lams))
    run(np.linspace(0.0, 1.0, 17))
    assert 0 < len(calls) <= 25
    assert set(calls) == {(3, 17)}


def test_quotient_curve_stops_at_the_margin_root():
    # b - c^2/a decays like 2.5 exp(-4t) and a = 2, so a b - c^2 meets
    # 2 SECTION_EPS at t = log(2.5e9)/4.  There it falls by 8e-9 per unit
    # time: an error of 1e-14 in b moves the root by 2.5e-6
    sys_, _theta, p0 = decay_start()
    Y, seen = counted_field(sys_)
    gamma, t_reached = _default_quotient_integrator(sys_)(Y, sys_.project(p0), (0.0, 8.0))
    assert abs(t_reached - np.log(2.5e9) / 4.0) <= 1e-5
    assert sys_.section_margin(gamma(t_reached)) > reconstruct.SECTION_EPS
    assert all(lam.shape == (3, 17) for lam in seen)


def test_quotient_curve_that_blows_up_is_refused():
    # lam' = lam^2 from 1 blows up at t = 1: the walk halves its way to just
    # short of it, where no panel settles, and the route gets a typed error
    sys_ = tstar_so3()
    with pytest.raises(ReconstructionError, match="quotient integration failed at t="):
        _default_quotient_integrator(sys_)(lambda lam: (np.asarray(lam) ** 2).T, np.ones(3), (0.0, 2.0))


def test_quotient_curve_walks_a_span_long_against_its_field():
    # a rotation of period 2 pi over [0, 1000]: the opening panels are
    # refused down to 1000/2^9, about two units of time, and the walk keeps
    # that width to the end, more halvings than a flow's walk may take
    sys_ = tstar_so3()
    gamma, t_reached = _default_quotient_integrator(sys_)(
        lambda lam: np.stack([lam[1], -lam[0], 0.0 * lam[2]], axis=1), np.array([1.0, 0.0, 0.0]), (0.0, 1000.0))
    ts = np.linspace(0.0, 1000.0, 101)
    assert t_reached == 1000.0
    assert np.max(np.abs(gamma(ts)[:2] - np.array([np.cos(ts), -np.sin(ts)]))) <= 1e-9


def test_diverging_quotient_panel_is_refused_and_halved(monkeypatch):
    # on sl2r the whole-span panel's sweeps grow: it is refused, not
    # overflowed, and the halves reach the end; gamma reads each time the
    # same alone as in a vector, on panel ends and nodes too
    sys_, lam0, span = quotient_case("sl2r")
    Y, seen = counted_field(sys_)
    walk, panels = reconstruct._walk, []

    def spied(end, panel, most):
        def counted(a, b):
            before = len(seen)
            result = panel(a, b)
            panels.append((a, b, result is not None, seen[before:]))
            return result

        return walk(end, counted, most)

    monkeypatch.setattr(reconstruct, "_walk", spied)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma, t_reached = _default_quotient_integrator(sys_)(Y, lam0, span)
    (a, b, accepted, sweeps), (a2, b2, *_rest) = panels[:2]
    assert (a, b, accepted, a2, b2) == (0.0, 1.0, False, 0.0, 0.5)
    moves = [np.max(np.abs(x - y)) for x, y in zip(sweeps[1:], sweeps[:-1])]
    assert moves[-1] > moves[0]
    ends = [b for _a, b, accepted, _s in panels if accepted]
    assert ends[-1] == t_reached == 1.0 and len(ends) > 1
    ts = np.concatenate([TS, ends, 0.0625 * (1.0 + np.sin(0.5 * np.pi * np.arange(-16, 17, 2) / 16))])
    columns = gamma(ts)
    assert all(np.array_equal(columns[:, i], gamma(t)) for i, t in enumerate(ts))


# -- lift through a connection ----------------------------------------------------


def tstar_theta():
    sys_ = fiber_rotation_scenario()
    return cached(
        "theta-tstar-fiber-rotation",
        lambda: build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5]))),
    )


def test_connection_reproduces_action_generators():
    sys_ = fiber_rotation_scenario()
    conn = ThetaConnection(sys_, tstar_theta())
    rng = np.random.default_rng(5)
    for _ in range(4):
        assert connection_reproduction_defect(sys_, conn, sys_.random_point(rng)) <= 1e-6


def test_connection_matrix_reads_its_stencil_from_one_stacked_call_each(monkeypatch):
    # tstar so3 has a 6-D chart: the centre and the 12 stencil points come
    # from one chart_points call, and the stencil's factors from one solve
    # after the centre's own (one-row calls, 13 of each, read them before)
    sys_ = fiber_rotation_scenario()
    theta = build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5])), use_exact=False)
    calls = {"chart_points": [], "factors": []}
    chart_points, factors = sys_.chart_points, theta.factors

    def counted_points(coords, centres):
        calls["chart_points"].append(len(coords))
        return chart_points(coords, centres)

    def counted_factors(ms, warm=None):
        calls["factors"].append(len(ms))
        return factors(ms, warm)

    monkeypatch.setattr(sys_, "chart_points", counted_points)
    monkeypatch.setattr(theta, "factors", counted_factors)
    A = ThetaConnection(sys_, theta).matrix(tstar_start()[0])
    assert A.shape == (3, 6)
    assert calls == {"chart_points": [13], "factors": [1, 12]}


def test_lifted_route_matches_transport_route():
    sys_ = fiber_rotation_scenario()
    conn = ThetaConnection(sys_, tstar_theta())
    p0, _ = tstar_start()
    usual = cached("usual-fiber-rotation", lambda: usual_reconstruct(sys_, conn, p0, TS))
    two = fiber_rotation_two_step()
    assert max(phase_gap(a, b) for a, b in zip(usual.points, two.points)) <= 1e-7
    assert usual.diagnostics["flow_residual_max"] <= 1e-5


def test_lifted_route_on_orbit_tangent_field():
    # zero quotient motion: the lift freezes and only the factor equation runs
    sys_ = tstar_so3()
    theta = cached("theta-tstar", lambda: build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5]))))
    conn = ThetaConnection(sys_, theta)
    p0, alpha0 = tstar_start()
    sample = usual_reconstruct(sys_, conn, p0, TS)
    group = sys_.group
    rate = np.linalg.solve(group.algebra.killing_form(), alpha0)
    worst = 0.0
    for t, pt in zip(sample.ts, sample.points):
        expected = p0.g @ matrix_exp_oracle(group, rate, float(t))
        worst = max(worst, np.linalg.norm(pt.g.matrix - expected.matrix))
        assert np.linalg.norm(pt.alpha - alpha0) <= 1e-10
    assert worst <= 1e-8


def test_lifted_route_generic_field_vs_adaptive_oracle():
    def build():
        b = so3_bundle()
        fld = left_invariant_hamiltonian_field(b, lambda mu: np.array([1.0, 2.0, 3.0]) * mu, name="anisotropic")
        return make_tstar_scenario(b.group, fld)

    sys_ = cached(("tstar-so3", "anisotropic"), build)
    theta = build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5])))
    conn = ThetaConnection(sys_, theta)
    p0, _ = tstar_start()
    sample = usual_reconstruct(sys_, conn, p0, TS)
    b = so3_bundle()
    fld = left_invariant_hamiltonian_field(b, lambda mu: np.array([1.0, 2.0, 3.0]) * mu, name="anisotropic")
    oracle = ambient_oracle(b, fld, p0, TS)
    assert max(phase_gap(a, o) for a, o in zip(sample.points, oracle)) <= 1e-5
    assert sample.diagnostics["flow_residual_max"] <= 1e-5


def anisotropic_scenario(group_name):
    def build():
        b = CotangentBundle(make_group(group_name))
        fld = left_invariant_hamiltonian_field(b, lambda mu: np.array([1.0, 2.0, 3.0]) * mu, name="anisotropic")
        return b, fld, make_tstar_scenario(b.group, fld)

    return cached(("anisotropic", group_name), build)


@pytest.mark.parametrize("group_name", ["su2", "sl2r"])
def test_lifted_route_off_so3_vs_adaptive_oracle(group_name):
    # su2 runs through the complex flattening of its matrices
    b, fld, sys_ = anisotropic_scenario(group_name)
    theta = build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5])))
    p0 = PhasePoint(matrix_exp_oracle(b.group, np.array([0.2, 0.1, -0.3])), np.array([0.7, -0.4, 0.5]))
    sample = usual_reconstruct(sys_, ThetaConnection(sys_, theta), p0, TS)
    oracle = ambient_oracle(b, fld, p0, TS)
    assert max(phase_gap(a, o) for a, o in zip(sample.points, oracle)) <= 1e-6
    assert sample.diagnostics["flow_residual_max"] <= 1e-5


@pytest.mark.parametrize("group_name", ["so3", "su2", "sl2r"])
def test_connection_route_needs_no_oracle(group_name):
    # the Picard panels of lam and g take no matrix exponential
    b, _fld, sys_ = anisotropic_scenario(group_name)
    theta = build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5])))
    p0 = PhasePoint(matrix_exp_oracle(b.group, np.array([0.2, 0.1, -0.3])), np.array([0.7, -0.4, 0.5]))
    with forbid_exp_oracle():
        sample = usual_reconstruct(sys_, ThetaConnection(sys_, theta), p0, TS)
    assert sample.diagnostics["flow_residual_max"] <= 1e-5


def test_lifted_route_with_solved_factor_matches_closed_form():
    # the route takes g(0) and eta from the connection's own factor map
    _b, _fld, sys_ = anisotropic_scenario("so3")
    m0 = sys_.section(np.array([0.7, -0.4, 0.5]))
    p0, _ = tstar_start()
    grid = np.linspace(0.0, 1.0, 17)
    runs = [
        usual_reconstruct(sys_, ThetaConnection(sys_, build_theta(sys_, m0, use_exact=exact)), p0, grid)
        for exact in (True, False)
    ]
    assert max(phase_gap(a, b) for a, b in zip(runs[0].points, runs[1].points)) <= 1e-8


def test_connection_route_emits_the_curve_of_its_integrator(monkeypatch):
    # every emitted point is act(g(t), section(lam(t))) of the one curve the
    # quotient integrator returned, read at its output time alone, to the bit
    _b, _fld, sys_ = anisotropic_scenario("so3")
    conn = ThetaConnection(sys_, build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5]))))
    p0, _ = tstar_start()
    grid = np.linspace(0.0, 1.0, 9)
    make, curves = reconstruct._default_quotient_integrator, []

    def spied(s):
        inner = make(s)
        return lambda *args: curves.append(inner(*args)) or curves[-1]

    monkeypatch.setattr(reconstruct, "_default_quotient_integrator", spied)
    sample = usual_reconstruct(sys_, conn, p0, grid)
    (gamma, t_reached), = curves
    assert t_reached == 1.0
    grp = sys_.group
    for pt, t in zip(sample.points, grid):
        state = gamma(t)
        ref = sys_.act(grp.element(grp.unflat(state[3:])), sys_.section(state[:3]))
        assert np.array_equal(pt.g.matrix, ref.g.matrix) and np.array_equal(pt.alpha, ref.alpha)


@pytest.mark.parametrize("group_name, end", [("so3", 1.0), ("su2", 1.0), ("sl2r", 1.0), ("sl2r", 4.0)])
def test_connection_route_matches_dop853(group_name, end):
    # lam and g on the same Chebyshev panels carry the panels' accuracy to the
    # curve; four fourth-order steps per output interval were off by 2e-10 to
    # 2e-7 on [0, 1], and on [0, 4], where the sl2r factor grows to |g| of
    # about 70, the gate refused them
    b, fld, sys_ = anisotropic_scenario(group_name)
    theta = build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5])))
    p0 = PhasePoint(matrix_exp_oracle(b.group, np.array([0.2, 0.1, -0.3])), np.array([0.7, -0.4, 0.5]))
    grid = np.linspace(0.0, end, 17)
    sample = usual_reconstruct(sys_, ThetaConnection(sys_, theta), p0, grid)
    ref = solve_ivp(b.ambient_rhs(fld), (0.0, end), b.ambient_coords(p0), method="DOP853", rtol=1e-13, atol=1e-15,
                    t_eval=grid)
    gaps = [np.linalg.norm(b.ambient_coords(p) - y) / np.linalg.norm(y) for p, y in zip(sample.points, ref.y.T)]
    assert max(gaps) <= 1e-10


@pytest.mark.parametrize("grid", [[0.0, 0.5], np.linspace(0.0, 2.0, 3)])
def test_connection_route_accuracy_does_not_follow_the_output_grid(grid):
    # the route's step is its panels', not the caller's spacing: these coarse
    # grids pass the unchanged gate, where steps of a quarter interval failed it
    _b, _fld, sys_ = anisotropic_scenario("so3")
    m0 = sys_.section(np.array([0.7, -0.4, 0.5]))
    sample = usual_reconstruct(sys_, ThetaConnection(sys_, build_theta(sys_, m0)), m0, grid)
    assert len(sample.points) == len(grid)
    assert sample.diagnostics["flow_residual_max"] <= 1e-8


def test_connection_gate_rejects_a_scaled_rate(monkeypatch):
    # a 1e-4 relative error in eta moves the curve off the field's flow; the
    # gate must see it on the curve the route returns
    _b, _fld, sys_ = anisotropic_scenario("so3")
    conn = ThetaConnection(sys_, build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5]))))
    p0, _ = tstar_start()
    split = reconstruct.section_split

    def scaled(s, lams):
        eta, y = split(s, lams)
        return 1.0001 * eta, y

    monkeypatch.setattr(reconstruct, "section_split", scaled)
    with pytest.raises(ReconstructionError, match="flow-equation"):
        usual_reconstruct(sys_, conn, p0, np.linspace(0.0, 1.0, 9))


def test_connection_gate_sees_the_stored_factors(monkeypatch):
    # the integrator hands over g entries that run 0.1% fast, g(1.001 t), next
    # to the right lam(t): the curve starts at p0 but leaves the flow
    _b, _fld, sys_ = anisotropic_scenario("so3")
    conn = ThetaConnection(sys_, build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5]))))
    p0, _ = tstar_start()
    make = reconstruct._default_quotient_integrator

    def fast(s):
        def integrator(Y, state0, t_span):
            gamma, _t_reached = make(s)(Y, state0, (t_span[0], 1.001 * t_span[1]))
            return (lambda t: np.concatenate([gamma(t)[:3], gamma(1.001 * np.asarray(t))[3:]])), t_span[1]

        return integrator

    monkeypatch.setattr(reconstruct, "_default_quotient_integrator", fast)
    with pytest.raises(ReconstructionError, match="flow-equation"):
        usual_reconstruct(sys_, conn, p0, np.linspace(0.0, 1.0, 9))


def test_lifted_route_needs_free_action():
    sys_ = cached("pairs-free", make_so3_scenario)
    with pytest.raises(ReconstructionError, match="free"):
        usual_reconstruct(sys_, None, None, TS)


# -- orbit-tangent motion as a one-parameter factor --------------------------------


def test_vertical_route_cotangent_field_vs_adaptive_oracle():
    sys_ = tstar_so3()
    theta = cached("theta-tstar", lambda: build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5]))))
    p0, _ = tstar_start()
    sample = vertical_integrate(sys_, theta, p0, TS)
    assert sample.diagnostics["group_factor"] == "quadrature"
    from liequad.cotangent import build_casimir_field
    from liequad.liealg import killing_casimir

    b = so3_bundle()
    fld = build_casimir_field(b, killing_casimir(b.algebra))
    oracle = ambient_oracle(b, fld, p0, TS)
    assert max(phase_gap(a, o) for a, o in zip(sample.points, oracle)) <= 1e-6


def test_vertical_route_pair_rotation_vs_closed_form():
    sys_ = cached(
        "pairs-rotation-momentum",
        lambda: make_so3_scenario(
            field=lambda m: np.concatenate(
                [np.cross(np.cross(m[:3], m[3:]), m[:3]), np.cross(np.cross(m[:3], m[3:]), m[3:])]
            ),
            section="momentum",
        ),
    )
    m0 = sys_.section(np.array([2.0, 3.0, 1.0]))
    theta = build_theta(sys_, m0)
    p0 = sys_.act(matrix_exp_oracle(sys_.group, np.array([0.3, -0.2, 0.4])), m0)
    sample = vertical_integrate(sys_, theta, p0, TS)
    assert sample.diagnostics["group_factor"] == "quadrature"
    mu = np.cross(p0[:3], p0[3:])
    worst = 0.0
    for t, pt in zip(sample.ts, sample.points):
        R = matrix_exp_oracle(sys_.group, mu, float(t)).matrix
        worst = max(worst, np.linalg.norm(pt - np.concatenate([R @ p0[:3], R @ p0[3:]])))
    assert worst <= 1e-6


def test_vertical_route_momentum_rate_formula_matches_difference():
    sys_ = tstar_so3()
    theta = cached("theta-tstar", lambda: build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5]))))
    p0, _ = tstar_start()
    # the Killing Casimir moves the group along B^-1 of the momentum
    sec = sys_.section(sys_.project(p0))
    B = sys_.group.algebra.killing_form()
    eta = vertical_integrate(sys_, theta, p0, TS).diagnostics["eta"]
    assert np.linalg.norm(eta - np.linalg.solve(B, sys_.momentum(sec))) <= 1e-12
    assert np.linalg.norm(eta - fd_eta(sys_, theta, sec)) <= 1e-5


def test_vertical_route_stabilizer_shift_leaves_curve_fixed():
    prod = cached("product", make_product_scenario)
    mp = prod.section(np.array([1.5]))
    theta = cached("theta-product", lambda: build_theta(prod, mp))
    p0 = prod.act(matrix_exp_oracle(prod.group, np.array([0.2, -0.1, 0.3, 0.5])), mp)
    base = vertical_integrate(prod, theta, p0, TS)
    assert base.diagnostics["group_factor"] == "quadrature"
    chi_dir = isotropy_basis_at(prod, prod.section(prod.project(p0)))[:, 0]
    for scale in (1.7, -0.6):
        shifted = vertical_integrate(prod, theta, p0, TS, chi=scale * chi_dir)
        assert shifted.diagnostics["group_factor"] == "quadrature"
        gap = max(np.linalg.norm(a - b) for a, b in zip(base.points, shifted.points))
        assert gap <= 1e-8
    # free-pair states have no stabilizer to shift by
    pairs = cached("pairs-free", make_so3_scenario)
    rng = np.random.default_rng(2)
    assert isotropy_basis_at(pairs, pairs.random_point(rng)).shape[1] == 0


def test_vertical_route_rejects_quotient_moving_field():
    sys_ = fiber_rotation_scenario()
    p0, _ = tstar_start()
    with pytest.raises(VerticalityError):
        vertical_integrate(sys_, tstar_theta(), p0, TS)


def test_vertical_route_flags_series_fallback():
    # nilpotent shear direction admits no covector, so the factor comes from
    # the series oracle and says so
    def build():
        grp = make_group("heis3")
        b = CotangentBundle(grp)
        fld = InvariantField(
            b, lambda p: TangentPhaseVector(np.array([1.0, 0.0, 0.0]), np.zeros(3)), name="shear"
        )
        return make_tstar_scenario(grp, fld)

    sys_ = cached(("tstar-heis3", "shear"), build)
    alpha0 = np.array([0.4, -0.3, 0.8])
    theta = build_theta(sys_, sys_.section(alpha0))
    p0 = PhasePoint(matrix_exp_oracle(sys_.group, np.array([0.1, 0.2, -0.1])), alpha0)
    sample = vertical_integrate(sys_, theta, p0, TS)
    assert sample.diagnostics["group_factor"] == "oracle"
    assert sample.diagnostics["warnings"]
    assert sample.diagnostics["flow_residual_max"] <= 1e-5
    worst = max(
        np.linalg.norm(pt.g.matrix - (p0.g @ matrix_exp_oracle(sys_.group, np.array([1.0, 0.0, 0.0]), float(t))).matrix)
        for t, pt in zip(sample.ts, sample.points)
    )
    assert worst <= 1e-8


def product_start():
    prod = cached("product", make_product_scenario)
    mp = prod.section(np.array([1.5]))
    theta = cached("theta-product", lambda: build_theta(prod, mp))
    return prod, theta, prod.act(matrix_exp_oracle(prod.group, np.array([0.2, -0.1, 0.3, 0.5])), mp)


def test_vertical_gate_rejects_a_wrong_speed_factor(monkeypatch):
    # every factor, the gate's short ones included, runs at 1.5 times the
    # speed: the gate must see it on the emitted curve
    prod, theta, p0 = product_start()
    monkeypatch.setattr(reconstruct, "exp_general", lambda grp, xi, ts: exp_general(grp, xi, 1.5 * np.asarray(ts)))
    with pytest.raises(ReconstructionError, match="flow-equation"):
        vertical_integrate(prod, theta, p0, TS)


def test_vertical_route_rejects_a_speed_error_at_the_output_times(monkeypatch):
    # the factors run 1.5 times too fast only past t = 1e-3, where the gate's
    # offsets never look: the emitted curve is 0.88 off, yet it solves the
    # flow equation near every output time and its factors agree with their
    # steps; only a grid step squared up from its short factor sees the speed
    prod, theta, p0 = product_start()

    def fast_past_the_offsets(grp, xi, ts):
        ts = np.asarray(ts, float)
        return exp_general(grp, xi, np.where(ts > 1e-3, 1.5 * ts, ts))

    monkeypatch.setattr(reconstruct, "exp_general", fast_past_the_offsets)
    with pytest.raises(ReconstructionError, match="disagree"):
        vertical_integrate(prod, theta, p0, TS)


def test_vertical_route_rejects_one_moved_factor(monkeypatch):
    # a factor moved along its own curve still solves the flow equation
    # locally; only the agreement of neighbouring factors sees it
    prod, theta, p0 = product_start()

    def moved(grp, xi, ts):
        curve = exp_general(grp, xi, ts)
        k = int(np.argmin(np.abs(np.asarray(curve.ts) - 0.5)))
        curve.elements[k] = curve.elements[k] @ matrix_exp_oracle(grp, xi, 0.01)
        return curve

    monkeypatch.setattr(reconstruct, "exp_general", moved)
    with pytest.raises(ReconstructionError, match="disagree"):
        vertical_integrate(prod, theta, p0, TS)


@pytest.mark.parametrize("grid", [[0.0, 2.5e-6, 5e-6], np.sort(np.append(TS, 1e-7))],
                         ids=["steps-of-2.5e-6", "extra-time-1e-7"])
def test_vertical_gate_reads_the_factor_at_its_exact_offsets(grid):
    # output times closer than 2 FD_STEP: a stencil point belongs to its own
    # output time, not to the nearest one, and E is sampled at its exact offset
    prod, theta, p0 = product_start()
    sample = vertical_integrate(prod, theta, p0, grid)
    assert sample.diagnostics["flow_residual_max"] <= 1e-9


@pytest.mark.parametrize("scenario", ["product", "tstar-so3"])
def test_quadrature_vertical_route_needs_no_oracle(scenario):
    if scenario == "product":
        sys_, theta, p0 = product_start()
    else:
        sys_ = tstar_so3()
        theta = cached("theta-tstar", lambda: build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5]))))
        p0, _ = tstar_start()
    with forbid_exp_oracle():
        sample = vertical_integrate(sys_, theta, p0, TS)
    assert sample.diagnostics["group_factor"] == "quadrature"
    assert sample.diagnostics["flow_residual_max"] <= 1e-5


def test_vertical_route_checks_membership_per_stack(monkeypatch):
    # the route's factors, their products and the exponential's samples each
    # pass one stacked membership check; only a re-projected row is checked alone
    prod, theta, p0 = product_start()
    calls = []
    one = MatrixGroup.membership_residual
    monkeypatch.setattr(MatrixGroup, "membership_residual", lambda grp, m: calls.append(1) or one(grp, m))
    vertical_integrate(prod, theta, p0, TS)
    assert len(calls) <= 20


class ShiftedAtStart:
    """A factor map whose value at p0 alone is moved by exp(0.01 e3)."""

    def __init__(self, theta, p0):
        self.theta = theta
        self.p0 = p0
        grp = theta.sys.group
        self.shift = matrix_exp_oracle(grp, 0.01 * np.eye(grp.dim)[2])

    def __call__(self, m, warm=None):
        g = self.theta(m, warm=warm)
        return g @ self.shift if m is self.p0 else g

    def coords_of(self, g):
        return self.theta.coords_of(g)

    def factors(self, ms, warm=None):
        return [g @ self.shift if m is self.p0 else g for m, g in zip(ms, self.theta.factors(ms, warm))]


@pytest.mark.parametrize("route", ["two-step", "connection", "vertical"])
def test_every_route_rejects_a_curve_off_the_initial_point(route):
    # the moved factor yields an integral curve, but not the one through p0
    grid = np.linspace(0.0, 1.0, 9)
    if route == "two-step":
        sys_ = cached("pairs-momentum", lambda: make_so3_scenario(section="momentum"))
        theta = cached("theta-pairs-momentum", lambda: build_theta(sys_, sys_.section(np.array([2.0, 3.0, 1.0]))))
        p0, _, _ = pair_start(sys_)
    elif route == "connection":
        _b, _fld, sys_ = anisotropic_scenario("so3")
        theta = build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5])))
        p0, _ = tstar_start()
    else:
        sys_, theta, p0 = product_start()
    shifted = ShiftedAtStart(theta, p0)
    with pytest.raises(ReconstructionError, match="does not start"):
        if route == "two-step":
            two_step_reconstruct(sys_, shifted, p0, grid)
        elif route == "connection":
            usual_reconstruct(sys_, ThetaConnection(sys_, shifted), p0, grid)
        else:
            vertical_integrate(sys_, shifted, p0, grid)


class ShiftedOffStart(ShiftedAtStart):
    """A factor map moved by exp(0.01 e3) at every point but p0, in its stacked solve too."""

    def __call__(self, m, warm=None):
        return self.factors([m], warm)[0]

    def factors(self, ms, warm=None):
        return [g if m is self.p0 else g @ self.shift for m, g in zip(ms, self.theta.factors(ms, warm))]


def pairs_momentum():
    sys_ = cached("pairs-momentum", lambda: make_so3_scenario(section="momentum"))
    theta = cached("theta-pairs-momentum", lambda: build_theta(sys_, sys_.section(np.array([2.0, 3.0, 1.0]))))
    return sys_, theta, pair_start(sys_)[0]


def test_two_step_drift_audit_rejects_a_moved_factor():
    # the curve starts at p0 and solves the flow equation; only the stacked
    # solve of the emitted points' factors sees that they are not g0
    sys_, theta, p0 = pairs_momentum()
    with pytest.raises(ReconstructionError, match="drifted"):
        two_step_reconstruct(sys_, ShiftedOffStart(theta, p0), p0, np.linspace(0.0, 1.0, 9))


def test_two_step_evaluates_the_quotient_curve_once_per_output_time():
    # one call per emitted point and one stacked call for the gate's offsets
    sys_, theta, p0 = pairs_momentum()
    inner = _default_quotient_integrator(sys_)
    calls = []

    def counted(Y, lam0, t_span):
        gamma, t_reached = inner(Y, lam0, t_span)

        def counted_gamma(t):
            calls.append(t)
            return gamma(t)

        return counted_gamma, t_reached

    two_step_reconstruct(sys_, theta, p0, TS, quotient_integrator=counted)
    assert len(calls) <= len(TS) + 1


def route_runner(route):
    """The route's call on a grid, from its test scenario and start."""
    if route == "two-step":
        sys_, theta, p0 = pairs_momentum()
        return lambda grid: two_step_reconstruct(sys_, theta, p0, grid)
    if route == "connection":
        _b, _fld, sys_ = anisotropic_scenario("so3")
        conn = ThetaConnection(sys_, build_theta(sys_, sys_.section(np.array([0.7, -0.4, 0.5]))))
        p0, _ = tstar_start()
        return lambda grid: usual_reconstruct(sys_, conn, p0, grid)
    sys_, theta, p0 = product_start()
    return lambda grid: vertical_integrate(sys_, theta, p0, grid)


@pytest.mark.parametrize("route", ["two-step", "connection", "vertical"])
def test_every_route_calls_its_group_factor_once(route, monkeypatch):
    # the shared tail asks for the output times and the gate's stencil points together
    run = route_runner(route)
    calls, certified = [], reconstruct._certified

    def counted(sys_, p0, ts, factor, *args, **kwargs):
        return certified(sys_, p0, ts, lambda *a: calls.append(1) or factor(*a), *args, **kwargs)

    monkeypatch.setattr(reconstruct, "_certified", counted)
    run(np.linspace(0.0, 1.0, 9))
    assert len(calls) == 1


@pytest.mark.parametrize("route", ["two-step", "connection", "vertical"])
def test_gate_reads_its_curve_through_one_stacked_act(route, monkeypatch):
    # the tail builds the whole curve, the emitted points and the gate's, with
    # one stacked action of the route's factors, and acts on no point alone
    run = route_runner(route)
    certified, calls = reconstruct._certified, []

    def spied(sys_, p0, ts, factor, *args, **kwargs):
        made, actions, act = [], sys_.actions, type(sys_).act

        def kept(*a):
            made.append(factor(*a))
            return made[-1]

        def stacked(gs, points):
            calls.append(("stacked", any(gs is f for f in made), len(points)))
            return actions(gs, points)

        def one_point(self, g, m):
            calls.append(("one-point",))
            return act(self, g, m)

        monkeypatch.setattr(sys_, "actions", stacked)
        monkeypatch.setattr(type(sys_), "act", one_point)
        try:
            return certified(sys_, p0, ts, kept, *args, **kwargs)
        finally:
            monkeypatch.setattr(sys_, "actions", actions)
            monkeypatch.setattr(type(sys_), "act", act)

    monkeypatch.setattr(reconstruct, "_certified", spied)
    sample = run(np.linspace(0.0, 1.0, 9))
    curve = [c for c in calls if c[0] == "stacked" and c[1]]
    assert len(curve) == 1 and curve[0][2] > len(sample.points)
    assert ("one-point",) not in calls


@pytest.mark.parametrize("route", ["two-step", "connection", "vertical"])
def test_every_route_rejects_bad_output_times(route, monkeypatch):
    # a time that is not finite or steps back is refused before any solve
    run = route_runner(route)
    splits, split = [], reconstruct.section_split
    monkeypatch.setattr(reconstruct, "section_split", lambda *args: splits.append(args) or split(*args))
    for grid, bad in ((np.linspace(0.0, -1.0, 9), 1), ([0.0, 0.5, 0.25, 1.0], 2), ([0.0, np.nan, 1.0], 1)):
        with pytest.raises(ValueError, match=rf"output time ts\[{bad}\]"):
            run(grid)
    # a span shorter than the gate's stencil leaves the gate nothing to certify
    for grid in ([], [0.0], [0.0, 0.0, 0.0], [0.0, 1e-7]):
        with pytest.raises(ValueError, match="span less than the gate's stencil"):
            run(grid)
    assert not splits


# -- projected dynamics and the gate ------------------------------------------------


def test_projected_field_well_defined_on_quotient():
    rng = np.random.default_rng(6)
    sys_ = cached("pairs-momentum", lambda: make_so3_scenario(section="momentum"))
    for _ in range(8):
        assert projected_field_defect(sys_, sys_.random_point(rng)) <= 1e-8
    ct = fiber_rotation_scenario()
    for _ in range(8):
        assert projected_field_defect(ct, ct.random_point(rng)) <= 1e-8


def test_flow_gate_flags_wrong_curve():
    sys_ = cached("pairs-momentum", lambda: make_so3_scenario(section="momentum"))
    p0, _, _ = pair_start(sys_)

    def drifted(ts):
        out = []
        for t in ts:
            m = np.array(p0)
            m[:3] = p0[:3] + 0.9 * t * p0[3:]
            out.append(m)
        return out

    assert flow_residual_rows(sys_, drifted(TS), drifted(TS + FD_STEP), drifted(TS - FD_STEP)).max() > 1e-2
