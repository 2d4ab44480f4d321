"""The fiber quadrature and the flow's node solves.

The quadrature kernel integrates on Clenshaw-Curtis panels at the
Chebyshev-Lobatto points, walked outward from 0 by the ``_walk`` that also
walks the flow's time panels; the rest checks the stacked node solves and the
work they take behind a flow.
"""

import numpy as np
import pytest

from liequad.cotangent import CotangentBundle, PhasePoint, build_casimir_field
from liequad.expquad import exp_semisimple
from liequad.hjsolver import (
    TANGENCY_SAMPLES,
    CompleteSolutionChart,
    _settled,
    integrate_by_quadratures,
)
from liequad.liealg import killing_casimir
from liequad.liegroup import (
    CayleyChart,
    ChartDomainError,
    GroupElement,
    forbid_exp_oracle,
    make_group,
    matrix_exp_oracle,
)
from liequad.numutil import CHEB_DEGREE, PANEL_HALVINGS, QUAD_TOL, _walk


def casimir_chart(key, a0=(0.7, -0.2, 0.4)):
    b = CotangentBundle(make_group(key))
    X = build_casimir_field(b, killing_casimir(b.algebra))
    return CompleteSolutionChart(b, X, PhasePoint(b.group.identity(), np.array(a0)))


@pytest.fixture(scope="module")
def chart():
    return casimir_chart("so3")


def one_segment(chart, f):
    """The integral of f(s) over [0, 1], settled as the routes settle it."""
    return _settled(chart._segment_quad(f))


class Counted:
    """A vector integrand on [0, 1] from a scalar one, recording each abscissa it was given."""

    def __init__(self, f):
        self.f = f
        self.at = []

    def __call__(self, s):
        self.at.extend(s)
        return np.array([self.f(x) for x in s])


@pytest.mark.parametrize("degree", range(CHEB_DEGREE))
def test_one_panel_integrates_degree_fifteen(chart, degree):
    # Clenshaw-Curtis on 17 points is exact through degree 16; scaled so that
    # the Chebyshev tail passes the tolerance at once
    scale = 1e-12
    f = Counted(lambda s: scale * (degree + 1) * s**degree)
    assert abs(one_segment(chart, f) / scale - 1.0) <= 1e-14
    assert len(f.at) == CHEB_DEGREE + 1


@pytest.mark.parametrize("f, exact", [
    (lambda s: 1.0 / (3.0 - s), np.log(1.5)),
    (np.log1p, 2.0 * np.log(2.0) - 1.0),
])
def test_analytic_integrands_converge_in_one_panel(chart, f, exact):
    # both are analytic on a Bernstein ellipse around [0, 1] wide enough for
    # 17 points to reach QUAD_TOL
    f = Counted(f)
    assert abs(one_segment(chart, f) - exact) <= QUAD_TOL
    assert len(f.at) == CHEB_DEGREE + 1


def test_singular_integrand_gives_up_after_the_last_halving(chart):
    # sqrt is not analytic at 0, so every panel from [0, 1] down to
    # [0, 2**-PANEL_HALVINGS] is refused, and the walk reaches nothing
    f = Counted(np.sqrt)
    assert np.isnan(chart._segment_quad(f))
    assert len(f.at) == (PANEL_HALVINGS + 1) * (CHEB_DEGREE + 1)
    assert min(f.at) == 0.0 and max(f.at[-(CHEB_DEGREE + 1):]) == 0.5**PANEL_HALVINGS
    with pytest.raises(ChartDomainError, match="quadrature"):
        one_segment(chart, np.sqrt)


def test_a_failed_row_refuses_its_panel(chart):
    # one NaN value, as a node row that fails reads, refuses the first panel;
    # its halves are integrated as usual
    calls = []

    def integrand(s):
        calls.append(s)
        values = np.cos(s)
        if len(calls) == 1:
            values[5] = np.nan
        return values

    assert abs(one_segment(chart, integrand) - np.sin(1.0)) <= QUAD_TOL
    assert [(s[0], s[-1]) for s in calls] == [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0)]


def test_a_node_row_past_the_chart_fails_the_quadrature(chart):
    # the fiber segment runs far past the Cayley boundary: its rows fail,
    # every panel is refused, and the linearizing map raises the typed error
    with pytest.raises(ChartDomainError, match="quadrature"):
        chart.linearizing_map(np.zeros(chart.ell), 1e3 * np.ones(chart.k))


@pytest.mark.parametrize("end", [1.0, -1.0])
def test_walk_halves_a_refused_panel(end):
    # panels wider than 0.3 are refused: the whole span and its half, then
    # quarters out to the end, each as wide as the last accepted one
    calls = []

    def panel(a, b):
        calls.append((a, b))
        return "ok" if abs(b - a) <= 0.3 else None

    walked = [(a, b) for a, b, _result in _walk(end, panel)]
    quarters = [(end * q, end * (q + 0.25)) for q in (0.0, 0.25, 0.5, 0.75)]
    assert walked == quarters
    assert calls == [(0.0, end), (0.0, 0.5 * end)] + quarters


def test_walk_stops_after_the_last_halving():
    # panels that end past 0.6 are refused, so the walk closes in on 0.6 and
    # stops at the refusal after its PANEL_HALVINGS-th halving
    refused = []

    def panel(a, b):
        if b > 0.6:
            refused.append((a, b))
            return None
        return b - a

    walked = list(_walk(1.0, panel))
    assert len(refused) == PANEL_HALVINGS + 1
    assert refused[-1][1] - refused[-1][0] == 0.5**PANEL_HALVINGS
    assert walked[0] == (0.0, 0.5, 0.5) and all(w[1] == v[0] for w, v in zip(walked, walked[1:]))
    assert 0.6 - 0.5**PANEL_HALVINGS < walked[-1][1] <= 0.6


def test_nothing_to_walk():
    assert list(_walk(0.0, None)) == []


def test_partial_stack_returns_the_failed_rows_as_none():
    c = casimir_chart("so3")
    zl = np.zeros(c.ell)
    ns = np.linspace(0.05, 0.2, 4)[:, None] * np.ones(c.k)
    far = ns.copy()
    far[2] = 1e3
    far[1] = np.nan
    rows = c._node(zl, far, partial=True)
    assert rows[1] == -1 and rows[2] == -1
    for q, one in zip(rows[[0, 3]], c._node(zl, ns[[0, 3]])):
        for name in ("x", "inv"):
            assert np.array_equal(getattr(c.nodes, name)[q], getattr(c.nodes, name)[one]), name


def test_partial_stack_returns_a_singular_row_as_none(monkeypatch):
    # a singular system fails its own row only, not the stacked inversion
    c = casimir_chart("so3")
    zl = np.zeros(c.ell)
    ns = np.linspace(0.05, 0.2, 4)[:, None] * np.ones(c.k)
    alone = c._node(zl, ns[[0, 2, 3]])
    evaluate = c._evaluate

    def singular(lam, n, X):
        r, S, minv = evaluate(lam, n, X)
        S[np.all(n == ns[1], axis=1)] = 0.0
        return r, S, minv

    monkeypatch.setattr(c, "_evaluate", singular)
    rows = c._node(zl, ns, partial=True)
    assert rows[1] == -1
    for q, one in zip(rows[[0, 2, 3]], alone):
        for name in ("x", "inv"):
            assert np.array_equal(getattr(c.nodes, name)[q], getattr(c.nodes, name)[one]), name
    with pytest.raises(ValueError, match="not finite"):
        c._node(zl, ns)


@pytest.mark.parametrize("key", ["so3", "su2", "sl2r"])
def test_integrand_is_the_linearizing_jacobian(key):
    c = casimir_chart(key)
    rng = np.random.default_rng(11)
    zl = np.zeros(c.ell)
    for _ in range(3):
        i = c._node(0.02 * rng.standard_normal(c.ell), [0.2 * rng.standard_normal(c.k)])[0]
        dn = rng.standard_normal(c.k)
        body = c.nodes.body[i]
        omat = c.bundle.omega_matrix(c._phase_point(i))
        direct = -(body[:, c.k :].T @ omat @ (body @ np.concatenate([dn, zl])))
        assert np.linalg.norm(c.linearizing_jacobian([i])[0] @ dn - direct) <= 1e-13


@pytest.mark.parametrize("key", ["so3", "su2", "sl2r"])
def test_stacked_nodes_match_one_row_solves(key):
    c = casimir_chart(key)
    rng = np.random.default_rng(5)
    base = c._node(0.02 * rng.standard_normal(c.ell), [0.2 * rng.standard_normal(c.k)])[0]
    lams = c.nodes.lam[base] + 0.01 * rng.standard_normal((4, c.ell))
    ns = c.nodes.n[base] + 0.05 * rng.standard_normal((4, c.k))
    stack = c._node(lams, ns, from_node=np.full(4, base))
    jacobians = c.linearizing_jacobian(stack)
    for row, jac, lam, n in zip(stack, jacobians, lams, ns):
        one = c._node(lam, [n], from_node=np.array([base]))[0]
        for name in ("x", "inv", "body"):
            rows = getattr(c.nodes, name)
            assert np.max(np.abs(rows[row] - rows[one])) <= 1e-13, name
        assert np.max(np.abs(jac - c.linearizing_jacobian([one])[0])) <= 1e-13


@pytest.mark.parametrize("key", ["so3", "su2", "sl2r"])
def test_one_failed_row_fails_the_stack(key):
    c = casimir_chart(key)
    zl = np.zeros(c.ell)
    ns = np.linspace(0.05, 0.2, 4)[:, None] * np.ones(c.k)
    far = ns.copy()
    far[2] = 1e3  # predicted far past the Cayley boundary
    with pytest.raises(ChartDomainError):
        c._node(zl, far)
    bad = ns.copy()
    bad[1] = np.nan
    with pytest.raises(ValueError):
        c._node(zl, bad)


def one_exponential():
    xi = np.array([0.3, -0.5, 0.4])
    exp_semisimple(make_group("so3"), 0.75 * xi / np.linalg.norm(xi), np.linspace(0.0, 1.0, 17))


def test_node_solves_behind_one_exponential(monkeypatch):
    # work-count guard: 79 node solves on one Chebyshev time panel [0, 1], 16
    # rows in each of its 4 rounds and 15 output rows: 14 output times and
    # the rate-drift probe at +RATE_DRIFT_DT, interpolated in the same panel;
    # the output times 0.5 and 1 lie on panel rows and take them (110 when
    # the probe walked a panel of its own behind the centre, 113 when the
    # times on panel rows were solved again, 164 with the chained
    # Gauss-Newton, 193 on the graph chart); the ceiling is 10% more
    count = NodeCount(monkeypatch)
    one_exponential()
    assert count.calls <= 87


def test_panel_nodes_are_solved_as_stacks(monkeypatch):
    # batching guard: the 79 nodes come from 5 kernel calls, one per panel
    # round and one for the output rows (ceiling: 10% more, rounded down), so
    # a fall-back to one solve per node, or a panel walked for the probe
    # alone (7 calls), fails here
    count = NodeCount(monkeypatch)
    one_exponential()
    assert count.kernel_calls <= 5


def test_output_times_are_solved_as_one_stack(monkeypatch):
    # batching guard: the chart's output rows are one node stack after the
    # panels, 5 kernel calls in all, so a fall-back to one solve per output
    # time (17 more calls) fails here
    count = NodeCount(monkeypatch)
    one_exponential()
    assert count.kernel_calls <= 20


def test_one_fiber_solve_behind_one_exponential(monkeypatch):
    # work-count guard: the rate-drift probe is one more output time of the
    # chart's fiber solve, at +RATE_DRIFT_DT inside the panel [0, 1] that the
    # output times walk, so the exponential makes one fiber solve and 5
    # kernel calls
    solves = []
    gauss_newton = CompleteSolutionChart._gauss_newton

    def counted(chart, *args):
        solves.append(chart)
        return gauss_newton(chart, *args)

    monkeypatch.setattr(CompleteSolutionChart, "_gauss_newton", counted)
    count = NodeCount(monkeypatch)
    one_exponential()
    assert len(solves) == 1 and count.kernel_calls <= 5


class NodeCount:
    """Counts the nodes ``CompleteSolutionChart._node`` solves while patched in, and its calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.kernel_calls = 0
        node = CompleteSolutionChart._node

        def counted(chart, *args, **kwargs):
            out = node(chart, *args, **kwargs)
            self.calls += len(out)
            self.kernel_calls += 1
            return out

        monkeypatch.setattr(CompleteSolutionChart, "_node", counted)


@pytest.mark.parametrize("key", ["so3", "su2", "sl2r"])
def test_phase_points_behind_one_exponential(monkeypatch, key):
    # work-count guard: the chart keeps its solved points as rows of arrays and
    # builds a phase point only where one leaves it (the 17 samples, the two
    # flow-rate field calls, the tangency check's 9), 29 in all (164-174 with
    # one per solved node); the ceiling is 10% more
    built = []
    post_init = PhasePoint.__post_init__

    def counted(p):
        built.append(p)
        post_init(p)

    monkeypatch.setattr(PhasePoint, "__post_init__", counted)
    xi = np.array([0.3, -0.5, 0.4])
    exp_semisimple(make_group(key), 0.75 * xi / np.linalg.norm(xi), np.linspace(0.0, 1.0, 17))
    assert 0 < len(built) <= 32


@pytest.mark.parametrize("key", ["so3", "su2", "sl2r"])
def test_group_elements_behind_one_exponential(monkeypatch, key):
    # work-count guard: inside the chart solve group parts stay stacked arrays,
    # and an element is built only where a point leaves the chart; 46 in all
    # (181-191 with one element per chart inversion row)
    built = []
    init = GroupElement.__init__

    def counted(g, *args, **kwargs):
        built.append(g)
        init(g, *args, **kwargs)

    monkeypatch.setattr(GroupElement, "__init__", counted)
    xi = np.array([0.3, -0.5, 0.4])
    exp_semisimple(make_group(key), 0.75 * xi / np.linalg.norm(xi), np.linspace(0.0, 1.0, 17))
    assert 0 < len(built) <= 50


@pytest.mark.parametrize("key", ["so3", "su2", "sl2r"])
def test_fiber_rows_need_no_newton(monkeypatch, key):
    # every row of the exponential's fiber solve lies on the centre's 1-D
    # fiber, a one-parameter subgroup and so a straight line in Cayley
    # coordinates: the first-order predictor lands on it, and no row is
    # handed to the chart inversion
    inverted = []
    invert = CompleteSolutionChart.invert

    def counted(chart, lam, *args, **kwargs):
        inverted.append(len(lam))
        return invert(chart, lam, *args, **kwargs)

    monkeypatch.setattr(CompleteSolutionChart, "invert", counted)
    count = NodeCount(monkeypatch)
    xi = np.array([0.3, -0.5, 0.4])
    exp_semisimple(make_group(key), 0.75 * xi / np.linalg.norm(xi), np.linspace(0.0, 1.0, 17))
    assert count.calls > 0 and inverted == []


def test_one_closed_form_body_matrix_per_node(monkeypatch):
    # work-count guard: the node solve reads the Cayley differential's inverse
    # in closed form, one stacked row per node, and never forms the tangent
    # matrix; the tangency check's stack of sampled points is the only other
    # caller of the stacked body matrices
    count = NodeCount(monkeypatch)
    calls = {"tangent": 0, "rows": 0}
    tangent, stacked = CayleyChart.tangent_coords_matrix, CayleyChart.body_and_coadjoint

    def counted_tangent(chart, g):
        calls["tangent"] += 1
        return tangent(chart, g)

    def counted_rows(chart, gs, ginvs):
        calls["rows"] += len(gs)
        return stacked(chart, gs, ginvs)

    monkeypatch.setattr(CayleyChart, "tangent_coords_matrix", counted_tangent)
    monkeypatch.setattr(CayleyChart, "body_and_coadjoint", counted_rows)
    xi = np.array([0.3, -0.5, 0.4])
    exp_semisimple(make_group("so3"), 0.75 * xi / np.linalg.norm(xi), np.linspace(0.0, 1.0, 17))
    assert count.calls > 0 and calls["tangent"] == 0
    assert 0 < calls["rows"] <= count.calls + TANGENCY_SAMPLES + 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_node_system_raises_value_error(chart, monkeypatch, bad):
    # invert's damped_newton takes a ValueError for a failed trial;
    # the centre row meets the Newton tolerance at its predictor, so only
    # the poisoned system can fail it.  The poison reaches the chart's
    # reduced Jacobian in its last momentum column, which no Cayley body
    # matrix multiplies: an inf there times a zero would warn first
    jacobians = chart.bundle.momentum_pair_jacobians

    def poisoned(*args):
        J = jacobians(*args)
        J[:, -1, -1] = bad
        return J

    monkeypatch.setattr(chart.bundle, "momentum_pair_jacobians", poisoned)
    with pytest.raises(ValueError):
        chart._node(np.zeros(chart.ell), np.zeros((1, chart.k)))


def test_node_solves_behind_a_long_exponential(monkeypatch):
    # work-count guard: 75 node solves with the doubling count predicted from
    # the Cayley chart's reach (106 when the rate-drift probe walked a panel
    # of its own, 109 when output times on panel rows were solved again, 128
    # with the chained Gauss-Newton, 673 on the graph chart, whose first
    # attempt on the full grid was thrown away); the ceiling is 10% more
    count = NodeCount(monkeypatch)
    exp_semisimple(make_group("so3"), np.array([0.0, 0.0, 1.0]), np.linspace(0.0, 6.0, 13))
    assert count.calls <= 82


def test_node_solves_behind_a_long_casimir_flow(monkeypatch):
    # work-count guard: 182 node solves on Chebyshev time panels (244 when
    # the rate-drift probe walked a panel of its own, 250 when output times on
    # panel rows were solved again, 396 with the chained Gauss-Newton, 1239
    # on the graph chart); the flow re-centres once on [0, 6], and the
    # ceiling is 10% more
    count = NodeCount(monkeypatch)
    b = CotangentBundle(make_group("so3"))
    X = build_casimir_field(b, killing_casimir(b.algebra))
    p0 = PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4]))
    s = integrate_by_quadratures(b, X, p0, np.linspace(0.0, 6.0, 25))
    assert len(s.points) == 25 and s.diagnostics["recenters"] == 1
    assert count.calls <= 200


def test_a_casimir_flow_past_a_half_turn_recenters(monkeypatch):
    # the flow turns by about 5 rad on [0, 12], past what one Cayley chart
    # covers; 364 node solves on Chebyshev time panels (488 when the
    # rate-drift probe walked a panel of its own, 500 when output times on
    # panel rows were solved again, 792 with the chained Gauss-Newton, 2673 on
    # the graph chart), and the ceiling is 10% more
    count = NodeCount(monkeypatch)
    b = CotangentBundle(make_group("so3"))
    X = build_casimir_field(b, killing_casimir(b.algebra))
    a0 = np.array([0.7, -0.2, 0.4])
    ts = np.linspace(0.0, 12.0, 49)
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, PhasePoint(b.group.identity(), a0), ts)
    assert len(s.points) == len(ts) and s.diagnostics["recenters"] >= 1
    assert count.calls <= 400
    xi = np.linalg.solve(b.algebra.killing_form(), a0)
    for t, p in zip(ts, s.points):
        assert np.linalg.norm(p.g.matrix - matrix_exp_oracle(b.group, xi, t).matrix) <= 1e-8
