"""The fiber-quadrature kernel: nested Lobatto-Kronrod panels with local bisection."""

import numpy as np
import pytest

from liequad.cotangent import CotangentBundle, PhasePoint, build_casimir_field
from liequad.expquad import exp_semisimple
from liequad.hjsolver import (
    LK_KRONROD,
    LK_LOBATTO,
    LK_NODES,
    QUAD_MAX_PANELS,
    QUAD_TOL,
    CompleteSolutionChart,
    integrate_by_quadratures,
)
from liequad.liealg import killing_casimir
from liequad.liegroup import (
    CayleyChart,
    ChartDomainError,
    forbid_exp_oracle,
    make_group,
    matrix_exp_oracle,
)


def casimir_chart(key, a0=(0.7, -0.2, 0.4)):
    b = CotangentBundle(make_group(key))
    X = build_casimir_field(b, killing_casimir(b.algebra))
    return CompleteSolutionChart(b, X, PhasePoint(b.group.identity(), np.array(a0)))


@pytest.fixture(scope="module")
def chart():
    return casimir_chart("so3")


class Counted:
    """A vector integrand on [0, 1] from a scalar one, recording each abscissa it was given."""

    def __init__(self, f):
        self.f = f
        self.at = []

    def __call__(self, s):
        self.at.extend(s)
        return np.array([self.f(x) for x in s])


def test_rule_degrees():
    # Kronrod exact to degree 9, Lobatto to degree 5, so the gap vanishes
    # on degree 5 and not on degree 6
    for d in range(10):
        assert abs(LK_KRONROD @ LK_NODES**d - 1.0 / (d + 1)) <= 1e-15
    for d in range(6):
        assert abs(LK_LOBATTO @ LK_NODES**d - 1.0 / (d + 1)) <= 1e-15
    assert abs(LK_LOBATTO @ LK_NODES**6 - 1.0 / 7.0) > 1e-4
    assert np.all(np.diff(LK_NODES) > 0) and LK_NODES[0] == 0.0 and LK_NODES[-1] == 1.0


@pytest.mark.parametrize("degree", range(10))
def test_one_panel_integrates_degree_nine(chart, degree):
    # scaled so that the Kronrod-Lobatto gap passes the tolerance at once
    scale = 1e-12
    f = Counted(lambda s: scale * (degree + 1) * s**degree)
    assert abs(chart._segment_quad(f) / scale - 1.0) <= 1e-14
    assert len(f.at) == 7


@pytest.mark.parametrize("degree", [5, 6])
def test_estimate_is_nonzero_from_degree_six(chart, degree):
    # at this scale a one-panel estimate of the degree-6 size fails the
    # tolerance, so only a nonzero estimate makes the kernel split
    f = Counted(lambda s: 1e-8 * (degree + 1) * s**degree)
    assert abs(chart._segment_quad(f) / 1e-8 - 1.0) <= 1e-14
    assert (len(f.at) > 7) == (degree == 6)


def test_evaluation_counts(chart):
    line = Counted(lambda s: np.array([s, 2.0 - s]))
    chart._segment_quad(line)
    assert len(line.at) == 7
    line.at = []
    chart._segment_quad(line, (line.f(0.0), line.f(1.0)))
    assert len(line.at) == 1
    assert line.at == sorted(line.at) and 0.0 < line.at[0] and line.at[-1] < 1.0
    # each split evaluates the two half panels' interiors only: the parent's
    # ends and its centre node are the halves' ends
    for ends in (None, (0.0, 7e-8)):
        sixth = Counted(lambda s: 7e-8 * s**6)
        assert abs(chart._segment_quad(sixth, ends) / 1e-8 - 1.0) <= 1e-14
        first = 7 if ends is None else 5
        assert len(sixth.at) > first and (len(sixth.at) - first) % 10 == 0
        assert len(set(sixth.at)) == len(sixth.at)


def test_trapezoid_when_the_ends_agree(chart):
    def never(_s):
        raise AssertionError("the trapezoid path evaluates nothing")

    f0 = np.array([0.3, -1.2])
    f1 = f0 + np.array([1e-13, -1e-13])
    assert np.array_equal(chart._segment_quad(never, (f0, f1)), 0.5 * (f0 + f1))


def test_simpson_rung_settles_a_cubic_on_the_centre_node(chart):
    # S - T = 5e-13 passes the tolerance while the trapezoid's half-gap (2)
    # does not; Simpson is exact on cubics, the trapezoid 5e-13 off
    eps = 1e-12
    cubic = Counted(lambda s: 2.0 * s + (2.0 * s - 1.0) ** 3 + 3.0 * eps * s**2)
    value = chart._segment_quad(cubic, (cubic.f(0.0), cubic.f(1.0)))
    assert cubic.at == [0.5]
    assert abs(value - (1.0 + eps)) <= 1e-15


def test_failed_simpson_rung_reuses_its_centre_node(chart):
    quartic = Counted(lambda s: 5.0 * s**4)
    value = chart._segment_quad(quartic, (0.0, 5.0))
    assert abs(value - 1.0) <= 1e-15
    assert len(quartic.at) == 5 and len(set(quartic.at)) == 5
    assert quartic.at[0] == 0.5 and 0.0 not in quartic.at and 1.0 not in quartic.at


def test_long_refinement_within_the_cap_is_unchanged(chart):
    # 12 panels, as before the predicted-exhaustion exit: the prediction
    # stays under the cap at every step
    c = 2.0
    f = Counted(lambda s: 1.0 / (1.0 + c - s))
    assert abs(chart._segment_quad(f) - np.log((1.0 + c) / c)) <= QUAD_TOL
    assert len(f.at) == 7 + 10 * 11 and 11 < QUAD_MAX_PANELS


def test_exit_gives_up_on_a_slow_convergent_integrand(chart):
    """The exit's known edge case: log(1 + s) used to converge on exactly the
    16th panel.  Local bisection beats the uniform-halving prediction, which
    reads 14.2, 15.2 and then 16.3 panels, so the kernel now raises after its
    third panel.  Callers treat the raise as a domain failure and halve the
    step, whose shorter segments converge."""
    f = Counted(np.log1p)
    with pytest.raises(ChartDomainError, match="quadrature refinement exhausted"):
        chart._segment_quad(f)
    assert len(f.at) == 7 + 10 * 2
    half = chart._segment_quad(lambda s: 0.5 * np.log1p(0.5 * s))
    assert abs(half - (1.5 * np.log(1.5) - 0.5)) <= QUAD_TOL


def test_singular_integrand_fails_at_the_panel_cap(chart):
    # the first panel's estimate predicts more than QUAD_MAX_PANELS panels
    f = Counted(np.sqrt)
    with pytest.raises(ChartDomainError, match="quadrature"):
        chart._segment_quad(f)
    assert len(f.at) == 7


def test_segments_are_refined_together(chart):
    # each of m segments gets the value and the abscissae it gets alone, one
    # integrand call holds every open segment's new abscissae, and a segment
    # that gives up comes back NaN without failing the others
    scalars = [lambda s: 1e-12 * s**3, lambda s: 7e-8 * s**6, np.sqrt, lambda s: 1.0 / (3.0 - s)]
    alone = []
    for f in scalars:
        one = Counted(f)
        try:
            value = chart._segment_quad(one)
        except ChartDomainError:
            value = np.nan
        alone.append((value, sorted(one.at)))
    calls, seen = [], [[] for _ in scalars]

    def integrand(seg, s):
        calls.append(sorted(set(seg.tolist())))
        for j, x in zip(seg, s):
            seen[j].append(x)
        return np.array([scalars[j](x) for j, x in zip(seg, s)])

    values = chart._segment_quad(integrand, segments=len(scalars))
    for (value, at), got, abscissae in zip(alone, values, seen):
        assert (np.isnan(value) and np.isnan(got)) or got == value
        assert sorted(abscissae) == at
    assert calls[0] == [0, 1, 2, 3] and len(calls) == max(1 + (len(at) - 7) // 10 for _v, at in alone)


def test_partial_stack_returns_the_failed_rows_as_none():
    c = casimir_chart("so3")
    zl = np.zeros(c.ell)
    ns = np.linspace(0.05, 0.2, 4)[:, None] * np.ones(c.k)
    far = ns.copy()
    far[2] = 1e3
    far[1] = np.nan
    nodes = c._node(zl, far, partial=True)
    assert nodes[1] is None and nodes[2] is None
    for q, one in zip([nodes[0], nodes[3]], c._node(zl, ns[[0, 3]])):
        assert np.array_equal(q.x, one.x) and np.array_equal(q.inv, one.inv)


def test_partial_stack_returns_a_singular_row_as_none(monkeypatch):
    # a singular system fails its own row only, not the stacked inversion
    c = casimir_chart("so3")
    zl = np.zeros(c.ell)
    ns = np.linspace(0.05, 0.2, 4)[:, None] * np.ones(c.k)
    alone = c._node(zl, ns[[0, 2, 3]])
    evaluate = c._evaluate

    def singular(lam, n, X):
        r, gs, S, minv = evaluate(lam, n, X)
        S[np.all(n == ns[1], axis=1)] = 0.0
        return r, gs, S, minv

    monkeypatch.setattr(c, "_evaluate", singular)
    nodes = c._node(zl, ns, partial=True)
    assert nodes[1] is None
    for q, one in zip([nodes[0], nodes[2], nodes[3]], alone):
        assert np.array_equal(q.x, one.x) and np.array_equal(q.inv, one.inv)
    with pytest.raises(ValueError, match="not finite"):
        c._node(zl, ns)


@pytest.mark.parametrize("key", ["so3", "su2", "sl2r"])
def test_integrand_is_the_linearizing_jacobian(key):
    c = casimir_chart(key)
    rng = np.random.default_rng(11)
    zl = np.zeros(c.ell)
    for _ in range(3):
        node = c._node(0.02 * rng.standard_normal(c.ell), 0.2 * rng.standard_normal(c.k))
        dn = rng.standard_normal(c.k)
        direct = -(node.lam_body().T @ node.omat @ node.tangent(dn, zl).concat())
        assert np.linalg.norm(c.linearizing_jacobian(node) @ dn - direct) <= 1e-13


@pytest.mark.parametrize("key", ["so3", "su2", "sl2r"])
def test_stacked_nodes_match_one_row_solves(key):
    c = casimir_chart(key)
    rng = np.random.default_rng(5)
    base = c._node(0.02 * rng.standard_normal(c.ell), 0.2 * rng.standard_normal(c.k))
    lams = base.lam + 0.01 * rng.standard_normal((4, c.ell))
    ns = base.n + 0.05 * rng.standard_normal((4, c.k))
    stack = c._node(lams, ns, from_node=[base] * 4)
    jacobians = c.linearizing_jacobian(stack)
    for node, jac, lam, n in zip(stack, jacobians, lams, ns):
        one = c._node(lam, n, from_node=base)
        for name in ("x", "inv", "minv"):
            assert np.max(np.abs(getattr(node, name) - getattr(one, name))) <= 1e-13, name
        assert np.max(np.abs(jac - c.linearizing_jacobian(one))) <= 1e-13


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
    # work-count guard: 153 node solves on the Cayley chart (193 on the graph
    # chart, 472 with the earlier 6+3-node Gauss-Legendre pair refined globally)
    count = NodeCount(monkeypatch)
    one_exponential()
    assert count.calls <= 168


def test_panel_nodes_are_solved_as_stacks(monkeypatch):
    # batching guard: the 153 nodes come from 99 kernel calls (ceiling: 10%
    # more), so a fall-back to one solve per node fails here
    count = NodeCount(monkeypatch)
    one_exponential()
    assert count.kernel_calls <= 108


def test_output_times_are_solved_as_one_stack(monkeypatch):
    # batching guard: one stacked Gauss-Newton over the chart's output times
    # takes 15 kernel calls for the 166 nodes (99 with one solve per time), so
    # a fall-back to one solve per output time fails here
    count = NodeCount(monkeypatch)
    one_exponential()
    assert count.kernel_calls <= 20


class NodeCount:
    """Counts the nodes ``CompleteSolutionChart._node`` solves while patched in, and its calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.kernel_calls = 0
        node = CompleteSolutionChart._node

        def counted(chart, *args, **kwargs):
            out = node(chart, *args, **kwargs)
            self.calls += len(out) if isinstance(out, list) else 1
            self.kernel_calls += 1
            return out

        monkeypatch.setattr(CompleteSolutionChart, "_node", counted)


def test_one_closed_form_body_matrix_per_node(monkeypatch):
    # work-count guard: the node solve reads the Cayley differential's inverse
    # in closed form, once per node, and never forms the tangent matrix
    count = NodeCount(monkeypatch)
    calls = {"tangent_coords_matrix": 0, "body_coords_matrix": 0}
    for name in calls:
        method = getattr(CayleyChart, name)

        def counted(chart, g, name=name, method=method):
            calls[name] += len(g) if isinstance(g, list) else 1
            return method(chart, g)

        monkeypatch.setattr(CayleyChart, name, counted)
    xi = np.array([0.3, -0.5, 0.4])
    exp_semisimple(make_group("so3"), 0.75 * xi / np.linalg.norm(xi), np.linspace(0.0, 1.0, 17))
    assert count.calls > 0 and calls["tangent_coords_matrix"] == 0
    assert calls["body_coords_matrix"] <= count.calls


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_node_system_raises_value_error(chart, monkeypatch, bad):
    # damped_newton and _gauss_newton take a ValueError for a failed trial;
    # the centre row meets the Newton tolerance at its predictor, so only
    # the poisoned system can fail it
    ints = chart.integrals
    evaluate = ints.evaluate

    def poisoned(*args):
        values, J = evaluate(*args)
        J[:, -1, 0] = bad
        return values, J

    monkeypatch.setattr(ints, "evaluate", poisoned)
    with pytest.raises(ValueError):
        chart._node(np.zeros(chart.ell), np.zeros(chart.k))


def test_node_solves_behind_a_long_exponential(monkeypatch):
    # work-count guard: 140 node solves with the doubling count predicted from
    # the Cayley chart's reach (673 on the graph chart, whose first attempt on
    # the full grid was thrown away)
    count = NodeCount(monkeypatch)
    exp_semisimple(make_group("so3"), np.array([0.0, 0.0, 1.0]), np.linspace(0.0, 6.0, 13))
    assert count.calls <= 154


def test_node_solves_behind_a_long_casimir_flow(monkeypatch):
    # work-count guard: 396 node solves on the Cayley chart (1239 on the graph
    # chart); the flow re-centres once on [0, 6]
    count = NodeCount(monkeypatch)
    b = CotangentBundle(make_group("so3"))
    X = build_casimir_field(b, killing_casimir(b.algebra))
    p0 = PhasePoint(b.group.identity(), np.array([0.7, -0.2, 0.4]))
    s = integrate_by_quadratures(b, X, p0, np.linspace(0.0, 6.0, 25))
    assert len(s.points) == 25 and s.diagnostics["recenters"] == 1
    assert count.calls <= 436


def test_a_casimir_flow_past_a_half_turn_recenters(monkeypatch):
    # the flow turns by about 5 rad on [0, 12], past what one Cayley chart
    # covers; 836 node solves (2673 on the graph chart)
    count = NodeCount(monkeypatch)
    b = CotangentBundle(make_group("so3"))
    X = build_casimir_field(b, killing_casimir(b.algebra))
    a0 = np.array([0.7, -0.2, 0.4])
    ts = np.linspace(0.0, 12.0, 49)
    with forbid_exp_oracle():
        s = integrate_by_quadratures(b, X, PhasePoint(b.group.identity(), a0), ts)
    assert len(s.points) == len(ts) and s.diagnostics["recenters"] >= 1
    assert count.calls <= 920
    xi = np.linalg.solve(b.algebra.killing_form(), a0)
    for t, p in zip(ts, s.points):
        assert np.linalg.norm(p.g.matrix - matrix_exp_oracle(b.group, xi, t).matrix) <= 1e-8
