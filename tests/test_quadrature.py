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
    CompleteSolutionChart,
)
from liequad.liealg import killing_casimir
from liequad.liegroup import ChartDomainError, make_group


def casimir_chart(key, a0=(0.7, -0.2, 0.4)):
    b = CotangentBundle(make_group(key))
    X = build_casimir_field(b, killing_casimir(b.algebra))
    return CompleteSolutionChart(b, X, PhasePoint(b.group.identity(), np.array(a0)))


@pytest.fixture(scope="module")
def chart():
    return casimir_chart("so3")


class Counted:
    """An integrand on [0, 1] that records where it was evaluated."""

    def __init__(self, f):
        self.f = f
        self.at = []

    def __call__(self, s):
        self.at.append(s)
        return self.f(s)


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
    assert len(line.at) == 5
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


def test_singular_integrand_fails_at_the_panel_cap(chart):
    f = Counted(np.sqrt)
    with pytest.raises(ChartDomainError, match="quadrature"):
        chart._segment_quad(f)
    assert len(f.at) == 7 + 10 * (QUAD_MAX_PANELS - 1)


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


def test_node_solves_behind_one_exponential(monkeypatch):
    # work-count guard: 229 node solves with the nested kernel (472 with the
    # earlier 6+3-node Gauss-Legendre pair refined globally)
    calls = []
    node = CompleteSolutionChart._node

    def counted(self, *args, **kwargs):
        calls.append(1)
        return node(self, *args, **kwargs)

    monkeypatch.setattr(CompleteSolutionChart, "_node", counted)
    xi = np.array([0.3, -0.5, 0.4])
    exp_semisimple(make_group("so3"), 0.75 * xi / np.linalg.norm(xi), np.linspace(0.0, 1.0, 17))
    assert len(calls) <= 263
