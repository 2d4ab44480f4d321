"""The Cayley chart g = g0 cay(A(x)) on every catalogued group."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liequad.liegroup import (
    CAYLEY_RADIUS,
    CayleyChart,
    ChartDomainError,
    GroupElement,
    make_group,
    matrix_exp_oracle,
)
from liequad.numutil import central_jacobian
from liequad.reconstruct import make_product_scenario

KEYS = ["so3", "su2", "sl2r", "heis3", "rn:3", "so3xr"]
NILPOTENT_SPAN = 50.0  # |x| drawn on groups whose chart is global
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def group_for(key):
    return make_product_scenario().group if key == "so3xr" else make_group(key)


GROUPS = {key: group_for(key) for key in KEYS}


def spectral_radius(group, x):
    return float(np.max(np.abs(np.linalg.eigvals(0.5 * group.algebra_matrix(x)))))


def chart_and_point(key, seed, frac):
    """A chart at a random centre and coordinates with rho(A/2) = frac.

    Nilpotent directions have rho = 0 at every length, so there |x| is
    frac * NILPOTENT_SPAN instead.
    """
    grp = GROUPS[key]
    rng = np.random.default_rng(seed)
    chart = CayleyChart(grp, matrix_exp_oracle(grp, 0.6 * rng.standard_normal(grp.dim)))
    x = rng.standard_normal(grp.dim)
    rho = spectral_radius(grp, x)
    x *= frac / rho if rho > 1e-12 else frac * NILPOTENT_SPAN / np.linalg.norm(x)
    return grp, chart, x, rng


@pytest.mark.parametrize("key", KEYS)
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 0.9))
def test_round_trip_and_membership(key, seed, frac):
    grp, chart, x, _rng = chart_and_point(key, seed, frac)
    g = chart.from_coords(x)
    # the defining equations are at most quadratic in the entries of a 2x2 or
    # orthogonal block, so their rounding scales with |g|^2
    assert grp.membership_residual(g.matrix) <= 1e-14 * max(1.0, np.linalg.norm(g.matrix)) ** 2
    assert np.max(np.abs(chart.to_coords(g) - x)) <= 1e-12 * max(1.0, np.linalg.norm(x))


@pytest.mark.parametrize("key", KEYS)
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 0.9))
def test_tangent_matrix_is_the_differential(key, seed, frac):
    grp, chart, x, rng = chart_and_point(key, seed, frac)
    g = chart.from_coords(x)
    v = rng.standard_normal(grp.dim)
    step = grp.tangent_matrix(g, v)
    fd = central_jacobian(
        lambda s: chart.to_coords(g.matrix + s[0] * step), np.zeros(1), 1e-6, richardson=True
    )[:, 0]
    exact = chart.tangent_coords_matrix(g) @ v
    # the difference quotient's rounding grows with the entries of g, which
    # reach |x|^2 on the global nilpotent charts
    scale = max(1.0, np.linalg.norm(g.matrix)) ** 2 * max(1.0, np.linalg.norm(exact))
    assert np.linalg.norm(exact - fd) <= 1e-9 * scale


@pytest.mark.parametrize("key", KEYS)
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.0, 0.9))
def test_body_matrix_inverts_the_tangent_matrix(key, seed, frac):
    grp, chart, x, _rng = chart_and_point(key, seed, frac)
    g = chart.from_coords(x)
    product = chart.body_coords_matrix(g) @ chart.tangent_coords_matrix(g)
    # each factor's entries grow like |g|, which reaches |x|^2 on the global
    # nilpotent charts
    bound = 1e-13 * max(1.0, np.linalg.norm(g.matrix)) ** 2
    assert np.max(np.abs(product - np.eye(grp.dim))) <= bound
    assert np.array_equal(chart.body_coords_matrix(chart.g0), np.eye(grp.dim))


def test_centre_reads_zero_without_a_solve(monkeypatch):
    grp = group_for("so3")
    chart = CayleyChart(grp, matrix_exp_oracle(grp, np.array([0.3, -0.2, 0.5])))
    twin = GroupElement(chart.g0.matrix @ chart.from_coords(np.array([1e-3, 0.0, 0.0])).matrix, grp)
    solved = []
    expand = grp.algebra_coords
    monkeypatch.setattr(grp, "algebra_coords", lambda m: solved.append(1) or expand(m))
    assert np.array_equal(chart.to_coords(chart.g0), np.zeros(3)) and not solved
    chart.to_coords(twin)
    assert solved


@pytest.mark.parametrize("key, bound", [("so3", 2.0), ("su2", 4.0)])
def test_rotation_charts_end_short_of_a_half_turn(key, bound):
    # rho(A/2) is |x|/2 on so3 and |x|/4 on su2
    grp = GROUPS[key]
    chart = CayleyChart(grp)
    u = np.array([0.48, -0.6, 0.64])
    inside = chart.from_coords(bound * (1.0 - 1e-9) * u)
    with pytest.raises(ChartDomainError):
        chart.from_coords(bound * (1.0 + 1e-9) * u)
    if key == "so3":
        angle = np.arccos(0.5 * (np.trace(inside.matrix) - 1.0))
        assert abs(angle - 2.0 * np.arctan(CAYLEY_RADIUS)) <= 1e-6


def test_sl2r_chart_ends_before_the_singular_eigenvalue():
    # x = (a, 0, 0) gives A/2 = diag(a/2, -a/2): I - A/2 is singular at a = 2
    chart = CayleyChart(GROUPS["sl2r"])
    g = chart.from_coords(np.array([2.0 * (1.0 - 1e-6), 0.0, 0.0]))
    assert np.all(np.isfinite(g.matrix))
    for a in (2.0, 2.0 * (1.0 + 1e-9), -2.0):
        with pytest.raises(ChartDomainError):
            chart.from_coords(np.array([a, 0.0, 0.0]))


@pytest.mark.parametrize("key", ["heis3", "rn:3"])
def test_nilpotent_charts_are_global(key):
    chart = CayleyChart(GROUPS[key])
    x = np.array([1e3, -2e3, 5e2])
    assert np.max(np.abs(chart.to_coords(chart.from_coords(x)) - x)) <= 1e-12 * 2e3


@pytest.mark.parametrize("key", KEYS)
def test_non_finite_input_raises_value_error(key):
    grp = GROUPS[key]
    chart = CayleyChart(grp)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros(grp.dim)
        x[-1] = bad
        with pytest.raises(ValueError):
            chart.from_coords(x)


@pytest.mark.parametrize(
    "key, xi",
    [
        ("so3", (0.3, -0.5, 0.4)),
        ("su2", (1.1, 0.2, -0.7)),
        ("sl2r", (0.3, 0.2, 1.0)),  # elliptic: exp(tX) turns
        ("sl2r", (1.0, 0.5, 0.2)),  # hyperbolic: real spectrum
    ],
)
def test_reach_is_where_the_subgroup_leaves_the_chart(key, xi):
    grp = GROUPS[key]
    chart = CayleyChart(grp)
    X = grp.algebra_matrix(xi)
    reach = chart.reach(X)
    if not np.any(np.linalg.eigvals(X).imag):
        # a real spectrum keeps exp(tX) inside at every t
        assert reach == np.inf
        x = chart.to_coords(matrix_exp_oracle(grp, xi, 3.0))
        assert spectral_radius(grp, x) < CAYLEY_RADIUS
        return
    for t, inside in ((0.999 * reach, True), (1.001 * reach, False)):
        x = chart.to_coords(matrix_exp_oracle(grp, xi, t))
        assert (spectral_radius(grp, x) < CAYLEY_RADIUS) == inside
