import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liequad.liegroup import (
    CayleyChart,
    ChartDomainError,
    _leading_block,
    _UnitDet,
    damped_newton,
    forbid_exp_oracle,
    make_group,
    matrix_exp_oracle,
    oracle_call_count,
)
from liequad.reconstruct import make_product_scenario

ALL_KEYS = ["so3", "su2", "sl2r", "heis3", "rn:3"]


def random_element(group, rng, scale=0.6):
    """A group element away from the identity, built without exp on patterns."""
    return matrix_exp_oracle(group, scale * rng.standard_normal(group.dim))


def hat_so3(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0.0]])


def rodrigues(v):
    th = np.linalg.norm(v)
    if th < 1e-14:
        return np.eye(3)
    K = hat_so3(v / th)
    return np.eye(3) + np.sin(th) * K + (1 - np.cos(th)) * (K @ K)


def test_catalogue_and_membership():
    for key in ALL_KEYS:
        g = make_group(key)
        e = g.identity()
        assert g.membership_residual(e.matrix) <= 1e-14
        assert g.algebra.dim == g.dim


def test_element_reprojection_policy():
    g = make_group("so3")
    rng = np.random.default_rng(0)
    a = random_element(g, rng)
    # small off-manifold noise: re-projected silently
    noisy = a.matrix + 1e-6 * rng.standard_normal((3, 3))
    fixed = g.element(noisy)
    assert g.membership_residual(fixed.matrix) <= 1e-8
    # gross violation: hard error
    with pytest.raises(ValueError, match="off the group manifold"):
        g.element(a.matrix + 0.1 * rng.standard_normal((3, 3)))


def test_compose_inverse():
    rng = np.random.default_rng(1)
    for key in ALL_KEYS:
        g = make_group(key)
        a, b = random_element(g, rng), random_element(g, rng)
        ab = g.compose(a, b)
        assert np.allclose(ab.matrix, a.matrix @ b.matrix, atol=1e-12)
        ident = g.compose(ab, g.inverse(ab))
        assert np.allclose(ident.matrix, np.eye(g.N), atol=1e-12)


def test_adjoint_is_algebra_automorphism():
    rng = np.random.default_rng(2)
    for key in ALL_KEYS:
        g = make_group(key)
        alg = g.algebra
        a = random_element(g, rng)
        for _ in range(10):
            xi, eta = rng.standard_normal((2, g.dim))
            lhs = g.adjoint(a, alg.bracket(xi, eta))
            rhs = alg.bracket(g.adjoint(a, xi), g.adjoint(a, eta))
            assert np.allclose(lhs, rhs, atol=1e-10)


def test_adjoint_group_homomorphism():
    rng = np.random.default_rng(3)
    for key in ALL_KEYS:
        g = make_group(key)
        a, b = random_element(g, rng), random_element(g, rng)
        Ad = g.adjoint_matrix
        assert np.allclose(Ad(g.compose(a, b)), Ad(a) @ Ad(b), atol=1e-10)


def test_so3_adjoint_is_vector_rotation():
    g = make_group("so3")
    rng = np.random.default_rng(4)
    a = random_element(g, rng)
    assert np.allclose(g.adjoint_matrix(a), a.matrix, atol=1e-12)


def test_coadjoint_duality_and_equivariance():
    rng = np.random.default_rng(5)
    for key in ALL_KEYS:
        g = make_group(key)
        a = random_element(g, rng)
        for _ in range(10):
            xi = rng.standard_normal(g.dim)
            alpha = rng.standard_normal(g.dim)
            # <coadjoint(g, alpha), Ad_g xi> = <alpha, xi>
            lhs = g.coadjoint(a, alpha) @ g.adjoint(a, xi)
            assert abs(lhs - alpha @ xi) <= 1e-10
        b = random_element(g, rng)
        alpha = rng.standard_normal(g.dim)
        assert np.allclose(
            g.coadjoint(g.compose(a, b), alpha),
            g.coadjoint(a, g.coadjoint(b, alpha)),
            atol=1e-10,
        )


def test_isotropy_dimension_coadjoint_invariant():
    rng = np.random.default_rng(6)
    for key in ALL_KEYS:
        g = make_group(key)
        for _ in range(10):
            alpha = rng.standard_normal(g.dim)
            moved = g.coadjoint(random_element(g, rng), alpha)
            assert g.algebra.isotropy_dimension(alpha) == g.algebra.isotropy_dimension(moved)


def test_exp_oracle_vs_rodrigues():
    g = make_group("so3")
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.standard_normal(3) * rng.uniform(0.1, 3.0)
        assert np.allclose(matrix_exp_oracle(g, v).matrix, rodrigues(v), atol=1e-12)


def test_exp_oracle_vs_su2_closed_form():
    g = make_group("su2")
    rng = np.random.default_rng(8)
    for _ in range(10):
        v = rng.standard_normal(3)
        th = np.linalg.norm(v)
        n = v / th
        sig = n[0] * np.array([[0, 1], [1, 0]]) + n[1] * np.array([[0, -1j], [1j, 0]]) \
            + n[2] * np.array([[1, 0], [0, -1]])
        closed = np.cos(th / 2) * np.eye(2) - 1j * np.sin(th / 2) * sig
        assert np.allclose(matrix_exp_oracle(g, v).matrix, closed, atol=1e-12)


def test_exp_oracle_heis3_closed_form():
    g = make_group("heis3")
    x1, x2, x3 = 0.7, -1.3, 0.4
    got = matrix_exp_oracle(g, np.array([x1, x2, x3])).matrix
    want = np.array([[1, x1, x3 + 0.5 * x1 * x2], [0, 1, x2], [0, 0, 1.0]])
    assert np.allclose(got, want, atol=1e-13)


def rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_exp_oracle_vs_rk4():
    # the oracle solves g' = g X: compare with fixed-step RK4, step 1e-3
    rng = np.random.default_rng(9)
    for key in ALL_KEYS:
        g = make_group(key)
        xi = rng.standard_normal(g.dim)
        X = g.algebra_matrix(xi)
        y = np.eye(g.N, dtype=X.dtype)
        h = 1e-3
        for _ in range(1000):
            y = rk4_step(lambda t, m: m @ X, 0.0, y, h)
        assert np.linalg.norm(y - matrix_exp_oracle(g, xi).matrix) <= 1e-6


def test_exp_oracle_one_parameter_property():
    rng = np.random.default_rng(10)
    for key in ALL_KEYS:
        g = make_group(key)
        xi = rng.standard_normal(g.dim)
        a = matrix_exp_oracle(g, xi, 0.4)
        b = matrix_exp_oracle(g, xi, 0.35)
        c = matrix_exp_oracle(g, xi, 0.75)
        assert np.allclose((a @ b).matrix, c.matrix, atol=1e-12)


def test_purity_guard():
    g = make_group("so3")
    n0 = oracle_call_count()
    with forbid_exp_oracle():
        with pytest.raises(RuntimeError, match="purity guard"):
            matrix_exp_oracle(g, np.array([0.0, 0.0, 1.0]))
    matrix_exp_oracle(g, np.array([0.0, 0.0, 1.0]))
    assert oracle_call_count() == n0 + 1


def test_body_coords_round_trip():
    rng = np.random.default_rng(15)
    for key in ALL_KEYS:
        g = make_group(key)
        a = random_element(g, rng)
        v = rng.standard_normal(g.dim)
        assert np.allclose(g.body_coords(a, g.tangent_matrix(a, v)), v, atol=1e-10)


# -- the coadjoint matrix -----------------------------------------------------

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def constraint_groups():
    groups = {key: make_group(key) for key in ALL_KEYS}
    groups["so3xr"] = make_product_scenario().group
    return groups


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 0.6))
def test_coadjoint_matrix_inverts_the_adjoint(constraint_groups, seed, scale):
    # Ad(g^-1)^T is read off the conjugation with g and g^-1 swapped; g^-1
    # comes from an inversion for an exponential and from the Cayley solve
    # for a chart point.  The product's rounding grows like |g|^4 on sl2r,
    # so the draws keep |g| moderate: exponentials as in random_element and
    # chart points at rho(A/2) = 0.2
    rng = np.random.default_rng(seed)
    for key, group in constraint_groups.items():
        g = matrix_exp_oracle(group, scale * rng.standard_normal(group.dim))
        x = rng.standard_normal(group.dim)
        rho = float(np.max(np.abs(np.linalg.eigvals(0.5 * group.algebra_matrix(x)))))
        charted = CayleyChart(group, g).from_coords(x * (0.2 / rho if rho > 1e-12 else scale))
        for e in (g, charted):
            product = group.adjoint_inv_transpose(e).T @ group.adjoint_matrix(e)
            bound = 1e-13 * max(1.0, np.linalg.norm(e.matrix)) ** 2
            assert np.max(np.abs(product - np.eye(group.dim))) <= bound, key


def test_unit_det_rejects_blocks_other_than_2_or_3():
    with pytest.raises(ValueError, match="2x2 or 3x3"):
        _UnitDet(_leading_block(4, 4))


def test_chart_domain_error_carries_t_achieved():
    assert ChartDomainError().t_achieved == 0.0
    err = ChartDomainError("left the chart", t_achieved=2.5)
    assert err.t_achieved == 2.5
    assert str(err) == "left the chart"


# -- damped Newton kernel ------------------------------------------------------


def test_damped_newton_stall_abort_after_five_slow_steps():
    # the step only halves the residual, so every accepted step is slow
    calls = []

    def trial(x, _state):
        calls.append(x.copy())
        return x, None

    x, r, rn, _ = damped_newton(
        np.array([1.0]), trial, lambda _x, r, _s: -0.5 * r, 1e-12, 50, 16
    )
    assert len(calls) == 6
    assert rn == 0.5**5 and np.array_equal(x, r)


def test_damped_newton_halves_a_trial_that_leaves_the_chart():
    seen = []

    def trial(x, state):
        seen.append(float(x[0]))
        if x[0] < -1.0:
            raise ChartDomainError("left the chart")
        return x, x[0]

    # the doubled step from 4 lands at -4, outside; its half lands on the root
    x, r, rn, state = damped_newton(
        np.array([4.0]), trial, lambda _x, r, _s: -2.0 * r, 1e-12, 50, 16
    )
    assert seen == [4.0, -4.0, 0.0]
    assert rn == 0.0 and x[0] == 0.0 and state == 0.0


def test_damped_newton_rejects_non_finite_residual():
    with pytest.raises(ValueError, match="not finite"):
        damped_newton(
            np.array([np.nan]), lambda x, _s: (x, None), lambda _x, r, _s: -r, 1e-12, 50, 16
        )


def test_damped_newton_damps_each_row_of_a_stack_on_its_own():
    # row 0's full step lands outside (a failed trial, NaN) and is halved onto
    # its root; row 1 converges at full steps in the same calls; row 2 starts
    # converged and is never tried again
    tried = []

    def trial(rows, x, _states):
        tried.append([int(i) for i in rows])
        r = x.copy()
        r[(rows == 0) & (x[:, 0] < -1.0)] = np.nan
        return r, [float(v) for v in x[:, 0]]

    def step(rows, x, r, _states):
        return np.where((rows == 0)[:, None], -2.0 * r, -r)

    x, r, rn, states = damped_newton(
        np.array([[4.0], [3.0], [0.0]]), trial, step, 1e-12, 50, 16
    )
    assert tried == [[0, 1, 2], [0, 1], [0]]
    assert np.array_equal(x, np.zeros((3, 1))) and np.array_equal(rn, np.zeros(3))
    assert states == [0.0, 0.0, 0.0]


def test_damped_newton_maxit_bounds_the_steps():
    steps = []

    def step(_x, r, _state):
        steps.append(1)
        return -0.9 * r  # fast contraction: the stall abort never fires

    x, _r, rn, _ = damped_newton(np.array([1.0]), lambda x, _s: (x, None), step, 1e-300, 7, 16)
    assert len(steps) == 7
    assert rn == abs(x[0]) > 0.0
