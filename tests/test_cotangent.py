import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from liequad.cotangent import (
    CotangentBundle,
    CotangentChart,
    PhasePoint,
    TangentPhaseVector,
    build_casimir_field,
    build_mixed_field,
    fiber_momentum_covector,
    left_invariant_hamiltonian_field,
)
from liequad.liealg import killing_casimir, central_casimir
from liequad.liegroup import make_group, matrix_exp_oracle
from liequad.numutil import nullspace
from liequad.reconstruct import make_tstar_scenario

GROUP_KEYS = ["so3", "su2", "sl2r", "heis3", "rn:3"]


def bundle_for(key):
    return CotangentBundle(make_group(key))


def random_point(bundle, rng, scale=0.5):
    g = matrix_exp_oracle(bundle.group, scale * rng.standard_normal(bundle.group.dim))
    return PhasePoint(g, rng.standard_normal(bundle.group.dim))


def random_tangent(rng, n):
    return TangentPhaseVector(rng.standard_normal(n), rng.standard_normal(n))


def test_theta_and_omega_basics():
    b = bundle_for("so3")
    p = b.base_point(np.zeros(3))
    xi = np.array([0.3, -0.2, 0.9])
    bp = np.array([1.0, 0.5, -0.4])
    w1 = TangentPhaseVector(xi, np.zeros(3))
    w2 = TangentPhaseVector(np.zeros(3), bp)
    # at zero momentum the pairing term is all that survives
    assert np.isclose(b.omega(p, w1, w2), bp @ xi)
    assert np.isclose(b.theta(p, w1), 0.0)
    p2 = b.base_point(np.array([1.0, 2.0, 3.0]))
    assert np.isclose(b.theta(p2, w1), np.array([1.0, 2.0, 3.0]) @ xi)


def test_omega_antisymmetric_and_nondegenerate():
    rng = np.random.default_rng(0)
    for key in GROUP_KEYS:
        b = bundle_for(key)
        for _ in range(10):
            p = random_point(b, rng)
            O = b.omega_matrix(p)
            assert np.max(np.abs(O + O.T)) <= 1e-12
            s = np.linalg.svd(O, compute_uv=False)
            assert s[-1] > 1e-3  # well-conditioned at moderate momenta


def test_omega_is_minus_d_theta():
    # with left-invariant extensions, -d theta(X, Y) must reproduce omega;
    # the alpha-derivatives are taken by finite differences
    rng = np.random.default_rng(1)
    h = 1e-6
    for key in GROUP_KEYS:
        b = bundle_for(key)
        alg = b.algebra
        for _ in range(10):
            p = random_point(b, rng)
            w1, w2 = random_tangent(rng, alg.dim), random_tangent(rng, alg.dim)

            def theta_at(alpha, w):
                return alpha @ w.v

            # X theta(Y) with alpha moving along beta_1
            xty = (theta_at(p.alpha + h * w1.beta, w2) - theta_at(p.alpha - h * w1.beta, w2)) / (2 * h)
            ytx = (theta_at(p.alpha + h * w2.beta, w1) - theta_at(p.alpha - h * w2.beta, w1)) / (2 * h)
            tbr = p.alpha @ alg.bracket(w1.v, w2.v)
            minus_dtheta = -(xty - ytx - tbr)
            assert abs(minus_dtheta - b.omega(p, w1, w2)) <= 1e-8


def test_omega_closed():
    # d omega(X,Y,Z) = 0 for left-invariant extensions, derivatives by FD
    rng = np.random.default_rng(2)
    h = 1e-6
    for key in ["so3", "heis3"]:
        b = bundle_for(key)
        alg = b.algebra
        n = alg.dim
        for _ in range(5):
            p = random_point(b, rng)
            X, Y, Z = (random_tangent(rng, n) for _ in range(3))

            def omega_at(alpha, u, w):
                pa = PhasePoint(p.g, alpha)
                return b.omega(pa, u, w)

            def d_along(beta, u, w):
                return (omega_at(p.alpha + h * beta, u, w) - omega_at(p.alpha - h * beta, u, w)) / (2 * h)

            def braket(u, w):
                return TangentPhaseVector(alg.bracket(u.v, w.v), np.zeros(n))

            total = (
                d_along(X.beta, Y, Z) - d_along(Y.beta, X, Z) + d_along(Z.beta, X, Y)
                - omega_at(p.alpha, braket(X, Y), Z)
                + omega_at(p.alpha, braket(X, Z), Y)
                - omega_at(p.alpha, braket(Y, Z), X)
            )
            assert abs(total) <= 1e-8


def test_sharp_sign_pin():
    # omega-sharp of a fiber covector (0, xi) must be (xi, ad_star(xi, alpha)):
    # this pins the coadjoint sign convention against the symplectic matrix
    rng = np.random.default_rng(3)
    for key in GROUP_KEYS:
        b = bundle_for(key)
        alg = b.algebra
        for _ in range(10):
            p = random_point(b, rng)
            xi = rng.standard_normal(alg.dim)
            mu = np.concatenate([np.zeros(alg.dim), xi])
            z = b.sharp(p, mu)
            assert np.allclose(z.v, xi, atol=1e-10)
            assert np.allclose(z.beta, alg.ad_star(xi, p.alpha), atol=1e-10)


def test_sharp_inverts_flat():
    rng = np.random.default_rng(4)
    b = bundle_for("sl2r")
    for _ in range(10):
        p = random_point(b, rng)
        mu = rng.standard_normal(6)
        z = b.sharp(p, mu)
        # omega(z, w) = <mu, w> for random w
        for _ in range(5):
            w = random_tangent(rng, 3)
            assert np.isclose(b.omega(p, z, w), mu @ w.concat(), atol=1e-10)


def test_spatial_momentum_so3_quarter_turn():
    b = bundle_for("so3")
    Rz = b.group.element(np.array([[0.0, -1.0, 0], [1.0, 0.0, 0], [0, 0, 1.0]]))
    J = b.spatial_momentum(PhasePoint(Rz, np.array([1.0, 0.0, 0.0])))
    assert np.allclose(J, [0.0, 1.0, 0.0], atol=1e-12)


def test_momentum_equivariance():
    rng = np.random.default_rng(5)
    for key in GROUP_KEYS:
        b = bundle_for(key)
        for _ in range(10):
            p = random_point(b, rng)
            h = matrix_exp_oracle(b.group, 0.5 * rng.standard_normal(b.group.dim))
            lhs = b.spatial_momentum(b.action(h, p))
            rhs = b.group.coadjoint(h, b.spatial_momentum(p))
            assert np.allclose(lhs, rhs, atol=1e-10)


def test_momentum_defining_identity():
    # omega(fundamental(eta), w) = <d<J, eta>, w> for all tangents w
    rng = np.random.default_rng(6)
    for key in GROUP_KEYS:
        b = bundle_for(key)
        for _ in range(5):
            p = random_point(b, rng)
            eta = rng.standard_normal(b.group.dim)
            gen = b.lifted_fundamental(eta, p)
            JJ = b.momentum_pair_jacobian_body(p)[: b.group.dim]
            for _ in range(5):
                w = random_tangent(rng, b.group.dim)
                lhs = b.omega(p, gen, w)
                rhs = eta @ (JJ @ w.concat())
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_momentum_pair_jacobian_matches_fd():
    rng = np.random.default_rng(7)
    for key in GROUP_KEYS:
        b = bundle_for(key)
        p = random_point(b, rng)
        w = random_tangent(rng, b.group.dim)
        h = 1e-6

        def pair_at(t):
            g = b.group.compose(p.g, matrix_exp_oracle(b.group, w.v, t))
            return b.momentum_pair(PhasePoint(g, p.alpha + t * w.beta))

        fd = (pair_at(h) - pair_at(-h)) / (2 * h)
        an = b.momentum_pair_jacobian_body(p) @ w.concat()
        assert np.allclose(fd, an, atol=1e-6)


def test_fibration_kernel_dimension_and_isotropy():
    # Ker of the momentum-pair differential has the isotropy dimension and
    # omega vanishes on it
    rng = np.random.default_rng(8)
    for key in GROUP_KEYS:
        b = bundle_for(key)
        count = 0
        while count < 10:
            p = random_point(b, rng)
            if not b.algebra.is_coadjoint_regular(p.alpha):
                continue
            count += 1
            J = b.momentum_pair_jacobian_body(p)
            K = nullspace(J)
            assert K.shape[1] == b.algebra.isotropy_dimension(p.alpha)
            for i in range(K.shape[1]):
                for j in range(K.shape[1]):
                    w1 = TangentPhaseVector(K[: b.group.dim, i], K[b.group.dim :, i])
                    w2 = TangentPhaseVector(K[: b.group.dim, j], K[b.group.dim :, j])
                    assert abs(b.omega(p, w1, w2)) <= 1e-8


def test_casimir_field_in_fibration_kernel():
    rng = np.random.default_rng(9)
    for key in ("so3", "su2", "sl2r"):
        b = bundle_for(key)
        X = build_casimir_field(b, killing_casimir(b.algebra))
        for _ in range(10):
            p = random_point(b, rng)
            w = X(p)
            img = b.momentum_pair_jacobian_body(p) @ w.concat()
            assert np.linalg.norm(img) <= 1e-10


def test_casimir_field_matches_sharp():
    rng = np.random.default_rng(10)
    for key, phi_maker in (("so3", killing_casimir), ("heis3", central_casimir)):
        b = bundle_for(key)
        phi = phi_maker(b.algebra)
        X = build_casimir_field(b, phi)
        for _ in range(10):
            p = random_point(b, rng)
            z = b.sharp(p, fiber_momentum_covector(b, phi, p))
            w = X(p)
            assert np.allclose(w.v, z.v, atol=1e-12)
            assert np.allclose(w.beta, z.beta, atol=1e-12)


def test_casimir_field_rejects_non_casimir():
    b = bundle_for("so3")
    with pytest.raises(ValueError, match="not a Casimir"):
        build_casimir_field(b, lambda a: np.array([1.0, 0.0, 0.0]))


def test_casimir_field_rejects_a_nan_form():
    # a NaN defect compares false with any bound, so the gate must ask for a small one
    b = bundle_for("so3")
    with pytest.raises(ValueError, match=r"not a Casimir on its domain \(defect nan\)"):
        build_casimir_field(b, lambda a: np.full(3, np.nan))


def test_momenta_constant_along_casimir_flow():
    # both momenta are first integrals of the Casimir field flow
    rng = np.random.default_rng(11)
    for key in ("so3", "sl2r"):
        b = bundle_for(key)
        X = build_casimir_field(b, killing_casimir(b.algebra))
        p0 = random_point(b, rng)
        sol = solve_ivp(
            b.ambient_rhs(X), (0.0, 1.0), b.ambient_coords(p0),
            rtol=1e-10, atol=1e-12, dense_output=True,
        )
        F0 = b.momentum_pair(p0)
        for t in np.linspace(0, 1, 7):
            pt = b.from_ambient(sol.sol(t))
            assert np.linalg.norm(b.momentum_pair(pt) - F0) <= 1e-8


def test_casimir_flow_is_one_parameter_subgroup():
    b = bundle_for("so3")
    phi = killing_casimir(b.algebra)
    X = build_casimir_field(b, phi)
    rng = np.random.default_rng(12)
    p0 = random_point(b, rng)
    xi = phi(p0.alpha)
    sol = solve_ivp(
        b.ambient_rhs(X), (0.0, 1.0), b.ambient_coords(p0), rtol=1e-11, atol=1e-13
    )
    p1 = b.from_ambient(sol.y[:, -1])
    want = b.group.compose(p0.g, matrix_exp_oracle(b.group, xi, 1.0))
    assert np.linalg.norm(p1.g.matrix - want.matrix) <= 1e-7
    assert np.allclose(p1.alpha, p0.alpha, atol=1e-9)


def test_mixed_field_recovers_casimir_field():
    rng = np.random.default_rng(13)
    for key in ("so3", "sl2r"):
        b = bundle_for(key)
        phi = killing_casimir(b.algebra)
        X_direct = build_casimir_field(b, phi)
        X_mixed = build_mixed_field(b, [(phi.energy, lambda p: 1.0)])
        for _ in range(10):
            p = random_point(b, rng)
            wd, wm = X_direct(p), X_mixed(p)
            assert np.allclose(wd.concat(), wm.concat(), atol=1e-8)


def test_mixed_field_vertical_and_invariant():
    rng = np.random.default_rng(14)
    b = bundle_for("so3")
    Binv = np.linalg.inv(b.algebra.killing_form())

    def h(mu):
        return 0.5 * float(mu @ Binv @ mu)

    X = build_mixed_field(b, [(h, lambda p: float(np.sum(p.alpha**2)))])
    for _ in range(10):
        p = random_point(b, rng)
        w = X(p)
        assert np.linalg.norm(w.beta) <= 1e-9
        h_el = matrix_exp_oracle(b.group, rng.standard_normal(3))
        w2 = X(b.action(h_el, p))
        assert np.allclose(w.concat(), w2.concat(), atol=1e-8)


def test_mixed_field_rejects_non_invariant_h():
    b = bundle_for("so3")
    with pytest.raises(ValueError, match="not invariant"):
        build_mixed_field(b, [(lambda mu: float(mu[0]), lambda p: 1.0)])


def test_mixed_field_gradient_override_validated():
    b = bundle_for("so3")
    Binv = np.linalg.inv(b.algebra.killing_form())
    h = lambda mu: 0.5 * float(mu @ Binv @ mu)
    # correct override passes
    build_mixed_field(b, [(h, lambda p: 1.0)], grads=[lambda mu: Binv @ mu])
    # wrong override is rejected
    with pytest.raises(ValueError, match="disagrees"):
        build_mixed_field(b, [(h, lambda p: 1.0)], grads=[lambda mu: 2.0 * Binv @ mu])


def test_left_invariant_hamiltonian_field_is_hamiltonian():
    # omega(X, w) = <dH, w> with H(g, alpha) = h(alpha)
    rng = np.random.default_rng(15)
    b = bundle_for("so3")
    Q = np.diag([1.0, 2.0, 3.0])
    X = left_invariant_hamiltonian_field(b, lambda a: Q @ a)
    for _ in range(10):
        p = random_point(b, rng)
        w = random_tangent(rng, 3)
        lhs = b.omega(p, X(p), w)
        rhs = (Q @ p.alpha) @ w.beta
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_euler_rigid_body_dynamics():
    # fiber part of the invariant-Hamiltonian field is the momentum-sphere flow
    b = bundle_for("so3")
    Q = np.diag([1.0, 0.5, 0.25])
    X = left_invariant_hamiltonian_field(b, lambda a: Q @ a)
    alpha = np.array([0.7, -0.2, 0.4])
    w = X(b.base_point(alpha))
    assert np.allclose(w.beta, np.cross(alpha, Q @ alpha), atol=1e-14)


# -- the cotangent chart -------------------------------------------------------


@pytest.mark.parametrize("key", GROUP_KEYS)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), radius=st.floats(0.0, 0.3))
def test_cotangent_chart_round_trip_and_body_velocity(key, seed, radius):
    rng = np.random.default_rng(seed)
    b = bundle_for(key)
    X = left_invariant_hamiltonian_field(b, lambda a: a / np.array([1.0, 2.0, 3.0]))
    sys_ = make_tstar_scenario(b.group, field=X)
    centre = random_point(b, rng)
    chart = CotangentChart(b.group, centre.g)
    v = rng.standard_normal(chart.dim)
    u = radius * rng.uniform() * v / np.linalg.norm(v)
    p = chart.from_coords(u)
    assert np.max(np.abs(chart.to_coords(p) - u)) <= 1e-12
    # chart velocity of the scenario, taken back to body coordinates
    w = X(p).concat()
    body = chart.body_from_coords(p) @ sys_.velocities([p], [centre])[0]
    assert np.max(np.abs(body - w)) <= 1e-12 * max(1.0, np.linalg.norm(w))
