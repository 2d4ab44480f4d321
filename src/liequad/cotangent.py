"""Left-trivialized cotangent bundles of matrix groups.

A phase point is a pair (g, alpha) with g in the group and alpha the body
momentum (a covector on the algebra).  Tangent vectors carry body coordinates
(v, beta): v is the body velocity g^-1 g', beta the fiber velocity.

With the pairing conventions of `liealg`, the canonical one-form and the
symplectic form read

    theta(g, alpha)(v, beta)          = <alpha, v>
    omega((v1, b1), (v2, b2))         = <b2, v1> - <b1, v2> + <ad_star(v1, alpha), v2>

and omega = -d theta.  The group acts by left translation on itself, lifted
to the bundle as (h, (g, alpha)) -> (hg, alpha); the spatial momentum of the
lifted action is J(g, alpha) = Ad(g^-1)^T alpha, the body momentum is alpha
itself, and the pair (J, body) is the first-integrals fibration whose level
sets carry the one-parameter subgroup flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liealg import CasimirForm, casimir_check
from .liegroup import CayleyChart, GroupElement
from .numutil import ball_sample, central_jacobian

CASIMIR_CHECK = (32, 17)  # (count, seed) of the domain samples validating a Casimir form
MIXED_CHECK = (16, 23)    # (count, seed) of the samples validating a mixed field
INVARIANCE_TOL = 1e-6     # relative invariance defect of a mixed field


@dataclass(frozen=True)
class PhasePoint:
    g: GroupElement
    alpha: np.ndarray

    def __post_init__(self):
        a = np.array(self.alpha, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class TangentPhaseVector:
    v: np.ndarray      # body velocity (algebra coordinates)
    beta: np.ndarray   # fiber velocity (dual coordinates)

    def concat(self):
        return np.concatenate([self.v, self.beta])


class CotangentBundle:
    def __init__(self, group):
        self.group = group
        self.algebra = group.algebra
        self.dim = 2 * group.dim
        self._eye = np.eye(group.dim)

    # -- construction / conversion helpers -------------------------------

    def point(self, g, alpha):
        if not isinstance(g, GroupElement):
            g = self.group.element(g)
        return PhasePoint(g, alpha)

    def base_point(self, alpha):
        return PhasePoint(self.group.identity(), alpha)

    def ambient_coords(self, p):
        """Flat ambient coordinates [flat(g), alpha]; used by reference ODE runs."""
        return np.concatenate([self.group.flat(p.g.matrix), p.alpha])

    def from_ambient(self, y):
        m = self.group.unflat(y[: self.group.flat_dim])
        return PhasePoint(self.group.element(m), y[self.group.flat_dim :])

    # -- canonical structures ---------------------------------------------

    def theta(self, p, w):
        return float(p.alpha @ w.v)

    def omega_matrix(self, p):
        """Matrix O with omega(z, w) = z . O w on concatenated body coordinates."""
        return self.omega_matrices(np.asarray(p.alpha)[None])[0]

    def omega_matrices(self, alpha):
        """``omega_matrix`` at k points with body momenta alpha (k, n): (k, 2n, 2n)."""
        k, n = alpha.shape
        O = np.zeros((k, 2 * n, 2 * n))
        O[:, :n, :n] = self.algebra.ad_star_matrix(alpha).swapaxes(1, 2)
        O[:, :n, n:] = self._eye
        O[:, n:, :n] = -self._eye
        return O

    def omega(self, p, w1, w2):
        return float(w1.concat() @ self.omega_matrix(p) @ w2.concat())

    def sharp(self, p, mu):
        """Solve omega(z, .) = mu for z; mu = [a, b] with <mu, (v, beta)> = a.v + b.beta."""
        n = self.group.dim
        z = np.linalg.solve(self.omega_matrix(p).T, np.asarray(mu, float))
        return TangentPhaseVector(z[:n], z[n:])

    # -- momenta ------------------------------------------------------------

    def spatial_momentum(self, p):
        """Momentum of the lifted left action: <J, eta> = <alpha, Ad_{g^-1} eta>."""
        return self.group.coadjoint(p.g, p.alpha)

    def momentum_pair(self, p):
        adit = self.group.adjoint_inv_transpose(p.g)
        return self.momentum_pairs(adit[None], np.asarray(p.alpha)[None])[0]

    def momentum_pairs(self, adit, alpha):
        """``momentum_pair`` at k points from their coadjoint matrices Ad(g^-1)^T
        (k, n, n) and body momenta alpha (k, n): (k, 2n)."""
        return np.concatenate([(adit @ alpha[:, :, None])[:, :, 0], alpha], axis=1)

    def momentum_pair_jacobian_body(self, p):
        """Jacobian of momentum_pair on body tangent coordinates (2n x 2n)."""
        adit = self.group.adjoint_inv_transpose(p.g)
        return self.momentum_pair_jacobians(adit[None], np.asarray(p.alpha)[None])[0]

    def momentum_pair_jacobians(self, adit, alpha):
        """``momentum_pair_jacobian_body`` at k points, with the arguments of ``momentum_pairs``."""
        k, n = alpha.shape
        J = np.zeros((k, 2 * n, 2 * n))
        J[:, :n, :n] = -adit @ self.algebra.ad_star_matrix(alpha)
        J[:, :n, n:] = adit
        J[:, n:, n:] = self._eye
        return J

    # -- group action ---------------------------------------------------------

    def action(self, h, p):
        return self.actions([h], [p])[0]

    def actions(self, hs, ps):
        """``action`` row by row over the elements hs and the points ps: one stacked
        product and one ``elements`` check of every product."""
        prods = np.array([h.matrix for h in hs]) @ np.array([p.g.matrix for p in ps])
        return [PhasePoint(g, p.alpha) for g, p in zip(self.group.elements(prods), ps)]

    def lifted_fundamental(self, eta, p):
        """Infinitesimal generator of the lifted action at p, body coordinates."""
        Adinv = self.group.adjoint_inv_transpose(p.g).T
        return TangentPhaseVector(Adinv @ np.asarray(eta, float), np.zeros(self.group.dim))

    # -- reference ODE right-hand side ---------------------------------------

    def ambient_rhs(self, field):
        """Right-hand side for ambient-coordinate ODE integration of a field."""

        def rhs(_t, y):
            m = self.group.unflat(y[: self.group.flat_dim])
            alpha = y[self.group.flat_dim :]
            p = PhasePoint(GroupElement(m, self.group), alpha)
            w = field(p)
            return np.concatenate(
                [self.group.flat(m @ self.group.algebra_matrix(w.v)), w.beta]
            )

        return rhs


class CotangentChart:
    """Chart on the trivialized bundle: Cayley coordinates of g ++ body momentum.

    Coordinates are relative to the center in the group factor and absolute
    in the fiber, so one chart serves every point whose group part stays
    near the center element.
    """

    def __init__(self, group, center_g):
        self.gchart = CayleyChart(group, center_g)
        self.k = group.dim
        self.dim = 2 * group.dim

    def to_coords(self, p):
        return np.concatenate([self.gchart.to_coords(p.g), p.alpha])

    def from_coords(self, u):
        g = self.gchart.from_coords(u[: self.k])
        return PhasePoint(g, np.asarray(u[self.k :], float))

    def body_from_coords(self, p):
        """Chart velocities at p to body coordinates (v, beta): diag(body_coords_matrix(g), I)."""
        T = np.eye(self.dim)
        T[: self.k, : self.k] = self.gchart.body_coords_matrix(p.g)
        return T


class InvariantField:
    """A left-invariant field on the bundle, given in body coordinates.

    Invariance means the body components depend on alpha only, which holds
    for every field constructed in this module.  Fields with vanishing fiber
    component are vertical: they are tangent to the body-momentum fibers.
    """

    def __init__(self, bundle, evaluator, name=""):
        self.bundle = bundle
        self._evaluator = evaluator
        self.name = name

    def __call__(self, p):
        return self._evaluator(p)


def build_casimir_field(bundle, phi):
    """Hamiltonian-type vertical field of a Casimir form: (g, alpha) -> (phi(alpha), 0).

    The fiber component ad_star(phi(alpha), alpha) vanishes identically for a
    Casimir form; construction validates that on seeded domain samples and a
    test pins the agreement with sharp(pullback of phi through the fiber).
    """
    alg = bundle.algebra
    n_check, seed = CASIMIR_CHECK
    rng = np.random.default_rng(seed)
    if isinstance(phi, CasimirForm):
        radius = phi.domain_radius if np.isfinite(phi.domain_radius) else 1.0
        samples = phi.domain_center + 0.9 * radius * ball_sample(rng, n_check, alg.dim)
    else:
        samples = ball_sample(rng, n_check, alg.dim)
    defect = casimir_check(alg, phi, samples)
    if defect > 1e-10:
        raise ValueError(f"form is not a Casimir on its domain (defect {defect:.3e})")

    n = alg.dim

    def evaluator(p):
        return TangentPhaseVector(np.asarray(phi(p.alpha), float), np.zeros(n))

    return InvariantField(bundle, evaluator, name=f"casimir[{getattr(phi, 'name', '')}]")


def fiber_momentum_covector(bundle, phi, p):
    """The covector (pullback of phi through the body momentum) at p, as [a, b]."""
    n = bundle.group.dim
    mu = np.zeros(2 * n)
    mu[n:] = np.asarray(phi(p.alpha), float)
    return mu


def build_mixed_field(bundle, terms, grads=None):
    """Field sum_i f_i(p) * sharp(dh_i composed with the spatial momentum).

    ``terms`` is a list of (h_i, f_i): h_i a scalar function of the spatial
    momentum value, f_i an invariant scalar coefficient on phase space.
    Gradients of h_i default to central differences (with one Richardson
    level); analytic overrides in ``grads`` are validated against the FD
    values on seeded samples.
    """
    n = bundle.group.dim
    alg = bundle.algebra
    n_check, seed = MIXED_CHECK
    rng = np.random.default_rng(seed)
    if grads is None:
        grads = [None] * len(terms)
    grad_fns = []
    for (h, _f), grad in zip(terms, grads):
        if grad is None:
            # step scaled with |mu| keeps the roundoff term of the central
            # difference bounded for quadratic-growth momenta
            grad_fns.append(
                lambda mu, h=h: central_jacobian(
                    h, mu, step=1e-6 * max(1.0, float(np.linalg.norm(mu))), richardson=True
                )
            )
        else:
            for _ in range(n_check):
                mu = rng.standard_normal(n)
                fd = central_jacobian(h, mu, richardson=True)
                if np.linalg.norm(np.asarray(grad(mu)) - fd) > 1e-6 * max(1.0, np.linalg.norm(fd)):
                    raise ValueError("analytic gradient disagrees with finite differences")
            grad_fns.append(grad)

    def evaluator(p):
        J = bundle.spatial_momentum(p)
        Adinv = bundle.group.adjoint_inv_transpose(p.g).T
        A = alg.ad_star_matrix(p.alpha)
        total_v = np.zeros(n)
        total_b = np.zeros(n)
        for (_h, f), grad in zip(terms, grad_fns):
            u = Adinv @ np.asarray(grad(J), float)
            mu = np.concatenate([A @ u, u])  # covector of dh pulled back by the momentum
            z = bundle.sharp(p, mu)
            c = float(f(p))
            total_v += c * z.v
            total_b += c * z.beta
        return TangentPhaseVector(total_v, total_b)

    _validate_invariance(bundle, evaluator, rng, n_check)
    return InvariantField(bundle, evaluator, name="mixed")


def _validate_invariance(bundle, evaluator, rng, n_check):
    """Sampled check that body components are unchanged by the lifted action.

    The threshold only needs to separate finite-difference roundoff (~1e-7 at
    large adjoint norms) from genuine invariance failures, which are O(1).
    """
    from .liegroup import matrix_exp_oracle

    for _ in range(n_check):
        p = PhasePoint(
            matrix_exp_oracle(bundle.group, 0.3 * rng.standard_normal(bundle.group.dim)),
            rng.standard_normal(bundle.group.dim),
        )
        h = matrix_exp_oracle(bundle.group, 0.3 * rng.standard_normal(bundle.group.dim))
        w0 = evaluator(p)
        w1 = evaluator(bundle.action(h, p))
        err = np.linalg.norm(w0.concat() - w1.concat())
        if err > INVARIANCE_TOL * max(1.0, np.linalg.norm(w0.concat())):
            raise ValueError(
                f"field is not invariant under the lifted action (defect {err:.3e}); "
                "mixed terms need coadjoint-invariant momentum functions"
            )


def left_invariant_hamiltonian_field(bundle, grad_h, name="invariant-hamiltonian"):
    """Field of a left-invariant Hamiltonian h(alpha): (dh(alpha), ad_star(dh, alpha)).

    Generic test dynamics: the fiber part is the usual momentum-sphere flow
    (rigid body for so3), and the group part makes the field non-vertical.
    """
    alg = bundle.algebra

    def evaluator(p):
        u = np.asarray(grad_h(p.alpha), float)
        return TangentPhaseVector(u, alg.ad_star(u, p.alpha))

    return InvariantField(bundle, evaluator, name=name)
