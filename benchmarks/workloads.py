"""The benchmark's workloads: seeded inputs, route calls and independent references.

Each workload builder draws one pass's inputs from a seeded generator, builds
fresh groups, fields and scenarios for them (the set-up), and returns the
route calls of the pass.  A call's ``run`` is the timed route call; its
``reference`` recomputes the expected samples by an independent method
(``scipy.linalg.expm``, an ambient ``solve_ivp`` or a closed form) and is
never timed with the route.

Package functions are reached through their modules at call time, so the
traced run's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.linalg

from liequad import cotangent, expquad, hjsolver, liealg, liegroup, reconstruct

EXP_GRID = np.linspace(0.0, 1.0, 17)
INTEGRATE_GRID = np.linspace(0.0, 6.0, 25)
EXP_LONG_GRID = np.linspace(0.0, 6.0, 13)
CONNECTION_GRID = np.linspace(0.0, 1.0, 17)
RECONSTRUCT_GRID = np.linspace(0.0, 1.0, 65)

# Route tolerances: the sup-error bounds the package's own tests hold each
# route to against the same kind of reference.
EXP_TOL = 1e-6
INTEGRATE_TOL = 1e-8
CONNECTION_TOL = 1e-5
TWO_STEP_TOL = 1e-6
VERTICAL_TOL = 1e-6

# The ambient reference of the connection route runs far below that route's
# own error (about 1e-7 at the seed), at least a hundred times tighter.
IVP_RTOL = 1e-13
IVP_ATOL = 1e-15

RIGID_BODY_INERTIA = np.array([1.0, 2.0, 3.0])  # anisotropic rigid body
TSTAR_BASE = np.array([0.7, -0.4, 0.5])
PAIRS_BASE = np.array([2.0, 3.0, 1.0])
PRODUCT_BASE = np.array([1.5])
EXP_NORM = 0.75  # inside the [0.3, 1] range of the package's seeded-direction test
LONG_FLOW_COVECTOR = np.array([-0.3, 0.6, 0.5])
LONG_EXP_DIRECTION = np.array([0.6, -0.5, 0.6])
LONG_FLOW_TURN = 0.05    # radians
CONNECTION_TURN = 0.15   # radians
PRODUCT_RATE = 0.7   # make_product_scenario's default offset rate


@dataclass
class Call:
    """One route call of a pass.

    ``run`` performs the route call; ``emitted`` turns its result into one
    flat array per output sample; ``reference`` gives the expected arrays;
    ``ref_kind`` names the reference method whose time is reported
    ("expm", "ivp" or None for closed forms).
    """

    route: str
    run: Callable[[], object]
    emitted: Callable[[object], list]
    reference: Callable[[], list]
    tol: float
    ref_kind: str | None


def _direction(rng, dim, lo, hi):
    v = rng.standard_normal(dim)
    return v * rng.uniform(lo, hi) / np.linalg.norm(v)


def _turned(rng, v, max_angle):
    """v turned by a seeded rotation of angle at most max_angle about a random axis."""
    axis = _direction(rng, 3, 0.0, max_angle)
    hat = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return scipy.linalg.expm(hat) @ np.asarray(v, float)


def _regular_direction(rng, algebra, norm):
    while True:
        xi = _direction(rng, algebra.dim, norm, norm)
        if algebra.is_adjoint_regular(xi):
            return xi


def _expm(group, xi, t=1.0):
    return scipy.linalg.expm(t * group.algebra_matrix(xi))


def _element(group, xi):
    """Group element exp(xi) for inputs, built without the package's oracle."""
    return group.element(_expm(group, xi))


def _phase_rows(group, points):
    return [np.concatenate([group.flat(p.g.matrix), p.alpha]) for p in points]


def _exp_call(route, group, xi, ts):
    def run():
        with liegroup.forbid_exp_oracle():
            return getattr(expquad, route)(group, xi, ts)

    return Call(
        route=route,
        run=run,
        emitted=lambda curve: [e.matrix for e in curve.elements],
        reference=lambda: [_expm(group, xi, t) for t in ts],
        tol=EXP_TOL,
        ref_kind="expm",
    )


def build_exp(rng):
    """exp_semisimple on so3, su2 and sl2r, exp_general on so3; one chart, [0, 1].

    Directions are random, their norm fixed: the work of a call grows with
    the norm, and norms drawn from [0.5, 1] made the node solves of a pass
    vary by 7% (chart inversions by 10%), against 3% at a fixed norm.
    """
    calls = []
    for key in ("so3", "su2", "sl2r"):
        group = liegroup.make_group(key)
        calls.append(_exp_call("exp_semisimple", group, _regular_direction(rng, group.algebra, EXP_NORM), EXP_GRID))
    group = liegroup.make_group("so3")
    calls.append(_exp_call("exp_general", group, _regular_direction(rng, group.algebra, EXP_NORM), EXP_GRID))
    return calls


def build_long_flow(rng):
    """Killing-field flow over [0, 6] (re-centering) and exp over [0, 6] (squaring).

    The inputs are fixed vectors of the tests' norms (0.84 and 0.98) turned
    by a small seeded rotation.  Where a long flow meets the chart boundary,
    and so how many re-centers, halvings and doublings it needs, depends on
    the direction, in jumps: over the whole sphere the work of a pass varies
    twofold, and near the tests' own vectors it still jumps by 15% within
    0.05 rad.  Near these two it stays within 0.2%.
    """
    group = liegroup.make_group("so3")
    bundle = cotangent.CotangentBundle(group)
    field = cotangent.build_casimir_field(bundle, liealg.killing_casimir(group.algebra))
    a0 = _turned(rng, LONG_FLOW_COVECTOR, LONG_FLOW_TURN)
    p0 = cotangent.PhasePoint(group.identity(), a0)
    xi = np.linalg.solve(group.algebra.killing_form(), a0)

    def run():
        with liegroup.forbid_exp_oracle():
            return hjsolver.integrate_by_quadratures(bundle, field, p0, INTEGRATE_GRID)

    integrate = Call(
        route="integrate",
        run=run,
        emitted=lambda sample: _phase_rows(group, sample.points),
        reference=lambda: [np.concatenate([group.flat(_expm(group, xi, t)), a0]) for t in INTEGRATE_GRID],
        tol=INTEGRATE_TOL,
        ref_kind="expm",
    )
    squaring = _exp_call("exp_semisimple", liegroup.make_group("so3"),
                         _turned(rng, LONG_EXP_DIRECTION, LONG_FLOW_TURN), EXP_LONG_GRID)
    return [integrate, squaring]


def _connection_call(rng):
    bundle = cotangent.CotangentBundle(liegroup.make_group("so3"))
    field = cotangent.left_invariant_hamiltonian_field(
        bundle, lambda mu: RIGID_BODY_INERTIA * mu, name="anisotropic")
    sys_ = reconstruct.make_tstar_scenario(bundle.group, field)
    theta = reconstruct.build_theta(sys_, sys_.section(TSTAR_BASE))
    connection = reconstruct.ThetaConnection(sys_, theta)
    # the route's error is RK4 truncation, which grows like a power of the
    # covector's norm: keep the norm of the tests' covector, vary the direction
    p0 = cotangent.PhasePoint(_element(bundle.group, _direction(rng, 3, 0.0, 0.4)),
                              _turned(rng, TSTAR_BASE, CONNECTION_TURN))

    def reference():
        # a separate bundle and field: the ambient equations share no state
        # with the route
        ref_bundle = cotangent.CotangentBundle(liegroup.make_group("so3"))
        ref_field = cotangent.left_invariant_hamiltonian_field(
            ref_bundle, lambda mu: RIGID_BODY_INERTIA * mu, name="anisotropic")
        sol = scipy.integrate.solve_ivp(
            ref_bundle.ambient_rhs(ref_field),
            (float(CONNECTION_GRID[0]), float(CONNECTION_GRID[-1])),
            ref_bundle.ambient_coords(p0),
            method="DOP853", rtol=IVP_RTOL, atol=IVP_ATOL, t_eval=CONNECTION_GRID,
        )
        if sol.status != 0:
            raise RuntimeError(f"ambient reference failed: {sol.message}")
        return list(sol.y.T)

    return Call(
        route="connection",
        run=lambda: reconstruct.usual_reconstruct(sys_, connection, p0, CONNECTION_GRID),
        emitted=lambda sample: _phase_rows(bundle.group, sample.points),
        reference=reference,
        tol=CONNECTION_TOL,
        ref_kind="ivp",
    )


def _two_step_call(rng):
    sys_ = reconstruct.make_so3_scenario(section="momentum")
    theta = reconstruct.build_theta(sys_, sys_.section(PAIRS_BASE))
    base = sys_.section(PAIRS_BASE)
    lam = sys_.project(base + 0.3 * rng.standard_normal(6))
    p0 = sys_.act(_element(sys_.group, _direction(rng, 3, 0.0, 0.7)), sys_.section(lam))
    q0, v0 = p0[:3], p0[3:]
    return Call(
        route="two_step",
        run=lambda: reconstruct.two_step_reconstruct(sys_, theta, p0, RECONSTRUCT_GRID),
        emitted=lambda sample: [np.asarray(m, float) for m in sample.points],
        # free particle: straight-line flight at constant velocity
        reference=lambda: [np.concatenate([q0 + t * v0, v0]) for t in RECONSTRUCT_GRID],
        tol=TWO_STEP_TOL,
        ref_kind=None,
    )


def _vertical_call(rng):
    sys_ = reconstruct.make_product_scenario(rate=PRODUCT_RATE)
    theta = reconstruct.build_theta(sys_, sys_.section(PRODUCT_BASE))
    lam = np.array([rng.uniform(1.0, 2.0)])
    zeta = np.append(_direction(rng, 3, 0.0, 0.4), rng.uniform(-0.5, 0.5))
    p0 = sys_.act(_element(sys_.group, zeta), sys_.section(lam))
    speed = PRODUCT_RATE * (1.0 + p0[:3] @ p0[:3])
    return Call(
        route="vertical",
        run=lambda: reconstruct.vertical_integrate(sys_, theta, p0, RECONSTRUCT_GRID),
        emitted=lambda sample: [np.asarray(m, float) for m in sample.points],
        # the vector stays put while the offset moves at a constant speed
        reference=lambda: [np.append(p0[:3], p0[3] + speed * t) for t in RECONSTRUCT_GRID],
        tol=VERTICAL_TOL,
        ref_kind=None,
    )


def build_reconstruct(rng):
    """Connection, two-step and vertical reconstructions, each on its own scenario."""
    return [_connection_call(rng), _two_step_call(rng), _vertical_call(rng)]


WORKLOADS = {
    "exp": build_exp,
    "long-flow": build_long_flow,
    "reconstruct": build_reconstruct,
}
