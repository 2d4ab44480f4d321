"""Reconstruction of invariant trajectories from quotient dynamics.

A scenario bundles a group action with its quotient data: the invariant
projection to orbit coordinates, a section picking one point per orbit, and
the dynamics.  Two concrete families instantiate the machinery: the
left-trivialized cotangent bundle of a catalogue group under left translation
(a free action, flat quotient geometry), and pairs of vectors under the
diagonal rotation action (non-free globally, with a genuinely curved section
and trivializing submersion).  A synthetic rotation-translation product
scenario supplies constant positive-dimensional stabilizers.  The routes
and checks reach points only through a scenario's row-stacked forms
(``InvariantSystem``); they step in phase-space coordinates by
``chart_coords`` and its inverse ``chart_points``, with no chart object.

Three reconstruction routes are implemented.

* ``two_step_reconstruct``: integrate the projected field on the quotient and
  transport the section curve by the (constant) group factor of the initial
  point.  Requires the field to be tangent to the level sets of the
  trivializing submersion.
* ``usual_reconstruct``: the horizontal lift of the quotient curve through the
  section is the section curve; the group factor solves the linear equation
  g' = g eta, eta the connection value of the field there, by fourth-order
  Cayley-Magnus steps g cay(Omega - Omega^3/12).  Free actions only.  No
  matrix exponential runs on this route.
* ``vertical_integrate``: for fields tangent to the orbits the whole motion
  is a one-parameter group factor exp(t eta) acting on a frozen section
  point.  The factor is produced by the quadrature exponential when the
  direction qualifies and by the series oracle otherwise, with the
  provenance flagged.

The two-step and connection routes integrate the quotient curve first, as
the reconstruction equations ask: a walk of Chebyshev-Picard panels on the
17 Chebyshev-Lobatto points of the complete-solution flow's time panels, one
stacked call of the quotient field per sweep, cut where the section margin
runs out (``_default_quotient_integrator``).

Every scenario gives its action generators W (the chart velocities of the
one-parameter action flows) and the section's Jacobian Ds in closed form.
The group factor is the identity on the section image, so there the field
splits as X = W eta + Ds Y: one linear solve gives the rate eta and the
quotient field Y exactly, with no derivative of the group-factor map and
no chart inversion.  That split is the only source of rates: the connection
route's reconstruction equation, the vertical route's factor and both
hypothesis checks read it.  The solved group-factor map takes its
Gauss-Newton Jacobian from W as well.

Each route supplies only its group factor g(t); one shared tail emits
act(g(t), section(lam(t))) and certifies that same curve three ways: it
starts at the initial point, it satisfies the flow equation (centered finite
differences with a small internal step, independent of how the curve was
built), and it projects onto the quotient curve.  A curve that fails any of
the three is refused.  The tail alone places the gate's stencil points,
each as an offset from the output time it belongs to and all inside the
curve's domain; it asks a route for the factors at the output times and at
those points in one stacked call, and builds every point once.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .cotangent import CotangentBundle, PhasePoint
from .expquad import NoAdmissibleCovectorError, exp_general
from .hjsolver import HypothesisError, TrajectorySample, output_times
from .liealg import LieAlgebra, killing_casimir
from .liegroup import (
    CayleyChart,
    ChartDomainError,
    GroupElement,
    MatrixGroup,
    _leading_block,
    _Orthogonal,
    _Pattern,
    _pattern_projector,
    _project_polar_real,
    _so3_basis,
    _UnitDet,
    damped_newton,
    make_group,
    matrix_exp_oracle,
)
from .numutil import _CHEB_BARY, _CHEB_INT, _CHEB_X, _resolved, _walk, ball_sample, central_jacobian, nullspace

FLOW_RESIDUAL_TOL = 1e-5     # universal gate on reconstructed curves
HORIZONTAL_TOL = 1e-6        # trivializing-submersion derivative along the field
VERTICAL_TOL = 1e-6          # quotient derivative along the field
ACTION_TOL = 1e-10           # scenario action and section axioms
THETA_SAMPLE_TOL = 1e-8      # defining identity of a trivializing submersion
QUOTIENT_MATCH_TOL = 1e-8    # projection of the curve against the quotient curve
THETA_DRIFT_TOL = 1e-6       # group factor constancy along two-step output
GAUGE_TOL = 1e-12            # Gauss-Newton target for group-factor solves
GAUGE_ACCEPT = 1e-10         # stall floor still below every downstream tolerance
GAUGE_MAXIT = 40
GAUGE_COND = 1e-6            # singular-value cutoff for gauge-fixing steps
CONNECTION_TOL = 1e-6        # reproduction of action generators by a connection
CONNECTION_SUBSTEPS = 4      # fourth-order steps per grid interval of the connection route
TRANSVERSALITY_FLOOR = 1e-6  # relative smallest singular value of stacked Jacobians
SECTION_EPS = 1e-9           # section domain margin floor
FD_STEP = 1e-6
PICARD_TOL = 1e-13           # relative move at which a quotient panel's Picard sweeps have settled
PICARD_SWEEPS = 40           # sweeps a quotient panel may take to settle
QUOTIENT_HALVINGS = 24       # halvings of a quotient walk, whose span is the caller's, however long
ISOTROPY_RTOL = 1e-8
ALGEBRA_FIT_TOL = 1e-6       # relative residual of a difference-quotient algebra element
THETA_BALL = (64, 11, 0.1)   # (count, seed, radius) of the points certifying a factor map
FIELD_CHECK_BALL = (7, 13, 0.05)  # points besides p0 of the horizontality and verticality checks
AXIOM_SAMPLES = (10, 3)      # (count, seed) of the sampled scenario-axiom check


class ReconstructionError(RuntimeError):
    """A reconstruction route could not certify its output."""


class HorizontalityError(ReconstructionError):
    """The field is not tangent to the trivializing submersion's level sets."""


class VerticalityError(ReconstructionError):
    """The field is not tangent to the group orbits."""


class SectionDomainError(ReconstructionError):
    """The quotient curve left the section domain; a partial sample is attached."""

    def __init__(self, message, partial, t_achieved):
        super().__init__(message)
        self.partial = partial
        self.t_achieved = t_achieved


# -- scenario container ---------------------------------------------------------


class InvariantSystem:
    """A group action with quotient data and one invariant vector field.

    Points are scenario-specific objects.  The scenario hands over its
    callbacks in row-stacked form, where a stack of points is a sequence of
    them and a form that returns points returns a list; algorithms reach
    points only through these forms.  Each keyword of the constructor is
    the name of the form it stores:

    * ``chart_coords(points, centres)``: (k, dim), row i the coordinates of
      points[i] in the chart at centres[i];
    * ``chart_points(coords, centres)``: its inverse, the points at the
      coordinate rows (k, dim) in the charts at the centres;
    * ``sections(lams)``: the section points over the rows of lams (k, q);
    * ``actions(gs, points)``: gs[i] acting on points[i];
    * ``projections(points)``: orbit coordinates (k, q);
    * ``velocities(points, centres=None)``: the field as chart velocities
      (k, dim), in the charts at the centres, by default each point's own
      (centres = points);
    * ``generator_matrices(points, centres=None)``: W (k, dim, group.dim) in
      the same charts, column i the velocity of t -> act(exp(t e_i), m);
    * ``section_jacobians(lams)``: the section's derivative Ds (k, dim, q),
      each in its section point's own chart.

    W and Ds give the connection rate and the quotient field
    (``section_split``) and the Jacobian of the solved group-factor map.
    The field itself is called point by point: it is caller code, such as
    an ``InvariantField`` whose gradient takes one covector, and a gradient
    like ``lambda a: Q @ a`` handed a (3, 3) stack returns a wrong result
    silently.  ``velocities`` stacks only the chart algebra around it.

    ``act``, ``project`` and ``section`` are one-row calls of these forms.
    ``section_margin`` is positive inside the section domain; curves are cut
    where it vanishes.  The optional ``omega_matrix(point)`` is the
    symplectic form in the point's own chart.  Instances are immutable
    after construction.
    """

    def __init__(self, name, group, dim, quotient_dim, chart_coords, chart_points, actions, velocities,
                 projections, sections, generator_matrices, section_jacobians, random_point,
                 section_margin=None, momentum=None, omega_matrix=None, free=False, exact_theta=None):
        self.name = name
        self.group = group
        self.dim = dim
        self.quotient_dim = quotient_dim
        self.chart_coords = chart_coords
        self.chart_points = chart_points
        self.actions = actions
        self.velocities = velocities
        self.projections = projections
        self.sections = sections
        self.generator_matrices = generator_matrices
        self.section_jacobians = section_jacobians
        self.random_point = random_point
        self.section_margin = section_margin or (lambda lam: np.inf)
        self.momentum = momentum
        self.omega_matrix = omega_matrix
        self.free = free
        self.exact_theta = exact_theta

    def act(self, g, m):
        return self.actions([g], [m])[0]

    def project(self, m):
        return self.projections([m])[0]

    def section(self, lam):
        return self.sections(np.asarray(lam, float)[None])[0]

    def chart_distance(self, a, b):
        """Coordinate distance of b from a in the chart centered at a."""
        u = self.chart_coords([b, a], [a, a])
        return float(np.linalg.norm(u[0] - u[1]))


def _along_field(sys, f, m):
    """Centered derivative of f(point) along the field at m, stepped in m's own chart.

    The step shrinks with the field's chart speed, so the stencil moves at most ``FD_STEP``.
    """
    u = sys.chart_coords([m], [m])[0]
    du = sys.velocities([m])[0]
    h = FD_STEP / max(1.0, float(np.linalg.norm(du)))
    fwd, bwd = sys.chart_points([u + h * du, u - h * du], [m, m])
    return (f(fwd) - f(bwd)) / (2.0 * h)


def section_split(sys, lams):
    """Connection rates eta and quotient fields Y at the section points over lams.

    ``lams`` is one vector of orbit coordinates, which gives one eta and one
    Y, or k of them as the columns of a (quotient_dim, k) array, as a
    quotient curve returns them at a vector of times, which gives the row
    stacks (k, dim) of eta and (k, quotient_dim) of Y.
    The group factor is the identity on the section image, so the field there
    is an action generator plus a section velocity: X = W eta + Ds Y, which
    gives both exactly.  Y is unique because the orbit and section tangents
    are transversal (``build_theta`` certifies it).  One call of each
    stacked form gives every [W Ds] and every field value, in the section
    points' own charts.  For a free action [W Ds] is square and
    nonsingular, and one stacked solve takes every point; under a
    stabilizer each point is a least-squares solve and eta the minimum-norm
    rate.
    """
    lams = np.asarray(lams, float)
    rows = lams.reshape(sys.quotient_dim, -1).T
    points = sys.sections(rows)
    splits = np.concatenate([sys.generator_matrices(points), sys.section_jacobians(rows)], axis=2)
    rates = sys.velocities(points)
    if sys.free:
        sol = np.linalg.solve(splits, rates[..., None])[..., 0]
    else:
        sol = np.array([np.linalg.lstsq(a, b, rcond=None)[0] for a, b in zip(splits, rates)])
    k = sys.group.dim
    if lams.ndim == 1:
        return sol[0, :k], sol[0, k:]
    return sol[:, :k], sol[:, k:]


def split_eta(sys, lams):
    """Connection rates at the section points over lams, from ``section_split``."""
    return section_split(sys, lams)[0]


def quotient_field(sys):
    """The projected field on orbit coordinates, evaluated through the section.

    The value at lam is the Y of ``section_split`` at lam.  Invariance makes
    the push-forward of the field along the projection the same at every
    point of the orbit; ``projected_field_defect`` measures that against Y.
    """

    def Y(lam):
        return section_split(sys, lam)[1]

    return Y


def projected_field_defect(sys, m):
    """|push-forward of the field at m - projected field at project(m)|."""
    rate = _along_field(sys, sys.project, m)
    return float(np.linalg.norm(rate - quotient_field(sys)(sys.project(m))))


# -- action generators and isotropy ---------------------------------------------


def fundamental_matrix(sys, m):
    """Columns: chart velocities at m of the one-parameter action flows."""
    return sys.generator_matrices([m])[0]


def isotropy_basis_at(sys, m):
    """Orthonormal basis (columns) of the directions whose generator dies at m."""
    return nullspace(fundamental_matrix(sys, m), rtol=ISOTROPY_RTOL)


def isotropy_dimension_at(sys, m):
    return isotropy_basis_at(sys, m).shape[1]


def momentum_defect(sys, m):
    """Defining-equation defect of the momentum map at m.

    Compares the symplectic pairing of each action generator against the
    derivative of the corresponding momentum component, both in chart
    coordinates; the maximum entry of the difference is returned.
    """
    if sys.momentum is None or sys.omega_matrix is None:
        raise ValueError(f"scenario {sys.name} carries no momentum map")
    u = sys.chart_coords([m], [m])[0]
    W = fundamental_matrix(sys, m)
    O = sys.omega_matrix(m)
    JK = central_jacobian(lambda x: sys.momentum(sys.chart_points([x], [m])[0]), u, 1e-4, richardson=True)
    return float(np.max(np.abs(W.T @ O - JK)))


# -- scenario validation ---------------------------------------------------------


def validate_invariant_system(sys):
    """Sampled defects of the scenario axioms, as a dict of maxima.

    Covers the action identity and composition laws, invariance of the
    quotient projection, the section property, invariance of the field, and
    (when present) equivariance of the momentum map and its defining
    equation, on ``AXIOM_SAMPLES`` seeded random points.
    """
    n_samples, seed = AXIOM_SAMPLES
    rng = np.random.default_rng(seed)
    grp = sys.group
    keys = ["action_identity", "action_composition", "projection_invariance", "section_property",
            "field_invariance"]
    if sys.momentum is not None:
        keys += ["momentum_equivariance"] + (["momentum_equation"] if sys.omega_matrix is not None else [])
    out = dict.fromkeys(keys, 0.0)

    def worst(key, value):
        out[key] = max(out[key], float(value))

    for _ in range(n_samples):
        m = sys.random_point(rng)
        g = matrix_exp_oracle(grp, 0.4 * rng.standard_normal(grp.dim))
        h = matrix_exp_oracle(grp, 0.4 * rng.standard_normal(grp.dim))
        worst("action_identity", sys.chart_distance(m, sys.act(grp.identity(), m)))
        worst("action_composition", sys.chart_distance(sys.act(g @ h, m), sys.act(g, sys.act(h, m))))
        worst("projection_invariance", np.linalg.norm(sys.project(sys.act(g, m)) - sys.project(m)))
        lam = sys.project(m)
        if sys.section_margin(lam) > 0:
            worst("section_property", np.linalg.norm(sys.project(sys.section(lam)) - lam))
        gm = sys.act(g, m)
        pushed = _along_field(sys, lambda mm: sys.chart_coords([sys.act(g, mm)], [gm])[0], m)
        worst("field_invariance", np.linalg.norm(pushed - sys.velocities([gm])[0]))
        if sys.momentum is not None:
            worst("momentum_equivariance", np.linalg.norm(sys.momentum(gm) - grp.coadjoint(g, sys.momentum(m))))
            if sys.omega_matrix is not None:
                worst("momentum_equation", momentum_defect(sys, m))
    return out


# -- trivializing submersions -----------------------------------------------------


class _GroupFactor:
    """Group-factor map m -> g with act(g, section(project(m))) = m.

    Subclasses define ``__call__(m, warm=None)`` and ``factors(ms, warm=None)``,
    its stacked form; ``warm`` is a start in the Cayley chart of the group at
    the identity, as returned by ``coords_of``.
    """

    def __init__(self, sys):
        self.sys = sys
        self.gchart = CayleyChart(sys.group)

    def coords_of(self, g):
        """Cayley-chart coordinates of a group factor, for warm starts."""
        return self.gchart.to_coords(g)


class HorizontalSubmersion(_GroupFactor):
    """Group-factor map of a section: solves act(g, section(project(m))) = m.

    The solve is Gauss-Newton over Cayley-chart coordinates n of g near the
    identity, one stacked solve per call of ``factors``, with minimum-norm
    steps; on positive-dimensional stabilizers the steps stay orthogonal to
    the gauge directions, which fixes the representative deterministically.
    The base point maps to the identity.  Every trial takes its residuals
    with one stacked action and one stacked ``chart_coords`` call, and
    every step its Jacobians with one stacked ``jacobians`` call.  The
    Jacobian is exact: moving n by dn moves g = cay(A(n)) by the spatial
    velocity dg g^-1 = (I + g) dA (I + g^-1) / 4, which moves
    act(g, target) along the generator of that velocity, so J = W S with W
    the scenario's generators at act(g, target) in the chart at m and S
    the matrix of dn -> dg g^-1.

    A point whose factor cannot be certified raises ReconstructionError:
    either the residual stalls above ``GAUGE_ACCEPT``, or the solve's start
    leaves the identity Cayley chart, in which case the ChartDomainError is
    chained as the cause.  A non-finite residual raises ValueError.
    """

    def __init__(self, sys, m0):
        gap = sys.chart_distance(m0, sys.section(sys.project(m0)))
        if gap > ACTION_TOL:
            raise ReconstructionError(
                f"base point is off the section image (distance {gap:.3e})"
            )
        super().__init__(sys)

    def __call__(self, m, warm=None):
        return self.factors([m], warm)[0]

    def factors(self, ms, warm=None):
        """Group factors of the points ms as one stack, every row started from ``warm``."""
        sys = self.sys
        targets = sys.sections(sys.projections(ms))
        ref = sys.chart_coords(ms, ms)
        n = np.tile(np.zeros(sys.group.dim) if warm is None else np.asarray(warm, float), (len(ms), 1))

        def trial(rows, nn, _states):
            g = [GroupElement(a, sys.group, ainv) for a, ainv in zip(*self.gchart.from_coords(nn))]
            moved = sys.actions(g, [targets[i] for i in rows])
            return sys.chart_coords(moved, [ms[i] for i in rows]) - ref[rows], list(zip(g, moved))

        def step(rows, _nn, r, states):
            g, moved = zip(*states)
            # small singular values are stabilizer directions; truncating
            # them keeps the step minimal-norm and bounded
            return np.array([scipy.linalg.lstsq(J, -ri, cond=GAUGE_COND, lapack_driver="gelsd")[0]
                             for J, ri in zip(self.jacobians([ms[i] for i in rows], moved, g), r)])

        try:
            _n, _r, rn, states = damped_newton(n, trial, step, GAUGE_TOL, GAUGE_MAXIT, 20)
        except ChartDomainError as err:
            raise ReconstructionError(f"group-factor solve left the identity chart: {err}") from err
        if np.max(rn) <= GAUGE_ACCEPT:
            # stalls this small happen at ill-conditioned section points near
            # the domain edge; the residual still undercuts every consumer
            return [g for g, _moved in states]
        raise ReconstructionError(
            f"group-factor solve did not converge (residual {np.max(rn):.3e}); "
            "point outside the reachable neighborhood"
        )

    def jacobians(self, centres, moved, gs):
        """Jacobians (k, dim, group.dim): row i differentiates the coordinates of moved[i] =
        act(gs[i], target i) in the chart at centres[i] by the Cayley-chart coordinates of gs[i]."""
        grp = self.sys.group
        eye = np.eye(grp.N)
        G = np.array([g.matrix for g in gs])
        spatial = 0.25 * grp._conjugations(eye + G, eye + np.array([g.inv_matrix for g in gs])).swapaxes(1, 2)
        return self.sys.generator_matrices(moved, centres) @ spatial


class ClosedFormFactor(_GroupFactor):
    """Group-factor map given in closed form by the scenario.

    Same calling surface as the solved map; the warm argument is accepted
    and ignored.
    """

    def __init__(self, sys, fn):
        super().__init__(sys)
        self.fn = fn

    def __call__(self, m, warm=None):
        return self.fn(m)

    def factors(self, ms, warm=None):
        return [self.fn(m) for m in ms]


def transversality_defect(sys, theta, m):
    """Relative smallest singular value of the stacked quotient/factor Jacobians.

    The projection and the group-factor map are jointly immersive exactly
    when their kernels intersect trivially, which (dimensions adding up)
    makes the two kernels span the tangent space.  The Jacobians are
    central differences on ``_chart_cross``'s stencil, whose factors come
    from one ``factors`` call.
    """
    tchart = CayleyChart(sys.group, theta(m))
    ms = _chart_cross(sys, m)[1:]
    both = np.hstack([sys.projections(ms), np.array([tchart.to_coords(g) for g in theta.factors(ms)])])
    s = np.linalg.svd((both[: sys.dim] - both[sys.dim :]).T / (2.0 * FD_STEP), compute_uv=False)
    return float(s[sys.dim - 1] / s[0])


def _chart_cross(sys, m):
    """The points at u and u +- ``FD_STEP`` e_i of m's own chart, u the coordinates of m there.

    One ``chart_points`` call: the centre first, then the plus steps and
    the minus steps, each in the order of the axes.
    """
    steps = FD_STEP * np.eye(sys.dim)
    u = sys.chart_coords([m], [m])[0]
    return sys.chart_points(u + np.vstack([np.zeros(sys.dim), steps, -steps]), [m] * (2 * sys.dim + 1))


def _chart_ball(sys, m0, count, seed, radius):
    """Seeded points uniform in the ball of ``radius`` in the chart at m0."""
    offsets = radius * ball_sample(np.random.default_rng(seed), count, sys.dim)
    return sys.chart_points(sys.chart_coords([m0], [m0])[0] + offsets, [m0] * count)


def build_theta(sys, m0, use_exact=True):
    """Construct and certify the trivializing group-factor map based at m0.

    Scenarios with a closed-form group factor use it directly unless
    ``use_exact`` is off.  Certification samples the defining identity and
    the section-to-identity property in a chart ball around the base point
    (one stacked factor solve for both), and checks joint transversality
    with the quotient projection there.
    """
    if use_exact and sys.exact_theta is not None:
        theta = ClosedFormFactor(sys, sys.exact_theta)
    else:
        theta = HorizontalSubmersion(sys, m0)
    g0 = theta(m0)
    ident_gap = float(np.linalg.norm(g0.matrix - np.eye(sys.group.N)))
    if ident_gap > THETA_SAMPLE_TOL:
        raise ReconstructionError(
            f"group factor at the base point is not the identity (gap {ident_gap:.3e})"
        )
    ball = [m for m in _chart_ball(sys, m0, *THETA_BALL) if sys.section_margin(sys.project(m)) > 0]
    worst = worst_sec = 0.0
    if ball:
        k = len(ball)
        secs = sys.sections(sys.projections(ball))
        gs = theta.factors(ball + secs)
        u = sys.chart_coords(sys.actions(gs[:k], secs) + ball, ball + ball)
        worst = float(np.max(np.linalg.norm(u[:k] - u[k:], axis=1)))
        worst_sec = max(float(np.linalg.norm(g.matrix - np.eye(sys.group.N))) for g in gs[k:])
    if worst > THETA_SAMPLE_TOL or worst_sec > THETA_SAMPLE_TOL:
        raise ReconstructionError(
            f"trivializing submersion failed certification "
            f"(defining defect {worst:.3e}, section defect {worst_sec:.3e})"
        )
    tv = transversality_defect(sys, theta, m0)
    if tv < TRANSVERSALITY_FLOOR:
        raise ReconstructionError(
            f"quotient and group-factor kernels do not span (defect {tv:.3e})"
        )
    return theta


def _algebra_fit(group, mats):
    """Algebra coordinates of matrices (..., N, N) known only up to finite-difference noise.

    Every matrix is fitted by one ``lstsq``; returns the coordinates (..., dim).
    """
    u = np.array([group.flat(mat) for mat in np.reshape(mats, (-1, group.N, group.N))]).T
    coords, *_rest = np.linalg.lstsq(group._basis_flat.T, u, rcond=None)
    resid = np.linalg.norm(group._basis_flat.T @ coords - u, axis=0)
    if (resid > ALGEBRA_FIT_TOL * np.maximum(1.0, np.linalg.norm(u, axis=0))).any():
        raise ValueError(
            f"{group.name}: matrix is not an algebra element (residual {resid.max():.2e})"
        )
    return coords.T.reshape(np.shape(mats)[:-2] + (group.dim,))


# -- flow-equation gate --------------------------------------------------------


def _stencil(ts, t_end):
    """The flow gate's stencils on the output times ts of a curve that lasts to t_end.

    Each sample's stencil is a centre and the points ``FD_STEP`` after and
    before it.  The centre is its output time, shifted inward where that
    time is nearer than ``FD_STEP`` to ts[0] or t_end, so the whole stencil
    lies in [ts[0], t_end].  Every point is an offset from the output time
    it belongs to.  Returns (owner, offset, rows): the curve is read at the
    times ts[owner] + offset, the output times themselves first, then each
    stencil point that is not one of them; rows (3, k) are the indices of
    every sample's centre, + and - point into that list.  A curve shorter
    than the stencil raises ReconstructionError.
    """
    k = len(ts)
    lo, hi = ts[0] - ts + FD_STEP, t_end - ts - FD_STEP
    if hi[0] < lo[0]:
        raise ReconstructionError(
            f"quotient curve ends at t={t_end:g}, inside the gate's stencil 2 FD_STEP from its start"
        )
    shift = np.clip(0.0, lo, hi)
    offset = np.concatenate([shift, shift + FD_STEP, shift - FD_STEP])
    owner = np.tile(np.arange(k), 3)
    off = offset != 0.0
    rows = np.where(off, k + np.cumsum(off) - 1, owner).reshape(3, k)
    return np.concatenate([np.arange(k), owner[off]]), np.concatenate([np.zeros(k), offset[off]]), rows


def flow_residual_rows(sys, centres, plus, minus):
    """Per-sample |centered-difference derivative - field| along a curve.

    Sample i reads the curve at its stencil centre ``centres[i]`` and at
    ``plus[i]`` and ``minus[i]``, the points ``FD_STEP`` after and before
    it in time, all in the chart at the centre: one stacked ``chart_coords``
    call gives the differences, one stacked ``velocities`` call the field.
    """
    k = len(centres)
    u = sys.chart_coords([*plus, *minus], [*centres, *centres])
    dfd = (u[:k] - u[k:]) / (2.0 * FD_STEP)
    return np.linalg.norm(dfd - sys.velocities(centres), axis=1)


def _certified(sys, p0, ts, factor, lam, quotient_tol, diagnostics, t_reached=None, audit=None):
    """Emit act(factor(t), section(lam(t))) on ts and certify that same curve.

    The curve is read at the output times and at the gate's stencil points
    (``_stencil``), each point built once: ``factor(owner, offset)`` is
    called once, for all of them, and returns the group factors at the
    times ts[owner] + offset as one stack; ``lam`` is called twice, with
    the vector of the output times and with the vector of the other times,
    and returns the quotient points as columns (as the gamma of
    ``_default_quotient_integrator`` does).  The curve is one stacked
    ``sections`` and one ``actions`` call, and its emitted points one
    ``projections`` call.  It must start at p0, satisfy the flow equation
    (``flow_residual_rows`` on the stencils) and project onto the emitted
    quotient points within ``quotient_tol``; ``audit`` runs a route's own
    check on the emitted points.  A quotient
    curve cut at ``t_reached`` raises SectionDomainError carrying the
    certified partial sample; no stencil point lies past ``t_reached``.
    """
    ts = np.asarray(ts, float)
    t_end = float(ts[-1]) if t_reached is None else t_reached
    kept = ts[ts <= t_end + 1e-12]
    owner, offset, rows = _stencil(kept, t_end)
    k = len(kept)
    # two reads, not one: the emitted points then never depend on the stencil,
    # whatever interpolant a quotient integrator hands over
    lams = np.vstack([np.asarray(lam(t), float).T for t in (kept, kept[owner[k:]] + offset[k:])])
    curve = sys.actions(factor(owner, offset), sys.sections(lams))
    points = curve[:k]
    start = sys.chart_distance(p0, points[0])
    flow_rows = flow_residual_rows(sys, *([curve[i] for i in r] for r in rows))
    flow = float(np.max(flow_rows))
    qrows = np.linalg.norm(sys.projections(points) - lams[:k], axis=1)
    qdrift = float(np.max(qrows))
    diagnostics.update(
        start_defect=start,
        flow_residual_max=flow,
        flow_residuals=flow_rows,
        quotient_match_max=qdrift,
        quotient_match_rows=qrows,
    )
    sample = TrajectorySample(kept, points, diagnostics)
    if start > THETA_SAMPLE_TOL:
        raise ReconstructionError(f"curve does not start at the initial point (distance {start:.3e})")
    if flow > FLOW_RESIDUAL_TOL:
        raise ReconstructionError(f"flow-equation defect {flow:.3e} exceeds the gate")
    if audit is not None:
        audit(points)
    if qdrift > quotient_tol:
        raise ReconstructionError(f"projection left the quotient curve ({qdrift:.3e})")
    if len(kept) < len(ts):
        raise SectionDomainError(
            f"quotient curve left the section domain at t={t_reached:g}", sample, t_reached
        )
    return sample


def _output_grid(t_grid):
    """Output times read by ``output_times``; ValueError names the first one below its
    predecessor, or a span shorter than the flow gate's stencil, 2 ``FD_STEP``."""
    ts = output_times(t_grid)
    back = np.flatnonzero(ts[1:] < ts[:-1]) + 1
    if back.size:
        raise ValueError(f"output time ts[{back[0]}] = {ts[back[0]]} is smaller than the one before it")
    if ts.size < 2 or ts[-1] - ts[0] < 2.0 * FD_STEP:
        raise ValueError(f"the output times span less than the gate's stencil 2 FD_STEP = {2 * FD_STEP:g}")
    return ts


# -- quotient integration --------------------------------------------------------


def _default_quotient_integrator(sys):
    """Quotient curve on Chebyshev-Picard panels, cut at the section domain's edge.

    Returns (gamma, t_reached): gamma evaluates the quotient curve for
    t <= t_reached, at one time or, as columns, at a vector of times;
    t_reached is the requested endpoint unless the section margin falls to
    ``SECTION_EPS`` first.

    The curve is a ``_walk`` of panels from t_span[0] with up to
    ``QUOTIENT_HALVINGS`` halvings (Clenshaw and Norton, Comput. J. 6, 1963;
    Bai and Junkins, J. Astronaut. Sci. 58, 2011).  The values lam at a
    panel's Chebyshev-Lobatto times start at its start value lam_a and sweep
    lam <- lam_a + (b - a)/2 ``_CHEB_INT`` Y(lam), one stacked call of Y per
    sweep, its nodes as columns.  The panel is accepted once a sweep moves
    lam by at most ``PICARD_TOL`` max(1, |lam|) and lam is ``_resolved``.
    It is refused when the moves stop shrinking (two sweeps running bring
    no new least move), turn non-finite or outlast ``PICARD_SWEEPS``.  An
    accepted panel with a node whose margin is at most ``SECTION_EPS`` ends
    the walk: t_reached is the root of the margin minus ``SECTION_EPS``
    along its interpolant, which gamma reads up to t_reached.  A walk that
    stops short of t_span[1] anywhere else raises ReconstructionError.

    gamma interpolates barycentrically on the panel of each time, summing
    over the nodes entry by entry, so a time reads the same bits alone as in
    any vector.
    """

    def integrator(Y, lam0, t_span):
        t0, lam0 = float(t_span[0]), np.asarray(lam0, float)
        panels = []

        def panel(a, b):
            start = panels[-1][2][-1] if panels else lam0
            lam, least, stalls = np.tile(start, (len(_CHEB_X), 1)), np.inf, 0
            # the sweeps of a panel too wide to contract may overflow before it is refused
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for _ in range(PICARD_SWEEPS):
                    new = start + 0.5 * (b - a) * (_CHEB_INT @ Y(lam.T))
                    new[0] = start  # the integral from a to a
                    move, lam = np.max(np.abs(new - lam)), new
                    if not np.isfinite(move):
                        return None
                    if move <= PICARD_TOL * max(1.0, np.max(np.abs(lam))):
                        break
                    stalls = stalls + 1 if move >= least else 0
                    if stalls == 2:
                        return None
                    least = min(least, move)
                else:
                    return None
            return lam if _resolved(lam) else None

        # cut: the first node of the last panel at or below the margin, if any
        end, reached, cut = float(t_span[1]) - t0, 0.0, None
        for a, reached, lam in _walk(end, panel, QUOTIENT_HALVINGS):
            panels.append((t0 + a, t0 + reached, lam))
            cut = next((j for j, row in enumerate(lam) if sys.section_margin(row) <= SECTION_EPS), None)
            if cut is not None:
                break
        if cut is None and reached != end:
            raise ReconstructionError(
                f"quotient integration failed at t={t0 + reached:g}: its Picard sweeps settled on no panel there")
        starts, ends, values = (np.array(part) for part in zip(*panels))

        def gamma(t):
            t = np.asarray(t, float)
            flat = np.atleast_1d(t)
            i = np.minimum(np.searchsorted(ends, flat), len(ends) - 1)
            gap = (2.0 * flat - starts[i] - ends[i])[:, None] / (ends[i] - starts[i])[:, None] - _CHEB_X
            hit = gap == 0.0
            w = _CHEB_BARY / np.where(hit, 1.0, gap)
            on = hit.any(axis=1)
            w[on] = hit[on]  # a time on a node reads that node's value
            rows = values[i]
            num, den = w[:, 0, None] * rows[:, 0], w[:, 0].copy()
            for j in range(1, len(_CHEB_X)):
                num += w[:, j, None] * rows[:, j]
                den += w[:, j]
            lams = num / den[:, None]
            return lams[0] if t.ndim == 0 else lams.T

        t_reached = float(t_span[1])
        if cut is not None:
            # bisect along the last panel, from its last node inside the margin to the first out, to the last bit
            times = starts[-1] + 0.5 * (ends[-1] - starts[-1]) * (_CHEB_X + 1.0)
            lo, hi = times[max(cut - 1, 0)], times[cut]
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                lo, hi = (mid, hi) if sys.section_margin(gamma(mid)) > SECTION_EPS else (lo, mid)
                mid = 0.5 * (lo + hi)
            t_reached = float(lo)
        return gamma, t_reached

    return integrator


# -- two-step route ---------------------------------------------------------------


def _split_near(sys, p0, part):
    """Max norm of one ``section_split`` part over p0 and the ``FIELD_CHECK_BALL`` points.

    Each point is read through its orbit coordinates; part 0 is the rate
    eta, part 1 the quotient field Y.
    """
    points = [p0, *_chart_ball(sys, p0, *FIELD_CHECK_BALL)]
    rows = section_split(sys, sys.projections(points).T)[part]
    return float(np.max(np.linalg.norm(rows, axis=1)))


def check_theta_horizontal(sys, p0):
    """Max group-factor rate along the field near p0; error above tolerance.

    By invariance the field's group-factor rate at m = act(g, s), s on the
    section, is Ad_g of the split's eta at s: the two vanish together, and
    where Ad_g is orthogonal (so3, and its product with a line) their norms
    agree.  The check reads |eta| from the split and solves no group factor.
    """
    worst = _split_near(sys, p0, 0)
    if worst > HORIZONTAL_TOL:
        raise HorizontalityError(
            f"field moves the group factor (rate {worst:.3e}); "
            "it is not horizontal for this trivialization"
        )
    return worst


def two_step_reconstruct(sys, theta, p0, t_grid, quotient_integrator=None):
    """Reconstruct the trajectory through p0 as a moving section point.

    The quotient curve is integrated first, on Chebyshev-Picard panels
    (``_default_quotient_integrator``) unless ``quotient_integrator`` is
    given, which returns what that integrator does; the output is the
    section along the curve, transported by the group factor g0 of the
    initial point.  The group factor is checked to be constant along the
    field beforehand and along the output afterwards, by one stacked solve
    of the emitted points' factors from g0.
    """
    ts = _output_grid(t_grid)
    horiz = check_theta_horizontal(sys, p0)
    g0 = theta(p0)
    integrator = quotient_integrator or _default_quotient_integrator(sys)
    gamma, t_reached = integrator(quotient_field(sys), sys.project(p0), (float(ts[0]), float(ts[-1])))
    diagnostics = {"route": "two-step", "horizontality_defect": horiz}

    def drift(points):
        gs = np.array([g.matrix for g in theta.factors(points, warm=theta.coords_of(g0))])
        rows = np.linalg.norm(np.linalg.solve(np.broadcast_to(g0.matrix, gs.shape), gs) - np.eye(sys.group.N),
                              axis=(1, 2))
        tdrift = float(np.max(rows))
        diagnostics.update(factor_drift_max=tdrift, factor_drift_rows=rows)
        if tdrift > THETA_DRIFT_TOL:
            raise ReconstructionError(f"group factor drifted along the output ({tdrift:.3e})")

    return _certified(sys, p0, ts, lambda owner, _offset: [g0] * len(owner), gamma, QUOTIENT_MATCH_TOL,
                      diagnostics, t_reached, drift)


# -- connection route --------------------------------------------------------------


class ThetaConnection:
    """Principal connection induced by a trivializing submersion.

    The value on a tangent vector is the right-translated derivative of the
    group factor along it; action generators reproduce their direction up to
    a stabilizer shift, and level sets of the factor map are the horizontal
    spaces.
    """

    def __init__(self, sys, theta):
        self.sys = sys
        self.theta = theta

    def matrix(self, m):
        """Matrix taking chart velocities at m, in m's own chart, to algebra coordinates.

        The factor map is read at the points of that chart only, its centre
        too: at chart_points(chart_coords([m], [m]), [m]), not at m itself.
        The centre and the central-difference stencil come from one
        ``chart_points`` call, and the stencil's factors from one
        ``factors`` call, warm-started at the centre's.
        """
        sys, theta = self.sys, self.theta
        centre, *stencil = _chart_cross(sys, m)
        g0 = theta(centre)
        G = np.array([g.matrix for g in theta.factors(stencil, warm=theta.coords_of(g0))])
        D = (G[: sys.dim] - G[sys.dim :]) / (2.0 * FD_STEP)
        return _algebra_fit(sys.group, D @ np.linalg.inv(g0.matrix)).T


def connection_reproduction_defect(sys, connection, m):
    """Spectral norm of A W - I: the sup over unit xi of |connection(action generator of xi) - xi|."""
    AW = connection.matrix(m) @ fundamental_matrix(sys, m)
    return float(np.linalg.norm(AW - np.eye(len(AW)), 2))


def _magnus_step(sys, gamma, t, h):
    """Factors of fourth-order Cayley-Magnus steps of g' = g eta(t), as a stack (k, N, N).

    Step i starts at t[i] and lasts h[i].  eta is the connection rate of the
    field at the section over the quotient curve gamma (``split_eta``),
    taken at the two Gauss nodes of every step, all from one call of gamma
    and one stacked split.  With Omega = h/2 (eta1 + eta2) + sqrt(3) h^2/12
    [eta1, eta2], the fourth-order Magnus exponent as a matrix, the factor
    is C = cay(Omega - Omega^3/12).  cay(X) = exp(X + X^3/12 + O(X^5)), so
    C = exp(Omega) + O(h^5) and no exponential is taken (Iserles, Found.
    Comput. Math. 1, 2001; Marthinsen and Owren, Appl. Numer. Math. 39,
    2001).  Omega^3 lies in the algebra of every catalogued group.  cay is
    the identity-centred ``CayleyChart``, so C lies on the group by
    construction, and a step past the chart raises its ChartDomainError.
    """
    t, h = np.asarray(t, float), np.asarray(h, float)
    c = np.sqrt(3.0) / 6.0
    k = len(t)
    eta = split_eta(sys, gamma(np.concatenate([t + (0.5 - c) * h, t + (0.5 + c) * h])))
    eta1, eta2 = eta[:k], eta[k:]
    grp = sys.group
    bracket = np.einsum("ki,kj,ijl->kl", eta1, eta2, grp.algebra.c)
    omega = (0.5 * h)[:, None] * (eta1 + eta2) + (np.sqrt(3.0) * h * h / 12.0)[:, None] * bracket
    om = (omega @ grp._basis_rows).reshape(k, grp.N, grp.N)
    x = omega - grp._algebra_coords_stack(om @ om @ om) / 12.0
    return CayleyChart(grp).from_coords(x)[0]


def usual_reconstruct(sys, connection, p0, t_grid):
    """Reconstruct through the section curve and the reconstruction equation.

    Free-action scenarios only.  The connection must first reproduce the
    action generators at p0.  Its horizontal spaces are the level sets of the
    group-factor map, which is the identity on the section image, so the
    horizontal lift of the quotient curve gamma through the section is the
    section curve d(t) = section(gamma(t)) itself; gamma comes from
    Chebyshev-Picard panels (``_default_quotient_integrator``).  The group
    factor solves the linear equation g' = g eta(t), eta the connection
    value of the field at d(t), from g(0) = theta(p0) by fourth-order
    Cayley-Magnus steps on a fine grid of ``CONNECTION_SUBSTEPS`` steps per
    grid interval; the output
    is act(g(t), d(t)), and no matrix exponential runs.  The stored factors
    are the running product of the steps.  Each of the gate's stencil points
    is one more step from the last stored factor at or before its time, so
    a backward point steps across the stored node it checks.  The fine
    steps and those partial steps, taken from the times the gate asks for,
    are one ``_magnus_step`` stack, so every eta comes from one stacked
    split, and every factor the curve reads passes one ``elements`` check.
    eta and the quotient field both come from the linear split at the
    section (``section_split``), so the route never differentiates the
    group-factor map; the connection's own derivative serves only the
    reproduction check.
    """
    if not sys.free:
        raise ReconstructionError(
            "reconstruction by connection needs a free action; "
            f"scenario {sys.name} has stabilizers"
        )
    ts = _output_grid(t_grid)
    rep = connection_reproduction_defect(sys, connection, p0)
    if rep > CONNECTION_TOL:
        raise ReconstructionError(
            f"connection does not reproduce action generators (defect {rep:.3e})"
        )
    gamma, t_reached = _default_quotient_integrator(sys)(
        quotient_field(sys), sys.project(p0), (float(ts[0]), float(ts[-1]))
    )
    kept = ts[ts <= t_reached + 1e-12]
    fine_ts = [float(kept[0])]
    for a, b in zip(kept[:-1], kept[1:]):
        fine_ts.extend(np.linspace(a, b, CONNECTION_SUBSTEPS + 1)[1:])
    fine_ts = np.asarray(fine_ts)
    n = len(fine_ts) - 1
    diagnostics = {"route": "connection", "connection_reproduction": rep}

    def factor(owner, offset):
        times = kept[owner] + offset
        # the last stored factor at or before each time, and the partial step past it
        base = np.searchsorted(fine_ts, times + 1e-14, side="right") - 1
        past = times - fine_ts[base]
        partial = np.flatnonzero(past > 1e-14)
        steps = _magnus_step(sys, gamma, np.concatenate([fine_ts[:-1], fine_ts[base[partial]]]),
                             np.concatenate([np.diff(fine_ts), past[partial]]))
        mats = [connection.theta(p0).matrix]
        for c in steps[:n]:
            mats.append(mats[-1] @ c)
        mats = np.array(mats)[base]
        mats[partial] = mats[partial] @ steps[n:]
        membership = sys.group.membership_residuals(mats)
        diagnostics["membership_max"] = float(membership.max())
        return sys.group.elements(mats, membership)

    return _certified(sys, p0, ts, factor, gamma, QUOTIENT_MATCH_TOL, diagnostics, t_reached)


# -- vertical route ----------------------------------------------------------------


def check_vertical(sys, p0):
    """Max quotient rate along the field near p0; error above tolerance.

    The push-forward of the field at m along the projection is the split's
    quotient field Y at project(m), so the check reads |Y| from the split.
    """
    worst = _split_near(sys, p0, 1)
    if worst > VERTICAL_TOL:
        raise VerticalityError(
            f"field moves the quotient coordinates (rate {worst:.3e}); it is not vertical"
        )
    return worst


def vertical_integrate(sys, theta, p0, t_grid, chi=None):
    """Integrate an orbit-tangent field as a one-parameter group factor.

    The output is act(g0 exp(t (eta + chi)), section(lam)) with g0 and lam
    the group factor and orbit coordinates of p0, eta the rate of the field
    at the section point (``split_eta``; the minimum-norm one under a
    stabilizer), and chi an optional stabilizer shift (any choice yields the
    same curve; zero is the default).  The exponential curve comes from the
    quadrature route when the direction admits it and from the series oracle
    otherwise; diagnostics record which.

    The factor at output time t_k is g0 f_k, f_k = E(t_k); a gate point at
    offset s from the output time it belongs to is g0 f_k E(s), with
    E(-s) = E(s)^-1.  One exponential call samples E at exactly the output
    times and the offsets, and every factor passes one ``elements`` check.
    f_k^-1 f_(k+1) is held to E(t_(k+1) - t_k) from that call by one stacked
    solve, so the emitted factors agree.  Each distinct grid step d is
    also held to its short factor E(d / 2^m), d / 2^m <= FD_STEP, squared m
    times, which ties the speed of the output times to the speed the gate
    sees at its offsets.
    """
    ts = _output_grid(t_grid)
    if abs(ts[0]) > 1e-14:
        raise ValueError("vertical integration expects a grid starting at t=0")
    vert = check_vertical(sys, p0)
    lam = sys.project(p0)
    g0 = theta(p0)
    eta = split_eta(sys, lam)
    zeta = eta if chi is None else eta + np.asarray(chi, float)

    grp = sys.group
    diagnostics = {"route": "vertical", "verticality_defect": vert, "eta": eta}

    def factor(owner, offset):
        # E is sampled at the output times, the offsets, each distinct grid step
        # d (steps at most 1e-12 apart share the smallest) and its short step
        # d / 2^m <= FD_STEP, m the halvings that take d there
        d = np.unique(np.diff(ts))
        d = d[np.diff(d, prepend=-1.0) > 1e-12]
        steps = d[np.searchsorted(d, np.diff(ts) + 1e-12, side="right") - 1]
        m = np.ceil(np.log2(np.maximum(d, FD_STEP) / FD_STEP)).astype(int)
        grid = np.unique(np.concatenate([ts, np.abs(offset), d, d / 2.0**m]))
        warnings = []
        try:
            samples = exp_general(grp, zeta, grid).elements
            provenance = "quadrature"
        except (NoAdmissibleCovectorError, ValueError, ChartDomainError, HypothesisError) as err:
            samples = [matrix_exp_oracle(grp, zeta, t) for t in grid]
            provenance = "oracle"
            warnings.append(f"group factor by series oracle: {err}")
        samples = np.array([e.matrix for e in samples])

        def exp_at(s):
            """The sampled factors E(s) at a vector of sampled offsets s, with E(-s) = E(s)^-1."""
            E = samples[np.searchsorted(grid, np.abs(s))]
            back = s < 0
            if back.any():
                E[back] = np.linalg.inv(E[back])
            return E

        F = exp_at(ts)
        short = exp_at(d / 2.0**m)
        for i in range(m.max()):
            short[m > i] = short[m > i] @ short[m > i]
        gaps = np.concatenate([np.linalg.solve(F[:-1], F[1:]) - exp_at(steps), short - exp_at(d)])
        consistency = float(np.linalg.norm(gaps, axis=(1, 2)).max())
        diagnostics.update(group_factor=provenance, factor_consistency_max=consistency, warnings=warnings)
        if consistency > THETA_DRIFT_TOL:
            raise ReconstructionError(f"emitted group factors disagree with their steps ({consistency:.3e})")
        mats = (g0.matrix @ F)[owner]
        moved = offset != 0.0
        mats[moved] = mats[moved] @ exp_at(offset[moved])
        return grp.elements(mats)

    return _certified(sys, p0, ts, factor, lambda t: np.multiply.outer(lam, np.ones_like(t)),
                      THETA_DRIFT_TOL, diagnostics)


# -- scenario: trivialized cotangent bundle -----------------------------------------


def make_tstar_scenario(group, field=None):
    """Left-translation scenario on a trivialized cotangent bundle.

    ``group`` is a catalogue key or a MatrixGroup; ``field`` an invariant
    field of the bundle (body components depending on the fiber only) or a
    callable point -> body tangent.  Defaults to the inverse-Killing-metric
    vertical field on groups where that exists.  The action is free, the
    quotient is the fiber, the section plants points at the identity, and
    the exact group-factor map is the group component itself.  The action
    moves g along xi g = g Ad_g^-1 xi and leaves the fiber alone, so the
    generators are [M(g) Ad_g^-1 ; 0] with M the phase chart's tangent
    matrix of the group part, and the section's Jacobian is [0 ; I].  In
    the chart at a centre c the group part has the Cayley coordinates A of
    C = c^-1 g, A/2 = (C + I)^-1 (C - I), and M is the matrix of
    v -> (I + A/2) X(v) (I - A/2) on algebra coordinates; in a point's own
    chart A = 0, M = I, and the symplectic form is the bundle's body one.
    """
    if isinstance(group, str):
        group = make_group(group)
    bundle = CotangentBundle(group)
    if field is None:
        from .cotangent import build_casimir_field

        field = build_casimir_field(bundle, killing_casimir(group.algebra))
    n = group.dim
    # every section point shares one identity element and so one chart
    ident = group.identity()
    gchart = CayleyChart(group, ident)
    eye = ident.matrix
    # M in a point's own chart, and the generators there of the section points
    own_tangents = gchart.tangent_coords_matrix(ident)
    section_generators = np.vstack([own_tangents @ group.adjoint_inv_transpose(ident).T, np.zeros((n, n))])
    section_jac = np.vstack([np.zeros((n, n)), np.eye(n)])

    def halves(points, centres):
        # A/2 of each group part in its centre's chart, exactly 0 where the two share their element
        C = np.linalg.solve(np.array([c.g.matrix for c in centres]), np.array([p.g.matrix for p in points]))
        half = np.linalg.solve(C + eye, C - eye)
        half[[p.g is c.g for p, c in zip(points, centres)]] = 0.0
        return half

    def tangents(points, centres):
        if centres is None:
            return own_tangents
        half = halves(points, centres)
        return group._conjugations(eye + half, eye - half).swapaxes(1, 2)

    def chart_coords(points, centres):
        return np.hstack([2.0 * group._algebra_coords_stack(halves(points, centres)), projections(points)])

    def chart_points(coords, centres):
        # g = c cay(A), g^-1 = cay(-A) c^-1 from one identity-centred solve
        coords = np.asarray(coords, float)
        C, Cinv = gchart.from_coords(coords[:, :n])
        G = np.array([c.g.matrix for c in centres]) @ C
        Ginv = Cinv @ np.array([c.g.inv_matrix for c in centres])
        return [PhasePoint(GroupElement(g, group, ginv), a) for g, ginv, a in zip(G, Ginv, coords[:, n:])]

    def velocities(points, centres=None):
        w = np.array([field(p).concat() for p in points])
        w[:, :n] = (tangents(points, centres) @ w[:, :n, None])[..., 0]
        return w

    def projections(points):
        return np.array([p.alpha for p in points])

    def generator_matrices(points, centres=None):
        if centres is None and all(p.g is ident for p in points):
            return section_generators[None].repeat(len(points), 0)
        G = np.array([p.g.matrix for p in points])
        top = tangents(points, centres) @ group._conjugations(np.linalg.inv(G), G).swapaxes(1, 2)
        return np.concatenate([top, np.zeros((len(G), n, n))], axis=1)

    def random_point(rng):
        g = matrix_exp_oracle(group, 0.3 * rng.standard_normal(n))
        return PhasePoint(g, rng.standard_normal(n))

    return InvariantSystem(
        name=f"tstar:{group.name}", group=group, dim=2 * n, quotient_dim=n, chart_coords=chart_coords,
        chart_points=chart_points, actions=bundle.actions, velocities=velocities, projections=projections,
        sections=lambda lams: [PhasePoint(ident, lam) for lam in lams], generator_matrices=generator_matrices,
        section_jacobians=lambda lams: section_jac[None].repeat(len(lams), 0), random_point=random_point,
        momentum=bundle.spatial_momentum, omega_matrix=bundle.omega_matrix, free=True, exact_theta=lambda p: p.g,
    )


# -- scenario: vector pairs under rotations ------------------------------------------


def free_particle_field(m):
    """Straight-line motion of the first vector at the second's rate."""
    return np.concatenate([m[3:], np.zeros(3)])


def make_so3_scenario(field=None, section="position"):
    """Rotations acting diagonally on vector pairs (q, p) in R^3 x R^3.

    Orbit coordinates are the rotation invariants (|q|^2, |p|^2, q.p); the
    non-collinear pairs are exactly the stabilizer-free ones.  Two section
    conventions exist: "position" aligns q with the first axis, "momentum"
    aligns p with it.  The momentum section's image is invariant under
    straight-line motion, which makes the free particle horizontal for the
    induced trivialization; the position section's is not.  A rotation
    generator xi moves the pair by (xi x q, xi x p), so the generators are
    [-hat(q) ; -hat(p)], hat(v) = v . (so3 basis) the cross-product matrix.
    A stack of points is read as rows (k, 6); the chart is the identity, so
    every form ignores its centres.
    """
    group = make_group("so3")
    fld = field if field is not None else free_particle_field
    O = np.zeros((6, 6))
    O[:3, 3:] = np.eye(3)
    O[3:, :3] = -np.eye(3)

    def actions(gs, ms):
        R = np.array([g.matrix for g in gs])
        return list((np.asarray(ms, float).reshape(-1, 2, 3) @ R.swapaxes(1, 2)).reshape(-1, 6))

    def projections(ms):
        x = np.asarray(ms, float).reshape(-1, 2, 3)
        # (|q|^2, |p|^2, q.p) from the Gram matrix of each pair
        return (x @ x.swapaxes(1, 2))[:, [0, 1, 0], [0, 1, 1]]

    if section not in ("position", "momentum"):
        raise ValueError(f"unknown section convention {section!r}")
    # the momentum convention is the position one with q and p, and a and b,
    # trading places
    swap = section == "momentum"

    # the slots of q1 and p1 among the coordinates, and of a and b among the invariants
    iq, ip, ia, ib = (3, 0, 1, 0) if swap else (0, 3, 0, 1)

    def abc(lams):
        lams = np.asarray(lams, float).T
        return lams[ia], lams[ib], lams[2]

    def sections(lams):
        # clamped radicands keep the map evaluable just past the domain
        # edge, where the quotient curve's last panel probes it
        a, b, c = abc(lams)
        m = np.zeros((len(a), 6))
        m[:, iq] = np.sqrt(np.maximum(a, 0.0))
        m[:, ip] = c / np.sqrt(a)
        m[:, ip + 1] = np.sqrt(np.maximum(b - c * c / a, 0.0))
        return list(m)

    def section_jacobians(lams):
        # rows q1, p1, p2 of the position section in (a, b, c); past the edge
        # the clamped p2 stays 0 and its row vanishes
        a, b, c = abc(lams)
        ra, w = np.sqrt(a), c / a
        r = b - c * w
        # 1 / (2 sqrt(r)), 0 past the edge
        s = np.divide(0.5, np.sqrt(np.maximum(r, 0.0)), out=np.zeros_like(r), where=r > 0)
        D = np.zeros((len(a), 6, 3))
        D[:, iq, ia] = 0.5 / ra
        D[:, ip, ia] = -0.5 * w / ra
        D[:, ip, 2] = 1.0 / ra
        D[:, ip + 1, ia] = w * w * s
        D[:, ip + 1, ib] = s
        D[:, ip + 1, 2] = -2.0 * w * s
        return D

    def margin(lam):
        a, b, c = abc(lam)
        return float(min(a - SECTION_EPS, a * b - c * c - SECTION_EPS))

    def random_point(rng):
        while True:
            m = rng.standard_normal(6)
            if margin(projections([m])[0]) > 0.05:
                return m

    def generator_matrices(ms, centres=None):
        return -(np.asarray(ms, float).reshape(-1, 2, 3) @ group._basis_rows).reshape(-1, 6, 3)

    return InvariantSystem(
        name="so3-r3", group=group, dim=6, quotient_dim=3, chart_coords=lambda ms, centres: np.array(ms, float),
        chart_points=lambda us, centres: list(np.array(us, float)), actions=actions,
        velocities=lambda ms, centres=None: np.array([fld(m) for m in np.asarray(ms, float)], dtype=float),
        projections=projections, sections=sections, generator_matrices=generator_matrices,
        section_jacobians=section_jacobians, random_point=random_point, section_margin=margin,
        momentum=lambda m: np.cross(m[:3], m[3:]), omega_matrix=lambda m: O, free=False,
    )


# -- scenario: rotation-translation product with stabilizers --------------------------


def _product_group():
    """Rotations times a translation line, as block matrices of size five."""
    c = np.zeros((4, 4, 4))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        c[j, k, i] = 1.0
        c[k, j, i] = -1.0
    alg = LieAlgebra("so3xr", c)
    basis = np.zeros((4, 5, 5))
    basis[:3, :3, :3] = _so3_basis()
    basis[3, 3, 4] = 1.0
    free = {3 * 5 + 4}
    pairs = []
    for i in range(5):
        for j in range(5):
            idx = i * 5 + j
            if idx in free or (i < 3 and j < 3):
                continue
            pairs.append((idx, 1.0 if i == j else 0.0))
    pat = _Pattern(pairs)
    pattern = _pattern_projector(pairs, lambda u: u.reshape(5, 5), lambda m: m.reshape(-1))

    def project(m):
        out = np.array(m, dtype=float)  # the pattern writes into this copy
        out[:3, :3] = _project_polar_real(out[:3, :3])
        return pattern(out)

    block = _leading_block(3, 5)
    return MatrixGroup(
        "so3xr", alg, basis, [_Orthogonal(block), _UnitDet(block), pat], project
    )


def make_product_scenario(rate=0.7):
    """Rotations and a translation line acting on (vector, offset) states.

    The rotation factor turns the vector, the line factor shifts the offset;
    every state has a one-dimensional stabilizer (rotations about its
    vector), constant in dimension away from the origin.  The field shifts
    the offset at a rate depending on the rotation invariant, which is
    tangent to the orbits, so the vertical route applies with a genuinely
    nontrivial stabilizer gauge.  The generators are [[-hat(v), 0], [0, 1]]
    on (vector, offset), and the section's Jacobian is (1/(2 sqrt(lam)), 0,
    0, 0).  A stack of states is read as rows (k, 4); the chart is the
    identity, so every form ignores its centres.
    """
    group = _product_group()
    hats = _so3_basis().reshape(3, 9)  # hat(v) = v @ hats, hat(v) w = v x w

    def actions(gs, ms):
        G, m = np.array([g.matrix for g in gs]), np.asarray(ms, float)
        return list(np.hstack([(G[:, :3, :3] @ m[:, :3, None])[..., 0], m[:, 3:] + G[:, 3, 4:]]))

    def projections(ms):
        v = np.asarray(ms, float)[:, :3]
        return np.einsum("ki,ki->k", v, v)[:, None]

    def sections(lams):
        lams = np.asarray(lams, float)
        m = np.zeros((len(lams), 4))
        m[:, 0] = np.sqrt(lams[:, 0])
        return list(m)

    def generator_matrices(ms, centres=None):
        W = np.zeros((len(ms), 4, 4))
        W[:, :3, :3] = -(np.asarray(ms, float)[:, :3] @ hats).reshape(-1, 3, 3)
        W[:, 3, 3] = 1.0
        return W

    def velocities(ms, centres=None):
        v = np.asarray(ms, float)[:, :3]
        out = np.zeros((len(v), 4))
        out[:, 3] = rate * (1.0 + np.einsum("ki,ki->k", v, v))
        return out

    def section_jacobians(lams):
        D = np.zeros((len(lams), 4, 1))
        D[:, 0, 0] = 0.5 / np.sqrt(np.asarray(lams, float)[:, 0])
        return D

    def random_point(rng):
        while True:
            m = rng.standard_normal(4)
            if m[:3] @ m[:3] > 0.1:
                return m

    return InvariantSystem(
        name="so3xr-product", group=group, dim=4, quotient_dim=1, chart_coords=lambda ms, centres: np.array(ms, float),
        chart_points=lambda us, centres: list(np.array(us, float)), actions=actions, velocities=velocities,
        projections=projections, sections=sections, generator_matrices=generator_matrices,
        section_jacobians=section_jacobians, random_point=random_point,
        section_margin=lambda lam: float(lam[0] - SECTION_EPS), free=False,
    )
