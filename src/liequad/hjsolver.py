"""Integration of invariant systems by quadratures.

Four-step route around a center point of phase space: (1) reduce the
conserved momentum pair to its locally independent components, (2) build a
complete solution chart parametrizing the nearby momentum fibers, (3) obtain
a generating function and a linearizing map by one-dimensional quadratures,
(4) evolve linearly in the linearized coordinates and map back.  No matrix
exponential is used anywhere on this route.
"""

from dataclasses import dataclass, field

import numpy as np

from .cotangent import CotangentChart, PhasePoint, TangentPhaseVector
from .liegroup import NEWTON_MAXIT, NEWTON_TOL, CayleyChart, ChartDomainError, damped_newton
from .numutil import central_jacobian, nullspace, numerical_rank

GN_TOL = 1e-10
GN_MAXIT = 20
AUDIT_TOL = 1e-9
ISOTROPY_TOL = 1e-8
TANGENCY_TOL = 1e-8
TANGENCY_SAMPLES = 8     # seeded chart points the tangency check draws around the center
TANGENCY_SEED = 4321
TANGENCY_RADIUS = 0.1
RATE_DRIFT_TOL = 1e-5
RATE_DRIFT_DT = 1e-2     # flow time over which the rate drift is measured
REACH_MARGIN = 0.8      # share of the Cayley reach along the flow that one chart serves
RECENTER_LIMIT = 64
QUAD_MAX_PANELS = 16    # panels a fiber quadrature may need, by its predicted count, before it
                        # counts as a domain failure
QUAD_TOL = 1e-12        # relative bound on the summed panel error estimates
LINMAP_FD_STEP = 1e-6   # relative step of the "fd" linearizing map
HJ_FD_STEP = 1e-5       # difference step of the potential-property residual
HJ_ORDER = 16           # Gauss-Legendre nodes of its path integrals

# 4-point Gauss-Lobatto rule (degree 5) and its 7-point Kronrod extension (degree 9) on
# [0, 1], nodes ascending; a panel shares its ends with its neighbours and its centre with
# its halves (Gander and Gautschi, "Adaptive quadrature -- revisited", BIT 40, 2000).
LK_NODES = 0.5 + 0.5 * np.array(
    [-1.0, -np.sqrt(2 / 3), -np.sqrt(0.2), 0.0, np.sqrt(0.2), np.sqrt(2 / 3), 1.0])
LK_KRONROD = 0.5 * np.array([11 / 210, 72 / 245, 125 / 294, 16 / 35, 125 / 294, 72 / 245, 11 / 210])
LK_LOBATTO = 0.5 * np.array([1 / 6, 0.0, 5 / 6, 0.0, 5 / 6, 0.0, 1 / 6])


class HypothesisError(ValueError):
    """An integrability hypothesis failed its numerical check."""


@dataclass
class TrajectorySample:
    """Sampled trajectory with per-sample audit data."""

    ts: np.ndarray
    points: list
    diagnostics: dict = field(default_factory=dict)

    def state_rows(self):
        """Rows [t, flat(g)..., alpha...] for serialization."""
        rows = []
        for t, p in zip(self.ts, self.points):
            grp = p.g.group
            rows.append(np.concatenate([[t], grp.flat(p.g.matrix), p.alpha]))
        return np.array(rows)


def fiber_isotropy_defect(bundle, p):
    """Largest |omega| over a kernel basis of the momentum-pair differential."""
    J = bundle.momentum_pair_jacobian_body(p)
    K = nullspace(J)
    if K.shape[1] == 0:
        return 0.0
    O = bundle.omega_matrix(p)
    return float(np.max(np.abs(K.T @ O @ K)))


class FirstIntegralsMap:
    """Locally independent components of the conserved momentum pair.

    Near a point whose body momentum has isotropy dimension k the raw pair
    (spatial, body) has rank 2n - k; the reduction projects the raw values
    onto the top left-singular directions of the chart Jacobian at the
    center.  Phase-space coordinates are those of the cotangent chart at the
    center: (Cayley chart of the group factor, body momentum).
    """

    def __init__(self, bundle, center):
        self.bundle = bundle
        self.center = center
        self.dim = bundle.group.dim
        self.phase_chart = CotangentChart(bundle.group, center.g)
        self.chart = self.phase_chart.gchart
        self.x0 = np.concatenate([np.zeros(self.dim), center.alpha])
        self.raw0 = bundle.momentum_pair(center)
        J0 = bundle.momentum_pair_jacobian_body(center)  # body matrix I at the centre
        k = bundle.algebra.isotropy_dimension(center.alpha)
        ell = 2 * self.dim - k
        r = numerical_rank(J0)
        if r != ell:
            raise HypothesisError(
                f"momentum-pair rank {r} disagrees with the isotropy count {ell} at the center"
            )
        U, s, Vt = np.linalg.svd(J0)
        self.rank = ell
        self.deficiency = k
        self.reduce = U[:, :ell]
        self.kernel = Vt[ell:].T
        self.sigma_min = float(s[ell - 1])

    def value(self, p):
        return self.reduce.T @ (self.bundle.momentum_pair(p) - self.raw0)

    def evaluate(self, adit, alpha, minv):
        """Reduced values and reduced Jacobians on chart velocities at k points.

        ``adit`` (k, dim, dim) are the coadjoint matrices Ad(g^-1)^T of the
        group parts, ``alpha`` (k, dim) the body momenta and ``minv``
        (k, dim, dim) the Cayley body matrices of the group parts.
        """
        J = self.reduce.T @ self.bundle.momentum_pair_jacobians(adit, alpha)
        J[:, :, : self.dim] = J[:, :, : self.dim] @ minv
        return (self.bundle.momentum_pairs(adit, alpha) - self.raw0) @ self.reduce, J


class _ChartNode:
    """A solved chart point with its inverted linearization.

    ``inv`` is the inverse system matrix: it takes (dn, dlam) to chart
    velocities.  ``body`` is the same inverse with its group rows taken to
    body coordinates by the Cayley body matrix ``minv``, so its columns are
    the body tangents of the solution map.  ``_node`` builds a stack of
    nodes at once; each node's arrays are its row of the stack's
    (2 dim, 2 dim) and (dim, dim) arrays.
    """

    __slots__ = ("owner", "p", "x", "inv", "minv", "body", "lam", "n", "_omat", "_ljac")

    def __init__(self, owner, p, x, inv, minv, body, lam, n):
        self.owner = owner
        self.p = p
        self.x = x
        self.inv = inv
        self.minv = minv
        self.body = body
        self.lam = lam
        self.n = n
        self._omat = None
        self._ljac = None

    @property
    def omat(self):
        if self._omat is None:
            self._omat = self.owner.bundle.omega_matrix(self.p)
        return self._omat

    def tangent(self, dn, dlam):
        """Chart derivative of the solution map in the direction (dn, dlam)."""
        dx = self.body @ np.concatenate([dn, dlam])
        dim = self.owner.integrals.dim
        return TangentPhaseVector(dx[:dim], dx[dim:])

    def lam_body(self):
        """Momentum-direction body tangents as columns of a 2*dim x ell array."""
        return self.body[:, self.owner.k :]

    def lam_tangents(self):
        B = self.lam_body()
        dim = self.owner.integrals.dim
        return [TangentPhaseVector(B[:dim, j], B[dim:, j]) for j in range(B.shape[1])]

    def theta(self, w):
        return self.owner.bundle.theta(self.p, w)


class CompleteSolutionChart:
    """Fiberwise parametrization of phase space near a center point.

    Coordinates (lam, n): lam are the reduced momentum values, n are
    transversal coordinates along the momentum fibers.  The chart solves for
    the phase point with prescribed (lam, n), carries exact derivatives from
    the inverted solve, and computes the generating function and the
    linearizing map by quadratures.
    """

    def __init__(self, bundle, dyn_field, center, check=True):
        self.bundle = bundle
        self.field = dyn_field
        self.integrals = FirstIntegralsMap(bundle, center)
        self.trans = self.integrals.kernel.T
        self.k = self.integrals.deficiency
        self.ell = self.integrals.rank
        ints = self.integrals
        # the centre as a solved node, whose body matrix is I: the predictor
        # of every row that has no solved neighbour
        S0 = np.vstack([self.trans, ints.reduce.T @ bundle.momentum_pair_jacobian_body(center)])
        inv0 = np.linalg.inv(S0)
        zl, zk = np.zeros(self.ell), np.zeros(self.k)
        self._centre = _ChartNode(self, center, ints.x0, inv0, np.eye(ints.dim), inv0, zl, zk)
        if check:
            self.check_hypotheses()

    # -- hypothesis checks -----------------------------------------------

    def check_hypotheses(self):
        d_iso = fiber_isotropy_defect(self.bundle, self.integrals.center)
        if d_iso > ISOTROPY_TOL:
            raise HypothesisError(
                f"momentum fibers are not isotropic at the center (defect {d_iso:.3e})"
            )
        d_tan = self.tangency_defect()
        if d_tan > TANGENCY_TOL:
            raise HypothesisError(
                f"the field is not tangent to the momentum fibers (defect {d_tan:.3e}); "
                "the momentum pair is not conserved by this dynamics"
            )

    def tangency_defect(self):
        """Sup of |DF X| over sampled chart points (F the raw momentum pair)."""
        ints = self.integrals
        rng = np.random.default_rng(TANGENCY_SEED)
        worst = 0.0
        for i in range(TANGENCY_SAMPLES + 1):
            if i == 0:
                p = ints.center
            else:
                x = ints.x0 + TANGENCY_RADIUS * rng.standard_normal(2 * ints.dim)
                p = ints.phase_chart.from_coords(x)
            w = self.field(p)
            img = self.bundle.momentum_pair_jacobian_body(p) @ w.concat()
            worst = max(worst, np.linalg.norm(img) / max(1.0, np.linalg.norm(w.concat())))
        return worst

    # -- chart solves ------------------------------------------------------

    def coords(self, p):
        """(lam, n) of a phase point; meaningful near the center only."""
        ints = self.integrals
        lam = ints.value(p)
        n = self.trans @ (ints.phase_chart.to_coords(p) - ints.x0)
        return lam, n

    def invert(self, lam, n, x):
        """Newton solve from x for the chart point with coordinates (lam, n).

        Each trial is one row of ``_node``'s stacked evaluation; returns that
        row (x, group part, system matrix, body matrix) at the accepted
        iterate, or raises ChartDomainError.
        """
        lam, n = lam[None], n[None]
        scale = max(1.0, float(np.linalg.norm(lam)), float(np.linalg.norm(n)))

        def trial(xx, _state):
            r, gs, S, minv = self._evaluate(lam, n, xx[None])
            return r[0], (gs[0], S[0], minv[0])

        def step(_x, r, state):
            return np.linalg.solve(state[1], -r)

        x, _r, rn, (g, S, minv) = damped_newton(x, trial, step, NEWTON_TOL * scale, NEWTON_MAXIT, 16)
        if rn <= NEWTON_TOL * scale:
            return x, g, S, minv
        raise ChartDomainError(
            f"complete-solution inversion did not converge (residual {rn:.3e})"
        )

    def point(self, lam, n):
        return self._node(lam, n).p

    def _evaluate(self, lam, n, X):
        """Residuals against the rows (lam, n) at chart points X, and the points' data.

        Returns the residuals, the group parts, the system matrices and the
        Cayley body matrices, one row each.
        """
        ints = self.integrals
        dim, k = ints.dim, self.k
        gs = ints.chart.from_coords(X[:, :dim])
        minv = ints.chart.body_coords_matrix(gs)  # fills each element's coadjoint matrix
        adit = np.array([self.bundle.group.adjoint_inv_transpose(g) for g in gs])
        values, J = ints.evaluate(adit, X[:, dim:], minv)
        r = np.empty_like(X)
        r[:, :k] = (X - ints.x0) @ self.trans.T - n
        r[:, k:] = values - lam
        S = np.empty((len(X), 2 * dim, 2 * dim))
        S[:, :k] = self.trans
        S[:, k:] = J
        return r, gs, S, minv

    def _node(self, lam, n, from_node=None):
        """The solved node at (lam, n), or the list of nodes at the rows of n (m, k).

        ``lam`` is one momentum value for every row or one row each;
        ``from_node`` is the solved node each row is predicted from, one for
        all rows or a list of one per row, the chart centre when None.  Each
        row's first-order predictor goes through its neighbour's inverted
        system, and the stack is evaluated at once: chart inversions,
        residuals, system matrices and their inverses.  A row whose residual
        misses ``NEWTON_TOL`` continues in ``invert``.  A row that fails
        fails the stack, with ChartDomainError or ValueError.
        """
        n = np.asarray(n, float)
        rows = n.reshape(-1, self.k)
        m = len(rows)
        lam = np.asarray(lam, float) + np.zeros((m, 1))
        if from_node is None:
            from_node = self._centre
        near = from_node if isinstance(from_node, list) else [from_node] * m
        step = np.concatenate(
            [rows - np.array([q.n for q in near]), lam - np.array([q.lam for q in near])], axis=1
        )
        invs = np.array([q.inv for q in near])
        X = np.array([q.x for q in near]) + np.einsum("ijk,ik->ij", invs, step)
        r, gs, S, minv = self._evaluate(lam, rows, X)
        # |r| against NEWTON_TOL max(1, |lam|, |n|), squared
        bound = NEWTON_TOL**2 * np.maximum(np.maximum((lam * lam).sum(1), (rows * rows).sum(1)), 1)
        met = (r * r).sum(1) <= bound
        if not met.all():
            for i in np.flatnonzero(~met):
                X[i], gs[i], S[i], minv[i] = self.invert(lam[i], rows[i], X[i])
        inv = np.linalg.inv(S)
        if not (np.isfinite(S).all() and np.isfinite(inv).all()):
            raise ValueError("complete-solution system is not finite")
        dim = self.integrals.dim
        body = inv.copy()
        body[:, :dim] = minv @ inv[:, :dim]
        nodes = [
            _ChartNode(self, PhasePoint(g, x[dim:]), x, *data)
            for g, x, data in zip(gs, X, zip(inv, minv, body, lam, rows))
        ]
        return nodes if n.ndim == 2 else nodes[0]

    def _nodes_near(self, solved, lam, n):
        """Nodes at the rows of n, each predicted from the nearest node of ``solved``.

        The chart centre predicts while ``solved`` is empty; the new nodes
        join ``solved``.
        """
        lam = lam + np.zeros((len(n), 1))
        from_node = None
        if solved:
            at = np.array([np.concatenate([q.n, q.lam]) for q in solved])
            gap = np.concatenate([n, lam], axis=1)[:, None] - at
            from_node = [solved[i] for i in np.argmin(np.sum(gap * gap, axis=2), axis=1)]
        nodes = self._node(lam, n, from_node)
        solved.extend(nodes)
        return nodes

    # -- quadratures -------------------------------------------------------

    def _segment_quad(self, integrand, ends=None):
        """Integral over [0, 1] by nested panels, bisected where the error is.

        ``integrand`` takes a vector of abscissae and returns its values
        stacked, one row each.  A panel's value is its 7-point Kronrod sum
        and its estimate the largest entry of its gap to the 4-point
        Gauss-Lobatto sum.  ``ends``, the integrand at 0 and 1 when the
        caller has it, opens a ladder of nested rules, each judged by its gap
        to the rung below: the trapezoid, at no evaluation, when the
        trapezoid-rectangle half-gap passes the tolerance; then Simpson's
        rule, at one evaluation, the centre node s = 1/2, when its gap to the
        trapezoid passes; then the 7-point panel, which reuses that centre
        value and so costs 4 more evaluations.  The centre is its own call;
        every other call is the vector of new abscissae of the panels being
        built, ascending, so an integrand that solves nodes predicts each
        one from the nearest node already solved.  While the summed
        estimates exceed ``QUAD_TOL`` of the total, the panel of largest
        estimate is halved; its end and centre values are reused, so a split
        costs 10 evaluations, in one call.  Integrands are analytic inside
        the chart, so a refinement that cannot reach the tolerance within
        ``QUAD_MAX_PANELS`` panels is a domain failure: after every step the
        kernel predicts the panel count that bisection at the rule's rate
        would need and raises as soon as it exceeds the cap, so a probe past
        the chart boundary usually gives up after its first panel.
        """

        def tol(value):
            return QUAD_TOL * max(1.0, float(np.max(np.abs(value))))

        def build(specs):
            # panels (a, b, fa, fm, fb), None for each value still unknown; one
            # integrand call takes the new abscissae of every panel
            fs = [[fa, None, None, fm, None, None, fb] for _a, _b, fa, fm, fb in specs]
            new = [(j, i) for j, f in enumerate(fs) for i, v in enumerate(f) if v is None]
            s = np.array([specs[j][0] + LK_NODES[i] * (specs[j][1] - specs[j][0]) for j, i in new])
            for (j, i), v in zip(new, integrand(s)):
                fs[j][i] = v
            out = []
            for (a, b, *_), f in zip(specs, fs):
                h, f = b - a, np.asarray(f)
                gap = np.max(np.abs(h * ((LK_KRONROD - LK_LOBATTO) @ f)))
                out.append((float(gap), h * (LK_KRONROD @ f), (a, b, f[0], f[3], f[-1])))
            return out

        f0 = f1 = fm = None
        if ends is not None:
            f0, f1 = (np.asarray(v, float) for v in ends)
            trap = 0.5 * (f0 + f1)
            if 0.5 * np.max(np.abs(f1 - f0)) <= tol(trap):
                return trap
            fm = np.asarray(integrand(LK_NODES[3:4])[0], float)
            simpson = (f0 + 4.0 * fm + f1) / 6.0
            if np.max(np.abs(simpson - trap)) <= tol(simpson):
                return simpson
        panels = build([(0.0, 1.0, f0, fm, f1)])
        while True:
            total = sum(p[1] for p in panels)
            err = sum(p[0] for p in panels)
            if err <= tol(total):
                return total
            # LK_LOBATTO has degree 5, so the summed gap is O(h^6) in the panel
            # width: each doubling of the panels divides it by 2^6
            if len(panels) * (err / tol(total)) ** (1 / 6) > QUAD_MAX_PANELS:
                raise ChartDomainError(f"quadrature refinement exhausted (estimate sum {err:.3e})")
            a, b, fa, fm, fb = panels.pop(max(range(len(panels)), key=lambda i: panels[i][0]))[2]
            m = a + LK_NODES[3] * (b - a)
            panels += build([(a, m, fa, None, fm), (m, b, fm, None, fb)])

    def _phi_increment(self, lam, n_a, n_b, ends=None):
        """Integral along the straight fiber segment of -omega(d_lam, d_s).

        The integrand is the linearizing Jacobian along the segment; ``ends``
        are the solved nodes at n_a and n_b when the caller has them.
        """
        n_a = np.asarray(n_a, float)
        dn = np.asarray(n_b, float) - n_a
        if not np.any(dn):
            return np.zeros(self.ell)
        solved = [] if ends is None else list(ends)

        def integrand(s):
            nodes = self._nodes_near(solved, lam, n_a + np.multiply.outer(s, dn))
            return self.linearizing_jacobian(nodes) @ dn

        values = None if ends is None else self.linearizing_jacobian(solved) @ dn
        return self._segment_quad(integrand, values)

    def generating_function(self, lam, n):
        """Path integral of the tautological form over the standard path.

        The path runs (0,0) -> (lam,0) in the momentum values, then
        (lam,0) -> (lam,n) inside the fiber; the fiber leg is
        path-independent because the fibers are isotropic.
        """
        lam = np.asarray(lam, float)
        n = np.asarray(n, float)
        zk, zl = np.zeros(self.k), np.zeros(self.ell)
        total = 0.0
        solved = []  # nodes of both legs, each new one predicted from the nearest
        # leg (lam0, dlam, dn): the point at s is (lam0 + s dlam, s dn)
        for lam0, dlam, dn in ((zl, lam, zk), (lam, zl, n)):
            if np.any(dlam) or np.any(dn):

                def leg(s):
                    nodes = self._nodes_near(
                        solved, lam0 + np.multiply.outer(s, dlam), np.multiply.outer(s, dn)
                    )
                    return np.array([q.theta(q.tangent(dn, dlam)) for q in nodes])

                total += float(self._segment_quad(leg))
        return total

    def linearizing_map(self, lam, n, method="fast"):
        """Momentum-direction derivative data of the generating function.

        "fast" evaluates the fiber-leg integral of -omega(d_lam, d_s)
        directly; this is the map that evolves linearly along the dynamics
        (exactly, up to quadrature error).  "fd" central-differences the
        generating function over lam; it equals fast plus theta_pairing plus
        a function of lam alone, and the extra pairing term is generally not
        affine along the flow, so "fd" is a value-level cross-check, not an
        evolution coordinate.
        """
        if method == "fast":
            return self._phi_increment(lam, np.zeros(self.k), n)
        if method == "fd":
            lam = np.asarray(lam, float)
            h = LINMAP_FD_STEP * max(1.0, float(np.linalg.norm(lam)))
            out = np.zeros(self.ell)
            for j in range(self.ell):
                e = np.zeros(self.ell)
                e[j] = h
                out[j] = (
                    self.generating_function(lam + e, n)
                    - self.generating_function(lam - e, n)
                ) / (2.0 * h)
            return out
        raise ValueError(f"unknown linearizing-map method {method!r}")

    def theta_pairing(self, lam, n):
        """Tautological form against the momentum-direction derivatives."""
        node = self._node(lam, n)
        return np.array([node.theta(vj) for vj in node.lam_tangents()])

    def linearizing_jacobian(self, node):
        """Exact n-derivative of the fast linearizing map at a solved node.

        A list of nodes gives the (m, ell, k) stack from one stacked product;
        each node caches its own.
        """
        nodes = node if isinstance(node, list) else [node]
        todo = [q for q in nodes if q._ljac is None]
        if todo:
            B = np.array([q.body for q in todo])
            O = self.bundle.omega_matrices(np.array([q.p.alpha for q in todo]))
            L = -(B[:, :, self.k :].swapaxes(1, 2) @ (O @ B[:, :, : self.k]))
            for q, Oq, Lq in zip(todo, O, L):
                q._omat, q._ljac = Oq, Lq
        return np.array([q._ljac for q in nodes]) if isinstance(node, list) else node._ljac

    def flow_rate(self, node):
        """Time derivative of the linearizing map along the dynamics."""
        X = self.field(node.p)
        return (X.concat() @ node.omat) @ node.lam_body()

    # -- linear time evolution ---------------------------------------------

    def linear_flow(self, p0, ts):
        """Evolve p0 by the times ts via the linearized coordinates.

        Each time is one Gauss-Newton solve on the fiber coordinates against
        the absolute linear target t * rate, from the previous sample.  The
        times must lie within one ``chart_window`` of p0; a solve that fails
        raises ChartDomainError whose ``t_achieved`` is the last time reached
        (0.0 before the first).  Each sample is audited against the linear
        target; the sup of the audit residuals is in the diagnostics.
        """
        ts = np.asarray(ts, float)
        lam, n0 = self.coords(p0)
        node = self._node(lam, n0)
        beta = self.flow_rate(node)
        points, audits = [], []
        phi = np.zeros(self.ell)  # linearizing map relative to n0
        t_cur = 0.0
        for t in ts:
            if t != t_cur:
                try:
                    node, phi = self._gauss_newton(lam, node, phi, t * beta)
                except (ChartDomainError, ValueError, np.linalg.LinAlgError) as err:
                    raise ChartDomainError(
                        f"linear flow failed at t={t:g}, sample {len(points)} of {len(ts)}: {err}",
                        t_achieved=t_cur,
                    ) from err
                t_cur = t
            audits.append(float(np.linalg.norm(phi - t * beta)))
            points.append(node.p)
        diagnostics = {"lam": lam, "flow_rate": beta, "audits": audits}
        diagnostics["audit_max"] = max(audits, default=0.0)
        return TrajectorySample(ts, points, diagnostics)

    def _gauss_newton(self, lam, node_from, phi_from, target):
        def trial(cand, state):
            if state is None:
                phi = np.asarray(phi_from, float).copy()
                return phi - target, (node_from, phi)
            node, phi = state
            # solve the geometry first: it fails fast out of domain, while the
            # increment integral is the expensive part
            node_try = self._node(lam, cand, from_node=node)
            phi_try = phi + self._phi_increment(lam, node.n, cand, ends=(node, node_try))
            return phi_try - target, (node_try, phi_try)

        def step(_n, r, state):
            return np.linalg.lstsq(self.linearizing_jacobian(state[0]), -r, rcond=None)[0]

        _n, _r, rn, (node, phi) = damped_newton(node_from.n, trial, step, GN_TOL, GN_MAXIT, 8)
        if rn <= AUDIT_TOL:
            return node, phi
        raise ChartDomainError(f"fiber solve did not meet the audit tolerance ({rn:.3e})")


def rate_drift(chart, p0):
    """Change of the flow rate transported a short time along the dynamics."""
    lam, n0 = chart.coords(p0)
    node0 = chart._node(lam, n0)
    beta0 = chart.flow_rate(node0)
    node1, _phi1 = chart._gauss_newton(lam, node0, np.zeros(chart.ell), RATE_DRIFT_DT * beta0)
    beta1 = chart.flow_rate(node1)
    return float(np.linalg.norm(beta1 - beta0) / max(1.0, np.linalg.norm(beta0)))


def chart_window(bundle, dyn_field, p):
    """Flow time that one complete-solution chart centred at p serves.

    The hypotheses conserve the body velocity, so the group part of the flow
    is p.g exp(tX), X the algebra matrix of the body velocity at p, and it
    leaves the Cayley chart at p.g at ``CayleyChart.reach``.  The window is
    ``REACH_MARGIN`` of it: the fiber solves probe around the curve too.
    """
    X = bundle.group.algebra_matrix(dyn_field(p).v)
    return REACH_MARGIN * CayleyChart(bundle.group, p.g).reach(X)


def _chart_plan(ts, window):
    """The charts that serve the grid ts, as (centre time, flow times, served).

    A chart serves the next times within ``window`` of its centre, the first
    ``served`` of its flow times.  The next centre is the last time served if
    that is past the centre, else the window's edge toward the next time,
    which then ends the flow times.  Past ``RECENTER_LIMIT`` re-centres the
    plan raises ChartDomainError.
    """
    plan, centre, i = [], 0.0, 0
    while i < len(ts):
        if len(plan) > RECENTER_LIMIT:
            raise ChartDomainError(
                f"the grid needs more than {RECENTER_LIMIT} re-centres at a window of {window:g}")
        j = i
        while j < len(ts) and abs(ts[j] - centre) <= window:
            j += 1
        times, nxt = list(ts[i:j]), None
        if j < len(ts):
            if j > i and ts[j - 1] != centre:
                nxt = ts[j - 1]
            else:
                nxt = centre + np.copysign(window, ts[j] - centre)
                times.append(nxt)
        plan.append((centre, np.array(times), j - i))
        centre, i = nxt, j
    return plan


def integrate_by_quadratures(bundle, dyn_field, p0, ts):
    """Full quadrature integration of an invariant system from p0 over ts.

    Builds a complete solution chart at p0, validating the integrability
    hypotheses there, and evolves linearly in the linearized fiber
    coordinates.  ts are absolute times from p0, taken in the given order
    (ascending recommended).  Each chart serves the times within one
    ``chart_window`` of its centre, and the next is centred at the last time
    served, or at the window's edge when none past the centre was served.
    The charts are planned up front, so more than ``RECENTER_LIMIT``
    re-centres raise ChartDomainError before any solve; a fiber solve that
    fails raises it with the absolute time reached as ``t_achieved``.
    """
    ts = np.asarray(ts, float)
    plan = _chart_plan(ts, chart_window(bundle, dyn_field, p0))
    points, audits = [], []
    p_base = p0
    for i, (t_base, times, served) in enumerate(plan):
        chart = CompleteSolutionChart(bundle, dyn_field, p_base, check=(i == 0))
        if i == 0:
            drift = rate_drift(chart, p_base)
            if drift > RATE_DRIFT_TOL:
                raise HypothesisError(
                    f"the flow rate drifts along the dynamics (relative drift {drift:.3e}); "
                    "the linearizing coordinates are not evolving linearly"
                )
        try:
            sample = chart.linear_flow(p_base, times - t_base)
        except ChartDomainError as err:
            raise ChartDomainError(
                f"{err} (chart centred at t={t_base:g})", t_achieved=t_base + err.t_achieved
            ) from err
        points.extend(sample.points[:served])
        audits.extend(sample.diagnostics["audits"])
        p_base = sample.points[-1]
    diagnostics = {"audits": audits, "recenters": max(len(plan) - 1, 0)}
    diagnostics["audit_max"] = max(audits, default=0.0)
    return TrajectorySample(ts, points, diagnostics)


def hj_residual(bundle, section, lam, n):
    """Defect of the potential property of a fiber section.

    For a complete solution the tautological form pulled back to a fixed
    momentum slice is closed, so its line integral from the slice origin is a
    potential whose gradient returns the form.  The residual compares a
    finite-difference gradient of that integral against the form itself; it
    is evaluated with no access to the section internals, so corrupted
    sections (ones that drift across momentum fibers) are detected.
    """
    lam = np.asarray(lam, float)
    n = np.asarray(n, float)
    nodes, weights = np.polynomial.legendre.leggauss(HJ_ORDER)
    grp = bundle.group

    def path_theta(nn, s):
        # theta(d/ds section(lam, s*nn)) by 4th-order finite differences
        dg = central_jacobian(
            lambda ss: grp.flat(section(lam, ss[0] * nn).g.matrix),
            np.array([s]), 2.0 * HJ_FD_STEP, richardson=True,
        )
        p = section(lam, s * nn)
        return float(p.alpha @ grp.body_coords(p.g, grp.unflat(dg[:, 0])))

    def potential(nn):
        return sum(w * path_theta(nn, s) for s, w in zip(0.5 * (nodes + 1.0), 0.5 * weights))

    grad = central_jacobian(potential, n, HJ_FD_STEP * max(1.0, float(np.linalg.norm(n))))
    dg = central_jacobian(lambda nn: grp.flat(section(lam, nn).g.matrix), n, HJ_FD_STEP)
    p = section(lam, n)
    forms = [float(p.alpha @ grp.body_coords(p.g, grp.unflat(col))) for col in dg.T]
    return max(abs(gj - fj) for gj, fj in zip(grad, forms))
