"""Integration of invariant systems by quadratures.

Four-step route around a center point of phase space: (1) reduce the
conserved momentum pair to its locally independent components, (2) build a
complete solution chart parametrizing the nearby momentum fibers, (3) obtain
a generating function and a linearizing map by one-dimensional quadratures,
(4) evolve linearly in the linearized coordinates and map back.  Inside one
chart the linearized coordinates move on a straight line, phi(n(t)) = t beta,
so every output time is an independent root-find, and step (4) solves all
the times a chart serves as one stacked Gauss-Newton: one node stack and one
multi-segment quadrature per round, whatever the number of times.  No matrix
exponential is used anywhere on this route.
"""

import contextlib
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


def _solve_stack(S, b):
    """Solutions of S[i] x = b[i] over a stack of systems, NaN where S[i] is singular."""
    try:
        return np.linalg.solve(S, b)
    except np.linalg.LinAlgError:
        out = np.full(np.shape(b), np.nan)
        for i, (Si, bi) in enumerate(zip(S, b)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[i] = np.linalg.solve(Si, bi)
        return out


def _settled(values):
    """Quadrature values, or ChartDomainError when a segment gave up (a NaN value)."""
    if not np.isfinite(values).all():
        raise ChartDomainError(
            "quadrature refinement exhausted: a node left the chart or the panels passed the cap")
    return values


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
        """Sup of |DF X| over sampled chart points (F the raw momentum pair).

        The centre and the seeded points around it are one stack: one chart
        inversion and one stacked momentum-pair Jacobian.
        """
        ints = self.integrals
        dim = ints.dim
        rng = np.random.default_rng(TANGENCY_SEED)
        X = ints.x0 + TANGENCY_RADIUS * np.vstack(
            [np.zeros(2 * dim), rng.standard_normal((TANGENCY_SAMPLES, 2 * dim))])
        gs = ints.chart.from_coords(X[:, :dim])
        W = np.array([self.field(PhasePoint(g, x[dim:])).concat() for g, x in zip(gs, X)])
        J = self.bundle.momentum_pair_jacobians(self.bundle.group.adjoint_inv_transpose(gs), X[:, dim:])
        img = np.einsum("ijk,ik->ij", J, W)
        return float(np.max(np.linalg.norm(img, axis=1) / np.maximum(1.0, np.linalg.norm(W, axis=1))))

    # -- chart solves ------------------------------------------------------

    def coords(self, p):
        """(lam, n) of a phase point; meaningful near the center only."""
        ints = self.integrals
        lam = ints.value(p)
        n = self.trans @ (ints.phase_chart.to_coords(p) - ints.x0)
        return lam, n

    def invert(self, lam, n, x, partial=False):
        """Newton solves from the chart points x (m, 2 dim) for the rows (lam, n), as one stack.

        Each trial evaluates the rows at hand in one ``_evaluate``, a row
        whose trial point leaves the chart counting as failed; returns the
        rows' x, group parts, system matrices and body matrices at the
        accepted iterates, and the mask of the rows that met ``NEWTON_TOL``.
        A row that misses it raises ChartDomainError unless ``partial``.
        """
        dim = self.integrals.dim
        tol = NEWTON_TOL * np.maximum(
            np.maximum(np.linalg.norm(lam, axis=1), np.linalg.norm(n, axis=1)), 1.0)

        def trial(rows, xx, _states):
            r, states = np.full(xx.shape, np.nan), [None] * len(rows)
            ok = np.flatnonzero(self.integrals.chart.inside(xx[:, :dim]))
            if ok.size:
                r[ok], gs, S, minv = self._evaluate(lam[rows[ok]], n[rows[ok]], xx[ok])
                for i, state in zip(ok, zip(gs, S, minv)):
                    states[i] = state
            return r, states

        def step(_rows, _x, r, states):
            # a singular system gives a NaN step, whose trial then fails
            S = np.array([state[1] for state in states])
            return _solve_stack(S, -r[:, :, None])[:, :, 0]

        x, _r, rn, states = damped_newton(x, trial, step, tol, NEWTON_MAXIT, 16)
        met = rn <= tol
        if not (partial or met.all()):
            raise ChartDomainError(
                f"complete-solution inversion did not converge (residual {rn[~met].max():.3e})"
            )
        gs, S, minv = zip(*states)
        return x, list(gs), np.array(S), np.array(minv), met

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
        adit = self.bundle.group.adjoint_inv_transpose(gs)
        values, J = ints.evaluate(adit, X[:, dim:], minv)
        r = np.empty_like(X)
        r[:, :k] = (X - ints.x0) @ self.trans.T - n
        r[:, k:] = values - lam
        S = np.empty((len(X), 2 * dim, 2 * dim))
        S[:, :k] = self.trans
        S[:, k:] = J
        return r, gs, S, minv

    def _node(self, lam, n, from_node=None, partial=False):
        """The solved node at (lam, n), or the list of nodes at the rows of n (m, k).

        ``lam`` is one momentum value for every row or one row each;
        ``from_node`` is the solved node each row is predicted from, one for
        all rows or a list of one per row, the chart centre when None.  Each
        row's first-order predictor goes through its neighbour's inverted
        system, and the stack is evaluated at once: chart inversions,
        residuals, system matrices and their inverses.  The rows that miss
        ``NEWTON_TOL`` continue in one stacked ``invert``.  A row that fails
        (it leaves the chart, its residual or system is not finite, its
        inversion does not converge, or its system is singular) fails the
        stack, with ChartDomainError or ValueError; with ``partial`` it comes
        back as None instead, and the other rows are solved as usual.
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
        dim = self.integrals.dim
        live = np.flatnonzero(self.integrals.chart.inside(X[:, :dim]) if partial else np.ones(m, bool))
        nodes = [None] * m
        if not live.size:
            return nodes if n.ndim == 2 else nodes[0]
        X, lam_l, rows_l = X[live], lam[live], rows[live]
        r, gs, S, minv = self._evaluate(lam_l, rows_l, X)
        # |r| against NEWTON_TOL max(1, |lam|, |n|), squared
        bound = NEWTON_TOL**2 * np.maximum(np.maximum((lam_l * lam_l).sum(1), (rows_l * rows_l).sum(1)), 1)
        ok = (r * r).sum(1) <= bound
        finite = np.isfinite(r).all(axis=1)
        if not (ok | ~finite).all():
            miss = np.flatnonzero(~ok & finite)
            X[miss], g_miss, S[miss], minv[miss], ok[miss] = self.invert(
                lam_l[miss], rows_l[miss], X[miss], partial
            )
            for i, g in zip(miss, g_miss):
                gs[i] = g
        ok &= np.isfinite(S).all(axis=(1, 2))
        inv = np.full_like(S, np.nan)
        inv[ok] = _solve_stack(S[ok], np.broadcast_to(np.eye(2 * dim), S[ok].shape))
        ok &= np.isfinite(inv).all(axis=(1, 2))
        if not (partial or ok.all()):
            raise ValueError("complete-solution system is not finite")
        body = inv.copy()
        body[:, :dim] = minv @ inv[:, :dim]
        for i in np.flatnonzero(ok):
            nodes[live[i]] = _ChartNode(
                self, PhasePoint(gs[i], X[i, dim:]), X[i], inv[i], minv[i], body[i], lam_l[i], rows_l[i]
            )
        return nodes if n.ndim == 2 else nodes[0]

    def _nodes_near(self, solved, lam, n, partial=False):
        """Nodes at the rows of n, each predicted from the nearest node of ``solved``.

        The chart centre predicts while ``solved`` is empty; the new nodes
        join ``solved``.  ``partial`` is ``_node``'s: failed rows come back
        as None.
        """
        lam = lam + np.zeros((len(n), 1))
        from_node = None
        if solved:
            at = np.array([np.concatenate([q.n, q.lam]) for q in solved])
            gap = np.concatenate([n, lam], axis=1)[:, None] - at
            from_node = [solved[i] for i in np.argmin(np.sum(gap * gap, axis=2), axis=1)]
        nodes = self._node(lam, n, from_node, partial)
        solved.extend(q for q in nodes if q is not None)
        return nodes

    # -- quadratures -------------------------------------------------------

    def _segment_quad(self, integrand, ends=None, segments=None):
        """Integrals over [0, 1] by nested panels, bisected where the error is.

        ``integrand`` takes a vector of abscissae and returns its values
        stacked, one row each.  With ``segments`` = m it integrates m
        segments at once: the integrand takes the segment index of each
        abscissa first, ``integrand(seg, s)``, and every integrand call below
        holds the new abscissae of every segment still open.  A panel's value
        is its 7-point Kronrod sum and its estimate the largest entry of its
        gap to the 4-point Gauss-Lobatto sum.  ``ends``, the integrand at 0
        and 1 when the caller has it (stacked over the segments), opens a
        ladder of nested rules, each judged by its gap to the rung below: the
        trapezoid, at no evaluation, when the trapezoid-rectangle half-gap
        passes the tolerance; then Simpson's rule, at one evaluation, the
        centre node s = 1/2, when its gap to the trapezoid passes; then the
        7-point panel, which reuses that centre value and so costs 4 more
        evaluations.  The centres are their own call; every other call is the
        vector of new abscissae of the panels being built, ascending within a
        segment, so an integrand that solves nodes predicts each one from the
        nearest node already solved.  While a segment's summed estimates
        exceed ``QUAD_TOL`` of its total, its panel of largest estimate is
        halved; its end and centre values are reused, so a split costs 10
        evaluations.  Integrands are analytic inside the chart, so a
        refinement that cannot reach the tolerance within ``QUAD_MAX_PANELS``
        panels is a domain failure: after every step the kernel predicts the
        panel count that bisection at the rule's rate would need and gives up
        as soon as it exceeds the cap, so a probe past the chart boundary
        usually gives up after its first panel.  A non-finite value fails its
        segment too.  The m segments return the (m, ...) stack of integrals,
        NaN where a segment failed; one segment (``segments`` None, the
        integrand taking s alone) returns its integral through ``_settled``,
        which turns the NaN into ChartDomainError.
        """
        single = segments is None
        if single:
            f, segments = (lambda _seg, s: integrand(s)), 1
            ends = None if ends is None else [np.asarray(v, float)[None] for v in ends]
        else:
            f = integrand

        def tol(value):
            return QUAD_TOL * max(1.0, float(np.max(np.abs(value))))

        out, panels = {}, {}  # settled integrals, and the panels of each open segment

        def build(specs):
            # panels (seg, a, b, fa, fm, fb), None for each value still unknown;
            # one integrand call takes the new abscissae of every panel
            if not specs:
                return
            fs = [[fa, None, None, fm, None, None, fb] for *_, fa, fm, fb in specs]
            new = [(p, i) for p, fp in enumerate(fs) for i, v in enumerate(fp) if v is None]
            seg = np.array([specs[p][0] for p, _i in new], int)
            s = np.array([specs[p][1] + LK_NODES[i] * (specs[p][2] - specs[p][1]) for p, i in new])
            for (p, i), v in zip(new, f(seg, s)):
                fs[p][i] = v
            for (j, a, b, *_), fp in zip(specs, fs):
                h, fp = b - a, np.asarray(fp)
                gap = np.max(np.abs(h * ((LK_KRONROD - LK_LOBATTO) @ fp)))
                panels[j].append((float(gap), h * (LK_KRONROD @ fp), (j, a, b, fp[0], fp[3], fp[-1])))

        first = [(j, 0.0, 1.0, None, None, None) for j in range(segments)]
        if ends is not None:
            f0, f1 = ends
            trap = 0.5 * (f0 + f1)
            first = []
            for j in range(segments):
                if 0.5 * np.max(np.abs(f1[j] - f0[j])) <= tol(trap[j]):
                    out[j] = trap[j]
                else:
                    first.append(j)
            if first:
                fm = np.asarray(f(np.array(first), np.full(len(first), LK_NODES[3])), float)
                rest = []
                for j, fmj in zip(first, fm):
                    simpson = (f0[j] + 4.0 * fmj + f1[j]) / 6.0
                    if np.max(np.abs(simpson - trap[j])) <= tol(simpson):
                        out[j] = simpson
                    else:
                        rest.append((j, 0.0, 1.0, f0[j], fmj, f1[j]))
                first = rest
        for j, *_ in first:
            panels[j] = []
        build(first)
        while panels:
            splits = []
            for j in list(panels):
                ps = panels[j]
                total = sum(p[1] for p in ps)
                err = sum(p[0] for p in ps)
                if err <= tol(total):
                    out[j] = total
                # LK_LOBATTO has degree 5, so the summed gap is O(h^6) in the panel
                # width: each doubling of the panels divides it by 2^6
                elif not (len(ps) * (err / tol(total)) ** (1 / 6) <= QUAD_MAX_PANELS):
                    out[j] = np.full(np.shape(total), np.nan)
                else:
                    _j, a, b, fa, fm, fb = ps.pop(max(range(len(ps)), key=lambda i: ps[i][0]))[2]
                    m = a + LK_NODES[3] * (b - a)
                    splits += [(j, a, m, fa, None, fm), (j, m, b, fm, None, fb)]
                    continue
                del panels[j]
            build(splits)
        values = np.array([out[j] for j in range(segments)])
        return _settled(values[0]) if single else values

    def _phi_increment(self, lam, n_a, n_b, ends=None):
        """Integrals of -omega(d_lam, d_s) along the straight fiber segments n_a -> n_b.

        The rows of n_a and n_b (m, k) are m segments, integrated together by
        one multi-segment quadrature whose integrand is the linearizing
        Jacobian along each segment; ``ends``, two lists of m solved nodes,
        are the nodes at n_a and n_b when the caller has them.  Returns the
        (m, ell) increments, NaN where a segment failed (a node left the
        chart, or the refinement gave up).
        """
        n_a = np.asarray(n_a, float)
        dn = np.asarray(n_b, float) - n_a
        if not np.any(dn):
            return np.zeros((len(dn), self.ell))
        solved = [] if ends is None else ends[0] + ends[1]

        def increments(nodes, steps):
            return np.einsum("ijk,ik->ij", self.linearizing_jacobian(nodes), steps)

        def integrand(seg, s):
            nodes = self._nodes_near(solved, lam, n_a[seg] + s[:, None] * dn[seg], partial=True)
            values = np.full((len(s), self.ell), np.nan)
            ok = [i for i, q in enumerate(nodes) if q is not None]
            if ok:
                values[ok] = increments([nodes[i] for i in ok], dn[seg[ok]])
            return values

        values = None if ends is None else [increments(e, dn) for e in ends]
        return self._segment_quad(integrand, values, len(dn))

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
            return _settled(self._phi_increment(lam, np.zeros((1, self.k)), np.reshape(n, (1, self.k)))[0])
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

        Every time t is the root of the linear target t * rate in the fiber
        coordinates, and ``_gauss_newton`` solves all of them as one stack,
        whatever their order, sign or repeats.  The times must lie within one
        ``chart_window`` of p0; a time whose solve fails raises
        ChartDomainError whose ``t_achieved`` is the time before it in ts
        (0.0 for the first); a ValueError or LinAlgError out of the stack
        also becomes ChartDomainError, with ``t_achieved`` 0.0.  Each sample
        is audited against the linear target; the sup of the audit residuals
        is in the diagnostics.
        """
        ts = np.asarray(ts, float)
        lam, n0 = self.coords(p0)
        centre = self._node(lam, n0)
        beta = self.flow_rate(centre)
        try:
            nodes, phis = self._gauss_newton(lam, centre, beta, ts)
        except (ValueError, np.linalg.LinAlgError) as err:
            raise ChartDomainError(f"linear flow failed: {err}", t_achieved=0.0) from err
        audits = [float(a) for a in np.linalg.norm(phis - np.multiply.outer(ts, beta), axis=1)]
        diagnostics = {"lam": lam, "flow_rate": beta, "audits": audits}
        diagnostics["audit_max"] = max(audits, default=0.0)
        return TrajectorySample(ts, [q.p for q in nodes], diagnostics)

    def _gauss_newton(self, lam, centre, beta, ts):
        """Fiber nodes and linearizing-map values phi at the times ts, from ``centre``, as one stack.

        phi is relative to the centre, and each distinct nonzero time t is
        one row, the root of phi(n) = t beta.  (1) Predict every row from
        the centre's linearizing Jacobian and solve all rows in one node
        stack.  (2) Correct each row once by -L(n)^+ (phi~ - t beta), phi~
        the trapezoid running sum of the Jacobians at the predicted rows, and
        solve the corrected rows as one stack.  (3) Integrate phi along the
        consecutive segments outward from the centre in both time directions
        with one multi-segment quadrature; phi at a row is the running sum.
        (4) Correct all rows together by the stacked ``damped_newton`` with
        steps -L(n)^+ (phi - t beta), to ``GN_TOL``; the fibers are
        isotropic, so the integral is path independent and a trial only adds
        the integral over its short segment.  (5) Give every row still above
        ``QUAD_TOL`` max(1, |t beta|) one more stacked correction.  A row
        whose chain breaks in (1)-(3) (its node left the chart or its
        segment's quadrature gave up) starts (4) from the last row before the
        break; in (4) a failed trial is halved like any other that did not
        improve, and a row that ends above ``AUDIT_TOL`` runs (4) again from
        the nearest row inside it that met it, as long as that row is a new
        start.  A row still above ``AUDIT_TOL`` at the end raises
        ChartDomainError, ``t_achieved`` the entry of ts before the first
        that failed (0.0 for the first).  Returns the nodes and the phi
        values at the entries of ts (the centre and 0 where t = 0).
        """
        times = np.unique(ts[ts != 0.0])
        if not len(times):
            return [centre] * len(ts), np.zeros((len(ts), self.ell))
        targets = np.multiply.outer(times, beta)
        zero = np.zeros(self.ell)
        sides = (np.flatnonzero(times > 0.0), np.flatnonzero(times < 0.0)[::-1])  # outward

        def newton(nodes, r):
            return -np.einsum("ijk,ik->ij", np.linalg.pinv(self.linearizing_jacobian(nodes)), r)

        def chain(nodes):
            # each side's rows out to the first without a node, with the index of
            # the row inside each (-1 for the centre)
            links = []
            for side in sides:
                inner = -1
                for j in side:
                    if nodes[j] is None:
                        break
                    links.append((j, inner))
                    inner = j
            return links

        def running(links, increments):
            # phi at each chained row, the sum of the increments out to it
            phis = np.full((len(times), self.ell), np.nan)
            for (j, inner), inc in zip(links, increments):
                phis[j] = (phis[inner] if inner >= 0 else zero) + inc
            return phis

        def ends(nodes, links):
            # the nodes at the inner and outer end of each link
            return [nodes[i] if i >= 0 else centre for _j, i in links], [nodes[j] for j, _i in links]

        # (1) predict from the centre's Jacobian
        slope = np.linalg.pinv(self.linearizing_jacobian(centre)) @ beta
        nodes = self._node(lam, centre.n + np.multiply.outer(times, slope), centre, partial=True)
        links = chain(nodes)
        if links:
            # (2) one correction from the trapezoid sums at the predicted rows
            inner, outer = ends(nodes, links)
            L_in, L_out = self.linearizing_jacobian(inner), self.linearizing_jacobian(outer)
            dn = np.array([b.n - a.n for a, b in zip(inner, outer)])
            rows = [j for j, _i in links]
            trap = running(links, 0.5 * np.einsum("ijk,ik->ij", L_in + L_out, dn))[rows]
            n_fix = np.array([q.n for q in outer]) + newton(outer, trap - targets[rows])
            for j, q in zip(rows, self._node(lam, n_fix, outer, partial=True)):
                nodes[j] = q if q is not None else nodes[j]
        # (3) integrate along the chains
        links = chain(nodes)
        phis = np.full((len(times), self.ell), np.nan)
        if links:
            inner, outer = ends(nodes, links)
            n_in, n_out = np.array([q.n for q in inner]), np.array([q.n for q in outer])
            phis = running(links, self._phi_increment(lam, n_in, n_out, (inner, outer)))

        def inward(usable):
            # per row, the index of the nearest usable row at or inside it, -1 for the centre
            out = np.full(len(times), -1)
            for side in sides:
                last = -1
                for j in side:
                    last = j if usable[j] else last
                    out[j] = last
            return out

        states = [(q, phi) for q, phi in zip(nodes, phis)]
        start = inward(np.isfinite(phis).all(axis=1))

        def solve(ids, states, tol, maxit, halvings):
            def trial(rows, x, now):
                if now is None:
                    now = [states[i] for i in rows]
                    return np.array([phi for _q, phi in now]) - targets[ids[rows]], now
                inner = [q for q, _phi in now]
                moved = self._node(lam, x, inner, partial=True)
                r, out = np.full((len(rows), self.ell), np.nan), [None] * len(rows)
                ok = [i for i, q in enumerate(moved) if q is not None]
                if ok:
                    inc = self._phi_increment(
                        lam, np.array([inner[i].n for i in ok]), x[ok],
                        ([inner[i] for i in ok], [moved[i] for i in ok]))
                    for i, d in zip(ok, inc):
                        out[i] = (moved[i], now[i][1] + d)
                        r[i] = out[i][1] - targets[ids[rows[i]]]
                return r, out

            def step(_rows, _x, r, now):
                return newton([q for q, _phi in now], r)

            return damped_newton(np.array([q.n for q, _phi in states]), trial, step, tol, maxit, halvings)

        # (4) the stacked Gauss-Newton; a row that misses the audit starts again
        # from the nearest row inside it that meets it (-1 the centre), while
        # that row is not the one it last started from (-2 before its first
        # start from a met row).  Met rows stay met, so each restart starts
        # further out and the passes end.
        rn, todo, tried = np.full(len(times), np.inf), np.arange(len(times)), np.where(start < 0, -1, -2)
        while todo.size:
            begin = [states[i] if i >= 0 else (centre, zero) for i in start[todo]]
            _x, _r, rn[todo], solved = solve(todo, begin, GN_TOL, GN_MAXIT, 8)
            for j, state in zip(todo, solved):
                states[j] = state
            met = rn <= AUDIT_TOL
            nearest = inward(met)
            todo = np.flatnonzero(~met & (nearest != tried))
            start[todo] = tried[todo] = nearest[todo]
        # (5) one more correction where it pays
        tight = QUAD_TOL * np.maximum(1.0, np.linalg.norm(targets, axis=1))
        redo = np.flatnonzero(rn > tight)
        if redo.size:
            _x, _r, rn[redo], polished = solve(redo, [states[i] for i in redo], tight[redo], 1, 1)
            for i, state in zip(redo, polished):
                states[i] = state
        bad = rn > AUDIT_TOL
        if bad.any():
            first = int(np.flatnonzero(np.isin(ts, times[bad]))[0])
            raise ChartDomainError(
                f"fiber solve did not meet the audit tolerance (residual {rn[bad].max():.3e}) "
                f"at t={ts[first]:g}, sample {first} of {len(ts)}",
                t_achieved=float(ts[first - 1]) if first else 0.0,
            )
        states = [states[j] if t != 0.0 else (centre, zero) for t, j in zip(ts, np.searchsorted(times, ts))]
        return [q for q, _phi in states], np.array([phi for _q, phi in states])


def rate_drift(chart, p0):
    """Change of the flow rate transported a short time along the dynamics.

    The transport is the one-row case of the chart's stacked fiber solve.
    """
    lam, n0 = chart.coords(p0)
    node0 = chart._node(lam, n0)
    beta0 = chart.flow_rate(node0)
    (node1,), _phi1 = chart._gauss_newton(lam, node0, beta0, np.array([RATE_DRIFT_DT]))
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
    ``served`` of its flow times.  The next centre is the last time served
    when the next time lies within one window of it, else the window's edge
    toward the next time, which then ends the flow times.  Past
    ``RECENTER_LIMIT`` re-centres the plan raises ChartDomainError.
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
            if j > i and abs(ts[j] - ts[j - 1]) <= window:
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
    (ascending recommended).  Each chart serves the consecutive times within
    one ``chart_window`` of its centre, all of them in one stacked
    ``linear_flow``, and the next is centred at the last time served when
    the next time lies within one window of it, else at the window's edge
    toward the next time.  The charts are planned up front, so more than
    ``RECENTER_LIMIT`` re-centres raise ChartDomainError before any solve; a
    fiber solve that fails raises it with the absolute time reached as
    ``t_achieved``.
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
