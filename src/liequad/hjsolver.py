"""Integration of invariant systems by quadratures.

Four-step route around a center point of phase space: (1) reduce the
conserved momentum pair to its locally independent components, (2) build a
complete solution chart parametrizing the nearby momentum fibers, (3) obtain
a generating function and a linearizing map by one-dimensional quadratures,
(4) evolve linearly in the linearized coordinates and map back.  Inside one
chart the linearized coordinates move affinely, phi(n(t)) = t beta, so step
(4) collocates the fiber rows n(t) on Chebyshev time panels outward from the
centre and interpolates the output times inside them; a probe row backward in
time checks by its flow rate that beta is constant.  No matrix exponential is
used.
"""

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .cotangent import PhasePoint
from .liegroup import NEWTON_MAXIT, NEWTON_TOL, CayleyChart, ChartDomainError, GroupElement, damped_newton
from .numutil import (
    _CHEB_BARY,
    _CHEB_DIFF,
    _CHEB_INT,
    _CHEB_X,
    QUAD_TOL,
    _resolved,
    _walk,
    central_jacobian,
    nullspace,
    numerical_rank,
)

GN_MAXIT = 20
AUDIT_TOL = 1e-9
ISOTROPY_TOL = 1e-8
TANGENCY_TOL = 1e-8
TANGENCY_SAMPLES = 8     # seeded chart points the tangency check draws around the center
TANGENCY_SEED = 4321
TANGENCY_RADIUS = 0.1
RATE_DRIFT_TOL = 1e-5
RATE_DRIFT_DT = 1e-2     # the rate-drift probe row sits at -RATE_DRIFT_DT, on the fiber solve's backward side
REACH_MARGIN = 0.8      # share of the Cayley reach along the flow that one chart serves
RECENTER_LIMIT = 64
LINMAP_FD_STEP = 1e-6   # relative step of the "fd" linearizing map
HJ_FD_STEP = 1e-5       # difference step of the potential-property residual


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
    """Quadrature values, or ChartDomainError when the quadrature gave up (a NaN value)."""
    if not np.isfinite(values).all():
        raise ChartDomainError(
            "quadrature gave up: a node left the chart or the panels did not resolve the integrand")
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


class _NodeRows:
    """A chart's solved points as rows of stacked arrays; row 0 is the centre.

    ``x`` are the chart points, whose group parts are a closed form of their
    Cayley coordinates and are not kept, and ``lam`` and ``n`` their chart
    coordinates.  ``inv`` is each row's inverse system matrix: it takes
    (dn, dlam) to chart velocities.  ``body`` is the same inverse with its
    group rows taken to body coordinates by the Cayley body matrix ``minv``,
    so its columns are the body tangents of the solution map.  ``ljac`` is
    each row's linearizing Jacobian, NaN until
    ``CompleteSolutionChart.linearizing_jacobian`` computes it.
    """

    def __init__(self, **row):
        for name, a in row.items():
            setattr(self, name, a[None])

    def add(self, **rows):
        """Append the rows (each array stacked, ``ljac`` NaN); returns their indices."""
        start, k = len(self.x), len(rows["x"])
        rows["ljac"] = np.full((k,) + self.ljac.shape[1:], np.nan)
        for name, a in rows.items():
            setattr(self, name, np.concatenate([getattr(self, name), a]))
        return np.arange(start, start + k)


class CompleteSolutionChart:
    """Fiberwise parametrization of phase space near a center point.

    The chart owns the reduction of the conserved momentum pair to its
    locally independent components.  Near a centre whose body momentum has
    isotropy dimension k the raw pair (spatial, body) has rank ell = 2 dim - k,
    and ``reduce`` projects the raw values onto the top ell left-singular
    directions of their Jacobian at the centre; the rows of ``trans`` span
    its kernel.  Chart points x are (Cayley coordinates of the group part in
    ``gchart``, the chart at the centre's, body momentum).  Coordinates
    (lam, n): lam are the reduced momentum values, n = trans (x - x0) are
    transversal coordinates along the momentum fibers.  The chart solves for
    the phase point with prescribed (lam, n), carries exact derivatives from
    the inverted solve, and computes the generating function and the
    linearizing map by quadratures.
    """

    def __init__(self, bundle, dyn_field, center, check=True):
        self.bundle = bundle
        self.field = dyn_field
        self.center = center
        self.dim = bundle.group.dim
        self.gchart = CayleyChart(bundle.group, center.g)
        self.x0 = np.concatenate([np.zeros(self.dim), center.alpha])
        self.raw0 = bundle.momentum_pair(center)
        J0 = bundle.momentum_pair_jacobian_body(center)  # body matrix I at the centre
        self.k = bundle.algebra.isotropy_dimension(center.alpha)
        self.ell = 2 * self.dim - self.k
        r = numerical_rank(J0)
        if r != self.ell:
            raise HypothesisError(
                f"momentum-pair rank {r} disagrees with the isotropy count {self.ell} at the center"
            )
        U, s, Vt = np.linalg.svd(J0)
        self.reduce = U[:, : self.ell]
        self.trans = Vt[self.ell :]
        self.sigma_min = float(s[self.ell - 1])
        # the centre as row 0, whose body matrix is I: the predictor of every
        # row that has no solved neighbour
        inv0 = np.linalg.inv(np.vstack([self.trans, self.reduce.T @ J0]))
        self.nodes = _NodeRows(
            x=self.x0, lam=np.zeros(self.ell), n=np.zeros(self.k), inv=inv0,
            body=inv0, ljac=np.full((self.ell, self.k), np.nan))
        if check:
            self.check_hypotheses()

    # -- hypothesis checks -----------------------------------------------

    def check_hypotheses(self):
        d_iso = fiber_isotropy_defect(self.bundle, self.center)
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
        inversion and one stacked momentum-pair Jacobian; the field takes
        each point as an element.
        """
        dim = self.dim
        rng = np.random.default_rng(TANGENCY_SEED)
        X = self.x0 + TANGENCY_RADIUS * np.vstack(
            [np.zeros(2 * dim), rng.standard_normal((TANGENCY_SAMPLES, 2 * dim))])
        G, Ginv = self.gchart.from_coords(X[:, :dim])
        W = np.array([self.field(PhasePoint(GroupElement(g, self.bundle.group, ginv), x[dim:])).concat()
                      for g, ginv, x in zip(G, Ginv, X)])
        J = self.bundle.momentum_pair_jacobians(self.gchart.body_and_coadjoint(G, Ginv)[1], X[:, dim:])
        img = np.einsum("ijk,ik->ij", J, W)
        return float(np.max(np.linalg.norm(img, axis=1) / np.maximum(1.0, np.linalg.norm(W, axis=1))))

    # -- chart solves ------------------------------------------------------

    def coords(self, p):
        """(lam, n) of a phase point; meaningful near the center only.

        No solve uses it: it is the forward map the tests check ``point`` against.
        """
        lam = self.reduce.T @ (self.bundle.momentum_pair(p) - self.raw0)
        n = self.trans @ (np.concatenate([self.gchart.to_coords(p.g), p.alpha]) - self.x0)
        return lam, n

    def invert(self, lam, n, x, partial=False):
        """Newton solves from the chart points x (m, 2 dim) for the rows (lam, n), as one stack.

        Each trial evaluates the rows at hand in one ``_evaluate``, a row
        whose trial point leaves the chart counting as failed; returns the
        rows' x, system matrices and body matrices at the accepted iterates,
        and the mask of the rows that met ``NEWTON_TOL``.
        A row that misses it raises ChartDomainError unless ``partial``.
        """
        dim = self.dim
        tol = NEWTON_TOL * np.maximum(
            np.maximum(np.linalg.norm(lam, axis=1), np.linalg.norm(n, axis=1)), 1.0)

        def trial(rows, xx, _states):
            r, states = np.full(xx.shape, np.nan), [None] * len(rows)
            ok = np.flatnonzero(self.gchart.inside(xx[:, :dim]))
            if ok.size:
                r[ok], S, minv = self._evaluate(lam[rows[ok]], n[rows[ok]], xx[ok])
                for i, state in zip(ok, zip(S, minv)):
                    states[i] = state
            return r, states

        def step(_rows, _x, r, states):
            # a singular system gives a NaN step, whose trial then fails
            S = np.array([state[0] for state in states])
            return _solve_stack(S, -r[:, :, None])[:, :, 0]

        x, _r, rn, states = damped_newton(x, trial, step, tol, NEWTON_MAXIT, 16)
        met = rn <= tol
        if not (partial or met.all()):
            raise ChartDomainError(
                f"complete-solution inversion did not converge (residual {rn[~met].max():.3e})"
            )
        S, minv = zip(*states)
        return x, np.array(S), np.array(minv), met

    def point(self, lam, n):
        return self._phase_point(self._node(lam, [n])[0])

    def _phase_point(self, i):
        """The phase point of row i of ``nodes``."""
        return self._phase_points([i])[0]

    def _phase_points(self, rows):
        """The phase points of the rows of ``nodes``, their group parts from one stacked chart inversion."""
        x, dim, group = self.nodes.x[rows], self.dim, self.bundle.group
        G, Ginv = self.gchart.from_coords(x[:, :dim])
        return [PhasePoint(GroupElement(g, group, ginv), a) for g, ginv, a in zip(G, Ginv, x[:, dim:])]

    def _evaluate(self, lam, n, X):
        """Residuals against the rows (lam, n) at chart points X, and the points' data.

        The group parts stay the stacks of one chart inversion.  Returns the
        residuals, the system matrices and the Cayley body matrices, one row
        each.
        """
        dim, k = self.dim, self.k
        minv, adit = self.gchart.body_and_coadjoint(*self.gchart.from_coords(X[:, :dim]))
        alpha = X[:, dim:]
        S = np.empty((len(X), 2 * dim, 2 * dim))
        S[:, :k] = self.trans
        S[:, k:] = self.reduce.T @ self.bundle.momentum_pair_jacobians(adit, alpha)
        S[:, k:, :dim] = S[:, k:, :dim] @ minv
        r = np.empty_like(X)
        r[:, :k] = (X - self.x0) @ self.trans.T - n
        r[:, k:] = (self.bundle.momentum_pairs(adit, alpha) - self.raw0) @ self.reduce - lam
        return r, S, minv

    def _node(self, lam, n, from_node=None, partial=False):
        """Solve the rows of n (m, k) into ``nodes``; returns the m new row indices.

        ``lam`` is one momentum value for every row or one row each;
        ``from_node`` holds the indices of the rows of ``nodes`` the new rows
        are predicted from, one each, the centre (row 0) for every row when
        None.  Each row's first-order predictor goes through its neighbour's
        inverted system, and the stack is evaluated at once: chart
        inversions, residuals, system matrices and their inverses.  The rows
        that miss ``NEWTON_TOL`` continue in one stacked ``invert``.  A row
        that fails (it leaves the chart, its residual or system is not
        finite, its inversion does not converge, or its system is singular)
        fails the stack, with ChartDomainError or ValueError; with
        ``partial`` its index comes back as -1 instead, and the other rows
        are solved as usual.  Filter the -1 out before gathering with the
        indices: numpy reads it as the last row.

        Rows on the centre's fiber, as every row of a flow is, need no
        Newton: at the centre's momentum it is g0 exp(s xi) over the isotropy
        algebra, flat in Cayley coordinates on the catalogue's groups (a line
        on the 3-D groups, a plane on so3 x R), so the first-order predictor
        lands on it.  On a plane a flow's rows still curve.
        """
        nodes = self.nodes
        n = np.asarray(n, float)
        m = len(n)
        lam = np.asarray(lam, float) + np.zeros((m, 1))
        near = np.zeros(m, int) if from_node is None else from_node
        step = np.concatenate([n - nodes.n[near], lam - nodes.lam[near]], axis=1)
        X = nodes.x[near] + np.einsum("ijk,ik->ij", nodes.inv[near], step)
        dim = self.dim
        live = np.flatnonzero(self.gchart.inside(X[:, :dim]) if partial else np.ones(m, bool))
        out = np.full(m, -1)
        if not live.size:
            return out
        X, lam_l, rows_l = X[live], lam[live], n[live]
        r, S, minv = self._evaluate(lam_l, rows_l, X)
        # |r| against NEWTON_TOL max(1, |lam|, |n|), squared
        bound = NEWTON_TOL**2 * np.maximum(np.maximum((lam_l * lam_l).sum(1), (rows_l * rows_l).sum(1)), 1)
        ok = (r * r).sum(1) <= bound
        finite = np.isfinite(r).all(axis=1)
        if not (ok | ~finite).all():
            miss = np.flatnonzero(~ok & finite)
            X[miss], S[miss], minv[miss], ok[miss] = self.invert(lam_l[miss], rows_l[miss], X[miss], partial)
        ok &= np.isfinite(S).all(axis=(1, 2))
        inv = np.full_like(S, np.nan)
        inv[ok] = _solve_stack(S[ok], np.broadcast_to(np.eye(2 * dim), S[ok].shape))
        ok &= np.isfinite(inv).all(axis=(1, 2))
        if not (partial or ok.all()):
            raise ValueError("complete-solution system is not finite")
        body = inv.copy()
        body[:, :dim] = minv @ inv[:, :dim]
        out[live[ok]] = nodes.add(
            x=X[ok], lam=lam_l[ok], n=rows_l[ok], inv=inv[ok], body=body[ok])
        return out

    # -- quadratures -------------------------------------------------------

    def _segment_quad(self, integrand):
        """Integral over [0, 1] of ``integrand`` on Clenshaw-Curtis panels, NaN if it gives up.

        ``integrand(s)`` takes a panel's 17 Chebyshev-Lobatto abscissae,
        ascending, and returns their values stacked.  The panels are
        ``_walk``'s from 0 to 1, and one whose values are not ``_resolved`` is
        refused.  The integrands are analytic inside the chart (Trefethen, "Is
        Gauss quadrature better than Clenshaw-Curtis?", SIAM Rev. 50, 2008),
        so a walk that stops short of 1 is a domain failure; ``_settled``
        turns its NaN into ChartDomainError.
        """

        def panel(a, b):
            # the integrand in the panel's [-1, 1] variable, as a time panel tests it
            values = 0.5 * (b - a) * integrand(0.5 * (a + b) + 0.5 * (b - a) * _CHEB_X)
            return _CHEB_INT[-1] @ values if _resolved(values) else None

        total, reached = 0.0, 0.0
        for _a, reached, value in _walk(1.0, panel):
            total += value
        return total if reached == 1.0 else np.nan

    def _line_quad(self, solved, lam0, dlam, dn, value):
        """``_segment_quad`` of ``value(rows)`` at the rows (lam0 + s dlam, s dn) of ``nodes``.

        ``solved`` holds row indices of ``nodes``: each row is predicted from
        the nearest of them, from the centre while it is empty, and the rows
        solved join it.  A row that fails reads NaN, which refuses its panel.
        """
        nodes = self.nodes

        def integrand(s):
            lam, n = lam0 + np.multiply.outer(s, dlam), np.multiply.outer(s, dn)
            from_node = None
            if solved:
                gap = np.concatenate([n, lam], axis=1)[:, None] - np.concatenate(
                    [nodes.n[solved], nodes.lam[solved]], axis=1)
                from_node = np.asarray(solved)[np.argmin(np.sum(gap * gap, axis=2), axis=1)]
            rows = self._node(lam, n, from_node, partial=True)
            solved.extend(rows[rows >= 0])
            values = value(np.maximum(rows, 0))
            values[rows < 0] = np.nan
            return values

        return self._segment_quad(integrand)

    def generating_function(self, lam, n):
        """Path integral of the tautological form over the standard path.

        The path runs (0,0) -> (lam,0) in the momentum values, then
        (lam,0) -> (lam,n) inside the fiber; the fiber leg is
        path-independent because the fibers are isotropic.  Each leg is one
        ``_line_quad``, their rows each predicted from the nearest solved
        before it; a leg that gives up raises ChartDomainError.
        """
        lam, n = np.asarray(lam, float), np.asarray(n, float)
        zk, zl = np.zeros(self.k), np.zeros(self.ell)
        dim, nodes = self.dim, self.nodes
        total, solved = 0.0, []
        # leg (lam0, dlam, dn): the point at s is (lam0 + s dlam, s dn)
        for lam0, dlam, dn in ((zl, lam, zk), (lam, zl, n)):
            if np.any(dlam) or np.any(dn):
                v = np.concatenate([dn, dlam])

                def theta(rows):
                    # theta of the body tangent along the leg: alpha . v
                    return np.einsum("ij,ij->i", nodes.x[rows, dim:], nodes.body[rows, :dim] @ v)

                total += float(_settled(self._line_quad(solved, lam0, dlam, dn, theta)))
        return total

    def linearizing_map(self, lam, n, method="fast"):
        """Momentum-direction derivative data of the generating function.

        "fast" evaluates the fiber-leg integral of -omega(d_lam, d_s) = L dn
        along the segment 0 -> n at lam directly; this is the map that evolves
        linearly along the dynamics (exactly, up to quadrature error).  "fd" central-differences the
        generating function over lam; it equals fast plus theta_pairing plus
        a function of lam alone, and the extra pairing term is generally not
        affine along the flow, so "fd" is a value-level cross-check, not an
        evolution coordinate.
        """
        if method == "fast":
            n = np.asarray(n, float)
            if not np.any(n):
                return np.zeros(self.ell)
            return _settled(self._line_quad(
                [], lam, np.zeros(self.ell), n, lambda rows: self.linearizing_jacobian(rows) @ n))
        if method == "fd":
            h = LINMAP_FD_STEP * max(1.0, float(np.linalg.norm(lam)))
            return central_jacobian(lambda x: self.generating_function(x, n), lam, h)
        raise ValueError(f"unknown linearizing-map method {method!r}")

    def theta_pairing(self, lam, n):
        """Tautological form against the momentum-direction derivatives."""
        i = self._node(lam, [n])[0]
        return self.nodes.x[i, self.dim :] @ self.nodes.body[i, : self.dim, self.k :]

    def linearizing_jacobian(self, rows):
        """Exact n-derivatives of the fast linearizing map at m rows of ``nodes``.

        Returns the (m, ell, k) stack.  The rows without one yet get theirs
        from one stacked product, kept in ``nodes.ljac``.
        """
        nodes, rows = self.nodes, np.asarray(rows)
        todo = rows[np.isnan(nodes.ljac[rows]).any(axis=(1, 2))]
        if todo.size:
            B = nodes.body[todo]
            O = self.bundle.omega_matrices(nodes.x[todo, self.dim :])
            nodes.ljac[todo] = -(B[:, :, self.k :].swapaxes(1, 2) @ (O @ B[:, :, : self.k]))
        return nodes.ljac[rows]

    def flow_rate(self, i):
        """Time derivative of the linearizing map along the dynamics at row i of ``nodes``."""
        p = self._phase_point(i)
        return (self.field(p).concat() @ self.bundle.omega_matrix(p)) @ self.nodes.body[i, :, self.k :]

    # -- linear time evolution ---------------------------------------------

    def linear_flow(self, ts):
        """Evolve the chart centre by the times ts via the linearized coordinates.

        Every time t is the fiber row where the linearizing map reaches
        t * rate, and one ``_gauss_newton`` solves all of them on time panels
        outward from the centre, whatever their order, sign or repeats.  Its
        times lead with the rate-drift probe at -``RATE_DRIFT_DT``, then
        t = 0: the probe sits on the backward side, so no positive time
        depends on it.  The times must lie within one ``chart_window`` of the
        centre; a time whose solve fails raises ChartDomainError whose
        ``t_achieved`` is the time before it in ts, 0.0 for the first and for
        the probe; a ValueError or LinAlgError out of the solve also becomes
        ChartDomainError, with ``t_achieved`` 0.0.  A flow rate at the probe
        off the centre's by more than ``RATE_DRIFT_TOL`` relative raises
        HypothesisError.  The diagnostics hold that drift and each sample's
        audit residual against the linear target, and their sup.
        """
        ts = np.asarray(ts, float)
        beta = self.flow_rate(0)
        try:
            rows, phis = self._gauss_newton(beta, np.concatenate([[-RATE_DRIFT_DT, 0.0], ts]))
        except (ValueError, np.linalg.LinAlgError) as err:
            raise ChartDomainError(f"linear flow failed: {err}", t_achieved=0.0) from err
        drift = float(np.linalg.norm(self.flow_rate(rows[0]) - beta) / max(1.0, np.linalg.norm(beta)))
        if drift > RATE_DRIFT_TOL:
            raise HypothesisError(
                f"the flow rate drifts along the dynamics (relative drift {drift:.3e}); "
                "the linearizing coordinates are not evolving linearly")
        rows, phis = rows[2:], phis[2:]
        audits = [float(a) for a in np.linalg.norm(phis - np.multiply.outer(ts, beta), axis=1)]
        diagnostics = {"lam": self.nodes.lam[0], "flow_rate": beta, "audits": audits, "rate_drift": drift}
        diagnostics["audit_max"] = max(audits, default=0.0)
        return TrajectorySample(ts, self._phase_points(rows), diagnostics)

    def _gauss_newton(self, beta, ts):
        """Rows of ``nodes`` and linearizing-map values phi at the times ts, as one stack.

        phi is relative to the centre (row 0), and each nonzero time t is the
        fiber row where phi(n) = t beta.  Each side of t = 0 is one ``_walk``
        of ``_panel`` solves outward from the centre, each starting from the
        last row of the one before.  A time on a panel's Chebyshev-Lobatto
        time takes that panel row and its phi.  Every other time's row and phi
        are interpolated in its panel, barycentrically from the increments
        over the panel's first row, which keeps their relative accuracy near
        the panel start, and those rows are solved as one node stack, each
        predicted from the nearest panel row.  A time that no panel reached,
        or whose row fails, raises ChartDomainError, ``t_achieved`` the entry
        of ts before the first that failed (0.0 for the first).  Returns the
        row indices and the phi values at the entries of ts (row 0 and 0
        where t = 0).
        """
        nodes, k = self.nodes, self.k
        rows, phis = np.zeros(len(ts), int), np.zeros((len(ts), self.ell))
        reached = ts == 0.0
        at, n, near = [], [], []
        for side in (ts[ts > 0.0], ts[ts < 0.0]):
            end, start = (side[np.argmax(np.abs(side))] if side.size else 0.0), 0
            # the walk calls the panel solve after the body below has moved start
            for a, b, (prow, pphi) in _walk(end, lambda lo, hi: self._panel(beta, lo, hi, start)):
                inside = np.flatnonzero(((ts - a) * end > 0.0) & ((b - ts) * end >= 0.0))
                x = (2.0 * ts[inside] - a - b) / (b - a)
                hit = x[:, None] == _CHEB_X
                exact = hit.any(axis=1)  # a time on a panel row takes that row and its phi
                on, j = inside[exact], hit[exact].argmax(axis=1)
                rows[on], phis[on], reached[on] = prow[j], pphi[j], True
                inside, gap = inside[~exact], x[~exact] - _CHEB_X[:, None]
                w = _CHEB_BARY[:, None] / gap
                inc = w.T @ np.concatenate([nodes.n[prow] - nodes.n[prow[0]], pphi - pphi[0]], axis=1)
                inc /= w.sum(axis=0)[:, None]
                at.extend(inside)
                n.extend(nodes.n[prow[0]] + inc[:, :k])
                phis[inside] = pphi[0] + inc[:, k:]
                near.extend(prow[np.argmin(np.abs(gap), axis=0)])
                start = prow[-1]
        if at:
            rows[at] = self._node(nodes.lam[0], np.array(n), np.array(near), partial=True)
            reached[at] = rows[at] >= 0
        if not reached.all():
            first = int(np.flatnonzero(~reached)[0])
            raise ChartDomainError(
                f"fiber solve did not reach t={ts[first]:g}", t_achieved=float(ts[first - 1]) if first else 0.0)
        return rows, phis

    def _panel(self, beta, a, b, start):
        """Fiber rows at the Chebyshev-Lobatto times of [a, b] where phi = t beta, or None.

        Row 0 is ``start``, the row of ``nodes`` at time a; the others start
        on its tangent, n_a + (t - a) L^+ beta, L the linearizing Jacobian.
        phi at each row is a beta plus the integral from a of L(n) n', through
        the Chebyshev differentiation and integration matrices.  While some
        row is above ``QUAD_TOL`` max(1, |t beta|) and every such row is still
        falling, each row moves by -L^+ (phi - t beta), and the rows are
        solved as one node stack.  The panel is refused (None) if a row
        leaves the chart, if the rows settle above ``AUDIT_TOL`` or not within
        ``GN_MAXIT`` rounds, or if the integrand is not ``_resolved``; the
        integrand is in the panel's [-1, 1] variable, so its coefficients
        scale with the panel width.  Returns the rows and their phi.
        """
        nodes, lam = self.nodes, self.nodes.lam[0]
        times = 0.5 * (a + b) + 0.5 * (b - a) * _CHEB_X
        targets = np.multiply.outer(times, beta)
        tight = QUAD_TOL * np.maximum(1.0, np.linalg.norm(targets, axis=1))
        rows = np.full(len(times), start)
        slope = np.linalg.pinv(self.linearizing_jacobian([start])[0]) @ beta
        n = nodes.n[start] + np.multiply.outer(times - a, slope)
        last = np.inf
        for _ in range(GN_MAXIT):
            rows[1:] = self._node(lam, n[1:], rows[1:], partial=True)
            if (rows < 0).any():
                return None
            L = self.linearizing_jacobian(rows)
            integrand = np.einsum("ijk,ik->ij", L, _CHEB_DIFF @ nodes.n[rows])
            phis = a * beta + _CHEB_INT @ integrand
            r = phis - targets
            rn = np.linalg.norm(r, axis=1)
            above = rn > tight
            if above.any() and (rn < last)[above].all():
                last = rn
                n = nodes.n[rows] - np.einsum("ijk,ik->ij", np.linalg.pinv(L), r)
                continue
            if rn.max() > AUDIT_TOL or not _resolved(integrand):
                return None
            return rows, phis
        return None


def chart_window(bundle, dyn_field, p):
    """Flow time that one complete-solution chart centred at p serves.

    The hypotheses conserve the body velocity, so the group part of the flow
    is p.g exp(tX), X the algebra matrix of the body velocity at p, and it
    leaves the Cayley chart at p.g at ``CayleyChart.reach``.  The window is
    ``REACH_MARGIN`` of it: the fiber solves probe around the curve too.
    """
    X = bundle.group.algebra_matrix(dyn_field(p).v)
    return REACH_MARGIN * CayleyChart(bundle.group, p.g).reach(X)


def output_times(ts):
    """ts as a float array, or ValueError naming the first time that is not finite."""
    ts = np.asarray(ts, float)
    bad = np.flatnonzero(~np.isfinite(ts))
    if bad.size:
        raise ValueError(f"output time ts[{bad[0]}] = {ts[bad[0]]} is not finite")
    return ts


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
    one ``chart_window`` of its centre, all of them in one ``linear_flow`` on
    Chebyshev time panels, and the next is centred at the last time served
    when the next time lies within one window of it, else at the window's
    edge toward the next time; each checks its rate drift with a probe row
    backward in time, the largest drift in the diagnostics.  The charts are
    planned up front, so more than ``RECENTER_LIMIT`` re-centres raise
    ChartDomainError before any solve; a fiber solve that fails raises it
    with the absolute time reached as ``t_achieved``.  A time that is not
    finite raises ValueError before any solve.
    """
    ts = output_times(ts)
    plan = _chart_plan(ts, chart_window(bundle, dyn_field, p0))
    points, audits, drifts = [], [], []
    p_base = p0
    for i, (t_base, times, served) in enumerate(plan):
        chart = CompleteSolutionChart(bundle, dyn_field, p_base, check=(i == 0))
        try:
            sample = chart.linear_flow(times - t_base)
        except ChartDomainError as err:
            raise ChartDomainError(
                f"{err} (chart centred at t={t_base:g})", t_achieved=t_base + err.t_achieved
            ) from err
        points.extend(sample.points[:served])
        audits.extend(sample.diagnostics["audits"])
        drifts.append(sample.diagnostics["rate_drift"])
        p_base = sample.points[-1]
    diagnostics = {"audits": audits, "recenters": max(len(plan) - 1, 0)}
    diagnostics["audit_max"] = max(audits, default=0.0)
    diagnostics["rate_drift_max"] = max(drifts, default=0.0)
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
        # Clenshaw-Curtis over [0, 1] on the 17 Chebyshev-Lobatto points of the panels
        return sum(w * path_theta(nn, s) for s, w in zip(0.5 * (_CHEB_X + 1.0), 0.5 * _CHEB_INT[-1]))

    grad = central_jacobian(potential, n, HJ_FD_STEP * max(1.0, float(np.linalg.norm(n))))
    dg = central_jacobian(lambda nn: grp.flat(section(lam, nn).g.matrix), n, HJ_FD_STEP)
    p = section(lam, n)
    forms = [float(p.alpha @ grp.body_coords(p.g, grp.unflat(col))) for col in dg.T]
    return max(abs(gj - fj) for gj, fj in zip(grad, forms))
