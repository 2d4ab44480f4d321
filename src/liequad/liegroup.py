"""Concrete matrix Lie groups: elements, group charts, and an exp oracle.

Groups are represented by their defining matrix equations (orthogonality,
unit determinant, unipotent pattern), never by exponential coordinates.  The
one group chart, ``CayleyChart``, stays free of the matrix exponential: it
writes g = g0 cay(A(x)) near a centre g0, cay(A) = (I - A/2)^-1 (I + A/2),
with A(x) the algebra matrix of x.  Both directions are closed form, and cay
maps the algebra into every catalogued group: so3, su2 and sl2r are
quadratic groups, and on heis3, rn:k and the product's line A is nilpotent.
A one-parameter subgroup through g0 is a straight line in these coordinates,
since exp(tX) = cay(2 tanh(tX/2)).  The phase-space chart of ``cotangent``
and the group-factor solves of ``reconstruct`` use it.

``matrix_exp_oracle`` exists only as an independent reference and honors a
purity guard that the quadrature tests switch on.

Complex groups (su2) are handled through a real flattening: a matrix maps to
the vector [Re(entries row-major), Im(entries row-major)].
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .liealg import make_algebra

MEMBERSHIP_TOL = 1e-8          # constructed elements must sit on the manifold this well
REPROJECT_LIMIT = 1e-4         # residuals past this are a hard error, no silent repair
EXPANSION_TOL = 1e-10          # adjoint images must expand in the algebra basis this well
NEWTON_TOL = 1e-12
NEWTON_MAXIT = 50
# a Cayley chart ends where an eigenvalue of A/2 reaches this modulus: a rotation
# by pi/2 on so3, and on sl2r before I - A/2 turns singular at the eigenvalue +1
CAYLEY_RADIUS = 1.0

_oracle_state = {"forbidden": 0, "calls": 0}


@contextmanager
def forbid_exp_oracle():
    """Make matrix_exp_oracle raise inside the context (purity enforcement)."""
    _oracle_state["forbidden"] += 1
    try:
        yield
    finally:
        _oracle_state["forbidden"] -= 1


def oracle_call_count():
    return _oracle_state["calls"]


class ChartDomainError(RuntimeError):
    """Chart coordinates could not be inverted: the point left the chart.

    ``t_achieved`` is the time a flow had reached when it failed (0.0 when the
    failure is not part of a flow).
    """

    def __init__(self, *args, t_achieved=0.0):
        super().__init__(*args)
        self.t_achieved = t_achieved


# -- membership constraints --------------------------------------------------
#
# Each constraint exposes residual(mat) -> vector.  A constraint on a square
# block takes the block as an array of positions in the row-major entry list
# of the matrix.


def _leading_block(n, N):
    """Row-major entry positions of the leading n x n block of an N x N matrix."""
    return np.arange(N * N).reshape(N, N)[:n, :n]


class _Orthogonal:
    """B^T B = I for a real block B: one gather of the upper triangle of B^T B."""

    def __init__(self, block):
        self.block = np.asarray(block)
        n = self.block.shape[0]
        rows = np.triu_indices(n)
        self._triu = rows[0] * n + rows[1]
        self._eye_rows = (rows[0] == rows[1]).astype(float)

    def residual(self, g):
        B = np.asarray(g).reshape(-1)[self.block]
        return B.T.dot(B).reshape(-1)[self._triu] - self._eye_rows


class _Unitary:
    """g^H g = I for a complex N x N matrix: Re on and above, Im above the diagonal.

    Like ``_Orthogonal``: one gather from g^H g, which reads the complex
    entries as interleaved (re, im) pairs, so g is not split.
    """

    def __init__(self, N):
        re_a, re_b = np.triu_indices(N)
        im_a, im_b = np.triu_indices(N, 1)
        # positions of Re M_ab and Im M_ab in the interleaved view of M
        self._gather = np.concatenate([2 * (re_a * N + re_b), 2 * (im_a * N + im_b) + 1])
        self._eye_rows = np.concatenate([(re_a == re_b).astype(float), np.zeros(len(im_a))])

    def residual(self, g):
        g = np.asarray(g, dtype=complex)
        M = g.conj().T.dot(g)
        return M.reshape(-1).view(float)[self._gather] - self._eye_rows


def _det(g):
    """det(g) of a 2x2 or 3x3 matrix in closed form."""
    if g.shape[0] == 2:
        a, b, c, d = g.reshape(-1).tolist()
        return a * d - b * c
    a, b, c, d, e, f, p, q, s = g.reshape(-1).tolist()
    return a * (e * s - f * q) - b * (d * s - f * p) + c * (d * q - e * p)


class _UnitDet:
    """det B = 1 for a real or complex 2x2 or 3x3 block B (Re and Im parts if complex)."""

    def __init__(self, block, complex_entries=False):
        self.block = np.asarray(block)
        if self.block.shape not in ((2, 2), (3, 3)):
            raise ValueError(f"unit determinant needs a 2x2 or 3x3 block, got {self.block.shape}")
        self.complex_entries = complex_entries

    def residual(self, g):
        d = _det(np.asarray(g).reshape(-1)[self.block])
        if self.complex_entries:
            return np.array([d.real - 1.0, d.imag])
        return np.array([d - 1.0])


class _Pattern:
    """Affine entry constraints on a real matrix: flat[index] == value."""

    def __init__(self, pairs):
        self.idx = np.array([idx for idx, _ in pairs], dtype=int)
        self.val = np.array([val for _, val in pairs], dtype=float)

    def residual(self, g):
        return np.asarray(g).reshape(-1)[self.idx] - self.val


# -- the group class ---------------------------------------------------------


class GroupElement:
    """A group matrix with lazily cached point data.

    ``inv``, when the constructor knows g^-1 (the Cayley chart gets it from
    the solve that gives g), saves every later inversion.
    """

    __slots__ = ("matrix", "group", "_inv", "_ad", "_adit")

    def __init__(self, matrix, group, inv=None):
        m = np.array(matrix)
        m.setflags(write=False)
        self.matrix = m
        self.group = group
        self._inv = inv
        self._ad = None
        self._adit = None

    @property
    def inv_matrix(self):
        """The matrix g^-1, inverted on first use unless the constructor had it."""
        if self._inv is None:
            self._inv = np.linalg.inv(self.matrix)
        return self._inv

    def __matmul__(self, other):
        return self.group.compose(self, other)

    def inverse(self):
        return self.group.inverse(self)

    def __repr__(self):
        return f"GroupElement({self.group.name}, {np.array2string(self.matrix, precision=4)})"


class MatrixGroup:
    """A matrix group with its Lie algebra, membership equations, and charts."""

    def __init__(self, name, algebra, basis_matrices, constraints, project):
        self.name = name
        self.algebra = algebra
        basis = np.asarray(basis_matrices)
        self.is_complex = np.iscomplexobj(basis)
        self.basis = basis
        self.N = basis.shape[1]
        self.dim = algebra.dim
        self.flat_dim = (2 if self.is_complex else 1) * self.N * self.N
        self.constraints = constraints
        self._project_matrix = project
        # flat images of the basis, and a pseudo-inverse for expanding
        # algebra-valued matrices back into coordinates
        self._basis_flat = np.stack([self.flat(X) for X in basis])
        self._expand = np.linalg.pinv(self._basis_flat.T)
        # flat rows u times _split: their coordinates, then their part outside the algebra
        leak = self._expand.T @ self._basis_flat - np.eye(self.flat_dim)
        self._split = np.hstack([self._expand.T, leak])
        self._basis_stack = np.stack([np.asarray(X) for X in basis])
        self._basis_rows = self._basis_stack.reshape(self.dim, -1)
        self._check_bracket_consistency()

    def _flat_stack(self, mats):
        """Rows of flat() applied to a stack of matrices."""
        m = np.asarray(mats)
        k = m.shape[0]
        if self.is_complex:
            return np.concatenate([m.real.reshape(k, -1), m.imag.reshape(k, -1)], axis=1)
        return m.reshape(k, -1).astype(float, copy=False)

    def _check_bracket_consistency(self):
        for i in range(self.dim):
            for j in range(self.dim):
                lhs = self.basis[i] @ self.basis[j] - self.basis[j] @ self.basis[i]
                rhs = self.algebra_matrix(self.algebra.c[i, j])
                if np.max(np.abs(lhs - rhs)) > 1e-12:
                    raise ValueError(
                        f"{self.name}: matrix commutators disagree with structure constants"
                    )

    # flat real coordinates ---------------------------------------------------

    def flat(self, matrix):
        m = np.asarray(matrix)
        if self.is_complex:
            return np.concatenate([m.real.reshape(-1), m.imag.reshape(-1)])
        return m.reshape(-1).astype(float, copy=True)

    def unflat(self, u):
        n2 = self.N * self.N
        if self.is_complex:
            return u[:n2].reshape(self.N, self.N) + 1j * u[n2:].reshape(self.N, self.N)
        return u.reshape(self.N, self.N).copy()

    def algebra_matrix(self, xi):
        """Represent algebra coordinates as a matrix."""
        return (np.asarray(xi, float) @ self._basis_rows).reshape(self.N, self.N)

    def algebra_coords(self, matrix):
        """Expand an algebra-valued matrix in the basis; error if it does not fit."""
        u = self.flat(matrix)
        coords = self._expand @ u
        resid = np.linalg.norm(self._basis_flat.T @ coords - u)
        if resid > EXPANSION_TOL * max(1.0, np.linalg.norm(u)):
            raise ValueError(f"{self.name}: matrix does not lie in the algebra (residual {resid:.2e})")
        return coords

    def _algebra_coords_stack(self, mats):
        """Expand a stack of algebra-valued matrices; rows are coordinate vectors."""
        u = self._flat_stack(mats)
        split = u @ self._split
        leak = split[:, self.dim :]
        ratio = np.einsum("ij,ij->i", leak, leak) / np.maximum(1.0, np.einsum("ij,ij->i", u, u))
        worst = math.sqrt(ratio.max()) if len(ratio) else 0.0
        if worst > EXPANSION_TOL:
            raise ValueError(f"{self.name}: matrix does not lie in the algebra (residual {worst:.2e})")
        return split[:, : self.dim]

    # membership --------------------------------------------------------------

    def membership_vector(self, matrix):
        return np.concatenate([con.residual(matrix) for con in self.constraints])

    def membership_residual(self, matrix):
        return float(np.linalg.norm(self.membership_vector(matrix)))

    def element(self, matrix):
        """Wrap a matrix, applying the re-projection policy.

        Residual <= 1e-8: accept.  In (1e-8, 1e-4]: re-project onto the
        manifold and re-validate.  Larger: hard error.
        """
        m = np.asarray(matrix, dtype=complex if self.is_complex else float)
        r = self.membership_residual(m)
        if r > MEMBERSHIP_TOL:
            if r > REPROJECT_LIMIT:
                raise ValueError(f"{self.name}: matrix off the group manifold (residual {r:.3e})")
            m = self._project_matrix(m)
            r = self.membership_residual(m)
            if r > MEMBERSHIP_TOL:
                raise ValueError(f"{self.name}: re-projection failed (residual {r:.3e})")
        return GroupElement(m, self)

    def identity(self):
        dtype = complex if self.is_complex else float
        return GroupElement(np.eye(self.N, dtype=dtype), self)

    def compose(self, a, b):
        return self.element(a.matrix @ b.matrix)

    def inverse(self, a):
        return self.element(np.linalg.inv(a.matrix))

    # adjoint / coadjoint ------------------------------------------------------

    def _conjugations(self, left, right):
        """Algebra coordinates of left E_n right, for stacks of k matrices: (k, dim, dim).

        Row n of entry p expands left[p] E_n right[p]; with right = left^-1
        that is column n of Ad_left.
        """
        conj = left[:, None] @ self._basis_stack @ right[:, None]
        k = len(left)
        return self._algebra_coords_stack(conj.reshape(k * self.dim, self.N, self.N)).reshape(
            k, self.dim, self.dim
        )

    def adjoint_matrix(self, g):
        """Matrix of Ad_g on algebra coordinates (columns are Ad_g e_i)."""
        if isinstance(g, GroupElement):
            if g._ad is None:
                g._ad = self._conjugations(g.matrix[None], g.inv_matrix[None])[0].T
            return g._ad
        gm = np.asarray(g)
        return self._conjugations(gm[None], np.linalg.inv(gm)[None])[0].T

    def adjoint_inv_transpose(self, g):
        """Transposed inverse of Ad_g: the matrix of the coadjoint action.

        Ad(g^-1) is the conjugation of Ad_g with g and g^-1 swapped, so no
        dim x dim inverse is taken.  A list of k elements gives the
        (k, dim, dim) stack from one stacked conjugation; each element caches
        its own.
        """
        if isinstance(g, list):
            todo = [e for e in g if e._adit is None]
            if todo:
                adit = self._conjugations(np.array([e.inv_matrix for e in todo]), np.array([e.matrix for e in todo]))
                for e, a in zip(todo, adit):
                    e._adit = a
            return np.array([e._adit for e in g])
        if isinstance(g, GroupElement):
            if g._adit is None:
                self.adjoint_inv_transpose([g])
            return g._adit
        gm = np.asarray(g)
        return self._conjugations(np.linalg.inv(gm)[None], gm[None])[0]

    def adjoint(self, g, xi):
        return self.adjoint_matrix(g) @ np.asarray(xi, float)

    def coadjoint(self, g, alpha):
        """<coadjoint(g, alpha), eta> = <alpha, Ad_{g^-1} eta>."""
        return self.adjoint_inv_transpose(g) @ np.asarray(alpha, float)

    # tangent helpers ----------------------------------------------------------

    def tangent_matrix(self, g, v_body):
        """Tangent matrix g @ X(v) for body coordinates v."""
        gm = g.matrix if isinstance(g, GroupElement) else np.asarray(g)
        return gm @ self.algebra_matrix(v_body)

    def body_coords(self, g, tangent):
        """Body coordinates of a tangent matrix at g: expand g^-1 dg."""
        gm = g.matrix if isinstance(g, GroupElement) else np.asarray(g)
        return self.algebra_coords(np.linalg.solve(gm, tangent))


# -- catalogue ----------------------------------------------------------------


def _so3_basis():
    L = np.zeros((3, 3, 3))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        L[i, j, k] = -1.0
        L[i, k, j] = 1.0
    return L


def _project_polar_real(m):
    u, _s, vt = np.linalg.svd(m)
    p = u @ vt
    if np.linalg.det(p) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        p = u @ vt
    return p


def _project_polar_unitary(m):
    u, _s, vh = np.linalg.svd(m)
    p = u @ vh
    d = np.linalg.det(p)
    return p / np.sqrt(d)


def _project_unit_det(m):
    d = np.linalg.det(m)
    if d <= 0:
        raise ValueError("cannot re-project: determinant not positive")
    return m / np.sqrt(d)


def _pattern_projector(pairs, unflat, flat):
    def project(m):
        u = flat(m)
        for idx, val in pairs:
            u[idx] = val
        return unflat(u)

    return project


def make_group(key):
    """Catalogue groups: "so3", "su2", "sl2r", "heis3", "rn:<k>"."""
    if key == "so3":
        alg = make_algebra("so3")
        return MatrixGroup(
            "so3", alg, _so3_basis(),
            [_Orthogonal(_leading_block(3, 3)), _UnitDet(_leading_block(3, 3))],
            _project_polar_real,
        )
    if key == "su2":
        alg = make_algebra("su2")
        s1 = np.array([[0, 1], [1, 0]], dtype=complex)
        s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
        s3 = np.array([[1, 0], [0, -1]], dtype=complex)
        basis = np.stack([-0.5j * s1, -0.5j * s2, -0.5j * s3])
        return MatrixGroup(
            "su2", alg, basis,
            [_Unitary(2), _UnitDet(_leading_block(2, 2), complex_entries=True)],
            _project_polar_unitary,
        )
    if key == "sl2r":
        alg = make_algebra("sl2r")
        basis = np.stack([
            np.array([[1.0, 0.0], [0.0, -1.0]]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.array([[0.0, 1.0], [-1.0, 0.0]]),
        ])
        return MatrixGroup(
            "sl2r", alg, basis, [_UnitDet(_leading_block(2, 2))], _project_unit_det
        )
    if key == "heis3":
        alg = make_algebra("heis3")
        E = np.zeros((3, 3, 3))
        E[0, 0, 1] = 1.0  # x
        E[1, 1, 2] = 1.0  # y
        E[2, 0, 2] = 1.0  # z (central)
        pairs = [(0, 1.0), (4, 1.0), (8, 1.0), (3, 0.0), (6, 0.0), (7, 0.0)]
        pat = _Pattern(pairs)
        g = MatrixGroup(
            "heis3", alg, E, [pat],
            _pattern_projector(pairs, lambda u: u.reshape(3, 3), lambda m: m.reshape(-1).copy()),
        )
        return g
    if key.startswith("rn:"):
        alg = make_algebra(key)
        k = alg.dim
        N = k + 1
        E = np.zeros((k, N, N))
        for i in range(k):
            E[i, i, N - 1] = 1.0
        free = {i * N + (N - 1) for i in range(k)}
        pairs = []
        for i in range(N):
            for j in range(N):
                idx = i * N + j
                if idx in free:
                    continue
                pairs.append((idx, 1.0 if i == j else 0.0))
        pat = _Pattern(pairs)
        return MatrixGroup(
            key, alg, E, [pat],
            _pattern_projector(pairs, lambda u: u.reshape(N, N), lambda m: m.reshape(-1).copy()),
        )
    raise KeyError(f"unknown group key {key!r}")


# -- exp oracle ---------------------------------------------------------------


def matrix_exp_oracle(group, xi, t=1.0):
    """exp(t xi) by scaling-and-squaring with an 18-term Taylor series.

    Independent reference implementation; the quadrature route never calls
    this.  Raises under the purity guard.
    """
    if _oracle_state["forbidden"]:
        raise RuntimeError("matrix_exp_oracle invoked while the purity guard is active")
    _oracle_state["calls"] += 1
    A = t * group.algebra_matrix(xi)
    norm = np.linalg.norm(A)
    s = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    B = A / (2**s)
    term = np.eye(group.N, dtype=B.dtype)
    acc = np.eye(group.N, dtype=B.dtype)
    for k in range(1, 19):
        term = term @ B / k
        acc = acc + term
    for _ in range(s):
        acc = acc @ acc
    return group.element(acc)


# -- damped Newton ------------------------------------------------------------


def damped_newton(x, trial, step, tol, maxit, halvings):
    """Backtracking Newton iteration shared by every implicit solve.

    ``x`` is one unknown vector, or a stack (m, k) of independent rows that
    are solved together.  For a vector, ``trial(x, state)`` returns
    ``(r, state)``: the residual at x and whatever the caller wants back at
    an accepted iterate (``state`` is None on the first call, the last
    accepted state after that, for warm starts), and ``step(x, r, state)``
    returns the full step.  For a stack both take the indices of the rows at
    hand first, ``trial(rows, x, states)`` and ``step(rows, x, r, states)``,
    with x, r and the list of states restricted to those rows; a row whose
    trial failed has a non-finite residual, and ``tol`` may be one bound per
    row.

    Each row is damped on its own: its step is halved until its |r| drops, a
    trial that raises ChartDomainError or ValueError failing every row it
    holds.  A row ends at |r| <= tol, after ``maxit`` steps, when every
    halving fails, or after five accepted steps in a row that cut |r| by
    less than 4x (a converging solve contracts fast; slow decrease means the
    root is out of reach).  One trial call serves every row tried at the
    same halving.  A non-finite starting |r| raises ValueError.

    Returns ``(x, r, |r|, state)``, for a stack the stacked rows and the list
    of states; acceptance is the caller's call.
    """
    if np.ndim(x) == 1:

        def rows_trial(_rows, xs, states):
            r, state = trial(xs[0], None if states is None else states[0])
            return np.asarray(r, float)[None], [state]

        def rows_step(_rows, xs, r, states):
            return np.asarray(step(xs[0], r[0], states[0]), float)[None]

        xs, r, rn, states = damped_newton(np.asarray(x)[None], rows_trial, rows_step, tol, maxit, halvings)
        return xs[0], r[0], float(rn[0]), states[0]

    x = np.array(x, float)
    tol = np.broadcast_to(np.asarray(tol, float), len(x))
    r, states = trial(np.arange(len(x)), x, None)
    r, states = np.array(r, float), list(states)
    rn = np.sqrt(np.einsum("ij,ij->i", r, r))
    if not np.isfinite(rn).all():
        raise ValueError("Newton residual is not finite")
    slow = np.zeros(len(x), int)
    going = rn > tol
    for _ in range(maxit):
        rows = np.flatnonzero(going)
        if not rows.size:
            break
        dx = step(rows, x[rows], r[rows], [states[i] for i in rows])
        t = 1.0
        for _bt in range(halvings):
            x_try = x[rows] + t * dx
            try:
                r_try, states_try = trial(rows, x_try, [states[i] for i in rows])
                rn_try = np.sqrt(np.einsum("ij,ij->i", r_try, r_try))
            except (ChartDomainError, ValueError):
                rn_try = np.full(len(rows), np.nan)
            better = rn_try < rn[rows]
            for i in np.flatnonzero(better):
                row = rows[i]
                slow[row] = slow[row] + 1 if rn_try[i] > 0.25 * rn[row] else 0
                x[row], r[row], rn[row], states[row] = x_try[i], r_try[i], rn_try[i], states_try[i]
                going[row] = rn[row] > tol[row] and slow[row] < 5
            rows, dx = rows[~better], dx[~better]
            if not rows.size:
                break
            t *= 0.5
        going[rows] = False
    return x, r, rn, states


# -- Cayley chart -------------------------------------------------------------


class CayleyChart:
    """Cayley coordinates on the group: g = g0 cay(A(x)) near g0.

    cay(A) = (I - A/2)^-1 (I + A/2) and A(x) = sum x_i E_i.  ``from_coords``
    is one linear solve and ``to_coords`` its inverse A = 2 (C - I)(C + I)^-1
    with C = g0^-1 g, so no Newton iteration runs.  The differential inverts
    in closed form too: (I + A/2)^-1 = (I + C^-1)/2 and (I - A/2)^-1 =
    (I + C)/2 (Iserles, Found. Comput. Math. 1, 2001).  The chart is the set
    of x whose A/2 has every eigenvalue inside ``CAYLEY_RADIUS``; nilpotent A
    (heis3, rn:k) has none outside, so there the chart is global.

    Both take stacks.  ``from_coords`` turns k coordinate rows (k, dim) into
    k elements, (k, N, N) as a stack, with one stacked solve, which also
    gives C^-1 = cay(-A); so each element carries g^-1 = C^-1 g0^-1.
    ``body_coords_matrix`` turns a list of k elements into the (k, dim, dim)
    stack and reads C^-1 from them, so neither the body matrices nor the
    adjoints of chart points invert anything.
    """

    def __init__(self, group, g0=None):
        self.group = group
        self.g0 = g0 if g0 is not None else group.identity()
        self._g0inv = np.linalg.inv(self.g0.matrix)
        self._eye = np.eye(group.N, dtype=self.g0.matrix.dtype)
        self._half_basis = 0.5 * group._basis_rows

    def _half_coords_matrix(self, g):
        """A/2 for the Cayley coordinates of g, as a matrix."""
        if g is self.g0:
            return np.zeros_like(self._eye)
        gm = g.matrix if isinstance(g, GroupElement) else np.asarray(g)
        C = self._g0inv @ gm
        # C commutes with (C + I)^-1, so A/2 = (C + I)^-1 (C - I)
        return np.linalg.solve(C + self._eye, C - self._eye)

    def to_coords(self, g):
        if g is self.g0:
            return np.zeros(self.group.dim)
        return 2.0 * self.group.algebra_coords(self._half_coords_matrix(g))

    def _radius(self, half):
        """Per row of the stack A/2, its spectral radius where that may reach the
        chart's edge, else its Frobenius norm, a bound below ``CAYLEY_RADIUS``."""
        # the Frobenius norm bounds the spectral radius; 85-100% of the rows
        # on the benchmark workloads stay below the edge and skip eigvals
        frob = half.reshape(len(half), -1).view(float)
        rho = np.sqrt(np.einsum("ij,ij->i", frob, frob))
        far = rho >= CAYLEY_RADIUS
        if far.any():
            rho[far] = np.abs(np.linalg.eigvals(half[far])).max(axis=1)
        return rho

    def inside(self, x):
        """Mask of the coordinate rows of x (k, dim) that lie in the chart and are finite."""
        rows = np.asarray(x, float)
        ok = np.isfinite(rows).all(axis=1)
        half = (np.where(ok[:, None], rows, 0.0) @ self._half_basis).reshape(-1, self.group.N, self.group.N)
        return ok & (self._radius(half) < CAYLEY_RADIUS)

    def _cayley(self, x):
        """Stacks of C = cay(A) and C^-1 = cay(-A) for the coordinate rows of x, from one solve."""
        rows = np.asarray(x, float).reshape(-1, self.group.dim)
        k, N = len(rows), self.group.N
        if not np.isfinite(rows).all():
            raise ValueError("non-finite Cayley coordinates")
        half = (rows @ self._half_basis).reshape(k, N, N)
        rho = self._radius(half)
        if not (rho < CAYLEY_RADIUS).all():
            raise ChartDomainError(
                f"{self.group.name} Cayley chart: spectral radius {rho.max():.3e} of A/2 "
                f"is not below {CAYLEY_RADIUS:g}"
            )
        # rows [:k] solve (I - A/2) C = I + A/2, rows [k:] the inverse cay(-A)
        lhs = np.concatenate([self._eye - half, self._eye + half])
        both = np.linalg.solve(lhs, np.concatenate([lhs[k:], lhs[:k]]))
        return both[:k], both[k:]

    def from_coords(self, x):
        """g0 cay(A(x)), or a list of k elements for rows x (k, dim).

        ChartDomainError when a row is outside the chart, ValueError when one
        is not finite; either fails the whole stack.
        """
        C, Cinv = self._cayley(x)
        gs, ginvs = self.g0.matrix @ C, Cinv @ self._g0inv
        out = [GroupElement(g, self.group, inv) for g, inv in zip(gs, ginvs)]
        return out if np.ndim(x) == 2 else out[0]

    def tangent_coords_matrix(self, g):
        """Matrix M with M @ v_body = d(to_coords)/dt along tangent g X(v).

        Column i is the algebra coordinates of (I + A/2) E_i (I - A/2), A the
        Cayley coordinates of g as a matrix.
        """
        half = self._half_coords_matrix(g)
        return self.group._conjugations((self._eye + half)[None], (self._eye - half)[None])[0].T

    def body_coords_matrix(self, g):
        """Inverse of ``tangent_coords_matrix``: takes chart velocities at g to body ones.

        Column i is the algebra coordinates of (I + C^-1) E_i (I + C) / 4,
        C = g0^-1 g, with C^-1 read from the element.  A list of k elements
        gives the (k, dim, dim) stack.  The expansion that gives the body
        matrices also gives the elements' coadjoint matrices Ad(g^-1)^T,
        which each element caches.
        """
        if g is self.g0:
            return np.eye(self.group.dim)
        els = g if isinstance(g, list) else [g]
        gs = np.array([e.matrix for e in els])
        ginvs = np.array([e.inv_matrix for e in els])
        k = len(els)
        both = self.group._conjugations(
            np.concatenate([ginvs, self._eye + ginvs @ self.g0.matrix]),
            np.concatenate([gs, self._eye + self._g0inv @ gs]),
        )
        for e, adit in zip(els, both[:k]):
            e._adit = adit
        out = 0.25 * both[k:].swapaxes(1, 2)
        return out if isinstance(g, list) else out[0]

    def reach(self, X):
        """Largest t with g0 exp(s X) inside the chart for every s < t.

        exp(sX) has Cayley coordinates A = 2 tanh(sX/2), so the eigenvalues of
        A/2 are tanh(s mu/2) over the eigenvalues mu of X.  |tanh z| < 1 exactly
        when cos(2 Im z) > 0, so with ``CAYLEY_RADIUS`` 1 the first exit is at
        s |Im mu| / 2 = pi/4; real spectra never leave.
        """
        im = float(np.max(np.abs(np.linalg.eigvals(X).imag)))
        return math.pi / (2.0 * im) if im > 0.0 else math.inf


# benchmarks/tracing.py wraps the group chart's inversion under this name
GraphChart = CayleyChart
