"""Finite-dimensional real Lie algebras given by structure constants.

Conventions used throughout the package:

* an algebra element xi is its coordinate vector in the chosen basis,
  a covector alpha is its coordinate vector in the dual basis, and the
  pairing <alpha, xi> is the Euclidean dot product of coordinates;
* structure constants c[i, j, k] satisfy [e_i, e_j] = sum_k c[i, j, k] e_k;
* the coadjoint operator is pinned as <ad_star(xi, alpha), eta> =
  <alpha, [xi, eta]>, with no minus sign.  All downstream symplectic
  formulas use the same operator, so the choice is self-consistent and is
  locked by a dedicated sign test in the cotangent-bundle suite.

"Regular" always means: the isotropy (annihilator) dimension at the point
equals the generic minimum for the algebra, so it is locally constant there.
"""

from __future__ import annotations

import os

import numpy as np

from .numutil import nullspace, numerical_rank

STRUCTURE_TOL = 1e-12
_GENERIC_SAMPLES = 256
_GENERIC_SEED = 1234
_BOUNDARY_SAMPLES = 64    # directions probing a Casimir domain ball
_BOUNDARY_SEED = 99


class LieAlgebra:
    """A real Lie algebra described by its structure constants."""

    def __init__(self, name, structure_constants):
        c = np.asarray(structure_constants, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError("structure constants must be an (n, n, n) array")
        if not np.isfinite(c).all():
            raise ValueError("structure constants must be finite")
        n = c.shape[0]
        anti = np.max(np.abs(c + np.transpose(c, (1, 0, 2)))) if n else 0.0
        if anti > STRUCTURE_TOL:
            raise ValueError(f"structure constants not antisymmetric (defect {anti:.3e})")
        jac = _jacobi_defect(c)
        if jac > STRUCTURE_TOL:
            raise ValueError(f"structure constants violate the Jacobi identity (defect {jac:.3e})")
        self.name = name
        self.c = c
        self.dim = n
        # row k holds the matrix M[j, i] = c[i, j, k] of ad_star against e^k
        self._ad_star_rows = np.transpose(c, (2, 1, 0)).reshape(n, n * n)
        self._killing = None
        self._generic_isotropy = None
        self._generic_centralizer = None
        self._bracket_scale = None

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"

    def bracket(self, x, y):
        return np.einsum("i,j,ijk->k", np.asarray(x, float), np.asarray(y, float), self.c)

    def ad_matrix(self, xi):
        """Matrix of eta -> [xi, eta]; a stack (k, dim) gives the (k, dim, dim) stack."""
        return np.einsum("...i,ijk->...kj", np.asarray(xi, float), self.c)

    def ad_star_matrix(self, alpha):
        """Matrix M with M @ xi = ad_star(xi, alpha); antisymmetric in coordinates.

        A stack of momenta (k, dim) gives the (k, dim, dim) stack.
        """
        alpha = np.asarray(alpha, float)
        return (alpha @ self._ad_star_rows).reshape(alpha.shape[:-1] + (self.dim, self.dim))

    def ad_star(self, xi, alpha):
        """Coadjoint operator, <ad_star(xi, alpha), eta> = <alpha, [xi, eta]>."""
        return self.ad_star_matrix(alpha) @ np.asarray(xi, float)

    def killing_form(self):
        """Matrix B[i, j] = trace(ad_i ad_j); cached."""
        if self._killing is None:
            ads = [self.ad_matrix(e) for e in np.eye(self.dim)]
            B = np.empty((self.dim, self.dim))
            for i in range(self.dim):
                for j in range(self.dim):
                    B[i, j] = np.trace(ads[i] @ ads[j])
            self._killing = B
        return self._killing

    # -- isotropy / regularity on the dual ---------------------------------

    def bracket_scale(self):
        """Frobenius norm of the structure tensor; the natural ad/ad* scale."""
        if self._bracket_scale is None:
            self._bracket_scale = float(np.linalg.norm(self.c))
        return self._bracket_scale

    def isotropy_basis(self, alpha):
        """Orthonormal basis of {xi : ad_star(xi, alpha) = 0} as columns."""
        scale = self.bracket_scale() * float(np.linalg.norm(alpha))
        return nullspace(self.ad_star_matrix(alpha), scale=scale)

    def isotropy_dimension(self, alpha):
        """Isotropy dimension at alpha; a stack (k, dim) gives k dimensions."""
        # rank anchored to |alpha| row by row: ad_star_matrix is linear in
        # alpha, so a covector that sits on a singular stratum up to roundoff
        # must not rank against its own noise
        scale = self.bracket_scale() * np.linalg.norm(alpha, axis=-1)
        return self.dim - numerical_rank(self.ad_star_matrix(alpha), scale=scale)

    def generic_isotropy_dimension(self):
        """Minimal isotropy dimension over a fixed 256-point seeded sample; cached."""
        if self._generic_isotropy is None:
            rng = np.random.default_rng(_GENERIC_SEED)
            sample = rng.standard_normal((_GENERIC_SAMPLES, self.dim))
            self._generic_isotropy = int(self.isotropy_dimension(sample).min())
        return self._generic_isotropy

    def is_coadjoint_regular(self, alpha):
        return self.isotropy_dimension(alpha) == self.generic_isotropy_dimension()

    # -- centralizers / regularity on the algebra side ---------------------

    def centralizer_dimension(self, xi):
        """Centralizer dimension at xi; a stack (k, dim) gives k dimensions."""
        scale = self.bracket_scale() * np.linalg.norm(xi, axis=-1)
        return self.dim - numerical_rank(self.ad_matrix(xi), scale=scale)

    def generic_centralizer_dimension(self):
        if self._generic_centralizer is None:
            rng = np.random.default_rng(_GENERIC_SEED + 1)
            sample = rng.standard_normal((_GENERIC_SAMPLES, self.dim))
            self._generic_centralizer = int(self.centralizer_dimension(sample).min())
        return self._generic_centralizer

    def is_adjoint_regular(self, xi):
        return self.centralizer_dimension(xi) == self.generic_centralizer_dimension()

    def center_basis(self):
        """Orthonormal basis (columns) of the center {xi : ad_xi = 0}."""
        # xi -> [xi, e_j] has matrix c[:, j, :].T; stack over j
        blocks = [self.c[:, j, :].T for j in range(self.dim)]
        return nullspace(np.vstack(blocks)) if blocks else np.eye(0)


def _jacobi_defect(c):
    if c.shape[0] == 0:
        return 0.0
    t1 = np.einsum("ijm,mkl->ijkl", c, c)
    t2 = np.einsum("jkm,mil->ijkl", c, c)
    t3 = np.einsum("kim,mjl->ijkl", c, c)
    return float(np.max(np.abs(t1 + t2 + t3)))


# -- catalogue ---------------------------------------------------------------


def _eps_constants():
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return c


def _sl2_constants():
    # basis: h = diag(1,-1), s = [[0,1],[1,0]], a = [[0,1],[-1,0]]
    # [h,s] = 2a, [h,a] = 2s, [s,a] = -2h
    c = np.zeros((3, 3, 3))
    for (i, j), (k, v) in (((0, 1), (2, 2.0)), ((0, 2), (1, 2.0)), ((1, 2), (0, -2.0))):
        c[i, j, k] = v
        c[j, i, k] = -v
    return c


def _heis_constants():
    # [x, y] = z, all else zero
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return c


def make_algebra(key):
    """Catalogue algebras: "so3", "su2", "sl2r", "heis3", "rn:<k>"."""
    if key == "so3":
        return LieAlgebra("so3", _eps_constants())
    if key == "su2":
        return LieAlgebra("su2", _eps_constants())
    if key == "sl2r":
        return LieAlgebra("sl2r", _sl2_constants())
    if key == "heis3":
        return LieAlgebra("heis3", _heis_constants())
    if key.startswith("rn:"):
        try:
            k = int(key.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad abelian dimension in algebra key {key!r}")
        if not 1 <= k <= 12:
            raise ValueError(f"abelian dimension {k} out of range 1..12")
        return LieAlgebra(key, np.zeros((k, k, k)))
    raise KeyError(f"unknown algebra key {key!r}")


def algebra_from_file(path):
    """Load structure constants from a text file.

    Format: first non-comment line "dim n", then lines "i j k value" with
    0-based indices; unlisted entries are zero, and an entry listed twice is
    an error.  Antisymmetry and Jacobi are validated on construction.
    """
    dim = None
    entries = {}

    def number(kind, text, lineno):
        try:
            return kind(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: cannot read {text!r} as {kind.__name__}") from None

    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if dim is None:
                if len(parts) != 2 or parts[0] != "dim":
                    raise ValueError(f"{path}:{lineno}: expected header 'dim n'")
                dim = number(int, parts[1], lineno)
                if dim < 0:
                    raise ValueError(f"{path}:{lineno}: negative dimension {dim}")
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'i j k value'")
            ijk = tuple(number(int, p, lineno) for p in parts[:3])
            if not all(0 <= idx < dim for idx in ijk):
                raise ValueError(f"{path}:{lineno}: index out of range for dim {dim}")
            if ijk in entries:
                raise ValueError(f"{path}:{lineno}: repeated entry {ijk}")
            entries[ijk] = number(float, parts[3], lineno)
    if dim is None:
        raise ValueError(f"{path}: missing 'dim n' header")
    c = np.zeros((dim, dim, dim))
    for ijk, v in entries.items():
        c[ijk] = v
    return LieAlgebra(os.path.basename(path), c)


# -- Casimir one-forms -------------------------------------------------------


class CasimirForm:
    """A map alpha -> xi(alpha) with ad_star(xi(alpha), alpha) = 0 on its domain.

    Used to build vertical Hamiltonian fields whose flows are one-parameter
    subgroup motions.  domain_radius = inf means globally defined.
    """

    def __init__(self, algebra, evaluator, domain_center=None, domain_radius=np.inf, name=""):
        self.algebra = algebra
        self._evaluator = evaluator
        self.domain_center = (
            np.zeros(algebra.dim) if domain_center is None else np.asarray(domain_center, float)
        )
        self.domain_radius = float(domain_radius)
        self.name = name

    def contains(self, alpha):
        return np.linalg.norm(np.asarray(alpha, float) - self.domain_center) <= self.domain_radius

    def __call__(self, alpha):
        if not self.contains(alpha):
            raise ValueError(
                f"covector outside the domain of Casimir form {self.name!r} "
                f"(radius {self.domain_radius:.3g} about its center)"
            )
        return self._evaluator(np.asarray(alpha, float))


def casimir_check(algebra, phi, alphas):
    """Max norm of ad_star(phi(alpha), alpha) over the samples; raises off-domain."""
    worst = 0.0
    for alpha in alphas:
        if isinstance(phi, CasimirForm) and not phi.contains(alpha):
            raise ValueError("sample outside the Casimir form's domain")
        xi = phi(alpha)
        worst = max(worst, float(np.linalg.norm(algebra.ad_star(xi, alpha))))
    return worst


def killing_casimir(algebra):
    """Casimir form alpha -> B^{-1} alpha for a semisimple algebra.

    The inverse Killing metric intertwines the adjoint and coadjoint
    representations, so ad_star(B^{-1} alpha, alpha) = 0 identically and the
    form is global.  Raises if the Killing form is singular.
    """
    B = algebra.killing_form()
    if numerical_rank(B) < algebra.dim:
        raise ValueError(f"Killing form of {algebra.name} is degenerate; no inverse form")
    Binv = np.linalg.inv(B)
    form = CasimirForm(algebra, lambda a: Binv @ a, name=f"{algebra.name}:killing-sharp")
    form.energy = lambda a: 0.5 * float(np.asarray(a, float) @ (Binv @ np.asarray(a, float)))
    return form


def central_casimir(algebra):
    """Casimir form projecting alpha onto the center of the algebra (global)."""
    Z = algebra.center_basis()
    if Z.shape[1] == 0:
        raise ValueError(f"{algebra.name} has trivial center; no central form")
    return CasimirForm(algebra, lambda a: Z @ (Z.T @ a), name=f"{algebra.name}:central")


def casimir_through_point(algebra, xi, alpha0):
    """Casimir form with phi(alpha0) = xi, built from the isotropy projector.

    Requires xi to annihilate alpha0 (xi in the isotropy subalgebra) and
    alpha0 regular.  phi(alpha) orthogonally projects xi onto the isotropy
    subalgebra at alpha; the domain ball is shrunk until the isotropy
    dimension is constant across 64 seeded boundary samples, which keeps the
    projector smooth on the ball.
    """
    xi = np.asarray(xi, float)
    alpha0 = np.asarray(alpha0, float)
    if np.linalg.norm(algebra.ad_star(xi, alpha0)) > 1e-10 * max(1.0, np.linalg.norm(alpha0)):
        raise ValueError("xi does not annihilate alpha0; no Casimir form through this pair")
    if not algebra.is_coadjoint_regular(alpha0):
        raise ValueError("alpha0 is not a regular covector")
    k = algebra.isotropy_dimension(alpha0)

    rng = np.random.default_rng(_BOUNDARY_SEED)
    dirs = rng.standard_normal((_BOUNDARY_SAMPLES, algebra.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radius = 0.5 * (1.0 + np.linalg.norm(alpha0))
    for _ in range(40):
        if np.all(algebra.isotropy_dimension(alpha0 + radius * dirs) == k):
            break
        radius *= 0.5
    else:
        raise ValueError("could not find a ball of constant isotropy dimension about alpha0")

    def evaluator(alpha):
        Q = algebra.isotropy_basis(alpha)
        return Q @ (Q.T @ xi)

    return CasimirForm(
        algebra, evaluator, domain_center=alpha0, domain_radius=radius,
        name=f"{algebra.name}:through-point",
    )
