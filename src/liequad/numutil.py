"""Small shared numerical helpers: finite differences, rank tools, ball samples and Chebyshev panels.

Everything here is deterministic.  Rank decisions use a relative singular
value cutoff so that scale changes in the input do not flip decisions.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev

# Singular values <= RANK_RTOL * sigma_max count as zero everywhere in the package.
RANK_RTOL = 1e-8
QUAD_TOL = 1e-12        # relative bound on a panel's Chebyshev tail, of a fiber quadrature or a
                        # time panel, and on a time panel's fiber residual
CHEB_DEGREE = 16        # degree of every panel, a fiber-solve time panel too: a flow is analytic inside
                        # its chart, and 17 points resolve a whole so3 Killing-flow window to QUAD_TOL
PANEL_HALVINGS = 8      # halvings of one panel walk, a flow side or a fiber quadrature: a walk into
                        # the chart boundary gives up on panels 256x shorter than its span

# Chebyshev-Lobatto points on [-1, 1], ascending, and the matrices that take values there to
# Chebyshev coefficients, to derivative values and to integrals from -1, with the points'
# barycentric weights (Trefethen, Approximation Theory and Approximation Practice, 2013, chs. 2-5)
_CHEB_X = np.sin(0.5 * np.pi * np.arange(-CHEB_DEGREE, CHEB_DEGREE + 1, 2) / CHEB_DEGREE)
_CHEB_COEFFS = np.linalg.inv(chebyshev.chebvander(_CHEB_X, CHEB_DEGREE))
_CHEB_DIFF = chebyshev.chebvander(_CHEB_X, CHEB_DEGREE - 1) @ chebyshev.chebder(_CHEB_COEFFS)
_CHEB_INT = chebyshev.chebvander(_CHEB_X, CHEB_DEGREE + 1) @ chebyshev.chebint(_CHEB_COEFFS, lbnd=-1)
_CHEB_BARY = (-1.0) ** np.arange(CHEB_DEGREE + 1) * np.r_[0.5, np.ones(CHEB_DEGREE - 1), 0.5]


def numerical_rank(mat, scale=0.0):
    """Rank via SVD with relative cutoff; rank 0 for an (effectively) zero matrix.

    ``scale`` raises the reference the cutoff is relative to; pass the natural
    magnitude of the matrix's inputs so that a matrix that is tiny only
    because of roundoff in those inputs does not rank against its own noise.
    A stack (k, m, n) with one scale per row gives k ranks from one SVD.
    """
    if mat.size == 0:
        return 0 if mat.ndim == 2 else np.zeros(mat.shape[:-2], dtype=int)
    s = np.linalg.svd(mat, compute_uv=False)
    # an all-zero row has ref 0 and no singular value above it: rank 0
    ref = np.maximum(s[..., 0], scale)
    rank = (s > RANK_RTOL * ref[..., None]).sum(-1)
    return int(rank) if mat.ndim == 2 else rank


def nullspace(mat, rtol=RANK_RTOL, scale=0.0):
    """Orthonormal basis (columns) of the kernel of ``mat``."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    u, s, vt = np.linalg.svd(mat)
    smax = s[0] if s.size else 0.0
    ref = max(smax, scale)
    rank = int(np.sum(s > rtol * ref)) if ref > 0 else 0
    return vt[rank:].T.copy()


def central_jacobian(f, x, step=1e-6, richardson=False):
    """Central-difference Jacobian of f at x, columns along the axis of x.

    A scalar f gives its gradient.  ``richardson`` adds one extrapolation
    level from a second stencil at half the step.
    """
    x = np.asarray(x, dtype=float)

    def cd(h):
        cols = []
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = h
            cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h))
        return np.stack(cols, axis=-1)

    coarse = cd(step)
    if not richardson:
        return coarse
    return (4.0 * cd(step / 2.0) - coarse) / 3.0


def ball_sample(rng, m, n):
    """m points drawn from ``rng`` uniformly in the unit ball of R^n, as rows."""
    v = rng.standard_normal((m, n))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * rng.uniform(0.0, 1.0, (m, 1)) ** (1.0 / n)


def _walk(end, panel, most=PANEL_HALVINGS):
    """The panels (a, b, result) that ``panel(a, b)`` accepts, from 0 outward to ``end``.

    The first panel is the whole span, and each later one as wide as the
    last accepted one, or what is left; ``panel`` refuses one by returning
    None, and a refused panel is halved, at most ``most`` times, after which
    the next refusal stops the walk where it got.
    """
    a, width, halvings = 0.0, end, 0
    while a != end:
        b = end if abs(end - a) <= abs(width) else a + width
        result = panel(a, b)
        if result is not None:
            yield a, b, result
            a = b
        elif halvings == most:
            return
        else:
            halvings, width = halvings + 1, 0.5 * width


def _resolved(values):
    """Whether the values (17, ...) at the Chebyshev-Lobatto points are finite and resolved.

    Resolved: their interpolant's last two Chebyshev coefficients are within
    ``QUAD_TOL`` of its largest, at least 1, all over the trailing axes.
    """
    coeffs = np.abs(_CHEB_COEFFS @ np.reshape(values, (len(values), -1))).max(axis=1)
    return bool(np.isfinite(coeffs).all() and coeffs[-2:].max() <= QUAD_TOL * max(1.0, coeffs.max()))
