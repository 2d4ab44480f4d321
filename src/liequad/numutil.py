"""Small shared numerical helpers: finite differences, rank tools and ball samples.

Everything here is deterministic.  Rank decisions use a relative singular
value cutoff so that scale changes in the input do not flip decisions.
"""

from __future__ import annotations

import numpy as np

# Singular values <= RANK_RTOL * sigma_max count as zero everywhere in the package.
RANK_RTOL = 1e-8


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
