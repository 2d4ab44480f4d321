"""Lie-group exponential curves computed by quadratures.

The quadrature route never touches a matrix exponential: the curve is read
off the complete-solution chart of the vertical Hamiltonian field of a
Casimir form on T*G, where the linearizing coordinates evolve affinely in
time.  ``matrix_exp_oracle`` is an independent reference for the tests; in
the package only the vertical reconstruction's fallback, the scenario
checks and the invariance check of ``build_mixed_field``
(``cotangent._validate_invariance``) call it.

Times past the chart of the base point are reached through the group law
g(t) = g(t/2)^2 applied recursively: the identity is exact for the true
curve, so the only cost is a tracked amplification of the numerical error,
and the chart itself is never re-centered.  The number of doublings is
decided before anything is integrated: the reduced grid must fit in the
``chart_window`` of the base point, the share ``REACH_MARGIN`` of the
closed-form reach of its Cayley chart along the curve, and a grid that
needs more than ``SQUARING_LIMIT`` doublings raises ChartDomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cotangent import CotangentBundle, build_casimir_field
from .hjsolver import chart_window, integrate_by_quadratures, output_times
from .liealg import casimir_through_point, killing_casimir, make_algebra
from .liegroup import ChartDomainError
from .numutil import nullspace

SQUARING_LIMIT = 8        # max dyadic halvings of the grid before giving up
SEARCH_CANDIDATES = 1024  # covector candidates in the annihilator search
SEARCH_SEED = 515
PROOF_MAJORITY = 0.9      # fraction of samples that must sit in the generic stratum
CASIMIR_POINT_TOL = 1e-10
SCAN_CANDIDATES = 128     # covector candidates per direction of the Heisenberg scan


class NoAdmissibleCovectorError(ValueError):
    """No regular covector annihilates the given direction's bracket image.

    ``proven_empty`` distinguishes a certified empty intersection (every
    sampled point of the annihilator subspace lies in a stratum of
    above-generic isotropy, and the stratum is attained by a decisive
    majority, so the subspace misses the regular set entirely) from plain
    search exhaustion.
    """

    def __init__(self, message, proven_empty):
        super().__init__(message)
        self.proven_empty = proven_empty


@dataclass
class ExponentialCurve:
    """Group curve sampled on a time grid, with continuation diagnostics."""

    ts: np.ndarray
    elements: list
    diagnostics: dict = field(default_factory=dict)

    def matrices(self):
        return [e.matrix for e in self.elements]


def exp_by_quadratures(group, phi, alpha, t_grid):
    """Curve t -> exp(t phi(alpha)) from the chart of the fiber over alpha.

    Integrates the vertical field of the Casimir form phi on T*G from the
    phase point (identity, alpha) and returns the group components.  alpha
    must be coadjoint-regular and inside phi's domain.  A grid that leaves
    the base chart's ``chart_window`` is computed on the grid halved as
    often as it takes to fit, and extended by repeated squaring; more than
    ``SQUARING_LIMIT`` halvings raise ChartDomainError up front, and a
    failure on the halved grid raises it with ``t_achieved`` on the given
    grid.  The number of doublings and the worst membership defect of the
    squared matrices are reported in the diagnostics.  A non-finite time
    raises ValueError.
    """
    ts = output_times(t_grid)
    alg = group.algebra
    alpha = np.asarray(alpha, float)
    if not alg.is_coadjoint_regular(alpha):
        raise ValueError(f"{alg.name}: covector is not coadjoint-regular")
    if not phi.contains(alpha):
        raise ValueError(f"{alg.name}: covector outside the Casimir form's domain")
    defect = np.linalg.norm(alg.ad_star(phi(alpha), alpha))
    if defect > CASIMIR_POINT_TOL * max(1.0, np.linalg.norm(alpha)):
        raise ValueError(f"form is not Casimir at the base covector (defect {defect:.3e})")

    bundle = CotangentBundle(group)
    fld = build_casimir_field(bundle, phi)
    p0 = bundle.point(group.identity(), alpha)

    span = float(np.max(np.abs(ts))) if len(ts) else 0.0
    window = chart_window(bundle, fld, p0)
    doublings = 0 if span <= window else math.ceil(math.log2(span / window))
    if doublings > SQUARING_LIMIT:
        raise ChartDomainError(
            f"exponential continuation failed past t={window * 2.0**SQUARING_LIMIT:g}: "
            f"the grid needs {doublings} doublings, more than {SQUARING_LIMIT}"
        )
    try:
        traj = integrate_by_quadratures(bundle, fld, p0, ts / 2.0**doublings)
    except ChartDomainError as err:
        if not doublings:
            raise
        raise ChartDomainError(
            f"{err}; that grid is the given one halved {doublings} times, {2**doublings}x shorter",
            t_achieved=err.t_achieved * 2.0**doublings,
        ) from err

    mats = np.array([p.g.matrix for p in traj.points]).reshape(-1, group.N, group.N)
    for _ in range(doublings):
        mats = mats @ mats
    membership = group.membership_residuals(mats)
    elements = group.elements(mats, membership)
    drift = float(membership.max()) if doublings else 0.0
    return ExponentialCurve(
        ts,
        elements,
        {
            "doublings": doublings,
            "squaring_factor": 2**doublings,
            "squaring_membership_max": drift,
            "audit_max": traj.diagnostics["audit_max"],
            "rate_drift_max": traj.diagnostics["rate_drift_max"],
        },
    )


def exp_semisimple(group, xi, t_grid):
    """Exponential curve via the inverse Killing metric's Casimir form.

    Lowers xi to alpha with the Killing form and exponentiates with the form
    alpha -> B^{-1} alpha, which maps alpha back to xi at the base point.
    Requires a non-degenerate Killing form and an adjoint-regular xi, checked
    through the lowered covector's coadjoint regularity.
    """
    alg = group.algebra
    xi = np.asarray(xi, float)
    phi = killing_casimir(alg)  # raises on a degenerate Killing form
    alpha = alg.killing_form() @ xi
    if not alg.is_coadjoint_regular(alpha):
        raise ValueError(f"{alg.name}: direction is not adjoint-regular")
    return exp_by_quadratures(group, phi, alpha, t_grid)


def _annihilator_search(algebra, xi, n_candidates=SEARCH_CANDIDATES, seed=SEARCH_SEED):
    """Seeded search for a regular covector annihilating ad_xi's image.

    Returns (alpha0 or None, proven_empty, stats).  Candidates are drawn from
    the annihilator subspace of the image of ad_xi; if none is regular, the
    isotropy dimensions of the sample decide whether the subspace provably
    misses the regular set (the minimal sampled dimension is the subspace's
    generic one when a decisive majority attains it).
    """
    xi = np.asarray(xi, float)
    ann = nullspace(algebra.ad_matrix(xi).T)
    if ann.shape[1] == 0:
        return None, True, {"annihilator_dim": 0}
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((n_candidates, ann.shape[1]))
    generic = algebra.generic_isotropy_dimension()
    dims = np.empty(n_candidates, dtype=int)
    for i, c in enumerate(coeffs):
        alpha0 = ann @ c
        dims[i] = algebra.isotropy_dimension(alpha0)
        if dims[i] == generic:
            stats = {
                "annihilator_dim": ann.shape[1],
                "candidates_tried": i + 1,
            }
            return alpha0, False, stats
    d_min = int(dims.min())
    majority = float(np.mean(dims == d_min))
    stats = {
        "annihilator_dim": ann.shape[1],
        "candidates_tried": n_candidates,
        "min_isotropy_dim": d_min,
        "generic_isotropy_dim": generic,
        "majority_fraction": majority,
    }
    return None, majority >= PROOF_MAJORITY, stats


def exp_general(group, xi, t_grid):
    """Exponential curve via a Casimir form built around a searched covector.

    Searches the annihilator of ad_xi's image for a coadjoint-regular alpha0
    (``SEARCH_CANDIDATES`` candidates drawn with ``SEARCH_SEED``, so failures
    reproduce), builds the Casimir form through (xi, alpha0), and
    exponentiates.  Raises NoAdmissibleCovectorError when no candidate
    qualifies, distinguishing a proven-empty intersection from search
    exhaustion.
    """
    alg = group.algebra
    xi = np.asarray(xi, float)
    alpha0, proven_empty, stats = _annihilator_search(alg, xi)
    if alpha0 is None:
        if proven_empty:
            raise NoAdmissibleCovectorError(
                f"{alg.name}: no admissible covector; the annihilator of the "
                f"bracket image contains no regular points (proven empty: "
                f"sampled isotropy dimension {stats.get('min_isotropy_dim')} "
                f"> generic {stats.get('generic_isotropy_dim')})",
                proven_empty=True,
            )
        raise NoAdmissibleCovectorError(
            f"{alg.name}: no admissible covector found in "
            f"{stats['candidates_tried']} candidates (search exhausted, "
            "emptiness not established)",
            proven_empty=False,
        )
    phi = casimir_through_point(alg, xi, alpha0)
    curve = exp_by_quadratures(group, phi, alpha0, t_grid)
    curve.diagnostics["alpha0"] = alpha0
    curve.diagnostics["search"] = stats
    return curve


def regular_scan(algebra, n_samples=10000, seed=1234):
    """Sampled audit of the coadjoint-regular set of an algebra.

    Reports the fraction of regular covectors, the generic isotropy
    dimension, and the count of samples per isotropy-dimension stratum.
    """
    if n_samples < 1:
        raise ValueError(f"regular_scan needs at least one sample, got {n_samples}")
    rng = np.random.default_rng(seed)
    dims = algebra.isotropy_dimension(rng.standard_normal((n_samples, algebra.dim)))
    generic = algebra.generic_isotropy_dimension()
    strata, counts = np.unique(dims, return_counts=True)
    return {
        "schema": 1,
        "algebra": algebra.name,
        "n_samples": int(n_samples),
        "seed": int(seed),
        "generic_isotropy_dim": int(generic),
        "fraction_regular": float(np.mean(dims == generic)),
        "strata": {str(d): int(c) for d, c in zip(strata, counts)},
    }


def heisenberg_scan(n_xi_samples=64, seed=1234):
    """Classify Heisenberg directions by admissibility of the covector search.

    For each sampled direction xi the scan decides whether some regular
    covector annihilates the image of ad_xi, then compares the computed
    classification against two candidate closed-form boundaries: "admissible
    iff a1 = a2" and "admissible iff a1 = a2 = 0".  The report counts
    agreements for both, flags the reading that matches, and reports the
    boundary that reading gives (None when neither matches).  The sample mixes
    a deterministic corner grid (which contains the separating directions
    with a1 = a2 != 0) with seeded Gaussian draws.
    """
    alg = make_algebra("heis3")
    rng = np.random.default_rng(seed)
    corners = [
        np.array(v, float)
        for v in (
            (a, b, c)
            for a in (-1.0, 0.0, 1.0)
            for b in (-1.0, 0.0, 1.0)
            for c in (-1.0, 0.0, 1.0)
        )
        if any(v)
    ]
    samples = corners + list(rng.standard_normal((n_xi_samples, 3)))
    agree_pair = 0
    agree_origin = 0
    rows = []
    for xi in samples:
        alpha0, proven_empty, _stats = _annihilator_search(alg, xi, SCAN_CANDIDATES, seed)
        nonempty = alpha0 is not None
        if not nonempty and not proven_empty:
            raise RuntimeError("heisenberg scan: inconclusive sample")
        pred_pair = xi[0] == xi[1]
        pred_origin = xi[0] == 0.0 and xi[1] == 0.0
        agree_pair += pred_pair == nonempty
        agree_origin += pred_origin == nonempty
        rows.append(
            {
                "xi": [float(v) for v in xi],
                "admissible": bool(nonempty),
            }
        )
    n = len(samples)
    matching = (
        "a1 = a2 = 0" if agree_origin == n else ("a1 = a2" if agree_pair == n else "neither")
    )
    report = {
        "schema": 1,
        "algebra": "heis3",
        "n_samples": int(n),
        "seed": int(seed),
        "boundary_found": None if matching == "neither" else f"admissible iff {matching}",
        "readings": {
            "a1 = a2": {"agreements": int(agree_pair), "fraction": agree_pair / n},
            "a1 = a2 = 0": {"agreements": int(agree_origin), "fraction": agree_origin / n},
        },
        "matching_reading": matching,
        "samples": rows,
    }
    return report
