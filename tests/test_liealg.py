import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liequad.liealg import (
    _BOUNDARY_SAMPLES,
    _BOUNDARY_SEED,
    _GENERIC_SAMPLES,
    _GENERIC_SEED,
    CasimirForm,
    LieAlgebra,
    algebra_from_file,
    casimir_check,
    casimir_through_point,
    central_casimir,
    killing_casimir,
    make_algebra,
)
from liequad.numutil import ball_sample

ALL_KEYS = ["so3", "su2", "sl2r", "heis3", "rn:3"]


def test_catalogue_constructs():
    for key in ALL_KEYS:
        a = make_algebra(key)
        assert a.dim == 3
    assert make_algebra("rn:5").dim == 5
    with pytest.raises(KeyError):
        make_algebra("e8")
    with pytest.raises(ValueError):
        make_algebra("rn:0")


def test_so3_bracket_is_cross_product():
    a = make_algebra("so3")
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.standard_normal((2, 3))
        assert np.allclose(a.bracket(x, y), np.cross(x, y), atol=1e-14)


def test_sl2r_brackets():
    a = make_algebra("sl2r")
    h, s, w = np.eye(3)
    assert np.allclose(a.bracket(h, s), 2 * w)
    assert np.allclose(a.bracket(h, w), 2 * s)
    assert np.allclose(a.bracket(s, w), -2 * h)


def test_heis3_bracket_and_center():
    a = make_algebra("heis3")
    x, y, z = np.eye(3)
    assert np.allclose(a.bracket(x, y), z)
    assert np.allclose(a.bracket(x, z), 0)
    Z = a.center_basis()
    assert Z.shape == (3, 1)
    assert np.allclose(np.abs(Z[:, 0]), [0, 0, 1])


def test_structure_validation_rejects_bad_input():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # missing the antisymmetric partner
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlgebra("bad", c)
    # antisymmetric but violates Jacobi: [e0,e1]=e2, [e0,e2]=e0
    c = np.zeros((3, 3, 3))
    for (i, j, k), v in {(0, 1, 2): 1.0, (0, 2, 0): 1.0}.items():
        c[i, j, k] = v
        c[j, i, k] = -v
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebra("bad", c)


def test_jacobi_defect_small_for_catalogue():
    # Jacobi residual <= 1e-12 is enforced at construction; recheck directly.
    from liequad.liealg import _jacobi_defect

    for key in ALL_KEYS:
        assert _jacobi_defect(make_algebra(key).c) <= 1e-12


def test_ad_star_pairing_identity():
    rng = np.random.default_rng(1)
    for key in ALL_KEYS:
        a = make_algebra(key)
        for _ in range(50):
            xi, eta = rng.standard_normal((2, a.dim))
            alpha = rng.standard_normal(a.dim)
            lhs = a.ad_star(xi, alpha) @ eta
            rhs = alpha @ a.bracket(xi, eta)
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


def test_ad_star_matrix_antisymmetric():
    rng = np.random.default_rng(2)
    for key in ALL_KEYS:
        a = make_algebra(key)
        for _ in range(10):
            M = a.ad_star_matrix(rng.standard_normal(a.dim))
            assert np.max(np.abs(M + M.T)) <= 1e-14


def test_killing_forms():
    assert np.allclose(make_algebra("so3").killing_form(), -2 * np.eye(3), atol=1e-14)
    assert np.allclose(make_algebra("su2").killing_form(), -2 * np.eye(3), atol=1e-14)
    assert np.allclose(make_algebra("sl2r").killing_form(), np.diag([8.0, 8.0, -8.0]), atol=1e-13)
    assert np.allclose(make_algebra("heis3").killing_form(), 0.0, atol=1e-14)


def test_killing_ad_invariance():
    # B([x,y], z) + B(y, [x,z]) = 0
    rng = np.random.default_rng(3)
    for key in ALL_KEYS:
        a = make_algebra(key)
        B = a.killing_form()
        for _ in range(30):
            x, y, z = rng.standard_normal((3, a.dim))
            r = a.bracket(x, y) @ B @ z + y @ B @ a.bracket(x, z)
            assert abs(r) <= 1e-12 * max(1.0, np.max(np.abs(B)))


def test_isotropy_dimensions():
    a = make_algebra("so3")
    assert a.isotropy_dimension(np.array([0.0, 0.0, 1.0])) == 1
    assert a.isotropy_dimension(np.zeros(3)) == 3
    assert a.generic_isotropy_dimension() == 1

    h = make_algebra("heis3")
    assert h.isotropy_dimension(np.array([0.5, -0.2, 0.0])) == 3
    assert h.isotropy_dimension(np.array([0.5, -0.2, 0.3])) == 1
    assert h.generic_isotropy_dimension() == 1

    r = make_algebra("rn:3")
    assert r.generic_isotropy_dimension() == 3
    assert r.is_coadjoint_regular(np.zeros(3))


def test_heis3_isotropy_stratification():
    # dim 3 exactly on the plane alpha_3 = 0, dim 1 off it
    h = make_algebra("heis3")
    rng = np.random.default_rng(4)
    for _ in range(200):
        alpha = rng.uniform(-1, 1, 3)
        expected = 3 if alpha[2] == 0.0 else 1
        assert h.isotropy_dimension(alpha) == expected
    for _ in range(50):
        alpha = np.array([*rng.uniform(-1, 1, 2), 0.0])
        assert h.isotropy_dimension(alpha) == 3
        assert not h.is_coadjoint_regular(alpha)


def test_regular_set_is_dense():
    rng = np.random.default_rng(5)
    for key in ALL_KEYS:
        a = make_algebra(key)
        pts = rng.uniform(-1, 1, (10_000, a.dim))
        frac = np.mean(a.isotropy_dimension(pts) == a.generic_isotropy_dimension())
        assert frac >= 0.999, (key, frac)


def test_isotropy_basis_annihilates():
    rng = np.random.default_rng(6)
    for key in ALL_KEYS:
        a = make_algebra(key)
        for _ in range(20):
            alpha = rng.standard_normal(a.dim)
            Q = a.isotropy_basis(alpha)
            for col in Q.T:
                assert np.linalg.norm(a.ad_star(col, alpha)) <= 1e-10


def test_killing_casimir():
    for key in ("so3", "su2", "sl2r"):
        a = make_algebra(key)
        phi = killing_casimir(a)
        rng = np.random.default_rng(7)
        alphas = rng.standard_normal((100, a.dim))
        assert casimir_check(a, phi, alphas) <= 1e-12
        # so3: B = -2I so the form is alpha -> -alpha/2
        if key == "so3":
            assert np.allclose(phi(np.array([1.0, 2.0, 3.0])), [-0.5, -1.0, -1.5])
    with pytest.raises(ValueError, match="degenerate"):
        killing_casimir(make_algebra("heis3"))


def test_killing_flat_regularity_correspondence():
    # B-flat maps adjoint-regular elements to coadjoint-regular covectors
    rng = np.random.default_rng(8)
    for key in ("so3", "sl2r"):
        a = make_algebra(key)
        B = a.killing_form()
        count = 0
        while count < 100:
            xi = rng.standard_normal(a.dim)
            if not a.is_adjoint_regular(xi):
                continue
            count += 1
            assert a.is_coadjoint_regular(B @ xi)


def test_central_casimir():
    h = make_algebra("heis3")
    phi = central_casimir(h)
    alpha = np.array([0.4, -0.7, 2.0])
    assert np.allclose(phi(alpha), [0.0, 0.0, 2.0])
    rng = np.random.default_rng(9)
    assert casimir_check(h, phi, rng.standard_normal((50, 3))) == 0.0
    with pytest.raises(ValueError, match="center"):
        central_casimir(make_algebra("so3"))


def test_casimir_through_point_so3():
    a = make_algebra("so3")
    xi = np.array([0.0, 0.0, 2.0])
    alpha0 = np.array([0.0, 0.0, 1.5])
    phi = casimir_through_point(a, xi, alpha0)
    assert np.allclose(phi(alpha0), xi, atol=1e-12)
    rng = np.random.default_rng(10)
    inside = alpha0 + phi.domain_radius * 0.9 * ball_sample(rng, 40, 3)
    assert casimir_check(a, phi, inside) <= 1e-10
    # phi(alpha) is the projection of xi onto the ray through alpha
    alpha = alpha0 + np.array([0.1, -0.05, 0.2])
    ahat = alpha / np.linalg.norm(alpha)
    assert np.allclose(phi(alpha), (xi @ ahat) * ahat, atol=1e-12)


def test_casimir_through_point_rejections():
    a = make_algebra("so3")
    with pytest.raises(ValueError, match="annihilate"):
        casimir_through_point(a, np.array([1.0, 0, 0]), np.array([0.0, 0, 1.0]))
    with pytest.raises(ValueError, match="regular"):
        casimir_through_point(a, np.array([0.0, 0, 1.0]), np.zeros(3))


def test_casimir_domain_enforced():
    a = make_algebra("so3")
    phi = casimir_through_point(a, np.array([0.0, 0, 1.0]), np.array([0.0, 0, 1.0]))
    outside = np.array([0.0, 0.0, 1.0 + 2.1 * phi.domain_radius])
    with pytest.raises(ValueError, match="domain"):
        phi(outside)
    with pytest.raises(ValueError, match="domain"):
        casimir_check(a, phi, [outside])


def test_algebra_from_file(tmp_path):
    p = tmp_path / "heis.txt"
    p.write_text("# heisenberg\ndim 3\n0 1 2 1.0\n1 0 2 -1.0\n")
    a = algebra_from_file(p)
    assert a.dim == 3
    assert np.allclose(a.c, make_algebra("heis3").c)

    bad = tmp_path / "bad.txt"
    bad.write_text("dim 3\n0 1 2 1.0\n")  # not antisymmetric
    with pytest.raises(ValueError, match="antisymmetric"):
        algebra_from_file(bad)

    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("0 1 2 1.0\n")
    with pytest.raises(ValueError, match="dim"):
        algebra_from_file(bad2)

    # a repeated entry is refused at its line, not overwritten by the last value
    twice = tmp_path / "twice.txt"
    twice.write_text("dim 3\n0 1 2 1.0\n1 0 2 -1.0\n0 1 2 5.0\n1 0 2 -5.0\n")
    with pytest.raises(ValueError, match=r"twice\.txt:4: repeated entry \(0, 1, 2\)"):
        algebra_from_file(twice)

    # a field that is not a number names its file and line
    word = tmp_path / "word.txt"
    word.write_text("dim 3\n0 1 2 abc\n")
    with pytest.raises(ValueError, match=r"word\.txt:2: cannot read 'abc' as float"):
        algebra_from_file(word)
    word.write_text("dim three\n")
    with pytest.raises(ValueError, match=r"word\.txt:1: cannot read 'three' as int"):
        algebra_from_file(word)

    # non-finite constants pass no comparison with a tolerance, so they are
    # refused as such, and a negative dimension names its line
    for v, w in (("nan", "nan"), ("inf", "-inf")):
        word.write_text(f"dim 2\n0 1 0 {v}\n1 0 0 {w}\n")
        with pytest.raises(ValueError, match="must be finite"):
            algebra_from_file(word)
    word.write_text("dim -2\n")
    with pytest.raises(ValueError, match=r"word\.txt:1: negative dimension -2"):
        algebra_from_file(word)


def test_casimir_form_energy():
    a = make_algebra("so3")
    phi = killing_casimir(a)
    alpha = np.array([1.0, -2.0, 0.5])
    # energy is the quadratic form of the inverse Killing metric
    assert np.isclose(phi.energy(alpha), 0.5 * alpha @ np.linalg.solve(a.killing_form(), alpha))


def bianchi_constants(n, a):
    """[e_i, e_j] = eps_ijl n_l e_l + a_i e_j - a_j e_i with a = (a, 0, 0)."""
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    av = np.array([a, 0.0, 0.0])
    return (
        np.einsum("ijl,l->ijl", eps, np.asarray(n, float))
        + np.einsum("i,jk->ijk", av, np.eye(3))
        - np.einsum("j,ik->ijk", av, np.eye(3))
    )


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n=st.tuples(*[st.sampled_from([-1.0, 0.0, 1.0])] * 3),
    class_b=st.booleans(),
    a=st.floats(0.2, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_bianchi_algebras_orbits_and_casimirs(n, class_b, a, seed):
    # class A has a = 0; class B has a != 0, and the Jacobi identity then
    # needs n_1 a = 0
    n = (0.0, n[1], n[2]) if class_b else n
    alg = LieAlgebra("bianchi", bianchi_constants(n, a if class_b else 0.0))
    rng = np.random.default_rng(seed)
    for alpha in rng.standard_normal((8, 3)):
        # coadjoint orbits are even-dimensional
        assert (alg.dim - alg.isotropy_dimension(alpha)) % 2 == 0
    alpha0 = rng.standard_normal(3)
    assume(alg.is_coadjoint_regular(alpha0))
    Q = alg.isotropy_basis(alpha0)
    xi = Q @ rng.standard_normal(Q.shape[1])
    phi = casimir_through_point(alg, xi, alpha0)
    inside = alpha0 + phi.domain_radius * 0.9 * ball_sample(rng, 20, 3)
    assert casimir_check(alg, phi, inside) <= 1e-10


# the roundoff rows of tests/test_expquad.py: heis3's singular plane, on it
# up to roundoff, and just off it
ROUNDOFF_ROWS = np.array([[0.3, -0.8, 0.0], [0.3, -0.8, 1e-17], [0.3, -0.8, 1e-6]])
CATALOGUE_KEYS = [*ALL_KEYS, "rn:1", "rn:5"]
STACK_KEYS = [*CATALOGUE_KEYS, "dim0"]


def _catalogue_or_dim0(key):
    return LieAlgebra("dim0", np.zeros((0, 0, 0))) if key == "dim0" else make_algebra(key)


def _mixed_stack(rng, kinds, dim):
    rows = []
    for kind in kinds:
        if kind == "roundoff":
            row = np.zeros(dim)
            row[: min(dim, 3)] = ROUNDOFF_ROWS[rng.integers(3), :dim]
        else:
            scale = {"random": 1.0, "zero": 0.0, "tiny": 1e-8, "big": 1e3}[kind]
            row = scale * rng.standard_normal(dim)
        rows.append(row)
    return np.array(rows).reshape(len(kinds), dim)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    key=st.sampled_from(STACK_KEYS),
    kinds=st.lists(st.sampled_from(["random", "zero", "tiny", "big", "roundoff"]), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_dimensions_equal_the_rows(key, kinds, seed):
    # each row of a stack ranks against its own |row|, exactly as alone
    alg = _catalogue_or_dim0(key)
    stack = _mixed_stack(np.random.default_rng(seed), kinds, alg.dim)
    iso = alg.isotropy_dimension(stack)
    cen = alg.centralizer_dimension(stack)
    assert iso.shape == cen.shape == (len(kinds),)
    assert iso.tolist() == [alg.isotropy_dimension(row) for row in stack]
    assert cen.tolist() == [alg.centralizer_dimension(row) for row in stack]


@pytest.mark.parametrize("key", STACK_KEYS)
def test_generic_dimensions_equal_the_looped_minimum(key):
    alg = _catalogue_or_dim0(key)
    iso_sample = np.random.default_rng(_GENERIC_SEED).standard_normal((_GENERIC_SAMPLES, alg.dim))
    cen_sample = np.random.default_rng(_GENERIC_SEED + 1).standard_normal((_GENERIC_SAMPLES, alg.dim))
    assert alg.generic_isotropy_dimension() == min(alg.isotropy_dimension(a) for a in iso_sample)
    assert alg.generic_centralizer_dimension() == min(alg.centralizer_dimension(x) for x in cen_sample)


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices handed to np.linalg.svd, one per call."""
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


@pytest.mark.parametrize("key", CATALOGUE_KEYS)
def test_generic_dimensions_take_one_svd_each(key, svd_shapes):
    alg = make_algebra(key)
    alg.generic_isotropy_dimension()
    alg.generic_centralizer_dimension()
    assert svd_shapes == [(_GENERIC_SAMPLES, alg.dim, alg.dim)] * 2


def test_casimir_ball_takes_one_svd_per_radius(svd_shapes):
    # alpha0 = -d for the first boundary direction d: the first ball, of
    # radius 0.5 (1 + |alpha0|) = 1, has the origin on its boundary, so the
    # probe shrinks once
    a = make_algebra("so3")
    a.generic_isotropy_dimension()
    d = np.random.default_rng(_BOUNDARY_SEED).standard_normal((_BOUNDARY_SAMPLES, 3))[0]
    alpha0 = -d / np.linalg.norm(d)
    svd_shapes.clear()
    phi = casimir_through_point(a, alpha0, alpha0)
    assert phi.domain_radius == 0.5
    # regularity of alpha0 and its dimension, then one stack per radius
    assert svd_shapes == [(3, 3)] * 2 + [(_BOUNDARY_SAMPLES, 3, 3)] * 2
