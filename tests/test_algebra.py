"""Tests for the symmetric-space algebra layer."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from spincal import algebra
from spincal.algebra import SpaceSpec, build_space


ALL_SU = [SpaceSpec.su(m, n) for m in range(1, 7) for n in range(1, m + 1) if m + n <= 7]
ALL_SL = [SpaceSpec.sl(k) for k in (2, 3, 4)]


def dense_phi_of_ad(space, q, func, X):
    """Independent oracle: evaluate phi(ad_q) X through a dense eigensolve
    of the ad operator on the full matrix space."""
    N = space.N
    Q = algebra.embed(space, q)
    cols = []
    for a in range(N):
        for b in range(N):
            E = np.zeros((N, N), complex)
            E[a, b] = 1.0
            cols.append((Q @ E - E @ Q).reshape(-1))
    adQ = np.array(cols).T
    vals, vecs = np.linalg.eig(adQ)
    img = vecs @ np.diag(func(vals.real)) @ np.linalg.inv(vecs) @ X.reshape(-1)
    return img.reshape(N, N)


# ---------------------------------------------------------------------------
# build_space
# ---------------------------------------------------------------------------

def test_su32_roots_and_multiplicities(su32):
    labels = {r.label(): m for r, m in zip(su32.roots, su32.mult)}
    assert labels == {
        "e1-e2": 2, "e1+e2": 2, "2e1": 1, "2e2": 1, "e1": 2, "e2": 2,
    }
    assert su32.rank == 2
    assert su32.dim_m == 2
    # dim gminus = dim A + sum of multiplicities = 2 + 10 = 12, total 24
    assert su32.rank + su32.K == 12
    assert su32.dim_m + su32.K == 12
    assert su32.dim_algebra == 24


def test_sl2_counts(sl2):
    assert [r.label() for r in sl2.roots] == ["e1-e2"]
    assert sl2.mult == (2,)
    # brute-force dim of gminus = Hermitian traceless 2x2 over R
    herm_traceless = []
    for M in (np.array([[1, 0], [0, -1]]), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]])):
        herm_traceless.append(M)
    assert sl2.rank + sl2.K == len(herm_traceless) == 3


def test_invalid_specs():
    with pytest.raises(algebra.AdmissibilityError):
        SpaceSpec.su(1, 2)
    with pytest.raises(algebra.AdmissibilityError):
        SpaceSpec.su(2, 0)
    with pytest.raises(algebra.AdmissibilityError):
        SpaceSpec.sl(1)


def test_equal_specs_share_one_read_only_space():
    sp = build_space(SpaceSpec.su(3, 2))
    assert build_space(SpaceSpec("su_mn", m=3, n=2)) is sp
    assert build_space(SpaceSpec.sl(3)) is not sp
    fresh = build_space.__wrapped__(SpaceSpec.su(3, 2))  # the uncached builder
    assert fresh is not sp
    for field in dataclasses.fields(sp):
        value, built = getattr(sp, field.name), getattr(fresh, field.name)
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable
            assert value.dtype == built.dtype and value.tobytes() == built.tobytes()
            with pytest.raises(ValueError):
                value.flat[0] = 0
        else:
            assert repr(value) == repr(built)


def test_unknown_family_raises_on_every_call():
    spec = SpaceSpec("so_pq", m=2, n=1)
    for _ in range(3):
        with pytest.raises(algebra.AdmissibilityError, match="unknown family"):
            build_space(spec)


@pytest.mark.parametrize("spec", ALL_SU + ALL_SL, ids=lambda s: s.label())
def test_basis_orthonormality_exhaustive(spec):
    sp = build_space(spec)
    K = sp.K
    # stack all basis vectors with their expected Gram signs
    mats = np.concatenate([sp.eplus, sp.eminus, sp.m_basis, sp.a_basis]) \
        if sp.dim_m else np.concatenate([sp.eplus, sp.eminus, sp.a_basis])
    signs = np.concatenate([-np.ones(K), np.ones(K),
                            -np.ones(sp.dim_m), np.ones(sp.rank)]) \
        if sp.dim_m else np.concatenate([-np.ones(K), np.ones(K), np.ones(sp.rank)])
    gram = np.einsum("iab,jba->ij", mats, mats).real
    assert np.abs(gram - np.diag(signs)).max() < 1e-12


@pytest.mark.parametrize("spec", ALL_SU + ALL_SL, ids=lambda s: s.label())
def test_dimension_bookkeeping(spec):
    sp = build_space(spec)
    assert sp.rank + sp.dim_m + 2 * sp.K == sp.dim_algebra
    assert sp.K == sum(sp.mult)
    if spec.family == "su_mn":
        m, n = spec.m, spec.n
        for r, mult in zip(sp.roots, sp.mult):
            expected = {"diff": 2, "sum": 2, "twice": 1, "single": 2 * (m - n)}[r.kind]
            assert mult == expected


@pytest.mark.parametrize("spec", ALL_SU + ALL_SL, ids=lambda s: s.label())
def test_ladder_relation(spec, rng):
    sp = build_space(spec)
    for _ in range(10):
        q = rng.standard_normal(sp.n_coords)
        if spec.family == "sl_kc":
            q -= q.mean()
        Q = algebra.embed(sp, q)
        av = sp.alpha_cols(q)
        for j in range(sp.K):
            up = Q @ sp.eplus[j] - sp.eplus[j] @ Q
            dn = Q @ sp.eminus[j] - sp.eminus[j] @ Q
            assert np.abs(up - av[j] * sp.eminus[j]).max() < 1e-13 * max(1, abs(av[j]))
            assert np.abs(dn - av[j] * sp.eplus[j]).max() < 1e-13 * max(1, abs(av[j]))


@pytest.mark.parametrize("spec", ALL_SU + ALL_SL, ids=lambda s: s.label())
def test_basis_membership_and_theta_parity(spec):
    sp = build_space(spec)
    for j in range(sp.K):
        assert algebra.membership_residual(sp, sp.eplus[j]) < 1e-14
        assert np.abs(algebra.theta(sp, sp.eplus[j]) - sp.eplus[j]).max() < 1e-14
        assert np.abs(algebra.theta(sp, sp.eminus[j]) + sp.eminus[j]).max() < 1e-14


CORE_SPACES = [SpaceSpec.su(2, 1), SpaceSpec.su(2, 2), SpaceSpec.su(3, 2),
               SpaceSpec.su(6, 3), SpaceSpec.sl(3), SpaceSpec.sl(4)]


@pytest.mark.parametrize("spec", CORE_SPACES, ids=lambda s: s.label())
def test_structure_constants_fplus(spec):
    sp = build_space(spec)
    f = sp.fplus
    assert f.shape == (sp.K, sp.K, sp.K)
    assert np.abs(f + f.transpose(1, 0, 2)).max() == 0.0
    for i in range(sp.K):
        for j in range(sp.K):
            br = sp.eplus[i] @ sp.eplus[j] - sp.eplus[j] @ sp.eplus[i]
            want = algebra.project(sp, br, "mperp")
            got = np.einsum("k,kab->ab", f[i, j], sp.eplus)
            assert np.abs(got - want).max() < 1e-13


DIGEST_SPACES = ([SpaceSpec.su(m, n) for n in range(1, 6) for m in range(n, n + 4)]
                 + [SpaceSpec.sl(k) for k in range(2, 8)])
BASIS_DIGEST = "7c04fc25e07d94738b4e6c7590b7cab61e465448cf3b5a6eb5ca5ed5764277fd"


def space_digest(specs):
    """sha256 over every SymmetricSpaceData field of each space: arrays give
    dtype, shape, write flag and raw bytes, other fields their repr."""
    h = hashlib.sha256()
    for spec in specs:
        sp = build_space(spec)
        for field in dataclasses.fields(sp):
            value = getattr(sp, field.name)
            h.update(field.name.encode())
            if isinstance(value, np.ndarray):
                h.update(f"{value.dtype}{value.shape}{value.flags.writeable}".encode())
                h.update(value.tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


def test_basis_bits_are_pinned():
    """Every CLI output rests on these bits; a rewrite of the builders must
    keep them exactly (su(m,n), n = 1..5, m = n..n+3, and sl(k,C), k = 2..7)."""
    assert len(DIGEST_SPACES) == 26
    assert space_digest(DIGEST_SPACES) == BASIS_DIGEST


# ---------------------------------------------------------------------------
# theta / split / project
# ---------------------------------------------------------------------------

def test_theta_block_action(su32, rng):
    m, n = 3, 2
    X = algebra.random_algebra_element(su32, rng)
    tX = algebra.theta(su32, X)
    # same diagonal blocks, off-diagonal block negated
    assert np.allclose(tX[:m, :m], X[:m, :m])
    assert np.allclose(tX[m:, m:], X[m:, m:])
    assert np.allclose(tX[:m, m:], -X[:m, m:])
    assert np.allclose(algebra.theta(su32, tX), X)
    # equivalently -X^dagger
    assert np.abs(tX + X.conj().T).max() < 1e-12


def test_theta_involution_sl(sl3, rng):
    X = algebra.random_algebra_element(sl3, rng)
    assert np.allclose(algebra.theta(sl3, algebra.theta(sl3, X)), X)


@pytest.mark.parametrize("fixture", ["su21", "su22", "su32", "sl3"])
def test_project_resolves_identity(fixture, rng, request):
    sp = request.getfixturevalue(fixture)
    for _ in range(5):
        X = algebra.random_algebra_element(sp, rng)
        total = sum(algebra.project(sp, X, part) for part in ("a", "m", "aperp", "mperp"))
        assert np.abs(total - X).max() < 1e-12
        Xp, Xm = algebra.split(sp, X)
        assert abs(algebra.pair(Xp, Xm)) < 1e-12
        assert np.abs(Xp + Xm - X).max() < 1e-13


def test_project_basis_vector(su32):
    X = su32.eplus[3]
    assert np.allclose(algebra.project(su32, X, "mperp"), X)
    for part in ("a", "m", "aperp"):
        assert np.abs(algebra.project(su32, X, part)).max() < 1e-14


def test_central_element_decomposition(su32, su22):
    # C_{m,n} = diag(in 1_m, -im 1_n) is central in g+ but does NOT centralize
    # A (it rotates the off-diagonal block with weight i(m+n)), so it is not an
    # M element; it splits as an M piece plus (m+n)/sqrt(2) * sum_k E+_{2e_k}.
    for sp in (su32, su22):
        m, n = sp.spec.m, sp.spec.n
        C = np.diag(np.concatenate([1j * n * np.ones(m), -1j * m * np.ones(n)]))
        assert algebra.membership_residual(sp, C) < 1e-13
        assert np.allclose(algebra.theta(sp, C), C)
        for j in range(sp.dim_m):
            B = sp.m_basis[j]
            assert np.abs(C @ B - B @ C).max() < 1e-12
        for j in range(sp.K):
            B = sp.eplus[j]
            assert np.abs(C @ B - B @ C).max() < 1e-12
        gplus_part = algebra.project(sp, C, "m") + algebra.project(sp, C, "mperp")
        assert np.abs(gplus_part - C).max() < 1e-12
        coef = (m + n) / math.sqrt(2.0)
        twice_cols = [j for j, lbl in enumerate(sp.e_labels) if lbl.startswith("2e")]
        cplus = algebra.decompose(sp, C)[2]
        assert np.allclose(cplus[twice_cols], coef)
        if m == n:
            assert np.abs(algebra.project(sp, C, "m")).max() < 1e-13


def test_project_to_algebra_symmetrizes(su22, rng):
    Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    X = algebra.project_to_algebra(su22, Z)
    assert algebra.membership_residual(su22, X) < 1e-13
    # idempotent and orthogonal: the residual Z - X is pair-orthogonal to the algebra
    assert np.allclose(algebra.project_to_algebra(su22, X), X)
    W = algebra.random_algebra_element(su22, rng)
    assert abs(algebra.pair(W, Z - X)) < 1e-12


# ---------------------------------------------------------------------------
# ad_fn
# ---------------------------------------------------------------------------

def test_ad_fn_kills_flat_for_odd(su32):
    q = np.array([1.0, 0.4])
    H = algebra.embed(su32, np.array([0.3, -0.2]))
    out = algebra.ad_fn(su32, "tanh", q, H)
    assert np.abs(out).max() < 1e-14


def test_ad_fn_twice_root_example(su21):
    # tanh(ad_q) E-_{2e1} = tanh(2 q1) E+_{2e1}
    q = np.array([0.37])
    j = [i for i, lbl in enumerate(su21.e_labels) if lbl.startswith("2e1")][0]
    out = algebra.ad_fn(su21, "tanh", q, su21.eminus[j])
    assert np.abs(out - math.tanh(2 * 0.37) * su21.eplus[j]).max() < 1e-14


@pytest.mark.parametrize("fixture", ["su21", "su22", "su32", "sl3"])
@pytest.mark.parametrize("phi", ["tanh", "sinh", "cosh"])
def test_ad_fn_matches_dense_oracle(fixture, phi, rng, request):
    sp = request.getfixturevalue(fixture)
    func = algebra.PHI_FUNCTIONS[phi][0]
    for _ in range(3):
        q = algebra.random_chamber_point(sp, rng, 0.2, 0.5)
        X = algebra.random_algebra_element(sp, rng)
        ours = algebra.ad_fn(sp, phi, q, X)
        dense = dense_phi_of_ad(sp, q, func, X)
        assert np.abs(ours - dense).max() < 1e-10


def test_ad_fn_pole_with_zero_flat_part(su22, rng):
    # coth(ad_q) maps M-perp into A-perp with componentwise coth(alpha(q))
    q = algebra.random_chamber_point(su22, rng)
    xi = np.einsum("j,jab->ab", rng.standard_normal(su22.K), su22.eplus)
    out = algebra.ad_fn(su22, "coth", q, xi)
    assert np.abs(algebra.project(su22, out, "aperp") - out).max() < 1e-12
    _, _, _, cminus = algebra.decompose(su22, out)
    av = su22.alpha_cols(q)
    xi_c = algebra.decompose(su22, xi)[2]
    assert np.abs(cminus - xi_c / np.tanh(av)).max() < 1e-12


PLAIN_POLE_FORMULAS = {
    "coth": lambda z: np.cosh(z) / np.sinh(z),
    "inv_sinh": lambda z: 1.0 / np.sinh(z),
    "inv_sinh_sq": lambda z: 1.0 / np.sinh(z) ** 2,
}


@pytest.mark.parametrize("phi", sorted(PLAIN_POLE_FORMULAS))
def test_pole_functions_far_out(phi):
    # the plain formulas' bits up to FAR_ROOT; beyond, values that agree
    # with them while they are finite (1/sinh up to 710) and reach the
    # limits (+-1 for coth, 0 for the others), with no warning
    func, parity, _ = algebra.PHI_FUNCTIONS[phi]
    sign = -1.0 if parity == "odd" else 1.0
    near = np.concatenate([np.linspace(1e-3, algebra.FAR_ROOT, 20001), [algebra.FAR_ROOT]])
    near = np.concatenate([-near, near])
    assert np.array_equal(func(near), PLAIN_POLE_FORMULAS[phi](near))
    far = np.array([350.5, 400.0, 709.0, 711.0, 800.0, 1e4, 1e300, np.inf])
    assert np.all(np.isfinite(func(far)))
    assert np.array_equal(func(-far), sign * func(far))
    limit = 1.0 if phi == "coth" else 0.0
    assert np.all(func(far[4:]) == limit)
    if phi != "coth":
        assert np.all(np.abs(func(far)) < 1e-150)
    if phi == "inv_sinh":
        z = np.linspace(algebra.FAR_ROOT, 709.0, 1001)
        assert np.all(np.abs(func(z) * np.sinh(z) - 1.0) < 1e-14)


def test_sinh_sq_far_out():
    z = np.linspace(-algebra.FAR_ROOT, algebra.FAR_ROOT, 10001)
    assert np.array_equal(algebra.sinh_sq(z), np.sinh(z) ** 2)
    assert np.all(algebra.sinh_sq(np.array([355.5, -800.0, 1e300])) == np.inf)


def test_ad_fn_pole_error(su22, rng):
    q = algebra.random_chamber_point(su22, rng)
    H = algebra.embed(su22, np.array([0.1, 0.05]))
    with pytest.raises(ValueError, match="pole"):
        algebra.ad_fn(su22, "coth", q, H)


def test_ad_fn_nonregular_error(su22):
    with pytest.raises(algebra.WallProximityError):
        algebra.ad_fn(su22, "tanh", np.array([0.5, 0.5]), np.eye(4, dtype=complex))


# ---------------------------------------------------------------------------
# Cartan coordinates and Weyl action
# ---------------------------------------------------------------------------

def test_embed_coords_roundtrip(su32, sl3, rng):
    q = rng.standard_normal(2)
    assert np.allclose(algebra.coords_of(su32, algebra.embed(su32, q)), q)
    qs = rng.standard_normal(3)
    qs -= qs.mean()
    assert np.allclose(algebra.coords_of(sl3, algebra.embed(sl3, qs)), qs)


def test_chamber_predicates(su32):
    assert algebra.is_in_chamber(su32, np.array([2.0, 1.0]))
    assert not algebra.is_in_chamber(su32, np.array([1.0, 2.0]))
    assert algebra.is_regular(su32, np.array([1.0, -2.0]))
    assert not algebra.is_regular(su32, np.array([1.0, 1.0]))


def test_weyl_identity(su32, rng):
    q = rng.standard_normal(2)
    w = ((0, 1), (1, 1))
    assert np.allclose(algebra.weyl_act(su32, w, q), q)


def test_weyl_bc2_signed_swap(su32):
    # swap with both signs: (1.0, 0.5) -> (-0.5, -1.0)
    q = np.array([1.0, 0.5])
    out = algebra.weyl_act(su32, ((1, 0), (-1, -1)), q)
    assert np.allclose(out, [-0.5, -1.0])


def test_weyl_sign_rejected_for_sl(sl3):
    with pytest.raises(ValueError):
        algebra.weyl_act(sl3, ((0, 1, 2), (1, -1, 1)), np.array([1.0, 0.0, -1.0]))


def test_random_chamber_point_in_chamber(su32, sl3, rng):
    for sp in (su32, sl3):
        for _ in range(10):
            q = algebra.random_chamber_point(sp, rng)
            assert algebra.is_in_chamber(sp, q, margin=0.1)
            if sp.spec.family == "sl_kc":
                assert abs(q.sum()) < 1e-12
