"""Tests for coadjoint orbits, the momentum map and the gauge slice."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincal import algebra, orbits
from spincal.algebra import AdmissibilityError, SpaceSpec
from spincal.orbits import OrbitSpec


def frob(X):
    return float(np.linalg.norm(X))


# ---------------------------------------------------------------------------
# eta_of_u
# ---------------------------------------------------------------------------

def test_eta_of_u_k2():
    eta = orbits.eta_of_u(np.array([math.sqrt(2.0), 0.0]), 1.0)
    assert np.allclose(eta, np.diag([1j, -1j]))


def test_eta_of_u_phase_invariance(rng):
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u *= math.sqrt(3.0 * 0.7) / np.linalg.norm(u)
    alpha = rng.uniform(0, 2 * math.pi)
    assert np.allclose(orbits.eta_of_u(u, 0.7), orbits.eta_of_u(np.exp(1j * alpha) * u, 0.7))


def test_eta_of_u_ones_has_zero_diagonal():
    eta = orbits.eta_of_u(np.ones(3), 1.0)
    assert np.abs(np.diag(eta)).max() < 1e-15
    assert np.abs(np.trace(eta)) < 1e-14
    assert np.abs(eta + eta.conj().T).max() < 1e-14


def test_eta_of_u_norm_violation():
    with pytest.raises(AdmissibilityError):
        orbits.eta_of_u(np.array([1.0, 1.0]), 5.0)


def test_eta_of_u_conjugation_covariance(rng):
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u *= math.sqrt(4.0) / np.linalg.norm(u)
    Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    V = np.linalg.qr(Z)[0]
    assert np.allclose(orbits.eta_of_u(V @ u, 1.0), V @ orbits.eta_of_u(u, 1.0) @ V.conj().T)


def test_xi_red_kks_matches_paper_k2(sl2):
    assert np.allclose(orbits.xi_red(sl2, "kks", 1.0).xi, np.array([[0.0, 1j], [1j, 0.0]]))


def test_xi_red_kks_zero_diagonal_and_eta_consistency():
    # the torus normal form i kappa (1 - I), zero on the diagonal
    k, kappa = 4, 0.6
    mu = orbits.xi_red(algebra.build_space(SpaceSpec.sl(k)), "kks", kappa).xi
    assert np.abs(mu - 1j * kappa * (np.ones((k, k)) - np.eye(k))).max() <= 1e-15
    assert mu.tobytes() == orbits.eta_of_u(math.sqrt(kappa) * np.ones(k), kappa).tobytes()


# ---------------------------------------------------------------------------
# slice map and momentum map
# ---------------------------------------------------------------------------

def test_moment_map_zero_data(su22):
    pt = orbits.build_slice_point(su22, np.array([1.5, 0.5]), np.zeros(2),
                                  orbits.zero_spin(su22))
    assert frob(orbits.moment_map(su22, pt)) < 1e-12


def test_moment_map_identity_lambda(su22, rng):
    xi = orbits.random_slice_spin(su22, OrbitSpec.su(kappa_m=1.0, kappa_n=0.5), rng)
    pt = orbits.UnreducedPoint(Lam=np.eye(4, dtype=complex),
                               j_minus=algebra.embed(su22, np.array([0.3, -0.1])),
                               xi=xi.xi)
    psi = orbits.moment_map(su22, pt)
    assert np.abs(psi - xi.xi).max() < 1e-13


@pytest.mark.parametrize("label,orbit", [
    ("su21", ("bc", 1.0, 0.0)),
    ("su21", ("bc", 1.0, 0.4)),
    ("su22", ("generic", 1.0, 0.5)),
    ("su32", ("generic", 1.2, 0.3)),
    ("su31", ("forced", 0.8, 0.0)),
])
def test_slice_constraint_vanishes(label, orbit, rng, request):
    sp = request.getfixturevalue(label)
    kind, km, kn = orbit
    if kind == "bc":
        spec = OrbitSpec.su(kappa_m=km, x=kn)
    elif kind == "generic":
        spec = OrbitSpec.su(kappa_m=km, kappa_n=kn, x=0.2)
    else:
        # m - n >= 2 forces x = kappa_m / n for the slice to be met
        spec = OrbitSpec.su(kappa_m=km, x=km / sp.spec.n)
    for _ in range(20):
        xi = orbits.random_slice_spin(sp, spec, rng)
        q = algebra.random_chamber_point(sp, rng)
        p = rng.standard_normal(sp.n_coords)
        if sp.spec.family == "sl_kc":
            p -= p.mean()
        up = orbits.build_slice_point(sp, q, p, xi)
        assert frob(orbits.moment_map(sp, up)) < 1e-11


def test_slice_constraint_sl(sl3, rng):
    spec = OrbitSpec.kks(0.9)
    for _ in range(20):
        xi = orbits.random_slice_spin(sl3, spec, rng)
        q = algebra.random_chamber_point(sl3, rng)
        p = rng.standard_normal(3)
        p -= p.mean()
        up = orbits.build_slice_point(sl3, q, p, xi)
        assert frob(orbits.moment_map(sl3, up)) < 1e-11


def test_moment_map_equivariance_off_slice(su22, rng):
    # conjugating an on-slice point by a generic compact element exercises the
    # general (non-flat) Lambda path of the momentum map
    spec = OrbitSpec.su(kappa_m=1.0, kappa_n=0.5)
    xi = orbits.random_slice_spin(su22, spec, rng)
    up = orbits.build_slice_point(su22, np.array([1.3, 0.6]), np.array([0.2, -0.4]), xi)
    import scipy.linalg
    g = scipy.linalg.expm(algebra.random_gplus_element(su22, rng, 0.7))
    moved = orbits.UnreducedPoint(
        Lam=g @ up.Lam @ g.conj().T,
        j_minus=g @ up.j_minus @ g.conj().T,
        xi=g @ up.xi @ g.conj().T)
    assert frob(orbits.moment_map(su22, moved)) < 1e-10


def test_build_slice_point_j_minus_form(su21, rng):
    # the J_minus component reproduces p - coth(ad_q) xi
    xi = orbits.xi_red(su21, "bc", 1.0, 0.0)
    q, p = np.array([1.0]), np.array([0.3])
    up = orbits.build_slice_point(su21, q, p, xi)
    expected = algebra.embed(su21, p) - algebra.ad_fn(su21, "coth", q, xi.xi)
    assert np.abs(up.j_minus - expected).max() < 1e-14
    assert frob(orbits.moment_map(su21, up)) < 1e-11


def test_build_slice_point_rejects_wall_and_m_part(su22, rng):
    with pytest.raises(algebra.WallProximityError):
        orbits.build_slice_point(su22, np.array([1.0, 1.0]), np.zeros(2),
                                 orbits.zero_spin(su22))
    # a spin with an M-part has no SpinPoint to build a slice point from
    with pytest.raises(orbits.MembershipError, match="M-part"):
        orbits.spin_point(su22, su22.m_basis[0])


# ---------------------------------------------------------------------------
# xi_red and couplings
# ---------------------------------------------------------------------------

def test_xi_red_bc_n1():
    sp = algebra.build_space(SpaceSpec.su(2, 1))
    xi = orbits.xi_red(sp, "bc", 1.0, 0.0)
    g, g1, g2 = orbits.bc_couplings(1, 1.0, 0.0)
    assert abs(g1 - math.sqrt(0.5)) < 1e-15 and g2 == 0.0
    # expansion: 2 g1 on the imaginary e_1 vector only
    lbl = dict(zip(sp.e_labels, xi.coeffs))
    assert abs(lbl["e1:im,d1"] - 2 * g1) < 1e-13
    for name in ("e1:re,d1", "2e1:im"):
        assert abs(lbl[name]) < 1e-13


def test_xi_red_bc_couplings_n2():
    g, g1, g2 = orbits.bc_couplings(2, 3.0, 1.0)
    assert abs(g - 2.0) < 1e-15
    assert abs(g1 - math.sqrt(2.0)) < 1e-15
    assert abs(g2 - 3.0 / math.sqrt(2.0)) < 1e-15


def test_xi_red_bc_expansion_matches_couplings(su32):
    kappa, x = 3.0, 1.0
    xi = orbits.xi_red(su32, "bc", kappa, x)
    g, g1, g2 = orbits.bc_couplings(2, kappa, x)
    lbl = dict(zip(su32.e_labels, xi.coeffs))
    assert abs(lbl["e1-e2:im"] - 2 * g) < 1e-12
    assert abs(lbl["e1+e2:im"] - 2 * g) < 1e-12
    assert abs(lbl["e1:im,d1"] - 2 * g1) < 1e-12
    assert abs(lbl["2e1:im"] - 2 * g2) < 1e-12
    for name in ("e1-e2:re", "e1+e2:re", "e1:re,d1", "e2:re,d1"):
        assert abs(lbl[name]) < 1e-12


def test_coupling_relation(rng):
    # g1^2 - 2 g^2 + sqrt(2) g g2 = 0 over random admissible draws
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        kappa = float(rng.uniform(0.05, 4.0))
        x = float(rng.uniform(-kappa, kappa / n))
        g, g1, g2 = orbits.bc_couplings(n, kappa, x)
        worst = max(worst, abs(g1 ** 2 - 2 * g ** 2 + math.sqrt(2.0) * g * g2))
    assert worst < 1e-13


def test_xi_red_on_slice_everywhere(su21, su22, su32, sl3):
    cases = [
        (su21, "bc", 1.0, 0.3),
        (su32, "bc", 3.0, 1.0),
        (su22, "c", 1.0, 0.5),
        (su22, "c", 0.0, 0.7),
        (su22, "d", 2.0, 0.0),
        (sl3, "kks", 1.1, 0.0),
    ]
    for sp, case, kappa, x in cases:
        xi = orbits.xi_red(sp, case, kappa, x)
        assert np.abs(algebra.project(sp, xi.xi, "m")).max() < 1e-12


def test_xi_red_admissibility():
    su21 = algebra.build_space(SpaceSpec.su(2, 1))
    with pytest.raises(AdmissibilityError):
        orbits.xi_red(su21, "bc", 1.0, -1.5)    # kappa + x < 0
    with pytest.raises(AdmissibilityError):
        orbits.xi_red(su21, "bc", 1.0, 1.5)     # kappa - n x < 0
    su22 = algebra.build_space(SpaceSpec.su(2, 2))
    with pytest.raises(AdmissibilityError):
        orbits.xi_red(su22, "c", 0.0, 0.0)
    with pytest.raises(AdmissibilityError):
        orbits.xi_red(su22, "d", 0.0, 0.0)      # nonzero-orbit requirement
    sl3 = algebra.build_space(SpaceSpec.sl(3))
    with pytest.raises(AdmissibilityError):
        orbits.xi_red(sl3, "kks", 1.0, math.nan)  # the A family ignores a finite x only


# The catalog families on su(m,n) with m + n <= 6 and on sl(k,C) with k <= 5
CATALOG_FITS = [(SpaceSpec.sl(k), "a") for k in range(2, 6)] + [
    (SpaceSpec.su(m, n), family) for n in range(1, 4) for m in range(n, 7 - n)
    for family in ("bc", "c", "d") if family == "d" or m - n == {"bc": 1, "c": 0}[family]]


def slice_path_admits(space, family, kappa, x) -> bool:
    """Whether the generic route (the family's OrbitSpec and
    random_slice_spin) builds an on-slice spin of the catalog datum."""
    try:
        if family == "a":
            spec = OrbitSpec.kks(kappa)
        elif family == "bc":
            spec = OrbitSpec.su(kappa_m=kappa, x=x)
        else:
            spec = OrbitSpec.su(kappa_n=kappa, x=x)
        orbits.random_slice_spin(space, spec, np.random.default_rng(0))
    except AdmissibilityError:
        return False
    return True


def normal_form(space, family, kappa, x):
    """The paper's normal form of a catalog spin: i kappa (1 - I) on the
    factor of the minimal orbit plus x C, and for BC i(u u^T - kappa) with
    u = (sqrt(kappa + x) 1_n, sqrt(kappa - n x)) written entry by entry.
    On BC data inside the slack of a bound the entry of u it clamps is 0,
    and kappa is read as |u|^2 / m, which keeps the form traceless."""
    if family == "a":
        return 1j * kappa * (np.ones((space.N, space.N)) - np.eye(space.N))
    m, n = space.spec.m, space.spec.n
    out = x * np.diag(np.concatenate([1j * n * np.ones(m), -1j * m * np.ones(n)]))
    if family == "bc":
        a, b = max(kappa + x, 0.0), max(kappa - n * x, 0.0)
        block = np.full((m, m), a)
        block[:n, n] = block[n, :n] = math.sqrt(a * b)
        block[n, n] = b
        if (a, b) == (kappa + x, kappa - n * x):
            np.fill_diagonal(block, [x] * n + [-n * x])  # a - kappa and b - kappa
        else:
            block -= (n * a + b) / m * np.eye(m)
        out[:m, :m] += 1j * block
    else:
        out[m:, m:] += 1j * kappa * (np.ones((n, n)) - np.eye(n))
    return out


@settings(max_examples=400, deadline=None)
@given(fit=st.sampled_from(CATALOG_FITS), k=st.integers(-20, 20), j=st.integers(0, 20),
       scale=st.sampled_from([1.0, 1e3]), anchor=st.sampled_from(["n x", "-x", "0", "free"]),
       nudge=st.sampled_from([0.0, 1e-16, -1e-16, 5e-15, -5e-15, 2e-14, -2e-14,
                              1e-12, -1e-12]))
def test_catalog_and_slice_verdicts_agree(fit, k, j, scale, anchor, nudge):
    # catalog data on and near every boundary, built in floats at two scales:
    # validate_params admits a datum iff the slice path admits it, and then
    # xi_red is the paper's normal form (D and A data carry no x)
    spec, family = fit
    space = algebra.build_space(spec)
    n = spec.k if family == "a" else spec.n
    x = scale * k / 10 if family in ("bc", "c") else 0.0
    base = {"n x": n * x, "-x": -x, "0": 0.0, "free": scale * j / 10}[anchor]
    kappa = base + nudge * max(1.0, abs(base))
    admitted = orbits.validate_params(family, n, kappa, x) is None
    assert slice_path_admits(space, family, kappa, x) == admitted
    if admitted:
        xi = orbits.xi_red(space, "kks" if family == "a" else family, kappa, x).xi
        want = normal_form(space, family, kappa, x)
        assert np.abs(xi - want).max() <= 1e-15 * np.abs(want).max()


def test_purely_central_orbit_meets_the_slice_on_su_nn(su22, rng):
    # x C on su(2,2) is the C model at kappa = 0: the slice path builds the
    # spin xi_red builds (it refused the orbit before), with no vector drawn
    spin = orbits.random_slice_spin(su22, OrbitSpec.su(x=0.9), rng)
    want = orbits.xi_red(su22, "c", 0.0, 0.9)
    assert spin.xi.tobytes() == want.xi.tobytes()
    assert spin.coeffs.tobytes() == want.coeffs.tobytes()
    rule = orbits.slice_draw_rule(su22, OrbitSpec.su(x=0.9))
    assert rule.vectors(*rule.draw(rng)) == (None, None)


@pytest.mark.parametrize("m,n,kappa_n", [(1, 1, 1.0), (2, 1, 0.7)])
def test_constituent_on_a_size_one_factor_is_inadmissible(m, n, kappa_n):
    # su(1) has no nonzero orbits: the slice path used to drop the
    # constituent silently; it now refuses it as the base point and the
    # catalog (C on su(1,1)) do
    space = algebra.build_space(SpaceSpec.su(m, n))
    spec = OrbitSpec.su(kappa_n=kappa_n)
    with pytest.raises(AdmissibilityError, match="su\\(1\\) has no nonzero orbits"):
        orbits.random_slice_spin(space, spec, np.random.default_rng(0))
    with pytest.raises(AdmissibilityError, match="su\\(1\\) has no nonzero orbits"):
        orbits.orbit_base_point(space, spec)
    assert orbits.validate_params("c", 1, kappa_n, 0.0) is not None


@pytest.mark.parametrize("kappa,x", [(3e6, 7e5), (3e8, 7e5), (3e8, 7e7)])
def test_slice_certificate_scales_with_the_spin(kappa, x):
    # a catalog spin at scale carries a g- part and an M-part of its
    # roundoff (M-part 5.7e-10 at kappa 3e6, 5.4e-8 at 3e8): the datum
    # validate_params admits builds, on every BLAS kernel, and is the normal
    # form
    space = algebra.build_space(SpaceSpec.su(4, 3))
    assert orbits.validate_params("bc", 3, kappa, x) is None
    want = normal_form(space, "bc", kappa, x)
    assert np.abs(orbits.xi_red(space, "bc", kappa, x).xi - want).max() <= 1e-15 * kappa


def test_slice_certificate_keeps_its_bound_at_unit_scale():
    # on a spin of size 1 an M-part of 1e-9 is ten times the bound
    space = algebra.build_space(SpaceSpec.su(4, 3))
    xi = orbits.xi_red(space, "bc", 1.0, 0.0).xi
    assert np.abs(xi).max() == pytest.approx(1.0)
    bad = xi + 1e-9 * space.m_basis[0]
    assert np.linalg.norm(algebra.coefficients(space, bad, "m")) == pytest.approx(1e-9)
    with pytest.raises(orbits.MembershipError, match="M-part"):
        orbits.spin_point(space, bad)


def test_bc_boundary_at_scale_has_one_verdict(rng):
    # kappa = n x with x = nextafter(1000): kappa - n x = -4.5e-13, within
    # the slack 1e-14 max(1, kappa, n |x|) that both routes now apply
    space = algebra.build_space(SpaceSpec.su(4, 3))
    kappa, x = 3000.0, float(np.nextafter(1000.0, np.inf))
    assert -1e-12 < kappa - 3 * x < -1e-14
    assert orbits.validate_params("bc", 3, kappa, x) is None
    want = normal_form(space, "bc", kappa, x)
    assert np.abs(orbits.xi_red(space, "bc", kappa, x).xi - want).max() <= 1e-15 * kappa
    orbits.random_slice_spin(space, OrbitSpec.su(kappa_m=kappa, x=x), rng)
    beyond = x * (1 + 1e-12)
    assert orbits.validate_params("bc", 3, kappa, beyond) is not None
    with pytest.raises(AdmissibilityError):
        orbits.xi_red(space, "bc", kappa, beyond)
    with pytest.raises(AdmissibilityError):
        orbits.random_slice_spin(space, OrbitSpec.su(kappa_m=kappa, x=beyond), rng)


# ---------------------------------------------------------------------------
# Theorem-6 style checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,kappa,x", [(1, 1.0, 0.0), (1, 1.0, 0.5), (2, 3.0, 1.0), (3, 2.0, 0.4)])
def test_reduce_orbit_check(n, kappa, x, rng):
    sp = algebra.build_space(SpaceSpec.su(n + 1, n))
    report = orbits.reduce_orbit_check(sp, kappa, x, rng, n_samples=24)
    assert report.passed, report


def test_reduce_orbit_check_inadmissible(rng):
    sp = algebra.build_space(SpaceSpec.su(2, 1))
    with pytest.raises(AdmissibilityError):
        orbits.reduce_orbit_check(sp, 1.0, -2.0, rng)


def test_emptiness_probe(su32, rng):
    # O~(n, kappa) + x C misses the slice for x != 0: M-part bounded below
    margin = orbits.emptiness_probe(su32, 1.0, 0.5, rng, n_samples=2000)
    assert margin > 1e-3


def emptiness_reference(space, kappa, x, rng, n_samples):
    """The probe as a per-sample loop: build each orbit matrix through
    eta_of_u and read its M-part with algebra.decompose."""
    m, n = space.spec.m, space.spec.n
    C = orbits._central_element(m, n)
    best = np.inf
    for _ in range(n_samples):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v *= math.sqrt(n * kappa) / np.linalg.norm(v)
        xi = orbits._embed_su_factor(space, orbits.eta_of_u(v, kappa), "n") + x * C
        best = min(best, frob(algebra.decompose(space, xi)[1]))
    return best


@pytest.mark.parametrize("n,kappa,x", [(1, 1.0, 0.4), (2, 1.0, 0.5), (2, 3.0, -1.0),
                                       (3, 2.0, 0.3)])
def test_emptiness_probe_matches_per_sample_loop(n, kappa, x):
    space = algebra.build_space(SpaceSpec.su(n + 1, n))
    rng, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    with mock.patch.object(algebra, "decompose", wraps=algebra.decompose) as decompose:
        margin = orbits.emptiness_probe(space, kappa, x, rng, n_samples=1500)
        assert decompose.call_count == 0
    want = emptiness_reference(space, kappa, x, rng_ref, 1500)
    assert abs(margin - want) <= 1e-14 * want
    # the batch draws what the loop draws: later checks see the same stream
    assert rng.standard_normal() == rng_ref.standard_normal()


def test_emptiness_probe_in_blocks_matches_one_shot():
    # 5,000 samples span three blocks, the last one partial: same margin and
    # the same generator stream as the per-sample loop, and no array holds
    # more than one block of samples
    space = algebra.build_space(SpaceSpec.su(3, 2))
    rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    margin = orbits.emptiness_probe(space, 1.0, 0.5, rng, n_samples=5000)
    want = emptiness_reference(space, 1.0, 0.5, rng_ref, 5000)
    assert abs(margin - want) <= 1e-14 * want
    assert rng.standard_normal() == rng_ref.standard_normal()
    tracemalloc.start()
    try:
        orbits.emptiness_probe(space, 1.0, 0.5, np.random.default_rng(0), n_samples=10000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024  # one-shot arrays of 10^4 samples reach 1.4 MB


# ---------------------------------------------------------------------------
# random orbit points
# ---------------------------------------------------------------------------

def sorted_block_spectra(space, xi):
    if space.spec.family == "su_mn":
        m = space.spec.m
        sa = np.sort(np.linalg.eigvalsh(-1j * xi[:m, :m]))
        sd = np.sort(np.linalg.eigvalsh(-1j * xi[m:, m:]))
        return np.concatenate([sa, sd])
    return np.sort(np.linalg.eigvalsh(-1j * xi))


def test_random_orbit_point_deterministic(su22):
    spec = OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2)
    a = orbits.random_orbit_point(su22, spec, np.random.default_rng(7))
    b = orbits.random_orbit_point(su22, spec, np.random.default_rng(7))
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("fixture", ["su22", "su32", "sl3"])
def test_expm_antiherm_is_unitary_and_matches_expm(fixture, rng, request):
    # random_orbit_point's group element exp(Z), Z anti-Hermitian in g-plus,
    # from one eigh
    import scipy.linalg
    sp = request.getfixturevalue(fixture)
    for _ in range(5):
        Z = algebra.random_gplus_element(sp, rng, scale=1.0)
        g = orbits._expm_antiherm(Z)
        assert np.abs(g @ g.conj().T - np.eye(sp.N)).max() < 1e-13
        assert np.abs(g - scipy.linalg.expm(Z)).max() < 1e-13


def test_random_orbit_point_sl_kc(sl3, rng):
    spec = OrbitSpec.kks(0.9)
    ref = sorted_block_spectra(sl3, orbits.orbit_base_point(sl3, spec))
    a = orbits.random_orbit_point(sl3, spec, np.random.default_rng(7))
    b = orbits.random_orbit_point(sl3, spec, np.random.default_rng(7))
    assert a.tobytes() == b.tobytes()
    for _ in range(5):
        xi = orbits.random_orbit_point(sl3, spec, rng)
        assert np.abs(sorted_block_spectra(sl3, xi) - ref).max() < 1e-10
        assert np.abs(algebra.project(sl3, xi, "gminus")).max() < 1e-12


@pytest.mark.parametrize("fixture,speckw", [
    ("su22", dict(kappa_m=1.0, kappa_n=0.5, x=0.2)),
    ("su32", dict(kappa_m=1.0, x=0.3)),
])
def test_random_orbit_point_preserves_spectra(fixture, speckw, rng, request):
    sp = request.getfixturevalue(fixture)
    spec = OrbitSpec.su(**speckw)
    base = orbits.orbit_base_point(sp, spec)
    ref = sorted_block_spectra(sp, base)
    for _ in range(5):
        xi = orbits.random_orbit_point(sp, spec, rng)
        assert np.abs(sorted_block_spectra(sp, xi) - ref).max() < 1e-10
        assert np.abs(algebra.project(sp, xi, "gminus")).max() < 1e-12


def test_random_slice_spin_is_on_orbit_and_slice(su22, rng):
    spec = OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2)
    base = orbits.orbit_base_point(su22, spec)
    ref = sorted_block_spectra(su22, base)
    for _ in range(10):
        xi = orbits.random_slice_spin(su22, spec, rng)
        assert np.abs(algebra.project(su22, xi.xi, "m")).max() < 1e-12
        assert np.abs(sorted_block_spectra(su22, xi.xi) - ref).max() < 1e-9


def test_random_slice_spin_su31_requires_forced_x(su31, rng):
    with pytest.raises(AdmissibilityError):
        orbits.random_slice_spin(su31, OrbitSpec.su(kappa_m=1.0, x=0.2), rng)
    xi = orbits.random_slice_spin(su31, OrbitSpec.su(kappa_m=1.0, x=1.0), rng)
    # the forced datum is the pure 2e_1 spin 3 kappa sqrt(2) E+_{2e1}
    lbl = dict(zip(su31.e_labels, xi.coeffs))
    assert abs(lbl["2e1:im"] - 3.0 * math.sqrt(2.0)) < 1e-12


def test_pure_central_orbit_never_on_slice(su32, rng):
    with pytest.raises(AdmissibilityError):
        orbits.random_slice_spin(su32, OrbitSpec.su(x=1.0), rng)


def test_moment_map_rejects_foreign_lambda(su22):
    # a positive matrix that is not in the noncompact part must be refused
    bad = np.diag([2.0, 1.0, 1.0, 0.5]).astype(complex)
    pt = orbits.UnreducedPoint(Lam=bad, j_minus=np.zeros((4, 4), complex),
                               xi=orbits.zero_spin(su22))
    with pytest.raises(orbits.MembershipError):
        orbits.moment_map(su22, pt)


def test_space_data_is_write_protected(su22):
    with pytest.raises(ValueError):
        su22.eplus[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        su22.m_basis[0, 0, 0] = 1.0
