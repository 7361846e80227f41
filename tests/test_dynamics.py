"""Tests for the reduced dynamics: energy, Lax matrices, integrators,
invariant brackets, freezing gauge and the r-matrix."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from spincal import algebra, checks, dynamics, orbits
from spincal.dynamics import InvariantSpec
from spincal.orbits import OrbitSpec


def generic_su22_point(su22, rng, q=(1.6, 0.7), p=(0.3, -0.3)):
    spec = OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2)
    xi = orbits.random_slice_spin(su22, spec, rng)
    return dynamics.make_phase_point(su22, np.array(q), np.array(p), xi)


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_free(su22, rng):
    p = rng.standard_normal(2)
    pt = dynamics.make_phase_point(su22, np.array([2.0, 1.0]), p)
    assert abs(dynamics.hamiltonian(su22, pt) - 0.5 * np.dot(p, p)) < 1e-15


def test_hamiltonian_su21_frozen_value(su21):
    # kappa=1, x=0: H(q=1, p=0) = g1^2 / sinh^2(1) = 0.5 / sinh^2(1)
    xi = orbits.xi_red(su21, "bc", 1.0, 0.0)
    pt = dynamics.make_phase_point(su21, np.array([1.0]), np.array([0.0]), xi)
    expected = 0.5 / math.sinh(1.0) ** 2
    assert abs(dynamics.hamiltonian(su21, pt) - expected) < 1e-14
    assert abs(dynamics.hamiltonian_via_lax(su21, pt) - expected) < 1e-13


@pytest.mark.parametrize("fixture", ["su21", "su22", "su32", "sl3"])
def test_hamiltonian_two_paths_agree(fixture, rng, request):
    sp = request.getfixturevalue(fixture)
    if sp.spec.family == "su_mn":
        m, n = sp.spec.m, sp.spec.n
        if m == n:
            spec = OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.3)
        elif m == n + 1:
            spec = OrbitSpec.su(kappa_m=1.5, x=0.2)
        else:
            spec = OrbitSpec.su(kappa_m=1.0, x=1.0 / n)
    else:
        spec = OrbitSpec.kks(0.8)
    for _ in range(10):
        xi = orbits.random_slice_spin(sp, spec, rng)
        q = algebra.random_chamber_point(sp, rng)
        p = rng.standard_normal(sp.n_coords)
        if sp.spec.family == "sl_kc":
            p -= p.mean()
        pt = dynamics.make_phase_point(sp, q, p, xi)
        h1 = dynamics.hamiltonian(sp, pt)
        h2 = dynamics.hamiltonian_via_lax(sp, pt)
        assert abs(h1 - h2) < 1e-12 * max(1.0, abs(h1))


def test_hamiltonian_wall_error(su22):
    xi = orbits.zero_spin(su22)
    pt = dynamics.PhasePoint(q=np.array([1.0, 1.0 - 1e-8]), p=np.zeros(2), xi=xi)
    with pytest.raises(algebra.WallProximityError):
        dynamics.hamiltonian(su22, pt)


# ---------------------------------------------------------------------------
# Lax matrices
# ---------------------------------------------------------------------------

def test_lax_free_is_momentum(su22, rng):
    p = rng.standard_normal(2)
    pt = dynamics.make_phase_point(su22, np.array([2.0, 1.0]), p)
    P = algebra.embed(su22, p)
    for x in (-1.0, 0.0, 0.7, 2.0):
        assert np.abs(dynamics.lax(su22, pt, x) - P).max() < 1e-15


def test_lax_minus_real_spectrum(su22, rng):
    for _ in range(5):
        pt = generic_su22_point(su22, rng)
        L0 = dynamics.lax_minus(su22, pt)
        ev = np.linalg.eigvals(L0)
        assert np.abs(ev.imag).max() < 1e-10
        # g-minus membership: Hermitian in this realization
        assert np.abs(L0 - L0.conj().T).max() < 1e-12


def test_lax_cal_trace_square(su22, rng):
    pt = generic_su22_point(su22, rng)
    L1 = dynamics.lax(su22, pt, 1.0)
    Lc = dynamics.lax_cal(su22, pt)
    assert abs(np.trace(L1 @ L1) - np.trace(Lc @ Lc)) < 1e-12


def test_lax_cal_is_conjugated_l1(su22, rng):
    # Lcal = exp(-ad_q) L(1): same spectrum, valued in g-minus
    pt = generic_su22_point(su22, rng)
    import scipy.linalg
    Q = algebra.embed(su22, pt.q)
    L1 = dynamics.lax(su22, pt, 1.0)
    conj = scipy.linalg.expm(-Q) @ L1 @ scipy.linalg.expm(Q)
    assert np.abs(conj - dynamics.lax_cal(su22, pt)).max() < 1e-10


# ---------------------------------------------------------------------------
# Equations of motion
# ---------------------------------------------------------------------------

def test_eom_free(su22, rng):
    p = rng.standard_normal(2)
    pt = dynamics.make_phase_point(su22, np.array([2.0, 1.0]), p)
    rhs = dynamics.eom_rhs(su22, pt)
    assert np.allclose(rhs.dq, p)
    assert np.abs(rhs.dp).max() == 0.0
    assert np.abs(rhs.dxi).max() == 0.0


def test_eom_energy_conserved_first_order(su22, rng):
    # <grad H, rhs> = 0 via central finite differences of the Hamiltonian
    for _ in range(5):
        pt = generic_su22_point(su22, rng, q=(1.8, 0.8))
        rhs = dynamics.eom_rhs(su22, pt)
        dc = -np.einsum("ab,jba->j", rhs.dxi, su22.eplus).real
        h = 1e-6

        def H(eps):
            c = pt.xi.coeffs + eps * dc
            sp = orbits.SpinPoint(xi=algebra.reconstruct(su22, cplus=c),
                                  coeffs=c, on_slice=True)
            return dynamics.hamiltonian(
                su22, dynamics.PhasePoint(pt.q + eps * rhs.dq, pt.p + eps * rhs.dp, sp))

        dH = (H(h) - H(-h)) / (2 * h)
        assert abs(dH) < 1e-10 * max(1.0, abs(H(0.0)))


def test_eom_m_part_vanishes(su22, rng):
    for _ in range(10):
        pt = generic_su22_point(su22, rng)
        rhs = dynamics.eom_rhs(su22, pt)
        assert rhs.m_part_norm < 1e-13


CORE_SPACES = {spec.label(): algebra.build_space(spec) for spec in (
    algebra.SpaceSpec.su(2, 1), algebra.SpaceSpec.su(2, 2), algebra.SpaceSpec.su(3, 2),
    algebra.SpaceSpec.su(6, 3), algebra.SpaceSpec.sl(3), algebra.SpaceSpec.sl(4))}


@settings(max_examples=30, deadline=None)
@given(label=st.sampled_from(sorted(CORE_SPACES)), seed=st.integers(0, 2 ** 32 - 1))
def test_direct_rhs_matches_matrix_reference(label, seed):
    # the stepper's coefficient RHS, on the state integrate_direct packs,
    # against the N x N formulas of eom_rhs
    space = CORE_SPACES[label]
    pt = checks.random_phase_point(space, np.random.default_rng(seed))
    rhs = dynamics._DirectSystem.__call__
    states = []

    def recording(self, t, y):
        states.append(y.copy())
        return rhs(self, t, y)

    with mock.patch.object(dynamics._DirectSystem, "__call__", recording):
        dynamics.integrate_direct(space, pt, 1e-3, sample_dt=1e-3)
    nc = space.n_coords
    assert {y.size for y in states} == {2 * nc + space.K}
    dy = rhs(dynamics._DirectSystem(space, "zero"), 0.0, states[0])
    ref = dynamics.eom_rhs(space, pt)
    dc_ref = -np.einsum("ab,jba->j", ref.dxi, space.eplus).real
    for got, want in ((dy[:nc], ref.dq), (dy[nc:2 * nc], ref.dp), (dy[2 * nc:], dc_ref)):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_eom_frozen_spin(su21, sl3):
    # with the solved gauge the catalog spin data are stationary
    cases = [(su21, orbits.xi_red(su21, "bc", 1.0, 0.3), np.array([0.9])),
             (sl3, orbits.xi_red(sl3, "kks", 1.0), np.array([0.8, 0.1, -0.9]))]
    for sp, xi, q in cases:
        res = dynamics.freezing_solve(sp, q, xi)
        assert res.accepted
        p = np.zeros(sp.n_coords)
        pt = dynamics.make_phase_point(sp, q, p, xi)
        rhs = dynamics.eom_rhs(sp, pt, y_m=res.y_m)
        assert np.abs(rhs.dxi).max() < 1e-10


# ---------------------------------------------------------------------------
# Direct integration
# ---------------------------------------------------------------------------

def test_integrate_free_motion_exact(su22):
    q0, p0 = np.array([2.0, 0.8]), np.array([0.15, -0.1])
    pt = dynamics.make_phase_point(su22, q0, p0)
    traj = dynamics.integrate_direct(su22, pt, 4.0, tol=1e-10, sample_dt=0.5)
    for t, ptt in zip(traj.times, traj.points):
        assert np.abs(ptt.q - (q0 + t * p0)).max() < 1e-12
        assert np.abs(ptt.p - p0).max() < 1e-12


def test_integrate_energy_and_isospectrality(su22, rng):
    pt = generic_su22_point(su22, rng)
    traj = dynamics.integrate_direct(su22, pt, 5.0, tol=1e-10, sample_dt=0.25,
                                     lax_x=(0.0, 0.5, 1.0, 2.0))
    rep = dynamics.monitor(su22, traj)
    assert rep["energy"] < 1e-8
    for x, drift in rep["lax_spectra"].items():
        assert drift < 1e-8, (x, drift)
    assert traj.m_drift < 1e-10
    assert traj.orbit_drift < 1e-8


def test_integrate_invariant_monitors(su22, rng):
    pt = generic_su22_point(su22, rng)
    specs = (InvariantSpec("trace_power", 2, 1.0),
             InvariantSpec("trace_power", 3, 0.5),
             InvariantSpec("block_invariant", 1, 0.5),
             InvariantSpec("block_invariant", 2, -1.0))
    traj = dynamics.integrate_direct(su22, pt, 5.0, tol=1e-10, sample_dt=0.5,
                                     invariants=specs)
    rep = dynamics.monitor(su22, traj)
    for label, drift in rep["invariants"].items():
        assert drift < 1e-8, (label, drift)


def test_integrate_wall_collision(su22):
    # free motion aimed at the q1 = q2 wall
    pt = dynamics.make_phase_point(su22, np.array([1.5, 1.0]),
                                   np.array([-0.3, 0.3]))
    with pytest.raises(algebra.WallProximityError):
        dynamics.integrate_direct(su22, pt, 5.0, tol=1e-10, sample_dt=0.5)


def test_integrate_frozen_gauge_keeps_spin(su21):
    xi = orbits.xi_red(su21, "bc", 1.0, 0.3)
    pt = dynamics.make_phase_point(su21, np.array([1.0]), np.array([0.2]), xi)
    traj = dynamics.integrate_direct(su21, pt, 5.0, tol=1e-10, sample_dt=0.5,
                                     gauge="freeze")
    for ptt in traj.points:
        assert np.abs(ptt.xi.xi - xi.xi).max() < 1e-7


def count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_freeze_gauge_certifies_constant_spin(su32, monkeypatch):
    mu = orbits.xi_red(su32, "bc", 3.0, 1.0)
    pt = dynamics.make_phase_point(su32, np.array([2.0, 1.0]), np.array([0.1, -0.2]), mu)
    calls = count_calls(monkeypatch, dynamics, "freezing_solve")
    traj = dynamics.integrate_direct(su32, pt, 3.0, tol=1e-10, sample_dt=0.5,
                                     gauge="freeze")
    assert traj.n_steps > 0
    assert len(calls) == 1 + traj.n_steps  # t = 0 plus every accepted step
    for ptt in traj.points:
        assert ptt.xi.coeffs.tobytes() == mu.coeffs.tobytes()
    assert traj.m_drift == 0.0 and traj.orbit_drift == 0.0
    assert traj.freeze_residual < 1e-8
    zero = dynamics.integrate_direct(su32, pt, 0.5, tol=1e-10, sample_dt=0.5)
    assert zero.freeze_residual is None


def test_freeze_gauge_rejects_generic_spin(su22, rng):
    pt = generic_su22_point(su22, rng)
    with pytest.raises(algebra.AdmissibilityError):
        dynamics.integrate_direct(su22, pt, 1.0, tol=1e-10, sample_dt=0.5,
                                  gauge="freeze")


# ---------------------------------------------------------------------------
# Invariants: values and gradients
# ---------------------------------------------------------------------------

def test_gradient_trace_power_2_is_identity_map(su22, rng):
    X = algebra.random_algebra_element(su22, rng)
    g = dynamics.gradient(su22, InvariantSpec("trace_power", 2), X)
    assert np.abs(g - X).max() < 1e-13


@pytest.mark.parametrize("cls,k", [("trace_power", 2), ("trace_power", 3),
                                   ("trace_power", 4), ("block_invariant", 1),
                                   ("block_invariant", 2)])
def test_gradient_finite_difference(cls, k, su22, rng):
    spec = InvariantSpec(cls, k)
    h = 1e-5
    for _ in range(5):
        X = algebra.random_algebra_element(su22, rng)
        Y = algebra.random_algebra_element(su22, rng)
        g = dynamics.gradient(su22, spec, X)
        fd = (dynamics.invariant_value(su22, spec, X + h * Y)
              - dynamics.invariant_value(su22, spec, X - h * Y)) / (2 * h)
        assert abs(algebra.pair(Y, g) - fd) < 1e-7 * max(1.0, abs(fd))


def test_gradient_invariance_conditions(su22, rng):
    for _ in range(10):
        X = algebra.random_algebra_element(su22, rng)
        for k in (2, 3, 4):
            g = dynamics.gradient(su22, InvariantSpec("trace_power", k), X)
            assert np.linalg.norm(X @ g - g @ X) < 1e-11
        for k in (1, 2):
            g = dynamics.gradient(su22, InvariantSpec("block_invariant", k), X)
            comm = X @ g - g @ X
            assert np.linalg.norm(algebra.split(su22, comm)[0]) < 1e-11


def test_gradient_sl_family(sl3, rng):
    spec = InvariantSpec("trace_power", 3)
    h = 1e-5
    X = algebra.random_algebra_element(sl3, rng)
    Y = algebra.random_algebra_element(sl3, rng)
    g = dynamics.gradient(sl3, spec, X)
    fd = (dynamics.invariant_value(sl3, spec, X + h * Y)
          - dynamics.invariant_value(sl3, spec, X - h * Y)) / (2 * h)
    assert abs(algebra.pair(Y, g) - fd) < 1e-7
    with pytest.raises(algebra.AdmissibilityError):
        dynamics.invariant_value(sl3, InvariantSpec("block_invariant", 1), X)


# ---------------------------------------------------------------------------
# Theorem-4 brackets and identities
# ---------------------------------------------------------------------------

def draw_su22_point(su22, rng):
    spec = OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2)
    xi = orbits.random_slice_spin(su22, spec, rng)
    q = algebra.random_chamber_point(su22, rng)
    p = rng.standard_normal(2)
    return dynamics.make_phase_point(su22, q, p, xi)


def test_bracket_vanishes_for_full_invariants(su22, rng):
    f, h = InvariantSpec("trace_power", 2), InvariantSpec("trace_power", 3)
    worst = 0.0
    for _ in range(50):
        pt = draw_su22_point(su22, rng)
        x, y = rng.uniform(-2, 2, 2)
        worst = max(worst, abs(dynamics.bracket_formula(su22, f, x, h, y, pt)))
    assert worst < 1e-11


def test_bracket_vanishes_mixed_at_unit_y(su22, rng):
    worst = 0.0
    for _ in range(50):
        pt = draw_su22_point(su22, rng)
        x = rng.uniform(-2, 2)
        f = InvariantSpec("block_invariant", int(rng.integers(1, 3)))
        h = InvariantSpec("trace_power", int(rng.integers(2, 5)))
        y = 1.0 if rng.uniform() < 0.5 else -1.0
        worst = max(worst, abs(dynamics.bracket_formula(su22, f, x, h, y, pt)))
    assert worst < 1e-11


def test_bracket_zero_spin_is_zero(su22):
    pt = dynamics.make_phase_point(su22, np.array([2.0, 1.0]), np.array([0.4, 0.1]))
    f, h = InvariantSpec("block_invariant", 1), InvariantSpec("block_invariant", 2)
    assert dynamics.bracket_formula(su22, f, 0.8, h, -1.1, pt) == 0.0


def test_noninvolution_witness(su22, rng):
    # compact-only invariants fail to commute at generic spectral parameters
    f, h = InvariantSpec("block_invariant", 1), InvariantSpec("block_invariant", 2)
    found = 0.0
    for _ in range(50):
        pt = draw_su22_point(su22, rng)
        x, y = rng.uniform(-2, 2, 2)
        found = max(found, abs(dynamics.bracket_formula(su22, f, x, h, y, pt)))
        if found > 1e-4:
            break
    assert found > 1e-4


def test_identity_413(su22, rng):
    f = InvariantSpec("block_invariant", 1)
    h = InvariantSpec("trace_power", 3)
    worst = 0.0
    for _ in range(30):
        pt = draw_su22_point(su22, rng)
        worst = max(worst, dynamics.identity_413(su22, f, 0.7, h, -1.3, pt))
        x, y = rng.uniform(-2, 2, 2)
        worst = max(worst, dynamics.identity_413(su22, f, x, h, y, pt))
    assert worst < 1e-10


def test_identity_413_zero_spin(su22):
    pt = dynamics.make_phase_point(su22, np.array([2.0, 1.0]), np.array([0.4, 0.1]))
    f = InvariantSpec("block_invariant", 1)
    h = InvariantSpec("trace_power", 3)
    assert dynamics.identity_413(su22, f, 0.7, h, -1.3, pt) == 0.0


def test_identity_416(su22, rng):
    f, h = InvariantSpec("trace_power", 2), InvariantSpec("trace_power", 4)
    worst = 0.0
    for _ in range(30):
        pt = draw_su22_point(su22, rng)
        x, y = rng.uniform(-2, 2, 2)
        worst = max(worst, dynamics.identity_416(su22, f, x, h, y, pt))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# Freezing solve
# ---------------------------------------------------------------------------

def test_freezing_kks(sl3, rng):
    mu = orbits.xi_red(sl3, "kks", 1.3)
    for _ in range(10):
        q = algebra.random_chamber_point(sl3, rng)
        res = dynamics.freezing_solve(sl3, q, mu)
        assert res.accepted and res.residual < 1e-9
        assert res.frozen_residual < 1e-8
        assert res.identity_residual < 1e-10


def test_freezing_su21_with_central(su21, rng):
    mu = orbits.xi_red(su21, "bc", 1.0, 0.3)
    for _ in range(10):
        q = algebra.random_chamber_point(su21, rng)
        res = dynamics.freezing_solve(su21, q, mu)
        assert res.accepted and res.frozen_residual < 1e-8


def test_freezing_identity_434(su32, rng):
    # the commutator identity behind the solve holds for any M-perp element
    for _ in range(5):
        q = algebra.random_chamber_point(su32, rng)
        Z = np.einsum("j,jab->ab", rng.standard_normal(su32.K), su32.eplus)
        res = dynamics.freezing_solve(su32, q, Z)
        assert res.identity_residual < 1e-10


def test_freezing_generic_spin_logged(su22, rng):
    # genericity expectation only: record the outcome, no hard assertion
    spec = OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2)
    outcomes = []
    for _ in range(5):
        mu = orbits.random_slice_spin(su22, spec, rng)
        q = algebra.random_chamber_point(su22, rng)
        res = dynamics.freezing_solve(su22, q, mu)
        outcomes.append((res.accepted, res.residual))
    print("generic-spin freezing outcomes (accepted, residual):", outcomes)


# ---------------------------------------------------------------------------
# Projection flow
# ---------------------------------------------------------------------------

def test_flow_projection_t0_recovers_point(su22, rng):
    pt = generic_su22_point(su22, rng)
    out = dynamics.flow_projection(su22, pt, 1e-12)
    assert np.abs(out.q - pt.q).max() < 1e-9
    assert np.abs(out.p - pt.p).max() < 1e-9
    # the spin comes back in some residual M-gauge: compare M-invariant data
    for got, want in zip(dynamics._block_spectra_ref(su22, out.xi.xi),
                         dynamics._block_spectra_ref(su22, pt.xi.xi)):
        assert np.abs(got - want).max() < 1e-6


def test_flow_projection_free_motion(su22):
    q0, p0 = np.array([2.0, 0.8]), np.array([0.15, -0.1])
    pt = dynamics.make_phase_point(su22, q0, p0)
    for t in (0.5, 2.0, 6.0):
        out = dynamics.flow_projection(su22, pt, t)
        assert np.abs(out.q - (q0 + t * p0)).max() < 1e-10
        assert np.abs(out.p - p0).max() < 1e-10


def test_projection_wall_contact_between_samples(su22):
    # free motion through the q1 = q2 wall at t = 5/6; every sample is in
    # the chamber, the t = 1 one as the Weyl reflection of the free path
    pt = dynamics.make_phase_point(su22, np.array([1.5, 1.0]), np.array([-0.3, 0.3]))
    times = np.linspace(0.0, 2.0, 5)
    with pytest.raises(algebra.WallProximityError):
        dynamics.projection_trajectory(su22, pt, times)
    traj = dynamics.projection_trajectory(su22, pt, times, on_wall="truncate")
    assert traj.wall_time == 0.5
    assert traj.times.tolist() == [0.0, 0.5]


@pytest.mark.parametrize("kappa", [0.05, 0.0])
def test_projection_bounce_or_wall_contact_matches_direct(sl3, kappa, monkeypatch):
    # q1 - q2 turns around between the samples; the transverse momentum
    # makes the speed bound loose, so the exact flow is searched.  A weak
    # barrier (kappa = 0.05) turns it at 0.16; free motion hits the wall
    xi = orbits.xi_red(sl3, "kks", kappa) if kappa else orbits.zero_spin(sl3)
    pt = dynamics.make_phase_point(sl3, np.array([1.0, 0.2, -1.2]),
                                   np.array([0.7, 1.3, -2.0]), xi)
    searches = count_calls(monkeypatch, scipy.optimize, "minimize_scalar")
    traj = dynamics.projection_trajectory(sl3, pt, np.linspace(0.0, 2.0, 3),
                                          on_wall="truncate")
    assert searches
    direct = dynamics.integrate_direct(sl3, pt, 2.0, tol=1e-10, sample_dt=1.0,
                                       on_wall="truncate")
    assert traj.wall_time == direct.wall_time
    assert traj.times.tolist() == direct.times.tolist()


@pytest.mark.parametrize("case", ["su21_spin", "su22_spin", "su22_spinless"])
def test_cross_integrator_agreement(case, su21, su22, rng):
    if case == "su21_spin":
        sp, xi = su21, orbits.xi_red(su21, "bc", 1.0, 0.3)
        q0, p0 = np.array([1.1]), np.array([0.25])
    elif case == "su22_spin":
        sp = su22
        xi = orbits.random_slice_spin(
            su22, OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2), rng)
        q0, p0 = np.array([1.7, 0.7]), np.array([0.3, -0.2])
    else:
        sp, xi = su22, orbits.zero_spin(su22)
        q0, p0 = np.array([1.7, 0.7]), np.array([0.3, 0.05])
    pt = dynamics.make_phase_point(sp, q0, p0, xi)
    dt = 0.5
    traj = dynamics.integrate_direct(sp, pt, 5.0, tol=1e-10, sample_dt=dt,
                                     lax_x=(0.0, 1.0))
    specs = (InvariantSpec("trace_power", 2, 1.0),
             InvariantSpec("block_invariant", 1, 0.5))
    ptraj = dynamics.projection_trajectory(sp, pt, traj.times, lax_x=(0.0, 1.0),
                                           invariants=specs)
    dtraj_inv = dynamics._attach_monitors(sp, traj.times, traj.points,
                                          (0.0, 1.0), specs)
    for i in range(len(traj.times)):
        assert np.abs(traj.points[i].q - ptraj.points[i].q).max() < 1e-6
        assert np.abs(traj.points[i].p - ptraj.points[i].p).max() < 1e-6
    assert np.abs(dtraj_inv.energy - ptraj.energy).max() < 1e-6
    for label in ptraj.invariants:
        assert np.abs(dtraj_inv.invariants[label] - ptraj.invariants[label]).max() < 1e-6
    for x in (0.0, 1.0):
        assert np.abs(dtraj_inv.lax_spectra[x] - ptraj.lax_spectra[x]).max() < 1e-6


def test_cross_integrator_sl3_through_sign_change(sl3):
    # exercises the gauge recovery when a flat coordinate crosses zero
    mu = orbits.xi_red(sl3, "kks", 0.8)
    q0 = np.array([1.3, 0.1, -1.4])
    q0 -= q0.mean()
    p0 = np.array([-0.3, 0.05, 0.25])
    p0 -= p0.mean()
    pt = dynamics.make_phase_point(sl3, q0, p0, mu)
    traj = dynamics.integrate_direct(sl3, pt, 6.0, tol=1e-10, sample_dt=0.5,
                                     lax_x=(0.0, 1.0))
    ptraj = dynamics.projection_trajectory(sl3, pt, traj.times, lax_x=(0.0, 1.0))
    for i in range(len(traj.times)):
        assert np.abs(traj.points[i].q - ptraj.points[i].q).max() < 1e-6
        assert np.abs(traj.points[i].p - ptraj.points[i].p).max() < 1e-6
    for x in (0.0, 1.0):
        assert np.abs(traj.lax_spectra[x] - ptraj.lax_spectra[x]).max() < 1e-6


def test_projection_flows_commute(su22, sl3, rng):
    # all full-invariant generators Poisson-commute, so their projection
    # flows must compose in either order up to gauge
    f2 = InvariantSpec("trace_power", 2)
    cases = []
    xi = orbits.random_slice_spin(
        su22, OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2), rng)
    cases.append((su22, dynamics.make_phase_point(
        su22, np.array([1.2, 0.5]), np.array([0.1, -0.05]), xi),
        InvariantSpec("trace_power", 4)))
    mu = orbits.xi_red(sl3, "kks", 0.8)
    q0 = np.array([1.0, 0.1, -1.1])
    q0 -= q0.mean()
    cases.append((sl3, dynamics.make_phase_point(
        sl3, q0, np.array([0.1, 0.0, -0.1]), mu),
        InvariantSpec("trace_power", 3)))
    for space, pt, fk in cases:
        a = dynamics.flow_projection(
            space, dynamics.flow_projection(space, pt, 0.5, fk), 0.8, f2)
        b = dynamics.flow_projection(
            space, dynamics.flow_projection(space, pt, 0.8, f2), 0.5, fk)
        # the higher flow must actually move the configuration
        moved = dynamics.flow_projection(space, pt, 0.5, fk)
        assert np.abs(moved.q - pt.q).max() > 1e-3
        assert np.abs(a.q - b.q).max() < 1e-9
        assert np.abs(a.p - b.p).max() < 1e-9
        La = dynamics.sorted_spectrum(dynamics.lax(space, a, 1.0))
        Lb = dynamics.sorted_spectrum(dynamics.lax(space, b, 1.0))
        assert np.abs(La - Lb).max() < 1e-9


def test_odd_trace_flow_fixes_configuration_su(su22, rng):
    # on su(m,n) the odd trace invariants have vanishing flat gradient
    # component on the constraint surface: their flows act on the internal
    # variables only
    xi = orbits.random_slice_spin(
        su22, OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2), rng)
    pt = dynamics.make_phase_point(su22, np.array([1.2, 0.5]),
                                   np.array([0.1, -0.05]), xi)
    up = orbits.build_slice_point(su22, pt.q, pt.p, pt.xi)
    K1 = up.j_minus - pt.xi.xi
    g3 = dynamics.gradient(su22, InvariantSpec("trace_power", 3), K1)
    assert np.abs(algebra.coords_of(su22, algebra.project(su22, g3, "a"))).max() < 1e-12
    out = dynamics.flow_projection(su22, pt, 0.7, InvariantSpec("trace_power", 3))
    assert np.abs(out.q - pt.q).max() < 1e-9
    assert np.abs(out.p - pt.p).max() < 1e-9


def test_sutherland_two_body_scattering(sl2):
    # hyperbolic two-body scattering: incoming particles repel and separate;
    # q(t) is asymptotically linear with speed set by the conserved energy
    xi = orbits.xi_red(sl2, "kks", 1.0)
    q0 = np.array([0.7, -0.7])
    p0 = np.array([-0.45, 0.45])
    pt = dynamics.make_phase_point(sl2, q0, p0, xi)
    traj = dynamics.integrate_direct(sl2, pt, 14.0, tol=1e-10, sample_dt=1.0)
    H = dynamics.hamiltonian(sl2, pt)
    p_end = traj.points[-1].p
    # potential has decayed: all kinetic energy is back
    assert abs(0.5 * np.dot(p_end, p_end) - H) < 1e-6
    # outgoing: ordering preserved, velocities separated
    assert p_end[0] > 0 > p_end[1]
    # tail is linear in t: compare the last two samples against p_end
    dq = traj.points[-1].q - traj.points[-2].q
    assert np.abs(dq - p_end * 1.0).max() < 1e-4
    # projection method agrees through the scattering event
    for i, t in enumerate(traj.times):
        out = dynamics.flow_projection(sl2, pt, float(t)) if t else pt
        assert np.abs(out.q - traj.points[i].q).max() < 1e-6


# ---------------------------------------------------------------------------
# r-matrix and monitor
# ---------------------------------------------------------------------------

def test_r12_su21(su21):
    terms = dynamics.r12_build(su21, np.array([1.0]))
    assert len(terms) == su21.K == 3
    coths = sorted(c for c, _, _ in terms)
    expected = sorted([1 / math.tanh(1.0), 1 / math.tanh(1.0), 1 / math.tanh(2.0)])
    assert np.allclose(coths, expected)
    for c, left, right in terms:
        assert np.abs(algebra.project(su21, left, "mperp") - left).max() < 1e-14
        assert np.abs(algebra.project(su21, right, "aperp") - right).max() < 1e-14


def test_r12_term_count_su32(su32, rng):
    q = algebra.random_chamber_point(su32, rng)
    assert len(dynamics.r12_build(su32, q)) == sum(su32.mult)


def test_monitor_single_sample_zero_drift(su22, rng):
    pt = generic_su22_point(su22, rng)
    traj = dynamics._attach_monitors(su22, np.array([0.0]), [pt], (0.0, 1.0),
                                     (InvariantSpec("trace_power", 2, 1.0),))
    rep = dynamics.monitor(su22, traj)
    assert rep["energy"] == 0.0
    assert all(v == 0.0 for v in rep["lax_spectra"].values())
    assert all(v == 0.0 for v in rep["invariants"].values())
