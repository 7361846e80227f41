"""Tests for the reduced dynamics: energy, Lax matrices, integrators,
invariant brackets, freezing gauge and the r-matrix."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spincal import algebra, checks, dynamics, models, orbits
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


FREE_SPACES = {spec: algebra.build_space(spec) for spec in (
    [algebra.SpaceSpec.su(m, n) for m in range(1, 5) for n in range(1, m + 1) if m + n <= 5]
    + [algebra.SpaceSpec.sl(k) for k in (2, 3, 4)])}


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(list(FREE_SPACES)), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(0.05, 20.0), size=st.integers(1, 4))
@example(spec=algebra.SpaceSpec.su(1, 1), seed=0, scale=1.0, size=3)
def test_zero_spin_is_free_motion(spec, seed, scale, size):
    # zero spin takes no branch of its own: the general formulas give the
    # free values bit for bit, on one point and on a stack of them; an empty
    # M (su(1,1)) decomposes to zero M-coefficients per matrix
    space = FREE_SPACES[spec]
    rng = np.random.default_rng(seed)
    q = scale * np.array([algebra.random_chamber_point(space, rng) for _ in range(size)])
    p = rng.standard_normal(q.shape)
    if spec.family == "sl_kc":
        p -= p.mean(axis=1, keepdims=True)
    x = rng.standard_normal(size)
    xi = orbits.zero_spin(space)
    xis = orbits.SpinPoint(xi=np.broadcast_to(xi.xi, (size, space.N, space.N)),
                           coeffs=np.broadcast_to(xi.coeffs, (size, space.K)), on_slice=True)
    pt, pts = (dynamics.make_phase_point(space, q[0], p[0], xi),
               dynamics.make_phase_point(space, q, p, xis))
    P = algebra.embed(space, p)
    assert dynamics.hamiltonian(space, pt) == 0.5 * algebra.row_dots(p[0], p[0])
    assert np.array_equal(dynamics.hamiltonian(space, pts), 0.5 * algebra.row_dots(p, p))
    assert np.array_equal(dynamics.lax(space, pt, x[0]), P[0])
    assert np.array_equal(dynamics.lax(space, pts, x[0]), P)
    assert np.array_equal(dynamics.lax(space, pts, x), P)
    assert np.array_equal(dynamics.lax_cal(space, pt), P[0])
    assert np.array_equal(orbits.build_slice_point(space, q[0], p[0], xi).j_minus, P[0])
    moved = dynamics.flow_projection(space, pt, 0.01)
    assert not moved.xi.xi.any() and not moved.xi.coeffs.any()

    X = np.array([algebra.random_algebra_element(space, rng) for _ in range(size)])
    parts = algebra.decompose(space, X)
    assert parts[1].shape == (size, space.dim_m)
    assert np.abs(algebra.reconstruct(space, *parts) - X).max() <= 1e-12


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

    def recording(self, t, Y):
        states.extend(Y.copy())  # one state per row
        return rhs(self, t, Y)

    with mock.patch.object(dynamics._DirectSystem, "__call__", recording):
        dynamics.integrate_direct(space, pt, 1e-3, sample_dt=1e-3)
    nc = space.n_coords
    assert {y.size for y in states} == {2 * nc + space.K}
    dy, = rhs(dynamics._DirectSystem(space, "zero"), np.zeros(1), states[0][None])
    ref = dynamics.eom_rhs(space, pt)
    dc_ref = -np.einsum("ab,jba->j", ref.dxi, space.eplus).real
    for got, want in ((dy[:nc], ref.dq), (dy[nc:2 * nc], ref.dp), (dy[2 * nc:], dc_ref)):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@settings(max_examples=30, deadline=None)
@given(label=st.sampled_from(sorted(CORE_SPACES)), seed=st.integers(0, 2 ** 32 - 1),
       x=st.sampled_from([0.0, 0.5, 1.0]))
def test_lax_coefficient_scaling_matches_ad_fn(label, seed, x):
    # on-slice spin: coth(ad_q) xi by scaling coefficients, no algebra.ad_fn call
    space = CORE_SPACES[label]
    pt = checks.random_phase_point(space, np.random.default_rng(seed))
    with mock.patch.object(algebra, "ad_fn", wraps=algebra.ad_fn) as ad_fn:
        got = dynamics.lax(space, pt, x)
        assert ad_fn.call_count == 0
    want = (algebra.embed(space, pt.p) - algebra.ad_fn(space, "coth", pt.q, pt.xi.xi)
            - x * pt.xi.xi)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.linalg.norm(want))


@settings(max_examples=40, deadline=None)
@given(label=st.sampled_from(sorted(CORE_SPACES)), seed=st.integers(0, 2 ** 32 - 1),
       phi=st.sampled_from(sorted(algebra.PHI_FUNCTIONS)))
def test_ad_fn_slice_matches_ad_fn(label, seed, phi):
    space = CORE_SPACES[label]
    pt = checks.random_phase_point(space, np.random.default_rng(seed))
    got = algebra.ad_fn_slice(space, phi, pt.q, pt.xi.coeffs)
    want = algebra.ad_fn(space, phi, pt.q, pt.xi.xi)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@settings(max_examples=30, deadline=None)
@given(label=st.sampled_from(sorted(CORE_SPACES)), seed=st.integers(0, 2 ** 32 - 1))
def test_lax_is_the_slice_lift(label, seed):
    # the closed form flow_projection and bracket_pairings rely on: on the zero set
    # of the momentum map J_minus = L(0) and J_minus + tanh(ad_q) J_minus = L(1)
    space = CORE_SPACES[label]
    pt = checks.random_phase_point(space, np.random.default_rng(seed))
    j_minus = orbits.build_slice_point(space, pt.q, pt.p, pt.xi).j_minus
    j0 = j_minus + algebra.ad_fn(space, "tanh", pt.q, j_minus)
    assert np.abs(dynamics.lax(space, pt, 0.0) - j_minus).max() <= 1e-12
    assert np.abs(dynamics.lax(space, pt, 1.0) - j0).max() <= 1e-12


@pytest.mark.parametrize("label", sorted(CORE_SPACES))
def test_flat_basis_round_trip_matches_reconstruct(label):
    # the spin restoration of integrate_direct builds xi and reads c+ back
    # through the flat basis instead of algebra.reconstruct / decompose
    space = CORE_SPACES[label]
    sys = dynamics._DirectSystem(space, "zero")
    rng = np.random.default_rng(7)
    for _ in range(5):
        pt = checks.random_phase_point(space, rng)
        c = pt.xi.coeffs
        xi = sys.spin(c)
        assert np.abs(xi - algebra.reconstruct(space, cplus=c)).max() <= 1e-14
        # restore the spectrum of a perturbed spin, as after a step
        drifted = sys.spin(c + 1e-9 * rng.standard_normal(c.size))
        fixed = dynamics._restore_block_spectra(space, drifted,
                                                dynamics._block_spectra_ref(space, xi))
        got = sys.spin_coeffs(fixed)
        assert np.abs(got - algebra.decompose(space, fixed)[2]).max() <= 1e-14


def test_dormand_prince_tableau():
    A = dynamics._DP_A
    assert A.shape == (7, 7)
    assert not np.triu(A).any()  # explicit: stage i uses stages < i only
    assert np.abs(A.sum(axis=1) - dynamics._DP_C).max() <= 1e-15
    assert abs(dynamics._DP_B5.sum() - 1.0) <= 1e-15
    assert abs(dynamics._DP_B4.sum() - 1.0) <= 1e-15
    # first same as last: the seventh stage is taken at y5
    assert np.array_equal(A[6], dynamics._DP_B5) and dynamics._DP_C[6] == 1.0


def count_rhs_calls(space, pt, **kwargs):
    """RHS evaluations of one run: the rows of every right-hand-side call."""
    rhs = dynamics._DirectSystem.__call__
    rows = []

    def counted(self, t, Y):
        rows.append(len(Y))
        return rhs(self, t, Y)

    with mock.patch.object(dynamics._DirectSystem, "__call__", counted):
        traj = dynamics.integrate_direct(space, pt, **kwargs)
    return sum(rows), traj


def test_fsal_only_where_the_state_is_not_restored(su32, su22, rng):
    # freezing gauge: the last stage of a step is the next one's first
    mu = orbits.xi_red(su32, "bc", 3.0, 1.0)
    pt = dynamics.make_phase_point(su32, np.array([2.0, 1.0]), np.array([0.1, -0.2]), mu)
    n_calls, traj = count_rhs_calls(su32, pt, t_end=3.0, tol=1e-10, sample_dt=0.5,
                                    gauge="freeze")
    assert traj.n_steps > 0
    assert n_calls < 7 * traj.n_steps
    # zero gauge: the spectrum restoration changes y5, so every step
    # evaluates its first stage afresh
    n_calls, traj = count_rhs_calls(su22, generic_su22_point(su22, rng), t_end=1.0,
                                    tol=1e-10, sample_dt=0.5)
    assert traj.n_steps > 0 and traj.orbit_drift > 0.0
    assert n_calls >= 7 * traj.n_steps


def member_point(space, seed, near_wall, free):
    """A random point, with zero spin if ``free``.  Near the wall, q is
    scaled so that its smallest root value is at most 0.05: a spin barrier
    makes the start stiff, free motion often reaches the wall."""
    rng = np.random.default_rng(seed)
    pt = checks.random_phase_point(space, rng)
    q = pt.q * min(1.0, 0.05 / algebra.min_root_value(space, pt.q)) if near_wall else pt.q
    return dynamics.make_phase_point(space, q, pt.p, None if free else pt.xi)


def assert_same_run(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.n_steps == want.n_steps and len(got) == len(want)
    assert (got.wall_time is None) == (want.wall_time is None)
    if want.wall_time is not None:
        assert abs(got.wall_time - want.wall_time) <= 1e-12 * max(1.0, want.wall_time)
    got_states, want_states = (packed(tr) for tr in (got, want))
    for a, b in ((got_states, want_states), (got.energy, want.energy),
                 (got.times, want.times)):
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


@settings(max_examples=40, deadline=None)
@given(label=st.sampled_from(sorted(CORE_SPACES)), seed=st.integers(0, 2 ** 32 - 1),
       size=st.integers(2, 5), near_wall=st.lists(st.booleans(), min_size=5, max_size=5),
       free=st.lists(st.booleans(), min_size=5, max_size=5), order=st.permutations(range(5)))
def test_batch_members_match_single_runs(label, seed, size, near_wall, free, order):
    # every member of a batch, free or spinning, in the given order and
    # shuffled, is its own integrate_direct run to roundoff, with the same
    # accepted steps
    space = CORE_SPACES[label]
    pts = [member_point(space, seed + i, near_wall[i], free[i]) for i in range(size)]
    kwargs = dict(tol=1e-10, sample_dt=0.25, on_wall="truncate")
    singles = []
    for pt in pts:
        try:
            singles.append(dynamics.integrate_direct(space, pt, 1.0, **kwargs))
        except algebra.StepSizeError as exc:
            singles.append(exc)
    for got, want in zip(dynamics.integrate_direct_batch(space, pts, 1.0, **kwargs), singles):
        assert_same_run(got, want)
    shuffled = [i for i in order if i < size]
    batch = dynamics.integrate_direct_batch(space, [pts[i] for i in shuffled], 1.0, **kwargs)
    for i, got in zip(shuffled, batch):
        assert_same_run(got, singles[i])


# a start and a freezable catalog spin per space of the sample-grid tests
GRID_STARTS = {
    "su(2,2)": ((1.6, 0.7), ("c", 1.0, 0.7)),
    "su(3,2)": ((2.0, 1.0), ("bc", 3.0, 1.0)),
    "su(6,3)": ((6.0, 4.5, 3.0), ("d", 1.0)),
    "sl(3,C)": ((1.0, 0.0, -1.0), ("kks", 0.8)),
}


def grid_start(label, gauge):
    space = CORE_SPACES[label]
    q, catalog = GRID_STARTS[label]
    pt = checks.random_phase_point(space, np.random.default_rng(5))
    xi = orbits.xi_red(space, *catalog) if gauge == "freeze" else pt.xi
    return space, dynamics.make_phase_point(space, np.array(q), pt.p, xi)


def packed(traj):
    return np.column_stack([traj.path.q, traj.path.p, traj.path.xi.coeffs])


@pytest.mark.parametrize("gauge", ["zero", "freeze"])
@pytest.mark.parametrize("label", sorted(GRID_STARTS))
def test_steps_do_not_depend_on_the_sample_grid(label, gauge):
    # the samples come from the continuous extension: a finer grid takes the
    # same steps and gives the same bits at the times both grids hold
    space, pt = grid_start(label, gauge)
    coarse, fine = (dynamics.integrate_direct(space, pt, 2.0, sample_dt=dt, gauge=gauge)
                    for dt in (0.5, 0.25))
    assert coarse.n_steps == fine.n_steps > 0
    assert coarse.times.tolist() == fine.times[::2].tolist()
    assert packed(coarse).tobytes() == packed(fine)[::2].tobytes()
    assert coarse.energy.tobytes() == fine.energy[::2].tobytes()


@pytest.mark.parametrize("gauge", ["zero", "freeze"])
@pytest.mark.parametrize("label", sorted(GRID_STARTS))
def test_continuous_extension_matches_runs_ending_at_the_samples(label, gauge):
    # a sample between step ends against a run whose last step ends there
    space, pt = grid_start(label, gauge)
    traj = dynamics.integrate_direct(space, pt, 2.0, sample_dt=0.5, gauge=gauge)
    states = packed(traj)
    for t_k, state in zip(traj.times[1:], states[1:]):
        end = packed(dynamics.integrate_direct(space, pt, t_k, sample_dt=t_k, gauge=gauge))[-1]
        assert np.abs(state - end).max() <= 1e-8 * max(1.0, np.abs(end).max())


def test_batch_mixes_free_and_spinning_members(su22, rng):
    # a zero spin is an ordinary member: next to a generic spin it takes the
    # steps of its own run, and its spin stays zero with nothing to restore
    pts = [generic_su22_point(su22, rng),
           dynamics.make_phase_point(su22, np.array([1.6, 0.7]), np.array([0.1, 0.0]))]
    kwargs = dict(tol=1e-10, sample_dt=0.25)
    batch = dynamics.integrate_direct_batch(su22, pts, 2.0, **kwargs)
    alone = [dynamics.integrate_direct(su22, pt, 2.0, **kwargs) for pt in pts]
    for got, want in zip(batch, alone):
        assert got.n_steps == want.n_steps > 0
        assert_same_run(got, want)
    assert batch[0].orbit_drift > 0.0
    assert batch[1].orbit_drift == 0.0 and not batch[1].path.xi.xi.any()
    # free motion rounds alike in both: q, p and the energy are its own bits
    assert np.array_equal(packed(batch[1]), packed(alone[1]))
    assert np.array_equal(batch[1].energy, alone[1].energy)


def test_batch_failures_stay_per_member(su22, rng):
    # a member aimed at a wall and a member whose certificate fails return
    # their exceptions; the others are unchanged by them
    free = [dynamics.make_phase_point(su22, np.array([1.5, 1.0]), np.array([-0.3, 0.3])),
            dynamics.make_phase_point(su22, np.array([2.0, 0.8]), np.array([0.15, -0.1]))]
    wall, ok = dynamics.integrate_direct_batch(su22, free, 4.0, sample_dt=0.5)
    assert isinstance(wall, algebra.WallProximityError)
    alone = dynamics.integrate_direct(su22, free[1], 4.0, sample_dt=0.5)
    assert ok.n_steps == alone.n_steps
    generic = generic_su22_point(su22, rng)
    spins = [generic, dynamics.make_phase_point(su22, generic.q, generic.p,
                                                orbits.xi_red(su22, "d", 1.5))]
    # far out a generic spin passes the pointwise solve, not the certificate
    far = dynamics.make_phase_point(su22, np.array([30.0, 10.0]), generic.p, generic.xi)
    assert dynamics.freezing_solve(su22, far.q, far.xi).accepted
    failed, frozen, far_failed = dynamics.integrate_direct_batch(
        su22, spins + [far], 1.0, sample_dt=0.5, gauge="freeze")
    for exc in (failed, far_failed):
        assert isinstance(exc, algebra.FreezeCertificateError)
        assert str(exc).startswith("no freezing gauge on the chamber: root ")
    assert frozen.n_steps > 0 and frozen.freeze_residual < 1e-8


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
    for t, q, p in zip(traj.times, traj.path.q, traj.path.p):
        assert np.abs(q - (q0 + t * p0)).max() < 1e-12
        assert np.abs(p - p0).max() < 1e-12


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
    for xi_t in traj.path.xi.xi:
        assert np.abs(xi_t - xi.xi).max() < 1e-7


def count_calls(monkeypatch, module, name):
    """The positional arguments of each call of module.name, in call order."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_freeze_gauge_certifies_constant_spin(su32, monkeypatch):
    # one certificate per member before the first step, no pointwise solve
    mu = orbits.xi_red(su32, "bc", 3.0, 1.0)
    pt = dynamics.make_phase_point(su32, np.array([2.0, 1.0]), np.array([0.1, -0.2]), mu)
    solves = count_calls(monkeypatch, dynamics, "freezing_solve")
    certificates = count_calls(monkeypatch, dynamics, "FreezeCertificate")
    rhs = dynamics._DirectSystem.__call__

    def no_solve_while_stepping(self, t, Y):
        assert not solves and len(certificates) == 2
        return rhs(self, t, Y)

    with mock.patch.object(dynamics._DirectSystem, "__call__", no_solve_while_stepping):
        pair = dynamics.integrate_direct_batch(su32, [pt, pt], 3.0, sample_dt=0.5,
                                               gauge="freeze")
    traj = dynamics.integrate_direct(su32, pt, 3.0, tol=1e-10, sample_dt=0.5,
                                     gauge="freeze")
    assert len(solves) == 0 and len(certificates) == 3
    assert traj.n_steps > 0 and all(t.n_steps == traj.n_steps for t in pair)
    for coeffs in traj.path.xi.coeffs:
        assert coeffs.tobytes() == mu.coeffs.tobytes()
    assert traj.m_drift == 0.0 and traj.orbit_drift == 0.0
    assert traj.freeze_residual < 1e-8
    zero = dynamics.integrate_direct(su32, pt, 0.5, tol=1e-10, sample_dt=0.5)
    assert zero.freeze_residual is None


def test_freeze_sample_check_fails_its_member_alone(su32, monkeypatch):
    # the N x N check at the samples: a member with a sample past its bound
    # fails, naming the sample; the other member is unchanged
    mu = orbits.xi_red(su32, "bc", 3.0, 1.0)
    pts = [dynamics.make_phase_point(su32, np.array([q1, 1.0]), np.array([0.1, -0.2]), mu)
           for q1 in (2.0, 3.0)]
    at = dynamics.FreezeCertificate.at

    def last_sample_fails_from_q1_3(self, qs):
        y_m, linear, frozen, ok = at(self, qs)
        if qs[0, 0] == 3.0:
            frozen[-1], ok[-1] = 1.0, False
        return y_m, linear, frozen, ok

    monkeypatch.setattr(dynamics.FreezeCertificate, "at", last_sample_fails_from_q1_3)
    ok, failed = dynamics.integrate_direct_batch(su32, pts, 1.0, sample_dt=0.5, gauge="freeze")
    assert str(failed).startswith("no freezing gauge at the sample t = 1 (linear residual ")
    assert str(failed).endswith(", frozen residual 1.000e+00)")
    assert ok.freeze_residual < 1e-8 and len(ok) == 3


def test_freeze_gauge_rejects_generic_spin(su22, rng):
    pt = generic_su22_point(su22, rng)
    with pytest.raises(algebra.AdmissibilityError):
        dynamics.integrate_direct(su22, pt, 1.0, tol=1e-10, sample_dt=0.5,
                                  gauge="freeze")


def sample_point(path, i):
    """Sample i of a stacked path as a point of its own."""
    xi = orbits.SpinPoint(xi=path.xi.xi[i], coeffs=path.xi.coeffs[i], on_slice=True)
    return dynamics.PhasePoint(q=path.q[i], p=path.p[i], xi=xi)


def stack_points(pts):
    """The points pts as one stacked point."""
    xi = orbits.SpinPoint(xi=np.array([pt.xi.xi for pt in pts]),
                          coeffs=np.array([pt.xi.coeffs for pt in pts]), on_slice=True)
    return dynamics.PhasePoint(q=np.array([pt.q for pt in pts]),
                               p=np.array([pt.p for pt in pts]), xi=xi)


def monitor_specs(space):
    specs = [InvariantSpec("trace_power", 2, 0.5), InvariantSpec("trace_power", 3, 1.0)]
    if space.spec.family == "su_mn":
        specs += [InvariantSpec("block_invariant", 1, 0.5),
                  InvariantSpec("block_invariant", 2, -1.0)]
    return tuple(specs)


# a freezable catalog spin per space of the monitor tests
MONITOR_CATALOG = {"su(2,2)": ("c", 1.0, 0.7), "su(6,3)": ("d", 1.0), "sl(4,C)": ("kks", 0.8)}
# direct zero-gauge orbit runs keep their space's label as the test id
MONITOR_RUNS = [pytest.param(label, kind, id=label if kind == "orbit" else f"{label}-{kind}")
                for kind in ("orbit", "catalog", "free", "projection")
                for label in sorted(MONITOR_CATALOG)]


@pytest.mark.parametrize("label, kind", MONITOR_RUNS)
def test_monitor_spectra_equal_per_sample_eigvals(label, kind):
    # the monitors of the stacked path give the bits of per-sample calls:
    # one stacked eigvals per x those of sorted_spectrum, and the energy and
    # every invariant those of hamiltonian and invariant_value on each sample
    space = CORE_SPACES[label]
    pt = checks.random_phase_point(space, np.random.default_rng(4))
    if kind == "catalog":
        pt = dynamics.make_phase_point(space, pt.q, pt.p,
                                       orbits.xi_red(space, *MONITOR_CATALOG[label]))
    elif kind == "free":
        pt = dynamics.make_phase_point(space, pt.q, pt.p)
    specs = monitor_specs(space)
    kwargs = dict(lax_x=(0.0, 0.5, 1.0), invariants=specs, on_wall="truncate")
    if kind == "projection":
        traj = dynamics.projection_trajectory(space, pt, np.linspace(0.0, 1.0, 9), **kwargs)
    else:
        traj = dynamics.integrate_direct(space, pt, 1.0, tol=1e-10, sample_dt=0.125,
                                         gauge="freeze" if kind == "catalog" else "zero",
                                         **kwargs)
    assert traj.path.q.shape == (len(traj), space.n_coords)
    assert traj.path.xi.xi.shape == (len(traj), space.N, space.N)
    samples = [sample_point(traj.path, i) for i in range(len(traj))]
    for x, spectra in traj.lax_spectra.items():
        per_sample = [dynamics.sorted_spectrum(dynamics.lax(space, p, 0.0) - x * p.xi.xi)
                      for p in samples]
        assert spectra.tobytes() == dynamics._match_spectra(np.array(per_sample)).tobytes()
    energy = [dynamics.hamiltonian(space, p) for p in samples]
    assert traj.energy.tobytes() == np.array(energy).tobytes()
    for spec in specs:
        values = [dynamics.invariant_value(space, spec,
                                           dynamics.lax(space, p, 0.0) - spec.x * p.xi.xi)
                  for p in samples]
        assert traj.invariants[spec.label()].tobytes() == np.array(values).tobytes()


@pytest.mark.parametrize("label", ["su(2,2)", "su(3,2)", "su(6,3)", "sl(4,C)"])
def test_stacked_eom_rhs_and_invariants_equal_per_point_calls(label):
    # one call on 20 stacked draws gives the bits of a call on each draw
    space = CORE_SPACES[label]
    rng = np.random.default_rng(9)
    pts = [checks.random_phase_point(space, rng) for _ in range(20)]
    stacked = stack_points(pts)
    rhs = dynamics.eom_rhs(space, stacked)
    assert rhs.m_part_norm.shape == (20,)
    for i, pt in enumerate(pts):
        want = dynamics.eom_rhs(space, pt)
        for name in ("dq", "dp", "dxi", "m_part_norm"):
            assert np.asarray(getattr(rhs, name)[i]).tobytes() == \
                np.asarray(getattr(want, name)).tobytes(), name
    for spec in monitor_specs(space):
        got = dynamics.invariant_value(space, spec, dynamics.lax(space, stacked, spec.x))
        want = [dynamics.invariant_value(space, spec, dynamics.lax(space, pt, spec.x))
                for pt in pts]
        assert got.tobytes() == np.array(want).tobytes()


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, len(models.CATALOG) - 1), seed=st.integers(0, 2 ** 32 - 1),
       t=st.floats(-5.0, 5.0))
def test_expm_matches_scipy_on_projection_generators(index, seed, t):
    # flow_projection's exp(t grad f(L(1))) for f = tr X^2 / 2 on the catalog models
    space = CATALOG_SPACES[index]
    rng = np.random.default_rng(seed)
    q = algebra.random_chamber_point(space, rng)
    p = rng.standard_normal(space.n_coords)
    if space.spec.family == "sl_kc":
        p -= p.mean()
    pt = dynamics.make_phase_point(space, q, p, models.model_spin(space, models.CATALOG[index]))
    G = dynamics.gradient(space, InvariantSpec("trace_power", 2), dynamics.lax(space, pt, 1.0))
    want = scipy.linalg.expm(t * G)
    assert np.abs(orbits.expm(t * G) - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# Spectrum matching
# ---------------------------------------------------------------------------

def lsa_matching(spectra, reverse_slots=False):
    """Reference: each row laid out by scipy's optimal assignment against row
    0; ``reverse_slots`` solves the same problem with the reference slots in
    reverse order, which breaks exact ties the other way."""
    out = spectra.copy()
    last = spectra.shape[1] - 1
    for i in range(1, len(out)):
        cost = np.abs(spectra[i][:, None] - spectra[0])
        if reverse_slots:
            row, col = scipy.optimize.linear_sum_assignment(cost[:, ::-1])
            col = last - col
        else:
            row, col = scipy.optimize.linear_sum_assignment(cost)
        out[i, col] = spectra[i, row]
    return out


@st.composite
def spectra_rows(draw):
    """Reference spectra with exact repeats (a block of 0j, values drawn twice)
    and rows that move, swap, relocate, tie or flip the sign of zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_values = draw(st.integers(1, 6))
    imag = draw(st.sampled_from([0.0, 1.0]))
    pool = rng.standard_normal(n_values) + imag * 1j * rng.standard_normal(n_values)
    ref = np.concatenate([rng.choice(pool, draw(st.integers(1, 6))),
                          np.zeros(draw(st.integers(0, 3)), complex)])
    n = len(ref)
    rows = [ref]
    for _ in range(draw(st.integers(0, 5))):
        noise = draw(st.sampled_from([0.0, 1e-15, 1e-9, 0.05, 0.5, 2.0]))
        row = ref + noise * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        keep = rng.random(n) < 0.5  # some entries stay bitwise on their reference
        row[keep] = ref[keep]
        kind = draw(st.sampled_from(["plain", "relocate", "tie", "signed_zero"]))
        i, j, k = rng.integers(n, size=3)
        if kind == "relocate":  # an entry moves next to another reference value
            row[i] = ref[j] + 1e-9 * rng.standard_normal()
        elif kind == "tie":  # an entry on or an ulp-scale nudge off a midpoint
            nudge = draw(st.sampled_from([0.0, 1e-15, 1e-12]))
            row[i] = 0.5 * (ref[j] + ref[k]) + nudge * (ref[k] - ref[j])
        elif kind == "signed_zero":
            row[ref == 0] = -0j
        rows.append(row if draw(st.booleans()) else rng.permutation(row))
    return np.array(rows)


@settings(max_examples=500, deadline=None)
@given(spectra=spectra_rows())
def test_match_spectra_bits_equal_the_assignment_solver(spectra):
    want = lsa_matching(spectra)
    # a row whose optimal layouts differ in bits has no certificate: the
    # matcher must hand it to the solver, whose tie-breaking it reproduces
    other = lsa_matching(spectra, reverse_slots=True)
    ambiguous = np.any(other.view(np.int64) != want.view(np.int64), axis=1).sum()
    solver = scipy.optimize.linear_sum_assignment
    with mock.patch.object(scipy.optimize, "linear_sum_assignment", wraps=solver) as calls:
        got = dynamics._match_spectra(spectra)
    assert got.tobytes() == want.tobytes()
    assert calls.call_count >= ambiguous


def test_match_spectra_single_row_and_repeated_zeros():
    one = np.array([[1.0 + 0j, 0j, 0j, -2.0 + 0j]])
    assert dynamics._match_spectra(one).tobytes() == one.tobytes()
    rows = np.array([[1.0, 0.0, 0.0, -2.0], [0.0, 1.0 + 1e-12, -2.0, 0.0]], complex)
    got = dynamics._match_spectra(rows)
    assert got.tobytes() == lsa_matching(rows).tobytes()
    assert got[1].tobytes() == np.array([1.0 + 1e-12, 0.0, 0.0, -2.0], complex).tobytes()


@pytest.mark.parametrize("where", [(1, 1), (0, 2), (2, 0)])
def test_match_spectra_nan_raises_like_the_solver(where):
    spectra = np.array([[1.0, 2.0, 3.0], [1.1, 2.1, 2.9], [3.0, 2.0, 1.0]], complex)
    spectra[where] = np.nan
    with pytest.raises(ValueError) as want:
        lsa_matching(spectra)
    with pytest.raises(ValueError) as got:
        dynamics._match_spectra(spectra)
    assert str(got.value) == str(want.value)


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

def identity_434_residual(space, q, xi):
    """|[w^2(ad_q) xi, xi] - sinh(ad_q) [w(ad_q) xi, w'(ad_q) xi]| for
    w = 1/sinh, on N x N matrices through algebra.ad_fn."""
    d_inv_sinh = (lambda z: -np.cosh(z) / np.sinh(z) ** 2, "even", None)
    w = algebra.ad_fn(space, "inv_sinh", q, xi)
    wp = algebra.ad_fn(space, d_inv_sinh, q, xi)
    w2 = algebra.ad_fn(space, "inv_sinh_sq", q, xi)
    return np.linalg.norm(w2 @ xi - xi @ w2 - algebra.ad_fn(space, "sinh", q, w @ wp - wp @ w))


def test_freezing_kks(sl3, rng):
    mu = orbits.xi_red(sl3, "kks", 1.3)
    for _ in range(10):
        q = algebra.random_chamber_point(sl3, rng)
        res = dynamics.freezing_solve(sl3, q, mu)
        assert res.accepted and res.residual < 1e-9
        assert res.frozen_residual < 1e-8
        assert identity_434_residual(sl3, q, mu.xi) < 1e-10


def test_freezing_su21_with_central(su21, rng):
    mu = orbits.xi_red(su21, "bc", 1.0, 0.3)
    for _ in range(10):
        q = algebra.random_chamber_point(su21, rng)
        res = dynamics.freezing_solve(su21, q, mu)
        assert res.accepted and res.frozen_residual < 1e-8


def test_freezing_far_out_chamber_point(su21):
    # root values 400 and 800: cosh/sinh overflowed to NaN there before the
    # pole functions took their limits
    mu = orbits.xi_red(su21, "bc", 1.0, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dynamics.freezing_solve(su21, np.array([400.0]), mu)
    assert res.accepted and res.residual == 0.0


FAR_ALONG = [10.0, 18.0, 25.0, 30.0, 60.0, 400.0]


@pytest.mark.parametrize("model,q_rest", [(models.SpinlessModel("bc", 2, 3.0, 1.0), [1.0]),
                                          (models.SpinlessModel("c", 3, 2.0), [1.0, 0.5])],
                         ids=["bc-su32", "c-su33"])
def test_freezing_far_along_the_chamber(model, q_rest):
    # one particle drifts away from the others: the right-hand side shrinks
    # like 1/sinh^2 of the growing roots, and every point stays certified
    space = models.model_space(model)
    mu = models.model_spin(space, model)
    for q1 in FAR_ALONG:
        res = dynamics.freezing_solve(space, np.array([q1, *q_rest]), mu)
        assert res.accepted and res.frozen_residual < 1e-8, (q1, res.frozen_residual)


def test_lax_far_out_chamber_point(su32):
    # every root value is at least 100: coth is 1, L(x) = p - xi_A-perp - x xi
    xi = orbits.xi_red(su32, "bc", 3.0, 1.0)
    pt = dynamics.make_phase_point(su32, np.array([500.0, 100.0]), np.array([0.1, 0.2]), xi)
    K, N = su32.K, su32.N
    limit_form = (algebra.embed(su32, pt.p)
                  - (xi.coeffs @ su32.eminus.reshape(K, N * N)).reshape(N, N))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.0, 0.5, 1.0):
            L = dynamics.lax(su32, pt, x)
            assert np.all(np.isfinite(L))
            assert np.abs(L - (limit_form - x * xi.xi)).max() == 0.0
        assert dynamics.hamiltonian(su32, pt) == 0.5 * float(pt.p @ pt.p)
        assert np.all(np.isfinite(dynamics.eom_rhs(su32, pt).dp))


def test_freezing_identity_434(su32, rng):
    # [w^2(ad_q) Z, Z] = sinh(ad_q) [w(ad_q) Z, w'(ad_q) Z] for any M-perp element
    for _ in range(5):
        q = algebra.random_chamber_point(su32, rng)
        Z = np.einsum("j,jab->ab", rng.standard_normal(su32.K), su32.eplus)
        assert identity_434_residual(su32, q, Z) < 1e-10


def test_freezing_rejects_m_part(su22, rng):
    q = algebra.random_chamber_point(su22, rng)
    with pytest.raises(ValueError):
        dynamics.freezing_solve(su22, q, su22.m_basis[0])


def test_freeze_certificate_rejects_generic_orbit_spins(su22, rng):
    # a generic orbit spin leaves O(1) per-root residuals, although far out
    # the pointwise solve cannot tell: both of its residuals vanish there
    spec = OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2)
    for _ in range(5):
        mu = orbits.random_slice_spin(su22, spec, rng)
        assert dynamics.FreezeCertificate(su22, mu).root_residuals.max() > 0.1
        assert dynamics.freezing_solve(su22, np.array([30.0, 10.0]), mu).accepted


CATALOG_SPACES = [models.model_space(model) for model in models.CATALOG]


def freezing_reference(space, q, xi):
    """freezing_solve on N x N matrices: the frozen condition
    [y_M, xi] = [w^2(ad_q) xi, xi], with w^2(ad_q) through algebra.ad_fn and
    every M-perp part read by algebra.decompose."""
    w2 = algebra.ad_fn(space, "inv_sinh_sq", q, xi)
    rhs = algebra.decompose(space, w2 @ xi - xi @ w2)[2]
    cols = np.array([algebra.decompose(space, Mb @ xi - xi @ Mb)[2]
                     for Mb in space.m_basis]).reshape(space.dim_m, space.K).T
    z = np.linalg.lstsq(cols, rhs, rcond=None)[0]
    y_m = np.einsum("b,bij->ij", z, space.m_basis)
    return {"residual": np.linalg.norm(cols @ z - rhs), "y_m": y_m,
            "frozen_residual": np.linalg.norm((y_m - w2) @ xi - xi @ (y_m - w2))}


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, len(models.CATALOG) - 1), seed=st.integers(0, 2 ** 32 - 1),
       generic=st.booleans(), far=st.sampled_from([0.0, *FAR_ALONG]))
def test_freezing_solve_matches_matrix_reference(index, seed, generic, far):
    # the certificate and the solve at q against the N x N formulation, on
    # the catalog spins (certified on the whole chamber) and on random M-perp
    # elements of the same spaces (rejected, but on the rank-one spaces
    # su(2,1) and sl(2,C), where every M-perp spin freezes), with the first
    # particle moved ``far`` out along the chamber
    space = CATALOG_SPACES[index]
    rng = np.random.default_rng(seed)
    q = algebra.random_chamber_point(space, rng)
    q[0] += far
    if space.spec.family == "sl_kc":
        q -= q.mean()
    if generic:
        c = rng.standard_normal(space.K)
        mu = orbits.SpinPoint(xi=algebra.reconstruct(space, cplus=c), coeffs=c,
                              on_slice=True)
    else:
        mu = models.model_spin(space, models.CATALOG[index])
    cert = dynamics.FreezeCertificate(space, mu)
    assert (cert.root_residuals.max() < 1e-9) == (not generic or space.rank == 1)
    res = dynamics.freezing_solve(space, q, mu)
    ref = freezing_reference(space, q, mu.xi)
    for key in ("residual", "frozen_residual"):
        assert abs(getattr(res, key) - ref[key]) <= 1e-12 * max(1.0, ref[key]), key
    if not generic:
        assert res.accepted
    (y_m,), *_ = cert.at(q[None])
    assert np.abs(y_m - ref["y_m"]).max() <= 1e-12 * max(1.0, np.abs(ref["y_m"]).max())


def test_freezing_solve_reads_coefficients_only(monkeypatch, rng):
    decomposes = count_calls(monkeypatch, algebra, "decompose")
    ad_fns = count_calls(monkeypatch, algebra, "ad_fn")
    for model, space in zip(models.CATALOG, CATALOG_SPACES):
        mu = models.model_spin(space, model)
        decomposes.clear()
        assert dynamics.freezing_solve(space, algebra.random_chamber_point(space, rng),
                                       mu).accepted
        assert len(decomposes) == 0 and len(ad_fns) == 0


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
    # makes the speed bound loose, so the flow is bisected between samples.
    # A weak barrier (kappa = 0.05) turns it at 0.16; free motion hits the
    # wall, which the direct run locates where alpha = q1 - q2 reaches EPS_WALL
    xi = orbits.xi_red(sl3, "kks", kappa) if kappa else orbits.zero_spin(sl3)
    pt = dynamics.make_phase_point(sl3, np.array([1.0, 0.2, -1.2]),
                                   np.array([0.7, 1.3, -2.0]), xi)
    flows = count_calls(monkeypatch, dynamics, "_projection_at")
    traj = dynamics.projection_trajectory(sl3, pt, np.linspace(0.0, 2.0, 3),
                                          on_wall="truncate")
    assert [t for _, _, t in flows if 0.0 < t < 2.0 and t != 1.0]
    direct = dynamics.integrate_direct(sl3, pt, 2.0, tol=1e-10, sample_dt=1.0,
                                       on_wall="truncate")
    assert (traj.wall_time is None) == (direct.wall_time is None)
    if kappa == 0.0:
        assert abs(direct.wall_time - (0.8 - algebra.EPS_WALL) / 0.6) <= 1e-9
        assert direct.wall_time >= traj.wall_time
    assert traj.times.tolist() == direct.times.tolist()


def test_projection_catches_wall_without_turned_velocity(su22):
    # D model on su(2,2): the 2 e2 wall has no barrier, and the flow reaches
    # it at t = 1.17653, where the direct run stops, wholly between the
    # samples 0 and 2.  No root velocity turns from - to + across (0, 2), so
    # a search gated on a turned velocity never looks; the speed bound does
    xi = models.model_spin(su22, models.SpinlessModel("d", 2, 1.5))
    pt = dynamics.make_phase_point(su22, np.array([1.2, 0.5]), np.array([0.8, 0.1]), xi)
    p2 = dynamics.flow_projection(su22, pt, 2.0).p
    assert not np.any((su22.root_values(pt.p) < 0.0) & (su22.root_values(p2) > 0.0))
    with pytest.raises(algebra.WallProximityError):
        dynamics.projection_trajectory(su22, pt, [0.0, 2.0, 4.0])
    traj = dynamics.projection_trajectory(su22, pt, [0.0, 2.0, 4.0], on_wall="truncate")
    assert traj.wall_time == 0.0 and traj.times.tolist() == [0.0]
    direct = dynamics.integrate_direct(su22, pt, 4.0, tol=1e-10, sample_dt=2.0,
                                       gauge="freeze", on_wall="truncate")
    assert abs(direct.wall_time - 1.17653) < 1e-5


@pytest.mark.parametrize("label", ["su(2,1)", "su(3,2)", "sl(3,C)", "sl(4,C)"])
def test_projection_samples_are_flow_projection_bits(label):
    # one lift per run evaluates the same flow as a fresh flow_projection call
    space = CORE_SPACES[label]
    pt = checks.random_phase_point(space, np.random.default_rng(8))
    times = np.linspace(0.0, 1.0, 5)
    traj = dynamics.projection_trajectory(space, pt, times, on_wall="truncate")
    assert len(traj) > 1
    for i, t in enumerate(traj.times[1:], 1):
        want = dynamics.flow_projection(space, pt, float(t))
        got = sample_point(traj.path, i)
        for a, b in ((got.q, want.q), (got.p, want.p), (got.xi.xi, want.xi.xi),
                     (got.xi.coeffs, want.xi.coeffs)):
            assert a.tobytes() == b.tobytes()


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
    dtraj_inv = dynamics._attach_monitors(sp, traj.times, traj.path,
                                          (0.0, 1.0), specs)
    for i in range(len(traj.times)):
        assert np.abs(traj.path.q[i] - ptraj.path.q[i]).max() < 1e-6
        assert np.abs(traj.path.p[i] - ptraj.path.p[i]).max() < 1e-6
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
        assert np.abs(traj.path.q[i] - ptraj.path.q[i]).max() < 1e-6
        assert np.abs(traj.path.p[i] - ptraj.path.p[i]).max() < 1e-6
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
    p_end = traj.path.p[-1]
    # potential has decayed: all kinetic energy is back
    assert abs(0.5 * np.dot(p_end, p_end) - H) < 1e-6
    # outgoing: ordering preserved, velocities separated
    assert p_end[0] > 0 > p_end[1]
    # tail is linear in t: compare the last two samples against p_end
    dq = traj.path.q[-1] - traj.path.q[-2]
    assert np.abs(dq - p_end * 1.0).max() < 1e-4
    # projection method agrees through the scattering event
    for i, t in enumerate(traj.times):
        out = dynamics.flow_projection(sl2, pt, float(t)) if t else pt
        assert np.abs(out.q - traj.path.q[i]).max() < 1e-6


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
    traj = dynamics._attach_monitors(su22, np.array([0.0]), stack_points([pt]), (0.0, 1.0),
                                     (InvariantSpec("trace_power", 2, 1.0),))
    rep = dynamics.monitor(su22, traj)
    assert rep["energy"] == 0.0
    assert all(v == 0.0 for v in rep["lax_spectra"].values())
    assert all(v == 0.0 for v in rep["invariants"].values())
