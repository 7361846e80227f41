"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with the worst measured residual.  Tolerances are pinned here and never
loosened; run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they execute."""

import time

import numpy as np
import pytest

from spincal import algebra, checks, dynamics, models, orbits
from spincal.algebra import SpaceSpec
from spincal.dynamics import InvariantSpec
from spincal.orbits import OrbitSpec

ALL_SU = [SpaceSpec.su(m, n) for m in range(1, 7) for n in range(1, m + 1) if m + n <= 7]
ALL_SL = [SpaceSpec.sl(k) for k in (2, 3, 4)]

SPIN_SPACES = {
    "su(2,1)": (SpaceSpec.su(2, 1), OrbitSpec.su(kappa_m=1.0, x=0.3)),
    "su(2,2)": (SpaceSpec.su(2, 2), OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2)),
    "su(3,1)": (SpaceSpec.su(3, 1), OrbitSpec.su(kappa_m=0.8, x=0.8)),
    "su(3,2)": (SpaceSpec.su(3, 2), OrbitSpec.su(kappa_m=1.5, kappa_n=0.5, x=0.2)),
}

# inward-moving data producing a genuine scattering event; safe because
# generic spin data puts a sinh^-2 barrier on every chamber wall
SCATTER_START = {
    "su(2,1)": ([0.8], [-0.25]),
    "su(2,2)": ([1.15, 0.5], [-0.2, 0.15]),
    "su(3,1)": ([0.9], [-0.3]),
    "su(3,2)": ([1.3, 0.6], [-0.2, 0.12]),
}


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def chamber_start(space):
    """Well-separated, outward-moving initial data; the spacing is wide
    enough that every catalog entry stays inside the open chamber over the
    integration windows used below (walls without a protecting potential
    term attract trajectories, so clearance matters)."""
    nc = space.n_coords
    q = np.array([1.2 + 1.6 * (nc - 1 - i) for i in range(nc)])
    p = np.array([0.2 + 0.18 * (nc - 1 - i) for i in range(nc)])
    if space.spec.family == "sl_kc":
        q -= q.mean()
        p -= p.mean()
    return q, p


# ---------------------------------------------------------------------------

def test_criterion_1_basis_correctness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for spec in ALL_SU + ALL_SL:
        for res in checks.basis_checks(algebra.build_space(spec), rng, n_ladder=10):
            assert res.passed, res
            if "orthonormality" in res.name or "ladder" in res.name:
                worst = max(worst, res.residual)
    dt = time.time() - t0
    report(1, worst < 1e-12 and dt < 10.0,
           f"basis correctness over {len(ALL_SU + ALL_SL)} spaces: worst residual "
           f"{worst:.2e} (tol 1e-12), {dt:.1f} s")


def test_criterion_2_slice_momentum():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for label, (spec, ospec) in SPIN_SPACES.items():
        space = algebra.build_space(spec)
        for _ in range(100):
            xi = orbits.random_slice_spin(space, ospec, rng)
            q = algebra.random_chamber_point(space, rng)
            p = rng.standard_normal(space.n_coords)
            up = orbits.build_slice_point(space, q, p, xi)
            worst = max(worst, float(np.linalg.norm(orbits.moment_map(space, up))))
    dt = time.time() - t0
    report(2, worst < 1e-10 and dt < 10.0,
           f"momentum map on 100 slice draws per space: worst norm {worst:.2e} "
           f"(tol 1e-10), {dt:.1f} s")


def test_criterion_3_isospectrality():
    t0 = time.time()
    rng = np.random.default_rng(103)
    xs = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0)
    worst = 0.0
    for label in ("su(2,1)", "su(2,2)", "su(3,1)"):
        spec, ospec = SPIN_SPACES[label]
        space = algebra.build_space(spec)
        xi = orbits.random_slice_spin(space, ospec, rng)
        q, p = SCATTER_START[label]
        pt = dynamics.make_phase_point(space, np.array(q), np.array(p), xi)
        traj = dynamics.integrate_direct(space, pt, 10.0, tol=1e-10,
                                         sample_dt=0.25, lax_x=xs)
        rep = dynamics.monitor(space, traj)
        worst = max(worst, max(rep["lax_spectra"].values()))
    dt = time.time() - t0
    report(3, worst < 1e-7 and dt < 120.0,
           f"Lax isospectrality at x in {xs} over t in [0,10]: worst relative "
           f"drift {worst:.2e} (tol 1e-7), {dt:.1f} s")


def test_criterion_4_cross_integrator():
    t0 = time.time()
    rng = np.random.default_rng(104)
    worst_q = worst_mon = 0.0
    for label in ("su(2,1)", "su(2,2)", "su(3,1)"):
        spec, ospec = SPIN_SPACES[label]
        space = algebra.build_space(spec)
        for spinful in (False, True):
            if spinful:
                xi = orbits.random_slice_spin(space, ospec, rng)
                q, p = SCATTER_START[label]
                q, p = np.array(q), np.array(p)
            else:
                xi = orbits.zero_spin(space)
                q, p = chamber_start(space)
            pt = dynamics.make_phase_point(space, q, p, xi)
            monitors = (InvariantSpec("trace_power", 2, 1.0),
                        InvariantSpec("trace_power", 3, 0.5),
                        InvariantSpec("block_invariant", 1, 0.5),
                        InvariantSpec("block_invariant", 2, -1.0))
            traj = dynamics.integrate_direct(space, pt, 5.0, tol=1e-10,
                                             sample_dt=0.5, lax_x=(0.0, 1.0),
                                             invariants=monitors)
            ptraj = dynamics.projection_trajectory(space, pt, traj.times,
                                                   lax_x=(0.0, 1.0),
                                                   invariants=monitors)
            for i in range(len(traj.times)):
                worst_q = max(worst_q,
                              float(np.abs(traj.path.q[i] - ptraj.path.q[i]).max()),
                              float(np.abs(traj.path.p[i] - ptraj.path.p[i]).max()))
            worst_mon = max(worst_mon, float(np.abs(traj.energy - ptraj.energy).max()))
            for lab in traj.invariants:
                worst_mon = max(worst_mon, float(np.abs(
                    traj.invariants[lab] - ptraj.invariants[lab]).max()))
            for x in (0.0, 1.0):
                worst_mon = max(worst_mon, float(np.abs(
                    traj.lax_spectra[x] - ptraj.lax_spectra[x]).max()))
    dt = time.time() - t0
    report(4, worst_q < 1e-6 and worst_mon < 1e-6 and dt < 120.0,
           f"projection vs direct over t in [0,5], spinless and spinful: "
           f"q/p {worst_q:.2e}, monitors {worst_mon:.2e} (tol 1e-6), {dt:.1f} s")


def test_criterion_5_theorem_4():
    t0 = time.time()
    rng = np.random.default_rng(105)
    space = algebra.build_space(SpaceSpec.su(2, 2))
    ospec = SPIN_SPACES["su(2,2)"][1]
    worst_gg = worst_mix = worst_413 = worst_416 = 0.0
    for _ in range(200):
        pt = checks.random_phase_point(space, rng, ospec)
        x, y = rng.uniform(-2.0, 2.0, size=2)
        f = InvariantSpec("trace_power", int(rng.integers(2, 5)))
        h = InvariantSpec("trace_power", int(rng.integers(2, 5)))
        fb = InvariantSpec("block_invariant", int(rng.integers(1, 3)))
        worst_gg = max(worst_gg, abs(dynamics.bracket_formula(space, f, x, h, y, pt)))
        worst_mix = max(worst_mix, abs(dynamics.bracket_formula(
            space, fb, x, h, 1.0 if rng.uniform() < 0.5 else -1.0, pt)))
        worst_413 = max(worst_413, dynamics.identity_413(space, fb, x, h, y, pt))
        worst_416 = max(worst_416, dynamics.identity_416(space, f, x, h, y, pt))
    worst = max(worst_gg, worst_mix, worst_413, worst_416)
    dt = time.time() - t0
    report(5, worst < 1e-10 and dt < 30.0,
           f"invariant brackets over 200 draws: full-pair {worst_gg:.2e}, mixed "
           f"{worst_mix:.2e}, identities {max(worst_413, worst_416):.2e} "
           f"(tol 1e-10), {dt:.1f} s")


def test_criterion_6_noninvolution_witness():
    t0 = time.time()
    rng = np.random.default_rng(106)
    res = checks.noninvolution_witness(rng)
    dt = time.time() - t0
    report(6, res.passed and dt < 30.0,
           f"non-involution witness found: {res.details} (threshold 1e-4), {dt:.1f} s")


def test_criterion_7_theorem_6_and_catalog():
    t0 = time.time()
    rng = np.random.default_rng(107)
    worst_red = 0.0
    for n, kappa, x in [(1, 1.0, 0.4), (2, 3.0, 1.0), (3, 2.0, 0.5)]:
        space = algebra.build_space(SpaceSpec.su(n + 1, n))
        rep = orbits.reduce_orbit_check(space, kappa, x, rng, n_samples=24)
        worst_red = max(worst_red, rep.diag_constraint_residual,
                        rep.normal_form_residual, rep.xi_match_residual)
    space = algebra.build_space(SpaceSpec.su(3, 2))
    margin = orbits.emptiness_probe(space, 1.0, 0.5, rng, n_samples=10000)
    worst_rel = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        kappa = float(rng.uniform(0.05, 4.0))
        x = float(rng.uniform(-kappa, kappa / n))
        worst_rel = max(worst_rel, models.coupling_relation_residual(n, kappa, x))
    worst_cat = 0.0
    for model in models.CATALOG:
        worst_cat = max(worst_cat,
                        models.machinery_equals_closed_form(model, rng, n_samples=50))
    dt = time.time() - t0
    ok = (worst_red < 1e-10 and margin > 1e-3 and worst_rel < 1e-13
          and worst_cat < 1e-12 and dt < 60.0)
    report(7, ok,
           f"orbit reduction {worst_red:.2e} (tol 1e-10), emptiness margin "
           f"{margin:.2e} (>1e-3), coupling relation {worst_rel:.2e} (tol 1e-13), "
           f"machinery vs closed form {worst_cat:.2e} (tol 1e-12), {dt:.1f} s")


def test_criterion_8_freezing_gauge():
    t0 = time.time()
    rng = np.random.default_rng(108)
    worst_frozen = worst_traj = 0.0
    for model in models.CATALOG:
        space = models.model_space(model)
        mu = models.model_spin(space, model)
        for _ in range(20):
            q = algebra.random_chamber_point(space, rng)
            res = dynamics.freezing_solve(space, q, mu)
            assert res.accepted, (model.label(), res.residual)
            worst_frozen = max(worst_frozen, res.frozen_residual)
        q, p = chamber_start(space)
        pt = dynamics.make_phase_point(space, q, p, mu)
        traj = dynamics.integrate_direct(space, pt, 5.0, tol=1e-10,
                                         sample_dt=0.5, gauge="freeze")
        for xi_t in traj.path.xi.xi:
            worst_traj = max(worst_traj, float(np.abs(xi_t - mu.xi).max()))
    dt = time.time() - t0
    report(8, worst_frozen < 1e-8 and worst_traj < 1e-7 and dt < 60.0,
           f"freezing over {len(models.CATALOG)} catalog entries x 20 points: "
           f"frozen-condition {worst_frozen:.2e} (tol 1e-8), spin drift "
           f"{worst_traj:.2e} (tol 1e-7), {dt:.1f} s")


def test_criterion_9_energy_and_free_motion():
    t0 = time.time()
    rng = np.random.default_rng(109)
    worst_energy = 0.0
    for label in ("su(2,2)", "su(3,2)"):
        spec, ospec = SPIN_SPACES[label]
        space = algebra.build_space(spec)
        xi = orbits.random_slice_spin(space, ospec, rng)
        q, p = SCATTER_START[label]
        pt = dynamics.make_phase_point(space, np.array(q), np.array(p), xi)
        traj = dynamics.integrate_direct(space, pt, 10.0, tol=1e-10, sample_dt=0.5,
                                         lax_x=())
        worst_energy = max(worst_energy, dynamics.monitor(space, traj)["energy"])
    space = algebra.build_space(SpaceSpec.su(2, 2))
    q0, p0 = np.array([2.0, 0.9]), np.array([0.25, 0.1])
    pt = dynamics.make_phase_point(space, q0, p0)
    traj = dynamics.integrate_direct(space, pt, 10.0, tol=1e-10, sample_dt=0.5,
                                     lax_x=())
    worst_free = 0.0
    for t, q in zip(traj.times, traj.path.q):
        worst_free = max(worst_free, float(np.abs(q - (q0 + t * p0)).max()))
    dt = time.time() - t0
    report(9, worst_energy < 1e-8 and worst_free < 1e-10 and dt < 30.0,
           f"relative energy drift {worst_energy:.2e} (tol 1e-8), free-motion "
           f"deviation {worst_free:.2e}, {dt:.1f} s")
