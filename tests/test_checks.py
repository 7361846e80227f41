"""The verify battery: the stacked checks against loops over the per-draw
public functions, NaN draws, and the shape of the README config's report."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincal import algebra, checks, dynamics, models, orbits
from spincal.algebra import SpaceSpec
from spincal.dynamics import InvariantSpec

SPACES = {spec.label(): spec for spec in (
    SpaceSpec.su(2, 1), SpaceSpec.su(2, 2), SpaceSpec.su(3, 1), SpaceSpec.su(3, 2),
    SpaceSpec.su(4, 2), SpaceSpec.sl(2), SpaceSpec.sl(3))}

README_SPACES = [SpaceSpec.su(2, 1), SpaceSpec.su(2, 2), SpaceSpec.su(3, 2)]
CATALOG_LABELS = [
    "BC[n=1, kappa=1, x=0.3]", "BC[n=2, kappa=3, x=1]", "BC[n=3, kappa=2, x=0.5]",
    "C[n=2, kappa=1, x=0.7]", "C[n=3, kappa=2, x=0]", "C[n=2, kappa=0, x=0.9]",
    "D[n=2, kappa=1.5]", "D[n=3, kappa=1]",
    "A[k=2, kappa=1]", "A[k=3, kappa=0.8]", "A[k=4, kappa=1.2]",
]
README_NAMES = (
    [f"{space}: {check}" for space in ("su(2,1)", "su(2,2)", "su(3,2)") for check in (
        "basis orthonormality", "ladder relation", "multiplicities", "dimension sum",
        "slice momentum-map residual (100 draws)", "full-invariant brackets vanish",
        "mirror commutator identity", "mixed brackets vanish at unit parameter",
        "mixed commutator identity")]
    + ["non-involution witness (block invariants, su(2,2))"]
    + [f"su({n + 1},{n}): BC orbit reduces to a point" for n in (1, 2, 3)]
    + ["su(3,2): slice-emptiness margin for the shifted size-n orbit",
       "coupling relation g1^2 - 2g^2 + sqrt(2) g g2 (1000 draws)"]
    + [f"{label}: machinery vs closed form" for label in CATALOG_LABELS]
    + [f"{label}: {check}" for label in CATALOG_LABELS
       for check in ("freezing solve residual", "frozen-spin condition")]
)
# the two su(3,2) residuals that sit at roundoff of their 1e-10 bound
KNOWN_FAILURES = {"su(3,2): mixed brackets vanish at unit parameter",
                  "su(3,2): mixed commutator identity"}


# ---------------------------------------------------------------------------
# loops over the per-draw public functions: the references
# ---------------------------------------------------------------------------

def slice_loop(space, rng, n_draws):
    spec = checks.default_orbit_spec(space)
    worst = 0.0
    for _ in range(n_draws):
        pt = checks.random_phase_point(space, rng, spec)
        up = orbits.build_slice_point(space, pt.q, pt.p, pt.xi)
        worst = max(worst, float(np.linalg.norm(orbits.moment_map(space, up))))
    return [worst]


def bracket_loop(space, rng, n_draws):
    has_block = space.spec.family == "su_mn"
    spec = checks.default_orbit_spec(space)
    worst_gg = worst_mix = worst_413 = worst_416 = 0.0
    for _ in range(n_draws):
        pt = checks.random_phase_point(space, rng, spec)
        x, y = rng.uniform(-2.0, 2.0, size=2)
        f2 = InvariantSpec("trace_power", int(rng.integers(2, 5)))
        h2 = InvariantSpec("trace_power", int(rng.integers(2, 5)))
        worst_gg = max(worst_gg, abs(dynamics.bracket_formula(space, f2, x, h2, y, pt)))
        worst_416 = max(worst_416, dynamics.identity_416(space, f2, x, h2, y, pt))
        if has_block:
            fb = InvariantSpec("block_invariant", int(rng.integers(1, 3)))
            ysign = 1.0 if rng.uniform() < 0.5 else -1.0
            worst_mix = max(worst_mix, abs(dynamics.bracket_formula(space, fb, x, h2, ysign, pt)))
            worst_413 = max(worst_413, dynamics.identity_413(space, fb, x, h2, y, pt))
    return [worst_gg, worst_416] + ([worst_mix, worst_413] if has_block else [])


def catalog_loop(rng, n_samples):
    out = []
    for model in models.CATALOG:
        space = models.model_space(model)
        xi = models.model_spin(space, model)
        worst = 0.0
        for _ in range(n_samples):
            q = algebra.random_chamber_point(space, rng)
            p = rng.standard_normal(space.n_coords)
            if space.spec.family == "sl_kc":
                p -= p.mean()
            pt = dynamics.make_phase_point(space, q, p, xi)
            worst = max(worst, abs(dynamics.hamiltonian(space, pt)
                                   - models.closed_form_H(model, q, p)))
        out.append(worst)
    return out


def freezing_loop(rng, n_points):
    out = []
    for model in models.CATALOG:
        space = models.model_space(model)
        mu = models.model_spin(space, model)
        worst_solve = worst_frozen = 0.0
        for _ in range(n_points):
            res = dynamics.freezing_solve(space, algebra.random_chamber_point(space, rng), mu)
            worst_solve = max(worst_solve, res.residual)
            worst_frozen = max(worst_frozen, res.frozen_residual)
        out += [worst_solve, worst_frozen]
    return out


def compare(check, loop, seed, rel, abs_tol):
    """Run the check and its loop on two generators of one seed: residuals
    within max(rel * loop residual, abs_tol), generator states equal."""
    rng_check, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
    got = check(rng_check)
    want = loop(rng_loop)
    assert len(got) == len(want)
    for res, ref in zip(got, want):
        assert abs(res.residual - ref) <= max(rel * ref, abs_tol), (res.name, res.residual, ref)
    assert rng_check.bit_generator.state == rng_loop.bit_generator.state


@settings(max_examples=30, deadline=None)
@given(label=st.sampled_from(sorted(SPACES)), seed=st.integers(0, 2 ** 32 - 1),
       n_draws=st.integers(1, 25))
def test_stacked_slice_and_bracket_checks_match_the_loop(label, seed, n_draws):
    space = algebra.build_space(SPACES[label])
    compare(lambda rng: checks.slice_checks(space, rng, n_draws=n_draws),
            lambda rng: slice_loop(space, rng, n_draws), seed, 1e-3, 1e-13)
    compare(lambda rng: checks.bracket_checks(space, rng, n_draws=n_draws),
            lambda rng: bracket_loop(space, rng, n_draws), seed, 1e-3, 1e-13)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_samples=st.integers(1, 12))
def test_stacked_catalog_and_freezing_checks_match_the_loop(seed, n_samples):
    compare(lambda rng: checks.catalog_checks(rng, n_samples=n_samples),
            lambda rng: catalog_loop(rng, n_samples), seed, 0.0, 1e-12)
    compare(lambda rng: checks.freezing_checks(rng, n_points=n_samples),
            lambda rng: freezing_loop(rng, n_samples), seed, 0.0, 1e-12)


# ---------------------------------------------------------------------------
# a NaN draw fails its check
# ---------------------------------------------------------------------------

def nan_on_call(seed, method, call):
    """A generator of the seed whose call-th call (from 0) of one method
    returns NaN as its first value; everything else is the generator's."""
    rng = np.random.default_rng(seed)
    calls = itertools.count()

    class Poisoned:
        def __getattr__(self, name):
            fn = getattr(rng, name)
            if name != method:
                return fn

            def poisoned(*args, **kwargs):
                out = fn(*args, **kwargs)
                if next(calls) == call:
                    out = np.array(out, dtype=float)
                    out.flat[0] = np.nan
                return out
            return poisoned

    return Poisoned()


SU32 = algebra.build_space(SpaceSpec.su(3, 2))
SL3 = algebra.build_space(SpaceSpec.sl(3))


@pytest.mark.parametrize("run, method", [
    (lambda rng: checks.slice_checks(SU32, rng, n_draws=10), "standard_normal"),
    (lambda rng: checks.slice_checks(SL3, rng, n_draws=10), "standard_normal"),
    (lambda rng: checks.bracket_checks(SU32, rng, n_draws=10), "standard_normal"),
    (lambda rng: checks.bracket_checks(SL3, rng, n_draws=10), "standard_normal"),
    (lambda rng: checks.catalog_checks(rng, n_samples=5), "standard_normal"),
    (lambda rng: checks.freezing_checks(rng, n_points=5), "uniform"),
    (lambda rng: checks.basis_checks(SU32, rng), "standard_normal"),
    (checks.reduction_checks, "uniform"),
    (checks.reduction_checks, "standard_normal"),
], ids=["slice-su32", "slice-sl3", "bracket-su32", "bracket-sl3", "catalog", "freezing",
        "basis", "reduction", "emptiness-probe"])
def test_a_nan_draw_fails_its_check(run, method):
    assert all(r.passed for r in run(np.random.default_rng(7)))
    # numpy may warn on the NaN (the suite makes a warning an error); the
    # check must still see it
    with np.errstate(invalid="ignore"):
        results = run(nan_on_call(7, method, 3))
    failed = [r for r in results if not r.passed]
    assert failed and all(math.isnan(r.residual) for r in failed)


# ---------------------------------------------------------------------------
# the README config
# ---------------------------------------------------------------------------

def test_readme_config_report_shape():
    report = checks.run_verify(README_SPACES, seed=0, n_draws=100)
    assert report["n_checks"] == 66
    assert [row["name"] for row in report["checks"]] == README_NAMES
    assert {row["name"] for row in report["checks"] if not row["passed"]} <= KNOWN_FAILURES


def test_stacked_certificates_still_raise():
    """The certificates of the per-draw path hold on a stack: one bad
    member of the stack raises."""
    space = SU32
    spec = checks.default_orbit_spec(space)
    rng = np.random.default_rng(1)
    draws = [checks._phase_draw(space, spec, rng) for _ in range(4)]
    u, v, q, p = (np.array(col) for col in zip(*draws))
    xi = orbits.slice_spin(space, spec, u, v)
    assert xi.xi.shape == (4, space.N, space.N) and xi.coeffs.shape == (4, space.K)

    bad_u = u.copy()
    bad_u[2] *= 1.1
    with pytest.raises(algebra.AdmissibilityError, match="norm constraint"):
        orbits.slice_spin(space, spec, bad_u, v)
    off_slice = xi.xi.copy()
    off_slice[1] += 1e-3 * space.m_basis[0]
    with pytest.raises(algebra.MembershipError, match="M-part"):
        orbits.spin_point(space, off_slice)
    not_gplus = xi.xi.copy()
    not_gplus[3] += 1e-3 * space.eminus[0]
    with pytest.raises(algebra.MembershipError, match="not in g\\+"):
        orbits.spin_point(space, not_gplus)

    walled = q.copy()
    walled[2] = [0.5, 0.5]
    with pytest.raises(algebra.WallProximityError):
        dynamics.make_phase_point(space, walled, p, xi)
    with pytest.raises(algebra.WallProximityError):
        orbits.build_slice_point(space, walled, p, xi)
    near = q.copy()
    near[0] = [0.5 + 1e-8, 0.5]
    pt = dynamics.PhasePoint(q=near, p=p, xi=xi)
    with pytest.raises(algebra.WallProximityError):
        dynamics.lax(space, pt, 0.0)
    with pytest.raises(algebra.WallProximityError):
        algebra.require_off_wall(space, near)
