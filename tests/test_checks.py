"""The verify battery: the stacked checks against loops over the per-draw
public functions, NaN draws, and the shape of the README config's report."""

import math
from collections import Counter
from unittest import mock

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
# the draw rules keep the per-draw stream
# ---------------------------------------------------------------------------

def reference_slice_vectors(space, spec, rng):
    """The per-draw sequence that the slice draw rule keeps: the free moduli
    by rng.dirichlet (rejected until they fit, else the barycenter), then one
    rng.uniform call per phase vector."""
    if space.spec.family == "sl_kc":
        beta = rng.uniform(0.0, 2.0 * math.pi, size=space.spec.k)
        return math.sqrt(spec.kappa) * np.exp(1j * beta), None
    m, n = space.spec.m, space.spec.n
    t, s, free = orbits._slice_moduli_su(space, spec)
    if free is not None:
        n_free, total_t, T = free
        for _ in range(200):
            cand = rng.dirichlet(np.ones(n_free)) * total_t
            if np.all(cand <= T + 1e-14):
                break
        else:
            cand = np.full(n_free, total_t / n_free)
        t[:n_free] = cand
        s = np.maximum(T - cand, 0.0)
    u = v = None
    if spec.kappa_m > 0:
        u = np.sqrt(t) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=m))
    if spec.kappa_n > 0:
        v = np.sqrt(s) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n))
    return u, v


def reference_phase_draw(space, spec, rng):
    """The per-draw sequence of random_phase_point: the spin's vectors, the
    chamber gaps by rng.uniform, then p."""
    u, v = reference_slice_vectors(space, spec, rng)
    gaps = rng.uniform(0.4, 1.2, size=space.n_coords)
    q = np.cumsum(gaps[::-1])[::-1].astype(float)
    p = rng.standard_normal(space.n_coords)
    if space.spec.family == "sl_kc":
        q = q - q.mean()
        p -= p.mean()
    return u, v, q, p


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _draw_case(spec, orbit=None):
    space = algebra.build_space(spec)
    return space, orbit or checks.default_orbit_spec(space)


DRAW_CASES = {
    "su(2,1)": (SpaceSpec.su(2, 1), None),
    "su(2,2)": (SpaceSpec.su(2, 2), None),
    "su(3,2) rejection": (SpaceSpec.su(3, 2), None),
    "su(6,3) forced x": (SpaceSpec.su(6, 3), None),
    "su(6,3) forced x, both constituents": (
        SpaceSpec.su(6, 3), orbits.OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=1.0 / 3.0)),
    "sl(3,C)": (SpaceSpec.sl(3), None),
    "sl(4,C)": (SpaceSpec.sl(4), None),
    "sl(9,C)": (SpaceSpec.sl(9), None),
    "su(2,2) kappa_n = 0": (SpaceSpec.su(2, 2), orbits.OrbitSpec.su(kappa_m=1.0, x=0.2)),
    "su(2,2) kappa_m = 0": (SpaceSpec.su(2, 2), orbits.OrbitSpec.su(kappa_n=0.5, x=0.3)),
    "su(2,2) central": (SpaceSpec.su(2, 2), orbits.OrbitSpec.su(x=0.9)),
    # a Dirichlet draw fits with probability about 1e-4: mostly the barycenter
    "su(2,2) barycenter": (SpaceSpec.su(2, 2), orbits.OrbitSpec.su(kappa_m=1.0, kappa_n=1e-4)),
    # eight free moduli: numpy's sum would pair them, rng.dirichlet adds in turn
    "su(8,8)": (SpaceSpec.su(8, 8), None),
}


@pytest.mark.parametrize("label", sorted(DRAW_CASES))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_draws=st.integers(1, 6))
def test_draw_rules_keep_the_per_draw_stream(label, seed, n_draws):
    """The per-draw functions and the stacked rule of the checks give the
    draws of the reference sequence bit for bit, and leave the generator in
    its state."""
    space, spec = _draw_case(*DRAW_CASES[label])
    ref_rng = np.random.default_rng(seed)
    ref = [reference_phase_draw(space, spec, ref_rng) for _ in range(n_draws)]
    state = ref_rng.bit_generator.state

    rng = np.random.default_rng(seed)
    for u, v, q, p in ref:
        rule = orbits.slice_draw_rule(space, spec)
        got = rule.vectors(*rule.draw(rng))
        assert same_bits(got[0], u) and same_bits(got[1], v)
        assert same_bits(algebra.random_chamber_point(space, rng), q)
        p_got = rng.standard_normal(space.n_coords)
        if space.spec.family == "sl_kc":
            p_got -= p_got.mean()
        assert same_bits(p_got, p)
    assert rng.bit_generator.state == state

    rng = np.random.default_rng(seed)
    for u, v, q, p in ref:
        pt = checks.random_phase_point(space, rng, spec)
        assert same_bits(pt.q, q) and same_bits(pt.p, p)
        assert same_bits(pt.xi.xi, orbits.slice_spin(space, spec, u, v).xi)
    assert rng.bit_generator.state == state

    rng = np.random.default_rng(seed)
    rule = orbits.slice_draw_rule(space, spec)
    e, r, p = checks._stack([checks._phase_draw(rule, rng) for _ in range(n_draws)])
    u, v = rule.vectors(e, r[:, :rule.n_phases])
    pt = checks._phase_points(rule, e, r, p)
    for i, col in enumerate((u, v, pt.q, pt.p)):
        want = [draw[i] for draw in ref]
        assert same_bits(col, None if want[0] is None else np.array(want))
    assert same_bits(pt.xi.xi, orbits.slice_spin(space, spec, u, v).xi)
    assert rng.bit_generator.state == state


def reference_reduce_orbit_check(space, kappa, x, rng, n_samples):
    """reduce_orbit_check one sample at a time, with one rng.uniform call
    per sample: the per-sample residuals."""
    m, n = space.spec.m, space.spec.n
    target = orbits.xi_red(space, "bc", kappa, x)
    C = orbits._central_element(m, n)
    diag_target = np.concatenate([1j * x * np.ones(n), [-1j * x * n]])
    moduli = np.concatenate([np.full(n, math.sqrt(max(kappa + x, 0.0))),
                             [math.sqrt(max(kappa - n * x, 0.0))]])
    out = []
    for _ in range(n_samples):
        beta = rng.uniform(0.0, 2.0 * math.pi, size=m)
        u = moduli * np.exp(1j * beta)
        eta = orbits.eta_of_u(u, kappa)
        phases = np.concatenate([beta[-1] - beta[:-1], [0.0]])
        t = np.exp(1j * phases)
        t = t * np.exp(-1j * np.angle(np.prod(t)) / m)
        u_hat = t * u
        common = u_hat[-1] / abs(u_hat[-1])
        xi_rot = orbits._embed_su_factor(space, orbits.eta_of_u(u_hat, kappa), "m") + x * C
        g = np.diag(np.concatenate([t, t[:n]]))
        rotated = g @ (orbits._embed_su_factor(space, eta, "m") + x * C) @ g.conj().T
        out.append((np.abs(np.diag(eta) - diag_target).max(),
                    np.abs(u_hat - common * np.abs(u_hat)).max(),
                    max(np.abs(xi_rot - target.xi).max(), np.abs(rotated - xi_rot).max())))
    return out


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from([(1, 1.0, 0.4), (2, 3.0, 1.0), (3, 2.0, 0.5)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_reduction_has_the_per_sample_bits(case, seed):
    """Each sample's residuals, taken alone (n_samples = 1), are those of
    the per-sample loop; so are the largest over several samples."""
    n, kappa, x = case
    space = algebra.build_space(SpaceSpec.su(n + 1, n))
    for n_samples in (1, 5):
        rng_check, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
        rep = orbits.reduce_orbit_check(space, kappa, x, rng_check, n_samples=n_samples)
        want = np.max(reference_reduce_orbit_check(space, kappa, x, rng_loop, n_samples), axis=0)
        got = (rep.diag_constraint_residual, rep.normal_form_residual, rep.xi_match_residual)
        assert got == tuple(want.tolist())
        assert rng_check.bit_generator.state == rng_loop.bit_generator.state


def test_coupling_residuals_on_arrays_have_the_scalar_bits():
    """An array of data gives each entry the residual of its own call, and
    both are the float arithmetic of the formulas (Python's ** squares by
    C pow, not by x * x)."""
    rng = np.random.default_rng(3)
    n = rng.integers(1, 6, size=2000)
    kappa = rng.uniform(0.05, 4.0, size=2000)
    x = -kappa + (kappa / n + kappa) * rng.uniform(size=2000)
    got = models.coupling_relation_residual(n, kappa, x)
    want = []
    for k, c, y in zip(n.tolist(), kappa.tolist(), x.tolist()):
        g, g1, g2 = 0.5 * (c + y), math.sqrt(max((c + y) * (c - k * y), 0.0) / 2.0), \
            (k + 1) * y / math.sqrt(2.0)
        assert orbits.bc_couplings(k, c, y) == (g, g1, g2)
        want.append(abs(g1 ** 2 - 2.0 * g ** 2 + math.sqrt(2.0) * g * g2))
        assert models.coupling_relation_residual(k, c, y) == want[-1]
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# a NaN draw fails its check
# ---------------------------------------------------------------------------

def nan_at_draw(seed, method, k):
    """A generator of the seed whose method draws NaN as its k-th value (from
    0), counted over its calls in order whatever their sizes; everything else
    is the generator's."""
    rng = np.random.default_rng(seed)
    drawn = 0

    class Poisoned:
        def __getattr__(self, name):
            fn = getattr(rng, name)
            if name != method:
                return fn

            def poisoned(*args, **kwargs):
                nonlocal drawn
                out = fn(*args, **kwargs)
                if drawn <= k < drawn + np.size(out):
                    out = np.array(out, dtype=float)
                    out.flat[k - drawn] = np.nan
                drawn += np.size(out)
                return out
            return poisoned

    return Poisoned()


SU32 = algebra.build_space(SpaceSpec.su(3, 2))
SL3 = algebra.build_space(SpaceSpec.sl(3))


# k is the value the NaN replaces: the first of the check's fourth draw (a
# draw of 2 or 3 normals per slice or bracket sample, 1 or 2 per catalog
# sample); in reduction_checks, the first coupling draw (its first
# rng.random value), and a value of the emptiness probe's samples
@pytest.mark.parametrize("run, method, k", [
    (lambda rng: checks.slice_checks(SU32, rng, n_draws=10), "standard_normal", 6),
    (lambda rng: checks.slice_checks(SL3, rng, n_draws=10), "standard_normal", 9),
    (lambda rng: checks.bracket_checks(SU32, rng, n_draws=10), "standard_normal", 6),
    (lambda rng: checks.bracket_checks(SL3, rng, n_draws=10), "standard_normal", 9),
    (lambda rng: checks.catalog_checks(rng, n_samples=5), "standard_normal", 3),
    (lambda rng: checks.freezing_checks(rng, n_points=5), "uniform", 30),
    (lambda rng: checks.basis_checks(SU32, rng), "standard_normal", 6),
    (checks.reduction_checks, "random", 0),
    (checks.reduction_checks, "standard_normal", 24576),
], ids=["slice-su32", "slice-sl3", "bracket-su32", "bracket-sl3", "catalog", "freezing",
        "basis", "reduction", "emptiness-probe"])
def test_a_nan_draw_fails_its_check(run, method, k):
    assert all(r.passed for r in run(np.random.default_rng(7)))
    # numpy may warn on the NaN (the suite makes a warning an error); the
    # check must still see it
    with np.errstate(invalid="ignore"):
        results = run(nan_at_draw(7, method, k))
    failed = [r for r in results if not r.passed]
    assert failed and all(math.isnan(r.residual) for r in failed)


def test_a_nan_phase_makes_the_reduction_residuals_nan():
    """The reduction case above poisons a coupling draw; a NaN phase of one
    sample makes each residual of the stacked reduction NaN."""
    space = algebra.build_space(SpaceSpec.su(3, 2))
    with np.errstate(invalid="ignore"):
        rep = orbits.reduce_orbit_check(space, 3.0, 1.0, nan_at_draw(7, "uniform", 0), n_samples=5)
    assert all(map(math.isnan, (rep.diag_constraint_residual, rep.normal_form_residual,
                                rep.xi_match_residual)))


# ---------------------------------------------------------------------------
# the README config
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40 + 3])
def test_random_draws_the_doubles_of_uniform(seed):
    """reduction_checks and noninvolution_witness draw rng.random(2) where
    the per-draw references call rng.uniform: the same doubles, and the same
    generator state after."""
    for draw, ref in ((lambda rng: rng.random(2), lambda rng: rng.uniform(size=2)),
                      (lambda rng: -2.0 + 4.0 * rng.random(2),
                       lambda rng: rng.uniform(-2.0, 2.0, size=2))):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            assert draw(rng).tobytes() == ref(ref_rng).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_run_verify_builds_each_catalog_spin_once():
    """One xi_red call per catalog model (and one per reduce_orbit_check),
    with the catalog and freezing rows of standalone calls on the same
    generator, which build their own spins."""
    with mock.patch.object(orbits, "xi_red", wraps=orbits.xi_red) as xi_red:
        report = checks.run_verify([], seed=5)
    calls = Counter((c.args[0].spec, *c.args[1:]) for c in xi_red.call_args_list)
    want = Counter((models.model_space(model).spec,
                    {"bc": "bc", "c": "c", "d": "d", "a": "kks"}[model.family],
                    model.kappa, model.x) for model in models.CATALOG)
    want.update((SpaceSpec.su(n + 1, n), "bc", kappa, x)
                for n, kappa, x in [(1, 1.0, 0.4), (2, 3.0, 1.0), (3, 2.0, 0.5)])
    assert xi_red.call_count == len(models.CATALOG) + 3 and calls == want
    rng = np.random.default_rng(5)
    checks.noninvolution_witness(rng)
    checks.reduction_checks(rng)
    rows = [r.row() for r in checks.catalog_checks(rng) + checks.freezing_checks(rng)]
    assert report["checks"][-len(rows):] == rows


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
    rule = orbits.slice_draw_rule(space, spec)
    e, r, p = checks._stack([checks._phase_draw(rule, rng) for _ in range(4)])
    k = rule.n_phases
    u, v = rule.vectors(e, r[:, :k])
    q = algebra.chamber_points(space, r[:, k:])
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
