"""Structural verification suite.

Every check returns a :class:`CheckResult` with the measured residual and
its tolerance, so the same battery backs the test suite and the command
line ``verify`` report.  Checks cover: basis orthonormality and ladder
relations, slice/momentum-map consistency, vanishing of the invariant
Poisson brackets (with the two commutator identities behind the proof), the
non-involution witness for compact-only invariants, single-point orbit
reduction and the slice-emptiness probe, the quadratic coupling relation,
and agreement of the reduced Hamiltonian with the closed-form catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, dynamics, models, orbits
from .algebra import SpaceSpec, SymmetricSpaceData
from .dynamics import InvariantSpec
from .orbits import OrbitSpec

__all__ = [
    "CheckResult",
    "default_orbit_spec",
    "random_phase_point",
    "basis_checks",
    "slice_checks",
    "bracket_checks",
    "noninvolution_witness",
    "reduction_checks",
    "catalog_checks",
    "freezing_checks",
    "run_verify",
]


@dataclass
class CheckResult:
    name: str
    residual: float
    tol: float
    details: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.residual < self.tol)

    def row(self) -> dict:
        return {"name": self.name, "residual": self.residual, "tol": self.tol,
                "passed": self.passed, **({"details": self.details} if self.details else {})}


def default_orbit_spec(space: SymmetricSpaceData) -> OrbitSpec:
    """An admissible orbit carrying on-slice spin data for each space."""
    if space.spec.family == "sl_kc":
        return OrbitSpec.kks(1.0)
    m, n = space.spec.m, space.spec.n
    if m == n:
        return OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2)
    if m == n + 1:
        if n >= 2:
            return OrbitSpec.su(kappa_m=1.5, kappa_n=0.5, x=0.2)
        return OrbitSpec.su(kappa_m=1.5, x=0.2)
    # m - n >= 2: the slice forces x = kappa_m / n
    return OrbitSpec.su(kappa_m=1.0, x=1.0 / n)


def random_phase_point(space: SymmetricSpaceData, rng: np.random.Generator,
                       spec: OrbitSpec | None = None) -> dynamics.PhasePoint:
    spec = spec or default_orbit_spec(space)
    xi = orbits.random_slice_spin(space, spec, rng)
    q = algebra.random_chamber_point(space, rng)
    p = rng.standard_normal(space.n_coords)
    if space.spec.family == "sl_kc":
        p -= p.mean()
    return dynamics.make_phase_point(space, q, p, xi)


# ---------------------------------------------------------------------------

def basis_checks(space: SymmetricSpaceData, rng: np.random.Generator,
                 n_ladder: int = 20) -> list:
    """Orthonormality, ladder relation, multiplicities, dimension sums."""
    name = space.label()
    out = []

    K = space.K
    mats = [space.eplus, space.eminus, space.a_basis]
    signs = [-np.ones(K), np.ones(K), np.ones(space.rank)]
    if space.dim_m:
        mats.append(space.m_basis)
        signs.append(-np.ones(space.dim_m))
    stack = np.concatenate(mats)
    gram = np.einsum("iab,jba->ij", stack, stack).real
    res = float(np.abs(gram - np.diag(np.concatenate(signs))).max())
    out.append(CheckResult(f"{name}: basis orthonormality", res, 1e-12))

    worst = 0.0
    for _ in range(n_ladder):
        q = rng.standard_normal(space.n_coords)
        if space.spec.family == "sl_kc":
            q -= q.mean()
        Q = algebra.embed(space, q)
        av = space.alpha_cols(q)
        for j in range(space.K):
            up = Q @ space.eplus[j] - space.eplus[j] @ Q - av[j] * space.eminus[j]
            dn = Q @ space.eminus[j] - space.eminus[j] @ Q - av[j] * space.eplus[j]
            worst = max(worst, float(np.abs(up).max()), float(np.abs(dn).max()))
    out.append(CheckResult(f"{name}: ladder relation", worst, 1e-12))

    mult_res = 0.0
    if space.spec.family == "su_mn":
        m, n = space.spec.m, space.spec.n
        expected = {"diff": 2, "sum": 2, "twice": 1, "single": 2 * (m - n)}
        mult_res = max((abs(mu - expected[r.kind]) for r, mu in
                        zip(space.roots, space.mult)), default=0.0)
    else:
        mult_res = max((abs(mu - 2) for mu in space.mult), default=0.0)
    out.append(CheckResult(f"{name}: multiplicities", float(mult_res), 0.5))

    dim_res = abs(space.rank + space.dim_m + 2 * space.K - space.dim_algebra)
    out.append(CheckResult(f"{name}: dimension sum", float(dim_res), 0.5))
    return out


def slice_checks(space: SymmetricSpaceData, rng: np.random.Generator,
                 n_draws: int = 100) -> list:
    """Momentum map vanishes on slice points built from admissible data."""
    spec = default_orbit_spec(space)
    worst = 0.0
    for _ in range(n_draws):
        pt = random_phase_point(space, rng, spec)
        up = orbits.build_slice_point(space, pt.q, pt.p, pt.xi)
        worst = max(worst, float(np.linalg.norm(orbits.moment_map(space, up))))
    return [CheckResult(f"{space.label()}: slice momentum-map residual ({n_draws} draws)",
                        worst, 1e-10)]


def bracket_checks(space: SymmetricSpaceData, rng: np.random.Generator,
                   n_draws: int = 200) -> list:
    """Invariant-bracket vanishing plus the two commutator identities."""
    name = space.label()
    has_block = space.spec.family == "su_mn"
    spec = default_orbit_spec(space)
    worst_gg = worst_mix = worst_413 = worst_416 = 0.0
    for _ in range(n_draws):
        pt = random_phase_point(space, rng, spec)
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
    out = [
        CheckResult(f"{name}: full-invariant brackets vanish", worst_gg, 1e-10),
        CheckResult(f"{name}: mirror commutator identity", worst_416, 1e-10),
    ]
    if has_block:
        out.append(CheckResult(f"{name}: mixed brackets vanish at unit parameter",
                               worst_mix, 1e-10))
        out.append(CheckResult(f"{name}: mixed commutator identity", worst_413, 1e-10))
    return out


def noninvolution_witness(rng: np.random.Generator, n_draws: int = 60) -> CheckResult:
    """Find a configuration where two compact-only invariants fail to
    Poisson-commute (threshold 1e-4); reported with its reproduction data."""
    space = algebra.build_space(SpaceSpec.su(2, 2))
    spec = OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2)
    f = InvariantSpec("block_invariant", 1)
    h = InvariantSpec("block_invariant", 2)
    best, details = 0.0, ""
    for i in range(n_draws):
        pt = random_phase_point(space, rng, spec)
        x, y = rng.uniform(-2.0, 2.0, size=2)
        val = abs(dynamics.bracket_formula(space, f, x, h, y, pt))
        if val > best:
            best = val
            details = (f"su(2,2), x={x:.6g}, y={y:.6g}, q={pt.q.tolist()}, "
                       f"p={pt.p.tolist()}, |bracket|={val:.6g}")
        if best > 1e-2:
            break
    # "residual" is 1/witness so that passed means witness > tol-threshold
    return CheckResult("non-involution witness (block invariants, su(2,2))",
                       1.0 / best if best > 0 else np.inf, 1e4, details=details)


def reduction_checks(rng: np.random.Generator) -> list:
    """Single-point BC reductions, the emptiness probe and Eq-style coupling
    relation draws."""
    out = []
    for n, kappa, x in [(1, 1.0, 0.4), (2, 3.0, 1.0), (3, 2.0, 0.5)]:
        space = algebra.build_space(SpaceSpec.su(n + 1, n))
        rep = orbits.reduce_orbit_check(space, kappa, x, rng, n_samples=24)
        res = max(rep.diag_constraint_residual, rep.normal_form_residual,
                  rep.xi_match_residual)
        out.append(CheckResult(f"su({n + 1},{n}): BC orbit reduces to a point", res, 1e-10))

    space = algebra.build_space(SpaceSpec.su(3, 2))
    margin = orbits.emptiness_probe(space, 1.0, 0.5, rng, n_samples=10000)
    out.append(CheckResult(
        "su(3,2): slice-emptiness margin for the shifted size-n orbit",
        1.0 / margin if margin > 0 else np.inf, 1e3,
        details=f"min M-part norm over 10^4 samples = {margin:.6g}"))

    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        kappa = float(rng.uniform(0.05, 4.0))
        x = float(rng.uniform(-kappa, kappa / n))
        worst = max(worst, models.coupling_relation_residual(n, kappa, x))
    out.append(CheckResult("coupling relation g1^2 - 2g^2 + sqrt(2) g g2 (1000 draws)",
                           worst, 1e-13))
    return out


def catalog_checks(rng: np.random.Generator, n_samples: int = 50) -> list:
    """Reduced Hamiltonian equals the closed-form catalog entry."""
    out = []
    for model in models.CATALOG:
        res = models.machinery_equals_closed_form(model, rng, n_samples=n_samples)
        out.append(CheckResult(f"{model.label()}: machinery vs closed form", res, 1e-12))
    return out


def freezing_checks(rng: np.random.Generator, n_points: int = 20) -> list:
    """Freezing gauge solvable at random chamber points for every catalog
    entry."""
    out = []
    for model in models.CATALOG:
        space = models.model_space(model)
        mu = models.model_spin(space, model)
        worst_solve = worst_frozen = 0.0
        for _ in range(n_points):
            q = algebra.random_chamber_point(space, rng)
            res = dynamics.freezing_solve(space, q, mu)
            worst_solve = max(worst_solve, res.residual)
            worst_frozen = max(worst_frozen, res.frozen_residual)
        out.append(CheckResult(f"{model.label()}: freezing solve residual", worst_solve, 1e-9))
        out.append(CheckResult(f"{model.label()}: frozen-spin condition", worst_frozen, 1e-8))
    return out


def run_verify(space_specs: list, seed: int = 0, n_draws: int = 100) -> dict:
    """Full verification battery over a list of SpaceSpec; JSON-able report."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    for spec in space_specs:
        space = algebra.build_space(spec)
        results += basis_checks(space, rng)
        results += slice_checks(space, rng, n_draws=n_draws)
        results += bracket_checks(space, rng, n_draws=max(50, n_draws))
    results.append(noninvolution_witness(rng))
    results += reduction_checks(rng)
    results += catalog_checks(rng)
    results += freezing_checks(rng)
    return {
        "checks": [r.row() for r in results],
        "n_checks": len(results),
        "n_failed": sum(not r.passed for r in results),
        "all_passed": all(r.passed for r in results),
    }
