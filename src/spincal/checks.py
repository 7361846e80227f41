"""Structural verification suite.

Every check returns a :class:`CheckResult` with the measured residual and
its tolerance, so the same battery backs the test suite and the command
line ``verify`` report.  Checks cover: basis orthonormality and ladder
relations, slice/momentum-map consistency, vanishing of the invariant
Poisson brackets (with the two commutator identities behind the proof), the
non-involution witness for compact-only invariants, single-point orbit
reduction and the slice-emptiness probe, the quadratic coupling relation,
and agreement of the reduced Hamiltonian with the closed-form catalog.

Each check builds its draw rule once per space (or model): the slice
verdict and the moduli the slice fixes (:func:`orbits.slice_draw_rule`).
Its draw loop then makes only generator calls, one per random quantity of
a draw, in the order of the per-draw functions (:func:`random_phase_point`
and friends), so a seed gives the same draws and leaves the generator in
the same state.  All other arithmetic (moduli, phases, chamber sums, mean
shifts, projectors) and every check evaluation run once on the stacked
draws.  A residual is the largest over the draws, and a NaN draw makes it
NaN, so the check fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, dynamics, models, orbits
from .algebra import SpaceSpec, SymmetricSpaceData
from .dynamics import InvariantSpec
from .orbits import OrbitSpec

__all__ = [
    "CheckResult", "default_orbit_spec", "random_phase_point", "basis_checks", "slice_checks",
    "bracket_checks", "noninvolution_witness", "reduction_checks", "catalog_spins",
    "catalog_checks", "freezing_checks", "run_verify",
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
    """A random phase point with on-slice spin data of the orbit (default
    :func:`default_orbit_spec`): one :func:`_phase_draw` of its draw rule."""
    rule = orbits.slice_draw_rule(space, spec or default_orbit_spec(space))
    return _phase_points(rule, *_phase_draw(rule, rng))


def _phase_draw(rule: orbits.SliceDrawRule, rng: np.random.Generator) -> tuple:
    """One phase point's generator calls: the rule's spin draw with q's
    chamber gaps in its phases' ``rng.random`` call, then p."""
    nc = rule.space.n_coords
    return (*rule.draw(rng, extra=nc), rng.standard_normal(nc))


def _phase_points(rule: orbits.SliceDrawRule, e, r, p) -> dynamics.PhasePoint:
    """The phase point of draws of :func:`_phase_draw`, stacked along a
    leading axis (:func:`_stack`) or not."""
    space = rule.space
    q = algebra.chamber_points(space, r[..., rule.n_phases:])
    if space.spec.family == "sl_kc":
        p = p - p.mean(axis=-1, keepdims=True)
    return dynamics.make_phase_point(space, q, p, rule.spins(e, r))


def _stack(draws: list) -> list:
    """The draws of one generator call site as arrays, one row per draw
    (None where a call site made no call)."""
    return [None if col[0] is None else np.array(col) for col in zip(*draws)]


def _worst(values) -> float:
    """The largest value; NaN if any value is NaN."""
    return float(np.max(values))


# ---------------------------------------------------------------------------

def basis_checks(space: SymmetricSpaceData, rng: np.random.Generator,
                 n_ladder: int = 20) -> list:
    """Orthonormality, ladder relation, multiplicities, dimension sums."""
    name = space.label()
    out = []

    K = space.K
    stack = np.concatenate([space.eplus, space.eminus, space.a_basis, space.m_basis])
    signs = [-np.ones(K), np.ones(K), np.ones(space.rank), -np.ones(space.dim_m)]
    gram = np.einsum("iab,jba->ij", stack, stack).real
    res = float(np.abs(gram - np.diag(np.concatenate(signs))).max())
    out.append(CheckResult(f"{name}: basis orthonormality", res, 1e-12))

    qs = np.array([rng.standard_normal(space.n_coords) for _ in range(n_ladder)])
    if space.spec.family == "sl_kc":
        qs -= qs.mean(axis=1, keepdims=True)
    # every draw against every basis column: shape (draws, K, N, N)
    Q = algebra.embed(space, qs)[:, None]
    av = space.alpha_cols(qs)[..., None, None]
    up = Q @ space.eplus - space.eplus @ Q - av * space.eminus
    dn = Q @ space.eminus - space.eminus @ Q - av * space.eplus
    out.append(CheckResult(f"{name}: ladder relation",
                           _worst([np.abs(up).max(), np.abs(dn).max()]), 1e-12))

    # the counted columns per root against the paper's table (sl(k,C) has
    # only "diff" roots)
    expected = {"diff": 2, "sum": 2, "twice": 1, "single": 2 * (space.spec.m - space.spec.n)}
    mult_res = max(abs(mu - expected[r.kind]) for r, mu in zip(space.roots, space.mult))
    out.append(CheckResult(f"{name}: multiplicities", float(mult_res), 0.5))

    dim_res = abs(space.rank + space.dim_m + 2 * space.K - space.dim_algebra)
    out.append(CheckResult(f"{name}: dimension sum", float(dim_res), 0.5))
    return out


def slice_checks(space: SymmetricSpaceData, rng: np.random.Generator,
                 n_draws: int = 100) -> list:
    """Momentum map vanishes on slice points built from admissible data."""
    rule = orbits.slice_draw_rule(space, default_orbit_spec(space))
    pt = _phase_points(rule, *_stack([_phase_draw(rule, rng) for _ in range(n_draws)]))
    psi = orbits.moment_map(space, orbits.build_slice_point(space, pt.q, pt.p, pt.xi))
    return [CheckResult(f"{space.label()}: slice momentum-map residual ({n_draws} draws)",
                        _worst(np.linalg.norm(psi, axis=(-2, -1))), 1e-10)]


def _gradients(space: SymmetricSpaceData, cls: str, orders, L: np.ndarray) -> np.ndarray:
    """dynamics.gradient of each draw's invariant (class cls, its order in
    orders) at its matrix of L: one call per order."""
    out = np.empty_like(L)
    for k in np.unique(orders):
        sel = orders == k
        out[sel] = dynamics.gradient(space, InvariantSpec(cls, int(k)), L[sel])
    return out


def bracket_checks(space: SymmetricSpaceData, rng: np.random.Generator,
                   n_draws: int = 200) -> list:
    """Invariant-bracket vanishing plus the two commutator identities.

    Per draw: two full invariants f, h (trace powers of orders 2-4) at
    parameters x, y give dynamics.bracket_formula (x y plus - minus) and
    dynamics.identity_416 from one evaluation of the pairings; on su(m,n) a
    block invariant b at x against h gives bracket_formula at y = +-1 and
    dynamics.identity_413 at y."""
    name = space.label()
    has_block = space.spec.family == "su_mn"
    rule = orbits.slice_draw_rule(space, default_orbit_spec(space))
    draws, xy, orders, block_orders, coins = [], [], [], [], []
    for _ in range(n_draws):
        draws.append(_phase_draw(rule, rng))
        xy.append(rng.random(2))
        orders.append(rng.integers(2, 5, size=2))
        if has_block:
            block_orders.append(rng.integers(1, 3))
            coins.append(rng.random())
    pt = _phase_points(rule, *_stack(draws))
    xi = pt.xi.xi
    x, y = -2.0 + 4.0 * np.array(xy).T  # on [-2, 2), as rng.uniform(-2, 2) rounds them
    kf, kh = np.array(orders).T
    ysign = np.where(np.array(coins) < 0.5, 1.0, -1.0)
    # one Lax matrix per draw at each of x, y and (su(m,n) only) +-1, in one call
    params = [x, y, ysign] if has_block else [x, y]
    lax_x, lax_y, *lax_s = dynamics.lax(space, pt, np.array(params))
    grad_h = _gradients(space, "trace_power", kh, lax_y)
    plus, minus = dynamics.gradient_pairings(
        space, xi, _gradients(space, "trace_power", kf, lax_x), grad_h)
    out = [
        CheckResult(f"{name}: full-invariant brackets vanish",
                    _worst(np.abs(x * y * plus - minus)), 1e-10),
        CheckResult(f"{name}: mirror commutator identity",
                    _worst(np.abs(y * plus - x * minus)), 1e-10),
    ]
    if has_block:
        grad_b = _gradients(space, "block_invariant", np.array(block_orders), lax_x)
        grad_s = _gradients(space, "trace_power", kh, lax_s[0])
        plus, minus = dynamics.gradient_pairings(space, xi, grad_b, grad_s)
        out.append(CheckResult(f"{name}: mixed brackets vanish at unit parameter",
                               _worst(np.abs(x * ysign * plus - minus)), 1e-10))
        plus, minus = dynamics.gradient_pairings(space, xi, grad_b, grad_h)
        out.append(CheckResult(f"{name}: mixed commutator identity",
                               _worst(np.abs(x * plus - y * minus)), 1e-10))
    return out


def noninvolution_witness(rng: np.random.Generator, n_draws: int = 60) -> CheckResult:
    """Find a configuration where two compact-only invariants fail to
    Poisson-commute (threshold 1e-4); reported with its reproduction data."""
    space = algebra.build_space(SpaceSpec.su(2, 2))
    rule = orbits.slice_draw_rule(space, OrbitSpec.su(kappa_m=1.0, kappa_n=0.5, x=0.2))
    f = InvariantSpec("block_invariant", 1)
    h = InvariantSpec("block_invariant", 2)
    best, details = 0.0, ""
    for i in range(n_draws):
        pt = _phase_points(rule, *_phase_draw(rule, rng))
        x, y = -2.0 + 4.0 * rng.random(2)  # the doubles of rng.uniform(-2, 2, size=2)
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
        res = _worst([rep.diag_constraint_residual, rep.normal_form_residual,
                      rep.xi_match_residual])
        out.append(CheckResult(f"su({n + 1},{n}): BC orbit reduces to a point", res, 1e-10))

    space = algebra.build_space(SpaceSpec.su(3, 2))
    margin = orbits.emptiness_probe(space, 1.0, 0.5, rng, n_samples=10000)
    out.append(CheckResult(
        "su(3,2): slice-emptiness margin for the shifted size-n orbit",
        np.inf if margin <= 0 else 1.0 / margin, 1e3,  # a NaN margin stays NaN
        details=f"min M-part norm over 10^4 samples = {margin:.6g}"))

    ns, rs = [], []
    for _ in range(1000):
        ns.append(rng.integers(1, 6))
        rs.append(rng.random(2))  # the doubles of rng.uniform(size=2)
    n, r = np.array(ns), np.array(rs)
    # kappa on [0.05, 4) and x on [-kappa, kappa / n), as rng.uniform rounds them
    kappa = 0.05 + (4.0 - 0.05) * r[:, 0]
    x = -kappa + (kappa / n + kappa) * r[:, 1]
    residuals = models.coupling_relation_residual(n, kappa, x)
    out.append(CheckResult("coupling relation g1^2 - 2g^2 + sqrt(2) g g2 (1000 draws)",
                           _worst(residuals), 1e-13))
    return out


def catalog_spins() -> list:
    """The frozen spin of each catalog model (:func:`models.model_spin`), in
    catalog order."""
    return [models.model_spin(models.model_space(model), model) for model in models.CATALOG]


def catalog_checks(rng: np.random.Generator, n_samples: int = 50,
                   spins: list | None = None) -> list:
    """Reduced Hamiltonian equals the closed-form catalog entry, with the
    models' spins (default :func:`catalog_spins`)."""
    out = []
    for model, spin in zip(models.CATALOG, catalog_spins() if spins is None else spins):
        res = models.machinery_equals_closed_form(model, rng, n_samples=n_samples, spin=spin)
        out.append(CheckResult(f"{model.label()}: machinery vs closed form", res, 1e-12))
    return out


def freezing_checks(rng: np.random.Generator, n_points: int = 20,
                    spins: list | None = None) -> list:
    """Freezing gauge solvable at random chamber points for every catalog
    entry: one dynamics.FreezeCertificate per model and spin (default
    :func:`catalog_spins`), evaluated at all of its points
    (dynamics.freezing_solve at each point)."""
    out = []
    for model, spin in zip(models.CATALOG, catalog_spins() if spins is None else spins):
        space = models.model_space(model)
        cert = dynamics.FreezeCertificate(space, spin)
        qs = algebra.chamber_points(space, rng.uniform(size=(n_points, space.n_coords)))
        algebra.require_off_wall(space, qs)
        _, linear, frozen, _ = cert.at(qs)
        out.append(CheckResult(f"{model.label()}: freezing solve residual", _worst(linear),
                               dynamics.FREEZE_LINEAR_TOL))
        out.append(CheckResult(f"{model.label()}: frozen-spin condition", _worst(frozen),
                               dynamics.FREEZE_FROZEN_TOL))
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
    spins = catalog_spins()  # built once, for both catalog checks
    results += catalog_checks(rng, spins=spins)
    results += freezing_checks(rng, spins=spins)
    return {
        "checks": [r.row() for r in results],
        "n_checks": len(results),
        "n_failed": sum(not r.passed for r in results),
        "all_passed": all(r.passed for r in results),
    }
