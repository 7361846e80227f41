"""Closed-form spinless Calogero catalog.

Each entry names a single-point orbit reduction together with the resulting
inverse-sinh-squared Hamiltonian.  The catalog is used standalone and as an
oracle for the reduction machinery: the closed forms below must agree with
the reduced Hamiltonian evaluated on the corresponding orbit representative
to machine precision.

    bc  two-coupling BC_n model on su(n+1, n):
        H = 1/2 sum p^2 + sum g1^2/sinh^2(q_k) + sum g2^2/sinh^2(2 q_k)
            + sum_{k<l} g^2/sinh^2(q_k - q_l) + sum_{k<l} g^2/sinh^2(q_k + q_l)
        with g = (kappa+x)/2, g1 = sqrt((kappa+x)(kappa-n x)/2),
        g2 = (n+1) x / sqrt(2); the couplings satisfy
        g1^2 - 2 g^2 + sqrt(2) g g2 = 0.
    c   C_n model on su(n, n): pair couplings kappa^2/4 and a 2q_k term
        with coefficient n^2 x^2 / 2.
    d   D_n-type degeneration on su(m >= n, n): pair couplings kappa^2/4 only.
    a   hyperbolic Sutherland model on sl(k, C): pair coupling g^2 = kappa^2
        (the constant is fixed by the reduction machinery and regression
        tested, see SUTHERLAND_COUPLING_FACTOR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, dynamics, orbits
from .algebra import AdmissibilityError, SpaceSpec, SymmetricSpaceData
from .orbits import SpinPoint, bc_couplings, validate_params

__all__ = [
    "SpinlessModel", "SUTHERLAND_COUPLING_FACTOR", "validate_params", "model_space", "model_spin",
    "closed_form_H", "machinery_equals_closed_form", "coupling_relation_residual", "CATALOG",
]

#: Sutherland pair coupling is g^2 = SUTHERLAND_COUPLING_FACTOR * kappa^2 in
#: the kinetic normalization H = 1/2 sum p^2 + ...; the value is pinned by the
#: reduction machinery (see test_sutherland_coupling_regression).
SUTHERLAND_COUPLING_FACTOR = 1.0


@dataclass(frozen=True)
class SpinlessModel:
    """Catalog entry; n counts particles (k for the Sutherland family)."""

    family: str          # "bc" | "c" | "d" | "a"
    n: int
    kappa: float
    x: float = 0.0
    m_ambient: int = 0   # "d" only: ambient m >= n, default n

    def __post_init__(self):
        msg = validate_params(self.family, self.n, self.kappa, self.x)
        if msg is not None:
            raise AdmissibilityError(msg)
        if self.family == "d" and self.m_ambient and self.m_ambient < self.n:
            raise AdmissibilityError("ambient m must be >= n")

    def label(self) -> str:
        base = {"bc": "BC", "c": "C", "d": "D", "a": "A"}[self.family]
        if self.family == "a":
            return f"{base}[k={self.n}, kappa={self.kappa:g}]"
        if self.family == "d":
            return f"{base}[n={self.n}, kappa={self.kappa:g}]"
        return f"{base}[n={self.n}, kappa={self.kappa:g}, x={self.x:g}]"


def model_space(model: SpinlessModel) -> SymmetricSpaceData:
    if model.family == "bc":
        return algebra.build_space(SpaceSpec.su(model.n + 1, model.n))
    if model.family == "c":
        return algebra.build_space(SpaceSpec.su(model.n, model.n))
    if model.family == "d":
        m = model.m_ambient or model.n
        return algebra.build_space(SpaceSpec.su(m, model.n))
    return algebra.build_space(SpaceSpec.sl(model.n))


def model_spin(space: SymmetricSpaceData, model: SpinlessModel) -> SpinPoint:
    """Frozen orbit representative realizing the model."""
    case = {"bc": "bc", "c": "c", "d": "d", "a": "kks"}[model.family]
    return orbits.xi_red(space, case, model.kappa, model.x)


def coupling_relation_residual(n, kappa, x):
    """|g1^2 - 2 g^2 + sqrt(2) g g2| of :func:`bc_couplings`; arrays of data
    give one residual per entry.  The squares are C ``pow``, as Python's
    ``**`` takes them, so that each entry has the bits of its own call;
    couplings that overflow give an infinite or NaN residual."""
    g, g1, g2 = bc_couplings(n, kappa, x)
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.abs(np.float_power(g1, 2) - 2.0 * np.float_power(g, 2)
                     + math.sqrt(2.0) * g * g2)
    return _value(res)


def _pair_terms(q):
    """q_i - q_j and q_i + q_j over the pairs i < j of the last axis."""
    q = np.asarray(q, dtype=float)
    i, j = np.triu_indices(q.shape[-1], k=1)
    return q[..., i] - q[..., j], q[..., i] + q[..., j]


def _pole_sum(z):
    """sum 1/sinh^2(z) along the last axis, with the far-out limit 0 past
    algebra.FAR_ROOT."""
    return np.sum(algebra.PHI_FUNCTIONS["inv_sinh_sq"][0](z), axis=-1)


def closed_form_H(model: SpinlessModel, q, p):
    """Evaluate the catalog Hamiltonian at coordinates (q, p): a float, or
    one value per row of stacked q and p."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    kin = 0.5 * algebra.row_dots(p, p)
    if model.family == "a":
        diff = _pair_terms(q)[0]
        if np.abs(diff).min(initial=np.inf) < algebra.EPS_WALL:
            raise algebra.WallProximityError("coinciding particles")
        g2 = SUTHERLAND_COUPLING_FACTOR * model.kappa ** 2
        return _value(kin + g2 * _pole_sum(diff))

    diff, summ = _pair_terms(q)
    walls = [np.abs(q).min(initial=np.inf)]
    if diff.size:
        walls += [np.abs(diff).min(), np.abs(summ).min()]
    if min(walls) < algebra.EPS_WALL:
        raise algebra.WallProximityError("configuration on a chamber wall")

    if model.family == "bc":
        g, g1, g2 = bc_couplings(model.n, model.kappa, model.x)
        return _value(kin + g1 ** 2 * _pole_sum(q) + g2 ** 2 * _pole_sum(2.0 * q)
                      + g ** 2 * _pole_sum(diff) + g ** 2 * _pole_sum(summ))
    pair_c = model.kappa ** 2 / 4.0
    val = kin + pair_c * _pole_sum(diff) + pair_c * _pole_sum(summ)
    if model.family == "c":
        val = val + (model.n ** 2 * model.x ** 2 / 2.0) * _pole_sum(2.0 * q)
    return _value(val)


def _value(val):
    return float(val) if np.ndim(val) == 0 else val


def machinery_equals_closed_form(model: SpinlessModel, rng: np.random.Generator,
                                 n_samples: int = 100, spin: SpinPoint | None = None) -> float:
    """Max |H_reduced - H_closed_form| over random phase-space draws: per
    draw the generator calls of algebra.random_chamber_point, then p; both
    sides evaluated on all draws at once, with the model's spin (default
    :func:`model_spin`)."""
    space = model_space(model)
    if spin is None:
        spin = model_spin(space, model)
    nc = space.n_coords
    rs, ps = [], []
    for _ in range(n_samples):
        rs.append(rng.random(nc))
        ps.append(rng.standard_normal(nc))
    q = algebra.chamber_points(space, np.array(rs))
    p = np.array(ps)
    if space.spec.family == "sl_kc":
        p -= p.mean(axis=-1, keepdims=True)
    pt = dynamics.make_phase_point(space, q, p, spin)
    return float(np.max(np.abs(dynamics.hamiltonian(space, pt) - closed_form_H(model, q, p))))


#: desk-scale catalog instances used by the verification suite
CATALOG = (
    SpinlessModel("bc", 1, 1.0, 0.3),
    SpinlessModel("bc", 2, 3.0, 1.0),
    SpinlessModel("bc", 3, 2.0, 0.5),
    SpinlessModel("c", 2, 1.0, 0.7),
    SpinlessModel("c", 3, 2.0, 0.0),
    SpinlessModel("c", 2, 0.0, 0.9),
    SpinlessModel("d", 2, 1.5),
    SpinlessModel("d", 3, 1.0),
    SpinlessModel("a", 2, 1.0),
    SpinlessModel("a", 3, 0.8),
    SpinlessModel("a", 4, 1.2),
)
