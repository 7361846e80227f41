"""Coadjoint orbits of the compact subgroup, momentum map and gauge slice.

The unreduced phase space is ``{(Lambda, J_minus)}`` with ``Lambda`` a
positive-definite group element of the noncompact part and ``J_minus`` in
g-minus, extended by a coadjoint orbit variable ``xi`` in g-plus.  The
momentum map of the diagonal compact action is

    Psi(Lambda, J_minus, xi) = tanh(ad_Q) J_minus + xi,   Q = log(Lambda)/2,

and its zero set intersected with the exponential gauge slice is
parametrized by ``(q, p, xi)`` with ``xi`` constrained to M-perp.  This
module provides the slice map, orbit representatives built from rank-one
projectors, the single-point ("spinless") orbit reductions and their
verification, and samplers for generic on-slice spin data.  Like the
algebra layer, the spin, slice and momentum-map functions take stacks of
points along leading axes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import (
    AdmissibilityError,
    MembershipError,
    SymmetricSpaceData,
)

__all__ = [
    "OrbitSpec", "SpinPoint", "UnreducedPoint", "eta_of_u", "orbit_base_point",
    "random_orbit_point", "random_slice_spin", "SliceDrawRule", "slice_draw_rule", "slice_spin",
    "spin_point", "zero_spin", "moment_map", "build_slice_point", "validate_params", "xi_red",
    "reduce_orbit_check", "emptiness_probe", "ReductionReport", "expm_herm", "logm_herm",
    "diagonalize_flat",
]

EPS_ONSLICE = 1e-10
_EPS_NORM = 1e-10   # relative bound of the |u|^2 = k kappa orbit constraint
_PROBE_BLOCK = 2048  # emptiness_probe samples per block


# ---------------------------------------------------------------------------
# Hermitian matrix functions (Lambda is always Hermitian positive definite)
# ---------------------------------------------------------------------------

def expm_herm(H: np.ndarray) -> np.ndarray:
    H = 0.5 * (H + algebra.dagger(H))
    w, V = np.linalg.eigh(H)
    return (V * np.exp(w)[..., None, :]) @ algebra.dagger(V)


def _expm_antiherm(Z: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(-1j * Z)
    return (V * np.exp(1j * w)[..., None, :]) @ algebra.dagger(V)


def logm_herm(P: np.ndarray) -> np.ndarray:
    P = 0.5 * (P + algebra.dagger(P))
    w, V = np.linalg.eigh(P)
    if np.any(w <= 0):
        raise ValueError(f"matrix is not positive definite (min eig {w.min():.3e})")
    return (V * np.log(w)[..., None, :]) @ algebra.dagger(V)


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitSpec:
    """Coadjoint orbit of the compact subgroup with minimal constituents.

    For the su(m,n) family the orbit is
        O = O~(m, kappa_m) + O~(n, kappa_n) + x * C_{m,n}
    with minimal constituent orbits (a zero kappa means the constituent is
    absent) and central coefficient x.  For sl(k,C) the orbit is the minimal
    orbit of the compact group with parameter kappa.
    """

    family: str  # "su_mn" | "sl_kc"
    kappa_m: float = 0.0
    kappa_n: float = 0.0
    x: float = 0.0
    kappa: float = 0.0

    @staticmethod
    def su(kappa_m: float = 0.0, kappa_n: float = 0.0, x: float = 0.0) -> "OrbitSpec":
        if not (0 <= kappa_m < math.inf and 0 <= kappa_n < math.inf and math.isfinite(x)):
            raise AdmissibilityError("orbit parameters must be finite, the constituents >= 0 "
                                     f"(kappa_m = {kappa_m}, kappa_n = {kappa_n}, x = {x})")
        if kappa_m == 0 and kappa_n == 0 and x == 0:
            raise AdmissibilityError("orbit must be nonzero")
        return OrbitSpec("su_mn", kappa_m=float(kappa_m), kappa_n=float(kappa_n), x=float(x))

    @staticmethod
    def kks(kappa: float) -> "OrbitSpec":
        if not 0 < kappa < math.inf:
            raise AdmissibilityError(f"KKS orbit requires a finite kappa > 0 (kappa = {kappa})")
        return OrbitSpec("sl_kc", kappa=float(kappa))


@dataclass(frozen=True)
class SpinPoint:
    """On-slice spin: an orbit element xi in M-perp (g-plus with a vanishing
    M-part) and its M-perp coefficients, certified by :func:`spin_point`.
    Off-slice orbit elements are plain matrices.  Zero spin
    (:func:`zero_spin`, free motion) is an ordinary spin: every formula
    with spin gives the free value on its zero coefficients."""

    xi: np.ndarray
    coeffs: np.ndarray   # M-perp coefficients, basis order


@dataclass(frozen=True)
class UnreducedPoint:
    """Point of the extended unreduced phase space (Lambda, J_minus, xi),
    with xi an orbit element of g-plus, on the slice or not."""

    Lam: np.ndarray
    j_minus: np.ndarray
    xi: np.ndarray


# ---------------------------------------------------------------------------
# Spin points
# ---------------------------------------------------------------------------

def spin_point(space: SymmetricSpaceData, xi: np.ndarray) -> SpinPoint:
    """The SpinPoint of an orbit element; certifies g-plus membership, the
    slice condition (vanishing M-part) and the coefficient expansion in the
    M-perp basis.  A stack of elements gives one SpinPoint holding the
    stack, certified matrix by matrix."""
    xi = np.asarray(xi, dtype=complex)
    gminus_part = algebra.project(space, xi, "gminus")
    res = np.maximum(algebra.membership_residual(space, xi),
                     np.abs(gminus_part).max(axis=(-2, -1), initial=0.0))
    if np.any(res > algebra.EPS_MEMBERSHIP):
        raise MembershipError(f"xi is not in g+ (residual {np.max(res):.3e})")
    cm, cplus = algebra.coefficients(space, xi, "m"), algebra.coefficients(space, xi, "mperp")
    m_norm = np.linalg.norm(cm, axis=-1)
    if np.any(m_norm > EPS_ONSLICE):
        raise MembershipError(f"xi has a nonzero M-part (norm {np.max(m_norm):.3e})")
    recon = algebra.reconstruct(space, cplus=cplus)
    scale = np.maximum(1.0, np.abs(xi).max(axis=(-2, -1)))
    if np.any(np.abs(recon - xi).max(axis=(-2, -1), initial=0.0) > 1e-12 * scale):
        raise MembershipError("xi is not spanned by the M-perp basis")
    return SpinPoint(xi=xi, coeffs=cplus)


def zero_spin(space: SymmetricSpaceData) -> SpinPoint:
    return SpinPoint(xi=np.zeros((space.N, space.N), complex), coeffs=np.zeros(space.K))


# ---------------------------------------------------------------------------
# Rank-one orbit representatives
# ---------------------------------------------------------------------------

def eta_of_u(u: np.ndarray, kappa: float) -> np.ndarray:
    """Traceless anti-Hermitian projector i(u u+ - (u+u/k) 1) on the minimal
    orbit with parameter kappa; requires |u|^2 = k * kappa.  u is a vector,
    or a stack of vectors along leading axes."""
    u = np.asarray(u, dtype=complex)
    k = u.shape[-1]
    norm2 = algebra.row_dots(u.conj(), u).real
    bad = np.abs(norm2 - k * kappa) > _EPS_NORM * max(1.0, k * kappa)
    if np.any(bad):
        raise AdmissibilityError(f"norm constraint violated: |u|^2 = "
                                 f"{np.extract(bad, norm2)[0]:.12g}, expected {k * kappa:.12g}")
    return 1j * (u[..., :, None] * u.conj()[..., None, :]
                 - (norm2 / k)[..., None, None] * np.eye(k))


def _central_element(m: int, n: int) -> np.ndarray:
    return np.diag(np.concatenate([1j * n * np.ones(m), -1j * m * np.ones(n)]))


def _embed_su_factor(space: SymmetricSpaceData, eta: np.ndarray, which: str) -> np.ndarray:
    """Embed an su(m) or su(n) element (or a stack) into its diagonal block."""
    m = space.spec.m
    out = np.zeros(eta.shape[:-2] + (space.N, space.N), complex)
    if which == "m":
        out[..., :m, :m] = eta
    else:
        out[..., m:, m:] = eta
    return out


def _orbit_element(space: SymmetricSpaceData, spec: OrbitSpec, u, v) -> np.ndarray:
    """The orbit element of the rank-one vectors u (size-m factor, or
    sl(k,C)) and v (size-n factor), None for an absent one: the sum of their
    projectors and the central term.  Stacks of vectors give a stack."""
    if space.spec.family == "sl_kc":
        return eta_of_u(u, spec.kappa)
    lead = next((w.shape[:-1] for w in (u, v) if w is not None), ())
    xi = np.zeros(lead + (space.N, space.N), complex)
    if u is not None:
        xi += _embed_su_factor(space, eta_of_u(u, spec.kappa_m), "m")
    if v is not None:
        xi += _embed_su_factor(space, eta_of_u(v, spec.kappa_n), "n")
    if spec.x != 0.0:
        xi += spec.x * _central_element(space.spec.m, space.spec.n)
    return xi


def _require_factors(space: SymmetricSpaceData, spec: OrbitSpec):
    """A nonzero constituent needs a factor su(k) with k >= 2: su(1) has no
    nonzero orbits."""
    for which, k, kappa in (("m", space.spec.m, spec.kappa_m), ("n", space.spec.n, spec.kappa_n)):
        if kappa > 0 and k < 2:
            raise AdmissibilityError(f"size-{which} factor su(1) has no nonzero orbits")


def _base_u(k: int, kappa: float) -> np.ndarray:
    u = np.zeros(k, dtype=complex)
    u[0] = math.sqrt(k * kappa)
    return u


def orbit_base_point(space: SymmetricSpaceData, spec: OrbitSpec) -> np.ndarray:
    """A reference element of the orbit (not on the slice in general)."""
    if spec.family != space.spec.family:
        raise AdmissibilityError("orbit family does not match the space")
    if space.spec.family == "sl_kc":
        return _orbit_element(space, spec, _base_u(space.spec.k, spec.kappa), None)
    _require_factors(space, spec)
    u, v = (_base_u(k, kappa) if kappa > 0 else None
            for k, kappa in ((space.spec.m, spec.kappa_m), (space.spec.n, spec.kappa_n)))
    return _orbit_element(space, spec, u, v)


def random_orbit_point(space: SymmetricSpaceData, spec: OrbitSpec,
                       rng: np.random.Generator) -> np.ndarray:
    """The base point Ad-conjugated by exp(Z), Z a random element of g-plus:
    an orbit element, on the slice or not."""
    g = _expm_antiherm(algebra.random_gplus_element(space, rng, scale=1.0))
    return g @ orbit_base_point(space, spec) @ g.conj().T


# ---------------------------------------------------------------------------
# Momentum map and the gauge slice
# ---------------------------------------------------------------------------

def diagonalize_flat(space: SymmetricSpaceData, Q: np.ndarray):
    """Conjugate Q in g-minus into the flat: Q = g q^ g^-1 with g compact.

    For su(m,n) the off-diagonal block is SVD-decomposed (singular values in
    descending order give the chamber representative); for sl(k,C) a
    Hermitian eigendecomposition sorted descending is used.  Returns
    (q, g); q may lie on a wall.
    """
    if space.spec.family == "su_mn":
        m = space.spec.m
        U, q, Vh = np.linalg.svd(Q[..., :m, m:])
        g = np.zeros(Q.shape[:-2] + (space.N, space.N), complex)
        g[..., :m, :m] = U
        g[..., m:, m:] = algebra.dagger(Vh)
    else:
        w, V = np.linalg.eigh(0.5 * (Q + algebra.dagger(Q)))
        q = w[..., ::-1].copy()
        g = V[..., ::-1].copy()
    return q, g


def moment_map(space: SymmetricSpaceData, point: UnreducedPoint) -> np.ndarray:
    """Value of the compact-group momentum map Psi = tanh(ad_Q) J_minus + xi
    (one matrix per point of a stack)."""
    Q = 0.5 * logm_herm(point.Lam)
    bad = np.maximum(algebra.membership_residual(space, Q),
                     np.abs(algebra.split(space, Q)[0]).max(axis=(-2, -1), initial=0.0))
    if np.any(bad > 1e-8 * np.maximum(1.0, np.abs(Q).max(axis=(-2, -1)))):
        raise MembershipError(
            f"Lambda is not a noncompact group element (log residual {np.max(bad):.3e})")
    q, g = diagonalize_flat(space, Q)
    g_inv = algebra.dagger(g)
    Jm_rot = g_inv @ point.j_minus @ g
    # tanh(ad_q) componentwise: it kills the A- and M-parts and needs no
    # regular q (tanh(0) = 0; a vanishing flat is the Lambda = 1 case)
    cplus = algebra.coefficients(space, Jm_rot, "mperp")
    cminus = algebra.coefficients(space, Jm_rot, "aperp")
    vals = np.tanh(space.alpha_cols(q))
    Jp_rot = algebra.reconstruct(space, cplus=vals * cminus, cminus=vals * cplus)
    return g @ Jp_rot @ g_inv + point.xi


def build_slice_point(space: SymmetricSpaceData, q, p, xi: SpinPoint) -> UnreducedPoint:
    """Map (q, p, xi) on the slice to the unreduced point
    (e^{2q}, p - coth(ad_q) xi, xi); the momentum map vanishes on the result.
    Rows of q and p with a stacked xi give a stacked point."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if not algebra.is_in_chamber(space, q):
        raise algebra.WallProximityError(f"q = {q} is not in the open Weyl chamber")
    Lam = expm_herm(2.0 * algebra.embed(space, q))
    Jm = algebra.embed(space, p) - algebra.ad_fn_slice(space, "coth", q, xi.coeffs)
    return UnreducedPoint(Lam=Lam, j_minus=Jm, xi=xi.xi)


# ---------------------------------------------------------------------------
# Single-point orbit reductions (spinless data)
# ---------------------------------------------------------------------------

def validate_params(family: str, n: int, kappa: float, x: float = 0.0):
    """Admissibility verdict of a spinless family's data: None when
    admissible, else a description.  n counts particles (k for "a").

    The BC bounds kappa - n x >= 0 and kappa + x >= 0 hold up to a slack of
    1e-14 max(1, kappa, n |x|), so that data on the boundary built in floats
    (kappa = n x with x = 0.1) is accepted, as the exact data is.  A NaN or
    infinite kappa or x is not admissible for any family.
    """
    if not (math.isfinite(kappa) and math.isfinite(x)):
        return f"kappa and x must be finite (kappa = {kappa}, x = {x})"
    if family == "bc":
        if n < 1:
            return "BC case requires n >= 1"
        if kappa <= 0:
            return "BC case requires kappa > 0 (nonzero orbit)"
        slack = 1e-14 * max(1.0, kappa, n * abs(x))
        if kappa - n * x < -slack:
            return f"violation: kappa - n x = {kappa - n * x:.6g} < 0"
        if kappa + x < -slack:
            return f"violation: kappa + x = {kappa + x:.6g} < 0"
        return None
    if family == "c":
        if n < 1:
            return "C case requires n >= 1"
        if kappa < 0:
            return "C case requires kappa >= 0"
        if kappa == 0 and x == 0:
            return "violation: orbit must be nonzero ((kappa, x) != (0, 0))"
        if kappa > 0 and n < 2:
            return "violation: the size-1 factor carries no nonzero minimal orbit"
        return None
    if family == "d":
        if n < 2:
            return "D case requires n >= 2"
        if kappa <= 0:
            return "violation: nonzero-orbit requirement (kappa > 0)"
        if x != 0:
            return "D case has no central term"
        return None
    if family == "a":
        if n < 2:
            return "Sutherland case requires k >= 2"
        if kappa <= 0:
            return "Sutherland case requires kappa > 0"
        return None
    return f"unknown family {family!r}"


def _require_admissible(family: str, n: int, kappa: float, x: float):
    msg = validate_params(family, n, kappa, x)
    if msg is not None:
        raise AdmissibilityError(msg)


def xi_red(space: SymmetricSpaceData, case: str, kappa: float, x: float = 0.0) -> SpinPoint:
    """Representative of a single-point reduced orbit: :func:`slice_spin` of
    the case's zero-phase vectors, for data that the slice admits (the
    verdict of :func:`_slice_moduli_su`, which :func:`validate_params`
    gives without the space).

    case "bc": su(n+1, n), u = (sqrt(kappa + x) 1_n, sqrt(kappa - n x)) in
        the size-m factor, plus x C.
    case "c": su(n, n), v = sqrt(kappa) 1_n in the size-n factor (absent at
        kappa = 0), plus x C.
    case "d": su(m >= n, n), v = sqrt(kappa) 1_n, no central term.
    case "kks": sl(k,C), u = sqrt(kappa) 1_k: the Sutherland ("a") family.
    """
    case = case.lower()
    family = {"bc": "su_mn", "c": "su_mn", "d": "su_mn", "kks": "sl_kc"}.get(case)
    if family is None:
        raise AdmissibilityError(f"unknown spinless case {case!r}")
    if space.spec.family != family:
        raise AdmissibilityError(f"case {case!r} does not live on {space.spec.label()}")
    if case == "kks":
        if not math.isfinite(x):  # unused, but as inadmissible as in validate_params
            raise AdmissibilityError(f"x must be finite (x = {x})")
        spec = OrbitSpec.kks(kappa)
        return slice_spin(space, spec, np.full(space.spec.k, math.sqrt(kappa)), None)
    m, n = space.spec.m, space.spec.n
    if case == "c" and m != n:
        raise AdmissibilityError("C case requires m = n")
    if case == "bc" and m != n + 1:
        raise AdmissibilityError("BC case requires m = n + 1")
    if case == "d" and x != 0:
        raise AdmissibilityError("D case has no central term")
    spec = OrbitSpec.su(kappa_m=kappa, x=x) if case == "bc" else OrbitSpec.su(kappa_n=kappa, x=x)
    _slice_moduli_su(space, spec)  # the verdict: a catalog spec draws nothing
    if case == "bc":
        u = np.sqrt(np.maximum([kappa + x] * n + [kappa - n * x], 0.0))
        return slice_spin(space, spec, u, None)
    return slice_spin(space, spec, None, np.full(n, math.sqrt(kappa)) if kappa > 0 else None)


def bc_couplings(n, kappa, x):
    """(g, g1, g2) of the two-coupling BC_n model; they satisfy
    g1^2 - 2 g^2 + sqrt(2) g g2 = 0.  One datum must pass the verdict of
    :func:`validate_params`; arrays of data (broadcast together) give the
    couplings entry by entry, unchecked, so that a NaN entry gives NaNs."""
    if np.ndim(n) == np.ndim(kappa) == np.ndim(x) == 0:
        _require_admissible("bc", n, kappa, x)
    g = 0.5 * (kappa + x)
    g1 = np.sqrt(np.maximum((kappa + x) * (kappa - n * x), 0.0) / 2.0)
    g2 = (n + 1) * x / math.sqrt(2.0)
    return tuple(float(c) if np.ndim(c) == 0 else c for c in (g, g1, g2))


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of the single-point reduction verification."""

    n_samples: int
    diag_constraint_residual: float
    normal_form_residual: float
    xi_match_residual: float

    @property
    def passed(self) -> bool:
        return bool(np.max([self.diag_constraint_residual, self.normal_form_residual,
                            self.xi_match_residual]) < 1e-10)


def reduce_orbit_check(space: SymmetricSpaceData, kappa: float, x: float,
                       rng: np.random.Generator, n_samples: int = 32) -> ReductionReport:
    """Verify the single-point reduction of the BC-type orbit on su(n+1, n).

    Samples orbit points satisfying the slice moduli constraints, checks the
    diagonal constraint on the projector factor, solves for torus phases
    mapping each sample to the normal form (phase differences against the
    last component), and confirms the result equals the stored
    representative.
    """
    m, n = space.spec.m, space.spec.n
    if space.spec.family != "su_mn" or m != n + 1:
        raise AdmissibilityError("reduce_orbit_check applies to su(n+1, n)")
    target = xi_red(space, "bc", kappa, x)
    C = _central_element(m, n)
    diag_target = np.concatenate([1j * x * np.ones(n), [-1j * x * n]])

    moduli = np.concatenate([np.full(n, math.sqrt(max(kappa + x, 0.0))),
                             [math.sqrt(max(kappa - n * x, 0.0))]])
    # one row of phases per sample; every step below acts on all rows at once
    beta = rng.uniform(0.0, 2.0 * math.pi, size=(n_samples, m))
    u = moduli * np.exp(1j * beta)
    eta = eta_of_u(u, kappa)
    res_diag = np.abs(np.diagonal(eta, axis1=-2, axis2=-1) - diag_target).max(axis=-1, initial=0.0)
    # torus phase solve: phase differences against component n+1 align all
    # components onto a common phase (which drops out of eta)
    phases = np.concatenate([beta[:, -1:] - beta[:, :-1], np.zeros((n_samples, 1))], axis=1)
    t = np.exp(1j * phases)
    # det correction inside SU(m); one sample's -1j * angle / m is Python
    # complex arithmetic, whose division by m is a real one
    t = t * np.exp(-1j * (np.angle(np.prod(t, axis=-1)) / m))[:, None]
    u_hat = t * u
    last = u_hat[:, -1:]
    common = last / np.hypot(last.real, last.imag)  # abs() of one numpy complex is hypot
    res_norm = np.abs(u_hat - common * np.abs(u_hat)).max(axis=-1, initial=0.0)
    xi_rot = _embed_su_factor(space, eta_of_u(u_hat, kappa), "m") + x * C
    # the same rotation realized by an honest centralizer group element
    # (phases repeated in both size-n blocks) must agree
    g = np.zeros((n_samples, space.N, space.N), complex)
    g[:, np.arange(space.N), np.arange(space.N)] = np.concatenate([t, t[:, :n]], axis=1)
    res_match = np.concatenate([
        np.abs(xi_rot - target.xi).max(axis=(-2, -1), initial=0.0),
        np.abs(g @ (_embed_su_factor(space, eta, "m") + x * C) @ algebra.dagger(g)
               - xi_rot).max(axis=(-2, -1), initial=0.0)])
    # a NaN sample makes its residual NaN
    return ReductionReport(n_samples, *(float(np.max(r, initial=0.0))
                                        for r in (res_diag, res_norm, res_match)))


def emptiness_probe(space: SymmetricSpaceData, kappa: float, x: float,
                    rng: np.random.Generator, n_samples: int = 10000) -> float:
    """Minimum M-part norm over random points of the orbit
    O~(n, kappa) + x C on su(n+1, n); a positive lower bound certifies that
    the orbit misses the slice entirely for x != 0."""
    m, n = space.spec.m, space.spec.n
    if space.spec.family != "su_mn" or m != n + 1:
        raise AdmissibilityError("emptiness_probe applies to su(n+1, n)")
    if x == 0.0:
        raise AdmissibilityError("the probe targets x != 0 (x = 0 meets the slice)")
    # xi = embed_n(eta(v)) + x C has M-coefficients cm_b = -Re tr(xi M_b):
    # with B_b = M_b[m:, m:] and |v|^2 = n kappa, a quadratic form in v plus
    # a constant, cm_b = Im(v+ B_b v) - kappa Im tr B_b - x Re tr(C M_b)
    B = space.m_basis[:, m:, m:]
    const = (-kappa * np.trace(B, axis1=1, axis2=2).imag
             - x * np.einsum("ab,jba->j", _central_element(m, n), space.m_basis).real)
    margin = np.inf
    # blocks of draws continue one generator stream; each block's arrays stay
    # small enough for the allocator to hand them back
    for start in range(0, n_samples, _PROBE_BLOCK):
        draws = rng.standard_normal((min(_PROBE_BLOCK, n_samples - start), 2, n))
        v = draws[:, 0] + 1j * draws[:, 1]  # the (re, im) pairs of each v
        v *= (math.sqrt(n * kappa) / np.linalg.norm(v, axis=1))[:, None]
        norm2 = np.einsum("si,si->s", v.conj(), v).real
        if np.any(np.abs(norm2 - n * kappa) > _EPS_NORM * max(1.0, n * kappa)):
            raise AdmissibilityError(f"norm constraint |v|^2 = {n * kappa:.12g} violated")
        # pairwise: v-bar with every B_b first (one matrix product), then with v
        cm = np.einsum("si,bij,sj->sb", v.conj(), B, v,
                       optimize=["einsum_path", (0, 1), (0, 1)]).imag + const
        margin = np.minimum(margin, np.linalg.norm(cm, axis=1).min())  # keeps a NaN
    return float(margin)


# ---------------------------------------------------------------------------
# Generic on-slice spin data
# ---------------------------------------------------------------------------

def _slice_moduli_su(space: SymmetricSpaceData, spec: OrbitSpec) -> tuple:
    """Squared moduli (t for the size-m factor, s for the size-n one) of the
    on-slice spins of the orbit, and the part the slice leaves free: None, or
    (n, total_t, T) when both constituents are present (no catalog orbit has
    them).  Then each spin has t[:n] = total_t w for a Dirichlet(1, ..., 1)
    draw w with total_t w_j <= T (up to 1e-14), and s = max(T - t[:n], 0).

    This is the admissibility verdict of an orbit on su(m,n), for random
    spins and catalog ones (:func:`xi_red`) alike: AdmissibilityError when a
    nonzero constituent sits on a size-1 factor or the orbit misses the
    slice.  The slice conditions follow from pairing the orbit element
    against M: with t_a = |u_a|^2 and s_j = |v_j|^2,
        kappa_m = 0: s_j = kappa_n, and x = 0 unless m = n (a purely
                    central orbit meets the slice on su(n,n) alone).
        m - n >= 2: requires u to vanish on the middle block and
                    x = kappa_m / n exactly; t_j + s_j constant over j.
        m = n + 1:  t_m = kappa_m - n x >= 0 and
                    t_j + s_j = kappa_m + kappa_n + x >= 0, both up to the
                    slack 1e-14 max(1, kappa_m, kappa_n, n |x|) of the BC
                    bounds in :func:`validate_params`.
        m = n:      t_j + s_j = kappa_m + kappa_n.
    """
    _require_factors(space, spec)
    m, n = space.spec.m, space.spec.n
    km, kn, x = spec.kappa_m, spec.kappa_n, spec.x
    t = np.zeros(m)
    s = np.zeros(n)
    if km == 0:
        if m > n and x != 0.0:
            raise AdmissibilityError(
                "O~(n, kappa) + x C misses the slice for x != 0 on su(m>n, n)")
        s[:] = kn
        return t, s, None
    if m - n >= 2:
        x_req = km / n
        if abs(x - x_req) > 1e-12 * max(1.0, abs(x_req)):
            raise AdmissibilityError(
                f"su({m},{n}) slice data requires x = kappa_m/n = {x_req:.12g}, got {x:.12g}")
        T = kn - km + (m + n) * x_req
        total_t = m * km
    elif m == n + 1:
        t_m = km - n * x
        slack = 1e-14 * max(1.0, km, kn, n * abs(x))
        if t_m < -slack or km + kn + x < -slack:
            raise AdmissibilityError(
                "su(n+1,n) slice requires kappa_m - n x >= 0 and kappa_m + kappa_n + x >= 0")
        t[-1] = max(t_m, 0.0)
        T = km + kn + x
        total_t = m * km - t[-1]
    else:
        T = km + kn
        total_t = n * km
    # the bounds hold up to roundoff or the slack: no modulus is negative
    if kn == 0:
        t[:n] = max(total_t / n, 0.0)
        return t, s, None
    return t, s, (n, total_t, T)


def _dirichlet_draw(rng: np.random.Generator, n: int, total_t: float, T: float) -> np.ndarray:
    """The exponentials e of the first of up to 200 Dirichlet(1, ..., 1)
    draws w = e / sum(e) with total_t w_j <= T + 1e-14, or NaNs when all 200
    miss (the barycenter then stands in).  ``rng.dirichlet(np.ones(n))`` is
    this e = rng.standard_exponential(n) times the reciprocal of its running
    sum, so the test below rounds as that draw times total_t does."""
    bound = T + 1e-14
    for _ in range(200):
        e = rng.standard_exponential(n)
        el = e.tolist()
        acc = 0.0
        for w in el:
            acc += w
        inv = 1.0 / acc
        if all(w * inv * total_t <= bound for w in el):
            return e
    return np.full(n, np.nan)


@dataclass(frozen=True)
class SliceDrawRule:
    """How :func:`random_slice_spin` draws the spins of one orbit on one
    space, built once by :func:`slice_draw_rule`: the space and orbit, the
    squared moduli of u (size-m factor, or sl(k,C)) and v (size-n factor)
    that the slice fixes, None for an absent factor, and the Dirichlet part
    it leaves free (see :func:`_slice_moduli_su`).  :meth:`draw` makes one
    draw's generator calls and nothing else; :meth:`vectors` and
    :meth:`spins` give the vectors and spins of any number of draws at once."""

    space: SymmetricSpaceData
    spec: OrbitSpec
    t: np.ndarray | None
    s: np.ndarray | None
    free: tuple | None   # (n, total_t, T)

    @functools.cached_property
    def n_phases(self) -> int:
        return sum(len(w) for w in (self.t, self.s) if w is not None)

    def draw(self, rng: np.random.Generator, extra: int = 0) -> tuple:
        """One draw's generator calls: the exponentials of its Dirichlet part
        (None when the slice fixes every modulus), then one ``rng.random`` for
        the phases of u and v and ``extra`` more uniform doubles."""
        e = None if self.free is None else _dirichlet_draw(rng, *self.free)
        return e, rng.random(self.n_phases + extra)

    def vectors(self, e, r) -> tuple:
        """(u, v) of draws (e, r) of :meth:`draw`, stacked along leading axes
        or not, r holding only the phases: sqrt(t) exp(i beta) with beta the
        uniform phase 2 pi r on [0, 2 pi), as rng.uniform(0, 2 pi) rounds it."""
        t, s = self.t, self.s
        if self.free is not None:
            n, total_t, T = self.free
            # w = e / sum(e) as rng.dirichlet rounds it: one reciprocal of the
            # running sum; a NaN row is the barycenter, where s_j = kappa_n
            cand = e * (1.0 / np.cumsum(e, axis=-1)[..., -1:]) * total_t
            cand = np.where(np.isnan(cand), total_t / n, cand)
            t = np.concatenate([cand, np.broadcast_to(t[n:], cand.shape[:-1] + t[n:].shape)],
                               axis=-1)
            s = np.maximum(T - cand, 0.0)
        beta = 2.0 * math.pi * r
        k = 0 if t is None else t.shape[-1]  # u's phases come first
        u = None if t is None else np.sqrt(t) * np.exp(1j * beta[..., :k])
        v = None if s is None else np.sqrt(s) * np.exp(1j * beta[..., k:])
        return u, v

    def spins(self, e, r) -> SpinPoint:
        """The :func:`slice_spin` of draws (e, r) of :meth:`draw`, stacked
        along leading axes or not; r may carry its ``extra`` doubles after
        the phases."""
        return slice_spin(self.space, self.spec, *self.vectors(e, r[..., :self.n_phases]))


def slice_draw_rule(space: SymmetricSpaceData, spec: OrbitSpec) -> SliceDrawRule:
    """The :class:`SliceDrawRule` of an orbit on a space, under the verdict
    of :func:`_slice_moduli_su` on su(m,n)."""
    if spec.family != space.spec.family:
        raise AdmissibilityError("orbit family does not match the space")
    if space.spec.family == "sl_kc":
        return SliceDrawRule(space, spec, np.full(space.spec.k, spec.kappa), None, None)
    t, s, free = _slice_moduli_su(space, spec)
    return SliceDrawRule(space, spec, t if spec.kappa_m > 0 else None,
                         s if spec.kappa_n > 0 else None, free)


def random_slice_spin(space: SymmetricSpaceData, spec: OrbitSpec,
                      rng: np.random.Generator) -> SpinPoint:
    """Random element of (orbit intersect M-perp): valid initial spin data,
    the spin of one draw of the orbit's :class:`SliceDrawRule`."""
    rule = slice_draw_rule(space, spec)
    return rule.spins(*rule.draw(rng))


def slice_spin(space: SymmetricSpaceData, spec: OrbitSpec, u, v) -> SpinPoint:
    """The on-slice spin of the vectors of :meth:`SliceDrawRule.vectors`, or
    of stacks of them along leading axes (one stacked SpinPoint); both vectors
    are absent (None) for a purely central orbit."""
    return spin_point(space, _orbit_element(space, spec, u, v))
