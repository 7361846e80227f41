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
    "OrbitSpec",
    "SpinPoint",
    "UnreducedPoint",
    "eta_of_u",
    "mu_kks",
    "orbit_base_point",
    "random_orbit_point",
    "random_slice_spin",
    "draw_slice_vectors",
    "slice_spin",
    "spin_point",
    "zero_spin",
    "moment_map",
    "build_slice_point",
    "validate_params",
    "xi_red",
    "reduce_orbit_check",
    "emptiness_probe",
    "ReductionReport",
    "expm_herm",
    "expm_antiherm",
    "logm_herm",
    "expm",
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


def expm_antiherm(Z: np.ndarray) -> np.ndarray:
    """exp(Z) for anti-Hermitian Z, a unitary: Z = iH with H Hermitian."""
    H = -0.5j * (Z - Z.conj().T)
    w, V = np.linalg.eigh(H)
    return (V * np.exp(1j * w)) @ V.conj().T


# The degree-13 Pade approximant of exp is exact to double precision for
# 1-norms up to _THETA13 (Higham 2005, Table 2.3).  Its numerator is V + U
# and denominator V - U, with U = A (A6 W1 + W2), V = A6 Z1 + Z2 and each of
# W1, W2, Z1, Z2 a combination of I, A2, A4, A6 (rows of _PADE13, from the
# coefficients b_0..b_13 of (2.2) there)
_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
        33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_PADE13 = np.array([[0.0, _B13[9], _B13[11], _B13[13]],
                    [_B13[1], _B13[3], _B13[5], _B13[7]],
                    [0.0, _B13[8], _B13[10], _B13[12]],
                    [_B13[0], _B13[2], _B13[4], _B13[6]]])
_THETA13 = 5.371920351148152


def expm(A: np.ndarray) -> np.ndarray:
    """exp(A) for a general square matrix: the degree-13 Pade approximant
    with scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26 (2005)
    1179-1193)."""
    n = len(A)
    norm = float(np.abs(A).sum(axis=0).max())
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    if s:
        A = A * 2.0 ** -s
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    powers = np.array([np.eye(n), A2, A4, A6]).reshape(4, n * n)
    W1, W2, Z1, Z2 = (_PADE13 @ powers).reshape(4, n, n)
    U = A @ (A6 @ W1 + W2)
    V = A6 @ Z1 + Z2
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


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
        if kappa_m < 0 or kappa_n < 0:
            raise AdmissibilityError("constituent parameters must be >= 0")
        if kappa_m == 0 and kappa_n == 0 and x == 0:
            raise AdmissibilityError("orbit must be nonzero")
        return OrbitSpec("su_mn", kappa_m=float(kappa_m), kappa_n=float(kappa_n), x=float(x))

    @staticmethod
    def kks(kappa: float) -> "OrbitSpec":
        if kappa <= 0:
            raise AdmissibilityError("KKS orbit requires kappa > 0")
        return OrbitSpec("sl_kc", kappa=float(kappa))


@dataclass(frozen=True)
class SpinPoint:
    """Orbit element xi in g-plus, with M-perp coefficients when on-slice.
    Zero spin (:func:`zero_spin`, free motion) is an ordinary on-slice
    point: every formula with spin gives the free value on its zero
    coefficients."""

    xi: np.ndarray
    coeffs: np.ndarray | None = None   # M-perp coefficients, basis order
    on_slice: bool = False


@dataclass(frozen=True)
class UnreducedPoint:
    """Point of the extended unreduced phase space (Lambda, J_minus, xi)."""

    Lam: np.ndarray
    j_minus: np.ndarray
    xi: SpinPoint


# ---------------------------------------------------------------------------
# Spin points
# ---------------------------------------------------------------------------

def spin_point(space: SymmetricSpaceData, xi: np.ndarray,
               require_slice: bool = True) -> SpinPoint:
    """Wrap an orbit element; certifies g-plus membership and, if requested,
    the slice condition (vanishing M-part) along with the coefficient
    expansion in the M-perp basis.  A stack of elements gives one SpinPoint
    holding the stack, certified matrix by matrix."""
    xi = np.asarray(xi, dtype=complex)
    gminus_part = algebra.project(space, xi, "gminus")
    res = np.maximum(algebra.membership_residual(space, xi),
                     np.abs(gminus_part).max(axis=(-2, -1), initial=0.0))
    if np.any(res > algebra.EPS_MEMBERSHIP):
        raise MembershipError(f"xi is not in g+ (residual {np.max(res):.3e})")
    a, cm, cplus, _ = algebra.decompose(space, xi)
    m_norm = np.linalg.norm(cm, axis=-1)
    if not require_slice:
        return SpinPoint(xi=xi, coeffs=None, on_slice=bool(np.all(m_norm < EPS_ONSLICE)))
    if np.any(m_norm > EPS_ONSLICE):
        raise MembershipError(f"xi has a nonzero M-part (norm {np.max(m_norm):.3e})")
    recon = algebra.reconstruct(space, cplus=cplus)
    scale = np.maximum(1.0, np.abs(xi).max(axis=(-2, -1)))
    if np.any(np.abs(recon - xi).max(axis=(-2, -1), initial=0.0) > 1e-12 * scale):
        raise MembershipError("xi is not spanned by the M-perp basis")
    return SpinPoint(xi=xi, coeffs=cplus, on_slice=True)


def zero_spin(space: SymmetricSpaceData) -> SpinPoint:
    return SpinPoint(xi=np.zeros((space.N, space.N), complex),
                     coeffs=np.zeros(space.K), on_slice=True)


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


def mu_kks(k: int, kappa: float) -> np.ndarray:
    """Torus normal form of the constrained minimal orbit: i*kappa off the
    diagonal, zero on it."""
    if k < 2 or kappa <= 0:
        raise AdmissibilityError("mu_kks requires k >= 2 and kappa > 0")
    return 1j * kappa * (np.ones((k, k)) - np.eye(k))


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


def _base_u(k: int, kappa: float) -> np.ndarray:
    u = np.zeros(k, dtype=complex)
    u[0] = math.sqrt(k * kappa)
    return u


def orbit_base_point(space: SymmetricSpaceData, spec: OrbitSpec) -> np.ndarray:
    """A reference element of the orbit (not on the slice in general)."""
    if spec.family != space.spec.family:
        raise AdmissibilityError("orbit family does not match the space")
    if space.spec.family == "sl_kc":
        return eta_of_u(_base_u(space.spec.k, spec.kappa), spec.kappa)
    m, n = space.spec.m, space.spec.n
    xi = np.zeros((space.N, space.N), complex)
    if spec.kappa_m > 0:
        if m < 2:
            raise AdmissibilityError("size-m factor su(1) has no nonzero orbits")
        xi += _embed_su_factor(space, eta_of_u(_base_u(m, spec.kappa_m), spec.kappa_m), "m")
    if spec.kappa_n > 0:
        if n < 2:
            raise AdmissibilityError("size-n factor su(1) has no nonzero orbits")
        xi += _embed_su_factor(space, eta_of_u(_base_u(n, spec.kappa_n), spec.kappa_n), "n")
    if spec.x != 0.0:
        xi += spec.x * _central_element(m, n)
    return xi


def random_orbit_point(space: SymmetricSpaceData, spec: OrbitSpec,
                       rng: np.random.Generator) -> SpinPoint:
    """Ad-conjugate the base point by a random compact group element."""
    xi0 = orbit_base_point(space, spec)
    Z = algebra.random_gplus_element(space, rng, scale=1.0)
    g = expm_antiherm(Z)
    # global phase det-correction acts trivially under Ad; applied for cleanliness
    g = g * np.exp(-1j * np.angle(np.linalg.det(g)) / space.N)
    return spin_point(space, g @ xi0 @ g.conj().T, require_slice=False)


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
    _, _, cplus, cminus = algebra.decompose(space, Jm_rot)
    vals = np.tanh(space.alpha_cols(q))
    Jp_rot = algebra.reconstruct(space, cplus=vals * cminus, cminus=vals * cplus)
    return g @ Jp_rot @ g_inv + point.xi.xi


def build_slice_point(space: SymmetricSpaceData, q, p, xi: SpinPoint) -> UnreducedPoint:
    """Map (q, p, xi) on the slice to the unreduced point
    (e^{2q}, p - coth(ad_q) xi, xi); the momentum map vanishes on the result.
    Rows of q and p with a stacked xi give a stacked point."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if not algebra.is_in_chamber(space, q):
        raise algebra.WallProximityError(f"q = {q} is not in the open Weyl chamber")
    if not xi.on_slice or xi.coeffs is None:
        raise MembershipError("xi must be an on-slice SpinPoint (vanishing M-part)")
    Lam = expm_herm(2.0 * algebra.embed(space, q))
    Jm = algebra.embed(space, p) - algebra.ad_fn_slice(space, "coth", q, xi.coeffs)
    return UnreducedPoint(Lam=Lam, j_minus=Jm, xi=xi)


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
    """Representative of a single-point reduced orbit; the data must pass
    :func:`validate_params` for the case's family on the space.

    case "d": minimal orbit in the size-n factor, any m >= n.
    case "c": m = n, orbit plus central term.
    case "bc": m = n + 1, minimal orbit in the size-m factor plus central term.
    case "kks": sl(k,C), the Sutherland ("a") family.
    """
    case = case.lower()
    if case == "kks":
        if space.spec.family != "sl_kc":
            raise AdmissibilityError("KKS case lives on the sl(k,C) family")
        _require_admissible("a", space.spec.k, kappa, x)
        return spin_point(space, mu_kks(space.spec.k, kappa))

    if case not in ("d", "c", "bc"):
        raise AdmissibilityError(f"unknown spinless case {case!r}")
    if space.spec.family != "su_mn":
        raise AdmissibilityError(f"case {case!r} lives on the su(m,n) family")
    m, n = space.spec.m, space.spec.n
    if case == "c" and m != n:
        raise AdmissibilityError("C case requires m = n")
    if case == "bc" and m != n + 1:
        raise AdmissibilityError("BC case requires m = n + 1")
    _require_admissible(case, n, kappa, x)
    if case == "d":
        return spin_point(space, _embed_su_factor(space, mu_kks(n, kappa), "n"))
    if case == "c":
        xi = x * _central_element(n, n)
        if kappa > 0:
            xi = xi + _embed_su_factor(space, mu_kks(n, kappa), "n")
        return spin_point(space, xi)
    u = np.concatenate([
        np.full(n, math.sqrt(max(kappa + x, 0.0))),
        [math.sqrt(max(kappa - n * x, 0.0))],
    ]).astype(complex)
    xi = _embed_su_factor(space, eta_of_u(u, kappa), "m") + x * _central_element(m, n)
    return spin_point(space, xi)


def bc_couplings(n: int, kappa: float, x: float):
    """(g, g1, g2) of the two-coupling BC_n model; they satisfy
    g1^2 - 2 g^2 + sqrt(2) g g2 = 0."""
    _require_admissible("bc", n, kappa, x)
    g = 0.5 * (kappa + x)
    g1 = math.sqrt(max((kappa + x) * (kappa - n * x), 0.0) / 2.0)
    g2 = (n + 1) * x / math.sqrt(2.0)
    return g, g1, g2


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
    res_diag, res_norm, res_match = [], [], []  # per sample: a NaN one is kept
    for _ in range(n_samples):
        beta = rng.uniform(0.0, 2.0 * math.pi, size=m)
        u = moduli * np.exp(1j * beta)
        eta = eta_of_u(u, kappa)
        res_diag.append(np.abs(np.diag(eta) - diag_target).max())
        # torus phase solve: phase differences against component n+1 align all
        # components onto a common phase (which drops out of eta)
        phases = np.concatenate([beta[-1] - beta[:-1], [0.0]])
        t = np.exp(1j * phases)
        t = t * np.exp(-1j * np.angle(np.prod(t)) / m)  # det correction inside SU(m)
        u_hat = t * u
        common = u_hat[-1] / abs(u_hat[-1])
        res_norm.append(np.abs(u_hat - common * np.abs(u_hat)).max())
        xi_rot = _embed_su_factor(space, eta_of_u(u_hat, kappa), "m") + x * C
        res_match.append(np.abs(xi_rot - target.xi).max())
        # the same rotation realized by an honest centralizer group element
        # (phases repeated in both size-n blocks) must agree
        g = np.diag(np.concatenate([t, t[:n]]))
        res_match.append(np.abs(
            g @ (_embed_su_factor(space, eta, "m") + x * C) @ g.conj().T - xi_rot).max())
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
        cm = np.einsum("si,bij,sj->sb", v.conj(), B, v).imag + const
        margin = np.minimum(margin, np.linalg.norm(cm, axis=1).min())  # keeps a NaN
    return float(margin)


# ---------------------------------------------------------------------------
# Generic on-slice spin data
# ---------------------------------------------------------------------------

def _slice_moduli_su(space: SymmetricSpaceData, spec: OrbitSpec,
                     rng: np.random.Generator):
    """Sample squared moduli (t for the size-m factor, s for the size-n one)
    compatible with the vanishing-M-part conditions.

    The conditions follow from pairing the orbit element against M: with
    t_a = |u_a|^2 and s_j = |v_j|^2,
        m - n >= 2: requires u to vanish on the middle block and
                    x = kappa_m / n exactly; t_j + s_j constant over j.
        m = n + 1:  t_m = kappa_m - n x and t_j + s_j = kappa_m + kappa_n + x.
        m = n:      t_j + s_j = kappa_m + kappa_n.
    """
    m, n = space.spec.m, space.spec.n
    km, kn, x = spec.kappa_m, spec.kappa_n, spec.x
    if km == 0 and kn == 0:
        raise AdmissibilityError("a purely central orbit never meets the slice")

    t = np.zeros(m)
    s = np.zeros(n)
    if km == 0:
        # orbit in the size-n factor only: s_j = kappa_n forced, x constrained
        if m > n and x != 0.0:
            raise AdmissibilityError(
                "O~(n, kappa) + x C misses the slice for x != 0 on su(m>n, n)")
        s[:] = kn
        return t, s
    if m - n >= 2:
        x_req = km / n
        if abs(x - x_req) > 1e-12 * max(1.0, abs(x_req)):
            raise AdmissibilityError(
                f"su({m},{n}) slice data requires x = kappa_m/n = {x_req:.12g}, got {x:.12g}")
        T = kn - km + (m + n) * x_req
        total_t = m * km
    elif m == n + 1:
        t_m = km - n * x
        if t_m < -1e-14 or km + kn + x < -1e-14:
            raise AdmissibilityError(
                "su(n+1,n) slice requires kappa_m - n x >= 0 and kappa_m + kappa_n + x >= 0")
        t[-1] = max(t_m, 0.0)
        T = km + kn + x
        total_t = m * km - t[-1]
    else:
        T = km + kn
        total_t = n * km
    if T < -1e-14:
        raise AdmissibilityError("slice moduli constraints are infeasible")

    if kn == 0:
        t[:n] = total_t / n
        if np.any(t > T + 1e-12):
            raise AdmissibilityError("slice moduli constraints are infeasible")
        return t, s
    for _ in range(200):
        cand = rng.dirichlet(np.ones(n)) * total_t
        if np.all(cand <= T + 1e-14):
            t[:n] = cand
            s = T - t[:n]
            return t, s
    # fall back to the barycenter, always feasible
    t[:n] = total_t / n
    s = T - t[:n]
    if np.any(s < -1e-12):
        raise AdmissibilityError("slice moduli constraints are infeasible")
    return t, np.maximum(s, 0.0)


def random_slice_spin(space: SymmetricSpaceData, spec: OrbitSpec,
                      rng: np.random.Generator) -> SpinPoint:
    """Random element of (orbit intersect M-perp): valid initial spin data."""
    return slice_spin(space, spec, *draw_slice_vectors(space, spec, rng))


def draw_slice_vectors(space: SymmetricSpaceData, spec: OrbitSpec,
                       rng: np.random.Generator) -> tuple:
    """The random numbers of one :func:`random_slice_spin`, drawn in its
    order: the vectors (u, v) of the rank-one projectors of the size-m (or
    sl(k,C)) and size-n factors, None for an absent factor."""
    if spec.family != space.spec.family:
        raise AdmissibilityError("orbit family does not match the space")
    if space.spec.family == "sl_kc":
        beta = rng.uniform(0.0, 2.0 * math.pi, size=space.spec.k)
        return math.sqrt(spec.kappa) * np.exp(1j * beta), None
    m, n = space.spec.m, space.spec.n
    t, s = _slice_moduli_su(space, spec, rng)
    u = v = None
    if spec.kappa_m > 0:
        u = np.sqrt(t) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=m))
    if spec.kappa_n > 0:
        v = np.sqrt(s) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n))
    return u, v


def slice_spin(space: SymmetricSpaceData, spec: OrbitSpec, u, v) -> SpinPoint:
    """The on-slice spin of the vectors of :func:`draw_slice_vectors`, or of
    stacks of them along leading axes (one stacked SpinPoint)."""
    if space.spec.family == "sl_kc":
        return spin_point(space, eta_of_u(u, spec.kappa))
    m, n = space.spec.m, space.spec.n
    lead = (u if u is not None else v).shape[:-1]
    xi = np.zeros(lead + (space.N, space.N), complex)
    if u is not None:
        xi += _embed_su_factor(space, eta_of_u(u, spec.kappa_m), "m")
    if v is not None:
        xi += _embed_su_factor(space, eta_of_u(v, spec.kappa_n), "n")
    if spec.x != 0.0:
        xi += spec.x * _central_element(m, n)
    return spin_point(space, xi)
