"""Reduced Hamiltonian dynamics: energy, Lax matrices, two integrators,
invariant brackets, the freezing gauge and the dynamical r-matrix tensor.

Conventions.  A reduced phase-space point is (q, p, xi) with q strictly
inside the open Weyl chamber, p its conjugate momentum in coordinates, and
xi an orbit element constrained to M-perp.  The Hamiltonian used throughout
is normalized so that the kinetic term is (1/2) sum p_k^2:

    H(q, p, xi) = 1/2 sum_k p_k^2
                  + 1/(2 s) sum_{alpha, i} (xi_i^alpha)^2 / sinh^2 alpha(q),

where s = tr(embed(unit coordinate)^2) is 2 for su(m,n) and 1 for sl(k,C).
Equivalently H = Re tr(L(1)^2) / (2 s) with the spectral-parameter Lax
matrix L(x) = p - coth(ad_q) xi - x xi; for su(n+1, n) this reproduces the
classical two-coupling BC_n Hamiltonian (1/4) tr(L^2) exactly.  The time
evolution q' = p, p' = [w^2(ad_q) xi, coth(ad_q) xi]_A,
xi' = [y_M - w^2(ad_q) xi, xi] with w(z) = 1/sinh(z) is the canonical flow
of this H; the gauge generator y_M is zero on the thick slice.  For the
spinless catalog models a y_M exists at every chamber point that makes xi'
vanish (the freezing gauge, see :func:`freezing_solve`), so in that gauge
the spin is constant and only (q, p) move.

The direct integrator works on the basis coefficients c+ of xi alone, with
the state (q, p, c+).  By the root grading the zero-gauge xi' has no M-part,
so p' = -grad V and xi' = [xi, w^2(ad_q) xi] are closed forms in c+: the
latter through the structure constants ``space.fplus``.  :func:`eom_rhs`
evaluates the same field on N x N matrices and is the reference for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from . import algebra, orbits
from .algebra import (
    AdmissibilityError,
    StepSizeError,
    SymmetricSpaceData,
    WallProximityError,
    pair,
)
from .orbits import SpinPoint

__all__ = [
    "PhasePoint",
    "InvariantSpec",
    "Trajectory",
    "EomRhs",
    "FreezingResult",
    "make_phase_point",
    "hamiltonian",
    "hamiltonian_via_lax",
    "lax",
    "lax_minus",
    "lax_cal",
    "eom_rhs",
    "integrate_direct",
    "flow_projection",
    "projection_trajectory",
    "invariant_value",
    "gradient",
    "bracket_formula",
    "identity_413",
    "identity_416",
    "freezing_solve",
    "r12_build",
    "monitor",
]


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhasePoint:
    """Reduced phase-space point on the gauge slice."""

    q: np.ndarray
    p: np.ndarray
    xi: SpinPoint


def make_phase_point(space: SymmetricSpaceData, q, p, xi: SpinPoint | None = None) -> PhasePoint:
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != (space.n_coords,) or p.shape != (space.n_coords,):
        raise ValueError(f"q and p must have {space.n_coords} coordinates")
    if space.spec.family == "sl_kc":
        if abs(q.sum()) > 1e-9 or abs(p.sum()) > 1e-9:
            raise ValueError("sl(k,C) coordinates and momenta must sum to zero")
    if not algebra.is_in_chamber(space, q):
        raise WallProximityError(f"q = {q} is not in the open Weyl chamber")
    if xi is None:
        xi = orbits.zero_spin(space)
    if not xi.on_slice or xi.coeffs is None:
        raise orbits.MembershipError("xi must be an on-slice SpinPoint")
    return PhasePoint(q=q, p=p, xi=xi)


@dataclass(frozen=True)
class InvariantSpec:
    """A conserved-quantity generator f composed with K(x) = J_minus - x xi.

    cls "trace_power":  f(X) = Re(c_k tr X^k)/k, invariant under the full
        group; on su(m,n) the constant c_k is 1 for even k and -i for odd k
        (tr X^k is imaginary there for odd k).
    cls "block_invariant": f_k(X) = Re tr((A B D B+)^k) in the (m, n) block
        decomposition of X; invariant under the compact subgroup only.
    """

    cls: str
    k: int
    x: float = 0.0

    def __post_init__(self):
        if self.cls not in ("trace_power", "block_invariant"):
            raise ValueError(f"unknown invariant class {self.cls!r}")
        if self.k < 1:
            raise ValueError("invariant order k must be >= 1")

    def label(self) -> str:
        return f"{self.cls}[k={self.k}]@x={self.x:g}"


@dataclass
class EomRhs:
    """Right-hand side of the reduced evolution equations as N x N matrices.
    In the zero gauge the M-part of the spin derivative vanishes by the root
    grading; its norm is reported as a consistency diagnostic."""

    dq: np.ndarray
    dp: np.ndarray
    dxi: np.ndarray
    m_part_norm: float


@dataclass
class Trajectory:
    """Time-stamped reduced trajectory with invariant monitors."""

    times: np.ndarray
    points: list
    energy: np.ndarray
    lax_x: tuple
    lax_spectra: dict          # x -> (T, N) complex, sorted by (re, im)
    invariants: dict           # label -> (T,) float
    m_drift: float = 0.0       # direct, zero gauge: max M-part of xi' at the samples
    orbit_drift: float = 0.0   # max spectrum-restoring correction applied
    wall_time: float | None = None  # set when truncated by a wall event
    n_steps: int = 0           # direct integrator: steps accepted by the error control
    freeze_residual: float | None = None  # freeze gauge: worst certified |xi'|

    def __len__(self):
        return len(self.times)


@dataclass
class FreezingResult:
    """Outcome of the gauge-freezing linear solve at one chamber point."""

    y_m: np.ndarray | None
    residual: float
    frozen_residual: float     # |[y_M - w^2(ad_q) mu, mu]|
    identity_residual: float   # commutator identity behind the solve
    accepted: bool


# ---------------------------------------------------------------------------
# Energy and Lax matrices
# ---------------------------------------------------------------------------

def hamiltonian(space: SymmetricSpaceData, pt: PhasePoint) -> float:
    """Kinetic term plus the inverse-sinh-squared spin potential."""
    algebra.require_off_wall(space, pt.q)
    val = 0.5 * float(np.dot(pt.p, pt.p))
    if not pt.xi.is_zero:
        av = space.alpha_cols(pt.q)
        val += float(np.sum(pt.xi.coeffs ** 2 / np.sinh(av) ** 2)) / (2.0 * space.coord_weight)
    return val


def hamiltonian_via_lax(space: SymmetricSpaceData, pt: PhasePoint) -> float:
    """Independent evaluation path: Re tr(L(1)^2) / (2 s)."""
    L = lax(space, pt, 1.0)
    return float(np.einsum("ab,ba->", L, L).real) / (2.0 * space.coord_weight)


def lax(space: SymmetricSpaceData, pt: PhasePoint, x: float) -> np.ndarray:
    """Spectral-parameter Lax matrix L(x) = p - coth(ad_q) xi - x xi."""
    algebra.require_off_wall(space, pt.q)
    L = algebra.embed(space, pt.p)
    if not pt.xi.is_zero:
        L = L - algebra.ad_fn(space, "coth", pt.q, pt.xi.xi) - x * pt.xi.xi
    return L


def lax_minus(space: SymmetricSpaceData, pt: PhasePoint) -> np.ndarray:
    """L(0) = p - coth(ad_q) xi, valued in g-minus (real spectrum)."""
    return lax(space, pt, 0.0)


def lax_cal(space: SymmetricSpaceData, pt: PhasePoint) -> np.ndarray:
    """Conjugated Lax operator p - w(ad_q) xi with w(z) = 1/sinh(z)."""
    algebra.require_off_wall(space, pt.q)
    L = algebra.embed(space, pt.p)
    if not pt.xi.is_zero:
        L = L - algebra.ad_fn(space, "inv_sinh", pt.q, pt.xi.xi)
    return L


def sorted_spectrum(X: np.ndarray) -> np.ndarray:
    return np.sort_complex(np.linalg.eigvals(X))


def _match_spectra(spectra: np.ndarray) -> np.ndarray:
    """Permute each row to the minimum-cost matching against the first row.

    Lexicographic complex sorting is unstable when real parts are equal to
    roundoff, which would show up as spurious drift; optimal assignment
    against the initial spectrum gives continuous eigenvalue tracks.
    """
    out = spectra.copy()
    ref = out[0]
    for i in range(1, out.shape[0]):
        cost = np.abs(out[i][:, None] - ref[None, :])
        row, col = scipy.optimize.linear_sum_assignment(cost)
        aligned = np.empty_like(out[i])
        aligned[col] = out[i][row]
        out[i] = aligned
    return out


# ---------------------------------------------------------------------------
# Equations of motion
# ---------------------------------------------------------------------------

def _force(space: SymmetricSpaceData, q, cplus):
    """p' = -grad V = (1/s) sum_j c_j^2 cosh(alpha_j) / sinh^3(alpha_j) coef_j."""
    av = space.alpha_cols(q)
    w = cplus ** 2 * np.cosh(av) / np.sinh(av) ** 3
    return (w @ space.root_coef[space.e_root]) / space.coord_weight


def _spin_rate(space: SymmetricSpaceData, q, cplus):
    """M-perp coefficients of xi' = [xi, w^2(ad_q) xi] (zero gauge) from the
    structure constants: dc_k = -sum_ij (c_i / sinh^2 alpha_i) c_j fplus_ijk."""
    w2 = cplus / np.sinh(space.alpha_cols(q)) ** 2
    return -cplus @ np.tensordot(w2, space.fplus, axes=1)


def eom_rhs(space: SymmetricSpaceData, pt: PhasePoint, y_m: np.ndarray | None = None) -> EomRhs:
    """Reduced evolution vector field at pt with gauge generator y_m in M
    (default zero, the thick-slice choice), evaluated on N x N matrices:
    the reference for the coefficient formulas the direct integrator uses."""
    algebra.require_off_wall(space, pt.q)
    if pt.xi.is_zero:
        z = np.zeros((space.N, space.N), complex)
        return EomRhs(dq=pt.p.copy(), dp=np.zeros_like(pt.p), dxi=z, m_part_norm=0.0)
    av = space.alpha_cols(pt.q)
    c = pt.xi.coeffs
    W2 = np.einsum("j,jab->ab", c / np.sinh(av) ** 2, space.eplus)
    CT = np.einsum("j,jab->ab", c / np.tanh(av), space.eminus)
    dp = algebra.coords_of(space, _comm(W2, CT))
    Y = -W2 if y_m is None else y_m - W2
    dxi = _comm(Y, pt.xi.xi)
    m_norm = float(np.linalg.norm(algebra.decompose(space, dxi)[1]))
    return EomRhs(dq=pt.p.copy(), dp=dp, dxi=dxi, m_part_norm=m_norm)


# ---------------------------------------------------------------------------
# Direct adaptive integration (embedded Dormand-Prince 5(4) pair)
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])


class _DirectSystem:
    """Packed-state view (q, p, c+) of the reduced equations for the stepper."""

    def __init__(self, space: SymmetricSpaceData, gauge: str):
        self.space = space
        self.nc = space.n_coords
        self.gauge = gauge

    def unpack(self, y):
        nc = self.nc
        return y[:nc], y[nc:2 * nc], y[2 * nc:]

    def __call__(self, t, y):
        space = self.space
        q, p, cplus = self.unpack(y)
        # in the freezing gauge the spin is held still; integrate_direct
        # certifies the gauge
        dc = np.zeros(space.K) if self.gauge == "freeze" else _spin_rate(space, q, cplus)
        return np.concatenate([p, _force(space, q, cplus), dc])


def _block_spectra_ref(space: SymmetricSpaceData, xi: np.ndarray):
    if space.spec.family == "su_mn":
        m = space.spec.m
        return (np.linalg.eigvalsh(-1j * xi[:m, :m]),
                np.linalg.eigvalsh(-1j * xi[m:, m:]))
    return (np.linalg.eigvalsh(-1j * xi),)


def _restore_block_spectra(space: SymmetricSpaceData, xi: np.ndarray, ref) -> np.ndarray:
    out = xi.copy()
    if space.spec.family == "su_mn":
        m = space.spec.m
        blocks = [(slice(0, m), ref[0]), (slice(m, space.N), ref[1])]
    else:
        blocks = [(slice(0, space.N), ref[0])]
    for sl, target in blocks:
        w, V = np.linalg.eigh(-1j * xi[sl, sl])
        out[sl, sl] = (V * (1j * target)) @ V.conj().T
    return out


def integrate_direct(space: SymmetricSpaceData, pt0: PhasePoint, t_end: float,
                     tol: float = 1e-10, sample_dt: float | None = None,
                     lax_x: tuple = (0.0, 1.0), invariants: tuple = (),
                     gauge: str = "zero", max_steps: int = 5_000_000,
                     on_wall: str = "raise") -> Trajectory:
    """Adaptive Dormand-Prince 5(4) integration of the reduced equations.

    The state is (q, p, c+), see the module docstring.  In the zero gauge,
    after every accepted step the per-block spectrum of the spin is restored
    to the initial one (the exact flow preserves it; the corrections are
    logged), and ``m_drift`` is the largest M-part of xi' at the samples.
    In the freezing gauge the spin is held constant, and the gauge is
    certified by :func:`freezing_solve` on the initial spin at t = 0 and
    after every accepted step: a failed certificate raises
    :class:`AdmissibilityError`, and the worst frozen residual is logged as
    ``freeze_residual``.  Integration halts with :class:`WallProximityError`
    if the configuration approaches a chamber wall; with
    ``on_wall="truncate"`` the samples collected before the event are
    returned instead, with ``wall_time`` set.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if gauge not in ("zero", "freeze"):
        raise ValueError("gauge must be 'zero' or 'freeze'")
    if on_wall not in ("raise", "truncate"):
        raise ValueError("on_wall must be 'raise' or 'truncate'")
    if sample_dt is None:
        sample_dt = t_end / 200.0
    n_seg = max(1, int(round(t_end / sample_dt)))
    times = np.linspace(0.0, t_end, n_seg + 1)

    sys = _DirectSystem(space, gauge)
    free = pt0.xi.is_zero
    freeze = gauge == "freeze"
    y = np.concatenate([pt0.q, pt0.p, pt0.xi.coeffs])
    spec_ref = None if free or freeze else _block_spectra_ref(space, pt0.xi.xi)

    orbit_drift = 0.0
    freeze_residual = 0.0
    n_steps = 0

    def certify(q):
        nonlocal freeze_residual
        res = freezing_solve(space, q, pt0.xi)
        if not res.accepted:
            raise AdmissibilityError(
                f"no freezing gauge at q = {q} (residual {res.residual:.3e})")
        freeze_residual = max(freeze_residual, res.frozen_residual)

    def correct(yv):
        nonlocal orbit_drift, n_steps
        n_steps += 1
        if freeze:
            # a point past the wall ends the run at the stepper's wall check
            q = sys.unpack(yv)[0]
            if algebra.min_root_value(space, q) >= algebra.EPS_WALL:
                certify(q)
            return yv
        if free:
            return yv
        q, p, cplus = sys.unpack(yv)
        xi = algebra.reconstruct(space, cplus=cplus)
        fixed = _restore_block_spectra(space, xi, spec_ref)
        orbit_drift = max(orbit_drift, float(np.linalg.norm(fixed - xi)))
        cplus_new = -np.einsum("ab,jba->j", fixed, space.eplus).real
        return np.concatenate([q, p, cplus_new])

    def sample(t, yv):
        q, p, cplus = sys.unpack(yv)
        if freeze:
            return PhasePoint(q=q.copy(), p=p.copy(), xi=pt0.xi)
        xi = SpinPoint(xi=algebra.reconstruct(space, cplus=cplus),
                       coeffs=cplus.copy(), on_slice=True)
        return PhasePoint(q=q.copy(), p=p.copy(), xi=xi)

    if freeze:
        certify(pt0.q)
    pts = [sample(0.0, y)]
    h = min(sample_dt, 0.05) * 0.1
    wall_time = None
    try:
        _step_segments(space, sys, times, y, h, tol, t_end, max_steps, correct, sample, pts)
    except WallProximityError as exc:
        if on_wall == "raise":
            raise
        wall_time = exc.t
    # the M-part of xi' vanishes on the slice; its largest value at the
    # samples is kept as a consistency diagnostic
    m_drift = 0.0 if freeze else max(eom_rhs(space, pt).m_part_norm for pt in pts)
    times_done = times[:len(pts)]
    return _attach_monitors(space, times_done, pts, lax_x, invariants,
                            m_drift=m_drift, orbit_drift=orbit_drift,
                            wall_time=wall_time, n_steps=n_steps,
                            freeze_residual=freeze_residual if freeze else None)


def _step_segments(space, sys, times, y, h, tol, t_end, max_steps, correct, sample, pts):
    n_steps = 0
    t = 0.0
    for t_target in times[1:]:
        while t < t_target - 1e-14 * t_end:
            h = min(h, t_target - t)
            if h < 1e-14 * max(1.0, t_end):
                # persistent rejection right at a chamber wall is a wall event
                if algebra.min_root_value(space, sys.unpack(y)[0]) < 1e-3:
                    raise WallProximityError(
                        f"trajectory stalled against a chamber wall at t = {t:.6g}",
                        t=t)
                raise StepSizeError(f"step size underflow at t = {t:.6g}")
            ks = np.empty((7, y.size))
            try:
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    ks[0] = sys(t, y)
                    for i in range(1, 7):
                        yi = y + h * np.tensordot(np.array(_DP_A[i]), ks[:i], axes=(0, 0))
                        ks[i] = sys(t + _DP_C[i] * h, yi)
            except WallProximityError:
                # a stage left the chamber: reject and retry with a smaller step
                h *= 0.2
                continue
            y5 = y + h * (_DP_B5 @ ks)
            y4 = y + h * (_DP_B4 @ ks)
            scale = tol + tol * np.maximum(np.abs(y), np.abs(y5))
            err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
            if not np.isfinite(err):
                h *= 0.2
                continue
            if err <= 1.0:
                t_prev = t
                t += h
                y = correct(y5)
                q_new = sys.unpack(y)[0]
                if algebra.min_root_value(space, q_new) < algebra.EPS_WALL:
                    raise WallProximityError(
                        f"trajectory reached a chamber wall in ({t_prev:.6g}, {t:.6g}]",
                        t=t_prev)
                n_steps += 1
                if n_steps > max_steps:
                    raise StepSizeError("maximum number of steps exceeded")
            factor = 0.9 * (err + 1e-300) ** (-0.2)
            h *= min(5.0, max(0.2, factor))
        pts.append(sample(t_target, y))
        t = t_target


def _attach_monitors(space, times, pts, lax_x, invariants, **stats):
    energy = np.array([hamiltonian(space, pt) for pt in pts])
    spectra = {}
    for x in lax_x:
        raw = np.array([sorted_spectrum(lax(space, pt, x)) for pt in pts])
        spectra[float(x)] = _match_spectra(raw)
    inv = {}
    for spec in invariants:
        Ls = [lax(space, pt, spec.x) for pt in pts]
        inv[spec.label()] = np.array([invariant_value(space, spec, L) for L in Ls])
    return Trajectory(times=np.asarray(times, dtype=float), points=list(pts),
                      energy=energy, lax_x=tuple(float(x) for x in lax_x),
                      lax_spectra=spectra, invariants=inv, **stats)


# ---------------------------------------------------------------------------
# Invariants and their gradients
# ---------------------------------------------------------------------------

def _trace_power_coef(space: SymmetricSpaceData, k: int) -> complex:
    if space.spec.family == "su_mn" and k % 2 == 1:
        return -1j  # tr X^k is imaginary on su(m,n) for odd k
    return 1.0 + 0.0j


def invariant_value(space: SymmetricSpaceData, spec: InvariantSpec, X: np.ndarray) -> float:
    """Evaluate the generator f on an algebra element (typically K(x)|_slice)."""
    if spec.cls == "trace_power":
        c = _trace_power_coef(space, spec.k)
        return float((c * np.trace(np.linalg.matrix_power(X, spec.k))).real) / spec.k
    if space.spec.family != "su_mn":
        raise AdmissibilityError("block invariants are defined on the su(m,n) family")
    m = space.spec.m
    A, B = X[:m, :m], X[:m, m:]
    Bd, D = X[m:, :m], X[m:, m:]
    M = A @ B @ D @ Bd
    return float(np.trace(np.linalg.matrix_power(M, spec.k)).real)


def gradient(space: SymmetricSpaceData, spec: InvariantSpec, X: np.ndarray) -> np.ndarray:
    """Riesz gradient of the generator with respect to <X,Y> = Re tr(XY):
    the unique algebra element with <Y, grad f> = d/dt f(X + tY)."""
    X = np.asarray(X, dtype=complex)
    if spec.cls == "trace_power":
        c = _trace_power_coef(space, spec.k)
        W = c * np.linalg.matrix_power(X, spec.k - 1)
        return algebra.project_to_algebra(space, W)
    if space.spec.family != "su_mn":
        raise AdmissibilityError("block invariants are defined on the su(m,n) family")
    m, n, k = space.spec.m, space.spec.n, spec.k
    A, B = X[:m, :m], X[:m, m:]
    Bd, D = X[m:, :m], X[m:, m:]
    Nm = np.linalg.matrix_power(A @ B @ D @ Bd, k - 1)
    W = np.zeros_like(X)
    W[:m, :m] = B @ D @ Bd @ Nm
    W[:m, m:] = Nm @ A @ B @ D
    W[m:, :m] = D @ Bd @ Nm @ A
    W[m:, m:] = Bd @ Nm @ A @ B
    return algebra.project_to_algebra(space, k * W)


def _comm(A, B):
    return A @ B - B @ A


def _pairings(space, f, x, h, y, pt):
    """<xi, [(grad f)+(K(x)), (grad h)+(K(y))]> and the same pairing of the
    minus parts, with K(x) = J_minus - x xi on the constraint surface."""
    up = orbits.build_slice_point(space, pt.q, pt.p, pt.xi)
    xi = pt.xi.xi
    gf_p, gf_m = algebra.split(space, gradient(space, f, up.j_minus - x * xi))
    gh_p, gh_m = algebra.split(space, gradient(space, h, up.j_minus - y * xi))
    return pair(xi, _comm(gf_p, gh_p)), pair(xi, _comm(gf_m, gh_m))


def bracket_formula(space: SymmetricSpaceData, f: InvariantSpec, x: float,
                    h: InvariantSpec, y: float, pt: PhasePoint) -> float:
    """Reduced Poisson bracket of f(K(x)) and h(K(y)) on the constraint
    surface:

        x y <xi, [(grad f)+(K(x)), (grad h)+(K(y))]>
          -   <xi, [(grad f)-(K(x)), (grad h)-(K(y))]>.

    Vanishes identically for two full invariants, and for a compact-group
    invariant against a full invariant at y^2 = 1.
    """
    plus, minus = _pairings(space, f, x, h, y, pt)
    return x * y * plus - minus


def identity_413(space: SymmetricSpaceData, f: InvariantSpec, x: float,
                 h: InvariantSpec, y: float, pt: PhasePoint) -> float:
    """Residual of x <xi,[A^f+(x), A^h+(y)]> = y <xi,[A^f-(x), A^h-(y)]>,
    valid for f compact-invariant and h fully invariant."""
    plus, minus = _pairings(space, f, x, h, y, pt)
    return abs(x * plus - y * minus)


def identity_416(space: SymmetricSpaceData, f: InvariantSpec, x: float,
                 h: InvariantSpec, y: float, pt: PhasePoint) -> float:
    """Mirror identity y <xi,[A^f+, A^h+]> = x <xi,[A^f-, A^h-]> for two
    fully invariant generators."""
    plus, minus = _pairings(space, f, x, h, y, pt)
    return abs(y * plus - x * minus)


# ---------------------------------------------------------------------------
# Freezing gauge
# ---------------------------------------------------------------------------

def freezing_solve(space: SymmetricSpaceData, q, mu,
                   accept_tol: float = 1e-9) -> FreezingResult:
    """Solve [y_M, w(ad_q) mu] = [w(ad_q) mu, w'(ad_q) mu]_{A-perp} for
    y_M in M by least squares over the M basis.

    Acceptance requires the linear residual below ``accept_tol``; the frozen
    condition [y_M - w^2(ad_q) mu, mu] = 0 and the hyperbolic commutator
    identity behind the equivalence are evaluated as diagnostics.
    """
    mu_mat = mu.xi if isinstance(mu, SpinPoint) else np.asarray(mu, dtype=complex)
    q = np.asarray(q, dtype=float)
    algebra.require_off_wall(space, q)
    w_mu = algebra.ad_fn(space, "inv_sinh", q, mu_mat)
    wp_mu = algebra.ad_fn(space, "d_inv_sinh", q, mu_mat)
    rhs_mat = _comm(w_mu, wp_mu)
    rhs = algebra.decompose(space, rhs_mat)[3]  # A-perp coefficients

    if space.dim_m:
        cols = np.stack([algebra.decompose(space, _comm(Mb, w_mu))[3]
                         for Mb in space.m_basis], axis=1)
        z, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
        y_m = np.einsum("b,bij->ij", z, space.m_basis)
        residual = float(np.linalg.norm(cols @ z - rhs))
    else:
        y_m = np.zeros((space.N, space.N), complex)
        residual = float(np.linalg.norm(rhs))

    w2_mu = algebra.ad_fn(space, "inv_sinh_sq", q, mu_mat)
    frozen = float(np.linalg.norm(_comm(y_m - w2_mu, mu_mat)))
    ident = float(np.linalg.norm(
        _comm(w2_mu, mu_mat) - algebra.ad_fn(space, "sinh", q, rhs_mat)))
    ok = residual < accept_tol and frozen < 1e-8 and ident < 1e-8
    return FreezingResult(y_m=y_m if ok else None, residual=residual,
                          frozen_residual=frozen, identity_residual=ident,
                          accepted=ok)


# ---------------------------------------------------------------------------
# Projection-method integration
# ---------------------------------------------------------------------------

def _polar_orthonormalize(A: np.ndarray) -> np.ndarray:
    U, _, Vh = np.linalg.svd(A, full_matrices=False)
    return U @ Vh


def _require_chamber_coords(space, q, tol_degenerate=1e-9):
    if not algebra.is_in_chamber(space, q, margin=algebra.EPS_WALL):
        raise WallProximityError(f"projected point is outside the open chamber: q = {q}")
    gaps = np.abs(np.diff(np.sort(q)))
    if gaps.size and gaps.min() < tol_degenerate:
        raise algebra.DegenerateSpectrumError(
            f"near-degenerate flat coordinates: min gap {gaps.min():.3e}")


def _chamber_gauge_su(space, W):
    """(q, g) with W W+ = g exp(2 embed(q)) g+ from the dominant singular
    triplets of the half-factor only.

    Eigenvectors of W W+ for the large eigenvalues e^{2 q_k} have the paired
    form (U0 e_k (+) V0 e_k)/sqrt(2), so the compact gauge blocks are read
    off the top-n left singular vectors; the small singular values, which
    carry no relative accuracy when the exponent spread is large, are never
    used.
    """
    m, n = space.spec.m, space.spec.n
    U, sig, _ = np.linalg.svd(W)
    q_t = np.log(sig[:n])
    _require_chamber_coords(space, q_t)
    A = math.sqrt(2.0) * U[:m, :n]
    B = math.sqrt(2.0) * U[m:, :n]
    A = _polar_orthonormalize(A)
    B = _polar_orthonormalize(B)
    if m > n:
        w, V = np.linalg.eigh(np.eye(m) - A @ A.conj().T)
        A = np.hstack([A, V[:, n - m:]])  # orthonormal completion of the column space
    g = np.zeros((space.N, space.N), complex)
    g[:m, :m] = A
    g[m:, m:] = B
    return q_t, g


def _chamber_gauge_sl(space, W, W_inv):
    """(q, g) for the sl(k,C) family, merging dominant singular data of the
    half-factor and of its inverse (computed from the flow, not by matrix
    inversion) so that every exponent is read where it is large.

    Lambda = W W+ has the left singular vectors of W as eigenvectors, while
    Lambda^{-1} = (W^{-1})+ W^{-1} has the RIGHT singular vectors of W^{-1};
    each candidate split is validated by reconstructing both Lambda and its
    inverse, which makes errors in the large and the small exponent
    directions visible respectively.
    """
    k = space.spec.k
    U, sig, _ = np.linalg.svd(W)
    _, sigi, Vhi = np.linalg.svd(W_inv)
    Vi = Vhi.conj().T
    Lam = W @ W.conj().T
    Lam_inv = W_inv.conj().T @ W_inv
    for j_pos in _split_candidates(sig, k):
        q_t = np.concatenate([np.log(sig[:j_pos]), -np.log(sigi[:k - j_pos])[::-1]])
        g = np.hstack([U[:, :j_pos], Vi[:, :k - j_pos][:, ::-1]])
        if np.abs(g.conj().T @ g - np.eye(k)).max() > 1e-6 or abs(q_t.sum()) > 1e-6:
            continue
        g_o = _polar_orthonormalize(g)
        rec = (g_o * np.exp(2.0 * q_t)) @ g_o.conj().T
        rec_inv = (g_o * np.exp(-2.0 * q_t)) @ g_o.conj().T
        res = np.abs(rec - Lam).max() / np.abs(Lam).max()
        res_inv = np.abs(rec_inv - Lam_inv).max() / np.abs(Lam_inv).max()
        if max(res, res_inv) < 1e-8:
            q_t = q_t - q_t.mean()
            _require_chamber_coords(space, q_t)
            return q_t, g_o
    raise algebra.DegenerateSpectrumError(
        "could not assemble a consistent eigenbasis from the half-factors")


def _split_candidates(sig, k):
    j0 = int(np.sum(sig >= 1.0))
    seen = []
    for j in (j0, j0 - 1, j0 + 1):
        if 0 <= j <= k and j not in seen:
            seen.append(j)
    return seen


def flow_projection(space: SymmetricSpaceData, pt0: PhasePoint, t: float,
                    spec: InvariantSpec = InvariantSpec("trace_power", 2)) -> PhasePoint:
    """Exact time-t map of the invariant flow generated by f(K(1)) via the
    projection method.

    The slice datum is lifted to (Lambda_0, J_-^0, xi^0), transported along
    Lambda(t) = exp(t grad f(J_0)) Lambda_0 exp(-t theta(grad f(J_0))) with
    J_0 = J_-^0 + tanh(ad_{q_0}) J_-^0, and projected back to the chamber by
    re-diagonalizing Lambda(t).  Only fully group-invariant generators
    (trace powers) admit this closed flow; spec = trace_power(2) reproduces
    the Hamiltonian flow of the model itself.  The spin is returned in
    whatever residual M-gauge the re-diagonalization picks: q, p, the energy,
    Lax spectra and invariants do not depend on it.
    """
    if spec.cls != "trace_power":
        raise AdmissibilityError("the projection flow requires a fully invariant generator")
    up = orbits.build_slice_point(space, pt0.q, pt0.p, pt0.xi)
    J0 = up.j_minus + algebra.ad_fn(space, "tanh", pt0.q, up.j_minus)
    G = gradient(space, spec, J0)
    # Lambda(t) = E Lambda_0 E+ with E = expm(t grad f): never assemble the
    # full product (its condition number squares the exponent spread); work
    # with the half-factor W = E Lambda_0^(1/2), whose large singular values
    # and vectors are accurate, and recover the gauge from those alone.
    S0 = orbits.expm_herm(algebra.embed(space, pt0.q))
    W = scipy.linalg.expm(t * G) @ S0
    if space.spec.family == "su_mn":
        q_t, g = _chamber_gauge_su(space, W)
    else:
        W_inv = orbits.expm_herm(-algebra.embed(space, pt0.q)) @ scipy.linalg.expm(-t * G)
        q_t, g = _chamber_gauge_sl(space, W, W_inv)
    Jm_rot = g.conj().T @ up.j_minus @ g
    xi_rot = g.conj().T @ up.xi.xi @ g
    p_t = algebra.coords_of(space, Jm_rot)

    if pt0.xi.is_zero:
        return PhasePoint(q=q_t, p=p_t, xi=orbits.zero_spin(space))
    # drop the numerical M-part before re-certifying the slice condition
    cplus = -np.einsum("ab,jba->j", xi_rot, space.eplus).real
    cm = -np.einsum("ab,jba->j", xi_rot, space.m_basis).real if space.dim_m else np.zeros(0)
    if np.linalg.norm(cm) > 1e-7:
        raise RuntimeError(
            f"projected spin drifted off the slice (M-part {np.linalg.norm(cm):.3e})")
    xi_sp = SpinPoint(xi=algebra.reconstruct(space, cplus=cplus), coeffs=cplus,
                      on_slice=True)
    return PhasePoint(q=q_t, p=p_t, xi=xi_sp)


def _wall_contact(space, pt0, spec, t_a, pt_a, t_b, pt_b) -> bool:
    """Whether the Hamiltonian projection flow (trace power k = 2, where
    q' = p) touches a chamber wall between two samples; other generators are
    checked at the samples only.

    Projected points always lie in the chamber, so a wall crossing shows up
    as a reflection: some root's velocity alpha(p) turns from negative to
    positive.  On such an interval the minimum of min_alpha alpha(q(t)) is
    located on the exact flow; it is a contact if it falls below the wall
    floor or lands on a point the projection rejects.  The search is skipped
    when the speed bound |alpha(p)| <= |alpha| sqrt(2 H) (H is conserved and
    the potential non-negative) keeps alpha(q) above the floor between the
    samples.
    """
    if (spec.cls, spec.k) != ("trace_power", 2):
        return False
    turned = (space.root_values(pt_a.p) < 0.0) & (space.root_values(pt_b.p) > 0.0)
    if not np.any(turned):
        return False
    speed = np.linalg.norm(space.root_coef, axis=1) * math.sqrt(2.0 * hamiltonian(space, pt0))
    lowest = (space.root_values(pt_a.q) + space.root_values(pt_b.q)
              - speed * (t_b - t_a)) / 2.0
    if np.all(lowest[turned] > algebra.EPS_WALL):
        return False

    def margin(t):
        try:
            q = flow_projection(space, pt0, t, spec).q
        except (WallProximityError, algebra.DegenerateSpectrumError):
            return -1.0
        return algebra.min_root_value(space, q)

    res = scipy.optimize.minimize_scalar(margin, bounds=(t_a, t_b), method="bounded",
                                         options={"xatol": 1e-10})
    return res.fun < algebra.EPS_WALL


def projection_trajectory(space: SymmetricSpaceData, pt0: PhasePoint, times,
                          spec: InvariantSpec = InvariantSpec("trace_power", 2),
                          lax_x: tuple = (0.0, 1.0), invariants: tuple = (),
                          on_wall: str = "raise") -> Trajectory:
    """Sample the projection-method flow on a time grid.

    A wall contact, at a sample or between two samples (see
    :func:`_wall_contact`), raises :class:`WallProximityError`; with
    ``on_wall="truncate"`` the samples before it are returned instead, with
    ``wall_time`` set to the last of them.
    """
    if on_wall not in ("raise", "truncate"):
        raise ValueError("on_wall must be 'raise' or 'truncate'")
    times = np.asarray(times, dtype=float)
    pts = []
    wall_time = None
    for t in times:
        t_prev = float(times[len(pts) - 1]) if pts else None
        try:
            pt = flow_projection(space, pt0, t, spec) if t != 0.0 else pt0
            if pts and _wall_contact(space, pt0, spec, t_prev, pts[-1], t, pt):
                raise WallProximityError(
                    f"trajectory reached a chamber wall in ({t_prev:.6g}, {t:.6g}]",
                    t=t_prev)
        except WallProximityError:
            if on_wall == "raise" or not pts:
                raise
            wall_time = t_prev
            break
        pts.append(pt)
    return _attach_monitors(space, times[:len(pts)], pts, lax_x, invariants,
                            wall_time=wall_time)


# ---------------------------------------------------------------------------
# r-matrix tensor and drift reports
# ---------------------------------------------------------------------------

def r12_build(space: SymmetricSpaceData, q):
    """Position-dependent r-matrix tensor as a list of simple tensor terms
    (coth alpha(q), E+_alpha^i, E-_alpha^i), left factors in M-perp and
    right factors in A-perp."""
    q = np.asarray(q, dtype=float)
    algebra.require_off_wall(space, q)
    av = space.alpha_cols(q)
    return [(float(1.0 / math.tanh(av[j])), space.eplus[j], space.eminus[j])
            for j in range(space.K)]


def monitor(space: SymmetricSpaceData, traj: Trajectory, specs: tuple = ()) -> dict:
    """Max relative drift of invariant monitors along a trajectory.

    Each drift is max_t |v(t) - v(0)| / max(1, |v(0)|); Lax spectra drift in
    the sorted-eigenvalue sup norm with the same scaling.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")

    def rel_drift(vals):
        v0 = vals[0]
        scale = max(1.0, float(np.abs(v0).max()) if np.ndim(v0) else abs(v0))
        return float(np.max(np.abs(vals - vals[0]))) / scale

    report = {
        "energy": rel_drift(traj.energy),
        "lax_spectra": {x: rel_drift(arr) for x, arr in traj.lax_spectra.items()},
        "invariants": {},
    }
    for label, vals in traj.invariants.items():
        report["invariants"][label] = rel_drift(vals)
    for spec in specs:
        label = spec.label()
        if label not in report["invariants"]:
            vals = np.array([invariant_value(space, spec, lax(space, pt, spec.x))
                             for pt in traj.points])
            report["invariants"][label] = rel_drift(vals)
    return report
