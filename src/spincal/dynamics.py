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
vanish (the freezing gauge, see :class:`FreezeCertificate`), so in that gauge
the spin is constant and only (q, p) move.

The direct integrator works on the basis coefficients c+ of xi alone, with
the state (q, p, c+).  By the root grading the zero-gauge xi' has no M-part,
so p' = -grad V and xi' = [xi, w^2(ad_q) xi] are closed forms in c+: the
latter through the structure constants ``space.fplus``.  :func:`eom_rhs`
evaluates the same field on N x N matrices and is the reference for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, orbits
from .algebra import (
    AdmissibilityError,
    FreezeCertificateError,
    StepSizeError,
    SymmetricSpaceData,
    WallProximityError,
    pair,
)
from .orbits import SpinPoint

_EPS = float(np.finfo(float).eps)

__all__ = [
    "PhasePoint",
    "InvariantSpec",
    "Trajectory",
    "EomRhs",
    "FreezingResult",
    "FreezeCertificate",
    "make_phase_point",
    "hamiltonian",
    "hamiltonian_via_lax",
    "lax",
    "lax_minus",
    "lax_cal",
    "eom_rhs",
    "sample_grid",
    "integrate_direct",
    "integrate_direct_batch",
    "flow_projection",
    "projection_trajectory",
    "invariant_value",
    "gradient",
    "bracket_pairings",
    "gradient_pairings",
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
    """Reduced phase-space point on the gauge slice, or a stack of them (rows
    of q and p with one spin or a spin stack, see :func:`make_phase_point`)."""

    q: np.ndarray
    p: np.ndarray
    xi: SpinPoint


def make_phase_point(space: SymmetricSpaceData, q, p, xi: SpinPoint | None = None) -> PhasePoint:
    """A checked phase point; rows of q and p (with one spin, or a stack of
    as many) give a stacked point for the functions that take stacks."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape[-1:] != (space.n_coords,) or p.shape != q.shape:
        raise ValueError(f"q and p must have {space.n_coords} coordinates")
    if space.spec.family == "sl_kc":
        if np.abs(q.sum(axis=-1)).max() > 1e-9 or np.abs(p.sum(axis=-1)).max() > 1e-9:
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
    m_part_norm: float | np.ndarray  # one value per row of a stacked point


@dataclass
class Trajectory:
    """Time-stamped reduced trajectory with invariant monitors.  ``path`` is
    the samples as one stacked :class:`PhasePoint`: q, p (T, n), xi (T, N, N)
    and its coefficients (T, K); a spin that does not move (freezing gauge,
    a batch of zero spins) is a read-only broadcast of the run's initial spin."""

    times: np.ndarray
    path: PhasePoint
    energy: np.ndarray
    lax_x: tuple
    lax_spectra: dict          # x -> (T, N) complex, sorted by (re, im)
    invariants: dict           # label -> (T,) float
    m_drift: float = 0.0       # direct, zero gauge: max M-part of xi' at the samples
    orbit_drift: float = 0.0   # max spectrum-restoring correction applied
    wall_time: float | None = None  # a wall event's last safe time (see the integrators)
    n_steps: int = 0           # direct integrator: steps accepted by the error control
    freeze_residual: float | None = None  # freeze gauge: max(per-root residual, sample |xi'|)

    def __len__(self):
        return len(self.times)


@dataclass
class FreezingResult:
    """Outcome of the gauge-freezing linear solve at one chamber point."""

    y_m: np.ndarray | None
    residual: float
    frozen_residual: float     # |[y_M - w^2(ad_q) mu, mu]|
    accepted: bool


# ---------------------------------------------------------------------------
# Energy and Lax matrices
# ---------------------------------------------------------------------------

def hamiltonian(space: SymmetricSpaceData, pt: PhasePoint) -> float:
    """Kinetic term plus the inverse-sinh-squared spin potential (one value
    per row of a stacked point)."""
    algebra.require_off_wall(space, pt.q)
    av = space.alpha_cols(pt.q)
    val = (0.5 * algebra.row_dots(pt.p, pt.p)
           + np.sum(pt.xi.coeffs ** 2 / algebra.sinh_sq(av), axis=-1) / (2.0 * space.coord_weight))
    return float(val) if np.ndim(val) == 0 else val


def hamiltonian_via_lax(space: SymmetricSpaceData, pt: PhasePoint) -> float:
    """Independent evaluation path: Re tr(L(1)^2) / (2 s)."""
    L = lax(space, pt, 1.0)
    return float(np.einsum("ab,ba->", L, L).real) / (2.0 * space.coord_weight)


def lax(space: SymmetricSpaceData, pt: PhasePoint, x: float) -> np.ndarray:
    """Spectral-parameter Lax matrix L(x) = p - coth(ad_q) xi - x xi.

    On the zero set of the momentum map, L(0) = J_minus and
    L(1) = J_minus + tanh(ad_q) J_minus.  The spin is on the slice, so
    coth(ad_q) xi is a scaling of its coefficients (:func:`algebra.ad_fn_slice`).
    A stacked point gives a stack of Lax matrices, with x a float or one
    value per point.
    """
    algebra.require_off_wall(space, pt.q)
    x = np.asarray(x, dtype=float)
    if x.ndim:
        x = x[..., None, None]
    return (algebra.embed(space, pt.p) - algebra.ad_fn_slice(space, "coth", pt.q, pt.xi.coeffs)
            - x * pt.xi.xi)


def lax_minus(space: SymmetricSpaceData, pt: PhasePoint) -> np.ndarray:
    """L(0) = p - coth(ad_q) xi, valued in g-minus (real spectrum)."""
    return lax(space, pt, 0.0)


def lax_cal(space: SymmetricSpaceData, pt: PhasePoint) -> np.ndarray:
    """Conjugated Lax operator p - w(ad_q) xi with w(z) = 1/sinh(z)."""
    algebra.require_off_wall(space, pt.q)
    return algebra.embed(space, pt.p) - algebra.ad_fn_slice(space, "inv_sinh", pt.q, pt.xi.coeffs)


def sorted_spectrum(X: np.ndarray) -> np.ndarray:
    return np.sort_complex(np.linalg.eigvals(X))


def _match_spectra(spectra: np.ndarray) -> np.ndarray:
    """Permute each row to the minimum-cost matching against the first row,
    the cost of a matching being sum |lambda - lambda_ref|.

    Lexicographic complex sorting is unstable when real parts are equal to
    roundoff, which would show up as spurious drift; optimal assignment
    against the initial spectrum gives continuous eigenvalue tracks.

    A row is matched without a solver when it can be laid out so that every
    eigenvalue lies within half its reference value's gap to the other
    reference values (less a margin for the rounding of the costs and of the
    solver's sums), and the eigenvalues on the slots of a repeated reference
    value are bitwise equal.  Then every eigenvalue sits at its nearest
    reference value, as many at each as its multiplicity, any other matching
    costs strictly more, and all optimal matchings give the same bits: those
    of scipy's ``linear_sum_assignment``.  Rows in reference order
    are tried as they are, then laid out by nearest reference value; the
    rest (near-ties, non-finite entries) go to the solver.
    """
    out = spectra.copy()
    if len(out) < 2:
        return out
    ref, rows = out[0], out[1:]
    sep = np.abs(ref[:, None] - ref)
    same = sep == 0.0
    first = same.argmax(axis=1)  # first slot holding each slot's value
    margin = 16 * len(ref) * _EPS * float(sep.max())
    sep[same] = np.inf
    radius = 0.5 * (sep.min(axis=1) - margin)
    ok = _certified(rows, ref, radius, first)
    if not ok.all():
        # rows out of reference order: each eigenvalue to a slot of its
        # nearest reference value (argmin takes the first of equal slots)
        todo = np.flatnonzero(~ok)
        moved = rows[todo]
        nearest = np.abs(moved[:, :, None] - ref).argmin(axis=2)
        order = np.argsort(nearest, axis=1, kind="stable")
        aligned = np.empty_like(moved)
        aligned[:, np.argsort(first, kind="stable")] = np.take_along_axis(moved, order, axis=1)
        ok = _certified(aligned, ref, radius, first)
        rows[todo[ok]] = aligned[ok]
        for i in todo[~ok] + 1:
            from scipy import optimize  # the fallback alone needs scipy
            row, col = optimize.linear_sum_assignment(np.abs(out[i][:, None] - ref))
            out[i, col] = out[i, row]
    return out


def _certified(aligned, ref, radius, first) -> np.ndarray:
    """Rows of ``aligned`` whose every entry lies within its slot's radius
    and equals, bit for bit, the entry on the first slot of its value."""
    near = np.abs(aligned - ref) < radius
    equal = aligned.take(first, axis=1).view(np.int64) == aligned.view(np.int64)
    return near.all(axis=1) & equal.all(axis=1)


# ---------------------------------------------------------------------------
# Equations of motion
# ---------------------------------------------------------------------------

def eom_rhs(space: SymmetricSpaceData, pt: PhasePoint, y_m: np.ndarray | None = None) -> EomRhs:
    """Reduced evolution vector field at pt with gauge generator y_m in M
    (default zero, the thick-slice choice), evaluated on N x N matrices:
    the reference for the coefficient formulas the direct integrator uses.
    A stacked point gives one field per row (y_m one matrix, or one per row)."""
    algebra.require_off_wall(space, pt.q)
    av = space.alpha_cols(pt.q)
    c = pt.xi.coeffs
    W2 = np.einsum("...j,jab->...ab", c / algebra.sinh_sq(av), space.eplus)
    CT = np.einsum("...j,jab->...ab", c / np.tanh(av), space.eminus)
    dp = algebra.coords_of(space, _comm(W2, CT))
    Y = -W2 if y_m is None else y_m - W2
    dxi = _comm(Y, pt.xi.xi)
    cm = algebra.decompose(space, dxi)[1]  # row_dots rounds each norm as np.linalg.norm does
    return EomRhs(dq=pt.p.copy(), dp=dp, dxi=dxi, m_part_norm=np.sqrt(algebra.row_dots(cm, cm)))


# ---------------------------------------------------------------------------
# Direct adaptive integration (embedded Dormand-Prince 5(4) pair)
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
# first same as last: the seventh stage is evaluated at (t + h, y5)
_DP_B5 = _DP_A[6]
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4  # y5 - y4 = h * (_DP_E @ ks)
_DP_ROWS = [_DP_A[i, :i] for i in range(1, 7)]  # stage i combines stages < i
# the continuous extension's fourth-order term (Hairer, Norsett & Wanner, Solving ODEs I, II.6)
_DP_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])
_MAX_STEPS = 5_000_000   # accepted steps before StepSizeError


class _DirectSystem:
    """Packed-state view (q, p, c+) of the reduced equations for the stepper,
    one run per row, with the flat basis arrays its right-hand side and the
    spin restoration work on."""

    def __init__(self, space: SymmetricSpaceData, gauge: str):
        K, N = space.K, space.N
        self.space = space
        self.nc = space.n_coords
        self.gauge = gauge
        self.coef_t = space.col_coef_t  # alpha_j(q) = q @ coef_t[:, j]
        self.force_coef = space.root_coef[space.e_root] / space.coord_weight
        self.root_coef_t = np.ascontiguousarray(space.root_coef.T)
        self.neg_fplus = -space.fplus.reshape(K * K, K)
        self.eplus = space.eplus.reshape(K, N * N)  # row j: E+_j
        self.eplus_t = space.eplus.transpose(0, 2, 1).reshape(K, N * N)  # row j: (E+_j)^T

    def __call__(self, t, Y):
        """The field at the rows of Y, shape (B, 2n+K); t holds their times
        (the field is autonomous)."""
        nc = self.nc
        cplus = Y[:, 2 * nc:]
        av = Y[:, :nc] @ self.coef_t
        w2 = cplus / np.sinh(av) ** 2
        out = np.empty_like(Y)
        out[:, :nc] = Y[:, nc:2 * nc]
        # p' = -grad V = (1/s) sum_j c_j^2 cosh(alpha_j) / sinh^3(alpha_j) coef_j
        out[:, nc:2 * nc] = (cplus * w2 / np.tanh(av)) @ self.force_coef
        if self.gauge == "freeze":
            # the spin is held still; its gauge is certified before the first step
            out[:, 2 * nc:] = 0.0
        else:
            # xi' = [xi, w^2(ad_q) xi]: dc_k = -sum_ij (c_i / sinh^2 alpha_i) c_j fplus_ijk,
            # one (B, K^2) @ (K^2, K) product for every row
            pairs = (w2[:, :, None] * cplus[:, None, :]).reshape(len(Y), -1)
            out[:, 2 * nc:] = pairs @ self.neg_fplus
        return out

    def spin(self, cplus) -> np.ndarray:
        """xi = sum_j c_j E+_j as N x N matrices, one per row of cplus
        (algebra.reconstruct)."""
        N = self.space.N
        return (cplus @ self.eplus).reshape(cplus.shape[:-1] + (N, N))

    def spin_coeffs(self, xi) -> np.ndarray:
        """c_j = -Re tr(xi E+_j) for each matrix of xi, the M-perp
        coefficients of algebra.decompose."""
        N = self.space.N
        return -(xi.reshape(xi.shape[:-2] + (N * N,)) @ self.eplus_t.T).real


def _spin_blocks(space: SymmetricSpaceData) -> tuple:
    """Diagonal blocks of the compact factors that on-slice spin lives in."""
    if space.spec.family == "su_mn":
        m = space.spec.m
        return (slice(0, m), slice(m, space.N))
    return (slice(0, space.N),)


def _block_spectra_ref(space: SymmetricSpaceData, xi: np.ndarray) -> np.ndarray:
    """The restoration targets of a stack of spins: i times the spectrum of
    -i xi on each block, at that block's slots of the last axis, with a unit
    axis before it (shape (..., 1, N))."""
    spectra = [np.linalg.eigvalsh(-1j * xi[..., sl, sl]) for sl in _spin_blocks(space)]
    return (1j * np.concatenate(spectra, axis=-1))[..., None, :]


def _restore_block_spectra(space: SymmetricSpaceData, xi: np.ndarray, ref) -> np.ndarray:
    """xi with each block's spectrum set to ref's, by one stacked eigh per
    block over a stack of spins."""
    out = xi.copy()
    for sl in _spin_blocks(space):
        w, V = np.linalg.eigh(-1j * xi[..., sl, sl])
        out[..., sl, sl] = (V * ref[..., sl]) @ V.conj().swapaxes(-1, -2)
    return out


def sample_grid(t_end: float, sample_dt: float | None = None) -> tuple:
    """(sample_dt, times) of a run on [0, t_end]: sample_dt defaults to
    t_end / 200, and the times cut [0, t_end] into round(t_end / sample_dt)
    equal segments, at least one."""
    if sample_dt is None:
        sample_dt = t_end / 200.0
    n_seg = max(1, int(round(t_end / sample_dt)))
    return sample_dt, np.linspace(0.0, t_end, n_seg + 1)


def integrate_direct(space: SymmetricSpaceData, pt0: PhasePoint, t_end: float,
                     tol: float = 1e-10, sample_dt: float | None = None,
                     lax_x: tuple = (0.0, 1.0), invariants: tuple = (),
                     gauge: str = "zero", on_wall: str = "raise") -> Trajectory:
    """Adaptive Dormand-Prince 5(4) integration of the reduced equations:
    :func:`integrate_direct_batch` with one member, whose failure is raised.

    The state is (q, p, c+), see the module docstring.  In the zero gauge,
    after every accepted step the per-block spectrum of the spin is restored
    to the initial one (the exact flow preserves it; the corrections are
    logged), and ``m_drift`` is the largest M-part of xi' at the samples.
    In the freezing gauge the spin is held constant, and its
    :class:`FreezeCertificate` failing on the chamber or at a sample raises
    :class:`FreezeCertificateError`.  Where no restoration changes the state
    (freezing gauge, zero spin) the last stage of a step is the first of the
    next.  Only t_end clips a step; the samples come from each step's
    continuous extension.  A step ending with min alpha(q) < EPS_WALL is
    rejected, so a run aimed at a wall stalls at the time t it reaches that
    level: :class:`WallProximityError` at t, or with ``on_wall="truncate"``
    the samples up to t, with ``wall_time`` = t.  A step-size underflow
    away from a wall raises :class:`StepSizeError`.
    """
    traj, = integrate_direct_batch(space, [pt0], t_end, tol=tol, sample_dt=sample_dt,
                                   monitors=[(lax_x, invariants)], gauge=gauge,
                                   on_wall=on_wall)
    if isinstance(traj, Exception):
        raise traj
    return traj


def integrate_direct_batch(space: SymmetricSpaceData, pts, t_end: float,
                           tol: float = 1e-10, sample_dt: float | None = None,
                           monitors=None, gauge: str = "zero",
                           on_wall: str = "raise") -> list:
    """Integrate several phase points on one space with one Dormand-Prince
    5(4) loop that advances them as the rows of a (B, 2n+K) state.

    Each member keeps its own time, step size, accept/reject decision, wall
    check and samples, exactly as :func:`integrate_direct` describes for one
    run; finished members drop out of the active rows.  Every Runge-Kutta
    stage is one right-hand-side call over the active rows, and the spectrum
    restoration one stacked ``eigh`` per spin block over the accepted rows;
    a batch whose spins are all zero has nothing to restore.  ``monitors``
    holds one ``(lax_x, invariants)`` pair per member (default ``(0, 1)``
    and none).

    Returns one entry per member, in order: its :class:`Trajectory`, or the
    exception that stopped it alone (:class:`StepSizeError`,
    :class:`FreezeCertificateError`, or with ``on_wall="raise"``
    :class:`WallProximityError`).
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if gauge not in ("zero", "freeze"):
        raise ValueError("gauge must be 'zero' or 'freeze'")
    if on_wall not in ("raise", "truncate"):
        raise ValueError("on_wall must be 'raise' or 'truncate'")
    pts = list(pts)
    if monitors is None:
        monitors = [((0.0, 1.0), ())] * len(pts)
    if len(monitors) != len(pts):
        raise ValueError("monitors must hold one (lax_x, invariants) pair per member")
    _, times = sample_grid(t_end, sample_dt)

    sys = _DirectSystem(space, gauge)
    nc = sys.nc
    freeze = gauge == "freeze"
    y0 = np.array([np.concatenate([pt.q, pt.p, pt.xi.coeffs]) for pt in pts])
    drift_sq = np.zeros(len(pts))  # largest squared spectrum correction
    stopped = [None] * len(pts)  # the failure that ended a member
    certs = [FreezeCertificate(space, pt.xi) for pt in pts] if freeze else []
    for m, cert in enumerate(certs):
        r = int(np.argmax(cert.root_residuals))
        if not cert.root_residuals[r] < 1e-9:
            stopped[m] = FreezeCertificateError(
                f"no freezing gauge on the chamber: root {space.roots[r].label()} "
                f"leaves the residual {cert.root_residuals[r]:.3e}")
    spec_ref = None if freeze else _block_spectra_ref(space, np.array([pt.xi.xi for pt in pts]))
    if spec_ref is not None and not spec_ref.any():  # zero spins only
        spec_ref = None

    def restore(members, Y5):
        xi = sys.spin(Y5[:, 2 * nc:])
        fixed = _restore_block_spectra(space, xi, spec_ref[members])
        d = (fixed - xi).reshape(len(members), -1)
        # squared Frobenius norms, each as np.linalg.norm sums them
        drift_sq[members] = np.maximum(drift_sq[members], algebra.row_dots(d.real, d.real)
                                       + algebra.row_dots(d.imag, d.imag))
        Y5[:, 2 * nc:] = sys.spin_coeffs(fixed)
        return Y5

    # a stage at a wall evaluates to inf/nan: the error norm rejects it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        samples, counts, n_steps = _step_batch(space, sys, y0, times, tol, t_end,
                                               None if spec_ref is None else restore, stopped)

    out = []
    for m, pt0 in enumerate(pts):
        exc, wall_time, freeze_residual = stopped[m], None, None
        if isinstance(exc, WallProximityError) and on_wall == "truncate":
            exc, wall_time = None, exc.t
        if exc is None and freeze:
            # the independent N x N check at the samples, from the run's z_r
            _, linear, frozen, ok = certs[m].at(samples[m, :counts[m], :nc])
            freeze_residual = float(max(certs[m].root_residuals.max(), frozen.max()))
            if not ok.all():
                k = int(np.argmin(ok))
                exc = FreezeCertificateError(
                    f"no freezing gauge at the sample t = {times[k]:.6g} (linear residual "
                    f"{linear[k]:.3e}, frozen residual {frozen[k]:.3e})")
        if exc is not None:
            out.append(exc)
            continue
        y = samples[m, :counts[m]]
        if spec_ref is None:  # the spin does not move: the initial one's bits
            xi = SpinPoint(xi=np.broadcast_to(pt0.xi.xi, (len(y), space.N, space.N)),
                           coeffs=np.broadcast_to(pt0.xi.coeffs, (len(y), space.K)),
                           on_slice=True)
        else:
            xi = SpinPoint(xi=sys.spin(y[:, 2 * nc:]), coeffs=y[:, 2 * nc:], on_slice=True)
        path = PhasePoint(q=y[:, :nc], p=y[:, nc:2 * nc], xi=xi)
        # the M-part of xi' vanishes on the slice; its largest value at the
        # samples is kept as a consistency diagnostic (np.max keeps a NaN)
        m_drift = 0.0 if freeze else float(np.max(eom_rhs(space, path).m_part_norm))
        lax_x, invariants = monitors[m]
        out.append(_attach_monitors(space, times[:counts[m]], path, lax_x, invariants,
                                    m_drift=m_drift, orbit_drift=math.sqrt(drift_sq[m]),
                                    wall_time=wall_time, n_steps=int(n_steps[m]),
                                    freeze_residual=freeze_residual))
    return out


def _dense(y0, y1, ks, h, th):
    """Hairer's contd5: the continuous extension of Dormand-Prince steps
    y0 -> y1 with stages ks at the fractions th of their sizes h (one row
    per step; h and th are columns)."""
    dy = y1 - y0
    b = h * ks[:, 0] - dy
    return y0 + th * (dy + (1 - th) * (b + th * (dy - h * ks[:, 6] - b
                                                  + (1 - th) * (h * (_DP_D @ ks)))))


def _step_batch(space, sys, y0, times, tol, t_end, restore, stopped):
    """Dormand-Prince 5(4) on [0, t_end] for the rows of y0 whose member has
    not stopped, restore(members, y5) correcting accepted states, with the
    samples at ``times`` on each step's continuous extension.  Returns the
    samples, shape (B, T, 2n+K), how many each member reached, and its
    accepted steps.  A member that stalls (at a wall, where every step is
    rejected), underflows or exceeds the step budget gets its exception in
    ``stopped``."""
    B, D = y0.shape
    samples = np.empty((B, len(times), D))
    samples[:, 0] = y0
    counts = np.ones(B, dtype=int)
    n_steps = np.zeros(B, dtype=int)
    rows = np.array([m for m in range(B) if stopped[m] is None], dtype=int)  # active members
    Y = y0[rows]
    t = np.zeros(rows.size)
    h = np.full(rows.size, 0.005)  # the first trial step, whatever the sample grid
    ks = np.empty((rows.size, 7, D))
    if rows.size:
        ks[:, 0] = sys(t, Y)  # the first stage at (t, y), kept over a rejected step
    h_min = 1e-14 * max(1.0, t_end)
    attempts = 0
    while rows.size:
        if h.min() < h_min:
            tiny = h < h_min
            for r in np.flatnonzero(tiny):
                # persistent rejection right at a chamber wall is a wall event
                if algebra.min_root_value(space, Y[r, :sys.nc]) < 1e-3:
                    stopped[rows[r]] = WallProximityError(
                        f"trajectory stalled against a chamber wall at t = {t[r]:.6g}",
                        t=float(t[r]))
                else:
                    stopped[rows[r]] = StepSizeError(f"step size underflow at t = {t[r]:.6g}")
            rows, Y, t, h, ks = (a[~tiny] for a in (rows, Y, t, h, ks))
            continue
        h = np.minimum(h, t_end - t)
        attempts += 1
        hc = h[:, None]
        for i, a in enumerate(_DP_ROWS, start=1):
            yi = Y + hc * (a @ ks[:, :i])
            ks[:, i] = sys(t, yi)  # the field is autonomous: t is the step's start
        y5 = yi  # the last stage's argument
        r = hc * (_DP_E @ ks) / (tol + tol * np.maximum(np.abs(Y), np.abs(y5)))
        sq = algebra.row_dots(r, r)
        # a step ending within EPS_WALL of a wall fails like a non-finite one
        sq[(y5[:, :sys.nc] @ sys.root_coef_t).min(axis=1) < algebra.EPS_WALL] = np.inf
        err = [math.sqrt(e / D) for e in sq.tolist()]
        # a non-finite error gives the factor 0.2, a retry with a fifth of h
        h_step, h = h, h * np.array([min(5.0, max(0.2, 0.9 * (e + 1e-300) ** (-0.2)))
                                     for e in err])
        ok = [k for k, e in enumerate(err) if e <= 1.0]
        if not ok:
            continue
        acc = slice(None) if len(ok) == rows.size else np.array(ok)
        members = rows[acc]
        t0, h_acc = t[acc], h_step[acc]
        # a step clamped to t_end - t ends at t_end exactly
        t1 = np.where(h_acc < t_end - t0, t0 + h_acc, t_end)
        y1 = y5[acc] if restore is None else restore(members, y5[acc])
        n_new = np.searchsorted(times, t1, side="right")
        take = n_new - counts[members]
        if take.any():
            i = np.repeat(np.arange(take.size), take)  # the step of each new sample
            k = n_new[i] - (np.cumsum(take)[i] - np.arange(i.size))
            hi = h_acc[i, None]
            samples[members[i], k] = _dense(Y[acc][i], y1[i], ks[acc][i], hi,
                                            (times[k, None] - t0[i, None]) / hi)
            counts[members] = n_new
        Y[acc] = y1
        t[acc] = t1
        n_steps[members] += 1
        # where y5 is not restored, its stage is the next first stage
        ks[acc, 0] = ks[acc, 6] if restore is None else sys(t1, y1)
        done = t1 >= t_end
        if attempts > _MAX_STEPS:  # no member takes more steps than there were attempts
            over = n_steps[members] > _MAX_STEPS
            for m in members[over]:
                stopped[m] = StepSizeError("maximum number of steps exceeded")
            done |= over
        if done.any():
            keep = np.ones(rows.size, dtype=bool)
            keep[np.array(ok)[done]] = False
            rows, Y, t, h, ks = (a[keep] for a in (rows, Y, t, h, ks))
    return samples, counts, n_steps


def _attach_monitors(space, times, path, lax_x, invariants, **stats):
    """The :class:`Trajectory` of the samples ``path`` (one stacked
    :class:`PhasePoint`) at ``times``: energy, the Lax spectra at each x and
    each invariant, every one evaluated once on the whole stack."""
    # L(x) = L(0) - x xi: one Lax matrix per sample serves every x
    lax0 = lax(space, path, 0.0)
    xis = path.xi.xi
    # one stacked eigvals per x: LAPACK runs per matrix, as sorted_spectrum does
    spectra = {float(x): _match_spectra(np.sort_complex(np.linalg.eigvals(lax0 - x * xis)))
               for x in lax_x}
    inv = {spec.label(): invariant_value(space, spec, lax0 - spec.x * xis)
           for spec in invariants}
    return Trajectory(times=np.asarray(times, dtype=float), path=path,
                      energy=hamiltonian(space, path), lax_x=tuple(float(x) for x in lax_x),
                      lax_spectra=spectra, invariants=inv, **stats)


# ---------------------------------------------------------------------------
# Invariants and their gradients
# ---------------------------------------------------------------------------

def _trace_power_coef(space: SymmetricSpaceData, k: int) -> complex:
    if space.spec.family == "su_mn" and k % 2 == 1:
        return -1j  # tr X^k is imaginary on su(m,n) for odd k
    return 1.0 + 0.0j


def invariant_value(space: SymmetricSpaceData, spec: InvariantSpec, X: np.ndarray) -> float:
    """Evaluate the generator f on an algebra element (typically K(x)|_slice),
    one value per matrix of a stack."""
    if spec.cls == "trace_power":
        c = _trace_power_coef(space, spec.k)
        return (c * np.trace(np.linalg.matrix_power(X, spec.k), axis1=-2, axis2=-1)).real / spec.k
    if space.spec.family != "su_mn":
        raise AdmissibilityError("block invariants are defined on the su(m,n) family")
    m = space.spec.m
    A, B = X[..., :m, :m], X[..., :m, m:]
    Bd, D = X[..., m:, :m], X[..., m:, m:]
    M = A @ B @ D @ Bd
    return np.trace(np.linalg.matrix_power(M, spec.k), axis1=-2, axis2=-1).real


def gradient(space: SymmetricSpaceData, spec: InvariantSpec, X: np.ndarray) -> np.ndarray:
    """Riesz gradient of the generator with respect to <X,Y> = Re tr(XY):
    the unique algebra element with <Y, grad f> = d/dt f(X + tY), for each
    matrix of a stack."""
    X = np.asarray(X, dtype=complex)
    if spec.cls == "trace_power":
        c = _trace_power_coef(space, spec.k)
        W = c * np.linalg.matrix_power(X, spec.k - 1)
        return algebra.project_to_algebra(space, W)
    if space.spec.family != "su_mn":
        raise AdmissibilityError("block invariants are defined on the su(m,n) family")
    m, k = space.spec.m, spec.k
    A, B = X[..., :m, :m], X[..., :m, m:]
    Bd, D = X[..., m:, :m], X[..., m:, m:]
    Nm = np.linalg.matrix_power(A @ B @ D @ Bd, k - 1)
    W = np.zeros_like(X)
    W[..., :m, :m] = B @ D @ Bd @ Nm
    W[..., :m, m:] = Nm @ A @ B @ D
    W[..., m:, :m] = D @ Bd @ Nm @ A
    W[..., m:, m:] = Bd @ Nm @ A @ B
    return algebra.project_to_algebra(space, k * W)


def _comm(A, B):
    return A @ B - B @ A


def bracket_pairings(space: SymmetricSpaceData, f: InvariantSpec, x: float,
                     h: InvariantSpec, y: float, pt: PhasePoint) -> tuple:
    """<xi, [(grad f)+(K(x)), (grad h)+(K(y))]> and the same pairing of the
    minus parts, with K(x) = J_minus - x xi = L(x) on the constraint surface."""
    return gradient_pairings(space, pt.xi.xi, gradient(space, f, lax(space, pt, x)),
                             gradient(space, h, lax(space, pt, y)))


def gradient_pairings(space: SymmetricSpaceData, xi, grad_f, grad_h) -> tuple:
    """<xi, [grad_f+, grad_h+]> and <xi, [grad_f-, grad_h-]>: the pairings of
    :func:`bracket_pairings` from the two gradients, one pair per matrix of
    a stack."""
    gf_p, gf_m = algebra.split(space, grad_f)
    gh_p, gh_m = algebra.split(space, grad_h)
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
    plus, minus = bracket_pairings(space, f, x, h, y, pt)
    return x * y * plus - minus


def identity_413(space: SymmetricSpaceData, f: InvariantSpec, x: float,
                 h: InvariantSpec, y: float, pt: PhasePoint) -> float:
    """Residual of x <xi,[A^f+(x), A^h+(y)]> = y <xi,[A^f-(x), A^h-(y)]>,
    valid for f compact-invariant and h fully invariant."""
    plus, minus = bracket_pairings(space, f, x, h, y, pt)
    return abs(x * plus - y * minus)


def identity_416(space: SymmetricSpaceData, f: InvariantSpec, x: float,
                 h: InvariantSpec, y: float, pt: PhasePoint) -> float:
    """Mirror identity y <xi,[A^f+, A^h+]> = x <xi,[A^f-, A^h-]> for two
    fully invariant generators."""
    plus, minus = bracket_pairings(space, f, x, h, y, pt)
    return abs(y * plus - x * minus)


# ---------------------------------------------------------------------------
# Freezing gauge
# ---------------------------------------------------------------------------

class FreezeCertificate:
    """The freezing gauge of a spin mu (a SpinPoint, or a matrix through
    :func:`orbits.spin_point`) on the whole chamber.  In E+ coefficients the
    frozen condition [y_M, mu] = [w^2(ad_q) mu, mu] has the q-independent
    columns of [M_b, mu] and the right-hand side sum_r w^2(alpha_r(q)) R_r
    over the positive roots, R_r = sum_{i in r} c_i sum_j c_j fplus_ij:.  The
    1/sinh^2 alpha_r are linearly independent on the chamber, so a gauge
    exists on all of it iff every ``root_residuals`` |R_r - cols z_r| (z_r by
    least squares) vanishes; then y_M(q) = sum_r w^2(alpha_r(q)) z_r."""

    def __init__(self, space: SymmetricSpaceData, mu):
        if not isinstance(mu, SpinPoint) or mu.coeffs is None:
            mu = orbits.spin_point(space, mu.xi if isinstance(mu, SpinPoint) else mu)
        c = mu.coeffs
        R = np.zeros((len(space.roots), space.K))
        np.add.at(R, space.e_root, c[:, None] * (space.fplus.transpose(0, 2, 1) @ c))
        # M-perp coefficients, contracted as algebra.decompose does
        comms = space.m_basis @ mu.xi - mu.xi @ space.m_basis
        cols = -np.einsum("kab,jba->jk", comms, space.eplus).real
        z, *_ = np.linalg.lstsq(cols, R.T, rcond=None)
        self.space, self.mu, self.z = space, mu, z.T  # z_r: M coefficients, one row per root
        self.defect = (cols @ z).T - R  # cols z_r - R_r, one row per root
        self.root_residuals = np.linalg.norm(self.defect, axis=1)

    def at(self, qs) -> tuple:
        """At each row of qs: y_M (N x N), the linear residual, the frozen
        residual |[y_M - w^2(ad_q) mu, mu]| and whether they are below 1e-9, 1e-8."""
        space, mu = self.space, self.mu
        w2 = algebra.PHI_FUNCTIONS["inv_sinh_sq"][0](qs @ space.root_coef.T)  # (T, roots)
        y_m = np.einsum("tb,bij->tij", w2 @ self.z, space.m_basis)
        d = y_m - np.einsum("tj,jab->tab", w2[:, space.e_root] * mu.coeffs, space.eplus)
        linear = np.linalg.norm(w2 @ self.defect, axis=1)
        frozen = np.linalg.norm(d @ mu.xi - mu.xi @ d, axis=(1, 2))
        return y_m, linear, frozen, (linear < 1e-9) & (frozen < 1e-8)


def freezing_solve(space: SymmetricSpaceData, q, mu) -> FreezingResult:
    """The frozen condition [y_M, mu] = [w^2(ad_q) mu, mu], w = 1/sinh, solved
    at one chamber point q: the :class:`FreezeCertificate` of mu evaluated at
    q.  It does not certify the chamber: far out it accepts any spin."""
    algebra.require_off_wall(space, q)
    (y_m,), (residual,), (frozen,), (ok,) = FreezeCertificate(space, mu).at(np.atleast_2d(q))
    return FreezingResult(y_m=y_m if ok else None, residual=float(residual),
                          frozen_residual=float(frozen), accepted=bool(ok))


# ---------------------------------------------------------------------------
# Projection-method integration
# ---------------------------------------------------------------------------

def _polar_orthonormalize(A: np.ndarray) -> np.ndarray:
    U, _, Vh = np.linalg.svd(A, full_matrices=False)
    return U @ Vh


def _require_chamber_coords(space, q):
    if not algebra.is_in_chamber(space, q, margin=algebra.EPS_WALL):
        raise WallProximityError(f"projected point is outside the open chamber: q = {q}")
    gaps = np.abs(np.diff(np.sort(q)))
    if gaps.size and gaps.min() < 1e-9:
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


def _projection_lift(space: SymmetricSpaceData, pt0: PhasePoint, spec: InvariantSpec) -> tuple:
    """pt0's spin, L(0), G = grad f(L(1)), S0 = exp(embed(q_0)) and on sl(k,C) S0^-1."""
    if spec.cls != "trace_power":
        raise AdmissibilityError("the projection flow requires a fully invariant generator")
    H0 = algebra.embed(space, pt0.q)
    return (pt0.xi.xi, lax(space, pt0, 0.0), gradient(space, spec, lax(space, pt0, 1.0)),
            orbits.expm_herm(H0), None if space.spec.family == "su_mn" else orbits.expm_herm(-H0))


def _projection_at(space: SymmetricSpaceData, lift: tuple, t: float) -> PhasePoint:
    """The projection flow of :func:`_projection_lift` at time t."""
    xi0, j_minus, G, S0, S0_inv = lift
    # Lambda(t) = E Lambda_0 E+ with E = expm(t grad f) is never assembled (its
    # condition number squares the exponent spread): the gauge is recovered from
    # the accurate large singular data of the half-factor W = E Lambda_0^(1/2).
    W = orbits.expm(t * G) @ S0
    if S0_inv is None:
        q_t, g = _chamber_gauge_su(space, W)
    else:
        q_t, g = _chamber_gauge_sl(space, W, S0_inv @ orbits.expm(-t * G))
    p_t = algebra.coords_of(space, g.conj().T @ j_minus @ g)
    # drop the numerical M-part before re-certifying the slice condition
    _, cm, cplus, _ = algebra.decompose(space, g.conj().T @ xi0 @ g)
    if np.linalg.norm(cm) > 1e-7:
        raise algebra.OffSliceError(
            f"projected spin drifted off the slice (M-part {np.linalg.norm(cm):.3e})")
    return PhasePoint(q=q_t, p=p_t, xi=SpinPoint(
        xi=algebra.reconstruct(space, cplus=cplus), coeffs=cplus, on_slice=True))


def flow_projection(space: SymmetricSpaceData, pt0: PhasePoint, t: float,
                    spec: InvariantSpec = InvariantSpec("trace_power", 2)) -> PhasePoint:
    """Exact time-t map of the invariant flow generated by f(K(1)) via the
    projection method.

    The slice datum is lifted to (Lambda_0, J_-^0 = L(0), xi^0), transported
    along Lambda(t) = exp(t grad f(J_0)) Lambda_0 exp(-t theta(grad f(J_0)))
    and projected back to the chamber by re-diagonalizing Lambda(t).  Only
    exp(t grad f) depends on t: :func:`projection_trajectory` lifts once per
    run and evaluates this same flow at every sample.  Only trace powers
    (fully group-invariant) admit this closed flow; spec = trace_power(2) is
    the model's Hamiltonian flow.  The spin comes back in whatever residual
    M-gauge the re-diagonalization picks: q, p, the energy, Lax spectra and
    invariants do not depend on it.
    """
    return _projection_at(space, _projection_lift(space, pt0, spec), t)


def _wall_contact(space, lift, speed, t_a, q_a, t_b, q_b) -> bool:
    """Whether the Hamiltonian projection flow (trace power 2, q' = p) comes
    within EPS_WALL of a chamber wall between two samples.

    H is conserved and the potential non-negative, so each alpha(q) moves no
    faster than speed = |alpha| sqrt(2 H): on [t_a, t_b] it stays above
    (alpha(q_a) + alpha(q_b) - speed (t_b - t_a)) / 2.  An interval where
    that bound clears EPS_WALL for every root is clear, any other is bisected
    on the flow (Piyavskii 1972; Shubert 1972).  A midpoint the projection
    rejects (it requires min alpha > EPS_WALL), or a still unclear interval
    narrower than 1e-10, is a contact.
    """
    todo = [(t_a, space.root_values(q_a), t_b, space.root_values(q_b))]
    while todo:
        t_a, a, t_b, b = todo.pop()
        if np.all((a + b - speed * (t_b - t_a)) / 2.0 > algebra.EPS_WALL):
            continue
        if t_b - t_a < 1e-10:
            return True
        t_m = 0.5 * (t_a + t_b)
        try:
            m = space.root_values(_projection_at(space, lift, t_m).q)
        except (WallProximityError, algebra.DegenerateSpectrumError):
            return True
        todo += [(t_m, m, t_b, b), (t_a, a, t_m, m)]
    return False


def projection_trajectory(space: SymmetricSpaceData, pt0: PhasePoint, times,
                          lax_x: tuple = (0.0, 1.0), invariants: tuple = (),
                          on_wall: str = "raise") -> Trajectory:
    """Sample the projection-method Hamiltonian flow, lifted once, on a time grid.

    A wall contact, at a sample or between two samples (see
    :func:`_wall_contact`), raises :class:`WallProximityError`; with
    ``on_wall="truncate"`` the samples before it are returned instead, with
    ``wall_time`` set to the last of them.
    """
    if on_wall not in ("raise", "truncate"):
        raise ValueError("on_wall must be 'raise' or 'truncate'")
    times = np.asarray(times, dtype=float)
    lift = _projection_lift(space, pt0, InvariantSpec("trace_power", 2))
    speed = np.linalg.norm(space.root_coef, axis=1) * math.sqrt(2.0 * hamiltonian(space, pt0))
    pts = []
    wall_time = None
    for t in times:
        t_prev = float(times[len(pts) - 1]) if pts else None
        try:
            pt = _projection_at(space, lift, t) if t != 0.0 else pt0
            if pts and _wall_contact(space, lift, speed, t_prev, pts[-1].q, t, pt.q):
                raise WallProximityError(
                    f"trajectory reached a chamber wall in ({t_prev:.6g}, {t:.6g}]",
                    t=t_prev)
        except WallProximityError:
            if on_wall == "raise" or not pts:
                raise
            wall_time = t_prev
            break
        pts.append(pt)
    path = PhasePoint(q=np.array([pt.q for pt in pts]), p=np.array([pt.p for pt in pts]),
                      xi=SpinPoint(xi=np.array([pt.xi.xi for pt in pts]),
                                   coeffs=np.array([pt.xi.coeffs for pt in pts]), on_slice=True))
    return _attach_monitors(space, times[:len(pts)], path, lax_x, invariants,
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


def monitor(space: SymmetricSpaceData, traj: Trajectory) -> dict:
    """Max relative drift of the trajectory's energy, Lax spectra and
    invariant monitors.

    Each drift is max_t |v(t) - v(0)| / max(1, |v(0)|); Lax spectra drift in
    the sorted-eigenvalue sup norm with the same scaling.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")

    def rel_drift(vals):
        v0 = vals[0]
        scale = max(1.0, float(np.abs(v0).max()) if np.ndim(v0) else abs(v0))
        return float(np.max(np.abs(vals - vals[0]))) / scale

    return {
        "energy": rel_drift(traj.energy),
        "lax_spectra": {x: rel_drift(arr) for x, arr in traj.lax_spectra.items()},
        "invariants": {label: rel_drift(vals) for label, vals in traj.invariants.items()},
    }
