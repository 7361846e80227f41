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
        val += float(np.sum(pt.xi.coeffs ** 2 / algebra.sinh_sq(av))) / (2.0 * space.coord_weight)
    return val


def hamiltonian_via_lax(space: SymmetricSpaceData, pt: PhasePoint) -> float:
    """Independent evaluation path: Re tr(L(1)^2) / (2 s)."""
    L = lax(space, pt, 1.0)
    return float(np.einsum("ab,ba->", L, L).real) / (2.0 * space.coord_weight)


def lax(space: SymmetricSpaceData, pt: PhasePoint, x: float) -> np.ndarray:
    """Spectral-parameter Lax matrix L(x) = p - coth(ad_q) xi - x xi.

    On the zero set of the momentum map, L(0) = J_minus and
    L(1) = J_minus + tanh(ad_q) J_minus.  The spin is on the slice, so
    coth(ad_q) xi is a scaling of its coefficients (:func:`algebra.ad_fn_slice`).
    """
    algebra.require_off_wall(space, pt.q)
    L = algebra.embed(space, pt.p)
    if pt.xi.is_zero:
        return L
    return L - algebra.ad_fn_slice(space, "coth", pt.q, pt.xi.coeffs) - x * pt.xi.xi


def lax_minus(space: SymmetricSpaceData, pt: PhasePoint) -> np.ndarray:
    """L(0) = p - coth(ad_q) xi, valued in g-minus (real spectrum)."""
    return lax(space, pt, 0.0)


def lax_cal(space: SymmetricSpaceData, pt: PhasePoint) -> np.ndarray:
    """Conjugated Lax operator p - w(ad_q) xi with w(z) = 1/sinh(z)."""
    algebra.require_off_wall(space, pt.q)
    L = algebra.embed(space, pt.p)
    if not pt.xi.is_zero:
        L = L - algebra.ad_fn_slice(space, "inv_sinh", pt.q, pt.xi.coeffs)
    return L


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
    of ``scipy.optimize.linear_sum_assignment``.  Rows in reference order
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
            import scipy.optimize  # the fallback alone needs scipy
            row, col = scipy.optimize.linear_sum_assignment(np.abs(out[i][:, None] - ref))
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
    the reference for the coefficient formulas the direct integrator uses."""
    algebra.require_off_wall(space, pt.q)
    if pt.xi.is_zero:
        z = np.zeros((space.N, space.N), complex)
        return EomRhs(dq=pt.p.copy(), dp=np.zeros_like(pt.p), dxi=z, m_part_norm=0.0)
    av = space.alpha_cols(pt.q)
    c = pt.xi.coeffs
    W2 = np.einsum("j,jab->ab", c / algebra.sinh_sq(av), space.eplus)
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
        coef = space.root_coef[space.e_root]  # alpha_j(q) = coef[j] @ q
        self.coef_t = np.ascontiguousarray(coef.T)
        self.force_coef = coef / space.coord_weight
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
            # the spin is held still; integrate_direct_batch certifies the gauge
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


def _row_dots(a, b) -> np.ndarray:
    """a_r . b_r for every row r, each rounded as the 1-D dot product is."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


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
    In the freezing gauge the spin is held constant, and the gauge is
    certified by :func:`freezing_solve` on the initial spin at t = 0 and
    after every accepted step: a failed certificate raises
    :class:`FreezeCertificateError`, and the worst frozen residual is logged
    as ``freeze_residual``.  Where no restoration changes the state
    (freezing gauge, zero spin) the last stage of a step is the first of the
    next.  Integration halts with :class:`WallProximityError` if the
    configuration approaches a chamber wall; with ``on_wall="truncate"`` the
    samples collected before the event are returned instead, with
    ``wall_time`` set.  A step-size underflow raises :class:`StepSizeError`.
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

    Each member keeps its own time, step size, sample index, accept/reject
    decision and wall check, exactly as :func:`integrate_direct` describes
    for one run; finished members drop out of the active rows.  Every
    Runge-Kutta stage is one right-hand-side call over the active rows, and
    the spectrum restoration one stacked ``eigh`` per spin block over the
    accepted rows.  The spins must be all zero or all nonzero.  ``monitors``
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
    free = pts[0].xi.is_zero
    if any(pt.xi.is_zero != free for pt in pts):
        raise ValueError("the spins of a batch must be all zero or all nonzero")
    sample_dt, times = sample_grid(t_end, sample_dt)

    sys = _DirectSystem(space, gauge)
    nc = sys.nc
    freeze = gauge == "freeze"
    y0 = np.array([np.concatenate([pt.q, pt.p, pt.xi.coeffs]) for pt in pts])
    spec_ref = (None if free or freeze
                else _block_spectra_ref(space, np.array([pt.xi.xi for pt in pts])))
    drift_sq = np.zeros(len(pts))  # largest squared spectrum correction
    freeze_residual = np.zeros(len(pts))
    stopped = [None] * len(pts)  # the failure that ended a member

    def certify(m, q) -> bool:
        res = freezing_solve(space, q, pts[m].xi)
        if not res.accepted:
            stopped[m] = FreezeCertificateError(
                f"no freezing gauge at q = {q} (residual {res.residual:.3e})")
            return False
        freeze_residual[m] = max(freeze_residual[m], res.frozen_residual)
        return True

    def correct(members, Y5, past_wall):
        # the states to continue from, for the accepted rows Y5 of members,
        # and which of them end here: past a wall, or with a failed certificate
        if freeze:
            # a point past the wall ends the member at the stepper's wall check
            bad = [k for k in np.flatnonzero(~past_wall) if not certify(members[k], Y5[k, :nc])]
            if bad:
                past_wall = past_wall.copy()
                past_wall[bad] = True
            return Y5, past_wall
        if free:
            return Y5, past_wall
        xi = sys.spin(Y5[:, 2 * nc:])
        fixed = _restore_block_spectra(space, xi, spec_ref[members])
        d = (fixed - xi).reshape(len(members), -1)
        # squared Frobenius norms, each as np.linalg.norm sums them
        drift_sq[members] = np.maximum(drift_sq[members],
                                       _row_dots(d.real, d.real) + _row_dots(d.imag, d.imag))
        Y5[:, 2 * nc:] = sys.spin_coeffs(fixed)
        return Y5, past_wall

    if freeze:
        for m, pt in enumerate(pts):
            certify(m, pt.q)
    # a stage past a wall evaluates to inf/nan: the error norm rejects it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        samples, counts, n_steps = _step_batch(space, sys, y0, times, tol, t_end,
                                               min(sample_dt, 0.05) * 0.1, correct,
                                               stopped, fsal=freeze or free)

    out = []
    for m, pt0 in enumerate(pts):
        exc, wall_time = stopped[m], None
        if isinstance(exc, WallProximityError) and on_wall == "truncate":
            exc, wall_time = None, exc.t
        if exc is not None:
            out.append(exc)
            continue
        pts_m = [_sample_point(sys, pt0, y, freeze or free) for y in samples[m, :counts[m]]]
        # the M-part of xi' vanishes on the slice; its largest value at the
        # samples is kept as a consistency diagnostic
        m_drift = 0.0 if freeze else max(eom_rhs(space, pt).m_part_norm for pt in pts_m)
        lax_x, invariants = monitors[m]
        out.append(_attach_monitors(space, times[:counts[m]], pts_m, lax_x, invariants,
                                    m_drift=m_drift, orbit_drift=math.sqrt(drift_sq[m]),
                                    wall_time=wall_time, n_steps=int(n_steps[m]),
                                    freeze_residual=(float(freeze_residual[m])
                                                     if freeze else None)))
    return out


def _sample_point(sys, pt0, y, const_spin) -> PhasePoint:
    q, p, cplus = y[:sys.nc].copy(), y[sys.nc:2 * sys.nc].copy(), y[2 * sys.nc:].copy()
    if const_spin:
        return PhasePoint(q=q, p=p, xi=pt0.xi)
    return PhasePoint(q=q, p=p, xi=SpinPoint(xi=sys.spin(cplus), coeffs=cplus, on_slice=True))


def _step_batch(space, sys, y0, times, tol, t_end, h0, correct, stopped, fsal):
    """Dormand-Prince 5(4) over the sample grid for the rows of y0 whose
    member has not stopped.  Returns the samples, shape (B, T, 2n+K), how
    many of them each member reached, and its accepted steps.  A member that
    stalls, underflows, exceeds the step budget, reaches a wall or fails in
    ``correct`` gets its exception in ``stopped`` and drops out."""
    B, D = y0.shape
    last = len(times) - 1
    samples = np.empty((B, len(times), D))
    samples[:, 0] = y0
    counts = np.ones(B, dtype=int)
    n_steps = np.zeros(B, dtype=int)
    rows = np.array([m for m in range(B) if stopped[m] is None], dtype=int)  # active members
    Y = y0[rows]
    t = np.zeros(rows.size)
    h = np.full(rows.size, h0)
    seg = np.ones(rows.size, dtype=int)  # index of each row's next sample
    t_seg = times[seg]  # each row's next sample time
    t_eps = 1e-14 * t_end
    t_due = t_seg - t_eps  # a row at or past it takes its sample
    ks = np.empty((rows.size, 7, D))
    if rows.size:
        ks[:, 0] = sys(t, Y)  # the first stage at (t, y), kept over a rejected step
    h_min = 1e-14 * max(1.0, t_end)
    attempts = 0
    moved = True  # rows have advanced: take their samples and clamp their steps
    while rows.size:
        if moved:
            due = t >= t_due
            while due.any():
                r = np.flatnonzero(due)
                samples[rows[r], seg[r]] = Y[r]
                counts[rows[r]] += 1
                t[r] = t_seg[r]
                seg[r] += 1
                keep = seg <= last
                rows, Y, t, h, seg, ks = (a[keep] for a in (rows, Y, t, h, seg, ks))
                t_seg = times[seg]
                t_due = t_seg - t_eps
                due = t >= t_due
            if not rows.size:
                break
            # a rejected step only shrinks h: the clamp holds until the next accept
            h = np.minimum(h, t_seg - t)
            moved = False
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
            rows, Y, t, h, seg, t_seg, t_due, ks = (
                a[~tiny] for a in (rows, Y, t, h, seg, t_seg, t_due, ks))
            continue
        attempts += 1
        hc = h[:, None]
        for i, a in enumerate(_DP_ROWS, start=1):
            yi = Y + hc * (a @ ks[:, :i])
            ks[:, i] = sys(t, yi)  # the field is autonomous: t is the step's start
        y5 = yi  # the last stage's argument
        r = hc * (_DP_E @ ks) / (tol + tol * np.maximum(np.abs(Y), np.abs(y5)))
        err = [math.sqrt(sq / D) for sq in _row_dots(r, r).tolist()]
        # a non-finite error gives the factor 0.2, a retry with a fifth of h
        h_step, h = h, h * np.array([min(5.0, max(0.2, 0.9 * (e + 1e-300) ** (-0.2)))
                                     for e in err])
        ok = [k for k, e in enumerate(err) if e <= 1.0]
        if not ok:
            continue
        moved = True
        acc = slice(None) if len(ok) == rows.size else np.array(ok)
        members = rows[acc]
        t_prev = t[acc]
        t_new = t_prev + h_step[acc]
        past_wall = (y5[acc, :sys.nc] @ sys.root_coef_t).min(axis=1) < algebra.EPS_WALL
        # correct() marks the rows that end here: past a wall or uncertified
        Y[acc], failed = correct(members, y5[acc], past_wall)
        n_steps[members] += 1
        if attempts > _MAX_STEPS:  # no member takes more steps than there were attempts
            failed = failed | (n_steps[members] > _MAX_STEPS)
        any_failed = failed.any()
        if any_failed:
            for k in np.flatnonzero(failed):
                if past_wall[k]:
                    stopped[members[k]] = WallProximityError(
                        f"trajectory reached a chamber wall in ({t_prev[k]:.6g}, {t_new[k]:.6g}]",
                        t=float(t_prev[k]))
                elif stopped[members[k]] is None:
                    stopped[members[k]] = StepSizeError("maximum number of steps exceeded")
        t[acc] = t_new  # after the messages: t_prev may be a view of t
        if not any_failed:
            # where correct() left y5 as it was, its stage is the next first stage
            ks[acc, 0] = ks[acc, 6] if fsal else sys(t[acc], Y[acc])
            continue
        go = np.array(ok)[~failed]
        if go.size:
            ks[go, 0] = ks[go, 6] if fsal else sys(t[go], Y[go])
        keep = np.ones(rows.size, dtype=bool)
        keep[np.array(ok)[failed]] = False
        rows, Y, t, h, seg, t_seg, t_due, ks = (
            a[keep] for a in (rows, Y, t, h, seg, t_seg, t_due, ks))
    return samples, counts, n_steps


def _attach_monitors(space, times, pts, lax_x, invariants, **stats):
    energy = np.array([hamiltonian(space, pt) for pt in pts])
    # L(x) = L(0) - x xi: one Lax matrix per sample serves every x
    lax0 = np.array([lax(space, pt, 0.0) for pt in pts])
    xis = np.array([pt.xi.xi for pt in pts])
    # one stacked eigvals per x: LAPACK runs per matrix, as sorted_spectrum does
    spectra = {float(x): _match_spectra(np.sort_complex(np.linalg.eigvals(lax0 - x * xis)))
               for x in lax_x}
    inv = {spec.label(): np.array([invariant_value(space, spec, L)
                                   for L in lax0 - spec.x * xis])
           for spec in invariants}
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


def bracket_pairings(space: SymmetricSpaceData, f: InvariantSpec, x: float,
                     h: InvariantSpec, y: float, pt: PhasePoint) -> tuple:
    """<xi, [(grad f)+(K(x)), (grad h)+(K(y))]> and the same pairing of the
    minus parts, with K(x) = J_minus - x xi = L(x) on the constraint surface."""
    xi = pt.xi.xi
    gf_p, gf_m = algebra.split(space, gradient(space, f, lax(space, pt, x)))
    gh_p, gh_m = algebra.split(space, gradient(space, h, lax(space, pt, y)))
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

def freezing_solve(space: SymmetricSpaceData, q, mu) -> FreezingResult:
    """Solve [y_M, w(ad_q) mu] = [w(ad_q) mu, w'(ad_q) mu]_{A-perp} for
    y_M in M by least squares over the M basis.

    A matrix mu, or a SpinPoint without coefficients, goes through
    :func:`orbits.spin_point`, which rejects an A- or M-part.  Only A-perp
    coefficients are read: those of the stacked commutators [M_b, w(ad_q) mu]
    and of the right-hand side, on which (it lies in A + A-perp) sinh(ad_q)
    is a coefficient scaling.  Acceptance requires the linear residual below
    1e-9; the frozen condition [y_M - w^2(ad_q) mu, mu] = 0 and the
    commutator identity behind the equivalence are diagnostics.
    """
    if not isinstance(mu, SpinPoint) or mu.coeffs is None:
        mu = orbits.spin_point(space, mu.xi if isinstance(mu, SpinPoint) else mu)
    mu_mat, c = mu.xi, mu.coeffs
    q = np.asarray(q, dtype=float)
    algebra.require_off_wall(space, q)
    w_mu = algebra.ad_fn_slice(space, "inv_sinh", q, c)
    wp_mu = algebra.ad_fn_slice(space, "d_inv_sinh", q, c)
    # A-perp coefficients, contracted as algebra.decompose does
    rhs = np.einsum("ab,jba->j", _comm(w_mu, wp_mu), space.eminus).real
    comms = space.m_basis @ w_mu - w_mu @ space.m_basis
    cols = np.einsum("kab,jba->jk", comms, space.eminus).real
    z, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
    y_m = np.einsum("b,bij->ij", z, space.m_basis)
    residual = float(np.linalg.norm(cols @ z - rhs))

    w2_mu = algebra.ad_fn_slice(space, "inv_sinh_sq", q, c)
    frozen = float(np.linalg.norm(_comm(y_m - w2_mu, mu_mat)))
    # sinh overflows past 710; rhs there is a product of w and w' below e^-710
    sinh_av = np.sinh(np.minimum(space.alpha_cols(q), 710.0))
    sinh_rhs = algebra.reconstruct(space, cplus=sinh_av * rhs)
    ident = float(np.linalg.norm(_comm(w2_mu, mu_mat) - sinh_rhs))
    ok = residual < 1e-9 and frozen < 1e-8 and ident < 1e-8
    return FreezingResult(y_m=y_m if ok else None, residual=residual,
                          frozen_residual=frozen, identity_residual=ident,
                          accepted=ok)


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


def flow_projection(space: SymmetricSpaceData, pt0: PhasePoint, t: float,
                    spec: InvariantSpec = InvariantSpec("trace_power", 2)) -> PhasePoint:
    """Exact time-t map of the invariant flow generated by f(K(1)) via the
    projection method.

    The slice datum is lifted to (Lambda_0, J_-^0 = L(0), xi^0), transported
    along Lambda(t) = exp(t grad f(J_0)) Lambda_0 exp(-t theta(grad f(J_0)))
    with J_0 = J_-^0 + tanh(ad_{q_0}) J_-^0 = L(1) (the momentum map
    vanishes), and projected back to the chamber by re-diagonalizing Lambda(t).  Only fully group-invariant generators
    (trace powers) admit this closed flow; spec = trace_power(2) reproduces
    the Hamiltonian flow of the model itself.  The spin is returned in
    whatever residual M-gauge the re-diagonalization picks: q, p, the energy,
    Lax spectra and invariants do not depend on it.
    """
    if spec.cls != "trace_power":
        raise AdmissibilityError("the projection flow requires a fully invariant generator")
    j_minus = lax(space, pt0, 0.0)
    G = gradient(space, spec, lax(space, pt0, 1.0))
    # Lambda(t) = E Lambda_0 E+ with E = expm(t grad f): never assemble the
    # full product (its condition number squares the exponent spread); work
    # with the half-factor W = E Lambda_0^(1/2), whose large singular values
    # and vectors are accurate, and recover the gauge from those alone.
    S0 = orbits.expm_herm(algebra.embed(space, pt0.q))
    W = orbits.expm(t * G) @ S0
    if space.spec.family == "su_mn":
        q_t, g = _chamber_gauge_su(space, W)
    else:
        W_inv = orbits.expm_herm(-algebra.embed(space, pt0.q)) @ orbits.expm(-t * G)
        q_t, g = _chamber_gauge_sl(space, W, W_inv)
    Jm_rot = g.conj().T @ j_minus @ g
    xi_rot = g.conj().T @ pt0.xi.xi @ g
    p_t = algebra.coords_of(space, Jm_rot)

    if pt0.xi.is_zero:
        return PhasePoint(q=q_t, p=p_t, xi=orbits.zero_spin(space))
    # drop the numerical M-part before re-certifying the slice condition
    _, cm, cplus, _ = algebra.decompose(space, xi_rot)
    if np.linalg.norm(cm) > 1e-7:
        raise algebra.OffSliceError(
            f"projected spin drifted off the slice (M-part {np.linalg.norm(cm):.3e})")
    xi_sp = SpinPoint(xi=algebra.reconstruct(space, cplus=cplus), coeffs=cplus,
                      on_slice=True)
    return PhasePoint(q=q_t, p=p_t, xi=xi_sp)


def _wall_contact(space, pt0, t_a, pt_a, t_b, pt_b) -> bool:
    """Whether the Hamiltonian projection flow (trace power k = 2, where
    q' = p) touches a chamber wall between two samples.

    Projected points always lie in the chamber, so a wall crossing shows up
    as a reflection: some root's velocity alpha(p) turns from negative to
    positive.  On such an interval the minimum of min_alpha alpha(q(t)) is
    located on the exact flow; it is a contact if it falls below the wall
    floor or lands on a point the projection rejects.  The search is skipped
    when the speed bound |alpha(p)| <= |alpha| sqrt(2 H) (H is conserved and
    the potential non-negative) keeps alpha(q) above the floor between the
    samples.
    """
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
            q = flow_projection(space, pt0, t).q
        except (WallProximityError, algebra.DegenerateSpectrumError):
            return -1.0
        return algebra.min_root_value(space, q)

    import scipy.optimize
    res = scipy.optimize.minimize_scalar(margin, bounds=(t_a, t_b), method="bounded",
                                         options={"xatol": 1e-10})
    return res.fun < algebra.EPS_WALL


def projection_trajectory(space: SymmetricSpaceData, pt0: PhasePoint, times,
                          lax_x: tuple = (0.0, 1.0), invariants: tuple = (),
                          on_wall: str = "raise") -> Trajectory:
    """Sample the projection-method Hamiltonian flow on a time grid.

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
            pt = flow_projection(space, pt0, t) if t != 0.0 else pt0
            if pts and _wall_contact(space, pt0, t_prev, pts[-1], t, pt):
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
