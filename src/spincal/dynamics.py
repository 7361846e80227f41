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

import copy
import math
import operator
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
# the freezing gauge's bounds on its linear and on its frozen residual
FREEZE_LINEAR_TOL = 1e-9
FREEZE_FROZEN_TOL = 1e-8
MAX_SAMPLES = 1_000_000  # the most sample segments of a run's grid (default 200)

__all__ = [
    "FREEZE_LINEAR_TOL", "FREEZE_FROZEN_TOL", "MAX_SAMPLES", "PhasePoint", "InvariantSpec",
    "Trajectory", "EomRhs", "FreezingResult", "FreezeCertificate", "make_phase_point",
    "hamiltonian", "hamiltonian_via_lax", "lax", "lax_minus", "lax_cal", "eom_rhs", "sample_grid",
    "integrate_direct", "integrate_direct_batch", "flow_projection", "projection_trajectory",
    "invariant_value", "gradient", "bracket_pairings", "gradient_pairings", "bracket_formula",
    "identity_413", "identity_416", "freezing_solve", "r12_build", "monitor",
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
    return PhasePoint(q=q, p=p, xi=orbits.zero_spin(space) if xi is None else xi)


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
    and its coefficients (T, K); in the freezing gauge the spin is the run's
    initial spin at every sample."""

    times: np.ndarray
    path: PhasePoint
    energy: np.ndarray
    lax_x: tuple
    lax_spectra: dict          # x -> (T, N) complex, sorted by (re, im)
    invariants: dict           # label -> (T,) float
    m_drift: float = 0.0       # direct, zero gauge: max M-part of xi' at the samples
    wall_time: float | None = None  # a wall event's last safe time (see the integrators)
    n_steps: int = 0           # direct integrator: steps accepted by the error control,
    n_rejected: int = 0        # the steps it rejected
    n_rhs: int = 0             # and the right-hand-side evaluations;
    h_min: float | None = None  # its smallest and largest accepted step (None
    h_max: float | None = None  # without one),
    min_alpha: float | None = None  # min alpha(q) at the start and the accepted step ends
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
    value per point; rows of such values give one stack per row, each with
    the bits of its own call.
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
    """Eigenvalues of X sorted lexicographically (real part, then imaginary),
    one row per matrix of a stack."""
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


def _m_part_norm(space: SymmetricSpaceData, pt: PhasePoint) -> np.ndarray:
    """``eom_rhs(space, pt).m_part_norm`` to the bit, from W2, [-W2, xi] and
    the M-coefficients alone."""
    algebra.require_off_wall(space, pt.q)
    w2 = pt.xi.coeffs / algebra.sinh_sq(space.alpha_cols(pt.q))
    W2 = np.einsum("...j,jab->...ab", w2, space.eplus)
    cm = algebra.coefficients(space, _comm(-W2, pt.xi.xi), "m")
    return np.sqrt(algebra.row_dots(cm, cm))


# ---------------------------------------------------------------------------
# Direct adaptive integration (DOP853: Hairer, Norsett & Wanner, Solving
# ODEs I, II.10; the coefficients of Hairer's dop853.f)
# ---------------------------------------------------------------------------

def _table(text, shape):
    """An array of the given shape from lines "i j:value j:value ..." that
    list the nonzero entries of its rows i.  The tableau is text because, as
    Python literals, compiling it at import left more memory resident."""
    out = np.zeros(shape)
    for line in text.strip().splitlines():
        i, *entries = line.split()
        for entry in entries:
            j, value = entry.split(":")
            out[int(i), int(j)] = float(value)
    return out


_DOP_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
    0.1, 0.2, 0.777777777777777777777777777778,
])
# stage i is taken at t + C[i] h and y + h A[i, :i] @ ks[:i]; stages 1 to 11
# make the step, stage 12 is taken at the solution y1 (its row holds the
# weights B) and is the next step's stage 0, stages 13 to 15 serve the
# continuous extension alone
_DOP_A = _table("""
 1  0:5.26001519587677318785587544488e-2
 2  0:1.97250569845378994544595329183e-2  1:5.91751709536136983633785987549e-2
 3  0:2.95875854768068491816892993775e-2  2:8.87627564304205475450678981324e-2
 4  0:2.41365134159266685502369798665e-1  2:-8.84549479328286085344864962717e-1
 4  3:9.24834003261792003115737966543e-1
 5  0:3.7037037037037037037037037037e-2  3:1.70828608729473871279604482173e-1
 5  4:1.25467687566822425016691814123e-1
 6  0:3.7109375e-2  3:1.70252211019544039314978060272e-1
 6  4:6.02165389804559606850219397283e-2  5:-1.7578125e-2
 7  0:3.70920001185047927108779319836e-2  3:1.70383925712239993810214054705e-1
 7  4:1.07262030446373284651809199168e-1  5:-1.53194377486244017527936158236e-2
 7  6:8.27378916381402288758473766002e-3
 8  0:6.24110958716075717114429577812e-1  3:-3.36089262944694129406857109825
 8  4:-8.68219346841726006818189891453e-1  5:2.75920996994467083049415600797e1
 8  6:2.01540675504778934086186788979e1  7:-4.34898841810699588477366255144e1
 9  0:4.77662536438264365890433908527e-1  3:-2.48811461997166764192642586468
 9  4:-5.90290826836842996371446475743e-1  5:2.12300514481811942347288949897e1
 9  6:1.52792336328824235832596922938e1  7:-3.32882109689848629194453265587e1
 9  8:-2.03312017085086261358222928593e-2
10  0:-9.3714243008598732571704021658e-1  3:5.18637242884406370830023853209
10  4:1.09143734899672957818500254654  5:-8.14978701074692612513997267357
10  6:-1.85200656599969598641566180701e1  7:2.27394870993505042818970056734e1
10  8:2.49360555267965238987089396762  9:-3.0467644718982195003823669022
11  0:2.27331014751653820792359768449  3:-1.05344954667372501984066689879e1
11  4:-2.00087205822486249909675718444  5:-1.79589318631187989172765950534e1
11  6:2.79488845294199600508499808837e1  7:-2.85899827713502369474065508674
11  8:-8.87285693353062954433549289258  9:1.23605671757943030647266201528e1
11  10:6.43392746015763530355970484046e-1
12  0:5.42937341165687622380535766363e-2  5:4.45031289275240888144113950566
12  6:1.89151789931450038304281599044  7:-5.8012039600105847814672114227
12  8:3.1116436695781989440891606237e-1  9:-1.52160949662516078556178806805e-1
12  10:2.01365400804030348374776537501e-1  11:4.47106157277725905176885569043e-2
13  0:5.61675022830479523392909219681e-2  6:2.53500210216624811088794765333e-1
13  7:-2.46239037470802489917441475441e-1  8:-1.24191423263816360469010140626e-1
13  9:1.5329179827876569731206322685e-1  10:8.20105229563468988491666602057e-3
13  11:7.56789766054569976138603589584e-3  12:-8.298e-3
14  0:3.18346481635021405060768473261e-2  5:2.83009096723667755288322961402e-2
14  6:5.35419883074385676223797384372e-2  7:-5.49237485713909884646569340306e-2
14  10:-1.08347328697249322858509316994e-4  11:3.82571090835658412954920192323e-4
14  12:-3.40465008687404560802977114492e-4  13:1.41312443674632500278074618366e-1
15  0:-4.28896301583791923408573538692e-1  5:-4.69762141536116384314449447206
15  6:7.68342119606259904184240953878  7:4.06898981839711007970213554331
15  8:3.56727187455281109270669543021e-1  12:-1.39902416515901462129418009734e-3
15  13:2.9475147891527723389556272149  14:-9.15095847217987001081870187138
""", (16, 16))
_DOP_B = _DOP_A[12, :12]
# y1 minus the embedded fifth- and third-order solutions, per unit of h; the
# third-order one has the weights BHH
_DOP_E5, _DOP_BHH = _table("""
 0  0:0.1312004499419488073250102996e-1  5:-0.1225156446376204440720569753e+1
 0  6:-0.4957589496572501915214079952  7:0.1664377182454986536961530415e+1
 0  8:-0.3503288487499736816886487290  9:0.3341791187130174790297318841
 0  10:0.8192320648511571246570742613e-1  11:-0.2235530786388629525884427845e-1
 1  0:0.244094488188976377952755905512  8:0.733846688281611857341361741547
 1  11:0.220588235294117647058823529412e-1
""", (2, 12))
_DOP_E3 = _DOP_B - _DOP_BHH
_DOP_E = np.array([_DOP_E5, _DOP_E3])  # both estimates in one product
# the continuous extension's terms of degree 4 to 7 (see _extension)
_DOP_D = _table("""
 0  0:-0.84289382761090128651353491142e+1  5:0.56671495351937776962531783590
 0  6:-0.30689499459498916912797304727e+1  7:0.23846676565120698287728149680e+1
 0  8:0.21170345824450282767155149946e+1  9:-0.87139158377797299206789907490
 0  10:0.22404374302607882758541771650e+1  11:0.63157877876946881815570249290
 0  12:-0.88990336451333310820698117400e-1  13:0.18148505520854727256656404962e+2
 0  14:-0.91946323924783554000451984436e+1  15:-0.44360363875948939664310572000e+1
 1  0:0.10427508642579134603413151009e+2  5:0.24228349177525818288430175319e+3
 1  6:0.16520045171727028198505394887e+3  7:-0.37454675472269020279518312152e+3
 1  8:-0.22113666853125306036270938578e+2  9:0.77334326684722638389603898808e+1
 1  10:-0.30674084731089398182061213626e+2  11:-0.93321305264302278729567221706e+1
 1  12:0.15697238121770843886131091075e+2  13:-0.31139403219565177677282850411e+2
 1  14:-0.93529243588444783865713862664e+1  15:0.35816841486394083752465898540e+2
 2  0:0.19985053242002433820987653617e+2  5:-0.38703730874935176555105901742e+3
 2  6:-0.18917813819516756882830838328e+3  7:0.52780815920542364900561016686e+3
 2  8:-0.11573902539959630126141871134e+2  9:0.68812326946963000169666922661e+1
 2  10:-0.10006050966910838403183860980e+1  11:0.77771377980534432092869265740
 2  12:-0.27782057523535084065932004339e+1  13:-0.60196695231264120758267380846e+2
 2  14:0.84320405506677161018159903784e+2  15:0.11992291136182789328035130030e+2
 3  0:-0.25693933462703749003312586129e+2  5:-0.15418974869023643374053993627e+3
 3  6:-0.23152937917604549567536039109e+3  7:0.35763911791061412378285349910e+3
 3  8:0.93405324183624310003907691704e+2  9:-0.37458323136451633156875139351e+2
 3  10:0.10409964950896230045147246184e+3  11:0.29840293426660503123344363579e+2
 3  12:-0.43533456590011143754432175058e+2  13:0.96324553959188282948394950600e+2
 3  14:-0.39177261675615439165231486172e+2  15:-0.14972683625798562581422125276e+3
""", (4, 16))
_DOP_ROWS = [_DOP_A[i, :i] for i in range(1, 16)]  # stage i combines stages < i
_MAX_STEPS = 5_000_000   # accepted steps before StepSizeError


class _DirectSystem:
    """Packed-state view (q, p, c+) of the reduced equations for the stepper,
    one run per row, with the flat basis arrays its right-hand side works on.

    The rows may be of several spaces, in any order.  A row is padded to the
    widest of them, ``[q (nc) | p (nc) | c+ (K)]``, and its pad entries stay
    zero.  Each space's coefficient tables are padded to those widths: a pad
    column of alpha(q) or of the root values repeats the space's column 0, so
    c / sinh^2 is 0 there where column 0 is finite (a step where it is not
    fails anyway) and the smallest root value is unchanged; the force has
    zero pad rows.  A fresh system has the rows of its first space;
    :meth:`rows` gives the system of other rows."""

    def __init__(self, spaces, gauge: str):
        self.spaces = tuple(spaces)
        self.gauge = gauge
        self.nc = nc = max(s.n_coords for s in self.spaces)
        K = max(s.K for s in self.spaces)
        R = max(len(s.roots) for s in self.spaces)
        self.width = 2 * nc + K

        def padded(table, rows, cols, fill):
            # table in the corner of a (rows, cols) zero array, pad columns set to fill
            if table.shape == (rows, cols):
                return table
            out = np.zeros((rows, cols))
            if fill is not None:
                out[:len(fill)] = fill[:, None]
            out[:table.shape[0], :table.shape[1]] = table
            return out

        # per space: alpha_j(q) = q @ coef_t[:, j], -grad V = (c w2 / tanh alpha) @ force,
        # and the root values q @ roots
        self.tables = [np.array(t) for t in zip(*(
            (padded(s.col_coef_t, nc, K, s.col_coef_t[:, 0]),
             padded(s.root_coef[s.e_root] / s.coord_weight, K, nc, None),
             padded(s.root_coef.T, nc, R, s.root_coef[0]))
            for s in self.spaces))]
        self.neg_fplus = [-s.fplus.reshape(s.K ** 2, s.K) for s in self.spaces]
        # per space, fplus's nonzero triples sorted by k (for views of several spaces): their
        # count and columns i, 2nc + j, -fplus_ijk and 2nc + k on each k's first (else 0)
        cols = []
        for s in self.spaces:
            k, i, j = np.nonzero(s.fplus.transpose(2, 0, 1))
            first = np.diff(k, prepend=-1) != 0
            cols.append((i, 2 * nc + j, -s.fplus[i, j, k], np.where(first, 2 * nc + k, 0)))
        n = np.array([len(c[0]) for c in cols])
        self.triples = n, np.cumsum(n) - n, [np.concatenate(c) for c in zip(*cols)]
        self.sid = self.spin = None  # no rows yet: take those of the first space
        self.rows(np.zeros(1, dtype=int))

    def rows(self, sid):
        """This system on rows of the spaces sid (not empty): the space's own
        tables when they are all of one space, else one table and one index
        of fplus triples per row.  A fresh system takes its rows in place (a
        copy would give it a __dict__, and slower attributes)."""
        one = (sid == sid[0]).all()
        if one and sid[0] == self.sid:
            return self
        view = copy.copy(self) if self.spin is not None else self
        view.sid = int(sid[0]) if one else None
        view.coef_t, view.force_coef, view.root_coef_t = (
            t[sid if view.sid is None else view.sid] for t in self.tables)
        view.product = _row_product if view.sid is None else operator.matmul
        if view.sid is not None:  # one space's view serves any rows of it
            view.spin = self.neg_fplus[view.sid]
        elif self.gauge == "zero":  # the freezing gauge never reads the spin rate
            # the triples of each row's space, row after row, at their places in the tables
            n, offsets, columns = self.triples
            n = n[sid]
            at = np.repeat(offsets[sid] - np.cumsum(n) + n, n)
            at += np.arange(at.size)
            row = np.repeat(np.arange(len(sid)), n)
            i, j, neg_f, k = (c.take(at) for c in columns)
            starts = np.flatnonzero(k)  # one segment per row and k
            view.spin = (row * (self.width - 2 * self.nc) + i, row * self.width + j, neg_f,
                         starts, row[starts] * self.width + k[starts])
        return view

    def __call__(self, t, Y):
        """The field at the rows of Y, shape (B, width); t holds their times
        (the field is autonomous)."""
        nc = self.nc
        cplus = Y[:, 2 * nc:]
        av = self.product(Y[:, :nc], self.coef_t)
        w2 = cplus / np.sinh(av) ** 2
        out = np.zeros(Y.shape)  # C order: out.ravel() is a view
        out[:, :nc] = Y[:, nc:2 * nc]
        # p' = -grad V = (1/s) sum_j c_j^2 cosh(alpha_j) / sinh^3(alpha_j) coef_j
        out[:, nc:2 * nc] = self.product(cplus * w2 / np.tanh(av), self.force_coef)
        if self.gauge == "freeze":
            return out  # the spin is held still; its gauge is certified before the first step
        # xi' = [xi, w^2(ad_q) xi]: dc_k = -sum_ij (c_i / sinh^2 alpha_i) c_j fplus_ijk.  One
        # space: a dense (rows, K^2) @ (K^2, K) product, there the faster.  Several: a flat sum
        # over each row's own nonzero fplus_ijk; a product per space costs more in calls
        if self.sid is not None:
            K = self.spin.shape[1]
            pairs = (w2[:, :K, None] * cplus[:, None, :K]).reshape(-1, K * K)
            out[:, 2 * nc:2 * nc + K] = pairs @ self.spin
        elif self.spin[3].size:  # su(1,1) and sl(2,C) have no nonzero fplus_ijk
            w_at, c_at, neg_f, starts, slots = self.spin
            out.ravel()[slots] = np.add.reduceat(w2.take(w_at) * Y.take(c_at) * neg_f, starts)
        return out

    def min_root_values(self, Y):
        """min alpha(q) at each row of Y."""
        return self.product(Y[:, :self.nc], self.root_coef_t).min(axis=1)


def _row_product(a, tables):
    """Row r of a times tables[r]."""
    return (a[:, None] @ tables)[:, 0]


def sample_grid(t_end: float, sample_dt: float | None = None) -> tuple:
    """(sample_dt, times) of a run on [0, t_end]: sample_dt defaults to
    t_end / 200, and the times cut [0, t_end] into max(1, round(t_end /
    sample_dt)) <= MAX_SAMPLES equal segments (else ValueError)."""
    if sample_dt is None:
        sample_dt = t_end / 200.0
    if not math.isfinite(t_end / sample_dt):
        raise ValueError("sample_dt is too small for t_end: t_end / sample_dt is not finite")
    n_seg = max(1, int(round(t_end / sample_dt)))
    if n_seg > MAX_SAMPLES:
        raise ValueError(f"sample_dt is too small for t_end: over {MAX_SAMPLES} samples")
    return sample_dt, np.linspace(0.0, t_end, n_seg + 1)


def integrate_direct(space: SymmetricSpaceData, pt0: PhasePoint, t_end: float,
                     tol: float = 1e-10, sample_dt: float | None = None,
                     lax_x: tuple = (0.0, 1.0), invariants: tuple = (),
                     gauge: str = "zero", on_wall: str = "raise") -> Trajectory:
    """Adaptive DOP853 integration of the reduced equations:
    :func:`integrate_direct_batch` with one member, whose failure is raised.

    The state is (q, p, c+), see the module docstring.  In the zero gauge the
    spin moves by the isospectral flow xi' = [xi, w^2(ad_q) xi], and
    ``m_drift`` is the largest M-part of xi' at the samples.  In the freezing
    gauge the spin is held constant, and its :class:`FreezeCertificate`
    failing on the chamber or at a sample raises
    :class:`FreezeCertificateError`.  A step is an eighth-order step with
    DOP853's combined fifth- and third-order error estimate; its last stage,
    taken at the solution, is the first of the next step, so an attempt costs
    twelve right-hand sides.  Only t_end clips a step; the samples come from
    the seventh-order continuous extension of the step that covers them,
    whose three extra stages are taken once per step that holds a sample.
    ``n_steps``, ``n_rejected`` and ``n_rhs`` count the accepted steps, the
    rejected ones and the right-hand-side evaluations; ``h_min`` and
    ``h_max`` are the smallest and largest accepted step, and ``min_alpha``
    the smallest min alpha(q) at the start and the accepted step ends.  A
    step ending with min alpha(q) < EPS_WALL is rejected, so a run aimed at a
    wall stalls at the time t it reaches that level: :class:`WallProximityError`
    at t, or with ``on_wall="truncate"`` the samples up to t, with
    ``wall_time`` = t.
    A step-size underflow away from a wall, or more than 5,000,000 accepted
    steps, raises :class:`StepSizeError`.
    """
    traj, = integrate_direct_batch(space, [pt0], t_end, tol=tol, sample_dt=sample_dt,
                                   monitors=[(lax_x, invariants)], gauge=gauge,
                                   on_wall=on_wall)
    if isinstance(traj, Exception):
        raise traj
    return traj


def integrate_direct_batch(space, pts, t_end: float, tol: float = 1e-10, sample_dt=None,
                           monitors=None, gauge: str = "zero",
                           on_wall: str = "raise") -> list:
    """Integrate several phase points with one DOP853 loop that advances them
    as the rows of one state array, whatever their spaces.

    ``space`` is one space for every member or one per member, as
    ``sample_dt`` is one value or one per member (the steps do not depend on
    it).  Each member keeps its own time, step size, accept/reject decision,
    wall check, counters and samples, exactly as :func:`integrate_direct`
    describes for one run; finished members drop out of the active rows.
    Every Runge-Kutta stage is one right-hand-side call over the active rows,
    whatever their spaces (see :class:`_DirectSystem`); the continuous
    extension's stages are one call per B buffered steps that hold a sample,
    and the monitors one evaluation per space and monitor set on the samples
    of its members stacked.  ``monitors`` holds one ``(lax_x, invariants)``
    pair per member (default ``(0, 1)`` and none).

    Returns one entry per member, in input order: its :class:`Trajectory`, or
    the exception that stopped it alone (:class:`StepSizeError`,
    :class:`FreezeCertificateError`, or with ``on_wall="raise"``
    :class:`WallProximityError`).
    """
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if gauge not in ("zero", "freeze"):
        raise ValueError("gauge must be 'zero' or 'freeze'")
    if on_wall not in ("raise", "truncate"):
        raise ValueError("on_wall must be 'raise' or 'truncate'")
    pts = list(pts)
    B = len(pts)
    if monitors is None:
        monitors = [((0.0, 1.0), ())] * B
    if len(monitors) != B:
        raise ValueError("monitors must hold one (lax_x, invariants) pair per member")
    spaces = list(space) if np.iterable(space) else [space] * B
    dts = list(sample_dt) if np.iterable(sample_dt) else [sample_dt] * B
    if len(spaces) != B or len(dts) != B:
        raise ValueError("space and sample_dt must be one value or one per member")
    if not all(dt is None or 0 < dt < math.inf for dt in dts):
        raise ValueError("sample_dt must be positive and finite")
    if not B:
        return []
    block = {}  # spec -> its number and first member's space, in order of appearance
    for s in spaces:
        block.setdefault(s.spec, (len(block), s))
    sid = np.array([block[s.spec][0] for s in spaces], dtype=int)
    grid_of = {dt: sample_grid(t_end, dt)[1] for dt in dict.fromkeys(dts)}  # one per value
    grids = [grid_of[dt] for dt in dts]

    sys = _DirectSystem([s for _, s in block.values()], gauge)
    nc = sys.nc
    freeze = gauge == "freeze"
    y0 = np.zeros((B, sys.width))
    for m, pt in enumerate(pts):
        n = len(pt.q)
        y0[m, :n], y0[m, nc:nc + n] = pt.q, pt.p
        y0[m, 2 * nc:2 * nc + len(pt.xi.coeffs)] = pt.xi.coeffs
    stopped = [None] * B  # the failure that ended a member
    certs = [FreezeCertificate(s, pt.xi) for s, pt in zip(spaces, pts)] if freeze else []
    for m, cert in enumerate(certs):
        r = int(np.argmax(cert.root_residuals))
        if not cert.root_residuals[r] < FREEZE_LINEAR_TOL:
            stopped[m] = FreezeCertificateError(
                f"no freezing gauge on the chamber: root {spaces[m].roots[r].label()} "
                f"leaves the residual {cert.root_residuals[r]:.3e}")

    # a stage at a wall evaluates to inf/nan: the error norm rejects it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        samples, counts, stats = _step_batch(sys, sid, y0, grids, tol, t_end, stopped)

    out, groups = stopped, {}  # each member's failure, else its Trajectory fields
    for m, space in enumerate(spaces):
        fields = dict(times=grids[m][:counts[m]].copy(), wall_time=None, freeze_residual=None)
        if isinstance(out[m], WallProximityError) and on_wall == "truncate":
            out[m], fields["wall_time"] = None, out[m].t
        if out[m] is None and freeze:
            # the independent N x N check at the samples, from the run's z_r
            _, linear, frozen, ok = certs[m].at(samples[m, :counts[m], :space.n_coords])
            fields["freeze_residual"] = float(max(certs[m].root_residuals.max(), frozen.max()))
            if not ok.all():
                k = int(np.argmin(ok))
                out[m] = FreezeCertificateError(
                    f"no freezing gauge at the sample t = {fields['times'][k]:.6g} (linear "
                    f"residual {linear[k]:.3e}, frozen residual {frozen[k]:.3e})")
        if out[m] is None:
            out[m] = dict(fields, **{name: v[m].item() for name, v in stats.items()})
            if not out[m]["n_steps"]:
                out[m]["h_min"] = out[m]["h_max"] = None
            groups.setdefault((space.spec, repr(monitors[m])), []).append(m)
    # the monitors of the members of one space and one monitor set (repr tells
    # -0.0 from 0.0, as the labels do), on their samples stacked
    for ms in groups.values():
        space, reps, (lax_x, invariants) = spaces[ms[0]], counts[ms], monitors[ms[0]]
        n, K = space.n_coords, space.K
        y = np.concatenate([samples[m, :counts[m]] for m in ms])
        if freeze:  # the spin does not move: each member's initial one, at each sample
            xi = SpinPoint(xi=np.repeat([pts[m].xi.xi for m in ms], reps, axis=0),
                           coeffs=np.repeat([pts[m].xi.coeffs for m in ms], reps, axis=0))
        else:
            cplus = y[:, 2 * nc:2 * nc + K]
            xi = SpinPoint(xi=algebra.reconstruct(space, cplus=cplus), coeffs=cplus)
        path = PhasePoint(q=y[:, :n], p=y[:, nc:nc + n], xi=xi)
        # the M-part of xi' vanishes on the slice; its largest value at each
        # member's samples is kept as a consistency diagnostic (maximum keeps a NaN)
        drifts = np.zeros(len(ms)) if freeze else np.maximum.reduceat(
            _m_part_norm(space, path), np.cumsum(reps) - reps)
        runs = [dict(out[m], m_drift=drift) for m, drift in zip(ms, drifts.tolist())]
        for m, traj in zip(ms, _attach_monitors(space, path, lax_x, invariants, runs)):
            out[m] = traj
    return out


def _stages(sys, t, Y, ks, h):
    """One DOP853 attempt of sizes h from the rows Y, whose stage 0 is in
    ks[:, 0]: fills the stages 1 to 12 of ks and returns the solution y1, at
    which stage 12 is taken."""
    hc = h[:, None]
    for i, a in enumerate(_DOP_ROWS[:12], start=1):
        yi = Y + hc * (a @ ks[:, :i])
        ks[:, i] = sys(t, yi)  # the field is autonomous: t is the step's start
    return yi


def _extension(sys, t, y0, y1, ks, h):
    """The coefficients F, shape (S, 7, D), of DOP853's seventh-order
    continuous extension of the steps y0 -> y1 of sizes h with the stages
    ks[:, :13]; its three extra stages go into ks[:, 13:].  At the fraction
    th of a step, y = y0 + th (F0 + (1 - th) (F1 + th (F2 + (1 - th) (F3
    + th (F4 + (1 - th) (F5 + th F6))))))  (see :func:`_extension_at`)."""
    hc = h[:, None]
    for i, a in enumerate(_DOP_ROWS[12:], start=13):
        ks[:, i] = sys(t, y0 + hc * (a @ ks[:, :i]))
    dy = y1 - y0
    F = np.empty((len(y0), 7, y0.shape[1]))
    F[:, 0] = dy
    F[:, 1] = hc * ks[:, 0] - dy
    F[:, 2] = 2.0 * dy - hc * (ks[:, 0] + ks[:, 12])
    F[:, 3:] = hc[:, None] * (_DOP_D @ ks)
    return F


def _extension_at(y0, F, th):
    """The continuous extension of :func:`_extension` at the fractions th
    (a column, one row per step)."""
    y = F[:, 6]
    for j in range(5, -1, -1):
        y = F[:, j] + (th if j % 2 else 1.0 - th) * y
    return y0 + th * y


def _step_batch(sys, sid, y0, grids, tol, t_end, stopped):
    """DOP853 on [0, t_end] for the rows of y0 whose member has not stopped;
    member m is of the space sys.spaces[sid[m]] and has its samples at the
    times grids[m] on each step's continuous extension.
    Returns the samples, shape (B, T, width) for the longest grid T, how many
    each member reached, and per member its ``n_steps`` (accepted),
    ``n_rejected``, ``n_rhs`` (right-hand-side rows), ``h_min`` and ``h_max``
    (its smallest and largest accepted step) and ``min_alpha`` (its smallest
    root value at the start and at the accepted step ends).  Members leave
    the active rows at one point, before every attempt: past _MAX_STEPS
    accepted steps with StepSizeError, even on a step that reaches t_end;
    else at t_end; else with a next step below 1e-14 max(1, t_end), as
    WallProximityError at a wall (min alpha(q) < 1e-3, where every step is
    rejected) and StepSizeError elsewhere.  The exceptions go into ``stopped``.
    An accepted step that holds a sample waits, with its stages, in a buffer;
    one :func:`_dense_output` call evaluates the extension of the buffered
    steps before it would hold more than :func:`_buffer_rows` and at the end."""
    B, width = y0.shape
    spaces = [sys.spaces[s] for s in sid]
    # the grids padded with inf: grid[m, counts[m]] is member m's next sample time
    grid = np.full((B, max(len(g) for g in grids)), np.inf)
    for m, g in enumerate(grids):
        grid[m, :len(g)] = g
    samples = np.empty((B, grid.shape[1], width))
    samples[:, 0] = y0
    counts = np.ones(B, dtype=int)
    stats = {name: np.zeros(B, dtype=int) for name in ("n_steps", "n_rejected", "n_rhs")}
    stats.update(h_min=np.full(B, np.inf), h_max=np.zeros(B), min_alpha=np.full(B, np.inf))
    n_steps, n_rejected, n_rhs, h_lo, h_hi, alpha_lo = stats.values()
    # the buffered steps, at most cap rows of ks, with their samples
    buffer, n_buf, cap = [], 0, _buffer_rows(B)
    rows = np.array([m for m in range(B) if stopped[m] is None], dtype=int)  # active members
    Y = y0[rows]
    D = np.array([2 * spaces[m].n_coords + spaces[m].K for m in rows])  # each row's own D
    t = np.zeros(rows.size)
    h = np.full(rows.size, 0.005)  # the first trial step, whatever the sample grid
    ks = np.empty((rows.size, 16, width))
    # the running extremes of the active rows, kept as t and h are and written
    # to stats as their members leave: h_min, -h_max and min_alpha, all minima
    ext = np.tile([np.inf, -0.0, np.inf], (rows.size, 1))
    if rows.size:
        active = sys.rows(sid[rows])
        ks[:, 0] = active(t, Y)  # the first stage at (t, y), kept over a rejected step
        n_rhs[rows] += 1
        ext[:, 2] = active.min_root_values(Y)
    h_min = 1e-14 * max(1.0, t_end)
    while rows.size:
        # the one exit point (see above): the step budget, then t_end, then the floor
        over = n_steps[rows] > _MAX_STEPS
        done = over | (t >= t_end)
        leave = done | (h < h_min)
        if leave.any():
            for r in np.flatnonzero(over | leave & ~done):  # the members that fail
                m, space = rows[r], spaces[rows[r]]
                if over[r]:
                    stopped[m] = StepSizeError("maximum number of steps exceeded")
                # persistent rejection right at a chamber wall is a wall event
                elif algebra.min_root_value(space, Y[r, :space.n_coords]) < 1e-3:
                    stopped[m] = WallProximityError(
                        f"trajectory stalled against a chamber wall at t = {t[r]:.6g}",
                        t=float(t[r]))
                else:
                    stopped[m] = StepSizeError(f"step size underflow at t = {t[r]:.6g}")
            gone = rows[leave]
            h_lo[gone], h_hi[gone], alpha_lo[gone] = ext[leave, 0], -ext[leave, 1], ext[leave, 2]
            rows, Y, t, h, ks, ext, D = (a[~leave] for a in (rows, Y, t, h, ks, ext, D))
            if not rows.size:
                break
            active = active.rows(sid[rows])
        h = np.minimum(h, t_end - t)
        y1 = _stages(active, t, Y, ks, h)  # twelve right-hand sides, counted at the end
        # |e5|^2 and |e3|^2 per row, each estimate scaled by tol (1 + max(|y0|, |y1|))
        est = (_DOP_E @ ks[:, :12]) / (tol + tol * np.maximum(np.abs(Y), np.abs(y1)))[:, None]
        e5, e3 = algebra.row_dots(est, est).T
        # a step whose error norm's denominator is not finite (e5 or e3 not
        # finite, or the sum overflowing), or that ends within EPS_WALL of a
        # wall, fails
        alpha = active.min_root_values(y1)
        den = (e5 + 0.01 * e3) * D
        err = np.where(e5 > 0.0, h * e5 / np.sqrt(den), 0.0)
        err[~np.isfinite(den) | (alpha < algebra.EPS_WALL)] = np.inf
        # a failed step retries with a fifth of h; Python's ** rounds the factor
        # as numpy's power may not
        grow = list(map(operator.pow, (err + 1e-300).tolist(), [-0.125] * err.size))
        h_step, h = h, h * np.minimum(5.0, np.maximum(0.2, 0.9 * np.array(grow)))
        passed = err <= 1.0
        ok = np.flatnonzero(passed)
        if ok.size < rows.size:
            n_rejected[rows[~passed]] += 1
        if not ok.size:
            continue
        acc = slice(None) if ok.size == rows.size else ok
        members = rows[acc]
        t0, h_acc = t[acc], h_step[acc]
        # a step clamped to t_end - t ends at t_end exactly
        t1 = np.where(h_acc < t_end - t0, t0 + h_acc, t_end)
        y1 = y1[acc]
        n_new = (grid[members] <= t1[:, None]).sum(axis=1)
        take = n_new - counts[members]
        if take.any():
            s = np.flatnonzero(take)  # the accepted steps that hold a sample
            if n_buf + s.size > cap and buffer:
                n_buf = _dense_output(sys, buffer, samples)
            n_rhs[members[s]] += 3
            i = np.repeat(np.arange(s.size), take[s])  # the step of each new sample
            k = n_new[s][i] - (np.cumsum(take[s])[i] - np.arange(i.size))
            m = members[s][i]
            buffer.append((sid[members[s]], t0[s], h_acc[s], Y[ok[s]], y1[s], ks[ok[s]],
                           m, k, n_buf + i, (grid[m, k] - t0[s][i]) / h_acc[s][i]))
            n_buf += s.size
            counts[members] = n_new
        Y[acc] = y1
        t[acc] = t1
        n_steps[members] += 1
        ext[acc] = np.minimum(ext[acc], np.array([h_acc, -h_acc, alpha[acc]]).T)
        ks[acc, 0] = ks[acc, 12]  # first same as last: the stage at y1 starts the next step
    if buffer:
        _dense_output(sys, buffer, samples)
    n_rhs += 12 * (n_steps + n_rejected)  # each attempt is accepted or rejected
    return samples, counts, stats


def _buffer_rows(B: int) -> int:
    """The step rows a batch of B members buffers for one dense output."""
    return B


def _dense_output(sys, buffer, samples) -> int:
    """Write the samples of the steps in ``buffer`` (see :func:`_step_batch`)
    from one :func:`_extension` call on one view of their rows (a step's
    extension depends on its own data alone), and empty it: returns the
    buffer's new row count, 0."""
    sid, t0, h, y0, y1, ks, m, k, j, th = (buffer[0] if len(buffer) == 1  # nothing to stack
                                           else map(np.concatenate, zip(*buffer)))
    F = _extension(sys.rows(sid), t0, y0, y1, ks, h)
    samples[m, k] = _extension_at(y0[j], F[j], th[:, None])
    buffer.clear()
    return 0


def _attach_monitors(space, path, lax_x, invariants, runs) -> list:
    """The :class:`Trajectory` of each of the runs whose samples ``path``
    (one stacked :class:`PhasePoint`) holds, run after run: ``runs`` holds
    per run its further fields, its ``times`` among them.  Energy, the Lax
    spectra at each x and each invariant are evaluated once on the whole
    stack, and each run holds its part of them and of ``path``.

    L(0) is Hermitian, and so is lax_cal, which is isospectral with L(1)
    and L(-1): there the spectra are eigvalsh's, real and sorted, which is
    already the optimal matching.  At any other x, L(x) is not normal and
    each run's spectra are eigvals tracks matched against its first sample
    (see :func:`_match_spectra`)."""
    # L(x) = L(0) - x xi: one Lax matrix per sample serves every x
    lax0 = lax(space, path, 0.0)
    xis = path.xi.xi
    hermitian = {0.0: lax0}
    if any(abs(float(x)) == 1.0 for x in lax_x):
        hermitian[1.0] = hermitian[-1.0] = lax_cal(space, path)
    lax_x = tuple(map(float, lax_x))
    spectra = {x: np.linalg.eigvalsh(hermitian[x]).astype(complex) if x in hermitian
               else sorted_spectrum(lax0 - x * xis) for x in lax_x}
    inv = {spec.label(): invariant_value(space, spec, lax0 - spec.x * xis)
           for spec in invariants}
    energy = hamiltonian(space, path)
    out, stop = [], 0
    for fields in runs:
        run = slice(stop, stop + len(fields["times"]))
        stop = run.stop
        samples = PhasePoint(q=path.q[run], p=path.p[run],
                             xi=SpinPoint(xi=xis[run], coeffs=path.xi.coeffs[run]))
        out.append(Trajectory(
            path=samples, energy=energy[run], lax_x=lax_x,
            lax_spectra={x: v[run] if x in hermitian else _match_spectra(v[run])
                         for x, v in spectra.items()},
            invariants={label: v[run] for label, v in inv.items()}, **fields))
    return out


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
        if not isinstance(mu, SpinPoint):
            mu = orbits.spin_point(space, mu)
        c = mu.coeffs
        R = np.zeros((len(space.roots), space.K))
        np.add.at(R, space.e_root, c[:, None] * (space.fplus.transpose(0, 2, 1) @ c))
        cols = algebra.coefficients(space, space.m_basis @ mu.xi - mu.xi @ space.m_basis,
                                    "mperp").T
        z, *_ = np.linalg.lstsq(cols, R.T, rcond=None)
        self.space, self.mu, self.z = space, mu, z.T  # z_r: M coefficients, one row per root
        self.defect = (cols @ z).T - R  # cols z_r - R_r, one row per root
        self.root_residuals = np.linalg.norm(self.defect, axis=1)

    def at(self, qs) -> tuple:
        """At each row of qs: y_M (N x N), the linear residual, the frozen
        residual |[y_M - w^2(ad_q) mu, mu]| and whether they are below
        FREEZE_LINEAR_TOL and FREEZE_FROZEN_TOL."""
        space, mu = self.space, self.mu
        w2 = algebra.PHI_FUNCTIONS["inv_sinh_sq"][0](qs @ space.root_coef.T)  # (T, roots)
        y_m = np.einsum("tb,bij->tij", w2 @ self.z, space.m_basis)
        d = y_m - np.einsum("tj,jab->tab", w2[:, space.e_root] * mu.coeffs, space.eplus)
        linear = np.linalg.norm(w2 @ self.defect, axis=1)
        frozen = np.linalg.norm(d @ mu.xi - mu.xi @ d, axis=(1, 2))
        return y_m, linear, frozen, (linear < FREEZE_LINEAR_TOL) & (frozen < FREEZE_FROZEN_TOL)


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


def _chamber_gauge_su(space, U):
    """The gauge g with W W+ = g exp(2 embed(q)) g+ on su(m,n), per sample,
    from the left singular vectors U of the half-factor W.  Eigenvectors of
    W W+ for the large eigenvalues e^{2 q_k} have the paired form
    (U0 e_k (+) V0 e_k)/sqrt(2), so the compact gauge blocks are the polar
    factors of the blocks of the top n vectors; the others are never used."""
    m, n = space.spec.m, space.spec.n
    A = _polar_orthonormalize(U[..., :m, :n])
    B = _polar_orthonormalize(U[..., m:, :n])
    if m > n:
        _, V = np.linalg.eigh(np.eye(m) - A @ algebra.dagger(A))
        A = np.concatenate([A, V[..., n - m:]], axis=-1)  # orthonormal completion
    g = np.zeros(U.shape, complex)
    g[..., :m, :m] = A
    g[..., m:, m:] = B
    return g


def _projection_lift(space: SymmetricSpaceData, pt0: PhasePoint, spec: InvariantSpec) -> tuple:
    """pt0's spin and L(0), and the flow's graded factor: S0 V and the rates r
    of its columns, by decreasing Re r.  lax_cal(pt0) = V diag(lambda) V+ is
    Hermitian and L(1) = S0 lax_cal(pt0) S0^-1 with S0 = exp(embed(q0)), so
    G = grad f(L(1)) = c (L(1)^(k-1) - tr(L(1)^(k-1)) / N), a polynomial in
    L(1), has the rates r = c (lambda^(k-1) - mean), and the half-factor
    exp(t G) S0 is S0 V exp(t diag(r)) V+: one eigh, and no matrix exponential,
    for every trace power."""
    if spec.cls != "trace_power":
        raise AdmissibilityError("the projection flow requires a fully invariant generator")
    lam, V = np.linalg.eigh(lax_cal(space, pt0))
    powers = lam[::-1] ** (spec.k - 1)  # eigh's order reversed: lambda decreasing
    rate = _trace_power_coef(space, spec.k) * (powers - powers.mean())
    order = np.argsort(-rate.real, kind="stable")
    S0V = orbits.expm_herm(algebra.embed(space, pt0.q)) @ V[:, ::-1]
    return pt0.xi.xi, lax(space, pt0, 0.0), S0V[:, order], rate[order]


def _projection_at(space: SymmetricSpaceData, lift: tuple, t, partial: bool = False):
    """The projection flow of :func:`_projection_lift` at the time t, or at
    each of an array of times as one stacked point.

    Neither Lambda(t) = W W+ (its condition number squares the exponent
    spread) nor W = S0 V exp(t diag(r)) V+ is formed: q and the gauge are
    read from the SVD of the column-graded B_t = S0 V exp(t diag(r)), its
    columns by decreasing |exp(t r)| (an order its accuracy depends on),
    which has W's left singular vectors and singular values.  On su(m,n), q
    is the log of the top singular values (gauge: :func:`_chamber_gauge_su`);
    on sl(k,C), the log of all of them, centred (gauge: the left singular
    vectors).  A sample fails when its flow or a singular value q is read
    from leaves the float range, q leaves the chamber or has a near-degenerate
    gap, or the transported spin has an M-part above 1e-7, in that order.
    The first failing sample raises; with ``partial`` the samples before it
    and the failure (None without one) are returned instead.
    """
    xi0, j_minus, S0V, rate = lift
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        grade = np.exp(ts[:, None] * rate)
        B = S0V * grade[:, None, :]
    B = np.where((ts < 0.0)[:, None, None], B[..., ::-1], B)
    # a column scaled to 0 is an overflow of the inverse flow; index of the
    # first True entry of a mask, or its length: np.append(mask, True).argmax()
    T = int(np.append(~(np.isfinite(B).all(axis=(1, 2)) & grade.all(axis=1)), True).argmax())
    U, sig, _ = np.linalg.svd(B[:T])
    su = space.spec.family == "su_mn"
    sig = sig[:, :space.spec.n] if su else sig
    # so is a singular value q is read from that over- or underflows, though B_t is finite
    T = int(np.append(~((0.0 < sig) & (sig < np.inf)).all(axis=1), True).argmax())
    q, U = np.log(sig[:T]), U[:T]
    q, g = (q, _chamber_gauge_su(space, U)) if su else (q - q.mean(axis=1, keepdims=True), U)
    gaps = np.abs(np.diff(np.sort(q, axis=1), axis=1)).min(axis=1, initial=np.inf)
    gh = algebra.dagger(g)
    p = algebra.coords_of(space, gh @ j_minus @ g)
    # drop the numerical M-part before re-certifying the slice condition
    xi = gh @ xi0 @ g
    cm, cplus = algebra.coefficients(space, xi, "m"), algebra.coefficients(space, xi, "mperp")
    m_part = np.sqrt(algebra.row_dots(cm, cm))
    bad = np.array([~(space.root_values(q).min(axis=1) > algebra.EPS_WALL), gaps < 1e-9,
                    m_part > 1e-7])
    n = int(np.append(bad.any(axis=0), True).argmax())
    failure = None
    if n < T:  # the first check that sample n fails
        failure = [WallProximityError(f"projected point is outside the open chamber: q = {q[n]}"),
                   algebra.DegenerateSpectrumError(
                       f"near-degenerate flat coordinates: min gap {gaps[n]:.3e}"),
                   algebra.OffSliceError(
                       f"projected spin drifted off the slice (M-part {m_part[n]:.3e})")
                   ][bad[:, n].argmax()]
    elif T < len(ts):
        failure = algebra.DegenerateSpectrumError(
            f"the projection flow overflows a float at t = {ts[T]:.6g}")
    if failure is not None and not partial:
        raise failure
    rows = slice(n) if np.ndim(t) else 0
    path = PhasePoint(q=q[rows], p=p[rows], xi=SpinPoint(
        xi=algebra.reconstruct(space, cplus=cplus[rows]), coeffs=cplus[rows]))
    return (path, failure) if partial else path


def flow_projection(space: SymmetricSpaceData, pt0: PhasePoint, t: float,
                    spec: InvariantSpec = InvariantSpec("trace_power", 2)) -> PhasePoint:
    """Exact time-t map of the invariant flow generated by f(K(1)) via the
    projection method.

    The slice datum is lifted to (Lambda_0, J_-^0 = L(0), xi^0), transported
    along Lambda(t) = exp(t grad f(J_0)) Lambda_0 exp(-t theta(grad f(J_0)))
    and projected back to the chamber by re-diagonalizing Lambda(t).  Only
    the column scales exp(t r) depend on t: :func:`projection_trajectory`
    lifts once per run and evaluates this same flow at all samples in one
    call.  Only trace powers (fully group-invariant) admit this closed flow;
    spec = trace_power(2) is the model's Hamiltonian flow.  The spin comes
    back in whatever residual M-gauge the re-diagonalization picks: q, p,
    the energy, Lax spectra and invariants do not depend on it.
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
    """Sample the projection-method Hamiltonian flow, lifted once, on a time
    grid: finite, strictly increasing and starting at 0, where the sample is
    pt0 itself.  The other samples are one :func:`_projection_at` call.

    A wall contact, at a sample or between two samples (see
    :func:`_wall_contact`), raises :class:`WallProximityError`; with
    ``on_wall="truncate"`` the samples before it are returned instead, with
    ``wall_time`` set to the last of them.  Any other failing sample raises,
    unless a contact comes before it.
    """
    if on_wall not in ("raise", "truncate"):
        raise ValueError("on_wall must be 'raise' or 'truncate'")
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and times.size and times[0] == 0.0 and np.isfinite(times).all()
            and (np.diff(times) > 0.0).all()):
        raise ValueError("times must be finite, strictly increasing and start at 0")
    lift = _projection_lift(space, pt0, InvariantSpec("trace_power", 2))
    speed = np.linalg.norm(space.root_coef, axis=1) * math.sqrt(2.0 * hamiltonian(space, pt0))
    moved, failure = _projection_at(space, lift, times[1:], partial=True)
    q = np.concatenate([pt0.q[None], moved.q])
    n = len(q)  # the samples kept: all, or those before a contact or the failing sample
    for j in range(1, n):  # wall bisection, pointwise from the samples that bracket it
        if _wall_contact(space, lift, speed, times[j - 1], q[j - 1], times[j], q[j]):
            failure, n = WallProximityError(
                f"trajectory reached a chamber wall in ({times[j - 1]:.6g}, {times[j]:.6g}]",
                t=float(times[j - 1])), j
            break
    wall_time = None
    if failure is not None:
        if on_wall == "raise" or not isinstance(failure, WallProximityError):
            raise failure
        wall_time = float(times[n - 1])
    path = PhasePoint(q=q[:n], p=np.concatenate([pt0.p[None], moved.p])[:n], xi=SpinPoint(
        xi=np.concatenate([pt0.xi.xi[None], moved.xi.xi])[:n],
        coeffs=np.concatenate([pt0.xi.coeffs[None], moved.xi.coeffs])[:n]))
    return _attach_monitors(space, path, lax_x, invariants,
                            [{"times": times[:n], "wall_time": wall_time}])[0]


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
