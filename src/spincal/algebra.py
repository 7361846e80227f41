"""Concrete symmetric-space Lie algebra layer.

Realizes the two negative-curvature families used throughout the package:

* ``su(m, n)`` with the block Cartan involution ``theta(X) = I X I``,
  ``I = diag(1_m, -1_n)``.  Restricted roots are of BC_n type for m > n and
  C_n type for m = n; the root basis lives in the (n, m-n, n) block partition.
* ``sl(k, C)`` viewed as a real Lie algebra, with ``theta(X) = -X^dagger``.
  The maximal flat is the real traceless diagonal and the restricted roots
  form the A_{k-1} system with multiplicity 2.

Both families are built by one rule: each lists its positive roots with the
matrix-unit entries (a, b, v) of their E+ columns, every column is a compact
generator of its entries, a root's multiplicity is its number of columns and
E- follows from the ladder relation (see :func:`build_space`).

All decompositions (A, M, A-perp, M-perp) are computed by trace pairings
against the stored orthonormal basis; no eigen-solvers are involved.  The
bilinear form is ``<X, Y> = Re tr(XY)`` throughout.

The matrix functions below act on the last two axes and the coordinate
functions on the last axis, so a stack of matrices (or coordinate rows)
goes through one call.  Each matrix of a stack is rounded as it is on its
own, and a certificate on a stack raises if any of its matrices fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SpaceSpec", "Root", "SymmetricSpaceData", "build_space", "theta", "split", "dagger",
    "project", "decompose", "coefficients", "reconstruct", "ad_fn", "ad_fn_slice", "sinh_sq",
    "weyl_act", "membership_residual", "project_to_algebra", "pair", "row_dots", "embed",
    "coords_of", "is_regular", "is_in_chamber", "min_root_value", "require_off_wall",
    "random_algebra_element", "random_gplus_element", "random_chamber_point", "chamber_points",
    "MembershipError", "AdmissibilityError", "WallProximityError", "DegenerateSpectrumError",
    "StepSizeError", "OffSliceError", "FreezeCertificateError", "EPS_MEMBERSHIP", "EPS_WALL",
    "EPS_REGULAR", "FAR_ROOT",
]

EPS_MEMBERSHIP = 1e-10   # entrywise tolerance for algebra membership
EPS_WALL = 1e-6          # hard floor on min alpha(q) for singular operators
EPS_REGULAR = 1e-12      # regularity tolerance for alpha(q) != 0


class MembershipError(ValueError):
    """Matrix does not lie in the ambient real Lie algebra."""


class AdmissibilityError(ValueError):
    """Orbit / model parameters violate their admissibility conditions."""


class WallProximityError(RuntimeError):
    """Configuration point is on or too close to a Weyl chamber wall."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class DegenerateSpectrumError(RuntimeError):
    """Diagonalization target has (numerically) repeated spectrum."""


class StepSizeError(RuntimeError):
    """Adaptive integrator step size underflowed."""


class OffSliceError(RuntimeError):
    """A projected spin left the gauge slice (its M-part is not negligible)."""


class FreezeCertificateError(AdmissibilityError):
    """No freezing gauge holds a run's spin still on the chamber or at a sample."""


# ---------------------------------------------------------------------------
# Space specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceSpec:
    """Which symmetric space: SU(m,n)/S(U(m)xU(n)) or SL(k,C)/SU(k)."""

    family: str  # "su_mn" | "sl_kc"
    m: int = 0
    n: int = 0
    k: int = 0

    @staticmethod
    def su(m: int, n: int) -> "SpaceSpec":
        if n < 1 or m < n:
            raise AdmissibilityError(f"su(m,n) requires m >= n >= 1, got m={m}, n={n}")
        return SpaceSpec("su_mn", m=int(m), n=int(n))

    @staticmethod
    def sl(k: int) -> "SpaceSpec":
        if k < 2:
            raise AdmissibilityError(f"sl(k,C) requires k >= 2, got k={k}")
        return SpaceSpec("sl_kc", k=int(k))

    @property
    def N(self) -> int:
        return self.m + self.n if self.family == "su_mn" else self.k

    def label(self) -> str:
        if self.family == "su_mn":
            return f"su({self.m},{self.n})"
        return f"sl({self.k},C)"


@dataclass(frozen=True)
class Root:
    """Positive restricted root, stored through its coordinate functional.

    kind is one of "diff" (e_k - e_l), "sum" (e_k + e_l), "twice" (2 e_k),
    "single" (e_k); k, l are 1-based particle indices.  ``coef`` is the
    coefficient vector so that alpha(q) = coef . q.
    """

    kind: str
    k: int
    l: int = 0
    coef: tuple = ()

    def label(self) -> str:
        if self.kind == "diff":
            return f"e{self.k}-e{self.l}"
        if self.kind == "sum":
            return f"e{self.k}+e{self.l}"
        if self.kind == "twice":
            return f"2e{self.k}"
        return f"e{self.k}"


# ---------------------------------------------------------------------------
# Symmetric space data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricSpaceData:
    """Roots, multiplicities and the orthonormal basis of one realization.

    Basis conventions (pairings under <X,Y> = Re tr(XY)):
        <E+_i, E+_j> = -delta_ij     (M-perp, compact side)
        <E-_i, E-_j> = +delta_ij     (A-perp, noncompact side)
        <M_a, M_b>   = -delta_ab
        <A_a, A_b>   = +delta_ab
    and the ladder relation [embed(q), E+-_j] = alpha_j(q) E-+_j.
    """

    spec: SpaceSpec
    N: int
    n_coords: int            # length of a CartanPoint coordinate vector
    rank: int                # dim A
    roots: tuple             # tuple[Root]
    mult: tuple              # multiplicities, aligned with roots
    eplus: np.ndarray        # (K, N, N) orthonormal basis of M-perp
    eminus: np.ndarray       # (K, N, N) orthonormal basis of A-perp
    e_root: np.ndarray       # (K,) root index of each basis column
    e_labels: tuple          # human-readable basis labels
    m_basis: np.ndarray      # (dim M, N, N) orthonormal basis of M
    a_basis: np.ndarray      # (rank, N, N) orthonormal basis of A
    root_coef: np.ndarray    # (R, n_coords)
    col_coef_t: np.ndarray   # (n_coords, K): alpha_j(q) = q @ col_coef_t[:, j]
    coord_weight: float      # tr(embed(unit coordinate)^2)
    fplus: np.ndarray        # (K, K, K) M-perp structure constants, see build_space

    @property
    def K(self) -> int:
        return self.eplus.shape[0]

    @property
    def dim_m(self) -> int:
        return self.m_basis.shape[0]

    @property
    def dim_algebra(self) -> int:
        if self.spec.family == "su_mn":
            return self.N * self.N - 1
        return 2 * (self.N * self.N - 1)

    def alpha_cols(self, q) -> np.ndarray:
        """alpha_j(q) for every M-perp/A-perp basis column j."""
        return np.asarray(q, dtype=float) @ self.col_coef_t

    def root_values(self, q) -> np.ndarray:
        """alpha(q) over the positive roots."""
        return np.asarray(q, dtype=float) @ self.root_coef.T

    def label(self) -> str:
        return self.spec.label()


def _gram_schmidt(mats: list, inner: Callable, N: int, tol: float = 1e-12) -> np.ndarray:
    """The (count, N, N) stack orthonormalized from the N x N mats, empty or not."""
    out = []
    for X in mats:
        Y = X.astype(complex).copy()
        for B in out:
            Y -= inner(Y, B) * B
        nrm = inner(Y, Y)
        if nrm > tol:
            out.append(Y / math.sqrt(nrm))
    return np.array(out, dtype=complex).reshape(-1, N, N)


def _compact(N: int, entries, flavor: str) -> np.ndarray:
    """The compact generator sum of v (E_ab - E_ba) over the entries (a, b, v)
    for flavor "re", or of i v (E_ab + E_ba) for flavor "im" (so a diagonal
    entry a = b stands for 2 i v E_aa)."""
    P = np.zeros((N, N), complex)
    for a, b, v in entries:
        if flavor == "re":
            P[a, b] += v
            P[b, a] -= v
        else:
            P[a, b] += 1j * v
            P[b, a] += 1j * v
    return P


def _re_im(entries, suffix: str = "") -> list:
    """The "re" and "im" E+ columns (flavor, entries, label suffix) of one
    set of matrix-unit entries."""
    return [(flavor, entries, suffix) for flavor in ("re", "im")]


def _su_parts(spec: SpaceSpec):
    """Roots with their E+ columns, the unit flat directions and the other
    fields of su(m, n), in the (n, m-n, n) block partition: coordinate k
    sits at rows k (top) and m + k (bottom), the middle rows are n..m-1."""
    m, n = spec.m, spec.n
    d_extra = m - n  # size of the middle block
    N, e, s2 = m + n, np.eye(n), 1.0 / math.sqrt(2.0)
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    listing = (
        [(Root("diff", k + 1, l + 1, tuple(e[k] - e[l])),
          _re_im([(k, l, 0.5), (m + k, m + l, 0.5)])) for k, l in pairs]
        + [(Root("sum", k + 1, l + 1, tuple(e[k] + e[l])),
            _re_im([(k, l, 0.5), (m + k, m + l, -0.5)])) for k, l in pairs]
        + [(Root("twice", k + 1, 0, tuple(2.0 * e[k])),  # diagonal entries count twice
            [("im", [(k, k, s2 / 2), (m + k, m + k, -s2 / 2)], "")]) for k in range(n)]
        + [(Root("single", k + 1, 0, tuple(e[k])),
            [col for d in range(d_extra) for col in _re_im([(k, n + d, s2)], f",d{d + 1}")])
           for k in range(n) if d_extra]
    )

    # unit flat directions embed(e_j); the orthonormal A basis is embed(e_j) / sqrt(2)
    j = np.arange(n)
    a_unit = np.zeros((n, N, N), complex)
    a_unit[j, j, m + j] = a_unit[j, m + j, j] = 1.0

    # M basis: diag(i chi, gamma, i chi) with tr gamma + 2i tr chi = 0
    raw_m = []
    if d_extra:
        for j in range(n):
            G = np.zeros((N, N), complex)
            G[j, j] = 1j
            G[m + j, m + j] = 1j
            for d in range(d_extra):
                G[n + d, n + d] = -2j / d_extra
            raw_m.append(G)
        raw_m += [_compact(N, [(n + a, n + b, 1.0)], flavor)
                  for a in range(d_extra) for b in range(a + 1, d_extra) for flavor in ("re", "im")]
        for a in range(d_extra - 1):
            G = np.zeros((N, N), complex)
            G[n + a, n + a] = 1j
            G[n + a + 1, n + a + 1] = -1j
            raw_m.append(G)
    else:
        for j in range(n - 1):
            G = np.zeros((N, N), complex)
            G[j, j] = 1j
            G[j + 1, j + 1] = -1j
            G[m + j, m + j] = 1j
            G[m + j + 1, m + j + 1] = -1j
            raw_m.append(G)

    m_basis = _gram_schmidt(raw_m, lambda X, Y: float(-np.trace(X @ Y).real), N)
    return listing, a_unit, dict(N=N, n_coords=n, rank=n, coord_weight=2.0,
                                 m_basis=m_basis, a_basis=s2 * a_unit)


def _sl_parts(spec: SpaceSpec):
    """Roots with their E+ columns, the unit flat directions and the other
    fields of sl(k, C)."""
    k = spec.k
    e, s2 = np.eye(k), 1.0 / math.sqrt(2.0)
    listing = [(Root("diff", i + 1, j + 1, tuple(e[i] - e[j])), _re_im([(i, j, s2)]))
               for i in range(k) for j in range(i + 1, k)]

    raw_a, raw_m = [], []
    for j in range(k - 1):
        D = np.zeros((k, k), complex)
        D[j, j] = 1.0
        D[j + 1, j + 1] = -1.0
        raw_a.append(D)
        raw_m.append(1j * D)
    a_basis = _gram_schmidt(raw_a, lambda X, Y: float(np.trace(X @ Y).real), k)
    m_basis = _gram_schmidt(raw_m, lambda X, Y: float(-np.trace(X @ Y).real), k)
    units = np.array([np.diag(u) for u in e])  # diag(e_c)
    return listing, units, dict(N=k, n_coords=k, rank=k - 1, coord_weight=1.0,
                                m_basis=m_basis, a_basis=a_basis)


@functools.lru_cache(maxsize=32)
def build_space(spec: SpaceSpec) -> SymmetricSpaceData:
    """Construct roots, multiplicities and the orthonormal root basis.

    Each family lists its positive roots, each with the matrix-unit entries
    of its E+ columns (compact generators, see ``_compact``); the
    multiplicity of a root is its number of columns, and E- follows from the
    ladder relation.
    Also precomputes the M-perp structure constants ``fplus[i, j, k]``, the
    coefficient of [E+_i, E+_j] along E+_k; the M-part of that bracket is
    not kept.  The returned object is immutable (arrays are write-protected)
    and safe to share read-only across concurrent tasks.

    Built once per spec and process: equal specs share one space (the last
    32 specs are kept), and a spec that fails raises on every call.
    ``build_space.__wrapped__`` is the builder itself.
    """
    parts = {"su_mn": _su_parts, "sl_kc": _sl_parts}.get(spec.family)
    if parts is None:
        raise AdmissibilityError(f"unknown family {spec.family!r}")
    listing, units, fields = parts(spec)
    roots = tuple(root for root, _ in listing)
    columns = [(r, col) for r, (_, cols) in enumerate(listing) for col in cols]
    e_root = np.array([r for r, _ in columns], dtype=int)
    eplus = np.array([_compact(fields["N"], entries, flavor)
                      for _, (flavor, entries, _) in columns])
    col_coef_t = _col_coef_t(roots, e_root)
    space = SymmetricSpaceData(
        spec=spec, roots=roots, mult=tuple(np.bincount(e_root).tolist()),
        eplus=eplus, eminus=_ladder_partners(eplus, units, col_coef_t), e_root=e_root,
        e_labels=tuple(f"{roots[r].label()}:{flavor}{suffix}"
                       for r, (flavor, _, suffix) in columns),
        root_coef=np.array([r.coef for r in roots]), col_coef_t=col_coef_t,
        fplus=_structure_constants(eplus), **fields,
    )
    for arr in (space.eplus, space.eminus, space.e_root, space.m_basis,
                space.a_basis, space.root_coef, space.col_coef_t, space.fplus):
        arr.setflags(write=False)
    return space


def _col_coef_t(roots, e_root) -> np.ndarray:
    """Coefficient vectors of the roots of the basis columns, as columns."""
    return np.array([roots[r].coef for r in e_root]).T.copy()


def _ladder_partners(eplus: np.ndarray, units: np.ndarray, col_coef_t: np.ndarray) -> np.ndarray:
    """The A-perp basis from the ladder relation [embed(q), E+_j] = alpha_j(q) E-_j,
    taken at the unit flat direction units[c] of the first coordinate c on
    which column j's root is nonzero: E-_j = [units[c], E+_j] / alpha_j(e_c)."""
    coef = col_coef_t.T
    c = np.argmax(coef != 0.0, axis=1)
    H = units[c]
    return (H @ eplus - eplus @ H) / coef[np.arange(len(c)), c][:, None, None]


def _structure_constants(eplus: np.ndarray) -> np.ndarray:
    """fplus = -(T - T^T01) with T_ijk = Re tr(E+_i E+_j E+_k), one row i at
    a time (a single three-operand contraction is far slower)."""
    K, N = eplus.shape[0], eplus.shape[1]
    right = eplus.transpose(0, 2, 1).reshape(K, N * N)  # row k: (E+_k)^T flattened
    T = np.empty((K, K, K))
    for i in range(K):
        T[i] = ((eplus[i] @ eplus).reshape(K, N * N) @ right.T).real
    return T.transpose(1, 0, 2) - T


# ---------------------------------------------------------------------------
# Membership, involution, pairings
# ---------------------------------------------------------------------------

def pair(X: np.ndarray, Y: np.ndarray):
    """Invariant bilinear form <X, Y> = Re tr(XY): a float, or one value per
    matrix of a stack."""
    out = np.einsum("...ab,...ba->...", X, Y).real
    return float(out) if out.ndim == 0 else out


def row_dots(a, b):
    """a . b along the last axis, each rounded as the 1-D dot product is."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _signature(space: SymmetricSpaceData) -> np.ndarray:
    m, n = space.spec.m, space.spec.n
    return np.concatenate([np.ones(m), -np.ones(n)])


def membership_residual(space: SymmetricSpaceData, X: np.ndarray):
    """Entrywise distance of X from the ambient real algebra (one value per
    matrix of a stack)."""
    X = np.asarray(X, dtype=complex)
    res = np.abs(np.trace(X, axis1=-2, axis2=-1)) / space.N
    if space.spec.family == "su_mn":
        sig = _signature(space)
        res = np.maximum(res, np.abs(dagger(X) * sig[:, None] * sig[None, :] + X)
                         .max(axis=(-2, -1)))
    return float(res) if res.ndim == 0 else res


def project_to_algebra(space: SymmetricSpaceData, X: np.ndarray) -> np.ndarray:
    """Orthogonal projection of an arbitrary complex matrix onto the algebra."""
    X = np.asarray(X, dtype=complex)
    if space.spec.family == "su_mn":
        sig = _signature(space)
        X = 0.5 * (X - sig[:, None] * dagger(X) * sig[None, :])
    return X - (np.trace(X, axis1=-2, axis2=-1) / space.N)[..., None, None] * np.eye(space.N)


def theta(space: SymmetricSpaceData, X: np.ndarray) -> np.ndarray:
    """Cartan involution: fixes the compact part, negates the noncompact part."""
    X = np.asarray(X, dtype=complex)
    if space.spec.family == "su_mn":
        sig = _signature(space)
        return sig[:, None] * X * sig[None, :]
    return -dagger(X)


def dagger(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return X.conj().swapaxes(-1, -2)


def split(space: SymmetricSpaceData, X: np.ndarray):
    """X = X_plus + X_minus with X_plus theta-fixed."""
    tX = theta(space, X)
    return 0.5 * (X + tX), 0.5 * (X - tX)


# ---------------------------------------------------------------------------
# Cartan coordinates
# ---------------------------------------------------------------------------

def embed(space: SymmetricSpaceData, q) -> np.ndarray:
    """Embed coordinates into the flat A as an ambient matrix."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (space.n_coords,):
        raise ValueError(f"expected {space.n_coords} coordinates, got shape {q.shape}")
    out = np.zeros(q.shape[:-1] + (space.N, space.N), complex)
    if space.spec.family == "su_mn":
        m = space.spec.m
        for j in range(space.spec.n):
            out[..., j, m + j] = out[..., m + j, j] = q[..., j]
    else:
        if np.any(np.abs(q.sum(axis=-1)) > 1e-9 * np.maximum(1.0, np.abs(q).max(axis=-1))):
            raise ValueError("sl(k,C) Cartan coordinates must sum to zero")
        for j in range(space.N):
            out[..., j, j] = q[..., j]
    return out


def coords_of(space: SymmetricSpaceData, X: np.ndarray) -> np.ndarray:
    """Coordinates of the A-component of X (pairing extraction)."""
    X = np.asarray(X, dtype=complex)
    if space.spec.family == "su_mn":
        m, n = space.spec.m, space.spec.n
        idx = np.arange(n)
        return 0.5 * (X[..., idx, m + idx].real + X[..., m + idx, idx].real)
    return np.diagonal(X, axis1=-2, axis2=-1).real.copy()


def is_regular(space: SymmetricSpaceData, q, tol: float = EPS_REGULAR) -> bool:
    return bool(np.all(np.abs(space.root_values(q)) > tol))


def is_in_chamber(space: SymmetricSpaceData, q, margin: float = 0.0) -> bool:
    return bool(np.all(space.root_values(q) > margin))


def min_root_value(space: SymmetricSpaceData, q) -> float:
    return float(space.root_values(q).min())


def require_off_wall(space: SymmetricSpaceData, q):
    val = min_root_value(space, q)
    if val < EPS_WALL:
        raise WallProximityError(
            f"chamber wall proximity: min alpha(q) = {val:.3e} < {EPS_WALL:.1e}")


# ---------------------------------------------------------------------------
# Decomposition and functional calculus of ad_q
# ---------------------------------------------------------------------------

def decompose(space: SymmetricSpaceData, X: np.ndarray):
    """Expand X in the A + M + M-perp + A-perp basis.

    Returns (a, cm, cplus, cminus): A-coordinates, M-coefficients and the
    M-perp / A-perp coefficient vectors.
    """
    X = np.asarray(X, dtype=complex)
    return (coords_of(space, X), coefficients(space, X, "m"), coefficients(space, X, "mperp"),
            coefficients(space, X, "aperp"))


def coefficients(space: SymmetricSpaceData, X: np.ndarray, part: str) -> np.ndarray:
    """X's coefficients in one basis block of :func:`decompose`, part "m",
    "mperp" or "aperp", with that block alone contracted: the bits of the
    matching entry of ``decompose(space, X)``."""
    basis = {"m": space.m_basis, "mperp": space.eplus, "aperp": space.eminus}[part]
    c = np.einsum("...ab,jba->...j", np.asarray(X, dtype=complex), basis).real
    return c if part == "aperp" else -c


def reconstruct(space: SymmetricSpaceData, a=None, cm=None, cplus=None, cminus=None) -> np.ndarray:
    """Inverse of :func:`decompose` for members of the algebra."""
    lead = next((np.shape(c)[:-1] for c in (a, cm, cplus, cminus) if c is not None), ())
    X = np.zeros(lead + (space.N, space.N), complex)
    if a is not None and np.any(a):
        X += embed(space, a)
    if cm is not None and np.any(cm):
        X += np.einsum("...j,jab->...ab", cm, space.m_basis)
    if cplus is not None and np.any(cplus):
        X += np.einsum("...j,jab->...ab", cplus, space.eplus)
    if cminus is not None and np.any(cminus):
        X += np.einsum("...j,jab->...ab", cminus, space.eminus)
    return X


_SUBSPACES = ("a", "m", "aperp", "mperp", "gplus", "gminus")


def project(space: SymmetricSpaceData, X: np.ndarray, part: str) -> np.ndarray:
    """Orthogonal projection of X onto one of A, M, A-perp, M-perp, g+-."""
    part = part.lower()
    if part not in _SUBSPACES:
        raise ValueError(f"unknown subspace {part!r}; choose from {_SUBSPACES}")
    if part == "gplus":
        return split(space, X)[0]
    if part == "gminus":
        return split(space, X)[1]
    a, cm, cplus, cminus = decompose(space, X)
    if part == "a":
        return reconstruct(space, a=a)
    if part == "m":
        return reconstruct(space, cm=cm)
    if part == "mperp":
        return reconstruct(space, cplus=cplus)
    return reconstruct(space, cminus=cminus)


#: root values up to which the pole functions below are their plain
#: formulas; beyond, where sinh^2 and then sinh overflow (cosh/sinh turns
#: NaN past about 710), they are exp(-|z|) forms that tend to their limits
FAR_ROOT = 350.0


def _far_form(plain, far):
    """plain(z), with far(z) at the entries beyond FAR_ROOT.  |z|^2 below
    FAR_ROOT^2 (one dot product) rules out such entries."""
    def phi(z):
        if np.vdot(z, z) <= FAR_ROOT ** 2:
            return plain(z)
        return np.where(np.abs(z) > FAR_ROOT, far(z), plain(np.clip(z, -FAR_ROOT, FAR_ROOT)))
    return phi


#: sinh(z)^2, inf beyond FAR_ROOT (1/sinh^2 is below 4e-304 there)
sinh_sq = _far_form(lambda z: np.sinh(z) ** 2, lambda z: np.full(np.shape(z), np.inf))
_coth = _far_form(lambda z: np.cosh(z) / np.sinh(z), np.sign)
_inv_sinh = _far_form(lambda z: 1.0 / np.sinh(z),
                      lambda z: 2.0 * np.sign(z) * np.exp(-np.abs(z)))
_inv_sinh_sq = _far_form(lambda z: 1.0 / np.sinh(z) ** 2,
                         lambda z: 4.0 * np.exp(-2.0 * np.abs(z)))


#: phi name -> (callable, parity, value at 0 or None for a pole)
PHI_FUNCTIONS: dict[str, tuple[Callable, str, float | None]] = {
    "tanh": (np.tanh, "odd", 0.0),
    "coth": (_coth, "odd", None),
    "sinh": (np.sinh, "odd", 0.0),
    "cosh": (np.cosh, "even", 1.0),
    "inv_sinh": (_inv_sinh, "odd", None),
    "inv_sinh_sq": (_inv_sinh_sq, "even", None),
}


def ad_fn(space: SymmetricSpaceData, phi, q, X: np.ndarray) -> np.ndarray:
    """Apply phi(ad_q) componentwise through the root decomposition.

    phi is a name from ``PHI_FUNCTIONS`` or a (callable, parity, value_at_0)
    triple with parity "odd" or "even".  Odd functions exchange the M-perp
    and A-perp ladders, even functions preserve them; A- and M-components
    are scaled by phi(0).  A pole of phi at zero (value_at_0 = None) is only
    legal when X has no A- or M-component (one above 1e-9 raises).  This is
    the general-matrix form; on-slice spin goes through :func:`ad_fn_slice`.
    """
    if isinstance(phi, str):
        try:
            func, parity, phi0 = PHI_FUNCTIONS[phi]
        except KeyError:
            raise ValueError(f"unknown phi {phi!r}; known: {sorted(PHI_FUNCTIONS)}")
    else:
        func, parity, phi0 = phi
    q = np.asarray(q, dtype=float)
    if not is_regular(space, q):
        raise WallProximityError("ad_fn requires a regular Cartan point")

    a, cm, cplus, cminus = decompose(space, X)
    av = space.alpha_cols(q)
    vals = func(av)
    if parity == "odd":
        new_plus, new_minus = vals * cminus, vals * cplus
    elif parity == "even":
        new_plus, new_minus = vals * cplus, vals * cminus
    else:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")

    if phi0 is None:
        sz = max(np.abs(a).max(initial=0.0), np.abs(cm).max(initial=0.0))
        if sz > 1e-9:
            raise ValueError(
                f"phi has a pole at 0 but X has A/M components of size {sz:.3e}")
        a = np.zeros_like(a)
        cm = np.zeros_like(cm)
    else:
        a = phi0 * a
        cm = phi0 * cm
    return reconstruct(space, a=a, cm=cm, cplus=new_plus, cminus=new_minus)


def ad_fn_slice(space: SymmetricSpaceData, phi: str, q, cplus) -> np.ndarray:
    """:func:`ad_fn` on on-slice spin xi = sum_j c_j E+_j, from c = cplus.

    xi has no A- or M-part, so phi(ad_q) xi is sum_j phi(alpha_j(q)) c_j E-_j
    for odd phi (E+_j for even phi): no round trip, no pole check.  q must
    be regular.
    """
    func, parity, _ = PHI_FUNCTIONS[phi]
    basis = space.eminus if parity == "odd" else space.eplus
    K, N = space.K, space.N
    scaled = func(space.alpha_cols(q)) * cplus
    return (scaled[..., None, :] @ basis.reshape(K, N * N)).reshape(scaled.shape[:-1] + (N, N))


# ---------------------------------------------------------------------------
# Weyl group action on Cartan coordinates
# ---------------------------------------------------------------------------

def weyl_act(space: SymmetricSpaceData, w, q) -> np.ndarray:
    """Signed-permutation action (wq)_i = s_i * q_{sigma(i)} (0-based sigma).

    Sign flips are only allowed in the BC_n / C_n families; the A_{k-1}
    Weyl group consists of plain permutations.
    """
    perm, signs = w
    q = np.asarray(q, dtype=float)
    perm = tuple(perm)
    signs = tuple(signs)
    if sorted(perm) != list(range(space.n_coords)):
        raise ValueError(f"perm must permute 0..{space.n_coords - 1}")
    if len(signs) != space.n_coords or any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be a +-1 vector of coordinate length")
    if space.spec.family == "sl_kc" and any(s == -1 for s in signs):
        raise ValueError("sign flips are not Weyl transformations of the A_{k-1} family")
    return np.array([signs[i] * q[perm[i]] for i in range(space.n_coords)])


# ---------------------------------------------------------------------------
# Random sampling helpers (seeded RNG is always caller-supplied)
# ---------------------------------------------------------------------------

def random_algebra_element(space: SymmetricSpaceData, rng: np.random.Generator,
                           scale: float = 1.0) -> np.ndarray:
    Z = rng.standard_normal((space.N, space.N)) + 1j * rng.standard_normal((space.N, space.N))
    return scale * project_to_algebra(space, Z)


def random_gplus_element(space: SymmetricSpaceData, rng: np.random.Generator,
                         scale: float = 1.0) -> np.ndarray:
    return split(space, random_algebra_element(space, rng, scale))[0]


def chamber_points(space: SymmetricSpaceData, r, lo: float = 0.4,
                   hi: float = 1.2) -> np.ndarray:
    """The coordinates of :func:`random_chamber_point` for its uniform
    doubles r in [0, 1), one row per row of r: the gaps lo + (hi - lo) r
    (as rng.uniform(lo, hi) rounds them) summed from the last, so strictly
    decreasing and positive; on sl(k,C) shifted to mean zero."""
    gaps = lo + (hi - lo) * np.asarray(r, dtype=float)
    q = np.cumsum(gaps[..., ::-1], axis=-1)[..., ::-1].copy()
    if space.spec.family == "sl_kc":
        q = q - q.mean(axis=-1, keepdims=True)
    return q


def random_chamber_point(space: SymmetricSpaceData, rng: np.random.Generator,
                         lo: float = 0.4, hi: float = 1.2) -> np.ndarray:
    """Coordinates strictly inside the open Weyl chamber, away from walls:
    :func:`chamber_points` of one ``rng.random`` of n_coords doubles."""
    return chamber_points(space, rng.random(space.n_coords), lo, hi)
