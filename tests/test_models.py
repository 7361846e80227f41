"""Tests for the spinless catalog and its agreement with the reduction
machinery."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincal import algebra, cli, dynamics, models, orbits
from spincal.algebra import AdmissibilityError
from spincal.models import SpinlessModel


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_bc():
    assert models.validate_params("bc", 2, 1.0, 1.0) is not None      # kappa - n x < 0
    assert models.validate_params("bc", 2, 3.0, 1.0) is None
    assert models.validate_params("bc", 1, 1.0, -1.5) is not None     # kappa + x < 0
    with pytest.raises(AdmissibilityError):
        SpinlessModel("bc", 2, 1.0, 1.0)


def test_validate_d_and_c():
    assert models.validate_params("d", 2, 0.0) is not None            # nonzero orbit
    assert models.validate_params("d", 2, 1.0) is None
    assert models.validate_params("c", 2, 0.0, 0.0) is not None
    assert models.validate_params("c", 2, 0.0, 0.5) is None
    assert models.validate_params("c", 1, 1.0, 0.0) is not None       # su(1) factor
    assert models.validate_params("a", 1, 1.0) is not None


def test_bc_boundary_in_floats_is_admissible():
    # kappa = n x with x = 0.1: kappa - n x = -5.6e-17 in floats, g1 = 0
    assert 0.3 - 3 * 0.1 < 0
    assert models.validate_params("bc", 3, 0.3, 0.1) is None
    assert orbits.bc_couplings(3, 0.3, 0.1)[1] == 0.0
    assert models.validate_params("bc", 3, 0.3, 0.1 + 1e-12) is not None


def _family_space(family, n):
    """The space the CLI runs the family on with n particles (None: none)."""
    if family == "a":
        return algebra.SpaceSpec.sl(n) if n >= 2 else None
    return algebra.SpaceSpec.su(n + 1 if family == "bc" else n, n)


@functools.lru_cache(maxsize=None)
def _built(spec):
    return algebra.build_space(spec)


def _run_config(spec, family, kappa, x):
    q = 0.8 * np.arange(spec.N if spec.family == "sl_kc" else spec.n, 0, -1)
    if spec.family == "sl_kc":
        q = q - q.mean()
    space = {"family": "su_mn", "m": spec.m, "n": spec.n} if spec.family == "su_mn" \
        else {"family": "sl_kc", "k": spec.k}
    return {"space": space, "model": {"type": family, "kappa": kappa, "x": x},
            "initial": {"q": q.tolist(), "p": [0.0] * len(q)}, "t_end": 1.0, "tol": 1e-10}


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(["bc", "c", "d", "a"]), n=st.integers(1, 4),
       k=st.integers(-20, 20), j=st.integers(0, 20),
       anchor=st.sampled_from(["n x", "nk/10", "-x", "x", "0", "free"]),
       nudge=st.sampled_from([0.0, 1e-16, -1e-16, 1e-12, -1e-12]))
def test_one_admissibility_rule(family, n, k, j, anchor, nudge):
    # (kappa, x) on and near every boundary, built in floats: the catalog
    # verdict, the orbit representative and the CLI parser agree
    x = k / 10
    kappa = {"n x": n * x, "nk/10": n * k / 10, "-x": -x, "x": x, "0": 0.0,
             "free": j / 10}[anchor] + nudge
    admissible = models.validate_params(family, n, kappa, x) is None
    spec = _family_space(family, n)
    if spec is None:
        assert not admissible
        return
    try:
        orbits.xi_red(_built(spec), "kks" if family == "a" else family, kappa, x)
        built = True
    except AdmissibilityError:
        built = False
    try:
        cli.parse_run(_run_config(spec, family, kappa, x))
        parsed = True
    except cli.ConfigError:
        parsed = False
    assert built == parsed == admissible


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_form_d2_value():
    # D(n=2, kappa=2) at q=(2,1), p=0: pair coupling kappa^2/4 = 1
    model = SpinlessModel("d", 2, 2.0)
    val = models.closed_form_H(model, np.array([2.0, 1.0]), np.zeros(2))
    expected = 1.0 / math.sinh(1.0) ** 2 + 1.0 / math.sinh(3.0) ** 2
    assert abs(val - expected) < 1e-14


def test_closed_form_c_kappa_zero():
    # kappa = 0: only the 2 q_k term survives with coefficient n^2 x^2 / 2
    n, x = 2, 0.9
    model = SpinlessModel("c", n, 0.0, x)
    q = np.array([1.4, 0.6])
    val = models.closed_form_H(model, q, np.zeros(n))
    expected = (n ** 2 * x ** 2 / 2.0) * np.sum(1.0 / np.sinh(2 * q) ** 2)
    assert abs(val - expected) < 1e-14


def test_closed_form_free_limit():
    model = SpinlessModel("bc", 2, 3.0, 1.0)
    p = np.array([0.4, -0.2])
    val = models.closed_form_H(model, np.array([60.0, 30.0]), p)
    assert abs(val - 0.5 * np.dot(p, p)) < 1e-12


@pytest.mark.parametrize("model,q", [
    (SpinlessModel("bc", 2, 3.0, 1.0), [1200.0, 400.0]),
    (SpinlessModel("c", 2, 1.0, 0.7), [1200.0, 400.0]),
    (SpinlessModel("d", 2, 1.5), [1200.0, 400.0]),
    (SpinlessModel("a", 3, 0.8), [800.0, 0.0, -800.0]),
], ids=["bc", "c", "d", "a"])
def test_closed_form_far_out_is_kinetic(model, q):
    # every root value is at least 400, past algebra.FAR_ROOT: each
    # 1/sinh^2 term is exactly 0 and no overflow warning is raised
    p = np.array([0.4, -0.2, 0.1][:len(q)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert models.closed_form_H(model, np.array(q), p) == 0.5 * float(np.dot(p, p))


def test_closed_form_bc_x_zero_degenerates():
    # x = 0: g2 = 0 and only the single-root (B-type) and pair terms remain
    n, kappa = 2, 1.7
    g, g1, g2 = orbits.bc_couplings(n, kappa, 0.0)
    assert g2 == 0.0
    model = SpinlessModel("bc", n, kappa, 0.0)
    q = np.array([1.3, 0.5])
    val = models.closed_form_H(model, q, np.zeros(n))
    diff, summ = q[0] - q[1], q[0] + q[1]
    expected = (g1 ** 2 * np.sum(1.0 / np.sinh(q) ** 2)
                + g ** 2 / math.sinh(diff) ** 2 + g ** 2 / math.sinh(summ) ** 2)
    assert abs(val - expected) < 1e-14


def test_weyl_invariance_signed_and_plain(rng):
    signed_models = [SpinlessModel("bc", 3, 2.0, 0.5),
                     SpinlessModel("c", 3, 1.0, 0.4),
                     SpinlessModel("d", 3, 1.5)]
    q = np.array([2.2, 1.3, 0.6])
    p = rng.standard_normal(3)
    for model in signed_models:
        base = models.closed_form_H(model, q, p)
        space = models.model_space(model)
        for _ in range(10):
            perm = tuple(rng.permutation(3))
            signs = tuple(int(s) for s in rng.choice([-1, 1], size=3))
            wq = algebra.weyl_act(space, (perm, signs), q)
            wp = algebra.weyl_act(space, (perm, signs), p)
            assert abs(models.closed_form_H(model, wq, wp) - base) < 1e-12

    a = SpinlessModel("a", 3, 1.0)
    qa = np.array([1.5, 0.2, -1.7])
    pa = rng.standard_normal(3)
    pa -= pa.mean()
    base = models.closed_form_H(a, qa, pa)
    for _ in range(10):
        perm = rng.permutation(3)
        assert abs(models.closed_form_H(a, qa[perm], pa[perm]) - base) < 1e-12


# ---------------------------------------------------------------------------
# machinery vs closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", models.CATALOG, ids=lambda m: m.label())
def test_machinery_equals_closed_form(model, rng):
    assert models.machinery_equals_closed_form(model, rng, n_samples=40) < 1e-12


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_machinery_d2_kappa_sweep(kappa, rng):
    model = SpinlessModel("d", 2, kappa)
    assert models.machinery_equals_closed_form(model, rng, n_samples=25) < 1e-12


def test_machinery_d_on_larger_ambient(rng):
    # the D-type representative lives in the size-n factor for any m >= n
    model = SpinlessModel("d", 2, 1.5, m_ambient=3)
    assert models.machinery_equals_closed_form(model, rng, n_samples=25) < 1e-12


def test_sutherland_coupling_regression(rng):
    # read the pair coupling off the machinery at several configurations,
    # then re-verify the pinned constant exactly
    model = SpinlessModel("a", 3, 1.0)
    space = models.model_space(model)
    xi = models.model_spin(space, model)
    fits = []
    for _ in range(6):
        q = algebra.random_chamber_point(space, rng)
        pt = dynamics.make_phase_point(space, q, np.zeros(3), xi)
        pot = dynamics.hamiltonian(space, pt)
        diff = models._pair_terms(q)[0]
        fits.append(pot / np.sum(1.0 / np.sinh(diff) ** 2))
    fits = np.array(fits)
    assert np.abs(fits - fits[0]).max() < 1e-12          # a single pair constant
    assert abs(fits[0] - models.SUTHERLAND_COUPLING_FACTOR * model.kappa ** 2) < 1e-12
    assert models.machinery_equals_closed_form(model, rng, n_samples=25) < 1e-12


def test_coupling_relation_residual_draws(rng):
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        kappa = float(rng.uniform(0.05, 4.0))
        x = float(rng.uniform(-kappa, kappa / n))
        worst = max(worst, models.coupling_relation_residual(n, kappa, x))
    assert worst < 1e-13
