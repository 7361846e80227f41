"""Start-up imports: the package loads numpy alone, and scipy only on the one
code path that needs it (the spectrum matcher's rare solver fallback).

Each case runs in a fresh interpreter, because other test modules import
scipy themselves.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SU63_ORBIT_RUN = {
    "space": {"family": "su_mn", "m": 6, "n": 3},
    "model": {"type": "orbit", "kappa_m": 1.0, "x": 1.0 / 3.0, "seed": 5},
    "initial": {"q": [3.0, 2.0, 1.0], "p": [0.1, -0.2, 0.05]},
    "t_end": 2.0, "tol": 1e-10, "sample_dt": 0.5,
    "monitors": [{"class": "trace_power", "k": 2, "x": 1.0},
                 {"class": "block_invariant", "k": 1}],
    "method": "direct", "gauge": "zero",
}
SU32_BC_RUN = {
    "space": {"family": "su_mn", "m": 3, "n": 2},
    "model": {"type": "bc", "kappa": 3.0, "x": 1.0},
    "initial": {"q": [2.0, 1.0], "p": [0.1, -0.2]},
    "t_end": 2.0, "tol": 1e-10, "sample_dt": 0.5,
    "monitors": [{"class": "trace_power", "k": 2, "x": 1.0}],
    "method": "projection",
}
# the D2 start whose flow meets the barrier-free 2 e2 wall between samples
# (exit 2), and an sl(3,C) bounce between samples that the flow clears
D2_WALL_RUN = {
    "space": {"family": "su_mn", "m": 2, "n": 2}, "model": {"type": "d", "kappa": 1.5},
    "initial": {"q": [1.2, 0.5], "p": [0.8, 0.1]}, "t_end": 4.0, "tol": 1e-10,
    "sample_dt": 2.0, "method": "projection",
}
SL3_BOUNCE_RUN = {
    "space": {"family": "sl_kc", "k": 3}, "model": {"type": "a", "kappa": 0.05},
    "initial": {"q": [1.0, 0.2, -1.2], "p": [0.7, 1.3, -2.0]}, "t_end": 2.0,
    "tol": 1e-10, "sample_dt": 1.0, "method": "projection",
}
VERIFY = {"spaces": [{"family": "su_mn", "m": 2, "n": 1},
                     {"family": "su_mn", "m": 2, "n": 2}],
          "n_draws": 20, "seed": 5}


def scipy_loaded_after(code, cwd):
    """The scipy modules (scipy and scipy.*) in sys.modules after ``code``
    runs in a fresh interpreter."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd, capture_output=True,
                         text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def cli_call(command, config, tmp_path, code=0):
    """Code that runs one CLI command on ``config`` in ``tmp_path`` and
    checks its exit code."""
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    return ("from spincal import cli\n"
            f"assert cli.main([{command!r}, '--config', 'cfg.json', '--out', 'out']) == {code}")


def test_import_spincal_is_numpy_only(tmp_path):
    assert scipy_loaded_after("import spincal", tmp_path) == set()


def test_import_cli_is_numpy_only(tmp_path):
    assert scipy_loaded_after("import spincal.cli", tmp_path) == set()


def test_verify_loads_no_scipy(tmp_path):
    assert scipy_loaded_after(cli_call("verify", VERIFY, tmp_path), tmp_path) == set()


def test_direct_orbit_run_loads_no_scipy(tmp_path):
    # su(6,3) spectra carry exact repeated zeros: matched without the solver
    assert scipy_loaded_after(cli_call("simulate", SU63_ORBIT_RUN, tmp_path), tmp_path) == set()


def test_projection_run_loads_no_scipy(tmp_path):
    # the projection flow's general expm is orbits.expm, numpy alone
    assert scipy_loaded_after(cli_call("simulate", SU32_BC_RUN, tmp_path), tmp_path) == set()


@pytest.mark.parametrize("config,code", [(D2_WALL_RUN, 2), (SL3_BOUNCE_RUN, 0)])
def test_projection_run_that_bisects_loads_no_scipy(tmp_path, config, code):
    # the between-sample wall check bisects the flow: numpy alone
    assert scipy_loaded_after(cli_call("simulate", config, tmp_path, code), tmp_path) == set()
