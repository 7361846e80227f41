"""End-to-end tests of the command line interface (subprocess level)."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize

from spincal import cli


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "spincal.cli", *args],
                          capture_output=True, text=True)


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def base_run_config(**over):
    cfg = {
        "space": {"family": "su_mn", "m": 3, "n": 2},
        "model": {"type": "bc", "kappa": 3.0, "x": 1.0},
        "initial": {"q": [2.0, 1.0], "p": [0.1, -0.2]},
        "t_end": 3.0,
        "tol": 1e-10,
        "sample_dt": 0.5,
        "monitors": [{"class": "trace_power", "k": 2, "x": 1.0}],
        "lax_x": [0.0, 1.0],
    }
    cfg.update(over)
    return cfg


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_bc_energy_drift(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_run_config())
    out = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 0, out.stderr
    data = read_csv(tmp_path / "o" / "trajectory.csv")
    assert set(data.dtype.names) == {"t", "q1", "q2", "p1", "p2", "H"}
    report = json.loads((tmp_path / "o" / "drift_report.json").read_text())
    assert report["status"] == "ok"
    assert report["drift"]["energy"] < 1e-8
    assert report["tool"] == "spincal" and "config_sha256" in report


def test_simulate_projection_matches_direct(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_run_config())
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "d")).returncode == 0
    assert run_cli("simulate", "--config", cfg, "--method", "projection",
                   "--out", str(tmp_path / "p")).returncode == 0
    a = read_csv(tmp_path / "d" / "trajectory.csv")
    b = read_csv(tmp_path / "p" / "trajectory.csv")
    for col in ("q1", "q2", "p1", "p2", "H"):
        assert np.abs(a[col] - b[col]).max() < 1e-6


def test_simulate_free_motion_linear(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_run_config(
        model={"type": "free"}, initial={"q": [2.0, 1.0], "p": [0.2, 0.1]},
        monitors=[]))
    out = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 0
    data = read_csv(tmp_path / "o" / "trajectory.csv")
    assert np.abs(data["q1"] - (2.0 + 0.2 * data["t"])).max() < 1e-12
    assert np.abs(data["q2"] - (1.0 + 0.1 * data["t"])).max() < 1e-12


def test_simulate_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_run_config(
        model={"type": "orbit", "kappa_m": 1.5, "kappa_n": 0.5, "x": 0.2, "seed": 11}))
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "a")).returncode == 0
    assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "b")).returncode == 0
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
        (tmp_path / "b" / "trajectory.csv").read_bytes()


def test_simulate_wall_collision_exit_2(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_run_config(
        model={"type": "free"}, initial={"q": [1.5, 1.0], "p": [-0.3, 0.3]},
        monitors=[], t_end=5.0))
    out = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 2
    report = json.loads((tmp_path / "o" / "drift_report.json").read_text())
    assert report["status"] == "wall_collision"
    assert 0.0 < report["last_safe_time"] < 1.0


def test_simulate_projection_wall_collision_writes_report(tmp_path):
    # free motion through the q1 = q2 wall at t = 5/6, between two samples
    cfg = write_config(tmp_path / "cfg.json", base_run_config(
        model={"type": "free"}, initial={"q": [1.5, 1.0], "p": [-0.3, 0.3]},
        monitors=[], t_end=5.0, method="projection"))
    out = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 2, out.stderr
    report = json.loads((tmp_path / "o" / "drift_report.json").read_text())
    assert report["status"] == "wall_collision"
    assert report["last_safe_time"] == 0.5
    data = read_csv(tmp_path / "o" / "trajectory.csv")
    assert data["t"].tolist() == [0.0, 0.5]


def test_simulate_reports_freeze_residual_on_freeze_runs_only(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"runs": [
        base_run_config(name="freeze"),
        base_run_config(name="zero", t_end=1.0, model={
            "type": "orbit", "kappa_m": 1.5, "kappa_n": 0.5, "x": 0.2, "seed": 3}),
    ]})
    out = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 0, out.stderr
    freeze = json.loads((tmp_path / "o" / "freeze" / "drift_report.json").read_text())
    assert freeze["corrections"]["freeze_residual"] < 1e-8
    assert freeze["corrections"]["orbit_spectrum"] == 0.0
    zero = json.loads((tmp_path / "o" / "zero" / "drift_report.json").read_text())
    assert set(zero["corrections"]) == {"m_part", "orbit_spectrum"}


def test_projection_run_skips_gauge_alignment(tmp_path, monkeypatch):
    calls = []
    minimize = scipy.optimize.minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", counted)
    cfg = write_config(tmp_path / "cfg.json", base_run_config(t_end=1.0))
    code = cli.main(["simulate", "--config", cfg, "--method", "projection",
                     "--out", str(tmp_path / "o")])
    assert code == 0
    assert calls == []


def test_config_hash_covers_cli_overrides(tmp_path):
    raw = base_run_config(
        space={"family": "su_mn", "m": 2, "n": 2},
        model={"type": "orbit", "kappa_m": 1.0, "kappa_n": 0.5, "x": 0.2},
        initial={"q": [1.6, 0.7], "p": [0.3, -0.3]}, t_end=0.5, monitors=[])
    cfg = write_config(tmp_path / "cfg.json", raw)
    reports, trajs = {}, {}
    for tag, extra in (("raw", []), ("s1", ["--seed", "1"]), ("s2", ["--seed", "2"]),
                       ("proj", ["--method", "projection"])):
        out = tmp_path / tag
        assert cli.main(["simulate", "--config", cfg, "--out", str(out), *extra]) == 0
        reports[tag] = json.loads((out / "drift_report.json").read_text())
        trajs[tag] = (out / "trajectory.csv").read_bytes()
    assert reports["raw"]["config_sha256"] == cli.config_hash(raw)
    assert [reports[t]["seed"] for t in ("raw", "s1", "s2")] == [0, 1, 2]
    assert trajs["s1"] != trajs["s2"]
    assert len({r["config_sha256"] for r in reports.values()}) == 4

    vraw = {"spaces": [{"family": "su_mn", "m": 2, "n": 1}], "n_draws": 2}
    vcfg = write_config(tmp_path / "v.json", vraw)
    hashes = []
    for extra in ([], ["--seed", "1"], ["--seed", "2"]):
        out = tmp_path / f"v{len(hashes)}"
        assert cli.main(["verify", "--config", vcfg, "--out", str(out), *extra]) == 0
        hashes.append(json.loads((out / "verify_report.json").read_text())["config_sha256"])
    assert hashes[0] == cli.config_hash(vraw)
    assert len(set(hashes)) == 3


def test_simulate_jobs_multi_run(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"runs": [
        base_run_config(name="one"),
        base_run_config(name="two", initial={"q": [2.5, 1.2], "p": [0.0, 0.0]}),
    ]})
    out = run_cli("simulate", "--config", cfg, "--jobs", "2",
                  "--out", str(tmp_path / "o"))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "o" / "one" / "trajectory.csv").exists()
    assert (tmp_path / "o" / "two" / "trajectory.csv").exists()


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_run_config(bogus=1))
    out = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 1
    assert "unknown keys" in out.stderr
    assert not (tmp_path / "o" / "trajectory.csv").exists()


@pytest.mark.parametrize("mutate", [
    dict(t_end=-1.0),
    dict(tol=1e-3),
    dict(initial={"q": [1.0, 2.0], "p": [0.0, 0.0]}),   # not in chamber
    dict(initial={"q": [1.0], "p": [0.0]}),             # dimension mismatch
    dict(model={"type": "bc", "kappa": 1.0, "x": 1.0}),  # inadmissible
    dict(model={"type": "a", "kappa": 1.0}),             # wrong family
])
def test_invalid_configs_exit_1(tmp_path, mutate):
    cfg = write_config(tmp_path / "cfg.json", base_run_config(**mutate))
    out = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 1, out.stderr
    assert not (tmp_path / "o").exists() or not list((tmp_path / "o").iterdir())


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_isospectral_and_real_at_zero(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_run_config(lax_x=[0.0, 0.5]))
    out = run_cli("spectrum", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 0, out.stderr
    report = json.loads((tmp_path / "o" / "spectrum_report.json").read_text())
    for key, drift in report["isospectrality_drift"].items():
        assert drift < 1e-7, (key, drift)
    data = np.genfromtxt(tmp_path / "o" / "spectrum.csv", delimiter=",", names=True)
    im_cols = [c for c in data.dtype.names if c.startswith("ev") and
               "x0_" in c and c.endswith("_im")]
    assert im_cols
    for c in im_cols:
        assert np.abs(data[c]).max() < 1e-10  # L(0) has a real spectrum


def test_spectrum_free_constant_eigenvalues(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_run_config(
        model={"type": "free"}, initial={"q": [2.0, 1.0], "p": [0.3, 0.1]},
        monitors=[], lax_x=[0.0]))
    out = run_cli("spectrum", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 0
    data = np.genfromtxt(tmp_path / "o" / "spectrum.csv", delimiter=",", names=True)
    evs = sorted(round(float(data[c][0]), 12) for c in data.dtype.names
                 if c.endswith("_re") and "x0_" in c)
    # eigenvalues of embed(p): +-p_k and zeros, constant in time
    assert evs == sorted([0.3, -0.3, 0.1, -0.1, 0.0])
    for c in data.dtype.names:
        if c != "t":
            assert np.abs(data[c] - data[c][0]).max() < 1e-12


# ---------------------------------------------------------------------------
# verify and couplings
# ---------------------------------------------------------------------------

def test_verify_report(tmp_path):
    cfg = write_config(tmp_path / "v.json", {
        "spaces": [{"family": "su_mn", "m": 2, "n": 1},
                   {"family": "su_mn", "m": 2, "n": 2}],
        "n_draws": 20, "seed": 5,
    })
    out = run_cli("verify", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 0, out.stderr
    report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
    assert report["all_passed"], [r for r in report["checks"] if not r["passed"]]
    assert "[pass]" in out.stdout


def test_verify_empty_spaces_exit_1(tmp_path):
    cfg = write_config(tmp_path / "v.json", {"spaces": []})
    out = run_cli("verify", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 1


def test_couplings_values():
    out = run_cli("couplings", "2", "3.0", "1.0")
    assert out.returncode == 0
    lines = dict(line.split("=", 1) for line in out.stdout.splitlines()
                 if "=" in line and not line.startswith("relation"))
    assert abs(float(lines["g  "]) - 2.0) < 1e-12
    assert abs(float(lines["g1 "]) - math.sqrt(2.0)) < 1e-12
    assert abs(float(lines["g2 "]) - 3.0 / math.sqrt(2.0)) < 1e-12


def test_couplings_simple_case():
    out = run_cli("couplings", "1", "1.0", "0.0")
    assert out.returncode == 0
    assert "0.70710678118654746" in out.stdout or "0.70710678118654757" in out.stdout


def test_couplings_inadmissible_exit_1():
    out = run_cli("couplings", "2", "1.0", "1.0")
    assert out.returncode == 1
    assert "kappa - n x" in out.stderr


def test_python_dash_m_package_entry():
    out = subprocess.run([sys.executable, "-m", "spincal", "couplings", "1", "1.0", "0.0"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "g1" in out.stdout
