"""End-to-end tests of the command line interface (subprocess level)."""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spincal import algebra, cli, dynamics, orbits
from test_dynamics import assert_same_run


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
    # alpha = q1 - q2 = 0.5 - 0.6 t reaches EPS_WALL at (0.5 - EPS_WALL) / 0.6
    assert abs(report["last_safe_time"] - (0.5 - algebra.EPS_WALL) / 0.6) <= 1e-9


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
    # and the accepted steps on direct runs only
    cfg = write_config(tmp_path / "cfg.json", {"runs": [
        base_run_config(name="freeze"),
        base_run_config(name="zero", t_end=1.0, model={
            "type": "orbit", "kappa_m": 1.5, "kappa_n": 0.5, "x": 0.2, "seed": 3}),
        base_run_config(name="proj", t_end=1.0, method="projection"),
    ]})
    out = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 0, out.stderr
    freeze, zero, proj = (json.loads((tmp_path / "o" / name / "drift_report.json").read_text())
                          for name in ("freeze", "zero", "proj"))
    assert freeze["corrections"]["freeze_residual"] < 1e-8
    assert set(freeze["corrections"]) == {"m_part", "freeze_residual"}
    assert set(zero["corrections"]) == set(proj["corrections"]) == {"m_part"}
    assert freeze["n_steps"] > 0 and zero["n_steps"] > 0 and "n_steps" not in proj
    for report in (freeze, zero):
        assert report["n_rhs"] >= 1 + 12 * (report["n_steps"] + report["n_rejected"])
    assert "n_rhs" not in proj and "n_rejected" not in proj
    for report in (freeze, zero):
        assert 0.0 < report["h_min"] <= report["h_max"]
        assert algebra.EPS_WALL <= report["min_alpha"]
    assert not {"h_min", "h_max", "min_alpha"} & set(proj)


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
    out = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "o" / "one" / "trajectory.csv").exists()
    assert (tmp_path / "o" / "two" / "trajectory.csv").exists()


@pytest.mark.parametrize("command,report_name", [("simulate", "drift_report.json"),
                                                 ("spectrum", "spectrum_report.json")])
@pytest.mark.parametrize("target,method,exc,status", [
    ("integrate_direct_batch", "direct", algebra.StepSizeError, "step_size_failure"),
    ("_projection_at", "projection", algebra.DegenerateSpectrumError, "degenerate_spectrum"),
    ("_projection_at", "projection", algebra.OffSliceError, "off_slice"),
])
def test_integration_failure_exit_3_writes_report(tmp_path, command, report_name,
                                                  target, method, exc, status):
    # the first run of the batch fails; the second still runs and succeeds
    real = getattr(dynamics, target)
    calls = []

    def fail_first_run(*args, **kwargs):
        calls.append(1)
        if target == "integrate_direct_batch":
            # both runs share one batch: the first member's result is the failure
            return [exc("injected failure"), *real(*args, **kwargs)[1:]]
        if len(calls) == 1:
            raise exc("injected failure")
        return real(*args, **kwargs)

    cfg = write_config(tmp_path / "cfg.json", {"runs": [
        base_run_config(name="bad", t_end=0.5, method=method),
        base_run_config(name="good", t_end=0.5, method=method),
    ]})
    with mock.patch.object(dynamics, target, fail_first_run):
        code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_FAILURE == 3
    bad = json.loads((tmp_path / "o" / "bad" / report_name).read_text())
    assert bad["status"] == status
    assert bad["error"] == "injected failure"
    assert bad["run"] == "bad" and bad["method"] == method
    good = json.loads((tmp_path / "o" / "good" / report_name).read_text())
    assert good["status"] == "ok"


def free_run(name, q, p):
    return base_run_config(name=name, model={"type": "free"},
                           initial={"q": q, "p": p}, monitors=[])


def test_batch_failures_match_runs_one_by_one(tmp_path):
    # one member reaches a wall and one underflows (its right-hand side is
    # NaN); every member's outputs and the exit code are those of running
    # the runs one by one
    runs = [free_run("ok1", [2.0, 1.0], [0.1, 0.05]),
            free_run("wall", [1.5, 1.0], [-0.3, 0.3]),
            free_run("stall", [9.0, 4.0], [0.0, 0.0]),
            free_run("ok2", [2.5, 1.2], [0.0, 0.1])]
    rhs = dynamics._DirectSystem.__call__

    def nan_for_stall(self, t, Y):
        out = rhs(self, t, Y)
        out[~(Y[:, 0] < 8.0)] = np.nan  # the rows of "stall" (q1 = 9), NaN or not
        return out

    with mock.patch.object(dynamics._DirectSystem, "__call__", nan_for_stall):
        code = cli.main(["simulate", "--config", write_config(tmp_path / "b.json", {"runs": runs}),
                         "--out", str(tmp_path / "batch")])
        alone = [cli.main(["simulate", "--config", write_config(tmp_path / "one.json", run),
                           "--out", str(tmp_path / "alone" / run["name"])]) for run in runs]
    assert alone == [0, 2, 3, 0] and code == max(alone)
    for run in runs:
        got, want = tmp_path / "batch" / run["name"], tmp_path / "alone" / run["name"]
        reports = [json.loads((d / "drift_report.json").read_text()) for d in (got, want)]
        assert reports[0]["status"] == reports[1]["status"]
        assert (got / "trajectory.csv").exists() == (want / "trajectory.csv").exists()
        if run["name"] != "stall":
            a, b = (np.loadtxt(d / "trajectory.csv", delimiter=",", skiprows=1)
                    for d in (got, want))
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())
    assert reports[0]["status"] == "ok"


def test_batch_runs_write_under_their_own_out_dir(tmp_path, monkeypatch):
    # with no --out, each batch member writes to its own out_dir/<name>/;
    # --out replaces every member's out_dir
    runs = [dict(free_run("a", [2.0, 1.0], [0.1, 0.05]), out_dir="od_a"),
            dict(free_run("b", [2.5, 1.2], [0.0, 0.1]), out_dir="od_b")]
    cfg = write_config(tmp_path / "b.json", {"runs": runs})
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "od_a" / "a" / "drift_report.json").exists()
    assert (tmp_path / "od_b" / "b" / "drift_report.json").exists()
    assert not (tmp_path / "od_a" / "b").exists()
    assert cli.main(["simulate", "--config", cfg, "--out", "o"]) == 0
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["a", "b"]


def test_free_and_spinning_runs_share_a_batch(tmp_path, monkeypatch):
    # zero spin always runs in the zero gauge, so a free run and an orbit
    # run on one space with equal t_end and tol are one batch
    su22 = {"family": "su_mn", "m": 2, "n": 2}
    orbit = {"type": "orbit", "kappa_m": 1.5, "kappa_n": 0.5, "x": 0.2}
    runs = [free_run("free", [2.0, 1.0], [0.1, 0.05]),
            base_run_config(name="orbit", model=orbit, initial={"q": [2.0, 1.0],
                                                                "p": [0.1, -0.2]})]
    runs[0]["space"] = runs[1]["space"] = su22
    calls = []
    real = dynamics.integrate_direct_batch

    def counted(space, pts, *args, **kwargs):
        calls.append(len(pts))
        return real(space, pts, *args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_direct_batch", counted)
    cfg = write_config(tmp_path / "cfg.json", {"runs": runs})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == [2]
    for name in ("free", "orbit"):
        report = json.loads((tmp_path / "o" / name / "drift_report.json").read_text())
        assert report["status"] == "ok"


def test_runs_differing_in_sample_dt_share_a_batch(monkeypatch):
    # the steps do not depend on the sample grid: two runs that differ only
    # in sample_dt are one batch, and each is its own single run
    orbit = {"type": "orbit", "kappa_m": 1.5, "kappa_n": 0.5, "x": 0.2, "seed": 3}
    runs = cli.parse_runs({"runs": [base_run_config(name=f"dt{i}", model=orbit, sample_dt=dt)
                                    for i, dt in enumerate((0.5, 0.2))]})
    calls = []
    real = dynamics.integrate_direct_batch

    def counted(space, pts, *args, **kwargs):
        calls.append(len(pts))
        return real(space, pts, *args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_direct_batch", counted)
    batch = cli.run_trajectories(runs)
    assert calls == [2]
    for cfg, got in zip(runs, batch):
        want = dynamics.integrate_direct(cfg.space, cfg.pt0, cfg.t_end, tol=cfg.tol,
                                         sample_dt=cfg.sample_dt, lax_x=cfg.lax_x,
                                         invariants=cfg.monitors)
        assert len(got) == round(cfg.t_end / cfg.sample_dt) + 1
        assert_same_run(got, want)


def test_runs_on_two_spaces_share_one_stepper_loop(monkeypatch):
    # direct runs on su(2,2) and su(3,2) with one gauge, t_end and tol are one
    # integrate_direct_batch call, and each stage is one right-hand-side call
    # over the rows of both, not one call per space
    su22 = {"family": "su_mn", "m": 2, "n": 2}
    orbit = {"type": "orbit", "kappa_n": 0.5, "x": 0.2}
    runs = cli.parse_runs({"runs": [
        base_run_config(name="a", space=su22, t_end=1.0, initial={"q": [1.6, 0.7], "p": [0.1, 0.0]},
                        model={**orbit, "kappa_m": 1.0, "seed": 1}),
        base_run_config(name="b", t_end=1.0, model={**orbit, "kappa_m": 1.5, "seed": 2})]})
    batches, rows = [], []
    real, rhs = dynamics.integrate_direct_batch, dynamics._DirectSystem.__call__

    def counted(space, pts, *args, **kwargs):
        batches.append(len(pts))
        return real(space, pts, *args, **kwargs)

    def counted_rhs(self, t, Y):
        rows.append(len(Y))
        return rhs(self, t, Y)

    monkeypatch.setattr(dynamics, "integrate_direct_batch", counted)
    monkeypatch.setattr(dynamics._DirectSystem, "__call__", counted_rhs)
    batch = cli.run_trajectories(runs)
    monkeypatch.undo()
    assert batches == [2] and rows[0] == 2
    assert sum(rows) == sum(traj.n_rhs for traj in batch)
    # one call to start and twelve per attempt of the run with the most, plus
    # at most three per accepted step that holds a sample
    attempts = max(traj.n_steps + traj.n_rejected for traj in batch)
    assert 1 + 12 * attempts <= len(rows) <= 1 + 12 * attempts + 3 * sum(
        len(traj) - 1 for traj in batch)
    assert len(rows) < 2 + 12 * sum(traj.n_steps + traj.n_rejected for traj in batch)
    for cfg, got in zip(runs, batch):
        want = dynamics.integrate_direct(cfg.space, cfg.pt0, cfg.t_end, tol=cfg.tol,
                                         sample_dt=cfg.sample_dt, lax_x=cfg.lax_x,
                                         invariants=cfg.monitors)
        assert_same_run(got, want)


def test_wall_run_reports_its_step_sizes_and_wall_margin(tmp_path):
    # free su(2,2) motion aimed at the q1 = q2 wall (the CI wall run): the
    # accepted steps end at or above EPS_WALL and the last ones close to it
    cfg = write_config(tmp_path / "wall.json", {
        "space": {"family": "su_mn", "m": 2, "n": 2}, "model": {"type": "free"},
        "initial": {"q": [1.5, 1.0], "p": [-0.3, 0.3]}, "t_end": 5.0, "tol": 1e-10,
        "sample_dt": 0.5})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_WALL
    report = json.loads((tmp_path / "o" / "drift_report.json").read_text())
    assert report["status"] == "wall_collision"
    assert algebra.EPS_WALL <= report["min_alpha"] < 1e-3
    assert 0.0 < report["h_min"] <= report["h_max"]


def test_freeze_run_far_along_the_chamber(tmp_path):
    # one particle far from the other: the certificate holds at every step
    cfg = write_config(tmp_path / "cfg.json", base_run_config(
        initial={"q": [17.0, 1.0], "p": [1.0, 0.0]}))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "drift_report.json").read_text())
    assert report["status"] == "ok"
    assert report["corrections"]["freeze_residual"] < 1e-8


def test_failed_freeze_certificate_fails_its_run_alone(tmp_path):
    # a generic orbit spin has no freezing gauge: exit 3 with its report,
    # also started far out, where the pointwise solve would accept it
    orbit = {"type": "orbit", "kappa_m": 1.5, "kappa_n": 0.5, "x": 0.2}
    cfg = write_config(tmp_path / "cfg.json", {"runs": [
        base_run_config(name="generic", gauge="freeze", t_end=0.5, model=orbit),
        base_run_config(name="far", gauge="freeze", t_end=0.5, model=orbit,
                        space={"family": "su_mn", "m": 2, "n": 2},
                        initial={"q": [30.0, 10.0], "p": [0.1, -0.2]}),
        base_run_config(name="bc", t_end=0.5),
    ]})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    for name in ("generic", "far"):
        report = json.loads((tmp_path / "o" / name / "drift_report.json").read_text())
        assert report["status"] == "freeze_certificate_failure"
        assert report["error"].startswith("no freezing gauge on the chamber: root ")
        assert not (tmp_path / "o" / name / "trajectory.csv").exists()
    bc = json.loads((tmp_path / "o" / "bc" / "drift_report.json").read_text())
    assert bc["status"] == "ok"


def test_batch_outputs_deterministic_bytes(tmp_path):
    orbit = {"type": "orbit", "kappa_m": 1.5, "kappa_n": 0.5, "x": 0.2}
    cfg = write_config(tmp_path / "cfg.json", {"runs": [
        base_run_config(name=f"r{i}", model={**orbit, "seed": i},
                        initial={"q": [2.0 + 0.3 * i, 1.0], "p": [0.1, -0.2]})
        for i in range(3)]})
    for out in ("a", "b"):
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / out)]) == 0
    for i in range(3):
        for name in ("trajectory.csv", "drift_report.json"):
            assert (tmp_path / "a" / f"r{i}" / name).read_bytes() == \
                (tmp_path / "b" / f"r{i}" / name).read_bytes()


@pytest.mark.parametrize("command,data_name,report_name", [
    ("simulate", "trajectory.csv", "drift_report.json"),
    ("spectrum", "spectrum.csv", "spectrum_report.json"),
])
def test_failed_run_removes_stale_data_file(tmp_path, command, data_name, report_name):
    # a good run, then a failing run of the same config into the same directory:
    # the first run's data file must not stay next to the failure report
    cfg = write_config(tmp_path / "cfg.json", base_run_config(t_end=0.5))
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
    assert (out / data_name).exists()
    with mock.patch.object(dynamics, "integrate_direct_batch",
                           return_value=[algebra.StepSizeError("injected failure")]):
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_FAILURE
    assert not (out / data_name).exists()
    assert json.loads((out / report_name).read_text())["status"] == "step_size_failure"


def test_each_run_builds_its_space_and_monitor_once(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"runs": [
        base_run_config(name="one", t_end=0.5, lax_x=[0.0, 0.5, 1.0]),
        base_run_config(name="two", t_end=0.5, space={"family": "su_mn", "m": 2, "n": 1},
                        model={"type": "bc", "kappa": 1.0, "x": 0.3},
                        initial={"q": [1.0], "p": [0.2]}),
    ]})
    for command in ("simulate", "spectrum"):
        with mock.patch.object(algebra, "build_space", wraps=algebra.build_space) as build, \
                mock.patch.object(dynamics, "monitor", wraps=dynamics.monitor) as monitor:
            assert cli.main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        assert build.call_count == 2
        assert monitor.call_count == 2


def test_a_batch_builds_each_space_once(tmp_path):
    # six runs on four spaces, spinning and free, direct and projection:
    # parsing and running the batch build four spaces
    runs = [base_run_config(name="bc", t_end=0.5),
            base_run_config(name="bc_proj", t_end=0.5, method="projection"),
            {**free_run("su22", [2.0, 1.0], [0.1, 0.3]), "space": SU22, "t_end": 0.5},
            {**free_run("su22_b", [2.5, 1.2], [0.0, 0.1]), "space": SU22, "t_end": 0.5},
            {**free_run("su21", [1.0], [0.2]), "space": {"family": "su_mn", "m": 2, "n": 1},
             "t_end": 0.5},
            {**free_run("sl3", [1.0, 0.0, -1.0], [0.1, 0.0, -0.1]),
             "space": {"family": "sl_kc", "k": 3}, "t_end": 0.5}]
    cfg = write_config(tmp_path / "cfg.json", {"runs": runs})
    algebra.build_space.cache_clear()
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    info = algebra.build_space.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
    assert info.hits >= 2


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path):
    # the overrides of one call do not leak into the next: the second report
    # shows the config's own seed and method
    cfg = write_config(tmp_path / "cfg.json", base_run_config(t_end=0.5, seed=7))
    reports = []
    for tag, extra in (("over", ["--seed", "3", "--method", "projection"]), ("plain", [])):
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / tag), *extra]) == 0
        reports.append(json.loads((tmp_path / tag / "drift_report.json").read_text()))
    assert [(r["seed"], r["method"]) for r in reports] == [(3, "projection"), (7, "direct")]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("method", ["direct", "projection"])
def test_start_with_non_finite_energy_is_a_config_error(tmp_path, capsys, method):
    # p = 1e200 on the su(2,1) BC model: H = p^2 / 2 overflows, so no
    # integrator can step from there; exit 1, nothing written
    cfg = write_config(tmp_path / "cfg.json", base_run_config(
        space={"family": "su_mn", "m": 2, "n": 1}, model={"type": "bc", "kappa": 1.0, "x": 0.3},
        initial={"q": [1.0], "p": [1e200]}, t_end=0.5, monitors=[]))
    assert cli.main(["simulate", "--config", cfg, "--method", method,
                     "--out", str(tmp_path / "o")]) == 1
    assert "the initial energy is not finite (H = inf)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_bc_boundary_model(tmp_path):
    # kappa = n x built in floats (kappa - n x = -5.6e-17): g1 = 0, still a BC model
    cfg = write_config(tmp_path / "cfg.json", base_run_config(
        space={"family": "su_mn", "m": 4, "n": 3}, model={"type": "bc", "kappa": 0.3, "x": 0.1},
        initial={"q": [3.0, 2.0, 1.0], "p": [0.1, 0.0, -0.1]}, t_end=0.5))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "drift_report.json").read_text())
    assert report["status"] == "ok"


def test_simulate_far_out_chamber_point(tmp_path):
    # root values up to 1200: the pole functions take their limits
    cfg = write_config(tmp_path / "cfg.json", base_run_config(
        space={"family": "su_mn", "m": 2, "n": 2}, model={"type": "d", "kappa": 1.5},
        initial={"q": [600.0, 100.0], "p": [0.1, -0.2]}, t_end=1.0))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "drift_report.json").read_text())
    assert report["status"] == "ok"
    assert report["drift"]["energy"] < 1e-12


def test_bad_orbit_data_stops_the_batch_before_any_run(tmp_path):
    # su(6,3) slice data needs x = kappa_m / n: the spins are built while the
    # config is parsed, so the first run writes nothing
    cfg = write_config(tmp_path / "cfg.json", {"runs": [
        base_run_config(name="good", t_end=0.5),
        base_run_config(name="bad", t_end=0.5, space={"family": "su_mn", "m": 6, "n": 3},
                        model={"type": "orbit", "kappa_m": 1.0, "x": 0.2},
                        initial={"q": [3.0, 2.0, 1.0], "p": [0.0, 0.0, 0.0]}),
    ]})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def test_purely_central_orbit_run_is_the_c_model_at_kappa_zero(tmp_path):
    # {"type": "orbit", "x": 0.9} on su(2,2) used to exit 1; its spin is the
    # C model's at kappa = 0, so in one gauge the two runs write the same bytes
    for name, model in (("orbit", {"type": "orbit", "x": 0.9}),
                        ("c", {"type": "c", "kappa": 0.0, "x": 0.9})):
        cfg = write_config(tmp_path / f"{name}.json", base_run_config(
            space={"family": "su_mn", "m": 2, "n": 2}, model=model, gauge="zero", t_end=1.0))
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "orbit" / "trajectory.csv").read_bytes() == \
        (tmp_path / "c" / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("m,kappa_n", [(1, 1.0), (2, 0.7)])
def test_orbit_constituent_on_a_size_one_factor_is_a_config_error(tmp_path, capsys, m, kappa_n):
    # su(1) carries no nonzero orbit: exit 1, nothing written (the run used
    # to drop the constituent and integrate the rest)
    cfg = write_config(tmp_path / "cfg.json", base_run_config(
        space={"family": "su_mn", "m": m, "n": 1}, model={"type": "orbit", "kappa_n": kappa_n},
        initial={"q": [1.0], "p": [0.1]}, monitors=[]))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "su(1) has no nonzero orbits" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,report_name", [("simulate", "drift_report.json"),
                                                 ("spectrum", "spectrum_report.json")])
def test_overflowing_projection_flow_is_a_degenerate_spectrum(tmp_path, capsys, command,
                                                             report_name):
    # p = 1e150 on the su(2,1) BC model: H = 5e299 is finite, but exp(t grad f)
    # overflows at the first sample; the run fails with a report (exit 3),
    # with no numpy warning, while the direct run of the same start succeeds
    cfg = write_config(tmp_path / "cfg.json", base_run_config(
        space={"family": "su_mn", "m": 2, "n": 1}, model={"type": "bc", "kappa": 1.0, "x": 0.3},
        initial={"q": [1.0], "p": [1e150]}, t_end=1.0, monitors=[]))
    assert cli.main([command, "--config", cfg, "--method", "projection",
                     "--out", str(tmp_path / "p")]) == 3
    report = json.loads((tmp_path / "p" / report_name).read_text())
    assert report["status"] == "degenerate_spectrum"
    assert report["error"] == "the projection flow overflows a float at t = 0.5"
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "d")]) == 0


def test_projection_run_whose_singular_value_underflows_exits_3(tmp_path):
    # seed 7's orbit-ensemble member sl4C_0 by projection to t = 300: at
    # t = 265 the smallest singular value of the graded flow underflows.  That
    # is the float overflow (exit 3), not a wall contact (exit 2) at t = 264
    cfg = write_config(tmp_path / "cfg.json", {
        "space": {"family": "sl_kc", "k": 4},
        "model": {"type": "orbit", "kappa": 1.0, "seed": 947955533},
        "initial": {"q": [1.338149242606, 0.281438769981, -0.325881667327, -1.29370634526],
                    "p": [0.067399487415, 0.018238137012, 0.084818632303, -0.17045625673]},
        "method": "projection", "t_end": 300.0, "sample_dt": 1.0, "tol": 1e-10})
    out = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 3, out.stderr
    report = json.loads((tmp_path / "o" / "drift_report.json").read_text())
    assert report["status"] == "degenerate_spectrum" and "last_safe_time" not in report
    assert report["error"] == "the projection flow overflows a float at t = 265"


# an admissible orbit per space family and shape, as orbit models give them
ORBIT_MODELS = (
    [({"family": "su_mn", "m": m, "n": n}, model) for m, n in ((2, 1), (2, 2), (3, 2), (6, 3))
     for model in ({"kappa_m": 1.5, "x": 0.2}, {"kappa_m": 1.0, "kappa_n": 0.5, "x": 0.2},
                   {"kappa_m": 1.0, "x": 1.0 / n}, {"x": 0.9})]
    + [({"family": "sl_kc", "k": k}, {"kappa": kappa}) for k in (3, 4) for kappa in (1.0, 0.3)])


def test_batch_spins_are_the_bits_of_one_draw_per_run():
    # parse_runs draws the spins of a batch's orbit runs per space and orbit,
    # each from its run's own seed, and certifies them stacked: every run's
    # spin is the bits of its own random_slice_spin draw
    raws, want = [], []
    for space_obj, model in ORBIT_MODELS:
        space = algebra.build_space(cli.parse_space(space_obj))
        try:
            spec = cli._orbit_spec(space.spec, {"type": "orbit", **model})
            orbits.slice_draw_rule(space, spec)
        except algebra.AdmissibilityError:  # this orbit has no slice on this space
            continue
        for seed in (0, 3, 2 ** 40):
            raws.append({"space": space_obj, "model": {"type": "orbit", **model, "seed": seed}})
            want.append(orbits.random_slice_spin(space, spec, np.random.default_rng(seed)))
    assert len(raws) > 20
    spins = cli._slice_spins(raws, None)
    assert len(spins) == len(raws)
    for raw, spin in zip(raws, want):
        space_spec = cli.parse_space(raw["space"])
        got = spins[space_spec, cli._orbit_spec(space_spec, raw["model"]), raw["model"]["seed"]]
        assert got.xi.tobytes() == spin.xi.tobytes()
        assert got.coeffs.tobytes() == spin.coeffs.tobytes()
    # parse_runs certifies one stack per space and orbit, and its runs hold those spins
    orbit = {"type": "orbit", "kappa_m": 1.5, "kappa_n": 0.5, "x": 0.2}
    runs = [base_run_config(name=f"r{i}", model={**orbit, "seed": i}) for i in range(3)]
    with mock.patch.object(orbits, "spin_point", wraps=orbits.spin_point) as certified:
        parsed = cli.parse_runs({"runs": runs})
    assert certified.call_count == 1
    for i, run in enumerate(parsed):
        alone = cli.parse_run(runs[i])
        assert run.pt0.xi.xi.tobytes() == alone.pt0.xi.xi.tobytes()


@pytest.mark.parametrize("bad", [
    # the su(6,3) slice needs x = kappa_m / n
    {"space": {"family": "su_mn", "m": 6, "n": 3}, "model": {"kappa_m": 1.0, "x": 0.2}},
    # kappa_n on a size-one factor
    {"space": {"family": "su_mn", "m": 2, "n": 1}, "model": {"kappa_n": 0.7}},
    # a seed no generator takes, among good draws of its space and orbit
    {"space": {"family": "su_mn", "m": 3, "n": 2},
     "model": {"kappa_m": 1.5, "kappa_n": 0.5, "x": 0.2, "seed": -1}},
])
def test_bad_orbit_run_among_good_ones_keeps_its_error(bad):
    # a batch whose orbit runs are drawn stacked stops at the first invalid
    # run with the error that run gives alone
    good = [base_run_config(name=f"g{i}", model={"type": "orbit", "kappa_m": 1.5,
                                                  "kappa_n": 0.5, "x": 0.2, "seed": i})
            for i in range(3)]
    q = [3.0, 2.0, 1.0] if bad["space"].get("m") == 6 else [2.0, 1.0][:bad["space"]["n"]]
    bad = base_run_config(name="bad", space=bad["space"], model={"type": "orbit", **bad["model"]},
                          initial={"q": q, "p": [0.0] * len(q)}, monitors=[])
    with pytest.raises(cli.ConfigError) as alone:
        cli.parse_run(bad)
    for runs in ([*good, bad], [good[0], bad, *good[1:]]):
        with pytest.raises(cli.ConfigError) as batch:
            cli.parse_runs({"runs": runs})
        assert str(batch.value) == str(alone.value)


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


VERIFY_SPACE = [{"family": "su_mn", "m": 2, "n": 1}]


@pytest.mark.parametrize("command,payload", [
    ("simulate", base_run_config(t_end=None)),
    ("simulate", base_run_config(lax_x=1.0)),
    ("simulate", base_run_config(monitors=5)),
    ("simulate", base_run_config(monitors=[{"class": "trace_power", "k": None}])),
    ("simulate", base_run_config(space={"family": "su_mn", "m": None, "n": 2})),
    ("simulate", base_run_config(model={"type": "bc", "kappa": [3.0], "x": 1.0})),
    ("simulate", base_run_config(initial={"q": {"q1": 2.0}, "p": [0.1, -0.2]})),
    ("simulate", base_run_config(lax_x=[0.0, None])),
    ("verify", {"spaces": VERIFY_SPACE, "n_draws": None}),
    ("verify", {"spaces": VERIFY_SPACE, "seed": [0]}),
    ("verify", {"spaces": 5}),
    # a string or a bool is no number, whatever it would convert to
    ("simulate", base_run_config(space={"family": "su_mn", "m": "3", "n": 2})),
    ("simulate", base_run_config(t_end="1.0")),
    ("simulate", base_run_config(model={"type": "bc", "kappa": True, "x": 1.0})),
    ("simulate", base_run_config(lax_x="01")),
    ("simulate", base_run_config(initial={"q": ["2.0", 1.0], "p": [0.1, -0.2]})),
    ("simulate", base_run_config(initial={"q": [2.0, 1.0], "p": [True, -0.2]})),
    ("simulate", base_run_config(name=7)),
    ("verify", {"spaces": VERIFY_SPACE, "seed": "0"}),
    ("simulate", base_run_config(out_dir=5)),
])
def test_wrong_json_type_is_a_config_error(tmp_path, capsys, command, payload):
    # a value of the wrong JSON type exits 1 with an error line, no traceback
    cfg = write_config(tmp_path / "cfg.json", payload)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: invalid value for")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,payload", [
    ("simulate", base_run_config(space={"family": "su_mn", "m": 3.9, "n": 2.2})),
    ("simulate", base_run_config(space={"family": "su_mn", "m": True, "n": True})),
    ("simulate", base_run_config(space={"family": "sl_kc", "k": 2.5})),
    ("simulate", base_run_config(model={"type": "bc", "kappa": 3.0, "x": 1.0,
                                        "m_ambient": 1.5})),
    ("simulate", base_run_config(model={"type": "orbit", "seed": 1.5})),
    ("simulate", base_run_config(seed=True)),
    ("simulate", base_run_config(monitors=[{"class": "trace_power", "k": 2.9}])),
    ("verify", {"spaces": VERIFY_SPACE, "n_draws": 1.5}),
    ("verify", {"spaces": VERIFY_SPACE, "seed": 0.5}),
    ("verify", {"spaces": [{"family": "su_mn", "m": 2, "n": False}]}),
])
def test_non_integral_integer_is_a_config_error(tmp_path, capsys, command, payload):
    # an integer key holding a bool or a fractional number is not truncated;
    # m_ambient is no model key at all
    cfg = write_config(tmp_path / "cfg.json", payload)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    unknown = "m_ambient" in payload.get("model", {})
    assert capsys.readouterr().err.startswith(
        "error: unknown keys" if unknown else "error: invalid value for")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,payload", [
    ("p", base_run_config(initial={"q": [2.0, 1.0], "p": [math.nan, 0.3]})),
    ("kappa_m", base_run_config(model={"type": "orbit", "kappa_m": math.nan, "x": 0.5})),
    ("t_end", base_run_config(t_end=math.inf)),
    ("sample_dt", base_run_config(sample_dt=math.nan)),
    ("lax_x", base_run_config(lax_x=[math.nan])),
    ("kappa", base_run_config(model={"type": "bc", "kappa": math.nan, "x": 1.0})),
    ("tol", base_run_config(tol=10 ** 400)),  # a JSON integer no float holds
])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, key, payload):
    # Python's json reads NaN and Infinity; a run config holding one exits 1
    # naming the key, and writes nothing
    cfg = write_config(tmp_path / "cfg.json", payload)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: invalid value for {key!r}")
    assert not (tmp_path / "o").exists()


def test_sample_dt_too_small_for_t_end_is_a_config_error(tmp_path):
    # t_end / 5e-324 is not finite: an error line, not an OverflowError
    # traceback, and no file
    cfg = write_config(tmp_path / "cfg.json", base_run_config(sample_dt=5e-324))
    out = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 1
    assert out.stderr.startswith("error: sample_dt is too small for t_end")
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "o").exists()


def test_sample_grid_over_its_size_limit_is_a_config_error(tmp_path, capsys):
    # 10^10 samples would ask numpy for 74.5 GiB: the limit stops the run
    # while its config is parsed, with an error line and no file
    cfg = write_config(tmp_path / "cfg.json", base_run_config(t_end=10.0, sample_dt=1e-9))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: sample_dt is too small for t_end")
    assert not (tmp_path / "o").exists()


def test_nested_initial_point_is_a_config_error(tmp_path):
    # make_phase_point takes stacks of points; a config's q and p are one
    # point's flat lists, so a nested one is an error line, not a TypeError
    # traceback, and no file
    cfg = write_config(tmp_path / "cfg.json", {
        "space": {"family": "su_mn", "m": 2, "n": 2}, "model": {"type": "free"},
        "initial": {"q": [[1.5, 1.0]], "p": [[0.1, 0.2]]}, "t_end": 1.0, "tol": 1e-10})
    out = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 1
    assert out.stderr.startswith("error: invalid value for 'q' in initial")
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "o").exists()


def _nested(depth):
    """Numbers nested in lists to the depth (0: a number alone)."""
    numbers = st.integers(-5, 5) | st.floats(-3.0, 3.0)
    return numbers if depth == 0 else st.lists(_nested(depth - 1), max_size=3)


def _flat(val):
    return isinstance(val, list) and not any(isinstance(v, list) for v in val)


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(["q", "p"]), depth=st.integers(0, 3), data=st.data())
def test_initial_point_must_be_flat_lists_of_its_coordinates(key, depth, data):
    # su(3,2) has two coordinates: any other q or p, a number, a nested list
    # or a flat list of another length, is a ConfigError
    val = data.draw(_nested(depth).filter(lambda v: not (_flat(v) and len(v) == 2)))
    initial = {"q": [2.0, 1.0], "p": [0.1, -0.2], key: val}
    want = "initial data of the bc run" if _flat(val) else f"invalid value for {key!r} in initial"
    with pytest.raises(cli.ConfigError, match=want):
        cli.parse_run(base_run_config(initial=initial))


SU22 = {"family": "su_mn", "m": 2, "n": 2}


@pytest.mark.parametrize("name", ["", ".", "..", "../escape", "a/b", "a\\b", "a\0b"])
def test_run_name_must_be_one_path_component(tmp_path, capsys, name):
    # a batch writes each run to OUT/<name>: a name that is not one path
    # component would write outside OUT, or into it
    cfg = write_config(tmp_path / "cfg.json", {"runs": [base_run_config(name=name, t_end=0.5)]})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o2" / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: invalid value for 'name'")
    assert not (tmp_path / "o2").exists()


@pytest.mark.parametrize("method", ["direct", "projection"])
def test_start_inside_the_wall_margin_stops_the_batch(tmp_path, capsys, method):
    # min alpha(q) = 5e-7 < EPS_WALL: no integrator can step from there, so
    # the batch stops while parsing, before the run well inside writes a file
    runs = [{**free_run("edge", [1.0, 0.9999995], [0.1, 0.3]), "space": SU22},
            {**free_run("inside", [2.0, 1.0], [0.1, 0.3]), "space": SU22}]
    cfg = write_config(tmp_path / "cfg.json", {"runs": runs})
    assert cli.main(["simulate", "--config", cfg, "--method", method,
                     "--out", str(tmp_path / "o")]) == 1
    assert "chamber wall proximity" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@settings(max_examples=30, deadline=None)
@given(gap=st.floats(1e-8, 1e-4), wall=st.sampled_from(["q1-q2", "2q2"]),
       toward=st.booleans(), method=st.sampled_from(["direct", "projection"]))
@example(gap=5e-7, wall="q1-q2", toward=False, method="direct")
@example(gap=1e-6, wall="q1-q2", toward=True, method="direct")
@example(gap=1e-6, wall="2q2", toward=True, method="projection")
def test_near_wall_start_is_a_config_error_or_gets_a_report(gap, wall, toward, method):
    # free su(2,2) motion from min alpha(q) = gap, toward or away from that
    # wall: a start inside the margin is a configuration error (exit 1,
    # nothing written), any other start gets its report
    sign = -1.0 if toward else 1.0
    q, p = (([1.0 + gap, 1.0], [0.1 * sign, -0.1 * sign]) if wall == "q1-q2"
            else ([1.0, gap / 2], [0.0, 0.1 * sign]))
    run = {**free_run("near", q, p), "space": SU22, "t_end": 0.5, "sample_dt": 0.25}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "cfg.json", run)
        code = cli.main(["simulate", "--config", cfg, "--method", method,
                         "--out", str(Path(tmp) / "o")])
        report = Path(tmp) / "o" / "drift_report.json"
        if algebra.min_root_value(algebra.build_space(algebra.SpaceSpec.su(2, 2)),
                                  q) < algebra.EPS_WALL:
            assert code == 1 and not (Path(tmp) / "o").exists()
        else:
            assert code in (0, 2) and report.exists()
            status = json.loads(report.read_text())["status"]
            assert status == ("ok" if code == 0 else "wall_collision")


def test_integral_float_is_an_integer():
    assert cli.parse_space({"family": "su_mn", "m": 3.0, "n": 2}) == algebra.SpaceSpec.su(3, 2)
    for bad in ({"family": "su_mn", "m": 3.9, "n": 2.2}, {"family": "su_mn", "m": True, "n": 1}):
        with pytest.raises(cli.ConfigError):
            cli.parse_space(bad)


@pytest.mark.parametrize("n_draws", [0, -5])
def test_verify_rejects_fewer_than_one_draw(tmp_path, capsys, n_draws):
    cfg = write_config(tmp_path / "v.json", {"spaces": VERIFY_SPACE, "n_draws": n_draws})
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "n_draws must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o" / "verify_report.json").exists()


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_isospectral_and_real_at_zero(tmp_path):
    # L(0) and lax_cal (isospectral with L(1) and L(-1)) are Hermitian: their
    # eigvalsh spectra have imaginary parts of exactly 0 in the CSV, by
    # either method
    for method in ("direct", "projection"):
        cfg = write_config(tmp_path / f"{method}.json", base_run_config(
            lax_x=[-1.0, 0.0, 0.5, 1.0], method=method))
        out = run_cli("spectrum", "--config", cfg, "--out", str(tmp_path / method))
        assert out.returncode == 0, out.stderr
        report = json.loads((tmp_path / method / "spectrum_report.json").read_text())
        for key, drift in report["isospectrality_drift"].items():
            assert drift < 1e-7, (key, drift)
        path = tmp_path / method / "spectrum.csv"
        header = path.read_text().splitlines()[0].split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        for x in ("-1", "0", "1"):
            cols = [j for j, name in enumerate(header) if name.endswith(f"_x={x}_im")]
            assert len(cols) == 5 and not data[:, cols].any()
        cols = [j for j, name in enumerate(header) if name.endswith("_x=0.5_im")]
        assert data[:, cols].any()  # L(0.5) is not normal: a complex pair


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


def test_spectrum_csv_reads_back_the_lax_spectra(tmp_path):
    # 17 significant digits round-trip exactly: per x, the columns
    # ev<i>_x=<x>_re, ev<i>_x=<x>_im read back as the run's lax_spectra
    cfg = write_config(tmp_path / "cfg.json", base_run_config(
        model={"type": "orbit", "kappa_m": 1.5, "kappa_n": 0.5, "x": 0.2, "seed": 3},
        lax_x=[0.0, 0.5, 1.0]))
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    run = cli.parse_run(cli.load_config(cfg))
    traj, = cli.run_trajectories([run])
    path = tmp_path / "o" / "spectrum.csv"
    header = path.read_text().splitlines()[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    N = run.space.N
    assert header[0] == "t" and data[:, 0].tobytes() == traj.times.tobytes()
    for j, x in enumerate(run.lax_x):
        cols = slice(1 + 2 * N * j, 1 + 2 * N * (j + 1))
        assert header[cols] == [f"ev{i + 1}_x={x:g}_{part}"
                                for i in range(N) for part in ("re", "im")]
        got = np.ascontiguousarray(data[:, cols]).view(complex)
        assert got.tobytes() == traj.lax_spectra[x].tobytes()
    assert np.abs(traj.lax_spectra[0.5].imag).max() > 0.0


def test_write_csv_formats_as_the_value_formatter(tmp_path):
    """The row format string writes each value as _fmt does, edge values
    included."""
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((21, 8)) * 10.0 ** rng.integers(-300, 300, size=(21, 8))
    rows[0] = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0 / 3.0, 0.0, -5e-324]
    rows[1, :3] = [1e308, -1.7976931348623157e308, 2.2250738585072014e-308]
    header = [f"c{i}" for i in range(8)]
    path = tmp_path / "rows.csv"
    cli.write_csv(str(path), header, rows)
    want = [",".join(header)] + [",".join(format(float(v), ".17g") for v in row) for row in rows]
    assert path.read_text() == "\n".join(want) + "\n"
    assert path.read_text().splitlines()[1] == (
        "nan,inf,-inf,-0,4.9406564584124654e-324,0.33333333333333331,0,-4.9406564584124654e-324")


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


def test_verify_report_on_sl_spaces(tmp_path):
    cfg = write_config(tmp_path / "v.json", {
        "spaces": [{"family": "sl_kc", "k": 2}, {"family": "sl_kc", "k": 3},
                   {"family": "su_mn", "m": 2, "n": 1}],
        "n_draws": 30, "seed": 3,
    })
    out = run_cli("verify", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 0, out.stderr
    report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
    assert report["all_passed"], [r for r in report["checks"] if not r["passed"]]
    names = [row["name"] for row in report["checks"]]
    for label in ("sl(2,C)", "sl(3,C)"):
        assert f"{label}: slice momentum-map residual (30 draws)" in names
        assert f"{label}: full-invariant brackets vanish" in names
        assert f"{label}: mixed commutator identity" not in names
    assert report["n_checks"] == 2 * 7 + 9 + 1 + 5 + 11 + 22


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


@pytest.mark.parametrize("kappa,x", [("nan", "0.3"), ("inf", "0.3"), ("1.0", "inf")])
def test_couplings_non_finite_exit_1(kappa, x):
    out = run_cli("couplings", "2", kappa, x)
    assert out.returncode == 1
    assert "must be finite" in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize("n,kappa,x", [("2", "1e200", "0.3"), ("2", "1.5e154", "0.3"),
                                     ("1" + "0" * 400, "1.0", "0.0")],
                         ids=["kappa_1e200", "kappa_1.5e154", "n_401_digits"])
def test_couplings_overflow_exit_1(n, kappa, x):
    # g ** 2 overflows at kappa = 1e200, g1 is inf at 1.5e154, and a 401-digit
    # n overflows the float of n x: an error line, not a traceback
    out = run_cli("couplings", n, kappa, x)
    assert out.returncode == 1
    assert out.stderr.startswith("error: the couplings overflow a float")
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize("argv", [[], ["simulate"], ["bogus"], ["couplings", "2", "abc", "0.3"],
                                  ["verify", "--config", "v.json", "--seed", "1.5"]])
def test_usage_errors_exit_1(capsys, argv):
    # argparse exits 2, which is a wall collision here
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_python_dash_m_package_entry():
    out = subprocess.run([sys.executable, "-m", "spincal", "couplings", "1", "1.0", "0.0"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "g1" in out.stdout
