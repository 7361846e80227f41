"""Configuration-driven command line runner.

Subcommands:
    simulate   integrate a configured model and write a trajectory CSV plus
               a JSON drift report
    spectrum   write the time series of sorted Lax eigenvalues at the
               configured spectral parameters plus an isospectrality summary
    verify     run the structural verification battery over a list of spaces
               and write a JSON report
    couplings  print the BC-model couplings (g, g1, g2) and their quadratic
               relation residual

The configuration is a strict JSON file (unknown keys are rejected); see
``CONFIG_KEYS`` below and the README for the schema.  CSV output uses 17
significant digits, '.' decimal and ',' separators; all files are written
to a temporary name and atomically renamed, and outputs are deterministic
for a fixed config and seed.  Exit codes: 0 success, 1 configuration or
usage error, 2 chamber-wall collision (the report carries the last safe
time), 3 integration failure: step-size underflow, degenerate spectrum,
spin off the slice or a failed freezing-gauge certificate (the report
carries the status and the error).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__, algebra, checks, dynamics, models, orbits
from .algebra import (
    AdmissibilityError,
    DegenerateSpectrumError,
    FreezeCertificateError,
    OffSliceError,
    SpaceSpec,
    StepSizeError,
    SymmetricSpaceData,
    WallProximityError,
)
from .dynamics import InvariantSpec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_WALL = 2
EXIT_FAILURE = 3

# integration failures a run reports as its status (exit EXIT_FAILURE)
FAILURE_STATUS = {
    StepSizeError: "step_size_failure",
    DegenerateSpectrumError: "degenerate_spectrum",
    OffSliceError: "off_slice",
    FreezeCertificateError: "freeze_certificate_failure",
}

DEFAULT_LAX_X = (0.0, 0.5, 1.0)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing (strict: unknown keys are errors)
# ---------------------------------------------------------------------------

RUN_KEYS = {
    "name", "space", "model", "initial", "t_end", "tol", "sample_dt",
    "monitors", "lax_x", "method", "gauge", "seed", "out_dir",
}
SPACE_KEYS = {"family", "m", "n", "k"}
MODEL_KEYS = {"type", "kappa", "x", "kappa_m", "kappa_n", "seed"}
CATALOG_TYPES = ("bc", "c", "d", "a")
MONITOR_KEYS = {"class", "k", "x"}
VERIFY_KEYS = {"spaces", "seed", "n_draws"}


def _check_keys(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)} "
                          f"(allowed: {sorted(allowed)})")


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing key {key!r} in {where}")
    return obj[key]


def _value(obj: dict, key: str, conv, where: str, *default):
    """conv(obj[key]), or conv(default) when the key is absent and a default
    is given; a value of the wrong JSON type (null for a number, a number
    for a list) is a ConfigError."""
    val = obj.get(key, *default) if default else _need(obj, key, where)
    try:
        return conv(val)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid value for {key!r} in {where}: {val!r}") from None


def _integer(val) -> int:
    """An integer config value: a JSON integer, or a float with an integral
    value; a bool or a fractional number is rejected."""
    if isinstance(val, bool) or not float(val).is_integer():
        raise ValueError("not an integer")
    return int(val)


MODEL_NUMBERS = {"kappa": float, "x": float, "kappa_m": float, "kappa_n": float,
                 "seed": _integer}


def parse_space(obj) -> SpaceSpec:
    _check_keys(obj, SPACE_KEYS, "space")
    family = _need(obj, "family", "space")
    try:
        if family == "su_mn":
            return SpaceSpec.su(_value(obj, "m", _integer, "space"),
                                _value(obj, "n", _integer, "space"))
        if family == "sl_kc":
            return SpaceSpec.sl(_value(obj, "k", _integer, "space"))
    except AdmissibilityError as exc:
        raise ConfigError(str(exc))
    raise ConfigError(f"unknown space family {family!r}")


@dataclass
class RunConfig:
    name: str
    space: SymmetricSpaceData = field(repr=False, compare=False)
    pt0: dynamics.PhasePoint = field(repr=False, compare=False)
    t_end: float
    tol: float
    sample_dt: float
    monitors: tuple
    lax_x: tuple
    method: str
    gauge: str
    seed: int
    raw: dict = field(repr=False, default_factory=dict)


def _initial_spin(space: SymmetricSpaceData, model: dict, seed: int) -> orbits.SpinPoint:
    """The run's initial spin: zero, the catalog model's frozen
    representative, or a random slice point of the orbit drawn with seed."""
    mtype = model["type"]
    if mtype == "free":
        return orbits.zero_spin(space)
    if mtype in CATALOG_TYPES:
        return models.model_spin(space, models.model_on(
            space.spec, mtype, model.get("kappa", 0.0), model.get("x", 0.0)))
    if space.spec.family == "sl_kc":
        spec = orbits.OrbitSpec.kks(model.get("kappa", 1.0))
    else:
        spec = orbits.OrbitSpec.su(kappa_m=model.get("kappa_m", 0.0),
                                   kappa_n=model.get("kappa_n", 0.0), x=model.get("x", 0.0))
    return orbits.random_slice_spin(space, spec, np.random.default_rng(seed))


def parse_run(obj: dict, default_name: str = "run", overrides=None) -> RunConfig:
    """The run of a config object, its initial phase point built: any model,
    orbit or initial-point error is a ConfigError.  ``overrides`` (the
    CLI's ``--method``/``--seed``) are merged into the object first; a
    ``--seed`` also beats the model's own seed."""
    _check_keys(obj, RUN_KEYS, "run config")
    overrides = overrides or {}
    obj = {**obj, **overrides}  # the hash covers the effective config
    space_spec = parse_space(_need(obj, "space", "run config"))
    space = algebra.build_space(space_spec)

    model = _need(obj, "model", "run config")
    _check_keys(model, MODEL_KEYS, "model")
    model = {key: _value(model, key, MODEL_NUMBERS[key], "model") if key in MODEL_NUMBERS
             else val for key, val in model.items()}
    mtype = _need(model, "type", "model")
    if mtype not in ("free", "orbit", *CATALOG_TYPES):
        raise ConfigError(f"unknown model type {mtype!r}")
    seed = _value(obj, "seed", _integer, "run config", 0)
    if "seed" not in overrides:
        seed = model.get("seed", seed)

    initial = _need(obj, "initial", "run config")
    _check_keys(initial, {"q", "p"}, "initial")
    q, p = (_value(initial, key, lambda v: np.asarray(v, dtype=float), "initial")
            for key in ("q", "p"))
    try:
        pt0 = dynamics.make_phase_point(space, q, p, _initial_spin(space, model, seed))
    except (ValueError, WallProximityError) as exc:
        raise ConfigError(f"initial data of the {mtype} run on {space_spec.label()}: {exc}") \
            from None

    t_end = _value(obj, "t_end", float, "run config")
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    tol = _value(obj, "tol", float, "run config")
    if not (0.0 < tol <= 1e-4):
        raise ConfigError("tol must lie in (0, 1e-4]")
    sample_dt = _value(obj, "sample_dt", float, "run config") if "sample_dt" in obj else None
    if sample_dt is not None and sample_dt <= 0:
        raise ConfigError("sample_dt must be positive")
    sample_dt, _ = dynamics.sample_grid(t_end, sample_dt)

    monitors = []
    for mon in _value(obj, "monitors", list, "run config", []):
        _check_keys(mon, MONITOR_KEYS, "monitor")
        try:
            spec = InvariantSpec(_need(mon, "class", "monitor"),
                                 _value(mon, "k", _integer, "monitor"),
                                 _value(mon, "x", float, "monitor", 0.0))
        except ValueError as exc:
            raise ConfigError(str(exc))
        if spec.cls == "block_invariant" and space_spec.family != "su_mn":
            raise ConfigError("block invariants require the su(m,n) family")
        monitors.append(spec)

    lax_x = _value(obj, "lax_x", lambda v: tuple(float(x) for x in v), "run config",
                   DEFAULT_LAX_X)
    method = obj.get("method", "direct")
    if method not in ("direct", "projection"):
        raise ConfigError("method must be 'direct' or 'projection'")
    gauge = obj.get("gauge", "freeze" if mtype in CATALOG_TYPES else "zero")
    if gauge not in ("zero", "freeze"):
        raise ConfigError("gauge must be 'zero' or 'freeze'")
    name = _value(obj, "name", str, "run config", default_name)
    return RunConfig(name=name, space=space, pt0=pt0,
                     t_end=t_end, tol=tol, sample_dt=sample_dt,
                     monitors=tuple(monitors), lax_x=lax_x, method=method,
                     gauge=gauge, seed=seed, raw=obj)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")


def parse_runs(raw: dict, overrides=None) -> list:
    if "runs" in raw:
        extra = set(raw) - {"runs"}
        if extra:
            raise ConfigError(f"unknown top-level keys next to 'runs': {sorted(extra)}")
        if not isinstance(raw["runs"], list) or not raw["runs"]:
            raise ConfigError("'runs' must be a non-empty list")
        runs = [parse_run(obj, default_name=f"run{i:02d}", overrides=overrides)
                for i, obj in enumerate(raw["runs"])]
        names = [r.name for r in runs]
        if len(set(names)) != len(names):
            raise ConfigError("run names must be unique")
        return runs
    return [parse_run(raw, overrides=overrides)]


def config_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Output helpers (atomic writes, fixed numeric format)
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def atomic_write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list, rows: list):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict):
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Run execution
# ---------------------------------------------------------------------------

def run_trajectories(runs) -> list:
    """Per run, its Trajectory or the integration failure that stopped it.

    The direct runs that share a space, effective gauge, zero or nonzero
    spin, t_end, sample_dt and tol are integrated by one
    :func:`dynamics.integrate_direct_batch` call; each keeps its own
    monitors.  A failure is kept as the run's result, so that
    :func:`cmd_simulate_one` and :func:`cmd_spectrum_one` meet it in run
    order, as if the runs had been integrated one after another.
    """
    results = [None] * len(runs)
    groups = {}
    for i, cfg in enumerate(runs):
        if cfg.method == "projection":
            try:
                results[i] = dynamics.projection_trajectory(
                    cfg.space, cfg.pt0, dynamics.sample_grid(cfg.t_end, cfg.sample_dt)[1],
                    lax_x=cfg.lax_x, invariants=cfg.monitors, on_wall="truncate")
            except tuple(FAILURE_STATUS) as exc:
                results[i] = exc
            continue
        free = cfg.pt0.xi.is_zero
        key = (cfg.space.spec, "zero" if free else cfg.gauge, free,
               cfg.t_end, cfg.sample_dt, cfg.tol)
        groups.setdefault(key, []).append(i)
    for (_, gauge, _, t_end, sample_dt, tol), members in groups.items():
        trajs = dynamics.integrate_direct_batch(
            runs[members[0]].space, [runs[i].pt0 for i in members], t_end, tol=tol,
            sample_dt=sample_dt, monitors=[(runs[i].lax_x, runs[i].monitors) for i in members],
            gauge=gauge, on_wall="truncate")
        for i, traj in zip(members, trajs):
            results[i] = traj
    return results


def _write_run(cfg: RunConfig, out_dir: str, result, data_name: str, report_name: str,
               write_data) -> int:
    """Write a run's data file and report from its entry of
    :func:`run_trajectories`; write_data(cfg, traj, path) writes the data
    file and returns the report's own fields.  A failed run gets a report
    with its status and error, and a data file that an earlier run left in
    out_dir is removed: it would pass for this run's output."""
    data_path = os.path.join(out_dir, data_name)
    report = {"tool": "spincal", "version": __version__, "config_sha256": config_hash(cfg.raw),
              "run": cfg.name, "seed": cfg.seed, "method": cfg.method}
    if isinstance(result, Exception):
        if os.path.exists(data_path):
            os.remove(data_path)
        report["status"] = next(status for cls, status in FAILURE_STATUS.items()
                                if isinstance(result, cls))
        report["error"] = str(result)
        write_json(os.path.join(out_dir, report_name), report)
        print(f"[{cfg.name}] integration failed ({report['status']}): {result}",
              file=sys.stderr)
        return EXIT_FAILURE
    report.update(write_data(cfg, result, data_path))
    report["status"] = "ok" if result.wall_time is None else "wall_collision"
    if result.wall_time is not None:
        report["last_safe_time"] = result.wall_time
    write_json(os.path.join(out_dir, report_name), report)
    print(f"[{cfg.name}] wrote {data_path} ({len(result)} samples, status {report['status']})")
    return EXIT_WALL if result.wall_time is not None else EXIT_OK


def _trajectory_data(cfg: RunConfig, traj, path: str) -> dict:
    nc = cfg.space.n_coords
    header = (["t"] + [f"q{i + 1}" for i in range(nc)]
              + [f"p{i + 1}" for i in range(nc)] + ["H"])
    write_csv(path, header, [[t, *pt.q, *pt.p, H]
                             for t, pt, H in zip(traj.times, traj.points, traj.energy)])
    corrections = {"m_part": traj.m_drift, "orbit_spectrum": traj.orbit_drift}
    if traj.freeze_residual is not None:
        corrections["freeze_residual"] = traj.freeze_residual
    return {"drift": dynamics.monitor(cfg.space, traj), "corrections": corrections}


def _spectrum_data(cfg: RunConfig, traj, path: str) -> dict:
    N = cfg.space.N
    header = ["t"]
    for x in traj.lax_x:
        for i in range(N):
            header += [f"ev{i + 1}_x={x:g}_re", f"ev{i + 1}_x={x:g}_im"]
    rows = []
    for idx, t in enumerate(traj.times):
        row = [t]
        for x in traj.lax_x:
            ev = traj.lax_spectra[x][idx]
            for i in range(N):
                row += [ev[i].real, ev[i].imag]
        rows.append(row)
    write_csv(path, header, rows)
    drift = dynamics.monitor(cfg.space, traj)["lax_spectra"]
    return {"isospectrality_drift": {f"x={x:g}": drift[x] for x in traj.lax_x}}


def cmd_simulate_one(cfg: RunConfig, out_dir: str, result) -> int:
    """Write a run's trajectory.csv and drift_report.json."""
    return _write_run(cfg, out_dir, result, "trajectory.csv", "drift_report.json",
                      _trajectory_data)


def cmd_spectrum_one(cfg: RunConfig, out_dir: str, result) -> int:
    """Write a run's spectrum.csv and spectrum_report.json."""
    return _write_run(cfg, out_dir, result, "spectrum.csv", "spectrum_report.json",
                      _spectrum_data)


def _run_many(runs, out_base, worker) -> int:
    codes = [worker(cfg, out_base if len(runs) == 1 else os.path.join(out_base, cfg.name),
                    result)
             for cfg, result in zip(runs, run_trajectories(runs))]
    return max(codes)


# ---------------------------------------------------------------------------
# verify / couplings
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    raw = load_config(args.config)
    _check_keys(raw, VERIFY_KEYS, "verify config")
    spaces = _value(raw, "spaces", list, "verify config", [])
    if not spaces:
        raise ConfigError("verify config must list at least one space")
    specs = [parse_space(obj) for obj in spaces]
    if args.seed is not None:
        raw = {**raw, "seed": args.seed}  # the hash covers the effective config
    seed = _value(raw, "seed", _integer, "verify config", 0)
    n_draws = _value(raw, "n_draws", _integer, "verify config", 100)
    if n_draws < 1:
        raise ConfigError("n_draws must be at least 1")
    report = checks.run_verify(specs, seed=seed, n_draws=n_draws)
    report.update({"tool": "spincal", "version": __version__,
                   "config_sha256": config_hash(raw)})
    for row in report["checks"]:
        status = "pass" if row["passed"] else "FAIL"
        print(f"[{status}] {row['name']}: residual {row['residual']:.3e} "
              f"(tol {row['tol']:.1e})")
    out_dir = args.out or "."
    write_json(os.path.join(out_dir, "verify_report.json"), report)
    print(f"verify: {report['n_checks'] - report['n_failed']}/{report['n_checks']} "
          f"checks passed; report in {out_dir}/verify_report.json")
    return EXIT_OK


def cmd_couplings(args) -> int:
    g, g1, g2 = orbits.bc_couplings(args.n, args.kappa, args.x)  # inadmissible: exit 1
    residual = models.coupling_relation_residual(args.n, args.kappa, args.x)
    print(f"g  = {_fmt(g)}")
    print(f"g1 = {_fmt(g1)}")
    print(f"g2 = {_fmt(g2)}")
    print(f"relation residual |g1^2 - 2g^2 + sqrt(2) g g2| = {residual:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spincal",
        description="Hyperbolic spin Calogero models: simulation and verification")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--method", choices=["direct", "projection"],
                       help="override the integration method")
        p.add_argument("--seed", type=int, help="override the sampling seed")
        p.add_argument("--out", default=None, help="output directory")

    p_sim = sub.add_parser("simulate", help="integrate and write trajectory + drift report")
    add_common(p_sim)
    p_spec = sub.add_parser("spectrum", help="write sorted Lax eigenvalue time series")
    add_common(p_spec)

    p_ver = sub.add_parser("verify", help="run the structural verification battery")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--out", default=None, help="output directory")

    p_cpl = sub.add_parser("couplings", help="print BC couplings and relation residual")
    p_cpl.add_argument("n", type=int)
    p_cpl.add_argument("kappa", type=float)
    p_cpl.add_argument("x", type=float)
    return ap


def _prepare_runs(args) -> tuple:
    overrides = {key: val for key, val in (("method", args.method), ("seed", args.seed))
                 if val is not None}
    runs = parse_runs(load_config(args.config), overrides)
    return runs, args.out or runs[0].raw.get("out_dir", ".")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            runs, out = _prepare_runs(args)
            return _run_many(runs, out, cmd_simulate_one)
        if args.command == "spectrum":
            runs, out = _prepare_runs(args)
            return _run_many(runs, out, cmd_spectrum_one)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "couplings":
            return cmd_couplings(args)
    except ValueError as exc:  # ConfigError and the admissibility errors among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WallProximityError as exc:
        print(f"wall collision: {exc}", file=sys.stderr)
        return EXIT_WALL
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
