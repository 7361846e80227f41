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
time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__, algebra, checks, dynamics, models, orbits
from .algebra import AdmissibilityError, SpaceSpec, WallProximityError
from .dynamics import InvariantSpec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_WALL = 2

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
MODEL_KEYS = {"type", "kappa", "x", "m_ambient", "kappa_m", "kappa_n", "seed"}
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


def parse_space(obj) -> SpaceSpec:
    _check_keys(obj, SPACE_KEYS, "space")
    family = _need(obj, "family", "space")
    try:
        if family == "su_mn":
            return SpaceSpec.su(int(_need(obj, "m", "space")), int(_need(obj, "n", "space")))
        if family == "sl_kc":
            return SpaceSpec.sl(int(_need(obj, "k", "space")))
    except AdmissibilityError as exc:
        raise ConfigError(str(exc))
    raise ConfigError(f"unknown space family {family!r}")


@dataclass
class RunConfig:
    name: str
    space_spec: SpaceSpec
    model: dict
    q: np.ndarray
    p: np.ndarray
    t_end: float
    tol: float
    sample_dt: float
    monitors: tuple
    lax_x: tuple
    method: str
    gauge: str
    seed: int
    raw: dict = field(repr=False, default_factory=dict)


def parse_run(obj: dict, default_name: str = "run") -> RunConfig:
    _check_keys(obj, RUN_KEYS, "run config")
    space_spec = parse_space(_need(obj, "space", "run config"))
    space = algebra.build_space(space_spec)

    model = _need(obj, "model", "run config")
    _check_keys(model, MODEL_KEYS, "model")
    mtype = _need(model, "type", "model")
    if mtype not in ("free", "bc", "c", "d", "a", "orbit"):
        raise ConfigError(f"unknown model type {mtype!r}")
    if mtype in ("bc", "c", "d", "a"):
        n_model = space_spec.k if mtype == "a" else space_spec.n
        msg = models.validate_params(mtype, n_model, float(model.get("kappa", 0.0)),
                                     float(model.get("x", 0.0)))
        if msg is not None:
            raise ConfigError(f"inadmissible {mtype} model: {msg}")
        expect = {
            "bc": lambda s: s.family == "su_mn" and s.m == s.n + 1,
            "c": lambda s: s.family == "su_mn" and s.m == s.n,
            "d": lambda s: s.family == "su_mn",
            "a": lambda s: s.family == "sl_kc",
        }[mtype]
        if not expect(space_spec):
            raise ConfigError(f"model type {mtype!r} does not live on {space_spec.label()}")

    initial = _need(obj, "initial", "run config")
    _check_keys(initial, {"q", "p"}, "initial")
    q = np.asarray(_need(initial, "q", "initial"), dtype=float)
    p = np.asarray(_need(initial, "p", "initial"), dtype=float)
    if q.shape != (space.n_coords,) or p.shape != (space.n_coords,):
        raise ConfigError(f"initial q and p must have {space.n_coords} components "
                          f"for {space_spec.label()}")
    if space_spec.family == "sl_kc" and (abs(q.sum()) > 1e-9 or abs(p.sum()) > 1e-9):
        raise ConfigError("sl(k,C) coordinates and momenta must sum to zero")
    if not algebra.is_in_chamber(space, q):
        raise ConfigError(f"initial q = {q.tolist()} is not in the open Weyl chamber")

    t_end = float(_need(obj, "t_end", "run config"))
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    tol = float(_need(obj, "tol", "run config"))
    if not (0.0 < tol <= 1e-4):
        raise ConfigError("tol must lie in (0, 1e-4]")
    sample_dt = float(obj.get("sample_dt", t_end / 200.0))
    if sample_dt <= 0:
        raise ConfigError("sample_dt must be positive")

    monitors = []
    for mon in obj.get("monitors", []):
        _check_keys(mon, MONITOR_KEYS, "monitor")
        try:
            spec = InvariantSpec(_need(mon, "class", "monitor"),
                                 int(_need(mon, "k", "monitor")),
                                 float(mon.get("x", 0.0)))
        except ValueError as exc:
            raise ConfigError(str(exc))
        if spec.cls == "block_invariant" and space_spec.family != "su_mn":
            raise ConfigError("block invariants require the su(m,n) family")
        monitors.append(spec)

    lax_x = tuple(float(x) for x in obj.get("lax_x", DEFAULT_LAX_X))
    method = obj.get("method", "direct")
    if method not in ("direct", "projection"):
        raise ConfigError("method must be 'direct' or 'projection'")
    gauge = obj.get("gauge", "freeze" if mtype in ("bc", "c", "d", "a") else "zero")
    if gauge not in ("zero", "freeze"):
        raise ConfigError("gauge must be 'zero' or 'freeze'")
    seed = int(model.get("seed", obj.get("seed", 0)))
    name = obj.get("name", default_name)
    return RunConfig(name=name, space_spec=space_spec, model=dict(model), q=q, p=p,
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


def parse_runs(raw: dict) -> list:
    if "runs" in raw:
        extra = set(raw) - {"runs"}
        if extra:
            raise ConfigError(f"unknown top-level keys next to 'runs': {sorted(extra)}")
        if not isinstance(raw["runs"], list) or not raw["runs"]:
            raise ConfigError("'runs' must be a non-empty list")
        runs = [parse_run(obj, default_name=f"run{i:02d}")
                for i, obj in enumerate(raw["runs"])]
        names = [r.name for r in runs]
        if len(set(names)) != len(names):
            raise ConfigError("run names must be unique")
        return runs
    return [parse_run(raw)]


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


def _report_base(cfg: RunConfig) -> dict:
    return {"tool": "spincal", "version": __version__,
            "config_sha256": config_hash(cfg.raw), "run": cfg.name, "seed": cfg.seed}


# ---------------------------------------------------------------------------
# Run execution
# ---------------------------------------------------------------------------

def build_initial_point(cfg: RunConfig):
    space = algebra.build_space(cfg.space_spec)
    m = cfg.model
    mtype = m["type"]
    if mtype == "free":
        xi = orbits.zero_spin(space)
    elif mtype in ("bc", "c", "d", "a"):
        n_model = cfg.space_spec.k if mtype == "a" else cfg.space_spec.n
        model = models.SpinlessModel(mtype, n_model, float(m.get("kappa", 0.0)),
                                     float(m.get("x", 0.0)),
                                     m_ambient=int(m.get("m_ambient", 0)))
        xi = models.model_spin(space, model)
    else:  # orbit
        rng = np.random.default_rng(cfg.seed)
        if cfg.space_spec.family == "sl_kc":
            spec = orbits.OrbitSpec.kks(float(m.get("kappa", 1.0)))
        else:
            spec = orbits.OrbitSpec.su(kappa_m=float(m.get("kappa_m", 0.0)),
                                       kappa_n=float(m.get("kappa_n", 0.0)),
                                       x=float(m.get("x", 0.0)))
        xi = orbits.random_slice_spin(space, spec, rng)
    return space, dynamics.make_phase_point(space, cfg.q, cfg.p, xi)


def run_trajectory(cfg: RunConfig):
    space, pt0 = build_initial_point(cfg)
    gauge = cfg.gauge if not pt0.xi.is_zero else "zero"
    if cfg.method == "projection":
        n_seg = max(1, int(round(cfg.t_end / cfg.sample_dt)))
        times = np.linspace(0.0, cfg.t_end, n_seg + 1)
        traj = dynamics.projection_trajectory(space, pt0, times, lax_x=cfg.lax_x,
                                              invariants=cfg.monitors, on_wall="truncate")
    else:
        traj = dynamics.integrate_direct(space, pt0, cfg.t_end, tol=cfg.tol,
                                         sample_dt=cfg.sample_dt, lax_x=cfg.lax_x,
                                         invariants=cfg.monitors, gauge=gauge,
                                         on_wall="truncate")
    return space, traj


def cmd_simulate_one(cfg: RunConfig, out_dir: str) -> int:
    space, traj = run_trajectory(cfg)
    nc = space.n_coords
    header = (["t"] + [f"q{i + 1}" for i in range(nc)]
              + [f"p{i + 1}" for i in range(nc)] + ["H"])
    rows = [[t, *pt.q, *pt.p, H]
            for t, pt, H in zip(traj.times, traj.points, traj.energy)]
    write_csv(os.path.join(out_dir, "trajectory.csv"), header, rows)

    report = _report_base(cfg)
    report["method"] = cfg.method
    report["drift"] = dynamics.monitor(space, traj)
    report["corrections"] = {"m_part": traj.m_drift, "orbit_spectrum": traj.orbit_drift}
    if traj.freeze_residual is not None:
        report["corrections"]["freeze_residual"] = traj.freeze_residual
    if traj.wall_time is not None:
        report["status"] = "wall_collision"
        report["last_safe_time"] = traj.wall_time
    else:
        report["status"] = "ok"
    write_json(os.path.join(out_dir, "drift_report.json"), report)
    print(f"[{cfg.name}] wrote {out_dir}/trajectory.csv "
          f"({len(traj)} samples, status {report['status']})")
    return EXIT_WALL if traj.wall_time is not None else EXIT_OK


def cmd_spectrum_one(cfg: RunConfig, out_dir: str) -> int:
    space, traj = run_trajectory(cfg)
    header = ["t"]
    for x in traj.lax_x:
        for i in range(space.N):
            header += [f"ev{i + 1}_x={x:g}_re", f"ev{i + 1}_x={x:g}_im"]
    rows = []
    for idx, t in enumerate(traj.times):
        row = [t]
        for x in traj.lax_x:
            ev = traj.lax_spectra[x][idx]
            for i in range(space.N):
                row += [ev[i].real, ev[i].imag]
        rows.append(row)
    write_csv(os.path.join(out_dir, "spectrum.csv"), header, rows)

    report = _report_base(cfg)
    report["method"] = cfg.method
    report["isospectrality_drift"] = {
        f"x={x:g}": dynamics.monitor(space, traj)["lax_spectra"][x] for x in traj.lax_x}
    if traj.wall_time is not None:
        report["status"] = "wall_collision"
        report["last_safe_time"] = traj.wall_time
    else:
        report["status"] = "ok"
    write_json(os.path.join(out_dir, "spectrum_report.json"), report)
    print(f"[{cfg.name}] wrote {out_dir}/spectrum.csv (status {report['status']})")
    return EXIT_WALL if traj.wall_time is not None else EXIT_OK


def _run_many(runs, out_base, jobs, worker) -> int:
    def _one(cfg):
        out_dir = out_base if len(runs) == 1 else os.path.join(out_base, cfg.name)
        return worker(cfg, out_dir)

    if jobs > 1 and len(runs) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            codes = list(pool.map(_one, runs))
    else:
        codes = [_one(cfg) for cfg in runs]
    return max(codes)


# ---------------------------------------------------------------------------
# verify / couplings
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    raw = load_config(args.config)
    _check_keys(raw, VERIFY_KEYS, "verify config")
    spaces = raw.get("spaces", [])
    if not spaces:
        raise ConfigError("verify config must list at least one space")
    specs = [parse_space(obj) for obj in spaces]
    if args.seed is not None:
        raw = {**raw, "seed": args.seed}  # the hash covers the effective config
    seed = int(raw.get("seed", 0))
    n_draws = int(raw.get("n_draws", 100))
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
    try:
        g, g1, g2 = orbits.bc_couplings(args.n, args.kappa, args.x)
    except AdmissibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
        p.add_argument("--jobs", type=int, default=1,
                       help="run independent config entries concurrently")
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
    raw = load_config(args.config)
    runs = parse_runs(raw)
    overrides = {key: val for key, val in (("method", args.method), ("seed", args.seed))
                 if val is not None}
    for cfg in runs:
        cfg.raw = {**cfg.raw, **overrides}  # the hash covers the effective config
        cfg.method = overrides.get("method", cfg.method)
        cfg.seed = overrides.get("seed", cfg.seed)
    out_base = args.out or runs[0].raw.get("out_dir", ".")
    return runs, out_base


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            runs, out = _prepare_runs(args)
            return _run_many(runs, out, args.jobs, cmd_simulate_one)
        if args.command == "spectrum":
            runs, out = _prepare_runs(args)
            return _run_many(runs, out, args.jobs, cmd_spectrum_one)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "couplings":
            return cmd_couplings(args)
    except (ConfigError, AdmissibilityError, orbits.MembershipError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WallProximityError as exc:
        print(f"wall collision: {exc}", file=sys.stderr)
        return EXIT_WALL
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
