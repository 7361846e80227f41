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
time: on direct runs the time the path reaches min alpha(q) = 1e-6, on
projection runs the last sample before the contact), 3 integration
failure: step-size underflow or more than 5,000,000 accepted steps,
degenerate spectrum, spin off the slice or a failed freezing-gauge
certificate (the report carries the status and the error).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
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
    is given; a value of the wrong JSON type (null or a string for a number,
    a number for a list) or, for a number, a non-finite one is a ConfigError."""
    val = obj.get(key, *default) if default else _need(obj, key, where)
    try:
        return conv(val)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"invalid value for {key!r} in {where}: {val!r}") from None


def _number(val):
    """val if it is a JSON number: a string or a bool is none, whatever it
    would convert to."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError("not a number")
    return val


def _integer(val) -> int:
    """An integer config value: a JSON integer, or a float with an integral
    value; a fractional number is rejected."""
    if not float(_number(val)).is_integer():
        raise ValueError("not an integer")
    return int(val)


def _real(val) -> float:
    """A finite float config value: Python's json reads NaN and Infinity,
    which no config value may be."""
    out = float(_number(val))
    if not math.isfinite(out):
        raise ValueError("not finite")
    return out


def _reals(val) -> list:
    """A flat list of finite floats: a number or a nested list is none."""
    return [_real(v) for v in val]


def _run_name(val) -> str:
    """A run name: a string that is one path component, since a batch writes
    each run to OUT/<name>."""
    if not isinstance(val, str) or val in ("", ".", "..") or any(c in val for c in "/\\\0"):
        raise ValueError("not one path component")
    return val


MODEL_NUMBERS = {"kappa": _real, "x": _real, "kappa_m": _real, "kappa_n": _real,
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


def _orbit_spec(space_spec: SpaceSpec, model: dict) -> orbits.OrbitSpec:
    """The orbit of an orbit model on its space."""
    if space_spec.family == "sl_kc":
        return orbits.OrbitSpec.kks(model.get("kappa", 1.0))
    return orbits.OrbitSpec.su(kappa_m=model.get("kappa_m", 0.0),
                               kappa_n=model.get("kappa_n", 0.0), x=model.get("x", 0.0))


def _initial_spin(space: SymmetricSpaceData, model: dict, seed: int, spins) -> orbits.SpinPoint:
    """The run's initial spin: zero, the catalog model's frozen
    representative, or a random slice point of the orbit drawn with seed,
    from ``spins`` when it holds it (see :func:`_slice_spins`)."""
    mtype = model["type"]
    if mtype == "free":
        return orbits.zero_spin(space)
    if mtype in CATALOG_TYPES:
        return orbits.xi_red(space, "kks" if mtype == "a" else mtype,
                             model.get("kappa", 0.0), model.get("x", 0.0))
    spec = _orbit_spec(space.spec, model)
    return (spins.get((space.spec, spec, seed))
            or orbits.random_slice_spin(space, spec, np.random.default_rng(seed)))


def _run_head(obj: dict, overrides) -> tuple:
    """The effective config object of a run, its space's spec, model and
    seed: what its initial spin depends on."""
    _check_keys(obj, RUN_KEYS, "run config")
    overrides = overrides or {}
    obj = {**obj, **overrides}  # the hash covers the effective config
    space_spec = parse_space(_need(obj, "space", "run config"))
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
    return obj, space_spec, model, seed


def parse_run(obj: dict, default_name: str = "run", overrides=None, spins=None) -> RunConfig:
    """The run of a config object, its initial phase point built: any model,
    orbit or initial-point error is a ConfigError.  ``overrides`` (the
    CLI's ``--method``/``--seed``) are merged into the object first; a
    ``--seed`` also beats the model's own seed.  ``spins`` holds orbit spins
    already drawn, by (space, orbit, seed)."""
    obj, space_spec, model, seed = _run_head(obj, overrides)
    space, mtype = algebra.build_space(space_spec), model["type"]
    initial = _need(obj, "initial", "run config")
    _check_keys(initial, {"q", "p"}, "initial")
    q, p = (_value(initial, key, _reals, "initial") for key in ("q", "p"))
    try:
        pt0 = dynamics.make_phase_point(space, q, p, _initial_spin(space, model, seed, spins or {}))
        # no integrator steps from inside the wall margin, where this raises,
        # or from an energy that overflows
        with np.errstate(over="ignore", invalid="ignore"):
            energy = dynamics.hamiltonian(space, pt0)
        if not math.isfinite(energy):
            raise ValueError(f"the initial energy is not finite (H = {energy})")
    except (ValueError, WallProximityError) as exc:
        raise ConfigError(f"initial data of the {mtype} run on {space_spec.label()}: {exc}") \
            from None

    t_end = _value(obj, "t_end", _real, "run config")
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    tol = _value(obj, "tol", _real, "run config")
    if not (0.0 < tol <= 1e-4):
        raise ConfigError("tol must lie in (0, 1e-4]")
    sample_dt = _value(obj, "sample_dt", _real, "run config") if "sample_dt" in obj else None
    if sample_dt is not None and sample_dt <= 0:
        raise ConfigError("sample_dt must be positive")
    sample_dt, _ = dynamics.sample_grid(t_end, sample_dt)

    monitors = []
    for mon in _value(obj, "monitors", list, "run config", []):
        _check_keys(mon, MONITOR_KEYS, "monitor")
        try:
            spec = InvariantSpec(_need(mon, "class", "monitor"),
                                 _value(mon, "k", _integer, "monitor"),
                                 _value(mon, "x", _real, "monitor", 0.0))
        except ValueError as exc:
            raise ConfigError(str(exc))
        if spec.cls == "block_invariant" and space_spec.family != "su_mn":
            raise ConfigError("block invariants require the su(m,n) family")
        monitors.append(spec)

    lax_x = _value(obj, "lax_x", lambda v: tuple(_reals(v)), "run config", DEFAULT_LAX_X)
    method = obj.get("method", "direct")
    if method not in ("direct", "projection"):
        raise ConfigError("method must be 'direct' or 'projection'")
    gauge = obj.get("gauge", "freeze" if mtype in CATALOG_TYPES else "zero")
    if gauge not in ("zero", "freeze"):
        raise ConfigError("gauge must be 'zero' or 'freeze'")
    if mtype == "free":  # zero spin has no gauge to freeze
        gauge = "zero"
    name = _value(obj, "name", _run_name, "run config", default_name)
    if not isinstance(obj.get("out_dir", "."), str):
        raise ConfigError(f"invalid value for 'out_dir' in run config: {obj['out_dir']!r}")
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
        spins = _slice_spins(raw["runs"], overrides)
        runs = [parse_run(obj, default_name=f"run{i:02d}", overrides=overrides, spins=spins)
                for i, obj in enumerate(raw["runs"])]
        names = [r.name for r in runs]
        if len(set(names)) != len(names):
            raise ConfigError("run names must be unique")
        return runs
    return [parse_run(raw, overrides=overrides)]


def _slice_spins(objs, overrides) -> dict:
    """The initial spins of a batch's orbit runs, by (space, orbit, seed): one
    :class:`orbits.SliceDrawRule` per space and orbit, and one certificate of
    its draws stacked, each draw from its run's own default_rng(seed), as
    :func:`orbits.random_slice_spin` makes it.  A run whose config fails
    before its spin, or whose stack fails the certificate, is left to
    :func:`parse_run`, which raises the first invalid run's error."""
    draws = {}
    for obj in objs:
        try:
            _, space_spec, model, seed = _run_head(obj, overrides)
            if model["type"] == "orbit":
                draws.setdefault((space_spec, _orbit_spec(space_spec, model)), {})[seed] = 0
        except ValueError:  # a ConfigError, or an inadmissible orbit
            continue
    spins = {}
    for (space_spec, spec), seeds in draws.items():
        try:
            rule = orbits.slice_draw_rule(algebra.build_space(space_spec), spec)
            e, r = zip(*(rule.draw(np.random.default_rng(seed)) for seed in seeds))
            stack = rule.spins(None if e[0] is None else np.array(e), np.array(r))
        except ValueError:
            continue
        S, space = len(seeds), rule.space  # a purely central orbit draws nothing: one spin
        spins.update(((space_spec, spec, seed), orbits.SpinPoint(xi=xi, coeffs=c)) for seed, xi, c
                     in zip(seeds, np.broadcast_to(stack.xi, (S, space.N, space.N)),
                            np.broadcast_to(stack.coeffs, (S, space.K))))
    return spins


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
    """One line per row, each value as :func:`_fmt` writes it ("%.17g" is
    the same format, applied to a whole row at once)."""
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * rows.shape[-1])
    atomic_write(path, "\n".join([",".join(header)]
                                 + [line % tuple(row) for row in rows.tolist()]) + "\n")


def write_json(path: str, payload: dict):
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Run execution
# ---------------------------------------------------------------------------

def run_trajectories(runs) -> list:
    """Per run, its Trajectory or the integration failure that stopped it.

    The direct runs that share a gauge, t_end and tol are integrated by one
    :func:`dynamics.integrate_direct_batch` call, whatever their spaces,
    free and spinning runs alike; each keeps its own space, sample_dt and
    monitors (the steps do not depend on the sample grid).  A failure is
    kept as the run's result, so that :func:`cmd_simulate_one` and
    :func:`cmd_spectrum_one` meet it in run order, as if the runs had been
    integrated one after another.
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
        groups.setdefault((cfg.gauge, cfg.t_end, cfg.tol), []).append(i)
    for (gauge, t_end, tol), members in groups.items():
        trajs = dynamics.integrate_direct_batch(
            [runs[i].space for i in members], [runs[i].pt0 for i in members], t_end, tol=tol,
            sample_dt=[runs[i].sample_dt for i in members],
            monitors=[(runs[i].lax_x, runs[i].monitors) for i in members],
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
    write_csv(path, header, np.column_stack([traj.times, traj.path.q, traj.path.p, traj.energy]))
    corrections = {"m_part": traj.m_drift}
    if traj.freeze_residual is not None:
        corrections["freeze_residual"] = traj.freeze_residual
    steps = ({"n_steps": traj.n_steps, "n_rejected": traj.n_rejected, "n_rhs": traj.n_rhs,
              "h_min": traj.h_min, "h_max": traj.h_max, "min_alpha": traj.min_alpha}
             if cfg.method == "direct" else {})
    return {"drift": dynamics.monitor(cfg.space, traj), "corrections": corrections, **steps}


def _spectrum_data(cfg: RunConfig, traj, path: str) -> dict:
    N = cfg.space.N
    header = ["t"]
    for x in traj.lax_x:
        for i in range(N):
            header += [f"ev{i + 1}_x={x:g}_re", f"ev{i + 1}_x={x:g}_im"]
    # a (T, N) complex array viewed as floats is in the ev_i_re, ev_i_im order
    write_csv(path, header, np.column_stack(
        [traj.times] + [traj.lax_spectra[x].view(float) for x in traj.lax_x]))
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


def _run_many(runs, out, worker) -> int:
    """Run every config and write each under its base directory: out if
    given, else the run's own out_dir ("." by default).  A batch writes to
    BASE/<name>/, a single run straight into BASE."""
    codes = []
    for cfg, result in zip(runs, run_trajectories(runs)):
        base = out or cfg.raw.get("out_dir", ".")
        codes.append(worker(cfg, base if len(runs) == 1 else os.path.join(base, cfg.name), result))
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
    try:
        g, g1, g2 = orbits.bc_couplings(args.n, args.kappa, args.x)  # inadmissible: exit 1
        residual = models.coupling_relation_residual(args.n, args.kappa, args.x)
        finite = all(map(math.isfinite, (g, g1, g2, residual)))
    except OverflowError:  # the float of a huge n; overflowing couplings are not finite
        finite = False
    if not finite:
        raise ConfigError(f"the couplings overflow a float (n = {args.n}, "
                          f"kappa = {args.kappa}, x = {args.x})")
    print(f"g  = {_fmt(g)}")
    print(f"g1 = {_fmt(g1)}")
    print(f"g2 = {_fmt(g2)}")
    print(f"relation residual |g1^2 - 2g^2 + sqrt(2) g g2| = {residual:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit with EXIT_CONFIG, not
    argparse's 2, which is EXIT_WALL here; its subparsers are of this class
    too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it:
    parse_args keeps no state between calls."""
    ap = _Parser(
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


def _prepare_runs(args) -> list:
    overrides = {key: val for key, val in (("method", args.method), ("seed", args.seed))
                 if val is not None}
    return parse_runs(load_config(args.config), overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _run_many(_prepare_runs(args), args.out, cmd_simulate_one)
        if args.command == "spectrum":
            return _run_many(_prepare_runs(args), args.out, cmd_spectrum_one)
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
