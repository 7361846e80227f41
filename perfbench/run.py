"""spincal benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload orbit-ensemble --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh single Python process (``worker.py``) with
OMP/OpenBLAS/MKL pinned to one thread.  Set-up time is measured from spawn
to the worker's READY line; it is taken from the measured process plus
``SETUP_SPAWNS`` set-up-only processes (half started before it, half after)
and the median is reported.  Reported times are calibrated to a reference
machine speed (see calib.py); the raw times are printed beside them.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Everything else (environment, per-op
results and digests, spans) goes to ``.perfbench_out/`` in the checkout.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("orbit-ensemble", "catalog-cli", "verify")
SETUP_SPAWNS = 4
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150

# Per-layer metrics: (metric name, span name, field, unit).
LAYER_METRICS = [
    ("dynamics.rhs.calls", "dynamics.rhs", "calls", "count"),
    ("dynamics.rhs.self_s", "dynamics.rhs", "self_s", "s"),
    ("dynamics.rhs.us_per_call", "dynamics.rhs", "us_per_call", "us"),
    ("dynamics.integrate_direct.calls", "dynamics.integrate_direct", "calls", "count"),
    ("dynamics.integrate_direct.self_s", "dynamics.integrate_direct", "self_s", "s"),
    ("dynamics.freezing_solve.calls", "dynamics.freezing_solve", "calls", "count"),
    ("dynamics.freezing_solve.self_s", "dynamics.freezing_solve", "self_s", "s"),
    ("dynamics.freezing_solve.us_per_call", "dynamics.freezing_solve", "us_per_call", "us"),
    ("dynamics.flow_projection.calls", "dynamics.flow_projection", "calls", "count"),
    ("dynamics.flow_projection.self_s", "dynamics.flow_projection", "self_s", "s"),
    ("dynamics.flow_projection.us_per_call", "dynamics.flow_projection", "us_per_call", "us"),
    ("scipy.optimize.minimize.calls", "scipy.optimize.minimize", "calls", "count"),
    ("scipy.optimize.minimize.self_s", "scipy.optimize.minimize", "self_s", "s"),
    ("scipy.linalg.expm.calls", "scipy.linalg.expm", "calls", "count"),
    ("scipy.linalg.expm.self_s", "scipy.linalg.expm", "self_s", "s"),
    ("dynamics.attach_monitors.self_s", "dynamics.attach_monitors", "self_s", "s"),
    ("dynamics.lax.self_s", "dynamics.lax", "self_s", "s"),
    ("dynamics.hamiltonian.self_s", "dynamics.hamiltonian", "self_s", "s"),
    ("dynamics.monitor.self_s", "dynamics.monitor", "self_s", "s"),
]
for _fn in ("dynamics.bracket_formula", "dynamics.gradient", "algebra.decompose",
            "algebra.reconstruct", "algebra.ad_fn", "orbits.emptiness_probe",
            "orbits.build_slice_point", "orbits.moment_map", "orbits.random_slice_spin"):
    LAYER_METRICS += [(f"{_fn}.calls", _fn, "calls", "count"),
                      (f"{_fn}.self_s", _fn, "self_s", "s")]
LAYER_METRICS.append(("orbits.eta_of_u.calls", "orbits.eta_of_u", "calls", "count"))
for _fn in ("checks.basis_checks", "checks.slice_checks", "checks.bracket_checks",
            "checks.noninvolution_witness", "checks.reduction_checks",
            "checks.catalog_checks", "checks.freezing_checks", "models.model_spin",
            "models.machinery_equals_closed_form", "cli.main", "cli.parse_run",
            "cli.write_csv", "cli.write_json", "algebra.build_space"):
    LAYER_METRICS.append((f"{_fn}.self_s", _fn, "self_s", "s"))
EXTRA_LAYER_METRICS = [
    ("cli.out_bytes", "B"),
    ("setup.import_s", "s"),
    ("setup.build_space_s", "s"),
    ("trace.overhead_s", "s"),
]


def _die(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _spawn(workload, seed, seconds, trace, workdir, setup_only) -> tuple:
    """Start one worker; returns (spawn-to-READY seconds, its JSON line)."""
    env = dict(os.environ, **THREAD_PINS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0)
    try:
        # read the READY line unbuffered, so communicate() gets the rest
        first = b""
        while not first.endswith(b"\n"):
            if not select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
                raise subprocess.TimeoutExpired(cmd, CHILD_TIMEOUT_S)
            byte = os.read(proc.stdout.fileno(), 1)
            if not byte:
                break
            first += byte
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = [ln for ln in rest.decode().splitlines() if ln.strip()]
    if first.strip() != b"READY" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} failed (exit {proc.returncode})")
    return ready, json.loads(lines[-1])


def _environment(versions: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "thread_pins": THREAD_PINS,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        **versions,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unavailable"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _source_digest() -> str:
    """SHA-256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "spincal")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _earlier_digests(workload: str, seed: int, source: str) -> list:
    """Per-op output digests of earlier results for this workload and seed
    (either trace mode) measured on the same sources: the README promises
    byte-identical outputs for a fixed config and seed."""
    found = []
    for trace in (0, 1):
        path = os.path.join(ROOT, ".perfbench_out", workload, f"seed{seed}-trace{trace}",
                            "result.json")
        try:
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
        except (OSError, ValueError):
            continue
        if rec.get("environment", {}).get("source_sha256") == source:
            found.append({op["name"]: op["digests"] for op in rec["worker"]["ops"]})
    return found


def _layer_metrics(summary: dict) -> dict:
    layers = summary["layers"]
    out = {}
    for metric, span, fld, unit in LAYER_METRICS:
        st = layers.get(span, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        if fld == "us_per_call":
            value = 1e6 * st["incl_s"] / st["calls"] if st["calls"] else 0.0
        else:
            value = st[fld]
        out[metric] = {"value": value, "unit": unit}
    traced = statistics.median(summary["traced_pass_wall_s"])
    extra = {"cli.out_bytes": summary["out_bytes"],
             "setup.import_s": summary["setup"]["import_s"],
             "setup.build_space_s": summary["setup"]["build_space_s"],
             "trace.overhead_s": traced - summary["wall_raw_s"]}
    for metric, unit in EXTRA_LAYER_METRICS:
        out[metric] = {"value": extra[metric], "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spincal", "cli.py")):
        return _die("src/spincal not found next to perfbench/; run from a spincal checkout")

    base = os.path.join(ROOT, ".perfbench_out", args.workload,
                        f"seed{args.seed}-trace{args.trace}")
    setup_times = []   # (raw seconds, calibration kernel seconds)

    def setup_spawn(i):
        ready, out = _spawn(args.workload, args.seed, args.seconds, args.trace,
                            os.path.join(base, f"setup{i}"), setup_only=True)
        setup_times.append((ready, out["kernel_s"]))

    try:
        # half the set-up-only spawns before the measured process and half
        # after it, so the samples span the run
        for i in range(SETUP_SPAWNS // 2):
            setup_spawn(i)
        ready, summary = _spawn(args.workload, args.seed, args.seconds, args.trace,
                                os.path.join(base, "work"), setup_only=False)
        setup_times.append((ready, summary["setup_kernel_s"]))
        for i in range(SETUP_SPAWNS // 2, SETUP_SPAWNS):
            setup_spawn(i)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return _die(str(exc))

    failed_frac = summary["failed"] / summary["attempted"]
    e2e = {
        "setup_s": {"value": statistics.median(raw * calib.REF_S / kern
                                               for raw, kern in setup_times), "unit": "s"},
        "wall_s": {"value": summary["wall_s"], "unit": "s"},
        "ok_frac": {"value": 1.0 - failed_frac, "unit": "ratio"},
        "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
    }
    shown = dict(e2e,
                 setup_raw_s={"value": statistics.median(raw for raw, _ in setup_times),
                              "unit": "s"},
                 wall_raw_s={"value": summary["wall_raw_s"], "unit": "s"},
                 kernel_s={"value": statistics.median(summary["kernel_s"]), "unit": "s"},
                 failed_frac={"value": failed_frac, "unit": "ratio"},
                 tol_use_max={"value": summary["tol_use_max"], "unit": "ratio"})
    metrics = _layer_metrics(summary) if args.trace else e2e
    env = _environment(summary["versions"])
    digests = {op["name"]: op["digests"] for op in summary["ops"]}
    earlier = _earlier_digests(args.workload, args.seed, env["source_sha256"])
    repeat_ok = all(d == digests for d in earlier)
    correct = summary["correct"] and repeat_ok
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "end_to_end": shown,
              "setup_samples_s": setup_times, "metrics": metrics, "correct": correct,
              "earlier_runs_compared": len(earlier), "earlier_digests_match": repeat_ok,
              "worker": summary}
    with open(os.path.join(base, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{summary['passes']} passes, {summary['attempted']} ops attempted, "
          f"{summary['failed']} failed, {summary['walls']} wall exits")
    for name, m in shown.items():
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    for name, gate, value in summary["failures"]:
        print(f"  failed op: {name} [{gate}] {value:.3g}")
    if not summary["deterministic"]:
        print("  outputs differ between passes of this run")
    if earlier:
        print(f"  output digests {'match' if repeat_ok else 'DIFFER from'} "
              f"{len(earlier)} earlier run(s) with this seed and source")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()
                                         if k != "thread_pins") + ", threads pinned to 1")
    print(f"  details: {os.path.relpath(os.path.join(base, 'result.json'), ROOT)}")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
