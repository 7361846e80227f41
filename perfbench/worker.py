"""One workload process: set-up, then timed passes over the op list.

Started by ``run.py``.  Prints ``READY`` once set-up is done (import of
``spincal.cli``, ``build_space`` for the workload's spaces, configs from the
seed); with ``--setup-only`` it exits there.  Otherwise it runs passes of
the workload's CLI calls in-process through ``spincal.cli.main(argv)``
until ``--seconds`` have gone by, checks the outputs of every pass, and
prints one JSON summary as its last stdout line.

The calibration kernel (``calib.py``) runs right after ``READY`` and after
every pass; ``wall_s`` is the mean pass time converted to the kernel's
reference speed, ``wall_raw_s`` the plain median.

With ``--trace 1`` passes alternate between untraced and traced; the traced
ones report per-layer figures and the difference of the two medians is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _setup(workload: str, seed: int, workdir: str) -> tuple:
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spincal.cli as cli
    t1 = time.perf_counter()
    import workloads
    for space in workloads.spaces_of(workload):
        cli.algebra.build_space(cli.parse_space(space))
    t2 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    calls = workloads.GENERATORS[workload](seed, workdir)
    t3 = time.perf_counter()
    parts = {"import_s": t1 - t0, "build_space_s": t2 - t1, "configs_s": t3 - t2}
    return cli, calls, parts


def _run_pass(cli, calls) -> tuple:
    """Run every call of the op list; returns wall seconds and per-call
    (exit code, error text)."""
    outcomes = []
    sink = io.StringIO()
    t0 = time.perf_counter()
    for call in calls:
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code, err = cli.main(call.argv), ""
        except (Exception, SystemExit) as exc:  # escaped: the op failed
            code, err = None, f"{type(exc).__name__}: {exc}"
        outcomes.append((code, err))
    return time.perf_counter() - t0, outcomes


def _check_pass(workdir: str, calls, outcomes) -> list:
    import checker
    results = []
    direct_csv = {}
    for call, (code, err) in zip(calls, outcomes):
        if not call.ops:
            results += checker.check_verify(workdir, code, err)
            continue
        for op in call.ops:
            results.append(checker.check_run(workdir, op, code, err, direct_csv))
    return results


def _layer_figures(stats_per_pass: list) -> dict:
    """Per-pass figures from the traced passes: calls of the last pass and
    median self / inclusive seconds over passes."""
    names = sorted({n for st in stats_per_pass for n in st})
    out = {}
    for name in names:
        incl = statistics.median(st.get(name, [0, 0.0, 0.0])[1] for st in stats_per_pass)
        self_s = statistics.median(st.get(name, [0, 0.0, 0.0])[2] for st in stats_per_pass)
        out[name] = {"calls": stats_per_pass[-1].get(name, [0])[0],
                     "self_s": self_s, "incl_s": incl}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli, calls, setup_parts = _setup(args.workload, args.seed, args.workdir)
    print("READY", flush=True)
    import calib
    setup_kernel_s = calib.kernel_seconds()  # calibrates this process's set-up
    if args.setup_only:
        print(json.dumps({"setup": setup_parts, "kernel_s": setup_kernel_s}), flush=True)
        return 0

    import checker
    import numpy as np
    import scipy
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()

    walls = {False: [], True: []}
    kernels = []
    stats_per_pass = []
    out_bytes = 0
    results_all = []
    digests = None
    deterministic = True
    start = time.perf_counter()
    n_pass = 0
    while True:
        traced = bool(tracer) and n_pass % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, outcomes = _run_pass(cli, calls)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        kernels.append(calib.kernel_seconds())
        if traced:
            stats_per_pass.append({k: list(v) for k, v in tracer.stats.items()})
        results = _check_pass(args.workdir, calls, outcomes)
        results_all += results
        pass_digests = {r.name: r.digests for r in results}
        if digests is None:
            digests = pass_digests
            out_bytes = sum(r.out_bytes for r in results)
        elif pass_digests != digests:
            deterministic = False
        n_pass += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (not tracer or n_pass >= 2):
            break

    attempted = len(results_all)
    failed = [r for r in results_all if r.status == "failed"]
    surprises = checker.unexpected(results_all)
    summary = {
        "passes": n_pass,
        "pass_wall_s": walls[False],
        "kernel_s": kernels,
        "setup_kernel_s": setup_kernel_s,
        "wall_raw_s": statistics.median(walls[False]),
        # ratio of means: both move linearly with the share of time the
        # machine spent in its fast state during the run
        "wall_s": statistics.fmean(walls[False]) * calib.REF_S / statistics.fmean(kernels),
        "attempted": attempted,
        "failed": len(failed),
        "walls": sum(r.status == "wall" for r in results_all),
        "tol_use_max": max((r.tol_use for r in results_all), default=0.0),
        "deterministic": deterministic,
        "unexpected_failures": sorted({(r.name, r.gate) for r in surprises}),
        "failures": [[name, gate, value] for (name, gate), value
                     in {(r.name, r.gate): r.value for r in failed}.items()],
        "correct": deterministic and not surprises,
        "setup": setup_parts,
        "ops": [r.row() for r in results_all[:attempted // n_pass]],
        "out_bytes": out_bytes,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        summary["traced_pass_wall_s"] = walls[True]
        summary["layers"] = _layer_figures(stats_per_pass)
        tracer.write_spans(os.path.join(args.workdir, "spans.csv"))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
