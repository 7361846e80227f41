"""Per-trajectory throughput of the direct integrator at batch sizes 1, 16
and 256, and on batches of 16 and 256 that span four spaces.

Usage (from the repository root):

    python3 tools/batch_throughput.py --out BENCH_8.json --label change
    python3 tools/batch_throughput.py --src OTHER/src --out BENCH_8.json --label parent

Each batch holds B generic-spin orbit runs on su(3,2) (seeded starts, t_end
2, sample_dt 0.5, tol 1e-10, zero gauge).  The batch is timed as one
``integrate_direct_batch`` call and as B ``integrate_direct`` calls; a
checkout without ``integrate_direct_batch`` is timed one by one only.  The
``mixed`` and ``mixed_256`` rows hold 4 and 64 such runs on each of
su(2,2), su(3,2), su(6,3) and sl(4,C), timed as one ``integrate_direct_batch``
call over all 16 or 256 and as four calls, one per space; a checkout whose
``integrate_direct_batch`` takes one space only is timed per space only.
The median and the minimum of the repeats, in seconds per trajectory, and
the median in trajectories per second are appended, as one run with its
label, to ``throughput.runs`` in the output JSON; other keys of an existing
file are kept.  Alternate the labels over several invocations: the
machine's speed drifts between runs.  BLAS runs single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (1, 16, 256)
MIXED = {"mixed": 4, "mixed_256": 64}  # row name: runs per space of the mixed batches
T_END, SAMPLE_DT, TOL = 2.0, 0.5, 1e-10


def members(size: int, spec=None) -> tuple:
    """A space (su(3,2) by default) and ``size`` seeded generic-spin starts on
    it, with the orbit of ``checks.default_orbit_spec``."""
    import numpy as np
    from spincal import algebra, checks, dynamics, orbits
    space = algebra.build_space(spec or algebra.SpaceSpec.su(3, 2))
    orbit = checks.default_orbit_spec(space)
    n = space.n_coords
    pts = []
    for i in range(size):
        rng = np.random.default_rng([8, i])
        xi = orbits.random_slice_spin(space, orbit, rng)
        q = np.cumsum(rng.uniform(0.6, 1.2, size=n)[::-1])[::-1]
        p = 0.3 * rng.standard_normal(n)
        if space.spec.family == "sl_kc":
            q, p = q - q.mean(), p - p.mean()
        pts.append(dynamics.make_phase_point(space, q, p, xi))
    return space, pts


def mixed_row(runs_per_space: int, repeats: int) -> dict:
    """``runs_per_space`` runs on each of su(2,2), su(3,2), su(6,3) and sl(4,C):
    one batch per space, and one batch of all of them where
    integrate_direct_batch takes one space per member."""
    from spincal import algebra, dynamics
    specs = (algebra.SpaceSpec.su(2, 2), algebra.SpaceSpec.su(3, 2), algebra.SpaceSpec.su(6, 3),
             algebra.SpaceSpec.sl(4))
    groups = [members(runs_per_space, spec) for spec in specs]
    size = sum(len(pts) for _, pts in groups)
    per_space, per_space_min = timed(lambda: [dynamics.integrate_direct_batch(
        space, pts, T_END, tol=TOL, sample_dt=SAMPLE_DT) for space, pts in groups], repeats)
    row = {"per_space_s_per_traj": per_space / size,
           "per_space_min_s_per_traj": per_space_min / size,
           "per_space_traj_per_s": size / per_space}
    spaces = [space for space, pts in groups for _ in pts]
    every = [pt for _, pts in groups for pt in pts]
    try:
        one, one_min = timed(lambda: dynamics.integrate_direct_batch(
            spaces, every, T_END, tol=TOL, sample_dt=SAMPLE_DT), repeats)
    except AttributeError:  # a list of spaces where one space is expected
        return row
    row.update({"one_call_s_per_traj": one / size, "one_call_min_s_per_traj": one_min / size,
                "one_call_traj_per_s": size / one, "speedup_vs_per_space": per_space / one})
    return row


def timed(fn, repeats: int) -> tuple:
    """Median and minimum wall time of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), min(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="source directory holding the spincal package")
    ap.add_argument("--label", required=True, help="name of the measured side, e.g. parent")
    ap.add_argument("--out", required=True, help="JSON file to update")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    from spincal import dynamics
    kwargs = dict(tol=TOL, sample_dt=SAMPLE_DT, lax_x=(0.0, 1.0))
    rows = {}
    for size in SIZES:
        space, pts = members(size)
        one_by_one, one_min = timed(lambda: [dynamics.integrate_direct(space, pt, T_END, **kwargs)
                                             for pt in pts], args.repeats)
        row = {"one_by_one_s_per_traj": one_by_one / size,
               "one_by_one_min_s_per_traj": one_min / size,
               "one_by_one_traj_per_s": size / one_by_one}
        if hasattr(dynamics, "integrate_direct_batch"):
            batch, batch_min = timed(lambda: dynamics.integrate_direct_batch(
                space, pts, T_END, tol=TOL, sample_dt=SAMPLE_DT,
                monitors=[((0.0, 1.0), ())] * size), args.repeats)
            row.update({"batched_s_per_traj": batch / size,
                        "batched_min_s_per_traj": batch_min / size,
                        "batched_traj_per_s": size / batch,
                        "speedup_vs_one_by_one": one_by_one / batch})
        rows[str(size)] = row
        print(f"B = {size}: " + ", ".join(f"{k} {v:.4g}" for k, v in row.items()))

    if hasattr(dynamics, "integrate_direct_batch"):
        for name, runs_per_space in MIXED.items():
            rows[name] = mixed_row(runs_per_space, args.repeats)
            print(f"{name}: " + ", ".join(f"{k} {v:.4g}" for k, v in rows[name].items()))

    payload = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            payload = json.load(fh)
    section = payload.setdefault("throughput", {})
    section["what"] = (f"su(3,2) generic-spin orbit runs, t_end {T_END}, sample_dt {SAMPLE_DT}, "
                       f"tol {TOL}, zero gauge; the mixed and mixed_256 rows: 4 and 64 such "
                       f"runs on each of su(2,2), su(3,2), su(6,3) and sl(4,C); median of "
                       f"{args.repeats} repeats; "
                       "tools/batch_throughput.py")
    section.setdefault("runs", []).append({
        "label": args.label, "numpy": np.__version__, "python": platform.python_version(),
        "machine": platform.machine(), "sizes": rows})
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
