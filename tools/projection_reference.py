"""The projection flow of the su(6,3) or sl(4,C) members of an
``orbit-ensemble`` benchmark config against an mpmath reference.

Usage (from the repository root):

    python3 tools/projection_reference.py --seed 7
    python3 tools/projection_reference.py --seed 7 --src OTHER/src
    python3 tools/projection_reference.py --space sl4c --dps 200 --seed 3 --t-end 30

The members are the runs of ``perfbench/workloads.py``'s
``orbit_ensemble(seed)`` config on the space, sampled every 0.5 to
``--t-end`` (default 10).  The reference is built in mpmath at ``--dps``
digits (default 60) from the double inputs of each run (q0, p0, the spin
coefficients and the basis matrices, all exact in binary):
lax_cal(pt0) = V diag(lambda) V+, S0 = exp(embed(q0)) and
Lambda(t) = S0 V exp(2 t lambda) V+ S0.  On su(6,3), q(t) is half the log
of the top n eigenvalues of Lambda(t).  On sl(4,C) it is half the log of
all k of them, centred; since the smallest eigenvalues are read too, the
reference needs more digits than Lambda(t) spans (200 to t = 30).
p(t) is the derivative of q(t) before centring, by a central difference
of step 1e-25: the flow keeps the mean of p0, which a config's p rounded
to 12 digits may hold (of size 2.5e-13 on seed 7's sl(4,C) members 1 and
2).  Each member's line gives the largest |q - ref| and |p - ref| over the
samples that ``dynamics._projection_at`` returns, or the error that
stopped it and the samples before.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def mp_matrix(mp, X):
    return mp.matrix([[mp.mpc(float(v.real), float(v.imag)) for v in row] for row in X])


def reference(mp, space, pt, times):
    """(q, p) of the exact flow at times, one row per time."""
    from spincal import algebra
    n = space.n_coords
    q0 = [mp.mpf(float(v)) for v in pt.q]
    cal = mp_matrix(mp, algebra.embed(space, pt.p))
    for j in range(space.K):
        alpha = mp.fsum(q0[i] * mp.mpf(float(space.col_coef_t[i, j])) for i in range(n))
        cal -= (mp.mpf(float(pt.xi.coeffs[j])) / mp.sinh(alpha)) * mp_matrix(mp, space.eminus[j])
    lam, V = mp.eighe(cal)
    S0V = mp.expm(mp_matrix(mp, algebra.embed(space, pt.q))) * V  # embed only places q's entries

    def q_at(t):
        lam_t = S0V * mp.diag([mp.exp(2 * t * v) for v in lam]) * S0V.transpose_conj()
        ev = sorted((mp.re(e) for e in mp.eighe(lam_t, eigvals_only=True)), reverse=True)
        return [mp.log(e) / 2 for e in ev[:n]]

    h = mp.mpf("1e-25")
    qs, ps = [], []
    for t in times:
        t = mp.mpf(float(t))
        q = q_at(t)
        if space.spec.family == "sl_kc":
            mean = mp.fsum(q) / n
            q = [v - mean for v in q]
        qs.append([float(v) for v in q])
        ps.append([float((a - b) / (2 * h)) for a, b in zip(q_at(t + h), q_at(t - h))])
    return qs, ps


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--dps", type=int, default=60)
    parser.add_argument("--space", choices=("su63", "sl4c"), default="su63")
    parser.add_argument("--t-end", type=float, default=10.0)
    args = parser.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    import mpmath as mp
    import numpy as np
    import workloads
    from spincal import cli, dynamics
    mp.mp.dps = args.dps
    with tempfile.TemporaryDirectory() as work:
        workloads.orbit_ensemble(args.seed, work)
        with open(os.path.join(work, "ensemble.json"), encoding="utf-8") as fh:
            space = {"su63": workloads.SU63, "sl4c": workloads.SL4}[args.space]
            runs = [r for r in json.load(fh)["runs"] if r["space"] == space]
    times = np.linspace(0.0, args.t_end, int(round(2 * args.t_end)) + 1)
    for raw in runs:
        cfg = cli.parse_run(raw)
        flow = dynamics.InvariantSpec("trace_power", 2)
        lift = dynamics._projection_lift(cfg.space, cfg.pt0, flow)
        got, error = [], ""
        for t in times[1:]:
            try:
                got.append(dynamics._projection_at(cfg.space, lift, float(t)))
            except RuntimeError as exc:
                error = f", then at t = {t:g}: {exc}"
                break
        qs, ps = reference(mp, cfg.space, cfg.pt0, times[1:1 + len(got)])
        dq = max((np.abs(pt.q - q).max() for pt, q in zip(got, qs)), default=0.0)
        dp = max((np.abs(pt.p - p).max() for pt, p in zip(got, ps)), default=0.0)
        print(f"{raw['name']}: t <= {times[len(got)]:g}: max |q - ref| {dq:.2e}, "
              f"max |p - ref| {dp:.2e}{error}")


if __name__ == "__main__":
    main()
