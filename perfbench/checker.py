"""Output checker: classifies every op of a pass against the README gates.

An op is ``ok``, ``wall`` (exit 2 with ``last_safe_time`` in its report,
the documented chamber-wall outcome) or ``failed``.  A failed op records
the gate it broke and the measured value.  Gates, as multiples of the
README tolerances (``tol_use`` = error / tolerance, 1 or more fails):

    energy        relative energy drift                      1e-7
    lax           Lax-spectrum drift, worst spectral parameter 1e-7
    frozen-spin   |H(t) - H_closed(q(t), p(t))| / max(1, |H|) 1e-7
                  on direct freezing-gauge catalog runs
    agreement     max |q, p| difference, projection vs direct 1e-6
    <check name>  each verify check: residual / its own tol

The frozen-spin gate reads the spin through the energy: the trajectory CSV
carries ``H`` evaluated on the integrated spin, and the closed form below
is the catalog Hamiltonian of the frozen spin, written here from the README
and ``spincal.models`` so that it does not come from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

TOL_ENERGY = 1e-7
TOL_LAX = 1e-7
TOL_FROZEN = 1e-7
TOL_AGREEMENT = 1e-6

# Known program defect, recorded and not fixed here: on the README verify
# config (seed 0) these two su(3,2) checks come out at 1.16e-10 and
# 1.75e-10 against their absolute tol of 1e-10.  They count as failed ops;
# they do not make a run incorrect.  Any other failure does.
KNOWN_FAILURES = frozenset({
    "su(3,2): mixed brackets vanish at unit parameter",
    "su(3,2): mixed commutator identity",
})

# JSON has no infinity; an infinite residual is reported as this value.
TOL_USE_CAP = 1e300


@dataclass
class OpResult:
    name: str
    status: str                # "ok" | "wall" | "failed"
    tol_use: float = 0.0       # worst error / tolerance over the op's gates
    gate: str = ""             # the worst (or failing) gate
    value: float = 0.0         # measured error at that gate
    digests: dict = field(default_factory=dict)
    out_bytes: int = 0

    def row(self) -> dict:
        return {"name": self.name, "status": self.status, "tol_use": self.tol_use,
                "gate": self.gate, "value": self.value, "digests": self.digests}


def _sha256(path: str) -> tuple:
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), len(data)


def _gate(res: OpResult, gate: str, value: float, tol: float):
    use = value / tol if math.isfinite(value) else TOL_USE_CAP
    use = min(use, TOL_USE_CAP)
    if use > res.tol_use or not res.gate:
        res.tol_use, res.gate, res.value = use, gate, float(value)
    if not use < 1.0:
        res.status = "failed"


def _fail(res: OpResult, gate: str, value: float = float("nan")) -> OpResult:
    res.status, res.gate, res.value, res.tol_use = "failed", gate, value, TOL_USE_CAP
    return res


def _read_csv(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


# ---------------------------------------------------------------------------
# Closed-form catalog Hamiltonians (the frozen-spin reference)
# ---------------------------------------------------------------------------

def _pairs(q):
    i, j = np.triu_indices(q.size, k=1)
    return q[i] - q[j], q[i] + q[j]


def _isinh2(z):
    return float(np.sum(1.0 / np.sinh(z) ** 2))


def closed_form_h(model: dict, q: np.ndarray, p: np.ndarray) -> float:
    kind, kappa, x = model["type"], model.get("kappa", 0.0), model.get("x", 0.0)
    n = q.size
    val = 0.5 * float(p @ p)
    diff, summ = _pairs(q)
    if kind == "a":
        return val + kappa ** 2 * _isinh2(diff)
    if kind == "bc":
        g = (kappa + x) / 2.0
        g1_sq = (kappa + x) * (kappa - n * x) / 2.0
        g2_sq = ((n + 1) * x) ** 2 / 2.0
        return (val + g1_sq * _isinh2(q) + g2_sq * _isinh2(2.0 * q)
                + g ** 2 * (_isinh2(diff) + _isinh2(summ)))
    val += kappa ** 2 / 4.0 * (_isinh2(diff) + _isinh2(summ))
    if kind == "c":
        val += n ** 2 * x ** 2 / 2.0 * _isinh2(2.0 * q)
    return val


# ---------------------------------------------------------------------------
# simulate ops
# ---------------------------------------------------------------------------

def check_run(workdir: str, op, code, error: str, direct_csv: dict) -> OpResult:
    """Classify one simulate run from its files and its call's exit code.

    ``direct_csv`` maps direct-op names to their parsed CSV, filled here and
    read by projection ops for the agreement gate.
    """
    res = OpResult(name=op.name, status="ok")
    if error:
        return _fail(res, f"exception: {error}")
    out = os.path.join(workdir, op.out_dir)
    csv_path = os.path.join(out, "trajectory.csv")
    rep_path = os.path.join(out, "drift_report.json")
    if not os.path.exists(rep_path):
        return _fail(res, f"report missing (exit {code})")
    if not os.path.exists(csv_path):
        return _fail(res, f"trajectory missing (exit {code})")
    for label, path in (("trajectory.csv", csv_path), ("drift_report.json", rep_path)):
        res.digests[label], size = _sha256(path)
        res.out_bytes += size
    with open(rep_path, encoding="utf-8") as fh:
        report = json.load(fh)

    status = report.get("status")
    if status == "wall_collision":
        if code != 2 or not isinstance(report.get("last_safe_time"), (int, float)):
            return _fail(res, f"wall report without exit 2 and last_safe_time (exit {code})")
        res.status = "wall"
    elif status != "ok" or code not in (0, 2):
        return _fail(res, f"status {status!r}, exit {code}")

    drift = report["drift"]
    _gate(res, "energy", drift["energy"], TOL_ENERGY)
    _gate(res, "lax", max(drift["lax_spectra"].values(), default=0.0), TOL_LAX)

    header, data = _read_csv(csv_path)
    nc = (len(header) - 2) // 2
    if op.kind == "direct":
        direct_csv[op.name] = data
        worst = 0.0
        for row in data:
            q, p, h = row[1:1 + nc], row[1 + nc:1 + 2 * nc], row[-1]
            ref = closed_form_h(op.model, q, p)
            worst = max(worst, abs(h - ref) / max(1.0, abs(ref)))
        _gate(res, "frozen-spin", worst, TOL_FROZEN)
    elif op.kind == "projection":
        twin = direct_csv.get(op.twin)
        if twin is None:
            return _fail(res, f"no direct twin {op.twin}")
        rows = min(len(twin), len(data))
        diff = np.abs(twin[:rows, 1:1 + 2 * nc] - data[:rows, 1:1 + 2 * nc]).max()
        _gate(res, "agreement", float(diff), TOL_AGREEMENT)
    return res


# ---------------------------------------------------------------------------
# verify ops
# ---------------------------------------------------------------------------

def check_verify(workdir: str, code, error: str) -> list:
    """One op per check in ``verify_report.json``."""
    rep_path = os.path.join(workdir, "out", "verify_report.json")
    if error or code != 0 or not os.path.exists(rep_path):
        why = f"exception: {error}" if error else f"report missing or exit {code}"
        return [_fail(OpResult(name="verify", status="failed"), why)]
    digest, size = _sha256(rep_path)
    with open(rep_path, encoding="utf-8") as fh:
        report = json.load(fh)
    out = []
    for row in report["checks"]:
        res = OpResult(name=row["name"], status="ok")
        _gate(res, row["name"], float(row["residual"]), float(row["tol"]))
        if (res.status == "ok") != bool(row["passed"]):
            _fail(res, "passed flag disagrees with residual < tol", float(row["residual"]))
        out.append(res)
    if report.get("n_checks") != len(out):
        out.append(_fail(OpResult(name="verify", status="failed"), "n_checks mismatch"))
    # the report is one file: its digest and size go with the first op
    out[0].digests["verify_report.json"] = digest
    out[0].out_bytes = size
    return out


def unexpected(results: list) -> list:
    """Failed ops that are not the recorded known failures."""
    return [r for r in results if r.status == "failed" and r.name not in KNOWN_FAILURES]
