"""In-memory span tracer installed from outside the package.

Public functions of each layer are replaced, by attribute assignment on
their module (``spincal.<module>`` or the scipy boundary), with a wrapper
that records a span: name, start, end, parent span and op id.  Calls that
the package makes through a module attribute or a module global go through
the wrapper; nothing inside ``spincal`` is edited.  Wrappers are installed
only around traced passes and removed afterwards, so untraced passes run
the original functions.

Self time of a span is its duration minus the durations of its direct
child spans (calls are strictly nested: the package is single-threaded).
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (module, attribute, span name).  ``spincal.dynamics._DirectSystem`` is a
# class: its ``__call__`` is one right-hand-side evaluation of the direct
# integrator.
TARGETS = (
    ("spincal.cli", "main", "cli.main"),
    ("spincal.cli", "parse_run", "cli.parse_run"),
    ("spincal.cli", "cmd_simulate_one", "cli.simulate_one"),
    ("spincal.cli", "write_csv", "cli.write_csv"),
    ("spincal.cli", "write_json", "cli.write_json"),
    ("spincal.checks", "basis_checks", "checks.basis_checks"),
    ("spincal.checks", "slice_checks", "checks.slice_checks"),
    ("spincal.checks", "bracket_checks", "checks.bracket_checks"),
    ("spincal.checks", "noninvolution_witness", "checks.noninvolution_witness"),
    ("spincal.checks", "reduction_checks", "checks.reduction_checks"),
    ("spincal.checks", "catalog_checks", "checks.catalog_checks"),
    ("spincal.checks", "freezing_checks", "checks.freezing_checks"),
    ("spincal.models", "model_spin", "models.model_spin"),
    ("spincal.models", "machinery_equals_closed_form", "models.machinery_equals_closed_form"),
    ("spincal.orbits", "emptiness_probe", "orbits.emptiness_probe"),
    ("spincal.orbits", "build_slice_point", "orbits.build_slice_point"),
    ("spincal.orbits", "moment_map", "orbits.moment_map"),
    ("spincal.orbits", "random_slice_spin", "orbits.random_slice_spin"),
    ("spincal.orbits", "eta_of_u", "orbits.eta_of_u"),
    ("spincal.dynamics", "integrate_direct", "dynamics.integrate_direct"),
    ("spincal.dynamics", "freezing_solve", "dynamics.freezing_solve"),
    ("spincal.dynamics", "flow_projection", "dynamics.flow_projection"),
    ("spincal.dynamics", "_attach_monitors", "dynamics.attach_monitors"),
    ("spincal.dynamics", "lax", "dynamics.lax"),
    ("spincal.dynamics", "hamiltonian", "dynamics.hamiltonian"),
    ("spincal.dynamics", "monitor", "dynamics.monitor"),
    ("spincal.dynamics", "bracket_formula", "dynamics.bracket_formula"),
    ("spincal.dynamics", "gradient", "dynamics.gradient"),
    ("spincal.dynamics._DirectSystem", "__call__", "dynamics.rhs"),
    ("spincal.algebra", "build_space", "algebra.build_space"),
    ("spincal.algebra", "decompose", "algebra.decompose"),
    ("spincal.algebra", "reconstruct", "algebra.reconstruct"),
    ("spincal.algebra", "ad_fn", "algebra.ad_fn"),
    ("scipy.optimize", "minimize", "scipy.optimize.minimize"),
    ("scipy.linalg", "expm", "scipy.linalg.expm"),
)

# Each CLI call is one op: every span under a ``cli.main`` span carries its
# op id.  Runs of a batch are told apart by their ``cli.simulate_one`` spans.
OP_SPAN = "cli.main"


def _resolve(path: str):
    """Module or class named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(mod), cls)


class Tracer:
    def __init__(self):
        self.spans = []      # (id, name, start, end, parent id, op id)
        self.stats = {}      # name -> [calls, inclusive s, self s]
        self._stack = []     # [id, child seconds]
        self._next_id = 0
        self._op = -1
        self._saved = []

    def reset(self):
        self.spans = []
        self.stats = {}
        self._op = -1

    def _wrap(self, fn, name):
        tracer = self
        stack = self._stack
        new_op = name == OP_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            if new_op:
                tracer._op += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                st = tracer.stats.get(name)
                if st is None:
                    st = tracer.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                tracer.spans.append((sid, name, start, end, parent, tracer._op))

        return traced

    def install(self):
        for path, attr, name in TARGETS:
            owner = _resolve(path)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write_spans(self, path: str):
        """Spans as CSV, times in seconds from the first span's start."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for sid, name, start, end, parent, op in sorted(self.spans):
                fh.write(f"{sid},{name},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")
