"""Tracing of one synthesis from outside gramsynth.

The program gets no tracing inside it.  `installed` swaps, for the length
of one traced synthesis, the module attributes through which
``gramsynth.picard`` reaches each layer for wrappers that record a span
(name, start, end, parent) around the call.  Finer calls get counters
instead of spans, because they run up to millions of times a synthesis:

* ``integrate`` as ``gramsynth.flow`` and ``gramsynth.systems`` import it
  counts solves, accepted and rejected steps (read from the returned
  `DenseSolution`) and right-hand-side calls (through a counted copy of
  the problem's vector field);
* ``DenseSolution.eval`` counts dense-output evaluations;
* the four callables of the system count calls, through a counted copy of
  the system made with `dataclasses.replace`;
* evaluations of synthesized controls are counted and timed; their time is
  charged to the span that encloses them, so that span's self time
  excludes it.

Spans stay in memory until the run record is written.  A boundary that
the program no longer has (say ``chain_input_products`` once chain
products come from an adjoint solve) is listed in ``absent``.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from gramsynth import controls, flow, ode, picard, systems

# Boundaries of gramsynth.picard, as metric names.
PICARD_SPANS = {
    "apply_general_map": "picard.map",
    "apply_minimum_energy_map": "picard.map",
    "solve_trajectory": "flow.trajectory",
    "flow_input_products": "flow.flow_products",
    "chain_input_products": "flow.chain_products",
    "residual": "flow.residual",
    "assemble_symmetric_from_samples": "gramian.assemble",
    "assemble_mixed_from_samples": "gramian.assemble",
    "solve_gramian": "gramian.solve",
    "endpoint_error": "picard.telemetry",
    "fixed_point_error": "picard.telemetry",
    "control_energy": "picard.telemetry",
}
ROOT = "picard.run"
# Per-layer metrics: self times of these spans (as <name>_s) and counters.
TIMED = ("flow.chain_products", "flow.flow_products", "flow.trajectory",
         "flow.residual", "gramian.assemble", "gramian.solve",
         "picard.telemetry")
COUNTED = ("flow.product_samples", "gramian.solves_cholesky",
           "gramian.solves_lu", "gramian.solves_lstsq", "ode.solves",
           "ode.steps", "ode.rejected_steps", "ode.rhs_calls",
           "ode.dense_evals", "systems.drift_calls",
           "systems.jacobian_calls", "controls.evals")


class Tracer:
    """Spans and counters of one traced synthesis."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, leaf time]
        self._open = []        # indices of the spans being timed
        self.counts = Counter()
        self.control_eval_s = 0.0
        self.absent = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def spanned(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timed_control(self, fn, points):
        """Control evaluation, timed and charged to the enclosing span."""
        def wrapper(ctrl, t):
            tic = time.perf_counter()
            out = fn(ctrl, t)
            dt = time.perf_counter() - tic
            self.control_eval_s += dt
            self.counts["controls.evals"] += points(t)
            if self._open:
                self.spans[self._open[-1]][4] += dt
            return out
        return wrapper

    def traced_integrate(self, fn):
        counts = self.counts

        def wrapper(problem, *args, **kwargs):
            problem = replace(problem, vector_field=self.counted(
                "ode.rhs_calls", problem.vector_field))
            sol = fn(problem, *args, **kwargs)
            counts["ode.solves"] += 1
            counts["ode.steps"] += sol.n_accepted
            counts["ode.rejected_steps"] += sol.n_rejected
            return sol
        return wrapper

    def counted_problem(self, problem):
        """A copy of problem whose system counts its four callables."""
        s = problem.system
        jac = "systems.jacobian_calls"
        system = replace(
            s, drift=self.counted("systems.drift_calls", s.drift),
            input_matrix=self.counted("systems.input_matrix_calls",
                                      s.input_matrix),
            drift_jacobian=self.counted(jac, s.drift_jacobian),
            closed_loop_jacobian=self.counted(jac, s.closed_loop_jacobian))
        return replace(problem, system=system)

    def _count_products(self, out):
        self.counts["flow.product_samples"] += len(out)

    def _count_solve(self, out):
        self.counts[f"gramian.solves_{out.method}"] += 1

    # -- summaries ----------------------------------------------------------

    def self_times(self):
        """Self time of every span: duration minus child spans and leaves."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, leaf in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] - leaf
                for i, (name, start, end, parent, leaf) in
                enumerate(self.spans)]

    def metrics(self) -> dict:
        """Per-layer metrics of the traced synthesis."""
        selfs = self.self_times()
        by_name = Counter(dict.fromkeys(PICARD_SPANS.values(), 0.0))
        for (name, *_), s in zip(self.spans, selfs):
            by_name[name] += s
        root = next(sp for sp in self.spans if sp[0] == ROOT)
        synth = root[2] - root[1]
        starts = [sp[1] for sp in self.spans if sp[0] == "picard.map"]
        passes = [b - a for a, b in zip(starts, starts[1:] + [root[2]])]
        c = self.counts
        steps, rejected = c["ode.steps"], c["ode.rejected_steps"]
        out = {f"{name}_s": by_name[name] for name in TIMED}
        out.update({name: c[name] for name in COUNTED})
        out["ode.step_acceptance"] = steps / max(steps + rejected, 1)
        out["controls.eval_s"] = self.control_eval_s
        out["picard.passes"] = len(passes)
        out["picard.pass_s"] = statistics.median(passes) if passes else 0.0
        # share of synth_s charged to a named layer (not to the root or
        # to the map's own glue code)
        out["trace.span_coverage"] = 1.0 - (by_name[ROOT]
                                            + by_name["picard.map"]) / synth
        return out

    def record(self) -> dict:
        """Spans, counters and absent boundaries for the run record."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [{"name": n, "start": s - t0, "end": e - t0,
                       "parent": p, "leaf_s": leaf}
                      for n, s, e, p, leaf in self.spans],
            "self_s": self.self_times(),
            "counts": dict(self.counts),
            "control_eval_s": self.control_eval_s,
            "absent": self.absent,
        }


def _swap(saved, owner, attr, new):
    saved.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, new)


@contextmanager
def installed(tracer: Tracer):
    """Route gramsynth's layer boundaries through ``tracer`` meanwhile."""
    saved = []
    hooks = {"flow_input_products": tracer._count_products,
             "chain_input_products": tracer._count_products,
             "solve_gramian": tracer._count_solve}
    try:
        for attr, name in PICARD_SPANS.items():
            if hasattr(picard, attr):
                _swap(saved, picard, attr, tracer.spanned(
                    name, getattr(picard, attr), hooks.get(attr)))
            else:
                tracer.absent.append(f"gramsynth.picard.{attr}")
        for module in (flow, systems):
            if hasattr(module, "integrate"):
                _swap(saved, module, "integrate",
                      tracer.traced_integrate(module.integrate))
            else:
                tracer.absent.append(f"{module.__name__}.integrate")
        _swap(saved, ode.DenseSolution, "eval", tracer.counted(
            "ode.dense_evals", ode.DenseSolution.eval))
        sc = controls.SynthesizedControl
        _swap(saved, sc, "__call__",
              tracer.timed_control(sc.__call__, lambda t: 1))
        _swap(saved, sc, "eval_many",
              tracer.timed_control(sc.eval_many, np.size))
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
