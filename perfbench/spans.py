"""Outside-in tracing of the library's layers, from the benchmark's own files.

The library is not instrumented.  Instead, :class:`Tracer` replaces, for the
duration of one traced pass, the module attributes that ``pipeline`` and
``harness`` look up at call time with wrappers that record a span per call
and read counters off the arguments and results.  :meth:`Tracer.uninstall`
puts the original functions back, so an untraced pass runs the library
untouched.

A span holds its name, start, end, parent span and cell id.  Spans stay in
memory and are written once, when the run ends.  A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from subspace_bandit import envs, harness, pipeline

# (module, attribute looked up at call time, span name).  run_cablp is
# reached through pipeline (the direct workloads) or harness (the sweep).
WRAPPED = (
    (pipeline, "run_cablp", "pipeline.run"),
    (harness, "run_cablp", "pipeline.run"),
    (pipeline, "optimal_value", "envs.optimal_value"),
    (pipeline, "best_on_subspace", "envs.best_on_subspace"),
    (pipeline, "draw_sampling_sets", "sampling.draw"),
    (pipeline, "collect_measurements", "sampling.collect"),
    (pipeline, "recover_subspace", "recovery.solve"),
    (pipeline, "run_phase2", "bandit.phase2"),
    (harness, "run_experiment", "harness.sweep"),
    (harness, "record_to_dict", "harness.record_to_dict"),
    (harness, "dump_json", "harness.dump_json"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: Optional[int] = None
    cell: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _oracle_points(env, kwargs) -> int:
    """Grid points one oracle call generates: (ceil(2r / h) + 1) ** k.

    Mirrors the grid the oracle searches (radius r = 1 + nu, resolution h,
    per-k default when none is passed), plus any extra candidates.  Reads 0
    when the library no longer exposes a grid resolution.
    """
    resolution = kwargs.get("resolution")
    if resolution is None:
        default = getattr(envs, "default_resolution", None)
        if default is None:
            return 0
        resolution = default(env.k)
    axis = math.ceil(2.0 * (1.0 + env.nu) / resolution) + 1
    extra = kwargs.get("extra_candidates")
    return axis**env.k + (0 if extra is None else len(extra))


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._cell: Optional[int] = None
        self._n_cells = 0
        self._saved: list = []

    # ---------- installation ----------

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            # queries already spent, for the one call that spends them here
            before = args[0].query_count if name == "sampling.collect" else None
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            _observe(self.spans[span], args, kwargs, result, before)
            return result

        return traced

    def _open(self, name: str) -> int:
        if name == "pipeline.run":
            self._cell = self._n_cells
            self._n_cells += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, cell=self._cell))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()
        if self.spans[index].name == "pipeline.run":
            self._cell = None

    # ---------- reporting ----------

    def self_time(self, index: int) -> float:
        """Duration minus the union of the child spans' intervals."""
        span = self.spans[index]
        children = sorted(
            (s.start, s.end) for s in self.spans if s.parent == index
        )
        covered = 0.0
        reach = span.start
        for start, end in children:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span.duration - covered

    def check_nesting(self) -> list:
        """Problems with the span tree: open spans, children outside parents."""
        problems = []
        for i, span in enumerate(self.spans):
            if not span.end >= span.start:
                problems.append(f"span {i} ({span.name}) never closed")
            elif span.parent is not None:
                parent = self.spans[span.parent]
                if span.start < parent.start or span.end > parent.end:
                    problems.append(f"span {i} ({span.name}) escapes its parent")
        return problems

    def cell_queries(self) -> list:
        """(horizon n, queries spent) per traced pipeline run, in call order."""
        return [
            (s.attrs["n"], s.attrs["queries"])
            for s in self.spans
            if s.name == "pipeline.run" and "queries" in s.attrs
        ]

    def layer_metrics(self, bytes_written: int) -> dict:
        """Per-layer metric values (without units) for this traced pass."""

        def named(name):
            return [i for i, s in enumerate(self.spans) if s.name == name]

        def total(name):
            return sum((self.spans[i].duration for i in named(name)), 0.0)

        def attr_sum(name, key):
            return sum(self.spans[i].attrs.get(key, 0) for i in named(name))

        solves = named("recovery.solve")
        phase2 = named("bandit.phase2")
        iters = attr_sum("recovery.solve", "iterations")
        rounds = attr_sum("bandit.phase2", "rounds")
        solve_s = total("recovery.solve")
        phase2_s = total("bandit.phase2")
        return {
            "envs.optimal_value_s": total("envs.optimal_value"),
            "envs.best_on_subspace_s": total("envs.best_on_subspace"),
            "envs.oracle_calls": len(named("envs.optimal_value")) + len(named("envs.best_on_subspace")),
            "envs.oracle_points": attr_sum("envs.optimal_value", "points")
            + attr_sum("envs.best_on_subspace", "points"),
            "envs.queries": attr_sum("pipeline.run", "queries"),
            "sampling.draw_s": total("sampling.draw"),
            "sampling.collect_s": total("sampling.collect"),
            "sampling.phase1_queries": attr_sum("sampling.collect", "queries"),
            "sampling.sketch_bytes": max(
                (self.spans[i].attrs["sketch_bytes"] for i in named("sampling.draw")), default=0
            ),
            "recovery.solve_s": solve_s,
            "recovery.fista_iters": iters,
            "recovery.outer_rounds": attr_sum("recovery.solve", "outer_rounds"),
            "recovery.ms_per_iter": 1e3 * solve_s / iters if iters else 0.0,
            "recovery.grad_flops": attr_sum("recovery.solve", "grad_flops"),
            "recovery.feasible_frac": attr_sum("recovery.solve", "feasible") / len(solves) if solves else 0.0,
            "bandit.phase2_s": phase2_s,
            "bandit.rounds": rounds,
            "bandit.us_per_round": 1e6 * phase2_s / rounds if rounds else 0.0,
            "bandit.n_arms": attr_sum("bandit.phase2", "n_arms") / len(phase2) if phase2 else 0.0,
            "pipeline.run_s": total("pipeline.run"),
            "pipeline.self_s": sum((self.self_time(i) for i in named("pipeline.run")), 0.0),
            "harness.sweep_s": total("harness.sweep"),
            "harness.self_s": sum((self.self_time(i) for i in named("harness.sweep")), 0.0),
            "harness.write_s": total("harness.record_to_dict") + total("harness.dump_json"),
            "harness.bytes_written": bytes_written,
        }

    def dump(self, path) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "cell": s.cell,
                "self_s": self.self_time(i),
                **s.attrs,
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")


# ---------- counters read at the layer boundaries ----------


def _observe(span: Span, args, kwargs, result, before) -> None:
    name = span.name
    attrs = span.attrs
    if name == "pipeline.run":
        env, params = args[0], args[1]
        attrs["n"] = int(params.n)
        attrs["queries"] = int(env.query_count)
    elif name in ("envs.optimal_value", "envs.best_on_subspace"):
        attrs["points"] = _oracle_points(args[0], kwargs)
    elif name == "sampling.draw":
        sets = result
        # the direction array plus the flat operator the solver builds from it
        attrs["sketch_bytes"] = 2 * sets.directions.nbytes
    elif name == "sampling.collect":
        attrs["queries"] = int(args[0].query_count - before)
    elif name == "recovery.solve":
        problem = args[0]
        m_phi = problem.y.shape[0]
        m_x, d = problem.sets.points.shape
        info = result.info
        attrs["iterations"] = int(info.iterations)
        attrs["outer_rounds"] = int(info.outer_rounds)
        attrs["feasible"] = int(bool(info.feasible))
        # one FISTA gradient: F @ z and F.T @ r, 2 flops per entry of F each
        attrs["grad_flops"] = 4 * m_phi * d * m_x * int(info.iterations)
    elif name == "bandit.phase2":
        attrs["rounds"] = int(len(result.arm_ids))
        attrs["n_arms"] = int(result.grid.n_arms)
