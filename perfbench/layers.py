"""Run-time instrumentation of huskysim, installed from outside the package.

Nothing in ``src/`` is edited. Each public function that forms a layer
boundary is replaced, for the duration of a ``with`` block, by a wrapper
that records a span; the replacement is made in every huskysim module that
holds the function (``sim`` imports most of them by name) and is undone on
exit. Spans nest, so each one's self time is its duration minus the time of
the spans it caused.

Two levels exist:

* ``TickStamps`` alone: the untraced run. It stamps the start of
  ``_LegTracker.update_plan`` and the return of ``MpcController.step``, which
  bound one control tick (gait plan, IK snapshot, reference, model builds,
  QP assembly and solve; the plant step is outside).
* ``Tracer``: the traced run. It adds one span per layer and the counters
  below, and reports the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import ExitStack, contextmanager

import numpy as np

from huskysim import cli, dynamics, gait, mpc, qp, robot, rotations, sim, svgplot

_MODULES = (cli, dynamics, gait, mpc, qp, robot, rotations, sim, svgplot)

_clock = time.perf_counter


@contextmanager
def _swapped(owner, name, make_wrapper):
    """Replace ``owner.name`` (and every module alias of it) while the block runs."""
    original = getattr(owner, name)
    wrapper = functools.wraps(original)(make_wrapper(original))
    holders = [(owner, name)] if isinstance(owner, type) else [
        (mod, attr) for mod in _MODULES for attr, val in vars(mod).items() if val is original
    ]
    for holder, attr in holders:
        setattr(holder, attr, wrapper)
    try:
        yield
    finally:
        for holder, attr in holders:
            setattr(holder, attr, original)


class TickStamps:
    """Control-tick latencies, in seconds, from update_plan start to step return."""

    def __init__(self):
        self.latencies: list[float] = []
        self._start = None
        self.on_tick_start = None  # optional hook, called with no arguments

    def _update_plan(self, original):
        def wrapper(*args, **kwargs):
            self._start = _clock()
            if self.on_tick_start is not None:
                self.on_tick_start()
            return original(*args, **kwargs)

        return wrapper

    def _step(self, original):
        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            self.latencies.append(_clock() - self._start)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        with _swapped(sim._LegTracker, "update_plan", self._update_plan), _swapped(
            mpc.MpcController, "step", self._step
        ):
            yield self


# layer span -> the functions whose calls make it up, as (owner, attribute)
SPANS = {
    "qp.solve": [(qp, "solve")],
    "robot.ik": [(robot, "leg_inverse_kinematics")],
    "dynamics.model_build": [(dynamics, "build_continuous_model"), (dynamics, "discretize")],
    "dynamics.centroidal_accel": [(dynamics, "centroidal_accel")],
    "mpc.assemble": [(mpc, "assemble_qp")],
    "mpc.condense": [(mpc, "condense")],
    "mpc.constraints": [(mpc, "input_constraints")],
    "gait.trot_schedule": [(gait, "trot_schedule")],
    "gait.swing": [(gait, "eval_swing"), (gait, "build_swing_curve")],
    "sim.plant_step": [(sim, "step")],
    "sim.log_append": [(sim.SimLog, "append")],
    "sim.contact_check": [(sim, "check_contact_legality"), (sim, "friction_ratios")],
    "cli.load_config": [(cli, "load_config")],
    "cli.to_csv": [(sim.SimLog, "to_csv")],
    "cli.summarize": [(cli, "summarize")],
    "cli.plots": [(cli, "write_plots")],
}


class Tracer:
    """Layer spans and counters for one traced pass; aggregated in memory."""

    def __init__(self, ticks: TickStamps):
        self.ticks = ticks
        self.calls = {name: 0 for name in SPANS}
        self.self_s = {name: 0.0 for name in SPANS}
        self.durations = {name: [] for name in SPANS}
        self._stack: list[list] = []  # per open span: [time covered by its child spans]
        self.tick_index = -1
        self.ik_per_tick: dict[int, float] = {}
        self.ik_failures = 0
        self.counts = Counter()  # calls made inside the spans, and how many raised
        self.qp_iters: list[int] = []
        self.qp_active: list[int] = []
        self.warm_rows = 0
        self.warm_kept = 0
        self.constraint_rows: list[int] = []

    def _span(self, name, original):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = _clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[0]
                self.durations[name].append(elapsed)

        return wrapper

    def _observe(self, name, span_wrapper):
        """Per-layer counts read from a span's arguments, result or exception."""
        if name == "qp.solve":

            def wrapper(problem, *args, **kwargs):
                sol = span_wrapper(problem, *args, **kwargs)
                warm = kwargs.get("warm_active")
                if warm:
                    self.warm_rows += len(warm)
                    self.warm_kept += len(set(warm) & set(sol.active_set))
                self.qp_iters.append(sol.iterations)
                self.qp_active.append(len(sol.active_set))
                return sol

        elif name == "robot.ik":

            def wrapper(*args, **kwargs):
                try:
                    return span_wrapper(*args, **kwargs)
                except robot.NoConvergence:
                    self.ik_failures += 1
                    raise
                finally:
                    spent = self.durations[name][-1]
                    self.ik_per_tick[self.tick_index] = self.ik_per_tick.get(self.tick_index, 0.0) + spent

        elif name == "mpc.constraints":

            def wrapper(*args, **kwargs):
                G, h = span_wrapper(*args, **kwargs)
                self.constraint_rows.append(G.shape[0])
                return G, h

        else:
            return span_wrapper
        return wrapper

    def _counted(self, key, failure=()):
        def make(original):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                try:
                    return original(*args, **kwargs)
                except failure:
                    self.counts[key + ".failed"] += 1
                    raise

            return wrapper

        return make

    def _next_tick(self):
        self.tick_index += 1

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for name, targets in SPANS.items():
                for owner, attr in targets:
                    stack.enter_context(
                        _swapped(owner, attr, lambda f, n=name: self._observe(n, self._span(n, f)))
                    )
            for owner, attr, failure in (
                (qp, "cho_factor", np.linalg.LinAlgError),
                (robot, "leg_jacobian", ()),
                (dynamics, "build_continuous_model", ()),
            ):
                stack.enter_context(_swapped(owner, attr, self._counted(attr, failure)))
            self.ticks.on_tick_start = self._next_tick
            try:
                yield self
            finally:
                self.ticks.on_tick_start = None

    def metrics(self, ticks: int, tick_latencies_untraced: list[float], deadline_s: float,
                log_bytes: int) -> dict:
        """Per-layer metrics of the traced pass, by name, as (value, unit)."""
        solve_ms = np.array(self.durations["qp.solve"]) * 1e3
        solves = max(len(solve_ms), 1)
        iters = np.array(self.qp_iters or [0])
        ik_calls = self.calls["robot.ik"]
        untraced = np.array(tick_latencies_untraced or [0.0])

        def per_call_us(name):
            d = self.durations[name]
            return float(np.mean(d)) * 1e6 if d else 0.0

        return {
            "qp.solve_s": (self.self_s["qp.solve"], "s"),
            "qp.solve_p50_ms": (float(np.percentile(solve_ms, 50)) if solve_ms.size else 0.0, "ms"),
            "qp.solve_p99_ms": (float(np.percentile(solve_ms, 99)) if solve_ms.size else 0.0, "ms"),
            "qp.solve_max_ms": (float(solve_ms.max()) if solve_ms.size else 0.0, "ms"),
            "qp.iters_mean": (float(iters.mean()), "count"),
            "qp.iters_p99": (float(np.percentile(iters, 99)), "count"),
            "qp.active_mean": (float(np.mean(self.qp_active or [0])), "rows"),
            "qp.factorizations_per_solve": (self.counts["cho_factor"] / solves, "count"),
            "qp.factor_failures": (self.counts["cho_factor.failed"], "count"),
            "qp.warm_kept_frac": (self.warm_kept / self.warm_rows if self.warm_rows else 0.0, "frac"),
            "robot.ik_s": (self.self_s["robot.ik"], "s"),
            "robot.ik_calls": (ik_calls, "count"),
            "robot.ik_iters": (self.counts["leg_jacobian"], "count"),
            "robot.ik_fail_frac": (self.ik_failures / ik_calls if ik_calls else 0.0, "frac"),
            "robot.ik_tick_max_ms": (max(self.ik_per_tick.values(), default=0.0) * 1e3, "ms"),
            "dynamics.model_build_s": (self.self_s["dynamics.model_build"], "s"),
            "dynamics.model_builds_per_tick": (self.counts["build_continuous_model"] / max(ticks, 1), "count"),
            "dynamics.centroidal_accel_us": (per_call_us("dynamics.centroidal_accel"), "us"),
            "mpc.assemble_s": (self.self_s["mpc.assemble"], "s"),
            "mpc.condense_s": (self.self_s["mpc.condense"], "s"),
            "mpc.constraints_s": (self.self_s["mpc.constraints"], "s"),
            "mpc.constraint_rows": (float(np.mean(self.constraint_rows or [0])), "rows"),
            "mpc.deadline_miss_frac": (float(np.mean(untraced > deadline_s)), "frac"),
            "gait.trot_schedule_calls": (self.calls["gait.trot_schedule"], "count"),
            "gait.trot_schedule_s": (self.self_s["gait.trot_schedule"], "s"),
            "gait.swing_s": (self.self_s["gait.swing"], "s"),
            "sim.plant_step_s": (self.self_s["sim.plant_step"], "s"),
            "sim.plant_step_us": (per_call_us("sim.plant_step"), "us"),
            "sim.log_append_s": (self.self_s["sim.log_append"], "s"),
            "sim.contact_check_s": (self.self_s["sim.contact_check"], "s"),
            "sim.steps": (self.calls["sim.plant_step"], "count"),
            "cli.load_config_s": (self.self_s["cli.load_config"], "s"),
            "cli.to_csv_s": (self.self_s["cli.to_csv"], "s"),
            "cli.summarize_s": (self.self_s["cli.summarize"], "s"),
            "cli.plots_s": (self.self_s["cli.plots"], "s"),
            "cli.log_bytes": (log_bytes, "bytes"),
        }
