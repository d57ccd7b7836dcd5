"""Span recorder for traced benchmark rounds, and the per-layer metrics.

``install`` wraps the functions named in ``TARGETS`` in every namespace where
a caller looks them up (names bound by ``from ... import`` live in the
caller's module, so wrapping the home module alone would miss those calls).
Each call records a span (name, start, end, parent span, job) in flat arrays
kept in memory; ``SpanRecorder.dump`` writes them out at the end of a round.

A span's self time is its duration minus that of its direct child spans.  A
function metric ``<layer>.<fn>_s`` is the time spent inside the calls
(children included); ``<layer>.self_s`` sums the self time of the layer's
spans, so the layer self times partition the traced time.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from areaflow import cli, conditions, curvature, evolution, flow, profile, spaces

# (module, attribute path in that module, span name)
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "run", "flow.run"),
    ("flow", "_run_equivariant", "flow._run_equivariant"),
    ("flow", "_eq_rhs", "flow._eq_rhs"),
    ("flow", "_rho_derivatives", "flow._rho_derivatives"),
    ("flow", "equivariant_dt", "flow.equivariant_dt"),
    ("flow", "equivariant_monitor", "flow.eq_monitor"),
    ("flow", "equivariant_rhs", "flow.eq_monitor"),
    ("flow", "_run_torus", "flow._run_torus"),
    ("flow", "torus_step", "flow.torus_step"),
    ("flow", "torus_rhs", "flow.torus_rhs"),
    ("flow", "_torus_df", "flow._torus_df"),
    ("flow", "_torus_eta_inv", "flow._torus_eta_inv"),
    ("flow", "torus_monitor", "flow.torus_monitor"),
    ("flow", "torus_evolution_residual", "flow.torus_evolution_residual"),
    ("flow", "_torus_term_one", "flow._torus_term_one"),
    ("spaces", "BackgroundPath.metric_factor", "spaces.metric_factor"),
    ("spaces", "bounds", "spaces.bounds"),
    ("conditions", "space_bounds", "spaces.bounds"),
    ("cli", "space_bounds", "spaces.bounds"),
    ("spaces", "bounds_of", "curvature.bounds_of"),
    ("curvature", "bounds_of", "curvature.bounds_of"),
    ("curvature", "sectional_range", "curvature.sectional_range"),
    ("curvature", "ric3_min", "curvature.ric3_min"),
    ("curvature", "chi_ic1", "curvature.chi_ic1"),
    ("conditions", "audit_conditions", "conditions.audit_conditions"),
    ("cli", "audit_conditions", "conditions.audit_conditions"),
    ("cli", "sweep_algebra", "evolution.sweep_algebra"),
    ("cli", "sweep_gradient_formula", "evolution.sweep_gradient_formula"),
    ("cli", "sweep_term_II", "evolution.sweep_term_II"),
    ("cli", "sweep_positivity", "evolution.sweep_positivity"),
    ("cli", "sweep_bound", "evolution.sweep_bound"),
    ("evolution", "random_state", "evolution.draw"),
    ("evolution", "random_positive_state", "evolution.draw"),
    ("evolution", "PointState.__post_init__", "evolution.PointState"),
    ("evolution", "positivity_gap", "evolution.gap"),
    ("evolution", "bound_A", "evolution.gap"),
    ("evolution", "bound_B", "evolution.gap"),
    ("evolution", "bound_C", "evolution.gap"),
    ("evolution", "bound_D", "evolution.gap"),
    ("profile", "SingularProfile.from_lambdas", "profile.from_lambdas"),
    ("cli", "persist_series", "persist.write"),
    ("cli", "write_json", "persist.write"),
    ("cli", "to_json", "persist.to_json"),
)

_MODULES = {"cli": cli, "conditions": conditions, "curvature": curvature,
            "evolution": evolution, "flow": flow, "profile": profile,
            "spaces": spaces}

LAYERS = ("flow", "spaces", "curvature", "conditions", "evolution", "profile",
          "persist", "cli")


class SpanRecorder:
    """In-memory spans of one round: parallel arrays, one entry per call."""

    def __init__(self):
        self.names: list[str] = []
        self.jobs: list[str] = []
        self.counts: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self._stack = [-1]
        self._job = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        nid = self._name_id(name)
        start, end, names, parents, jobs = self.start, self.end, self.name, self.parent, self.job
        stack, job, clock = self._stack, self._job, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(job[0])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def run_job(self, job: str, fn, *args):
        """``fn(*args)`` inside a root span; spans below it carry the job's id."""
        self.jobs.append(job)
        self._job[0] = len(self.jobs) - 1
        try:
            return self.wrap(f"bench.{job}", fn)(*args)
        finally:
            self._job[0] = -1

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def dump(self, path) -> None:
        np.savez(path, start=np.frombuffer(self.start, np.int64),
                 end=np.frombuffer(self.end, np.int64),
                 name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 job=np.frombuffer(self.job, np.int32),
                 names=np.array(self.names), jobs=np.array(self.jobs))


def _wrap_optimizer(rec: SpanRecorder, fn):
    """``minimize_over_frames`` with its objective traced and frames counted."""

    def minimize(objective, *args, **kwargs):
        def counted(frames):
            rec.count("curvature.frames_evaluated", len(frames))
            return objective(frames)

        return fn(rec.wrap("curvature.objective", counted), *args, **kwargs)

    return rec.wrap("curvature.minimize_over_frames", functools.wraps(fn)(minimize))


def install(rec: SpanRecorder) -> None:
    """Wrap every target in place; the round's process ends with them wrapped."""
    for module, path, span in TARGETS:
        *owner_path, attr = path.split(".")
        owner = _MODULES[module]
        for part in owner_path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(rec.wrap(span, raw.__func__)))
        else:
            setattr(owner, attr, rec.wrap(span, raw))
    curvature.minimize_over_frames = _wrap_optimizer(rec, curvature.minimize_over_frames)


class _Summary:
    """Per-name call counts, inclusive and self times (seconds) of a round."""

    def __init__(self, rec: SpanRecorder):
        name = np.frombuffer(rec.name, np.int32)
        parent = np.frombuffer(rec.parent, np.int32)
        dur = (np.frombuffer(rec.end, np.int64) - np.frombuffer(rec.start, np.int64)) * 1e-9
        rooted = parent >= 0
        child = np.bincount(parent[rooted], weights=dur[rooted], minlength=name.size)
        pname = np.where(rooted, name[np.maximum(parent, 0)], -1)
        outer = pname != name  # nested calls of the same name count once
        k = len(rec.names)
        self.ids = {n: i for i, n in enumerate(rec.names)}
        self._incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        self._self = np.bincount(name, weights=dur - child, minlength=k)
        self._name, self._pname, self._outer = name, pname, outer
        self._jobs, self._job = rec.jobs, np.frombuffer(rec.job, np.int32)

    def calls(self, name: str, *, parent: str | None = None, outer: bool = False) -> int:
        i = self.ids.get(name)
        if i is None:
            return 0
        sel = self._name == i
        if parent is not None:
            sel &= self._pname == self.ids.get(parent, -2)
        if outer:
            sel &= self._outer
        return int(sel.sum())

    def calls_by_job(self, name: str) -> dict[str, int]:
        i = self.ids.get(name)
        if i is None:
            return {}
        job_ids = self._job[(self._name == i) & (self._job >= 0)]
        per = np.bincount(job_ids, minlength=len(self._jobs))
        return {job: int(per[j]) for j, job in enumerate(self._jobs)}

    def incl(self, *names: str) -> float:
        return float(sum(self._incl[self.ids[n]] for n in names if n in self.ids))

    def self_time(self, *names: str) -> float:
        return float(sum(self._self[self.ids[n]] for n in names if n in self.ids))

    def layer_self(self, layer: str) -> float:
        return self.self_time(*(n for n in self.ids if n.split(".")[0] == layer))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, job_counts: dict, grid_points: dict) -> dict:
    """Per-layer metrics (without ``trace.overhead_frac``) of one traced round."""
    s = _Summary(rec)
    eq_steps = s.calls("flow._eq_rhs", parent="flow._run_equivariant") // 2
    torus_steps = s.calls_by_job("flow.torus_step")
    point_steps = sum(n * grid_points.get(job, 0) for job, n in torus_steps.items())
    frames = rec.counts.get("curvature.frames_evaluated", 0)
    states = s.calls("evolution.draw", outer=True)
    draws = s.calls("evolution.PointState")
    per_state = s.incl("evolution.sweep_gradient_formula", "evolution.sweep_positivity",
                       "evolution.sweep_bound")
    out = {
        "flow.eq.steps": eq_steps,
        "flow.eq.rhs_calls": s.calls("flow._eq_rhs"),
        "flow.eq.rhs_s": s.incl("flow._eq_rhs"),
        "flow.eq.derivs_s": s.incl("flow._rho_derivatives"),
        "flow.eq.dt_calls": s.calls("flow.equivariant_dt"),
        "flow.eq.dt_s": s.incl("flow.equivariant_dt"),
        "flow.eq.monitor_s": s.incl("flow.eq_monitor"),
        "flow.eq.loop_self_s": s.self_time("flow._run_equivariant"),
        "flow.eq.us_per_step": 1e6 * _ratio(s.incl("flow._run_equivariant"), eq_steps),
        "spaces.path_calls": s.calls("spaces.metric_factor"),
        "spaces.path_s": s.incl("spaces.metric_factor"),
        "flow.torus.steps": sum(torus_steps.values()),
        "flow.torus.step_s": s.incl("flow.torus_step"),
        "flow.torus.rhs_calls": s.calls("flow.torus_rhs"),
        "flow.torus.rhs_s": s.incl("flow.torus_rhs"),
        "flow.torus.df_calls": s.calls("flow._torus_df"),
        "flow.torus.df_s": s.incl("flow._torus_df"),
        "flow.torus.eta_inv_calls": s.calls("flow._torus_eta_inv"),
        "flow.torus.eta_inv_s": s.incl("flow._torus_eta_inv"),
        "flow.torus.monitor_s": s.incl("flow.torus_monitor"),
        "flow.torus.residual_s": s.incl("flow.torus_evolution_residual"),
        "flow.torus.term_one_s": s.incl("flow._torus_term_one"),
        "flow.torus.ns_per_point_step": 1e9 * _ratio(s.incl("flow._run_torus"), point_steps),
        "curvature.bounds_of_s": s.incl("curvature.bounds_of"),
        "curvature.sectional_range_s": s.incl("curvature.sectional_range"),
        "curvature.ric3_min_s": s.incl("curvature.ric3_min"),
        "curvature.chi_ic1_s": s.incl("curvature.chi_ic1"),
        "curvature.optimizer_runs": s.calls("curvature.minimize_over_frames"),
        "curvature.objective_calls": s.calls("curvature.objective"),
        "curvature.frames_evaluated": frames,
        "curvature.objective_s": s.incl("curvature.objective"),
        "curvature.optimizer_self_s": s.self_time("curvature.minimize_over_frames"),
        "curvature.us_per_frame": 1e6 * _ratio(s.incl("curvature.objective"), frames),
        "spaces.bounds_calls": s.calls("spaces.bounds"),
        "spaces.bounds_s": s.incl("spaces.bounds"),
        "conditions.audits": s.calls("conditions.audit_conditions"),
        "conditions.audit_s": s.incl("conditions.audit_conditions"),
        "evolution.algebra_s": s.incl("evolution.sweep_algebra"),
        "evolution.term_II_s": s.incl("evolution.sweep_term_II"),
        "evolution.gradient_s": s.incl("evolution.sweep_gradient_formula"),
        "evolution.positivity_s": s.incl("evolution.sweep_positivity"),
        "evolution.bound_s": s.incl("evolution.sweep_bound"),
        "evolution.states": states,
        "evolution.draws_attempted": draws,
        "evolution.draw_accept_ratio": _ratio(states, draws),
        "evolution.draw_s": s.incl("evolution.draw"),
        "evolution.gap_s": s.incl("evolution.gap"),
        "evolution.us_per_state": 1e6 * _ratio(per_state, states),
        "evolution.c0_doublings": job_counts.get("c0_doublings", 0),
        "profile.from_lambdas_calls": s.calls("profile.from_lambdas"),
        "profile.from_lambdas_s": s.incl("profile.from_lambdas"),
        "persist.write_s": s.incl("persist.write"),
        "persist.bytes": job_counts.get("persist_bytes", 0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = s.layer_self(layer)
    return out
