"""Per-layer spans for the traced run, recorded from outside the program.

Each traced name is a function of a ``tpc`` module, wrapped where its
caller looks it up (``tpc.sigma.reduce_specific`` is what sigma calls).
A span records its name, its start, its end and the span that was open
when it began; self time is the span minus the time of its child spans.
Spans are folded into per-name and per-(parent, child) totals as they
close, so a traced run of millions of calls keeps constant memory.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# metric name -> the module attributes that are replaced by the wrapper.
# A name is metered under the module that defines the function unless the
# same function is reached from two layers that should be told apart.
SITES = {
    "pipeline.pipeline": ("tpc.pipeline.pipeline",),
    "delta.order_axioms": ("tpc.pipeline.order_axioms",),
    "delta.reduce_scheme": ("tpc.pipeline.reduce_scheme",),
    "delta.check_absorption": ("tpc.delta.check_absorption",),
    "delta.check_commutation": ("tpc.delta.check_commutation",),
    "sigma.sigma": ("tpc.delta.sigma", "tpc.pipeline.sigma"),
    "sigma.check_layout": ("tpc.pipeline.check_layout",),
    "sigma.compose_clauses": ("tpc.sigma.compose_clauses",),
    "schemes.instantiate": ("tpc.sigma.instantiate",),
    "schemes.reduce_specific": ("tpc.sigma.reduce_specific",),
    "schemes.compose_clauses": ("tpc.schemes.compose_clauses",),
    "paths.split_axiom": ("tpc.sigma.split_axiom",),
    "inclusion.includes": ("tpc.delta.includes",),
    "mathsolver.eliminate": ("tpc.inclusion.eliminate",),
    "pipeline.reachable_set": ("tpc.pipeline.reachable_set",),
    "final.decide": ("tpc.pipeline.decide",),
    "final.extract_proof": ("tpc.pipeline.extract_proof",),
    "final.tune": ("tpc.final.tune",),
    "final.solve_concrete": ("tpc.final.solve_concrete",),
    "final.eval_atomset": ("tpc.final.eval_atomset",),
    "final.instantiate": ("tpc.final.instantiate",),
    "final.replay": ("tpc.final.replay",),
    "terms.apply_clause": ("tpc.terms.apply_clause",),
    "terms.parse_term": ("tpc.terms.parse_term",),
    "oracle.reachable_set": ("tpc.oracle.reachable_set",),
    "oracle.find_proof": ("tpc.oracle.find_proof",),
    "oracle.decide_oracle": ("tpc.oracle.decide_oracle",),
    "oracle.apply_clause": ("tpc.oracle.apply_clause",),
    "oracle.print_term": ("tpc.oracle.print_term",),
}

# (metric, unit, better, numerator counter, denominator counter or None)
DERIVED = (
    ("delta.sigma_cache.hit_ratio", "ratio", "higher", "sigma_cache.hits", "sigma_cache.lookups"),
    ("delta.rules.fired_ratio", "ratio", "higher", "rules.steps", "rules.tried"),
    ("inclusion.includes.universal_ratio", "ratio", "higher", "includes.universal", "inclusion.includes"),
    ("final.tune.ambiguous", "count", "lower", "tune.ambiguous", None),
    ("oracle.apply_clause.match_ratio", "ratio", "higher", "oracle.matched", "oracle.apply_clause"),
    ("oracle.new_state_ratio", "ratio", "higher", "reachable.new", "reachable.matched"),
)


def per_layer_catalogue():
    """(name, unit, better) of every per-layer metric a traced run prints."""
    out = []
    for name in SITES:
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.total_s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [(m, unit, better) for m, unit, better, _, _ in DERIVED]
    out += [("trace.total_s", "s", "lower"), ("trace.overhead_s", "s", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


@dataclass
class Tracer:
    calls: dict = field(default_factory=dict)
    total: dict = field(default_factory=dict)  # outermost spans only
    self_time: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)  # (parent, child) -> [calls, seconds]
    counters: dict = field(default_factory=dict)
    active: dict = field(default_factory=dict)
    stack: list = field(default_factory=list)  # open spans: [name, start_ns, child_ns]
    installed: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    paused: bool = False  # checks outside the timed region are not traced

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _enter(self, name):
        self.active[name] = self.active.get(name, 0) + 1
        frame = [name, time.perf_counter_ns(), 0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        dur = time.perf_counter_ns() - frame[1]
        name = frame[0]
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        self.active[name] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0) + dur - frame[2]
        if not self.active[name]:
            self.total[name] = self.total.get(name, 0) + dur
        edge = self.edges.setdefault((parent[0] if parent else None, name), [0, 0])
        edge[0] += 1
        edge[1] += dur

    def wrap(self, name, fn):
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "final.tune" and type(exc).__name__ == "Ambiguous":
                    self.count("tune.ambiguous")
                raise
            finally:
                self._exit(frame)
            if observe is not None:
                observe(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, sites in SITES.items():
            for site in sites:
                mod_name, _, attr = site.rpartition(".")
                mod = sys.modules.get(mod_name) or importlib.import_module(mod_name)
                original = getattr(mod, attr, None)
                if original is None:
                    self.missing.append(site)
                    continue
                setattr(mod, attr, self.wrap(name, original))
                self.installed.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self.installed):
            setattr(mod, attr, original)
        self.installed.clear()

    def metrics(self, traced_total_s, untraced_total_s) -> dict:
        out = {}
        for name in SITES:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.total_s"] = self.total.get(name, 0) / 1e9
            out[f"{name}.self_s"] = self.self_time.get(name, 0) / 1e9
        counts = dict(self.counters, **self.calls)
        for metric, _, _, num, den in DERIVED:
            if den is None:
                out[metric] = counts.get(num, 0)
            else:
                out[metric] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        out["trace.total_s"] = traced_total_s
        out["trace.overhead_s"] = traced_total_s - untraced_total_s
        out["trace.overhead_ratio"] = traced_total_s / untraced_total_s - 1
        return out

    def call_tree(self) -> list:
        return [
            {"parent": parent, "name": name, "calls": calls, "seconds": ns / 1e9}
            for (parent, name), (calls, ns) in sorted(self.edges.items(), key=lambda kv: -kv[1][1])
        ]


def _observe_reduce_scheme(tracer, result):
    trace = result[1]
    tracer.count("rules.steps", len(trace.steps))
    tracer.count("rules.tried", len(trace.steps) + len(trace.attempts))


def _observe_includes(tracer, result):
    if result.universal:
        tracer.count("includes.universal")


def _observe_oracle_apply(tracer, result):
    if result is not None:
        tracer.count("oracle.matched")
        if tracer.active.get("oracle.reachable_set"):
            tracer.count("reachable.matched")


def _observe_reachable(tracer, result):
    tracer.count("reachable.new", len(result) - 1)


_OBSERVERS = {
    "delta.reduce_scheme": _observe_reduce_scheme,
    "inclusion.includes": _observe_includes,
    "oracle.apply_clause": _observe_oracle_apply,
    "oracle.reachable_set": _observe_reachable,
}
