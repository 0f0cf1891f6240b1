#!/usr/bin/env python3
"""Benchmark for tpc: synthesis, decide/prove queries and oracle search.

    python3 bench/run.py --workload synth_all|query|oracle_search|all \
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Each workload is a closed loop of one caller on one thread: the next
operation starts when the previous one has returned.  Inputs come from
``--seed``.  Every answer is checked against a reference that does not
come from the code under test (see reference.py); a wrong answer or an
unexpected exception counts as a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload for half the time untraced and half traced, and prints the
per-layer metrics with the tracing overhead.  The last stdout line is one
JSON object; the lines before it are a readable report that names every
metric of the workload with its unit.  A full record of the run is
written to bench/out/.  ``--workload all`` runs the three workloads, each
in a fresh interpreter, and prints their reports.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("synth_all", "query", "oracle_search")

SETUP_REPEATS = 3
MIN_ROUNDS = 2  # rounds of a workload's fixed op mix in an untraced run
THEORIES = ("chain", "fg", "mod2", "rotate", "rotate3", "ancestor")
WINDOWED = ("chain", "fg", "mod2")  # strictly growing: the window is exhaustive
GIVE_UPS = ("NotLinearizable", "InternalMismatch", "Unsupported")
SMALL_PER_CLASS = 100  # per theory: reachable and unreachable small queries each
LARGE_NODES = (16384, 65536)
QUERY_SHARES = (0.3, 0.2, 0.5)  # small decide, small prove, large trees
ORACLE_PAIRS = 24
ORACLE_SEARCHES = (("ancestor", 8), ("rotate", 12), ("rotate3", 12))
# Seconds reference.calibration_work() takes on the machine the scaled
# times are expressed for (a quiet 2-core x86-64 virtual machine, Python 3.11).
CAL_NOMINAL_S = 0.00025
SAMPLE_EVERY_S = 0.02
CAL_EVERY = 128  # small queries between two speed samples


def load_program():
    """Imports tpc from this checkout's src/, or exits non-zero."""
    init = SRC / "tpc" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: program sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import tpc

    if Path(tpc.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported tpc from {tpc.__file__}, not from {SRC}")


def now():
    return time.perf_counter()


def percentile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


class Session:
    """What a workload run reports into.

    ``record`` counts operations attempted and failed; a failure is a wrong
    answer or an exception that is not a typed give-up.

    Timing.  On a shared machine the same code runs tens of percent faster
    or slower from one second to the next, so every operation is also
    reported scaled by the machine speed measured around it: a short fixed
    piece of pure-Python work (reference.calibration_work) is timed before
    every operation (``calibrate``) and, for operations run through
    ``timed``, every SAMPLE_EVERY_S inside it from a timer signal.  The
    sampling inside is not counted in the operation's time.  The scaled time
    is the time on a machine where the calibration takes CAL_NOMINAL_S.

    In a traced run, the tracer is paused while answers are checked."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.ops = {}  # kind -> [(start, seconds, speed samples inside)]
        self.speed = []  # (time, seconds per calibration run), in time order
        self.tracer = tracer
        self._inside = None  # speed samples of the running timed operation
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._sample_inside)

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)

    def op(self, kind, t0, t1):
        self.ops.setdefault(kind, []).append((t0, t1 - t0, ()))

    @staticmethod
    def _calibration_run():
        """Seconds of one calibration run after a warm-up run, with the
        collector off so that no collection is timed."""
        from reference import calibration_work

        enabled = gc.isenabled()
        gc.disable()
        try:
            calibration_work()
            t0 = now()
            calibration_work()
            return now() - t0
        finally:
            if enabled:
                gc.enable()

    def calibrate(self, n=3):
        """Samples machine speed, then collects and freezes what is alive:
        the next operation starts from the same collector state wherever it
        falls in the run, and its collections scan only what it allocates."""
        sample = statistics.median(self._calibration_run() for _ in range(n))
        self.speed.append((now(), sample))
        gc.collect()
        gc.freeze()

    def _sample_inside(self, signum, frame):
        if self._inside is None:
            return
        t0 = now()
        self._inside.append(self._calibration_run())
        self._spent += now() - t0

    def timed(self, kind, fn, *args):
        """Runs fn(*args) as one operation of *kind* with speed sampled
        inside it; returns (result, exception or None)."""
        self._inside, self._spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = now()
        try:
            result, err = fn(*args), None
        except Exception as exc:
            result, err = None, exc
        inside, self._inside = self._inside, None
        t1 = now()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.ops.setdefault(kind, []).append((t0, t1 - t0 - self._spent, tuple(inside)))
        return result, err

    def seconds(self, kind, scaled=False):
        """Median time of one operation of *kind*, as measured or scaled by
        the mean of the speed samples inside it and either side of it."""
        times = [t for t, _ in self.speed]
        out = []
        for t0, seconds, inside in self.ops[kind]:
            if scaled:
                i = bisect.bisect(times, t0)
                near = [self.speed[j][1] for j in (i - 1, i) if 0 <= j < len(times)]
                seconds *= CAL_NOMINAL_S / statistics.mean(near + list(inside))
            out.append(seconds)
        return statistics.median(out)

    def kinds(self, names, scaled):
        return {name: self.seconds(name, scaled) for name in names}

    @contextmanager
    def untimed(self):
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.paused = False


def clear_caches():
    import tpc.delta

    # synthesis memoizes sigma per (theory, scheme) for the whole process
    tpc.delta._sigma_cached.cache_clear()


def build_windows(theories):
    """Per windowed theory: [(tree, reachable?)] over its small candidates,
    answered by an exhaustive run of the program's oracle."""
    import tpc.oracle
    from reference import candidates, strictly_growing

    windows = {}
    for name in WINDOWED:
        th = theories[name]
        if not strictly_growing(th):
            raise RuntimeError(f"{name}: an axiom does not grow trees; its window is not exhaustive")
        cands = candidates(name)
        size = max(t.size for t in cands)
        # every step adds a node, so a tree of this size is at most this deep
        budget = tpc.oracle.SearchBudget(max_depth=size - th.start.size, max_tree_size=size)
        reach = set(tpc.oracle.reachable_set(th, th.start, budget))
        windows[name] = [(t, t in reach) for t in cands]
    return windows


def check_decider(proc, name, window, session):
    """One check per returned decider: every window tree in both directions,
    or only reachable trees when the theory has no exhaustive window."""
    import tpc.oracle

    if window is None:
        th = proc.theory
        reach = tpc.oracle.reachable_set(th, th.start, tpc.oracle.SearchBudget(max_depth=6, max_tree_size=40))
        window = [(t, True) for t in reach]
    try:
        wrong = sum(proc.decide(t) != expected for t, expected in window)
    except Exception as exc:  # a checked decider must answer every window tree
        session.record(False, f"{name}: decider raised {exc!r}")
        return
    session.record(not wrong, f"{name}: decider wrong on {wrong} of {len(window)} window trees")


# ---------------------------------------------------------------------------
# synth_all: one cold pipeline() per bundled theory, pass after pass


def setup_synth(seed):
    import tpc

    theories = {name: tpc.load_theory(name) for name in THEORIES}
    return {"theories": theories, "windows": build_windows(theories), "seed": seed}


def run_synth(state, budget, min_rounds, session):
    import tpc.delta
    import tpc.pipeline

    rng = random.Random(state["seed"])
    outcome = {}
    passes = 0
    start = now()
    while passes < min_rounds or now() - start < budget:
        order = list(THEORIES)
        rng.shuffle(order)
        for name in order:
            session.calibrate()
            clear_caches()
            proc, err = session.timed(f"synth.{name}", tpc.pipeline.pipeline, state["theories"][name])
            result = "decider" if err is None else type(err).__name__
            with session.untimed():
                if session.tracer is not None:
                    info = tpc.delta._sigma_cached.cache_info()
                    session.tracer.count("sigma_cache.hits", info.hits)
                    session.tracer.count("sigma_cache.lookups", info.hits + info.misses)
                if outcome.setdefault(name, result) != result:
                    session.record(False, f"{name}: {result} after {outcome[name]} in an earlier pass")
                elif proc is not None:
                    check_decider(proc, name, state["windows"].get(name), session)
                else:
                    session.record(result in GIVE_UPS, f"{name}: pipeline raised {result}")
        passes += 1
    session.calibrate()
    names = [f"synth.{name}" for name in THEORIES]
    kinds, scaled = session.kinds(names, False), session.kinds(names, True)
    gave_up = sorted(n for n, r in outcome.items() if r in GIVE_UPS)
    named = {
        "synth_total_s": (sum(kinds.values()), "s"),
        "synth_geomean_ms": (geomean(kinds.values()) * 1e3, "ms"),
        "synth_gave_up": (len(gave_up), "count"),
        "synth_passes": (passes, "count"),
    }
    for name in THEORIES:
        named[f"synth.{name}_ms"] = (kinds[f"synth.{name}"] * 1e3, "ms")
    return kinds, scaled, named, {"outcomes": outcome, "gave_up": gave_up}


# ---------------------------------------------------------------------------
# query: built deciders answer small queries given as text and large trees


def setup_query(seed):
    import tpc
    import tpc.pipeline
    from reference import Chains, large_negatives, large_positive, text_of, to_tuple

    rng = random.Random(seed)
    theories = {name: tpc.load_theory(name) for name in WINDOWED}
    procs = {name: tpc.pipeline.pipeline(th) for name, th in theories.items()}
    windows = build_windows(theories)
    small = []
    for name in WINDOWED:
        for want in (True, False):
            pool = [t for t, reach in windows[name] if reach == want]
            for t in rng.choices(pool, k=SMALL_PER_CLASS):
                small.append((name, text_of(to_tuple(t)), t, want))
    large = []
    chains = Chains()
    for name in WINDOWED:
        for nodes in LARGE_NODES:
            seq, tree = large_positive(name, nodes, rng, chains)
            large.append((name, nodes, tree, True, seq))
            large += [(name, nodes, t, False, None) for t in large_negatives(name, nodes, rng, chains)]
    return {"theories": theories, "procs": procs, "small": small, "large": large,
            "seed": seed, "proofs": {}}


def check_query_inputs(state, session):
    """The counting model's positives must be what replaying their axiom
    sequence with the program gives."""
    from tpc.terms import replay

    for name, nodes, tree, _, seq in state["large"]:
        if seq is not None:
            th = state["theories"][name]
            session.record(replay(th, th.start, seq) == tree,
                           f"{name}: replayed {nodes}-node sequence differs from its counting model")


def _check_answer(state, session, name, op, key, tree, want, got, err):
    """decide must match the reference.  prove must give a proof that
    replays to the tree for a positive and none for a negative; a proof
    already replayed once is compared instead of replayed again."""
    from tpc.terms import check_proof

    if err is not None:
        session.record(False, f"{name}: {op} on {key} raised {err!r}")
    elif op == "decide":
        session.record(got == want, f"{name}: decide on {key} = {got}, expected {want}")
    elif not want or got is None:
        session.record(want == (got is not None), f"{name}: prove on {key} = {got}, expected a proof: {want}")
    elif state["proofs"].get((name, key)) == got.steps:
        session.record(True, "")
    else:
        try:
            ok = check_proof(state["theories"][name], got) == tree
        except Exception as exc:  # a step that does not apply makes a wrong proof
            ok, key = False, f"{key} ({exc!r})"
        if ok:
            state["proofs"][(name, key)] = got.steps
        session.record(ok, f"{name}: proof does not replay to {key}")


def _small_phase(state, op, budget, rng, session):
    import tpc.terms

    procs = state["procs"]
    kind = f"query.{op}_small"
    order = list(state["small"])
    done = 0
    start = now()
    while not done or now() - start < budget:
        rng.shuffle(order)
        for name, text, tree, want in order:
            if done % CAL_EVERY == 0:
                session.calibrate()
            t0 = now()
            try:
                got, err = getattr(procs[name], op)(tpc.terms.parse_term(text)), None
            except Exception as exc:
                got, err = None, exc
            session.op(kind, t0, now())
            done += 1
            with session.untimed():
                _check_answer(state, session, name, op, text, tree, want, got, err)
            if now() - start >= budget:
                break
    session.calibrate()
    return [seconds * 1e6 for _, seconds, _ in session.ops[kind]]  # microseconds


def _large_phase(state, budget, min_rounds, session):
    procs = state["procs"]
    rounds = 0
    start = now()
    while rounds < min_rounds or now() - start < budget:
        for i, (name, nodes, tree, want, _) in enumerate(state["large"]):
            for op in ("decide", "prove"):
                session.calibrate()
                got, err = session.timed(f"query.{op}_large.{i}", getattr(procs[name], op), tree)
                key = f"{'reachable' if want else 'unreachable'} {nodes}-node tree #{i}"
                with session.untimed():
                    _check_answer(state, session, name, op, key, tree, want, got, err)
        rounds += 1
    session.calibrate()
    return rounds


def run_query(state, budget, min_rounds, session):
    rng = random.Random(state["seed"] + 1)
    decide_b, prove_b, large_b = (budget * s for s in QUERY_SHARES)
    decide_us = _small_phase(state, "decide", decide_b, rng, session)
    prove_us = _small_phase(state, "prove", prove_b, rng, session)
    rounds = _large_phase(state, large_b, min_rounds, session)
    large = state["large"]

    def kinds(scaled):
        out = session.kinds(["query.decide_small", "query.prove_small"], scaled)
        for op in ("decide", "prove"):
            # one median per tree, then the mean over the fixed set of trees
            per_tree = session.kinds([f"query.{op}_large.{i}" for i in range(len(large))], scaled)
            out[f"query.{op}_large"] = statistics.mean(per_tree.values())
        return out

    def rate(op, sizes=LARGE_NODES):
        items = [i for i, it in enumerate(large) if it[1] in sizes]
        nodes = sum(large[i][2].size for i in items)
        return nodes / sum(session.seconds(f"query.{op}_large.{i}") for i in items) / 1e3

    named = {
        "decide_small_p50_us": (statistics.median(decide_us), "us"),
        "decide_small_p99_us": (percentile(decide_us, 0.99), "us"),
        "decide_small_ops": (len(decide_us), "count"),
        "prove_small_p50_us": (statistics.median(prove_us), "us"),
        "prove_small_p99_us": (percentile(prove_us, 0.99), "us"),
        "prove_small_ops": (len(prove_us), "count"),
        "decide_large_knodes_per_s": (rate("decide"), "knodes/s"),
        "prove_large_knodes_per_s": (rate("prove"), "knodes/s"),
        "large_rounds": (rounds, "count"),
    }
    for nodes in LARGE_NODES:
        for op in ("decide", "prove"):
            named[f"{op}_{nodes // 1024}k_knodes_per_s"] = (rate(op, (nodes,)), "knodes/s")
    return kinds(False), kinds(True), named, {}


# ---------------------------------------------------------------------------
# oracle_search: brute-force breadth-first search


def setup_oracle(seed):
    import tpc
    from reference import bfs_depths, counted_tree, text_of, to_tuple

    theories = {name: tpc.load_theory(name) for name, _ in ORACLE_SEARCHES}
    theories["fg"] = tpc.load_theory("fg")
    reference = {}
    for name, depth in ORACLE_SEARCHES:
        found = bfs_depths(theories[name], depth, 64)
        reference[name] = sorted(found, key=lambda t: (t[0], text_of(t)))
        if name == "ancestor":
            goal_depth = found[to_tuple(theories[name].goal)]
    rng = random.Random(seed)
    pairs = []
    for i in range(ORACLE_PAIRS):
        # fg adds one G per step and one or two Fs: from (a0, b0), k steps
        # reach (a, b0 + k) exactly when k <= a - a0 <= 2k.  The search cost
        # grows with k, so k cycles and only the start and the F count are
        # drawn; every other pair is reachable.
        k = 1 + i % 8
        b0 = rng.randrange(4)
        a0 = b0 + rng.randrange(b0 + 1)
        if (i + i // 8) % 2 == 0:
            a = a0 + rng.randrange(k, 2 * k + 1)
        else:
            a = a0 + rng.choice((k - 1, 2 * k + 1))
        pairs.append((counted_tree((a0, b0)), counted_tree((a, b0 + k)), k, k <= a - a0 <= 2 * k))
    return {"theories": theories, "reference": reference, "goal_depth": goal_depth,
            "pairs": pairs, "seed": seed, "verified": {}}


def run_oracle(state, budget, min_rounds, session):
    import tpc.oracle

    th = state["theories"]
    rng = random.Random(state["seed"] + 1)
    ops = [("reachable", name, depth) for name, depth in ORACLE_SEARCHES]
    ops.append(("find_proof", "ancestor", None))
    ops += [("decide_oracle", "fg", pair) for pair in state["pairs"]]
    states = 0
    reach_s = 0.0
    rounds = 0
    start = now()
    while rounds < min_rounds or now() - start < budget:
        rng.shuffle(ops)
        for kind, name, arg in ops:
            label = f"oracle.{kind}" if kind == "decide_oracle" else f"oracle.{kind}.{name}"
            if kind == "reachable":
                call = (tpc.oracle.reachable_set, th[name], th[name].start, tpc.oracle.SearchBudget(max_depth=arg))
            elif kind == "find_proof":
                call = (tpc.oracle.find_proof, th[name], th[name].goal, tpc.oracle.SearchBudget())
            else:
                t, d, k, _ = arg
                budget_ = tpc.oracle.SearchBudget(max_depth=k, max_tree_size=d.size)
                call = (tpc.oracle.decide_oracle, th[name], t, d, budget_)
            session.calibrate()
            got, err = session.timed(label, *call)
            with session.untimed():
                if err is not None:
                    session.record(False, f"{label}: raised {err!r}")
                elif kind == "reachable":
                    states += len(got)
                    reach_s += session.ops[label][-1][1]
                    session.record(_same_reachable(state, name, got), f"{label}: differs from the reference search")
                elif kind == "find_proof":
                    session.record(_good_proof(state, name, got), f"{label}: {got} is not a shortest proof of the goal")
                else:
                    session.record(got == arg[3], f"{label}: {got} for a pair the fg rule says is {arg[3]}")
        rounds += 1
    session.calibrate()
    names = sorted(k for k in session.ops if k.startswith("oracle."))
    kinds = session.kinds(names, False)
    named = {
        "oracle_states_per_s": (states / reach_s, "1/s"),
        "oracle_proof_ms": (kinds["oracle.find_proof.ancestor"] * 1e3, "ms"),
        "oracle_decide_p50_us": (kinds["oracle.decide_oracle"] * 1e6, "us"),
        "oracle_rounds": (rounds, "count"),
    }
    for name, _ in ORACLE_SEARCHES:
        named[f"oracle.reachable.{name}_ms"] = (kinds[f"oracle.reachable.{name}"] * 1e3, "ms")
    return kinds, session.kinds(names, True), named, {}


def _same_reachable(state, name, got):
    """The first result is compared with the reference search tree by tree,
    in the oracle's (size, text) order; later ones with the first."""
    from reference import to_tuples

    seen = state["verified"].get(name)
    if seen is not None:
        return got == seen
    ok = to_tuples(got) == state["reference"][name]
    if ok:
        state["verified"][name] = got
    return ok


def _good_proof(state, name, proof):
    from reference import replay, to_tuple

    th = state["theories"][name]
    return (proof is not None and len(proof.steps) == state["goal_depth"]
            and replay(th, proof.steps) == to_tuple(th.goal))


# ---------------------------------------------------------------------------
# entry point


SETUP = {"synth_all": setup_synth, "query": setup_query, "oracle_search": setup_oracle}
RUN = {"synth_all": run_synth, "query": run_query, "oracle_search": run_oracle}
END_TO_END_UNITS = {"setup_s": "s", "norm_total_s": "s", "norm_geomean_ms": "ms", "peak_rss_mb": "MB"}


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_one(args):
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
    }
    t0 = now()
    load_program()
    import spans

    env["import_s"] = now() - t0
    session = Session()
    state = None
    for _ in range(SETUP_REPEATS):
        del state  # keep one set of inputs alive, not two
        clear_caches()
        session.calibrate()
        state, err = session.timed("setup", SETUP[args.workload], args.seed)
        if err is not None:
            raise err
    session.calibrate()
    setup_s, setup_raw_s = session.seconds("setup", scaled=True), session.seconds("setup")
    if args.workload == "query":
        check_query_inputs(state, session)
    run = RUN[args.workload]
    record = {"env": env, "setup_raw_s": setup_raw_s}
    if args.trace:
        half = args.seconds / 2
        _, untraced, _, _ = run(state, half, 1, session)
        session.ops.clear()
        session.speed.clear()
        session.tracer = spans.Tracer()
        session.tracer.install()
        try:
            kinds, scaled, named, extra = run(state, half, 1, session)
        finally:
            session.tracer.uninstall()
        metrics = session.tracer.metrics(sum(scaled.values()), sum(untraced.values()))
        units = {name: unit for name, unit, _ in spans.per_layer_catalogue()}
        record.update(call_tree=session.tracer.call_tree(), missing_sites=session.tracer.missing,
                      untraced_kinds_scaled_s=untraced)
    else:
        kinds, scaled, named, extra = run(state, args.seconds, MIN_ROUNDS, session)
        metrics = {
            "setup_s": setup_s,
            "norm_total_s": sum(scaled.values()),
            "norm_geomean_ms": geomean(scaled.values()) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    named["error_rate"] = (session.failed / max(session.attempted, 1), "ratio")
    named["peak_rss_mb"] = (peak_rss_mb(), "MB")
    record.update(kinds_s=kinds, kinds_scaled_s=scaled,
                  calibration_median_s=statistics.median(v for _, v in session.speed),
                  named={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                  failures=session.notes, **extra)
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# {args.workload}  seed={args.seed} nproc={env['nproc']} python={env['python']}"
          f" loadavg={' '.join(f'{x:.2f}' for x in env['loadavg_at_start'])}"
          f" setup_s={setup_raw_s:.4f} raw, {setup_s:.4f} scaled (median of {SETUP_REPEATS})")
    for k, (v, u) in named.items():
        print(f"  {k:34s} {v:14.6g} {u}")
    for k, v in kinds.items():
        print(f"  kind {k:29s} {v:14.6g} s   scaled {scaled[k]:.6g} s")
    for note in session.notes:
        print(f"  FAILED: {note}")
    for site in record.get("missing_sites", ()):
        print(f"  warning: trace site {site} not found; its metrics read 0")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result))


def run_all(args):
    """Each workload in a fresh interpreter, so that peak RSS and the
    program's module-level caches belong to that workload alone."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"bench: {workload} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][workload] = result["metrics"]
    print(json.dumps(summary))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
