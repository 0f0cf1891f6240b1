#!/usr/bin/env python3
"""Every traced benchmark site is bound, and called where it should be.

    python3 tools/check_sites.py

Runs ``bench/run.py --trace 1`` for one second per workload, each in its
own interpreter, and prints its output.  A site the program no longer
binds reads 0 in the per-layer figures, and the run warns about it; so
does a bound site the workload never calls.  ``tpc.sigma.compose_clauses``
is known to be stale.  query covers a decide or prove that stopped going
through tuning, its guard, proof extraction or the certifying replay,
oracle_search brute-force search.  A site in IDLE must be bound and never
called: the chain/fg/mod2 deciders solve their index systems only through
the system each branch compiles once, never through solve_concrete.

Exits 1 if a workload prints a warning other than the stale site's,
leaves a site of SITES uncalled or calls a site of IDLE, 0 otherwise.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SITES = {
    "synth_all": """pipeline.pipeline delta.order_axioms delta.reduce_scheme delta.check_absorption
        delta.check_commutation sigma.sigma sigma.check_layout schemes.instantiate
        schemes.reduce_specific schemes.compose_clauses paths.split_axiom inclusion.includes
        mathsolver.eliminate pipeline.reachable_set final.decide""".split(),
    "query": """final.tune final.eval_atomset final.extract_proof final.instantiate final.replay
        terms.apply_clause""".split(),
    "oracle_search": """oracle.reachable_set oracle.find_proof oracle.decide_oracle oracle.apply_clause
        oracle.print_term""".split(),
}
IDLE = {"query": ["final.solve_concrete"]}
STALE = "trace site tpc.sigma.compose_clauses not found"


def check(workload: str, output: str):
    """The lines to report on one traced run of *workload*, given what it
    printed, and whether the run passes: each warning about a trace site
    but the stale one, then the sites of SITES it never called and those of
    IDLE it called."""
    lines = output.splitlines()
    warnings = [line for line in lines if "warning: trace site" in line and STALE not in line]
    metrics = json.loads(lines[-1])["metrics"]
    never = [site for site in SITES[workload] if metrics[site + ".calls"]["value"] == 0]
    called = [site for site in IDLE.get(workload, ()) if metrics[site + ".calls"]["value"] != 0]
    report = warnings + [
        "never called: " + (", ".join(never) or "none"),
        "called, but should be idle: " + (", ".join(called) or "none"),
    ]
    return report, not (warnings or never or called)


def main():
    passed = True
    for workload in SITES:
        command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        print(run.stdout, end="")
        report, ok = check(workload, run.stdout)
        print("\n".join(report))
        passed = passed and ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
