"""tools/check_sites.py: every traced benchmark site is bound and called
where it should be, checked here on canned output."""

import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


check_sites = _load("check_sites", ROOT / "tools" / "check_sites.py")
STALE_WARNING = "  warning: trace site tpc.sigma.compose_clauses not found; its metrics read 0"


def _output(workload, *lines, **overrides):
    """A traced run's output: *lines*, then the result line, in which every
    site of the workload is called once and an idle one never, unless
    *overrides* (the site with "_" for its ".") gives its calls."""
    idle = check_sites.IDLE.get(workload, [])
    counts = {site: 0 if site in idle else 1 for site in check_sites.SITES[workload] + idle}
    counts.update({site.replace("_", ".", 1): n for site, n in overrides.items()})
    metrics = {f"{site}.calls": {"value": n} for site, n in counts.items()}
    return "\n".join([*lines, json.dumps({"correct": True, "failed": 0, "metrics": metrics})])


def test_every_site_is_a_traced_site():
    spans = _load("bench_spans", ROOT / "bench" / "spans.py")
    for sites in [*check_sites.SITES.values(), *check_sites.IDLE.values()]:
        assert set(sites) <= spans.SITES.keys()


def test_a_run_with_every_site_called_and_the_idle_ones_idle_passes():
    for workload in check_sites.SITES:
        report, ok = check_sites.check(workload, _output(workload, "report", STALE_WARNING))
        assert ok and report == ["never called: none", "called, but should be idle: none"]


def test_an_idle_site_called_fails():
    # the scalar stage solving through solve_concrete again
    report, ok = check_sites.check("query", _output("query", final_solve_concrete=4))
    assert not ok and report[-1] == "called, but should be idle: final.solve_concrete"


def test_a_site_never_called_fails():
    report, ok = check_sites.check("synth_all", _output("synth_all", mathsolver_eliminate=0))
    assert not ok and report[0] == "never called: mathsolver.eliminate"


def test_a_site_no_longer_bound_fails():
    warning = "  warning: trace site tpc.final.solve_concrete not found; its metrics read 0"
    report, ok = check_sites.check("query", _output("query", warning, STALE_WARNING))
    assert not ok and report[0] == warning
