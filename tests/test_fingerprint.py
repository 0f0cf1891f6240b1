"""Golden behaviour fingerprint of synthesis.

For each bundled theory: the characteristic function ``pipeline`` builds
(without the oracle self-check) and every reduction step and blocked
attempt, or the exception it gives up with; then ``sigma`` of a fixed list
of schemes on each theory, or the exception it raises.  A change that
keeps these lines keeps what synthesis produces.

A second golden file fingerprints tuning: for a few built deciders, each
of the first trees of a small reachable window tuned against every tree
of that window, with the result or the exception it gives up with.

Run as a script (no pytest needed) to compare against the golden files,
or with ``--write`` to regenerate them:

    PYTHONPATH=src python3 tests/test_fingerprint.py [--write]
"""

import sys
from pathlib import Path

from tpc import load_theory, parse_scheme
from tpc.errors import TpcError
from tpc.final import tune
from tpc.oracle import SearchBudget, reachable_set
from tpc.pipeline import pipeline
from tpc.sigma import sigma
from tpc.terms import parse_theory, print_term

GOLDEN = Path(__file__).with_name("fingerprint.txt")
TUNING = Path(__file__).with_name("tuning.txt")

THEORIES = ("chain", "fg", "mod2", "rotate", "rotate3", "ancestor")
SCHEMES = (
    "a*", "a*.b", "(a*.b)*", "b.a*.b", "a.b.a*.b",
    "(a.b)*", "a*.b*", "(a*.b)*.a*", "a.a", "a.b.a",
)


def _gave_up(exc: TpcError) -> str:
    return f"{type(exc).__name__}: {exc}"


def fingerprint() -> list:
    lines = []
    for name in THEORIES:
        th = load_theory(name)
        try:
            proc = pipeline(th, selfcheck=False)
        except TpcError as exc:
            lines.append(f"{name} pipeline {_gave_up(exc)}")
            continue
        lines.append(f"{name} charfn {proc.charfn}")
        for trace in proc.traces:
            lines.extend(f"{name} step {step}" for step in trace.steps)
            lines.extend(f"{name} attempt {attempt}" for attempt in trace.attempts)
    for name in THEORIES:
        th = load_theory(name)
        for text in SCHEMES:
            try:
                got = str(sigma(th, parse_scheme(text)))
            except TpcError as exc:
                got = _gave_up(exc)
            lines.append(f"{name} sigma {text} {got}")
    return lines


# the identity axiom a leaves every a* count free, so tuning must pin them
IDENTITY_THEORY = "start: P(Z)\na: P(x) -> P(x)\nb: P(x) -> P(F(x))\nc: P(x) -> P(F(F(x)))"
TUNING_WINDOW = SearchBudget(max_depth=4, max_tree_size=40)
TUNED_FROM = 3


def tuning() -> list:
    deciders = [(name, load_theory(name), None) for name in ("chain", "fg", "mod2")]
    deciders += [("identity", parse_theory(IDENTITY_THEORY), None), ("rotate", load_theory("rotate"), "(a*.b)*")]
    lines = []
    for name, th, scheme in deciders:
        fn = pipeline(th, selfcheck=False).charfn if scheme is None else sigma(th, parse_scheme(scheme))
        trees = reachable_set(th, th.start, TUNING_WINDOW)
        for t in trees[:TUNED_FROM]:
            for d in trees:
                try:
                    got = str(tune(fn, t, d))
                except TpcError as exc:
                    got = _gave_up(exc)
                lines.append(f"{name} {print_term(t)} -> {print_term(d)}: {got}")
    return lines


def test_fingerprint_matches_golden():
    assert fingerprint() == GOLDEN.read_text().splitlines()


def test_tuning_matches_golden():
    assert tuning() == TUNING.read_text().splitlines()


def _compare(golden: Path, got: list) -> bool:
    want = golden.read_text().splitlines()
    for i, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            print(f"{golden.name} line {i} differs:\n  golden: {w}\n  got:    {g}")
    print(f"{golden.name}: {len(got)} lines, golden {len(want)}: {'identical' if got == want else 'DIFFERENT'}")
    return got == want


if __name__ == "__main__":
    outputs = {GOLDEN: fingerprint(), TUNING: tuning()}
    if sys.argv[1:] == ["--write"]:
        for golden, got in outputs.items():
            golden.write_text("\n".join(got) + "\n")
        sys.exit(0)
    same = [_compare(golden, got) for golden, got in outputs.items()]
    sys.exit(0 if all(same) else 1)
