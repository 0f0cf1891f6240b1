"""Golden behaviour fingerprint of synthesis.

For each bundled theory: the characteristic function ``pipeline`` builds
(without the oracle self-check) and every reduction step and blocked
attempt, or the exception it gives up with; then ``sigma`` of a fixed list
of schemes on each theory, or the exception it raises.  A change that
keeps these lines keeps what synthesis produces.

A second golden file fingerprints tuning: for a few built deciders, each
of the first trees of a small reachable window tuned against every tree
of that window, with the result or the exception it gives up with.

A third fingerprints ``sigma`` on generated theories: for each theory
drawn from a seeded ``random.Random``, its text, then the form or the
exception of ``sigma`` on the schemes the generated theories of
``test_delta`` are reduced from, and on two schemes whose fit grids are
larger than the 40-sample cap.

Run as a script to compare against the golden files, or with ``--write``
to regenerate them:

    PYTHONPATH=src python3 tests/test_fingerprint.py [--write]
"""

import random
import sys
from pathlib import Path

from tpc import load_theory, parse_scheme
from tpc.errors import TpcError
from tpc.final import tune
from tpc.oracle import SearchBudget, reachable_set
from tpc.pipeline import pipeline
from tpc.sigma import sigma
from tpc.terms import parse_theory, print_term

from test_delta import _template_schemes

GOLDEN = Path(__file__).with_name("fingerprint.txt")
TUNING = Path(__file__).with_name("tuning.txt")
SIGMA = Path(__file__).with_name("sigma_outcomes.txt")

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


def _random_theory(rng) -> str:
    """Theory text with 1-3 axioms a, b, c over P of arity 1 or 2, unary F
    and G, binary R and the constant Z, as ``test_delta`` generates them,
    but with a left-hand side at most one deep below P and mostly
    variables, so that more of the axioms compose."""
    arity = rng.randint(1, 2)

    def term(depth, leaf):
        kind = rng.choice(("leaf", "F", "G", "R") if depth else ("leaf",))
        if kind == "leaf":
            return leaf()
        return f"{kind}({', '.join(term(depth - 1, leaf) for _ in range(2 if kind == 'R' else 1))})"

    def sentence(depth, leaf):
        return f"P({', '.join(term(depth, leaf) for _ in range(arity))})"

    lines = [f"start: {sentence(2, lambda: 'Z')}"]
    for name in "abc"[: rng.randint(1, 3)]:
        fresh = []

        def lhs_leaf():
            if rng.random() < 0.25:
                return "Z"
            fresh.append(f"x{len(fresh)}")
            return fresh[-1]

        lhs = sentence(rng.randint(0, 1), lhs_leaf)
        unused = list(fresh)

        def rhs_leaf():
            i = rng.randint(0, len(unused))
            return unused.pop(i) if i < len(unused) else "Z"

        lines.append(f"{name}: {lhs} -> {sentence(2, rhs_leaf)}")
    return "\n".join(lines)


SIGMA_THEORIES = 50
# fit grids of 81 and 121 combinations, larger than the 40-sample cap
SUB_GRID_TEMPLATES = ("{a}*.{b}*.{a}*.{b}*", "({a}*.{b})*.({b}*.{a})*")


def sigma_outcomes() -> list:
    rng = random.Random(2027)
    lines = []
    for i in range(SIGMA_THEORIES):
        text = _random_theory(rng)
        lines.append(f"{i} theory {text.replace(chr(10), ' | ')}")
        th = parse_theory(text)
        for scheme in _template_schemes(th) + _template_schemes(th, SUB_GRID_TEMPLATES):
            try:
                got = str(sigma(th, scheme))
            except TpcError as exc:
                got = _gave_up(exc)
            lines.append(f"{i} sigma {scheme} {got}")
    return lines


def test_fingerprint_matches_golden():
    assert fingerprint() == GOLDEN.read_text().splitlines()


def test_tuning_matches_golden():
    assert tuning() == TUNING.read_text().splitlines()


def test_sigma_outcomes_match_golden():
    assert sigma_outcomes() == SIGMA.read_text().splitlines()


def _compare(golden: Path, got: list) -> bool:
    want = golden.read_text().splitlines()
    for i, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            print(f"{golden.name} line {i} differs:\n  golden: {w}\n  got:    {g}")
    print(f"{golden.name}: {len(got)} lines, golden {len(want)}: {'identical' if got == want else 'DIFFERENT'}")
    return got == want


if __name__ == "__main__":
    outputs = {GOLDEN: fingerprint(), TUNING: tuning(), SIGMA: sigma_outcomes()}
    if sys.argv[1:] == ["--write"]:
        for golden, got in outputs.items():
            golden.write_text("\n".join(got) + "\n")
        sys.exit(0)
    same = [_compare(golden, got) for golden, got in outputs.items()]
    sys.exit(0 if all(same) else 1)
