"""Golden behaviour fingerprint of synthesis.

For each bundled theory: the characteristic function ``pipeline`` builds
(without the oracle self-check) and every reduction step and blocked
attempt, or the exception it gives up with; then ``sigma`` of a fixed list
of schemes on each theory, or the exception it raises.  A change that
keeps these lines keeps what synthesis produces.

Run as a script (no pytest needed) to compare against the golden file, or
with ``--write`` to regenerate it:

    PYTHONPATH=src python3 tests/test_fingerprint.py [--write]
"""

import sys
from pathlib import Path

from tpc import load_theory, parse_scheme
from tpc.errors import TpcError
from tpc.pipeline import pipeline
from tpc.sigma import sigma

GOLDEN = Path(__file__).with_name("fingerprint.txt")

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


def test_fingerprint_matches_golden():
    assert fingerprint() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    got = fingerprint()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text("\n".join(got) + "\n")
        sys.exit(0)
    want = GOLDEN.read_text().splitlines()
    for i, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            print(f"line {i} differs:\n  golden: {w}\n  got:    {g}")
    print(f"{len(got)} lines, golden {len(want)}: {'identical' if got == want else 'DIFFERENT'}")
    sys.exit(0 if got == want else 1)
