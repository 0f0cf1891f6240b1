"""Command-line interface: theory inspection, brute-force search, and the
synthesized decision procedures.  ``oracle`` without ``--dump`` is
``prove --method oracle``: one path finds a proof, certifies it from its
goal with ``final.reaches`` and prints it.

Exit codes: 0 success, 1 negative decision or nothing found, 2 usage
error, 3 the generated procedure gave up (NotLinearizable/Unsupported
during synthesis, InternalMismatch when it fails its self-check or a proof
fails ``reaches``, Ambiguous during tuning), 4 any other exception, an
internal error.  Exits 2-4 print ``error: ...`` on stderr, or argparse's
usage text for a command line that does not parse; under ``--json`` they
also print a ``tpc/1`` object on stdout whose ``error`` holds the
exception type (``InternalError`` for exit 4), its message and the exit
code.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__, load_theory
from .delta import order_axioms, reduce_scheme
from .errors import Ambiguous, InternalMismatch, NotLinearizable, TpcError, Unsupported
from .final import reaches
from .inclusion import includes
from .oracle import SearchBudget, decide_oracle, find_proof, reachable_set
from .pipeline import pipeline
from .schemes import build_scheme, parse_scheme, print_scheme
from .sigma import sigma
from .terms import parse_term, parse_theory, print_theory, sentence

SCHEMA = "tpc/1"

# the typed give-ups of the generated procedure: exit 3, or under
# --method auto a fall-back to the oracle
GIVE_UPS = (NotLinearizable, Unsupported, InternalMismatch, Ambiguous)

log = logging.getLogger("tpc")


def _theory(spec: str):
    path = Path(spec)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise TpcError(f"cannot read theory file {spec}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise TpcError(f"theory file {spec} is not UTF-8 text") from None
        return parse_theory(text)
    try:
        return load_theory(spec)
    except FileNotFoundError:
        raise TpcError(f"no such theory file or bundled theory: {spec}") from None


def _sentence(text: str):
    """The ground tree written in *text*; sentences have no variables."""
    return sentence(parse_term(text))


def _bound(text: str) -> int:
    """A search bound: an int that is not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _budget(args) -> SearchBudget:
    return SearchBudget(max_depth=args.max_depth, max_tree_size=args.max_tree_size)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        payload = {"schema": SCHEMA, "version": __version__, **payload}
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def _charfn_dump(fn):
    return {
        "scheme": print_scheme(fn.scheme),
        "branches": [
            {
                "decls": [{"name": d.name, "kind": d.kind} for d in b.decls],
                "atoms": [str(a) for a in b.atoms],
            }
            for b in fn.branches
        ],
    }


def _trace_dump(trace):
    return {
        "start": print_scheme(trace.start),
        "result": print_scheme(trace.result),
        "steps": [
            {"rule": s.rule, "before": print_scheme(s.before), "after": print_scheme(s.after)}
            for s in trace.steps
        ],
        "attempts": [
            {"rule": a.rule, "target": print_scheme(a.target), "query": a.query, "reason": a.reason}
            for a in trace.attempts
        ],
    }


def _cmd_parse(args) -> int:
    th = _theory(args.file)
    _emit(args, {"theory": print_theory(th)}, print_theory(th))
    return 0


def _cmd_oracle(args) -> int:
    """--dump lists the reachable sentences; else ``prove --method oracle``."""
    if not args.dump:
        return _cmd_prove(args)
    if args.goal is not None:
        raise TpcError("--dump lists the sentences reachable from the start; it takes no --goal")
    th = _theory(args.file)
    memo = {}
    trees = [memo[t] for t in reachable_set(th, th.start, _budget(args), memo)]
    _emit(args, {"reachable": trees}, "\n".join(trees))
    return 0


def _by_method(args, th, generated, oracle):
    """(method, answer): "generated" and generated(procedure), or "oracle"
    and oracle(budget), as --method picks; under auto, a give-up in
    synthesis, self-check or tuning falls back to the oracle."""
    if args.method != "oracle":
        try:
            return "generated", generated(pipeline(th, selfcheck=not args.no_selfcheck))
        except GIVE_UPS:
            if args.method == "generated":
                raise
            log.info("generated procedure gave up, falling back to oracle search")
    return "oracle", oracle(_budget(args))


def _cmd_prove(args) -> int:
    th = _theory(args.file)
    goal = _sentence(args.goal) if args.goal else th.goal
    if goal is None:
        raise TpcError("theory has no goal; pass --goal TERM")
    method, proof = _by_method(
        args, th, lambda proc: proc.prove(goal), lambda budget: find_proof(th, goal, budget)
    )
    if proof is None:
        human = "no proof found within budget" if method == "oracle" else "no proof"
        _emit(args, {"proof": None, "method": method}, human)
        return 1
    if not reaches(th, th.start, proof.steps, goal):
        raise InternalMismatch("found proof does not replay to the goal")
    _emit(args, {"proof": list(proof.steps), "method": method}, ".".join(proof.steps) or "eps")
    return 0


def _cmd_decide(args) -> int:
    th = _theory(args.file)
    t = _sentence(getattr(args, "from"))
    d = _sentence(args.to)
    method, verdict = _by_method(
        args, th, lambda proc: proc.decide(d, t), lambda budget: decide_oracle(th, t, d, budget)
    )
    _emit(args, {"decision": verdict, "method": method}, "true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_sigma(args) -> int:
    th = _theory(args.file)
    fn = sigma(th, parse_scheme(args.scheme))
    _emit(args, {"charfn": _charfn_dump(fn)}, str(fn))
    return 0


def _cmd_includes(args) -> int:
    th = _theory(args.file)
    left = sigma(th, parse_scheme(args.left))
    right = sigma(th, parse_scheme(args.right))
    res = includes(left, right)
    payload = {
        "system": [str(c) for c in res.system.conditions],
        "existentials": list(res.system.existentials),
        "region": {"kind": res.region.kind, "conditions": [str(c) for c in res.region.conditions]},
    }
    _emit(args, payload, f"region: {res.region}")
    return 0


def _cmd_reduce(args) -> int:
    th = _theory(args.file)
    if args.scheme:
        scheme = parse_scheme(args.scheme)
    else:
        scheme = build_scheme(order_axioms(th))
    reduced, trace = reduce_scheme(th, scheme)
    human = [f"reduced: {print_scheme(reduced)}"]
    human += [f"  {s}" for s in trace.steps]
    human += [f"  blocked: {a}" for a in trace.attempts]
    _emit(args, {"trace": _trace_dump(trace)}, "\n".join(human))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's usage text on stderr, then a TpcError in place of its exit."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise TpcError(message)


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="tpc",
        description="Membership deciders for truncated-predicate-calculus theories.",
    )
    p.add_argument("--json", action="store_true", help="structured JSON output")
    p.add_argument("--max-depth", type=_bound, default=8, help="proof search depth bound")
    p.add_argument("--max-tree-size", type=_bound, default=512, help="tree size bound for search")
    p.add_argument("--no-selfcheck", action="store_true", help="skip the oracle self-check")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse and reprint a theory")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_parse)

    sp = sub.add_parser("oracle", help="brute-force proof search")
    sp.add_argument("file")
    sp.add_argument("--goal", default=None)
    sp.add_argument("--dump", action="store_true", help="list reachable sentences")
    sp.set_defaults(func=_cmd_oracle, method="oracle")

    sp = sub.add_parser("prove", help="produce a replayable proof of the goal")
    sp.add_argument("file")
    sp.add_argument("--goal", default=None)
    sp.add_argument("--method", choices=["oracle", "generated", "auto"], default="auto")
    sp.set_defaults(func=_cmd_prove)

    sp = sub.add_parser("decide", help="decide reachability between two sentences")
    sp.add_argument("file")
    sp.add_argument("--from", required=True)
    sp.add_argument("--to", required=True)
    sp.add_argument("--method", choices=["oracle", "generated", "auto"], default="auto")
    sp.set_defaults(func=_cmd_decide)

    sp = sub.add_parser("sigma", help="synthesize a characteristic function")
    sp.add_argument("file")
    sp.add_argument("--scheme", required=True)
    sp.set_defaults(func=_cmd_sigma)

    sp = sub.add_parser("includes", help="inclusion region between two schemes")
    sp.add_argument("file")
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.set_defaults(func=_cmd_includes)

    sp = sub.add_parser("reduce", help="reduce a scheme, with trace")
    sp.add_argument("file")
    sp.add_argument("--scheme", default=None)
    sp.set_defaults(func=_cmd_reduce)
    return p


def main(argv=None) -> int:
    level = os.environ.get("TPC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except TpcError as exc:
        # --json, or an abbreviation argparse takes for it, among raw arguments
        if any(len(a) > 2 and "--json".startswith(a) for a in argv):
            _emit(argparse.Namespace(json=True), _error_object(exc, 2), "")
        raise SystemExit(2) from None
    try:
        return args.func(args)
    except GIVE_UPS as exc:
        return _fail(args, exc, 3)
    except TpcError as exc:
        return _fail(args, exc, 2)
    except Exception as exc:
        log.debug("internal error", exc_info=exc)
        return _fail(args, exc, 4)


def _error_object(exc: Exception, code: int) -> dict:
    kind, message = type(exc).__name__, str(exc)
    if not isinstance(exc, TpcError):
        kind, message = "InternalError", f"{kind}: {message}"
    return {"error": {"type": kind, "message": message, "exit_code": code}}


def _fail(args, exc: Exception, code: int) -> int:
    error = _error_object(exc, code)
    print(f"error: {error['error']['message']}", file=sys.stderr)
    if args.json:
        _emit(args, error, "")
    return code


if __name__ == "__main__":
    sys.exit(main())
