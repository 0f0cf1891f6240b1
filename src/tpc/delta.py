"""Scheme reduction: removing repetitions from iterative schemes.

Two kinds of rewriting run to a fixpoint here.  Pure normalizations are
relation-preserving identities that need no solver: flattening, lifting
alternatives out of concatenations, merging adjacent equal closures, and
absorbing ``x*.x.rest | rest`` into ``x*.rest``.  Solver-justified rules
fire only after an inclusion query comes back universal:

* absorption: ``(x*.y)*`` collapses to ``y*.x*.y | eps`` when one extra
  leading x is already covered, i.e. x.y.x*.y is included in y.x*.y;
* commutation: a single y moves left across ``x*`` when x.y and y.x
  describe the same relation.

Every applied rule is recorded in a trace as the scheme before and after
it, each step starting from the scheme the one before it left, and every
blocked attempt with the query that blocked it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import NotLinearizable, Unsupported
from .inclusion import includes
from .schemes import Alt, Axiom, Dot, EPS, Eps, IterExpr, Star, alt, dot, print_scheme
from .sigma import sigma
from .terms import Theory

MAX_REDUCTION_STEPS = 32


@dataclass(frozen=True)
class TraceStep:
    rule: str
    before: IterExpr
    after: IterExpr

    def __str__(self):
        return f"{self.rule}: {print_scheme(self.before)} => {print_scheme(self.after)}"


@dataclass(frozen=True)
class Attempt:
    """A rule that was considered and did not fire, with the query that
    blocked it."""

    rule: str
    target: IterExpr
    query: str
    reason: str

    def __str__(self):
        return f"{self.rule} blocked at {print_scheme(self.target)}: {self.query} ({self.reason})"


@dataclass(frozen=True)
class ReductionTrace:
    start: IterExpr
    steps: tuple = ()
    attempts: tuple = ()

    @property
    def result(self) -> IterExpr:
        return self.steps[-1].after if self.steps else self.start


@lru_cache(maxsize=512)
def _sigma_cached(theory: Theory, scheme: IterExpr):
    """sigma(theory, scheme), or the NotLinearizable it gave up with as
    its type and message: a kept exception would keep its traceback, and
    every frame on it, alive."""
    try:
        return sigma(theory, scheme)
    except NotLinearizable as exc:
        return type(exc), str(exc)


def _sigma(theory: Theory, scheme: IterExpr):
    """sigma through the cache, a give-up raised afresh on every call."""
    got = _sigma_cached(theory, scheme)
    if isinstance(got, tuple):
        raise got[0](got[1])
    return got


# ---------------------------------------------------------------------------
# solver-backed tests


def check_absorption(theory: Theory, x: IterExpr, y: IterExpr) -> bool:
    """Is one extra leading x of (x*.y) redundant, i.e.
    x.y.x*.y included in y.x*.y?"""
    f = _sigma(theory, dot(x, y, Star(x), y))
    g = _sigma(theory, dot(y, Star(x), y))
    return includes(f, g).universal


def check_commutation(theory: Theory, x: IterExpr, y: IterExpr) -> bool:
    """Do x and y commute as relations (x.y = y.x)?"""
    f = _sigma(theory, dot(x, y))
    g = _sigma(theory, dot(y, x))
    return includes(f, g).universal and includes(g, f).universal


# ---------------------------------------------------------------------------
# pure normalizations


def _star_parts(x: IterExpr) -> tuple:
    return x.parts if isinstance(x, Dot) else (x,)


def _normalize_once(e: IterExpr) -> IterExpr:
    if isinstance(e, (Axiom, Eps)):
        return e
    if isinstance(e, Star):
        return Star(_normalize_once(e.body))
    if isinstance(e, Dot):
        parts = [_normalize_once(p) for p in e.parts]
        for i, p in enumerate(parts):
            if isinstance(p, Alt):
                return alt(*(dot(*parts[:i], q, *parts[i + 1:]) for q in p.parts))
        merged = []
        for p in parts:
            if merged and isinstance(p, Star) and p == merged[-1]:
                continue
            merged.append(p)
        return dot(*merged)
    if isinstance(e, Alt):
        parts = [_normalize_once(p) for p in e.parts]
        for i, p in enumerate(parts):
            if not (isinstance(p, Dot) and isinstance(p.parts[0], Star)):
                continue
            x = p.parts[0].body
            xs = _star_parts(x)
            rest = p.parts[1:]
            if rest[: len(xs)] != xs:
                continue
            tail = dot(*rest[len(xs):]) if rest[len(xs):] else EPS
            for j, q in enumerate(parts):
                if j != i and q == tail:
                    keep = [r for idx, r in enumerate(parts) if idx not in (i, j)]
                    repl = dot(p.parts[0], *rest[len(xs):])
                    return alt(repl, *keep) if keep else repl
        return alt(*parts)
    raise TypeError(e)


def normalize(e: IterExpr) -> IterExpr:
    for _ in range(MAX_REDUCTION_STEPS):
        new = _normalize_once(e)
        if new == e:
            return e
        e = new
    return e


# ---------------------------------------------------------------------------
# solver-backed rewriting


def _try_everywhere(e: IterExpr, rule):
    new = rule(e)
    if new is not None:
        return new
    if isinstance(e, Star):
        body = _try_everywhere(e.body, rule)
        return None if body is None else Star(body)
    if isinstance(e, (Dot, Alt)):
        for i, p in enumerate(e.parts):
            sub = _try_everywhere(p, rule)
            if sub is not None:
                parts = e.parts[:i] + (sub,) + e.parts[i + 1:]
                return dot(*parts) if isinstance(e, Dot) else alt(*parts)
    return None


def reduce_scheme(theory: Theory, scheme: IterExpr):
    """Reduces *scheme* to a fixpoint of normalizations plus justified
    rewrites; returns (reduced scheme, trace)."""
    steps = []
    attempts = []
    current = scheme

    def record(rule, before, after):
        steps.append(TraceStep(rule, before, after))
        return after

    def holds(rule, target, check, x, y, left, right):
        """check(theory, x, y); a query sigma or inclusion cannot answer
        counts as not holding and is recorded as a blocked attempt."""
        try:
            return check(theory, x, y)
        except (NotLinearizable, Unsupported) as exc:
            query = f"INCLUDES({print_scheme(left)}, {print_scheme(right)})"
            attempts.append(Attempt(rule, target, query, str(exc)))
            return False

    def r_absorption(e):
        if not (isinstance(e, Star) and isinstance(e.body, Dot)):
            return None
        parts = e.body.parts
        if not isinstance(parts[0], Star):
            return None
        x, y = parts[0].body, dot(*parts[1:])
        if holds("absorption", e, check_absorption, x, y, dot(x, y, Star(x), y), dot(y, Star(x), y)):
            return alt(dot(Star(y), Star(x), y), EPS)
        return None

    def r_commutation(e):
        if not isinstance(e, Dot):
            return None
        for i in range(len(e.parts) - 1):
            p, q = e.parts[i], e.parts[i + 1]
            if not isinstance(p, Star) or isinstance(q, (Star, Eps)) or q == p.body:
                continue
            if holds("commutation", e, check_commutation, p.body, q, dot(p.body, q), dot(q, p.body)):
                return dot(*e.parts[:i], q, p, *e.parts[i + 2:])
        return None

    rules = (("absorption", r_absorption), ("commutation", r_commutation))
    for _ in range(MAX_REDUCTION_STEPS):
        normalized = normalize(current)
        if normalized != current:
            current = record("normalize", current, normalized)
            continue
        for name, rule in rules:
            new = _try_everywhere(current, rule)
            if new is not None:
                current = record(name, current, new)
                break
        else:
            break

    return current, ReductionTrace(scheme, tuple(steps), tuple(attempts))


# ---------------------------------------------------------------------------
# axiom ordering


def order_axioms(theory: Theory) -> list:
    """The order in which ``pipeline`` folds the axioms in: the declared
    one."""
    return [c.name for c in theory.axioms]
