"""Iterative expressions over axioms, multi-indexes and instantiation.

An iterative expression is a regex-like term over axiom names with
operators ``.`` (sequencing), ``*`` (iteration), ``|`` (choice) and
``eps``.  A multi-index picks one specific axiom sequence out of an
expression.

The layout of a multi-index is decided here and nowhere else.  An axiom
or eps takes no index, the unit index ``()``; a star takes the tuple of
its body's indexes, or a plain count when its body takes none; a choice
takes ``(branch, index of that branch)``; a sequence takes the indexes of
its parts that take one, joined: ``()`` for none, a lone one as itself,
several as their tuple.  A list serves wherever a tuple does.
``takes_index`` says whether a part takes an index.  ``instantiate``
checks an index against this layout in the same walk that selects the
axioms, ``index_from_stars`` builds an index, and ``star_kind`` tells
sigma what a star takes.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import ShapeError, TheorySyntaxError
from .terms import IDENTITY, Theory, compose_clauses, tokenize


# ---------------------------------------------------------------------------
# expressions


class IterExpr:
    __slots__ = ()

    def __str__(self):
        return print_scheme(self)


@dataclass(frozen=True)
class Axiom(IterExpr):
    name: str


@dataclass(frozen=True)
class Eps(IterExpr):
    pass


EPS = Eps()


@dataclass(frozen=True)
class Dot(IterExpr):
    parts: tuple

    def __post_init__(self):
        assert len(self.parts) >= 2


@dataclass(frozen=True)
class Star(IterExpr):
    body: IterExpr


@dataclass(frozen=True)
class Alt(IterExpr):
    parts: tuple

    def __post_init__(self):
        assert len(self.parts) >= 2


def dot(*parts) -> IterExpr:
    """Flattening Dot constructor; drops eps, unwraps singletons."""
    flat = []
    for p in parts:
        if isinstance(p, Dot):
            flat.extend(p.parts)
        elif isinstance(p, Eps):
            continue
        else:
            flat.append(p)
    if not flat:
        return EPS
    if len(flat) == 1:
        return flat[0]
    return Dot(tuple(flat))


def alt(*parts) -> IterExpr:
    flat = []
    for p in parts:
        if isinstance(p, Alt):
            flat.extend(p.parts)
        else:
            flat.append(p)
    uniq = []
    for p in flat:
        if p not in uniq:
            uniq.append(p)
    if len(uniq) == 1:
        return uniq[0]
    return Alt(tuple(uniq))


# ---------------------------------------------------------------------------
# multi-indexes


# an index's container is a tuple or a list; print_index prints containers
# nested PRINT_DEPTH deep and PRINT_ITEMS items in all, and any other value's
# first PRINT_CHARS characters, "..." for the rest
_CONTAINERS = (tuple, list)
PRINT_DEPTH = 10
PRINT_ITEMS = 100
PRINT_CHARS = 40


def print_index(m) -> str:
    """An index as text, lists in braces; any other value as its repr, or
    as its size for an int whose repr is longer than PRINT_CHARS."""
    left = PRINT_ITEMS

    def go(x, depth):
        nonlocal left
        if isinstance(x, int) and not -(10 ** (PRINT_CHARS - 1)) < x < 10**PRINT_CHARS:
            return f"<int of {x.bit_length()} bits>"
        if not isinstance(x, _CONTAINERS):
            text = repr(x)
            return text if len(text) <= PRINT_CHARS else text[:PRINT_CHARS] + "..."
        if depth == PRINT_DEPTH:
            return "..."
        parts = []
        for item in x:
            if not left:
                parts.append("...")
                break
            left -= 1
            parts.append(go(item, depth + 1))
        return "{" + ", ".join(parts) + "}"

    return go(m, 0)


# ---------------------------------------------------------------------------
# index layout


def takes_index(e: IterExpr) -> bool:
    """Whether *e* takes an index: a star or a choice does, an axiom or eps
    does not, and a sequence does when one of its parts does."""
    if isinstance(e, Dot):
        return any(map(takes_index, e.parts))
    return isinstance(e, (Star, Alt))


def index_from_stars(e: IterExpr, values):
    """The index of *e*, a scheme with no choice, whose stars take
    *values*, left to right: each a count, or a tuple of counts for a star
    whose body takes an index.  Only the outermost stars take a value."""
    values = iter(values)

    def go(x):
        if isinstance(x, Star):
            return next(values)
        if isinstance(x, Dot):
            items = [go(p) for p in x.parts if takes_index(p)]
            return items[0] if len(items) == 1 else tuple(items)
        return ()

    return go(e)


def star_kind(e: Star):
    """What the star *e* takes in the flat layout that sigma samples:
    "scalar" (a count) when its body takes no index, "multi" (a tuple of
    counts) when the body's one part that takes an index, through
    sequences, is a star whose body takes none, and None when it nests
    deeper."""
    body = e.body
    if not takes_index(body):
        return "scalar"
    while isinstance(body, Dot):
        takers = [p for p in body.parts if takes_index(p)]
        if len(takers) > 1:
            return None
        body = takers[0]
    return "multi" if isinstance(body, Star) and not takes_index(body.body) else None


def instantiate(e: IterExpr, m) -> list:
    """The specific expression (ordered list of axiom names) selected by
    multi-index *m*, checked against the layout as it is walked: a list
    serves wherever a tuple does, a part that takes no index accepts the
    unit index (), an empty list or 0, and a plain count n stands for n
    repetitions of a star body that takes none.  A misshapen index raises
    ShapeError at its 1-based position."""
    out = []
    _instantiate(e, m, (), out)
    return out


def _instantiate(e: IterExpr, m, path, out) -> None:
    if isinstance(e, Star):
        if isinstance(m, int):
            if m < 0:
                raise ShapeError(f"a count cannot be negative, got {print_index(m)}", path)
            if takes_index(e.body):
                raise ShapeError("a plain number cannot stand for a list of structured indexes", path)
            try:
                out.extend(instantiate(e.body, ()) * m)
            except (MemoryError, OverflowError):
                # a repeat too long for an index, or refused by the allocator
                raise ShapeError(f"a count too large to repeat, got {print_index(m)}", path) from None
        elif not isinstance(m, _CONTAINERS):
            raise ShapeError(f"expected a list or number, got {print_index(m)}", path)
        else:
            for i, x in enumerate(m, start=1):
                _instantiate(e.body, x, path + (i,), out)
    elif isinstance(e, Alt):
        if not isinstance(m, _CONTAINERS) or len(m) != 2:
            raise ShapeError("a choice index must have length 2", path)
        branch, sub = m
        if not isinstance(branch, int) or not 1 <= branch <= len(e.parts):
            raise ShapeError(f"branch selector {print_index(branch)} out of range", path)
        _instantiate(e.parts[branch - 1], sub, path + (2,), out)
    elif not takes_index(e):
        if not (isinstance(m, (int, *_CONTAINERS)) and m in (0, (), [])):
            raise ShapeError(f"expected a unit index, got {print_index(m)}", path)
        if isinstance(e, Axiom):
            out.append(e.name)
        elif isinstance(e, Dot):
            for p in e.parts:
                _instantiate(p, (), path, out)
        elif not isinstance(e, Eps):
            raise TypeError(f"not an IterExpr: {e!r}")
    else:
        # a sequence: its index joins those of the parts that take one
        takers = [takes_index(p) for p in e.parts]
        n = sum(takers)
        if n == 1:
            subs = iter([(m, path)])
        elif isinstance(m, _CONTAINERS) and len(m) == n:
            subs = iter([(x, path + (i,)) for i, x in enumerate(m, start=1)])
        else:
            raise ShapeError(f"expected {n} index components, got {print_index(m)}", path)
        for p, taker in zip(e.parts, takers):
            x, at = next(subs) if taker else ((), path)
            _instantiate(p, x, at, out)


def build_scheme(axiom_names) -> IterExpr:
    """wrap_scheme folded over the names from eps: step 1 gives a1*, step n
    wraps the previous scheme as (alpha.an)*.alpha."""
    names = list(axiom_names)
    if not names:
        raise ValueError("axiom list must be non-empty")
    return functools.reduce(wrap_scheme, names, EPS)


def wrap_scheme(alpha: IterExpr, axiom_name: str) -> IterExpr:
    """One incremental construction step: (alpha.a)*.alpha."""
    return dot(Star(dot(alpha, Axiom(axiom_name))), alpha)


def reduce_specific(th: Theory, seq, prefix=None):
    """Left fold of clause composition from the identity clause, which
    names the result; the empty sequence is the identity clause.  None when
    the composed relation is empty.

    *prefix*, when given, is a caller-owned list that carries the fold from
    one call to the next: the ``state`` of :func:`compose_clauses` over the
    axioms of *seq*.  It never holds more entries than *seq* has names.
    The entries are only valid for the theory that made them; use one list
    per theory."""
    seq = tuple(seq)
    if not seq:
        if prefix:
            del prefix[:]
        return IDENTITY.canonical()
    clause = compose_clauses(*map(th.axiom, seq), state=prefix)
    return None if clause is None else clause.with_name(f"{IDENTITY.name}.{clause.name}")


# ---------------------------------------------------------------------------
# concrete syntax


_SCHEME_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[().*|]|(\S)")

# the deepest nesting of parentheses plus stars that parse_scheme accepts;
# every walk over a scheme recurses, so it stays well inside Python's limit
MAX_SCHEME_DEPTH = 100


def parse_scheme(text: str) -> IterExpr:
    tokens = [tok for tok, _ in tokenize(_SCHEME_TOKEN, text, " in scheme")]
    i = opened = 0

    def peek():
        return tokens[i] if i < len(tokens) else None

    def nested(depth):
        if depth > MAX_SCHEME_DEPTH:
            raise TheorySyntaxError(f"scheme nests parentheses and stars deeper than {MAX_SCHEME_DEPTH}")
        return depth

    # each parse_* returns an expression and its nesting of parentheses plus stars
    def parse_alt():
        nonlocal i
        parts = [parse_dot()]
        while peek() == "|":
            i += 1
            parts.append(parse_dot())
        exprs, depths = zip(*parts)
        return alt(*exprs), max(depths)

    def parse_dot():
        nonlocal i
        parts = [parse_star()]
        while peek() == ".":
            i += 1
            parts.append(parse_star())
        exprs, depths = zip(*parts)
        return dot(*exprs), max(depths)

    def parse_star():
        nonlocal i
        e, depth = parse_atom()
        while peek() == "*":
            i += 1
            e, depth = Star(e), nested(depth + 1)
        return e, depth

    def parse_atom():
        nonlocal i, opened
        tok = peek()
        if tok == "(":
            i += 1
            opened = nested(opened + 1)  # stops the descent in time
            e, depth = parse_alt()
            if peek() != ")":
                raise TheorySyntaxError("missing ')' in scheme")
            i += 1
            opened -= 1
            return e, nested(depth + 1)
        if tok is None or tok in ".*|)":
            raise TheorySyntaxError(f"unexpected {tok!r} in scheme")
        i += 1
        return (EPS if tok == "eps" else Axiom(tok)), 0

    e, _ = parse_alt()
    if i != len(tokens):
        raise TheorySyntaxError(f"trailing input in scheme: {tokens[i]!r}")
    return e


def print_scheme(e: IterExpr) -> str:
    def prec(x):
        if isinstance(x, Alt):
            return 0
        if isinstance(x, Dot):
            return 1
        if isinstance(x, Star):
            return 2
        return 3

    def go(x, parent_prec):
        if isinstance(x, Axiom):
            s = x.name
        elif isinstance(x, Eps):
            s = "eps"
        elif isinstance(x, Star):
            body = go(x.body, 3)
            s = body + "*"
        elif isinstance(x, Dot):
            s = ".".join(go(p, 2) for p in x.parts)
        elif isinstance(x, Alt):
            s = "|".join(go(p, 1) for p in x.parts)
        else:
            raise TypeError(x)
        if prec(x) < parent_prec:
            s = "(" + s + ")"
        return s

    return go(e, 0)
