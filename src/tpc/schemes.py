"""Iterative expressions over axioms, multi-indexes and instantiation.

An iterative expression is a regex-like term over axiom names with
operators ``.`` (sequencing), ``*`` (iteration), ``|`` (choice) and
``eps``.  A multi-index picks one specific axiom sequence out of an
expression; enumerating multi-indexes walks the whole proof space.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import ShapeError, TheorySyntaxError
from .terms import IDENTITY, Theory, compose_clauses


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


class _Unit:
    """Placeholder index for components that consume nothing."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "u"


UNIT = _Unit()


def index_key(m):
    """Deterministic total order on canonical multi-indexes."""
    if m is UNIT:
        return (0,)
    if isinstance(m, int):
        return (1, m)
    return (2, len(m)) + tuple(index_key(x) for x in m)


def print_index(m) -> str:
    if m is UNIT:
        return "u"
    if isinstance(m, int):
        return str(m)
    return "{" + ", ".join(print_index(x) for x in m) + "}"


def parse_index(text: str):
    """Parses the curly-brace index notation, e.g. ``{{2, 0, 1}, 3}``."""
    tokens = re.findall(r"\{|\}|,|\d+|u|\S", text)
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise TheorySyntaxError("unexpected end of multi-index")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_one():
        tok = take()
        if tok == "u":
            return UNIT
        if tok.isdigit():
            return int(tok)
        if tok == "{":
            items = []
            nonlocal pos
            if pos < len(tokens) and tokens[pos] == "}":
                pos += 1
                return tuple(items)
            while True:
                items.append(parse_one())
                tok = take()
                if tok == "}":
                    return tuple(items)
                if tok != ",":
                    raise TheorySyntaxError(f"expected ',' or '}}' in multi-index, got {tok!r}")
        raise TheorySyntaxError(f"unexpected {tok!r} in multi-index")

    out = parse_one()
    if pos != len(tokens):
        raise TheorySyntaxError("trailing input after multi-index")
    return out


# ---------------------------------------------------------------------------
# index shapes


class IndexShape:
    __slots__ = ()


@dataclass(frozen=True)
class UnitShape(IndexShape):
    pass


@dataclass(frozen=True)
class ListOf(IndexShape):
    inner: IndexShape


@dataclass(frozen=True)
class TupleShape(IndexShape):
    parts: tuple


@dataclass(frozen=True)
class Choice(IndexShape):
    parts: tuple


UNIT_SHAPE = UnitShape()


def shape_of(e: IterExpr) -> IndexShape:
    if isinstance(e, (Axiom, Eps)):
        return UNIT_SHAPE
    if isinstance(e, Star):
        return ListOf(shape_of(e.body))
    if isinstance(e, Dot):
        nonunit = [s for s in map(shape_of, e.parts) if s != UNIT_SHAPE]
        if not nonunit:
            return UNIT_SHAPE
        if len(nonunit) == 1:
            return nonunit[0]
        return TupleShape(tuple(nonunit))
    if isinstance(e, Alt):
        return Choice(tuple(shape_of(p) for p in e.parts))
    raise TypeError(f"not an IterExpr: {e!r}")


def _coerce(shape: IndexShape, m, path):
    if isinstance(shape, UnitShape):
        if m is UNIT or m == 0 or m == ():
            return UNIT
        raise ShapeError(f"expected a unit index, got {print_index(m)}", path)
    if isinstance(shape, ListOf):
        if isinstance(m, int):
            if isinstance(shape.inner, UnitShape):
                return (UNIT,) * m
            raise ShapeError(
                f"a plain number cannot stand for a list of structured indexes", path
            )
        if m is UNIT:
            raise ShapeError("expected a list or number, got a unit placeholder", path)
        return tuple(_coerce(shape.inner, x, path + (i,)) for i, x in enumerate(m, start=1))
    if isinstance(shape, TupleShape):
        if isinstance(m, int) and len(shape.parts) == 1:
            m = (m,)
        if not isinstance(m, tuple) or len(m) != len(shape.parts):
            raise ShapeError(
                f"expected {len(shape.parts)} index components, got {print_index(m)}", path
            )
        return tuple(_coerce(s, x, path + (i,)) for i, (s, x) in enumerate(zip(shape.parts, m), start=1))
    if isinstance(shape, Choice):
        if not isinstance(m, tuple) or len(m) != 2:
            raise ShapeError("a choice index must have length 2", path)
        branch, sub = m
        if not isinstance(branch, int) or not (1 <= branch <= len(shape.parts)):
            raise ShapeError(f"branch selector {print_index(branch)} out of range", path)
        return (branch, _coerce(shape.parts[branch - 1], sub, path + (2,)))
    raise TypeError(shape)


def coerce_index(e: IterExpr, m):
    """Canonicalize *m* to shape_of(e); a Nat n where a list of units is
    expected becomes n unit placeholders."""
    return _coerce(shape_of(e), m, ())


def instantiate(e: IterExpr, m) -> list:
    """The specific expression (ordered list of axiom names) selected by
    multi-index *m*."""
    return _instantiate(e, coerce_index(e, m))


def _instantiate(e: IterExpr, c) -> list:
    if isinstance(e, Axiom):
        return [e.name]
    if isinstance(e, Eps):
        return []
    if isinstance(e, Star):
        out = []
        for elem in c:
            out.extend(_instantiate(e.body, elem))
        return out
    if isinstance(e, Dot):
        shapes = [shape_of(p) for p in e.parts]
        nonunit = [p for p, s in zip(e.parts, shapes) if s != UNIT_SHAPE]
        if len(nonunit) <= 1:
            components = [c] if nonunit else []
        else:
            components = list(c)
        out = []
        k = 0
        for p, s in zip(e.parts, shapes):
            if s == UNIT_SHAPE:
                out.extend(_instantiate(p, UNIT))
            else:
                out.extend(_instantiate(p, components[k]))
                k += 1
        return out
    if isinstance(e, Alt):
        branch, sub = c
        return _instantiate(e.parts[branch - 1], sub)
    raise TypeError(e)


def min_length(e: IterExpr) -> int:
    if isinstance(e, Axiom):
        return 1
    if isinstance(e, Eps):
        return 0
    if isinstance(e, Star):
        return 0
    if isinstance(e, Dot):
        return sum(min_length(p) for p in e.parts)
    if isinstance(e, Alt):
        return min(min_length(p) for p in e.parts)
    raise TypeError(e)


def _gen_exact(e: IterExpr, L: int):
    """Canonical indexes of *e* whose instantiation has length exactly L.

    A starred body of minimum length 0 is capped at L repetitions so the
    enumeration stays finite."""
    if isinstance(e, Axiom):
        if L == 1:
            yield UNIT
        return
    if isinstance(e, Eps):
        if L == 0:
            yield UNIT
        return
    if isinstance(e, Star):
        lo = min_length(e.body)
        # nullable bodies are capped at L repetitions to keep this finite
        max_reps = L // lo if lo > 0 else L

        def go(remaining, reps_left):
            if remaining == 0:
                yield ()
            if reps_left == 0:
                return
            for first_len in range(lo, remaining + 1):
                for head in _gen_exact(e.body, first_len):
                    for tail in go(remaining - first_len, reps_left - 1):
                        yield (head,) + tail

        yield from go(L, max_reps)
        return
    if isinstance(e, Dot):
        shapes = [shape_of(p) for p in e.parts]

        def go(i, remaining):
            if i == len(e.parts):
                if remaining == 0:
                    yield ()
                return
            p = e.parts[i]
            lo = min_length(p)
            for here in range(lo, remaining + 1):
                for idx in _gen_exact(p, here):
                    for rest in go(i + 1, remaining - here):
                        if shapes[i] == UNIT_SHAPE:
                            yield rest
                        else:
                            yield (idx,) + rest

        nonunit_count = sum(1 for s in shapes if s != UNIT_SHAPE)
        for combo in go(0, L):
            if nonunit_count == 0:
                yield UNIT
            elif nonunit_count == 1:
                yield combo[0]
            else:
                yield combo
        return
    if isinstance(e, Alt):
        for b, p in enumerate(e.parts, start=1):
            for idx in _gen_exact(p, L):
                yield (b, idx)
        return
    raise TypeError(e)


def enumerate_indices(e: IterExpr, budget: int):
    """Every canonical index whose instantiation has length <= budget, in
    shortlex order (instantiated length, then structural order)."""
    out = []
    for L in range(budget + 1):
        out.extend(sorted(set(_gen_exact(e, L)), key=index_key))
    return out


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
    """Left fold of clause composition; the empty sequence is the identity
    clause.  None when the composed relation is empty.

    *prefix*, when given, is a caller-owned list that carries the fold from
    one call to the next: entry i is ``(seq[i], clause of seq[:i + 1])``.
    A call resumes after the longest prefix its *seq* shares with the
    entries, truncates the list there and appends the steps it composes,
    so the list never holds more entries than the current *seq* has names.
    The entries are only valid for the theory that made them; use one list
    per theory."""
    seq = tuple(seq)
    if prefix is None:
        prefix = []
    k = 0
    while k < len(prefix) and k < len(seq) and prefix[k][0] == seq[k]:
        k += 1
    del prefix[k:]
    if not seq:
        return IDENTITY.canonical()
    clause = prefix[-1][1] if prefix else IDENTITY
    for name in seq[k:]:
        clause = compose_clauses(clause, th.axiom(name))
        if clause is None:
            return None
        prefix.append((name, clause))
    return clause


# ---------------------------------------------------------------------------
# concrete syntax


_SCHEME_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[().*|]|\s+")


def parse_scheme(text: str) -> IterExpr:
    pos = 0
    tokens = []
    while pos < len(text):
        m = _SCHEME_TOKEN.match(text, pos)
        if not m:
            raise TheorySyntaxError(f"unexpected character {text[pos]!r} in scheme", column=pos + 1)
        tok = m.group(0)
        if not tok.isspace():
            tokens.append(tok)
        pos = m.end()
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else None

    def parse_alt():
        nonlocal i
        parts = [parse_dot()]
        while peek() == "|":
            i += 1
            parts.append(parse_dot())
        return parts[0] if len(parts) == 1 else Alt(tuple(parts))

    def parse_dot():
        nonlocal i
        parts = [parse_star()]
        while peek() == ".":
            i += 1
            parts.append(parse_star())
        return dot(*parts) if len(parts) > 1 else parts[0]

    def parse_star():
        nonlocal i
        e = parse_atom()
        while peek() == "*":
            i += 1
            e = Star(e)
        return e

    def parse_atom():
        nonlocal i
        tok = peek()
        if tok == "(":
            i += 1
            e = parse_alt()
            if peek() != ")":
                raise TheorySyntaxError("missing ')' in scheme")
            i += 1
            return e
        if tok is None or tok in ".*|)":
            raise TheorySyntaxError(f"unexpected {tok!r} in scheme")
        i += 1
        return EPS if tok == "eps" else Axiom(tok)

    e = parse_alt()
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
