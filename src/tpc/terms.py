"""Terms, clauses, theories, root-level clause application and proofs.

Sentences are ground trees; axioms are clause pairs ``p -> q`` with
``vars(rhs) <= vars(lhs)``, applied at the root only.  Everything here is
immutable and safe to share.  Trees can get very deep (chains of thousands
of nodes), so hashing is precomputed bottom-up and equality, parsing and
printing are all iterative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    ArityMismatch,
    FreeRhsVariable,
    InvalidProofStep,
    NonGroundStart,
    TheorySyntaxError,
    UnknownAxiom,
    UnsupportedRule,
)


class Term:
    """Base class; either a :class:`Var` or an :class:`App` node."""

    __slots__ = ()


class Var(Term):
    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("var", name))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Var) and other.name == self.name

    def __repr__(self):
        return f"Var({self.name!r})"

    def __str__(self):
        return self.name


class App(Term):
    """A functor node.  A constant is an App with no children."""

    __slots__ = ("functor", "children", "_hash", "size", "is_ground")

    def __init__(self, functor: str, children: tuple = ()):
        self.functor = functor
        self.children = tuple(children)
        self.size = 1 + sum(c.size if isinstance(c, App) else 1 for c in self.children)
        self.is_ground = all(isinstance(c, App) and c.is_ground for c in self.children)
        self._hash = hash(("app", functor, tuple(c._hash for c in self.children)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, App) or self._hash != other._hash:
            return False
        # iterative structural check; trees may be thousands of nodes deep
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if isinstance(a, Var):
                if not isinstance(b, Var) or a.name != b.name:
                    return False
                continue
            if not isinstance(b, App) or a.functor != b.functor or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __repr__(self):
        return f"App({self.functor!r}, {self.children!r})"

    def __str__(self):
        return print_term(self)


def is_variable_name(name: str) -> bool:
    return name[0].islower()


def term_size(t: Term) -> int:
    return t.size if isinstance(t, App) else 1


def print_term(t: Term) -> str:
    """Canonical minimal-whitespace form, e.g. ``F(x, y)``.  Iterative."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Var):
            out.append(node.name)
        elif not node.children:
            out.append(node.functor)
        else:
            out.append(node.functor + "(")
            stack.append(")")
            for i, c in enumerate(reversed(node.children)):
                stack.append(c)
                if i != len(node.children) - 1:
                    stack.append(", ")
    return "".join(out)


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[(),]|\s+")


def _tokenize_term(text: str, line=None):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise TheorySyntaxError(f"unexpected character {text[pos]!r}", line, pos + 1)
        tok = m.group(0)
        if not tok.isspace():
            tokens.append((tok, pos))
        pos = m.end()
    return tokens


def parse_term(text: str, line=None) -> Term:
    """Parse ``IDENT | IDENT '(' term (',' term)* ')'``.  Iterative, so
    arbitrarily deep chains are fine."""
    tokens = _tokenize_term(text, line)
    if not tokens:
        raise TheorySyntaxError("empty term", line)
    # stack of (functor_name, children_so_far)
    stack = []
    result = None
    i = 0
    n = len(tokens)

    def fail(msg, at):
        raise TheorySyntaxError(msg, line, at + 1)

    while i < n:
        tok, at = tokens[i]
        if tok == "(" or tok == ")" or tok == ",":
            fail(f"unexpected {tok!r}", at)
        node_name = tok
        i += 1
        if i < n and tokens[i][0] == "(":
            if is_variable_name(node_name):
                fail(f"variable {node_name!r} cannot take arguments", at)
            stack.append([node_name, []])
            i += 1
            continue
        node = Var(node_name) if is_variable_name(node_name) else App(node_name)
        # close off completed applications
        while True:
            if not stack:
                if result is not None:
                    fail("trailing input after complete term", at)
                result = node
                if i < n:
                    fail(f"unexpected {tokens[i][0]!r}", tokens[i][1])
                break
            stack[-1][1].append(node)
            if i >= n:
                fail("unexpected end of term", len(text) - 1)
            tok, at = tokens[i]
            if tok == ",":
                i += 1
                break
            if tok == ")":
                name, children = stack.pop()
                node = App(name, tuple(children))
                i += 1
                continue
            fail(f"expected ',' or ')', got {tok!r}", at)
    if result is None:
        raise TheorySyntaxError("unexpected end of term", line)
    return result


def free_vars(t: Term) -> set:
    out = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        else:
            stack.extend(node.children)
    return out


def match(pattern: Term, tree: Term, binding=None):
    """Match *pattern* against ground *tree* at the root.  Repeated
    variables require equal subtrees.  Returns the binding dict or None."""
    if binding is None:
        binding = {}
    stack = [(pattern, tree)]
    while stack:
        p, t = stack.pop()
        if isinstance(p, Var):
            seen = binding.get(p.name)
            if seen is None:
                binding[p.name] = t
            elif seen != t:
                return None
            continue
        if not isinstance(t, App) or t.functor != p.functor or len(t.children) != len(p.children):
            return None
        stack.extend(zip(p.children, t.children))
    return binding


def substitute(pattern: Term, binding: dict) -> Term:
    if isinstance(pattern, Var):
        return binding.get(pattern.name, pattern)
    if pattern.is_ground:
        return pattern
    return App(pattern.functor, tuple(substitute(c, binding) for c in pattern.children))


def _walk(t: Term, subst: dict) -> Term:
    while isinstance(t, Var) and t.name in subst:
        t = subst[t.name]
    return t


def _occurs(name: str, t: Term, subst: dict) -> bool:
    stack = [t]
    while stack:
        node = _walk(stack.pop(), subst)
        if isinstance(node, Var):
            if node.name == name:
                return True
        else:
            stack.extend(node.children)
    return False


def unify(a: Term, b: Term, subst=None):
    """Syntactic unification with occurs check.  Returns a substitution
    (triangular form; resolve with :func:`resolve`) or None."""
    if subst is None:
        subst = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = _walk(x, subst)
        y = _walk(y, subst)
        if x is y or x == y:
            continue
        if isinstance(x, Var):
            if _occurs(x.name, y, subst):
                return None
            subst[x.name] = y
            continue
        if isinstance(y, Var):
            if _occurs(y.name, x, subst):
                return None
            subst[y.name] = x
            continue
        if x.functor != y.functor or len(x.children) != len(y.children):
            return None
        stack.extend(zip(x.children, y.children))
    return subst


def resolve(t: Term, subst: dict) -> Term:
    t = _walk(t, subst)
    if isinstance(t, Var):
        return t
    return App(t.functor, tuple(resolve(c, subst) for c in t.children))


@dataclass(frozen=True)
class Clause:
    """A pattern pair ``lhs -> rhs``; both axioms and reduced specific
    expressions."""

    name: str
    lhs: Term
    rhs: Term

    def __post_init__(self):
        extra = free_vars(self.rhs) - free_vars(self.lhs)
        if extra:
            raise FreeRhsVariable(sorted(extra)[0], self.name)

    def rename(self, suffix: str) -> "Clause":
        mapping = {v: Var(v + suffix) for v in free_vars(self.lhs) | free_vars(self.rhs)}
        return Clause(self.name, substitute(self.lhs, mapping), substitute(self.rhs, mapping))

    def canonical(self) -> "Clause":
        """Variables renamed v0, v1, ... in DFS order over lhs then rhs."""
        mapping = {}

        def visit(t):
            if isinstance(t, Var):
                if t.name not in mapping:
                    mapping[t.name] = Var(f"v{len(mapping)}")
            else:
                for c in t.children:
                    visit(c)

        visit(self.lhs)
        visit(self.rhs)
        return Clause(self.name, substitute(self.lhs, mapping), substitute(self.rhs, mapping))

    def same_relation(self, other: "Clause") -> bool:
        a, b = self.canonical(), other.canonical()
        return a.lhs == b.lhs and a.rhs == b.rhs

    def __str__(self):
        return f"{print_term(self.lhs)} -> {print_term(self.rhs)}"


IDENTITY = Clause("eps", Var("x"), Var("x"))


def apply_clause(c: Clause, t: Term):
    """Root-only application; returns the result tree or None (no match)."""
    binding = match(c.lhs, t)
    if binding is None:
        return None
    return substitute(c.rhs, binding)


def compose_clauses(c1: Clause, c2: Clause):
    """The clause equivalent to applying c1 then c2, or None if the
    composed relation is empty."""
    a = c1.rename("_1")
    b = c2.rename("_2")
    subst = unify(a.rhs, b.lhs)
    if subst is None:
        return None
    name = f"{c1.name}.{c2.name}" if c1.name and c2.name else (c1.name or c2.name)
    return Clause(name, resolve(a.lhs, subst), resolve(b.rhs, subst)).canonical()


def _check_arities(terms, arities, owner):
    for t in terms:
        stack = [t]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                continue
            known = arities.get(node.functor)
            if known is None:
                arities[node.functor] = len(node.children)
            elif known != len(node.children):
                raise ArityMismatch(
                    f"functor {node.functor!r} used with arity {len(node.children)} in {owner!r}"
                    f" but previously with arity {known}"
                )
            stack.extend(node.children)


@dataclass(frozen=True)
class Theory:
    start: Term
    axioms: tuple = ()
    goal: Term = None
    _by_name: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.start, App) and self.start.is_ground):
            raise NonGroundStart(f"start sentence {print_term(self.start)} is not ground")
        if self.goal is not None and not (isinstance(self.goal, App) and self.goal.is_ground):
            raise NonGroundStart(f"goal sentence {print_term(self.goal)} is not ground")
        object.__setattr__(self, "axioms", tuple(self.axioms))
        arities = {}
        _check_arities([self.start] + ([self.goal] if self.goal is not None else []), arities, "start")
        by_name = {}
        for ax in self.axioms:
            if ax.name in by_name:
                raise TheorySyntaxError(f"duplicate axiom name {ax.name!r}")
            by_name[ax.name] = ax
            _check_arities([ax.lhs, ax.rhs], arities, ax.name)
        self._by_name.update(by_name)

    def __hash__(self):
        return hash((self.start, self.axioms, self.goal))

    def axiom(self, name: str) -> Clause:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAxiom(name) from None


@dataclass(frozen=True)
class Proof:
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


def check_proof(th: Theory, p: Proof) -> Term:
    """Replay the proof from the start sentence; returns the final sentence.

    Raises InvalidProofStep(i) (1-based) when step i does not apply."""
    current = th.start
    for i, name in enumerate(p.steps, start=1):
        nxt = apply_clause(th.axiom(name), current)
        if nxt is None:
            raise InvalidProofStep(i, name)
        current = nxt
    return current


def replay(th: Theory, start: Term, steps) -> Term:
    """Like check_proof but from an arbitrary ground tree; None on failure."""
    current = start
    for name in steps:
        current = apply_clause(th.axiom(name), current)
        if current is None:
            return None
    return current


def parse_theory(text: str) -> Theory:
    start = None
    goal = None
    axioms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise TheorySyntaxError("expected 'name: declaration'", lineno)
        name, _, rest = line.partition(":")
        name = name.strip()
        rest = rest.strip()
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", name):
            raise TheorySyntaxError(f"bad declaration name {name!r}", lineno)
        if name == "start":
            start = parse_term(rest, lineno)
        elif name == "goal":
            goal = parse_term(rest, lineno)
        else:
            if "->" not in rest:
                raise TheorySyntaxError(f"axiom {name!r} needs 'lhs -> rhs'", lineno)
            lhs_text, _, rhs_text = rest.partition("->")
            axioms.append(Clause(name, parse_term(lhs_text.strip(), lineno), parse_term(rhs_text.strip(), lineno)))
    if start is None:
        raise TheorySyntaxError("missing 'start:' declaration")
    return Theory(start=start, axioms=tuple(axioms), goal=goal)


def print_theory(th: Theory) -> str:
    lines = [f"start: {print_term(th.start)}"]
    for ax in th.axioms:
        lines.append(f"{ax.name}: {print_term(ax.lhs)} -> {print_term(ax.rhs)}")
    if th.goal is not None:
        lines.append(f"goal: {print_term(th.goal)}")
    return "\n".join(lines) + "\n"


def horn_to_tpc(facts, rules, goal) -> Theory:
    """Transform a Horn program with conjunctive bodies into a TPC theory.

    Facts F become ``x -> And(F, x)``; a rule B1 & ... & Bn -> H becomes
    ``And(B1, And(..., And(Bn, x)...)) -> And(H, x)``; the logic axioms
    l1/l2 are appended and the start sentence is S.
    """
    x = Var("x")
    axioms = []
    for i, fact in enumerate(facts, start=1):
        if not (isinstance(fact, App) and fact.is_ground):
            raise UnsupportedRule(f"fact {print_term(fact)} is not ground")
        axioms.append(Clause(f"p{i}", x, App("And", (fact, x))))
    for i, (body, head) in enumerate(rules, start=1):
        body = tuple(body)
        if not body:
            raise UnsupportedRule(f"rule a{i} has an empty body")
        lhs = x
        for atom in reversed(body):
            if isinstance(atom, Var):
                raise UnsupportedRule(f"rule a{i} has a non-atomic body element")
            lhs = App("And", (atom, lhs))
        axioms.append(Clause(f"a{i}", lhs, App("And", (head, x))))
    axioms.append(Clause("l1", App("And", (Var("x"), Var("y"))), Var("x")))
    axioms.append(Clause("l2", App("And", (Var("x"), Var("y"))), Var("y")))
    return Theory(start=App("S"), axioms=tuple(axioms), goal=goal)
