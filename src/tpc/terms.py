"""Terms, clauses, theories, root-level clause application and proofs.

Sentences are ground trees; axioms are clause pairs ``p -> q`` with
``vars(rhs) <= vars(lhs)``, applied at the root only.  Everything here is
immutable and safe to share.  Trees can get very deep (chains of thousands
of nodes), so hashing is precomputed bottom-up, and equality, parsing,
printing, matching, unification, the occurs check and the clause walks
(free variables, and resolving and renaming in ``Clause.canonical`` and
``compose_clauses``) are all iterative.  ``substitute`` still recurses,
but only over the pattern, an axiom or a path step, so axioms deeper than
about 500 nodes remain out of scope.

Replaying a proof builds a few nodes per step, so node construction is
kept to one plain loop: ``App`` computes its size, groundness and child
hashes in a single pass over its children, and ``substitute`` collects
the rebuilt children in a loop, with no generator in either.

``compose_clauses`` is the one clause fold: it keeps one substitution for
the whole fold, so a step costs the size of its clause and only the result
is resolved, and a caller-owned state lets the next fold resume from a
shared prefix.  The occurs check of a step's fresh variable follows only
the bindings that step made, until the step binds an older variable; from
then on it follows every binding.
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
        self.children = children = tuple(children)
        size = 1
        ground = True
        hashes = ()
        for c in children:
            if isinstance(c, App):
                size += c.size
                ground = ground and c.is_ground
            else:
                size += 1
                ground = False
            hashes += (c._hash,)
        self.size = size
        self.is_ground = ground
        self._hash = hash(("app", functor, hashes))

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


def sentence(t: Term, role: str = "sentence") -> Term:
    """*t*, which must be a ground tree; otherwise raises NonGroundStart,
    naming *t* by its *role*."""
    if not (isinstance(t, App) and t.is_ground):
        raise NonGroundStart(f"{role} {print_term(t)} is not ground")
    return t


def print_term(t: Term, memo: dict = None) -> str:
    """Canonical minimal-whitespace form, e.g. ``F(x, y)``.  Iterative.

    *memo*, if given, is a caller-owned dict from node to text.  Each node
    missing from it gets its text built from its children's texts and
    stored, so a subtree shared by many printed trees is printed once for
    as long as the caller keeps the memo.  Nodes are keyed by value (their
    hash is cached), so equal subtrees share one entry.  A memoised text
    copies its children's texts, which is quadratic on a deep chain, so
    one tree on its own is printed in a single pass without a memo."""
    if memo is not None:
        text = memo.get(t)
        if text is not None:
            return text
        stack = [t]
        while stack:
            node = stack[-1]
            if isinstance(node, Var):
                text = node.name
            else:
                texts = [memo.get(c) for c in node.children]
                if None in texts:
                    stack.extend(c for c, s in zip(node.children, texts) if s is None)
                    continue
                text = node.functor + "(" + ", ".join(texts) + ")" if texts else node.functor
            memo[stack.pop()] = text
        return text  # the last node built is t
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


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[(),]|(\S)")


def tokenize(pattern, text: str, where: str = "", line=None) -> list:
    """(token, 0-based column) of each match of *pattern* in *text*,
    whitespace skipped.  *pattern* ends in ``|(\\S)``: a character that
    group matches starts no token, and raises TheorySyntaxError."""
    tokens = []
    for m in pattern.finditer(text):
        if m.group(1) is not None:
            raise TheorySyntaxError(f"unexpected character {m.group(1)!r}{where}", line, m.start() + 1)
        tokens.append((m.group(0), m.start()))
    return tokens


def parse_term(text: str, line=None) -> Term:
    """Parse ``IDENT | IDENT '(' term (',' term)* ')'``.  Iterative, so
    arbitrarily deep chains are fine."""
    tokens = tokenize(_TOKEN, text, line=line)
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
    children = ()
    for c in pattern.children:
        children += (substitute(c, binding),)
    return App(pattern.functor, children)


def _walk(t: Term, subst: dict) -> Term:
    while isinstance(t, Var) and t.name in subst:
        t = subst[t.name]
    return t


def _occurs(name: str, t: Term, subst: dict, follow=None) -> bool:
    """Does variable *name* occur in *t* resolved through *subst*?  With
    *follow*, only the bindings of the variables named in it are followed;
    any other variable is taken as it stands."""
    stack = [t]
    while stack:
        node = stack.pop()
        while isinstance(node, Var) and node.name in subst and (follow is None or node.name in follow):
            node = subst[node.name]
        if isinstance(node, Var):
            if node.name == name:
                return True
        elif not node.is_ground:
            stack.extend(node.children)
    return False


def unify(a: Term, b: Term, subst: dict, fresh, trail: list):
    """Syntactic unification with occurs check, extending the triangular
    substitution *subst* (resolve with :func:`_rebuild`).  Returns it, or
    None when *a* and *b* do not unify.

    *fresh* names variables that no binding in *subst* mentions yet.  Of
    two variables a fresh one is bound, and until a variable that is not
    fresh gets bound, the occurs check for a fresh one follows only the
    bindings of fresh variables, since no other binding can lead to one.
    *trail* gets the name of each variable bound, also when unification
    fails, so that the caller can undo the bindings."""
    follow = fresh  # None from the first binding of a variable not in fresh
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = _walk(x, subst)
        y = _walk(y, subst)
        if x is y or x == y:
            continue
        if isinstance(y, Var) and (y.name in fresh or not isinstance(x, Var)):
            x, y = y, x
        if isinstance(x, Var):
            if x.name not in fresh:
                follow = None
            if _occurs(x.name, y, subst, follow):
                return None
            subst[x.name] = y
            trail.append(x.name)
            continue
        if x.functor != y.functor or len(x.children) != len(y.children):
            return None
        stack.extend(zip(x.children, y.children))
    return subst


def _rebuild(t: Term, subst: dict, names: dict) -> Term:
    """*t* resolved through the unifier *subst*, with each variable renamed
    to the next of v0, v1, ... in left-to-right order.  *names* maps the
    variables seen so far to their new names; share it between the sides
    of a clause.  A subtree that comes out unchanged, ground ones among
    them, is returned as it is.  Iterative."""
    done = []
    todo = [t]
    while todo:
        node = todo.pop()
        if node.__class__ is tuple:  # (app,): its children are done
            (node,) = node
            arity = len(node.children)
            children = tuple(done[-arity:])
            del done[-arity:]
            # items compare by identity first, and a rebuilt child differs
            # from the one it replaces, so this costs no deep comparison
            done.append(node if children == node.children else App(node.functor, children))
            continue
        node = _walk(node, subst)
        if isinstance(node, Var):
            new = names.get(node.name)
            if new is None:
                new = f"v{len(names)}"
                new = names[node.name] = node if node.name == new else Var(new)
            done.append(new)
        elif node.is_ground:
            done.append(node)
        else:
            todo.append((node,))
            todo.extend(reversed(node.children))
    return done[0]


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

    def canonical(self) -> "Clause":
        """Variables renamed v0, v1, ... in DFS order over lhs then rhs."""
        names = {}
        return Clause(self.name, _rebuild(self.lhs, {}, names), _rebuild(self.rhs, {}, names))

    def same_relation(self, other: "Clause") -> bool:
        a, b = self.canonical(), other.canonical()
        return a.lhs == b.lhs and a.rhs == b.rhs

    def with_name(self, name: str) -> "Clause":
        return _clause(name, self.lhs, self.rhs)

    def __str__(self):
        return f"{print_term(self.lhs)} -> {print_term(self.rhs)}"


def _clause(name: str, lhs: Term, rhs: Term) -> Clause:
    """A Clause built without the free-variable check of ``__post_init__``,
    for sides that pass it by construction."""
    c = object.__new__(Clause)
    c.__dict__.update(name=name, lhs=lhs, rhs=rhs)
    return c


IDENTITY = Clause("eps", Var("x"), Var("x"))


def apply_clause(c: Clause, t: Term):
    """Root-only application; returns the result tree or None (no match)."""
    binding = match(c.lhs, t)
    if binding is None:
        return None
    return substitute(c.rhs, binding)


def compose_clauses(first: Clause, *rest: Clause, state=None):
    """The clause equivalent to applying the clauses in order, or None if
    the composed relation is empty.  The result is canonical and named by
    the clauses' non-empty names joined with dots.

    One triangular substitution serves the whole fold.  Step i renames
    clause i apart with the suffix ``'i``, which no parsed or canonical
    name carries, and unifies the previous step's renamed rhs, unresolved,
    with the renamed lhs, so a step costs the size of its clause, not of
    the fold.  Only the result is resolved and renamed.

    *state*, when given, is a caller-owned list that carries the fold from
    one call to the next: entry i is ``(clause i, its renamed lhs, its
    renamed rhs, the variables its step bound, the substitution)``.  A call
    resumes after the longest prefix of its clauses that the entries hold,
    undoes the bindings of the entries it drops and appends an entry per
    step it composes, so the list never holds more entries than clauses."""
    clauses = (first,) + rest
    if state is None:
        state = []
    k = 0
    while k < len(state) and k < len(clauses) and state[k][0] == clauses[k]:
        k += 1
    for _, _, _, bound, subst in state[k:]:
        for name in bound:
            del subst[name]
    del state[k:]
    subst = state[0][4] if state else {}
    for i in range(k, len(clauses)):
        c = clauses[i]
        apart = {v: Var(f"{v}'{i}") for v in free_vars(c.lhs)}
        lhs, rhs = substitute(c.lhs, apart), substitute(c.rhs, apart)
        bound = []
        if state and unify(state[-1][2], lhs, subst, {v.name for v in apart.values()}, bound) is None:
            for name in bound:
                del subst[name]
            return None
        state.append((c, lhs, rhs, bound, subst))
    names = {}
    lhs = _rebuild(state[0][1], subst, names)
    return _clause(".".join(c.name for c in clauses if c.name), lhs, _rebuild(state[-1][2], subst, names))


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
        sentence(self.start, "start sentence")
        if self.goal is not None:
            sentence(self.goal, "goal sentence")
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
