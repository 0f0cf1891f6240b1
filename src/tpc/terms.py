"""Terms, clauses, theories, root-level clause application and proofs.

Sentences are ground trees; axioms are clause pairs ``p -> q`` with
``vars(rhs) <= vars(lhs)``, applied at the root only.  Everything here is
immutable and safe to share.  Trees can get very deep (chains of thousands
of nodes), so hashing is precomputed bottom-up, and equality, parsing,
printing, compiling root application, unification, the occurs check and
the clause walks (free variables, and resolving and renaming in
``compose_clauses``) are all iterative, so an axiom may be as deep as a
sentence.

Root application is compiled.  ``apply_clause`` turns an axiom, the first
time it applies it, into straight-line code that it keeps on the clause:
a class, functor and arity test per lhs node, and an ``App`` call per rhs
node that is not ground.  So brute-force search, proof replay and
``undo``, which applies each axiom's inverse ``rhs -> lhs`` to walk a
proof back from its goal, match and substitute nothing per tree.  A run
of one pumping axiom ``C[z1, ...] -> C[D1[z1], ...]`` (``_holes``) is
undone in one walk: the inverse undoes its last step, each compiled
``Di[zi] -> zi`` strips the rest of the run off its hole, and C is built
once.  That trusts one lemma, checked per axiom on its syntax: n steps
rewrite ``C[t1, ...]`` to ``C[D1^n[t1], ...]``.
A path step (``paths.Step``) is no clause: it is one functor and arity
test and a child read.  Node construction is one plain loop: ``App``
computes its size, groundness and child hashes in a single pass over its
children, with no generator.

``compose_clauses`` is the one clause fold.  A variable of the fold is
the pair (its name, the step of its clause), so no clause is renamed
apart: one substitution serves the whole fold, a step costs one
unification the size of its clause, and only the result is resolved.  The
occurs check of a step's fresh variable follows only the bindings that
step made, until the step binds an older variable; from then on it
follows every binding.
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


def _walk(t: Term, i: int, subst: dict) -> tuple:
    """(term, step) that *t*, read at step *i*, resolves to through *subst*."""
    while isinstance(t, Var) and (t.name, i) in subst:
        t, i = subst[t.name, i]
    return t, i


def _occurs(v: tuple, t: Term, i: int, subst: dict, follow=None) -> bool:
    """Does the variable *v*, a (name, step) pair, occur in *t* read at step
    *i* and resolved through *subst*?  With *follow* a step, only the
    bindings of that step's variables are followed; any other variable is
    taken as it stands."""
    stack = [(t, i)]
    while stack:
        node, i = stack.pop()
        while isinstance(node, Var) and (follow is None or i == follow) and (node.name, i) in subst:
            node, i = subst[node.name, i]
        if isinstance(node, Var):
            if node.name == v[0] and i == v[1]:
                return True
        elif not node.is_ground:
            stack.extend([(c, i) for c in node.children])
    return False


def unify(a: Term, i: int, b: Term, j: int, subst: dict):
    """Syntactic unification with occurs check of *a* read at step *i* with
    *b* read at step *j*, extending the triangular substitution *subst*
    from (name, step) to (term, step) (resolve with :func:`_rebuild`).
    Returns it, or None when they do not unify.

    The variables of step *j* are fresh: no binding in *subst* mentions
    them yet.  Of two variables a fresh one is bound, and until a variable
    of another step gets bound, the occurs check for a fresh one follows
    only the bindings of fresh variables, since no other binding can lead
    to one."""
    follow = j  # None from the first binding of a variable of another step
    stack = [(a, i, b, j)]
    while stack:
        x, xi, y, yi = stack.pop()
        x, xi = _walk(x, xi, subst)
        y, yi = _walk(y, yi, subst)
        # equal terms are the same tree at the same step, or ground
        if (xi == yi or x.__class__ is App and x.is_ground) and (x is y or x == y):
            continue
        if isinstance(y, Var) and (yi == j or not isinstance(x, Var)):
            x, xi, y, yi = y, yi, x, xi
        if isinstance(x, Var):
            if xi != j:
                follow = None
            if _occurs((x.name, xi), y, yi, subst, follow):
                return None
            subst[x.name, xi] = (y, yi)
            continue
        if x.functor != y.functor or len(x.children) != len(y.children):
            return None
        stack.extend([(cx, xi, cy, yi) for cx, cy in zip(x.children, y.children)])
    return subst


def _rebuild(t: Term, i: int, subst: dict, names: dict) -> Term:
    """*t*, read at step *i*, resolved through the unifier *subst*, with
    each variable renamed to the next of v0, v1, ... in left-to-right
    order.  *names* maps the (name, step) pairs seen so far to their new
    variables; share it between the sides of a clause.  A subtree that
    comes out unchanged, ground ones among them, is returned as it is.
    Iterative."""
    done = []
    todo = [(t, i)]
    while todo:
        node, i = todo.pop()
        if i is None:  # its children are done
            arity = len(node.children)
            children = tuple(done[-arity:])
            del done[-arity:]
            # items compare by identity first, and a rebuilt child differs
            # from the one it replaces, so this costs no deep comparison
            done.append(node if children == node.children else App(node.functor, children))
            continue
        node, i = _walk(node, i, subst)
        if isinstance(node, Var):
            new = names.get((node.name, i))
            if new is None:
                new = f"v{len(names)}"
                new = names[node.name, i] = node if node.name == new else Var(new)
            done.append(new)
        elif node.is_ground:
            done.append(node)
        else:
            todo.append((node, None))
            todo.extend([(c, i) for c in reversed(node.children)])
    return done[0]


@dataclass(frozen=True)
class Clause:
    """A pattern pair ``lhs -> rhs``; both axioms and reduced specific
    expressions."""

    name: str
    lhs: Term
    rhs: Term
    # the root application, compiled by apply_clause when it first applies
    # this clause
    _apply: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        extra = free_vars(self.rhs) - free_vars(self.lhs)
        if extra:
            raise FreeRhsVariable(sorted(extra)[0], self.name)

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
    """Root-only application; returns the result tree or None (no match):
    *c*'s rhs with each variable replaced by the subtree of *t* its lhs
    binds, where repeated lhs variables must bind equal subtrees.  Runs
    code compiled for *c* the first time it is applied."""
    return (c._apply or _compile_apply(c))(t)


def _compile_apply(c: Clause):
    """A function of one tree that applies *c* at its root, as straight-line
    code.  The lhs gives one class, functor and arity test per node, which
    unpacks the node's children into slots ``t<i>``, and one ``!=`` test
    per repeated occurrence of a variable; the rhs gives one ``App``
    statement per node that is not ground, children first.  Every
    statement is flat, so axioms of any depth compile.  Functors and
    ground rhs subtrees (kept as they are, as ``_rebuild`` keeps them)
    are named constants ``k<i>``, so the source holds no text of the
    clause.  The function is kept on *c*, for every later application."""
    env = {"App": App}

    def const(value):
        name = f"k{len(env)}"
        env[name] = value
        return name

    lines = ["def apply(t0):"]
    repeats = []
    slots = {}  # variable name -> the slot it is bound to
    n = 0  # slots made
    todo = [(c.lhs, "t0")]
    while todo:
        p, slot = todo.pop()
        if isinstance(p, Var):
            if p.name in slots:
                repeats.append(f" if {slot} != {slots[p.name]}: return None")
            else:
                slots[p.name] = slot
            continue
        arity = len(p.children)
        lines.append(
            f" if {slot}.__class__ is not App or {slot}.functor != {const(p.functor)}"
            f" or len({slot}.children) != {arity}: return None"
        )
        if arity:
            kids = [f"t{n + i}" for i in range(1, arity + 1)]
            n += arity
            lines.append(f" {', '.join(kids)}, = {slot}.children")
            todo.extend(zip(p.children, kids))
    lines += repeats
    done = []
    todo = [c.rhs]
    while todo:
        p = todo.pop()
        if p.__class__ is tuple:  # (app,): its children are done
            (p,) = p
            arity = len(p.children)
            n += 1
            lines.append(f" t{n} = App({const(p.functor)}, ({', '.join(done[-arity:])},))")
            del done[-arity:]
            done.append(f"t{n}")
        elif isinstance(p, Var):
            # a variable the lhs does not bind stands for itself
            done.append(slots.get(p.name) or const(p))
        elif p.is_ground:
            done.append(const(p))
        else:
            todo.append((p,))
            todo.extend(reversed(p.children))
    lines.append(f" return {done[0]}")
    exec("\n".join(lines), env)
    # taken out, so that the function and its globals form no cycle
    apply = env.pop("apply")
    object.__setattr__(c, "_apply", apply)
    return apply


def compose_clauses(first: Clause, *rest: Clause):
    """The clause equivalent to applying the clauses in order, or None if
    the composed relation is empty.  The result is canonical, its variables
    named v0, v1, ... in order of first occurrence over lhs then rhs, so
    the fold of one clause is that clause renamed canonically; it is named
    by the clauses' non-empty names joined with dots.

    One triangular substitution serves the whole fold, and a variable of
    clause i is the pair (its name, i), so no clause is renamed apart.
    Step i unifies clause i - 1's rhs, unresolved, with clause i's lhs,
    so a step costs the size of its clause, not of the fold.  Only the
    result is resolved and renamed."""
    clauses = (first,) + rest
    subst = {}
    for i in range(1, len(clauses)):
        if unify(clauses[i - 1].rhs, i - 1, clauses[i].lhs, i, subst) is None:
            return None
    names = {}
    lhs = _rebuild(first.lhs, 0, subst, names)
    rhs = _rebuild(clauses[-1].rhs, len(clauses) - 1, subst, names)
    return _clause(".".join(c.name for c in clauses if c.name), lhs, rhs)


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


def _holes(ax: Clause):
    """The holes of *ax* when it pumps, else None.

    *ax* pumps when it reads ``C[z1, ..., zm] -> C[D1[z1], ..., Dm[zm]]``:
    C is a context with m >= 1 holes, which the sides share, and whose
    other variables recur unchanged; each Di is a one-hole context whose
    other subtrees are ground; and each zi occurs once in the lhs, so once
    in the rhs too.  Then, by induction on n, n steps of *ax* rewrite
    ``C[t1, ...]`` to ``C[D1^n[t1], ...]``.  Each hole is kept as zi's name
    mapped to the clause ``Di[zi] -> zi``, which strips one Di off a tree.
    Iterative, so an axiom may be as deep as a sentence."""
    holes = {}
    seen = {}  # lhs variable -> its occurrences
    todo = [(ax.lhs, ax.rhs)]
    while todo:
        lhs, rhs = todo.pop()
        if isinstance(lhs, Var):
            seen[lhs.name] = seen.get(lhs.name, 0) + 1
            if rhs == lhs:  # a variable of C
                continue
            node = rhs  # down Di's one non-ground child per node, to zi
            while isinstance(node, App):
                spine = [c for c in node.children if not (isinstance(c, App) and c.is_ground)]
                if len(spine) != 1:
                    return None
                (node,) = spine
            if node != lhs:
                return None
            holes[lhs.name] = _clause(ax.name, rhs, lhs)
        elif isinstance(rhs, App) and rhs.functor == lhs.functor and len(rhs.children) == len(lhs.children):
            todo.extend(zip(lhs.children, rhs.children))
        else:
            return None
    if not holes or any(seen[name] != 1 for name in holes):
        return None
    return holes


@dataclass(frozen=True)
class Theory:
    start: Term
    axioms: tuple = ()
    goal: Term = None
    _by_name: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # each axiom l -> r by name: its inverse r -> l, which undoes it, or
    # None when l has a variable that r drops
    _inverse: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # each pumping axiom by name: its holes, which undo strips a run of it
    # from (see _holes)
    _holes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        sentence(self.start, "start sentence")
        if self.goal is not None:
            sentence(self.goal, "goal sentence")
        object.__setattr__(self, "axioms", tuple(self.axioms))
        arities = {}
        _check_arities([self.start], arities, "start")
        _check_arities([self.goal] if self.goal is not None else [], arities, "goal")
        by_name = {}
        for ax in self.axioms:
            if ax.name in by_name:
                raise TheorySyntaxError(f"duplicate axiom name {ax.name!r}")
            by_name[ax.name] = ax
            _check_arities([ax.lhs, ax.rhs], arities, ax.name)
            undoable = free_vars(ax.lhs) <= free_vars(ax.rhs)
            self._inverse[ax.name] = _clause(ax.name, ax.rhs, ax.lhs) if undoable else None
            holes = _holes(ax)
            if holes is not None:
                self._holes[ax.name] = holes
        self._by_name.update(by_name)

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


def undo(th: Theory, goal: Term, steps) -> tuple:
    """*steps* undone from *goal*, last first, back to the last step whose
    axiom drops a variable or is unknown: (k, s), where the first k steps
    must replay to s for *steps* to rewrite to *goal*; s is None when a
    step cannot be undone there.  Undoing ``l -> r`` applies its inverse
    ``r -> l``: a match of r against a tree s binds every variable of l,
    and ``l -> r`` applied to the tree that builds gives s again, so each
    undone step is a checked forward step, and the only one that can end
    in s.

    A run of n steps of a pumping axiom ``C[z1, ...] -> C[D1[z1], ...]``
    (``_holes``) is undone in one walk: its last step by the inverse, with
    every check above, then each Di stripped n - 1 more times off its hole,
    each strip a test of every node of Di, and C built once.  This trusts
    one lemma, checked on the axiom's syntax: n steps rewrite
    ``C[t1, ...]`` to ``C[D1^n[t1], ...]``.  The result is the one the
    steps undone one by one give, also when a strip fails: then k counts
    the steps before the first that one-by-one undoing could not undo."""
    k = len(steps)
    current = goal
    while k:
        name = steps[k - 1]
        inverse = th._inverse.get(name)
        if inverse is None:
            break
        current = apply_clause(inverse, current)
        if current is None:
            break
        k -= 1
        holes = th._holes.get(name)
        if holes is not None:
            n = 0  # the run's steps before this one
            while n < k and steps[k - 1 - n] == name:
                n += 1
            if n:  # the inverse's rhs is the axiom's lhs, C[z1, ...]
                stripped, current = _strip_run(inverse.rhs, current, holes, n)
                k -= stripped
                if current is None:
                    break
    return k, current


def _strip_run(pattern: Term, tree: Term, holes: dict, n: int) -> tuple:
    """(j, s): *tree*, an instance of *pattern*, with each hole's clause
    (see ``_holes``) applied n times to the subtree at the hole's variable,
    and the non-ground nodes of *pattern* built once around them.  When a
    clause stops applying, s is None, and j is the fewest times that any
    hole's clause applied; else j is n.  Iterative."""
    least = n
    done = []
    todo = [(pattern, tree)]
    while todo:
        p, t = todo.pop()
        if p is None:  # t: an App whose children are done
            arity = len(t.children)
            children = tuple(done[-arity:])
            del done[-arity:]
            done.append(App(t.functor, children))
        elif isinstance(p, Var):
            strip = holes.get(p.name)
            if strip is not None:
                strip = strip._apply or _compile_apply(strip)
                j = 0
                while j < least and (s := strip(t)) is not None:
                    t = s
                    j += 1
                least = j
            done.append(t)
        elif p.is_ground:
            done.append(t)
        else:
            todo.append((None, t))
            todo.extend(zip(reversed(p.children), reversed(t.children)))
    return least, done[0] if least == n else None


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
        lines.append(f"{ax.name}: {ax}")
    if th.goal is not None:
        lines.append(f"goal: {print_term(th.goal)}")
    return "\n".join(lines) + "\n"


def horn_to_tpc(facts, rules, goal) -> Theory:
    """Transform a Horn program with conjunctive bodies into a TPC theory.

    Facts F become ``x -> And(F, x)``; a rule B1 & ... & Bn -> H becomes
    ``And(B1, And(..., And(Bn, x)...)) -> And(H, x)``; the logic axioms
    l1/l2 are appended and the start sentence is S.  The tail x is named
    ``x``, or, when a rule uses that name, the first of ``x1``, ``x2``,
    ... that no rule uses.
    """
    rules = [(tuple(body), head) for body, head in rules]
    used = set().union(*(free_vars(atom) for body, head in rules for atom in (*body, head)))
    tail, n = "x", 0
    while tail in used:
        n += 1
        tail = f"x{n}"
    x = Var(tail)
    axioms = []
    for i, fact in enumerate(facts, start=1):
        if not (isinstance(fact, App) and fact.is_ground):
            raise UnsupportedRule(f"fact {print_term(fact)} is not ground")
        axioms.append(Clause(f"p{i}", x, App("And", (fact, x))))
    for i, (body, head) in enumerate(rules, start=1):
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
