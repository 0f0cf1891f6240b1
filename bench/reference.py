"""References the benchmark checks answers against, and its input builders.

Nothing here calls the decider or the oracle under test.  Trees of the
program (``tpc.terms.App``) are mirrored as nested tuples
``(size, functor, *children)`` so that hashing and equality run in C, and
a small breadth-first search over those tuples is the reference for the
program's own oracle.  Every helper that walks an input tree is iterative:
the large query trees are 64k nodes deep.
"""

from __future__ import annotations

from tpc.terms import App, Var


# ---------------------------------------------------------------------------
# tuple mirror of program terms


def to_tuples(trees) -> list:
    """App trees -> (size, functor, *children) tuples; a Var becomes its
    name.  Subtrees shared between the trees are converted once."""
    done = {}
    out = []
    for t in trees:
        stack = [t]
        while stack:
            node = stack[-1]
            if id(node) in done:
                stack.pop()
                continue
            if isinstance(node, Var):
                done[id(node)] = node.name
                stack.pop()
                continue
            pending = [c for c in node.children if id(c) not in done]
            if pending:
                stack.extend(pending)
                continue
            kids = tuple(done[id(c)] for c in node.children)
            size = 1 + sum(k[0] if isinstance(k, tuple) else 1 for k in kids)
            done[id(node)] = (size, node.functor) + kids
            stack.pop()
        out.append(done[id(t)])
    return out


def to_tuple(t) -> tuple:
    return to_tuples([t])[0]


def text_of(t: tuple) -> str:
    """Canonical text of a tuple tree, in the format tpc prints and parses."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif len(node) == 2:
            out.append(node[1])
        else:
            out.append(node[1] + "(")
            stack.append(")")
            kids = node[2:]
            for i in range(len(kids) - 1, -1, -1):
                stack.append(kids[i])
                if i:
                    stack.append(", ")
    return "".join(out)


def _match(pattern, tree, binding):
    stack = [(pattern, tree)]
    while stack:
        p, t = stack.pop()
        if isinstance(p, str):
            seen = binding.setdefault(p, t)
            if seen is not t and seen != t:
                return False
            continue
        if len(p) != len(t) or p[1] != t[1]:
            return False
        stack.extend(zip(p[2:], t[2:]))
    return True


def _build(pattern, binding):
    # recursion depth is the depth of an axiom pattern, not of a tree
    if isinstance(pattern, str):
        return binding[pattern]
    kids = tuple(_build(c, binding) for c in pattern[2:])
    return (1 + sum(k[0] for k in kids), pattern[1]) + kids


def _rules(theory):
    return [(ax.name, to_tuple(ax.lhs), to_tuple(ax.rhs)) for ax in theory.axioms]


def apply_rule(rule, tree):
    _, lhs, rhs = rule
    binding = {}
    return _build(rhs, binding) if _match(lhs, tree, binding) else None


def bfs_depths(theory, max_depth: int, max_size: int) -> dict:
    """Every tree reachable from the start by <= max_depth root applications
    with every tree on the way within max_size nodes, mapped to its depth.
    Same bounds as the program's oracle, written independently of it."""
    rules = _rules(theory)
    start = to_tuple(theory.start)
    depth = {start: 0}
    frontier = [start]
    for level in range(1, max_depth + 1):
        nxt = []
        for t in frontier:
            for rule in rules:
                d = apply_rule(rule, t)
                if d is not None and d[0] <= max_size and d not in depth:
                    depth[d] = level
                    nxt.append(d)
        if not nxt:
            break
        frontier = nxt
    return depth


def replay(theory, steps) -> tuple:
    """The tuple tree a proof reaches from the start, or None."""
    rules = {r[0]: r for r in _rules(theory)}
    t = to_tuple(theory.start)
    for name in steps:
        t = apply_rule(rules[name], t)
        if t is None:
            return None
    return t


# ---------------------------------------------------------------------------
# machine speed

# fg's axioms as tuple patterns (the size field of a pattern is unused)
_CAL_RULES = (
    ("a", (0, "P", "x", "y"), (0, "P", (0, "F", (0, "F", "x")), (0, "G", "y"))),
    ("b", (0, "P", "x", "y"), (0, "P", (0, "F", "x"), (0, "G", "y"))),
)
_CAL_START = (3, "P", (1, "Z"), (1, "Z"))


def calibration_work(depth: int = 6) -> int:
    """A fixed piece of pure-Python work of the same character as the
    program's (small tuples, hashing, dict lookups): a breadth-first
    search of fg to *depth* on tuple trees.  Returns the states found."""
    seen = {_CAL_START}
    frontier = [_CAL_START]
    for _ in range(depth):
        nxt = []
        for t in frontier:
            for rule in _CAL_RULES:
                d = apply_rule(rule, t)
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# exhaustive windows for small queries


def _pattern_stats(t):
    size, occ = 0, {}
    stack = [t]
    while stack:
        node = stack.pop()
        size += 1
        if isinstance(node, Var):
            occ[node.name] = occ.get(node.name, 0) + 1
        else:
            stack.extend(node.children)
    return size, occ


def strictly_growing(theory) -> bool:
    """Does every axiom instance yield a strictly larger tree than it
    consumes?  True when the rhs is larger as a pattern and repeats every
    lhs variable at least as often (variables bind trees of size >= 1)."""
    for ax in theory.axioms:
        lsize, locc = _pattern_stats(ax.lhs)
        rsize, rocc = _pattern_stats(ax.rhs)
        if rsize <= lsize or any(rocc.get(v, 0) < n for v, n in locc.items()):
            return False
    return True


def unary(n: int, functor: str, leaf) -> App:
    t = leaf if isinstance(leaf, App) else App(leaf)
    for _ in range(n):
        t = App(functor, (t,))
    return t


def candidates(name: str) -> list:
    """Small query trees for a bundled theory, reachable or not; whether a
    candidate is reachable is decided by the exhaustive window, not here."""
    if name in ("chain", "mod2"):
        out = [App("P", (unary(n, "F", "Z"),)) for n in range(41)]
        out += [App("P", (unary(n, "F", "W"),)) for n in range(41)]
        out += [App("P", (unary(i, "F", unary(1, "G", unary(j, "F", "Z"))),))
                for i in range(0, 40, 3) for j in range(0, 40 - i, 4)]
        return out
    if name == "fg":
        # the 21 x 21 grid reaches size 43, so the window bound must too
        out = [App("P", (unary(a, "F", "Z"), unary(b, "G", "Z")))
               for a in range(21) for b in range(21)]
        out += [App("P", (unary(a, "F", "W"), unary(b, "G", "Z")))
                for a in range(0, 21, 2) for b in range(0, 21, 2)]
        return out
    raise KeyError(name)


# ---------------------------------------------------------------------------
# large query trees (counting models of the linear theories)

# Each axiom of these theories adds a fixed number of F (and G) nodes to
# P(F^f(Z)) or P(F^f(Z), G^g(Z)); a derivation is a count vector.
GROWTH = {
    "chain": {"a": (1,)},
    "mod2": {"a": (1,), "b": (2,)},
    "fg": {"a": (2, 1), "b": (1, 1)},
}
_FUNCTORS = ("F", "G")


class Chains:
    """Unary chains functor^n(leaf), built once and shared between trees:
    the large trees of one run overlap in long chains."""

    def __init__(self):
        self.nodes = {}

    def get(self, n: int, functor: str, leaf: str) -> App:
        nodes = self.nodes.setdefault((functor, leaf), [App(leaf)])
        while len(nodes) <= n:
            nodes.append(App(functor, (nodes[-1],)))
        return nodes[n]


def counted_tree(counts, leaves=None, chains=None) -> App:
    leaves = leaves or ("Z",) * len(counts)
    chains = chains or Chains()
    return App("P", tuple(chains.get(c, f, leaf) for c, f, leaf in zip(counts, _FUNCTORS, leaves)))


def large_positive(name: str, nodes: int, rng, chains: Chains):
    """(axiom sequence, tree) with a seeded sequence whose result has about
    *nodes* nodes; the tree is built from the sequence's counts alone."""
    growth = GROWTH[name]
    names = sorted(growth)
    counts = [0] * len(next(iter(growth.values())))
    seq = []
    size = 1 + len(counts)
    while size < nodes:
        step = rng.choice(names)
        seq.append(step)
        for i, c in enumerate(growth[step]):
            counts[i] += c
            size += c
    return seq, counted_tree(counts, chains=chains)


def large_negatives(name: str, nodes: int, rng, chains: Chains) -> list:
    """Unreachable trees of about *nodes* nodes, unreachable for a reason
    the counting model shows: a wrong leaf, a wrong functor inside the
    chain, or (fg) counts outside G <= F <= 2G."""
    if name == "fg":
        g, half = (nodes - 3) // 3, (nodes - 3) // 2
        return [
            counted_tree((2 * g + 1 + rng.randrange(4), g), chains=chains),
            counted_tree((half - 1 - rng.randrange(4), nodes - 3 - half), chains=chains),
            counted_tree((2 * g - rng.randrange(8), g), ("Z", "W"), chains),
        ]
    n = nodes - 2
    # a decider may stop walking at the G, so keep its depth in a narrow band
    cut = n // 2 + rng.randrange(n // 8)
    swapped = App("G", (chains.get(n - cut, "F", "Z"),))
    return [
        counted_tree((n,), ("W",), chains),
        App("P", (unary(cut - 1, "F", swapped),)),
    ]
