"""Brute-force breadth-first enumeration of derivable sentences.

This is deliberately the exponential baseline: every synthesized decision
procedure is validated against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded
from .terms import Proof, Term, Theory, apply_clause, print_term, term_size


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 8
    max_tree_size: int = 64
    max_frontier: int = 200_000

    def __post_init__(self):
        if self.max_depth < 0 or self.max_tree_size < 0 or self.max_frontier < 0:
            raise ValueError("search bounds must be >= 0")


def _bfs(th: Theory, start: Term, b: SearchBudget):
    """Yields (tree, parent, axiom_name) in BFS order with duplicate
    suppression.  Expansion order: frontier order, then axiom declaration
    order, so the first path found to any tree is shortest and
    lexicographically least by axiom order."""
    seen = {start}
    frontier = [start]
    yield start, None, None
    for depth in range(1, b.max_depth + 1):
        nxt = []
        for t in frontier:
            for ax in th.axioms:
                d = apply_clause(ax, t)
                if d is None or d in seen or term_size(d) > b.max_tree_size:
                    continue
                seen.add(d)
                nxt.append(d)
                if len(seen) > b.max_frontier:
                    raise BudgetExceeded(
                        f"frontier bound {b.max_frontier} hit at depth {depth}"
                    )
                yield d, t, ax.name
        if not nxt:
            return
        frontier = nxt


def reachable_set(th: Theory, start: Term, b: SearchBudget, memo: dict = None):
    """All trees reachable by <= max_depth root applications, each within
    max_tree_size, in canonical order: by size, then by ``print_term``
    text, byte for byte.  ``tpc oracle --dump`` prints this order, and
    ``bench/run.py`` compares trees with its reference search in it.

    Each tree's text is built from its subtrees' texts through one memo,
    so each distinct subtree is printed once.  *memo*, when given, is a
    caller-owned dict from node to text, as for :func:`print_term`; on
    return it holds the text of every tree returned."""
    if memo is None:
        memo = {}
    trees = sorted((t for t, _, _ in _bfs(th, start, b)), key=lambda t: print_term(t, memo))
    # stable, so equal sizes keep text order; two sorts build no key tuples
    trees.sort(key=term_size)
    return trees


def decide_oracle(th: Theory, t: Term, d: Term, b: SearchBudget) -> bool:
    if term_size(d) > b.max_tree_size:
        return d == t
    return any(r == d for r, _, _ in _bfs(th, t, b))


def find_proof(th: Theory, goal: Term, b: SearchBudget):
    """A shortest proof of *goal* from th.start (ties broken by axiom
    declaration order), or None within budget."""
    parents = {}
    for t, parent, ax_name in _bfs(th, th.start, b):
        if parent is not None:
            parents[t] = (parent, ax_name)
        if t == goal:
            steps = []
            while t != th.start:
                t, name = parents[t]
                steps.append(name)
            return Proof(tuple(reversed(steps)))
    return None
