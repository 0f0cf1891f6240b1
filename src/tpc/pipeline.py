"""End-to-end synthesis of a decision procedure from a theory.

Axioms are folded in one at a time: the running scheme alpha is wrapped
as (alpha.a)*.alpha, reduced with the justified rewrite rules, and the
final scheme is handed to the characteristic-function synthesizer.  A
small oracle self-check compares the synthesized procedure against
brute-force search before the procedure is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .delta import order_axioms, reduce_scheme
from .errors import Ambiguous, InternalMismatch
from .final import decide, extract_proof
from .oracle import SearchBudget, reachable_set
from .schemes import EPS, IterExpr, wrap_scheme
from .sigma import SymbolicCharFn, check_layout, sigma
from .terms import Proof, Term, Theory, sentence

_SELFCHECK_BUDGET = SearchBudget(max_depth=4, max_tree_size=24)


@dataclass(frozen=True)
class DecisionProcedure:
    theory: Theory
    scheme: IterExpr
    charfn: SymbolicCharFn
    traces: tuple = ()  # one ReductionTrace per construction step

    def decide(self, d: Term, t: Term = None) -> bool:
        """Whether *t*, by default the start sentence, rewrites to *d*;
        both are ground trees."""
        start = self.theory.start if t is None else sentence(t)
        return decide(self.charfn, start, sentence(d))

    def prove(self, d: Term, t: Term = None) -> Proof:
        """A replayed proof that *t*, by default the start sentence,
        rewrites to *d*, or None; both are ground trees."""
        start = self.theory.start if t is None else sentence(t)
        return extract_proof(self.theory, self.charfn, start, sentence(d))


def _self_check(proc: DecisionProcedure, budget: SearchBudget) -> None:
    """Raises InternalMismatch when the procedure rejects, or cannot
    decide, some sentence the oracle reaches within *budget*."""
    # the sorted order is kept on purpose: it fixes which sentence fails first
    reachable = reachable_set(proc.theory, proc.theory.start, budget)
    for d in reachable:
        try:
            accepted = proc.decide(d)
        except Ambiguous as exc:
            raise InternalMismatch(
                f"procedure cannot decide a reachable sentence under {proc.scheme}"
            ) from exc
        if not accepted:
            raise InternalMismatch(
                f"procedure rejects a reachable sentence under {proc.scheme}"
            )


def pipeline(theory: Theory, selfcheck: bool = True) -> DecisionProcedure:
    """Builds the decision procedure for *theory*; raises NotLinearizable
    when some intermediate scheme has no affine characteristic function."""
    alpha = EPS
    traces = []
    for name in order_axioms(theory):
        alpha, trace = reduce_scheme(theory, wrap_scheme(alpha, name))
        traces.append(trace)
        # wrapping only ever deepens the index layout, so give up as soon
        # as the reduced scheme stops being flattenable
        check_layout(alpha)
    fn = sigma(theory, alpha)
    proc = DecisionProcedure(theory, alpha, fn, tuple(traces))
    if selfcheck:
        _self_check(proc, _SELFCHECK_BUDGET)
    return proc
