"""End-to-end construction of decision procedures."""

import re

import pytest

import tpc.pipeline
from tpc import load_theory
from tpc.errors import Ambiguous, InternalMismatch, NonGroundStart, NotLinearizable
from tpc.oracle import SearchBudget
from tpc.pipeline import DecisionProcedure, _self_check, pipeline
from tpc.terms import parse_term, parse_theory, replay


class TestPipeline:
    def test_single_axiom_theory(self):
        proc = pipeline(load_theory("chain"))
        assert str(proc.scheme) == "a*"
        assert len(proc.traces) == 1

    def test_two_axiom_theory_reduces(self):
        proc = pipeline(load_theory("fg"))
        assert str(proc.scheme) == "b*.a*"
        # the second construction step is where the rewriting happens
        rules = [s.rule for s in proc.traces[1].steps]
        assert "absorption" in rules and "commutation" in rules

    def test_interchangeable_axioms(self):
        proc = pipeline(load_theory("mod2"))
        assert str(proc.scheme) == "b*.a*"

    def test_decide_and_prove(self):
        proc = pipeline(load_theory("fg"))
        d = parse_term("P(F(F(F(F(F(F(F(F(Z)))))))), G(G(G(G(G(Z))))))")
        assert proc.decide(d)
        assert not proc.decide(parse_term("P(Z, G(Z))"))
        proof = proc.prove(d)
        assert replay(proc.theory, proc.theory.start, proof.steps) == d

    @pytest.mark.parametrize("args,bad", [
        (("P(F(x))", "P(x)"), "P(x)"),
        (("P(F(x))",), "P(F(x))"),
        (("P(x)", "P(F(Z))"), "P(x)"),
        (("P(F(Z))", "P(F(x))"), "P(F(x))"),
    ])
    def test_non_ground_sentences_are_rejected(self, args, bad):
        # chain's axiom P(x) -> P(F(x)) also relates P(x) to P(F(x)), so
        # without the check the library decided and proved that pair
        proc = pipeline(load_theory("chain"))
        for query in (proc.decide, proc.prove):
            with pytest.raises(NonGroundStart, match=rf"^sentence {re.escape(bad)} is not ground$"):
                query(*map(parse_term, args))

    def test_nested_recursion_is_rejected(self):
        # ancestry-style fact generators force nested iteration, which has
        # no affine characteristic function
        th = parse_theory(
            "start: S\n"
            "p1: x -> And(Parent(Adam, John), x)\n"
            "p2: x -> And(Parent(John, Peter), x)\n"
            "p3: x -> And(Parent(Peter, Olga), x)\n"
        )
        with pytest.raises(NotLinearizable):
            pipeline(th)

    def test_rotation_boundary_is_caught(self):
        # the wrapped rotation scheme only admits an affine description
        # away from the zero boundary, so sigma rejects it there
        with pytest.raises(NotLinearizable, match=r"^fitted form failed held-out verification: \(a\*\.b\)\*\.a\*$"):
            pipeline(load_theory("rotate"))

    def test_erasing_form_wrong_at_zero_is_not_returned(self):
        # b erases and a is the identity, so an instance of b*.a* with a
        # b ends in P(Z) and one without relates every tree to itself; the
        # form fitted from counts >= 1 said that P(F(Z)) does not reach
        # itself, and the self-check window, one tree, could not see it
        th = parse_theory("start: P(Z)\na: P(x) -> P(x)\nb: P(x) -> P(Z)")
        with pytest.raises(NotLinearizable, match="held-out verification"):
            pipeline(th, selfcheck=False)

    def test_rejected_reachable_sentence_fails_the_selfcheck(self, rejecting_procedure):
        with pytest.raises(InternalMismatch, match=r"^procedure rejects a reachable sentence under a\.a\*$"):
            _self_check(rejecting_procedure, SearchBudget(max_depth=0))

    def test_undecidable_reachable_sentence_fails_the_selfcheck(self, undecidable_procedure):
        # the self-check gives up with the same type whichever reachable
        # sentence fails first; the start itself is zero steps, so the
        # window must hold P(F(Z)) too
        with pytest.raises(InternalMismatch, match="cannot decide a reachable sentence") as exc:
            _self_check(undecidable_procedure, SearchBudget(max_depth=1))
        assert isinstance(exc.value.__cause__, Ambiguous)

    def test_selfcheck_can_be_skipped(self, monkeypatch):
        def fail(proc, budget):
            raise InternalMismatch("self-check ran")

        monkeypatch.setattr(tpc.pipeline, "_self_check", fail)
        with pytest.raises(InternalMismatch, match="self-check ran"):
            pipeline(load_theory("chain"))
        proc = pipeline(load_theory("chain"), selfcheck=False)
        assert isinstance(proc, DecisionProcedure)
        assert str(proc.scheme) == "a*"
