import pytest

from tpc import (
    Proof,
    SearchBudget,
    check_proof,
    decide_oracle,
    find_proof,
    load_theory,
    parse_term,
    reachable_set,
)
import tpc.oracle
from tpc.errors import BudgetExceeded
from tpc.oracle import _bfs
from tpc.terms import print_term, term_size

t = parse_term


class TestReachableSet:
    def test_depth_zero(self):
        th = load_theory("chain")
        b = SearchBudget(max_depth=0)
        assert reachable_set(th, th.start, b) == [th.start]

    def test_chain_enumeration(self):
        th = load_theory("chain")
        got = reachable_set(th, th.start, SearchBudget(max_depth=3))
        assert got == [t("P(Z)"), t("P(F(Z))"), t("P(F(F(Z)))"), t("P(F(F(F(Z))))")]

    def test_ancestor_goal_reached(self):
        th = load_theory("ancestor")
        got = reachable_set(th, th.start, SearchBudget(max_depth=8, max_tree_size=30))
        assert t("Ancestor(Adam, Olga)") in got

    def test_monotone_in_depth(self):
        th = load_theory("fg")
        prev = set()
        for depth in range(5):
            cur = set(reachable_set(th, th.start, SearchBudget(max_depth=depth)))
            assert prev <= cur
            prev = cur

    @pytest.mark.parametrize("name,depth", [("ancestor", 6), ("rotate", 12), ("rotate3", 12)])
    def test_order_is_size_then_text(self, name, depth):
        th = load_theory(name)
        b = SearchBudget(max_depth=depth)
        want = sorted((d for d, _, _ in _bfs(th, th.start, b)), key=lambda d: (term_size(d), print_term(d)))
        got = reachable_set(th, th.start, b)
        assert [print_term(d) for d in got] == [print_term(d) for d in want]
        assert got == want

    def test_frontier_budget(self, monkeypatch):
        monkeypatch.setattr(tpc.oracle, "_MAX_FRONTIER", 20)
        th = load_theory("ancestor")
        with pytest.raises(BudgetExceeded, match="^frontier bound 20 hit at depth "):
            reachable_set(th, th.start, SearchBudget(max_depth=10, max_tree_size=40))


class TestDecideOracle:
    def test_chain_pair_from_tuning_example(self):
        th = load_theory("chain")
        assert decide_oracle(th, t("P(F(Z))"), t("P(F(F(F(F(Z)))))"), SearchBudget(max_depth=5))

    def test_reflexive(self):
        th = load_theory("fg")
        assert decide_oracle(th, th.start, th.start, SearchBudget(max_depth=0))

    def test_a_tree_past_the_size_bound_reaches_itself(self):
        th = load_theory("chain")
        tree, budget = t("P(F(F(F(Z))))"), SearchBudget(max_tree_size=3)
        assert decide_oracle(th, tree, tree, budget)
        assert not decide_oracle(th, t("P(F(F(Z)))"), tree, budget)

    def test_fg_needs_more_f_than_g(self):
        th = load_theory("fg")
        assert not decide_oracle(th, t("P(Z, Z)"), t("P(F(Z), G(G(Z)))"), SearchBudget(max_depth=4))


class TestFindProof:
    def test_ancestor_shortest_proof(self):
        th = load_theory("ancestor")
        proof = find_proof(th, th.goal, SearchBudget(max_depth=8, max_tree_size=30))
        assert proof is not None
        assert len(proof.steps) == 7
        assert check_proof(th, proof) == th.goal

    def test_goal_is_start(self):
        th = load_theory("chain")
        assert find_proof(th, th.start, SearchBudget()) == Proof(())

    def test_unique_derivation(self):
        th = load_theory("chain")
        assert find_proof(th, t("P(F(F(Z)))"), SearchBudget(max_depth=4)) == Proof(("a", "a"))

    def test_not_found(self):
        th = load_theory("chain")
        assert find_proof(th, t("P(G(Z))"), SearchBudget(max_depth=4)) is None

    def test_deterministic(self):
        th = load_theory("ancestor")
        b = SearchBudget(max_depth=8, max_tree_size=30)
        assert find_proof(th, th.goal, b) == find_proof(th, th.goal, b)


@pytest.mark.parametrize("bound", ["max_depth", "max_tree_size"])
def test_negative_budget_is_rejected(bound):
    with pytest.raises(ValueError, match="^search bounds must be >= 0$"):
        SearchBudget(**{bound: -1})
