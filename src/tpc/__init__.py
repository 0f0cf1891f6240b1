"""Synthesis of polynomial-cost membership deciders for TPC theories."""

from importlib import resources

from .terms import (
    App,
    Clause,
    Proof,
    Term,
    Theory,
    Var,
    apply_clause,
    check_proof,
    compose_clauses,
    horn_to_tpc,
    parse_term,
    parse_theory,
    print_term,
    print_theory,
)
from .oracle import SearchBudget, decide_oracle, find_proof, reachable_set
from .schemes import (
    Alt,
    Axiom,
    Dot,
    EPS,
    IterExpr,
    Star,
    build_scheme,
    instantiate,
    parse_scheme,
    print_scheme,
    reduce_specific,
)

__version__ = "0.1.0"


def load_theory(name: str) -> Theory:
    """Load one of the bundled example theories by stem name."""
    data = resources.files(__package__).joinpath("theories", f"{name}.tpc").read_text()
    return parse_theory(data)
