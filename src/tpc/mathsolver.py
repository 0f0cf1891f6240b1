"""Exact linear solving over index variables.

One row-reduction kernel, ``reduce_rows``, pivots chosen keys out of
sparse Fraction rows.  Three front-ends share it:

* ``eliminate`` projects scalar existentials out of an equation system,
  returning the region of parameter values for which a natural solution
  exists (with integrality residues turned into congruences and solved
  values required nonnegative).
* ``LinearSystem`` reduces equations ``expr = value`` once, the values as
  tag columns, and then solves them at any values, and with any unknowns
  pinned, in integers: every scalar count, multi-index length and element
  that tuning solves.  The first unknown it leaves free, and the least
  value the solved unknowns allow it, are carried by ``Ambiguous`` as
  ``free`` and ``least``, for tuning to pin.  ``solve_concrete`` compiles
  a system for one solve.
* ``sigma._design`` reduces a feature matrix once, to solve each
  repetition count for its feature coefficients (free coordinates zero,
  integral or no fit).

All arithmetic is exact (Fractions in the reduction, integers in results).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .affine import AffineExpr, IndexTerm, ZERO
from .errors import Ambiguous, Unsupported


# ---------------------------------------------------------------------------
# conditions


@dataclass(frozen=True)
class Equation:
    lhs: AffineExpr
    rhs: AffineExpr

    @property
    def diff(self) -> AffineExpr:
        return self.lhs - self.rhs

    def __str__(self):
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class Ineq:
    """lhs >= rhs."""

    lhs: AffineExpr
    rhs: AffineExpr = ZERO

    @property
    def diff(self) -> AffineExpr:
        return self.lhs - self.rhs

    def __str__(self):
        return f"{self.lhs} >= {self.rhs}"


@dataclass(frozen=True)
class Congruence:
    """expr = 0 (mod modulus)."""

    expr: AffineExpr
    modulus: int

    def __str__(self):
        return f"{self.expr} mod {self.modulus} = 0"


@dataclass(frozen=True)
class ConditionSystem:
    """Conditions over parameters, with existentials to be projected out
    (in declared order)."""

    existentials: tuple = ()
    conditions: tuple = ()

    def __str__(self):
        return " and ".join(str(c) for c in self.conditions) or "true"


@dataclass(frozen=True)
class Region:
    """Parameter values admitting a solution: everything, nothing, or a
    condition conjunction.  ``raw`` preserves the pre-subsumption list."""

    kind: str  # "universal" | "unsat" | "conditional"
    conditions: tuple = ()
    raw: tuple = ()

    @property
    def is_universal(self):
        return self.kind == "universal"

    @property
    def is_unsat(self):
        return self.kind == "unsat"

    def __str__(self):
        if self.kind == "universal":
            return "all naturals"
        if self.kind == "unsat":
            return "empty"
        return " and ".join(str(c) for c in self.conditions)


# ---------------------------------------------------------------------------
# evaluation (used by sampling checks in tests and verification passes)


def eval_condition(cond, env: dict) -> bool:
    try:
        if isinstance(cond, Equation):
            return cond.lhs.evaluate(env) == cond.rhs.evaluate(env)
        if isinstance(cond, Ineq):
            return cond.lhs.evaluate(env) >= cond.rhs.evaluate(env)
        if isinstance(cond, Congruence):
            return cond.expr.evaluate(env) % cond.modulus == 0
    except (IndexError, KeyError):
        return False
    raise TypeError(f"not a condition: {cond!r}")


def eval_region(region: Region, env: dict) -> bool:
    if region.kind == "universal":
        return True
    if region.kind == "unsat":
        return False
    return all(eval_condition(c, env) for c in region.conditions)


# ---------------------------------------------------------------------------
# linear rows over Fractions


def _row_of(e: AffineExpr) -> dict:
    row = {None: Fraction(e.const)}
    for c, it in e.terms:
        row[it] = row.get(it, Fraction(0)) + c
    return {k: v for k, v in row.items() if k is None or v != 0}


def _row_sub(row: dict, key, sol: dict):
    """In place: replace *key* in *row* by the solution row *sol*."""
    c = row.pop(key, Fraction(0))
    if c == 0:
        return
    for k, v in sol.items():
        row[k] = row.get(k, Fraction(0)) + c * v
    for k in [k for k, v in row.items() if k is not None and v == 0]:
        del row[k]


def reduce_rows(rows: list, keys) -> tuple:
    """Gauss-Jordan over sparse rows (key -> Fraction, constant under
    None, each row meaning "sum = 0"): pivots each of *keys* out, in
    order, skipping keys no remaining row mentions.  Returns (solved,
    rest): solved maps each pivoted key to the row it equals, in the
    unpivoted keys and the constant; rest holds the unused rows with every
    pivoted key substituted away.  Consumes *rows*."""
    solved = {}
    for key in keys:
        pivot = next((r for r in rows if r.get(key)), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        c = pivot.pop(key)
        sol = {k: -v / c for k, v in pivot.items()}
        sol.setdefault(None, Fraction(0))
        for r in rows:
            _row_sub(r, key, sol)
        for s in solved.values():
            _row_sub(s, key, sol)
        solved[key] = sol
    return solved, rows


def _row_denom(row: dict) -> int:
    return lcm(*(v.denominator for v in row.values())) if row else 1


def _row_to_expr(row: dict, scale: int = 1) -> AffineExpr:
    terms = tuple(
        (int(v * scale), k) for k, v in row.items() if k is not None
    )
    return AffineExpr.of(int(row.get(None, 0) * scale), *terms)


def _trivially_nonneg(e: AffineExpr) -> bool:
    """Over naturals: every coefficient and the constant nonnegative."""
    return e.const >= 0 and all(c >= 0 for c, _ in e.terms)


def _subsumed(e: AffineExpr, given: tuple, depth: int = 2) -> bool:
    """Is e >= 0 implied by the given nonneg facts (small-multiplier
    search: e minus a few multiples of givens becomes trivially nonneg)?"""
    if _trivially_nonneg(e):
        return True
    if depth == 0:
        return False
    for g in given:
        for mult in (1, 2, 3, 4):
            if _subsumed(e - g * mult, given, depth - 1):
                return True
    return False


def _split_equation(e: AffineExpr) -> Equation:
    """Readable form: negative terms moved to the right side."""
    pos = AffineExpr.of(max(e.const, 0) if e.const > 0 else 0,
                        *((c, it) for c, it in e.terms if c > 0))
    neg = AffineExpr.of(-e.const if e.const < 0 else 0,
                        *((-c, it) for c, it in e.terms if c < 0))
    return Equation(pos, neg)


# ---------------------------------------------------------------------------
# existential elimination


def eliminate(system: ConditionSystem) -> Region:
    """Project the scalar existentials out of *system*, whose conditions
    are all equations, and describe where (over the naturals) a solution
    exists."""
    rows = []
    for cond in system.conditions:
        if not isinstance(cond, Equation):
            raise Unsupported(f"cannot eliminate through {type(cond).__name__}")
        rows.append(_row_of(cond.diff))

    # an existential no equation mentions is unconstrained: pick 0
    solved, rows = reduce_rows(rows, [IndexTerm(name) for name in system.existentials])

    raw = []
    unsat = False
    for r in rows:
        expr = _row_to_expr(r, _row_denom(r))
        if expr.is_const:
            if expr.const != 0:
                unsat = True
                raw.append(_split_equation(expr))
            continue
        raw.append(_split_equation(expr))
    for key, sol in solved.items():
        leftover = {k for k in sol if isinstance(k, IndexTerm) and k.var in system.existentials}
        if leftover:
            names = ", ".join(sorted(map(str, leftover)))
            raise Unsupported(f"existential {key.var} not isolated: depends on {names}")
        d = _row_denom(sol)
        scaled = _row_to_expr(sol, d)
        if d > 1:
            raw.append(Congruence(scaled, d))
        raw.append(Ineq(scaled, ZERO))

    if unsat:
        return Region("unsat", tuple(c for c in raw if isinstance(c, Equation)), tuple(raw))

    # an inequality the inequalities kept before it imply is dropped
    kept = []
    for cond in raw:
        facts = tuple(c.diff for c in kept if isinstance(c, Ineq))
        if not (isinstance(cond, Ineq) and _subsumed(cond.diff, facts)):
            kept.append(cond)
    if not kept:
        return Region("universal", (), tuple(raw))
    return Region("conditional", tuple(kept), tuple(raw))


# ---------------------------------------------------------------------------
# concrete solving


class LinearSystem:
    """The equations ``exprs[i] = values[i]`` over *unknowns*, reduced once
    with a tag column per equation for its value, as ``sigma._design``
    does; ``solve`` reads the solution at given values off the reduced rows
    with integer dot products.  An unknown is a name (a scalar or a
    multi-index length) or an index term such as the element ``m[3]``;
    ``terms`` holds every index term the equations mention."""

    def __init__(self, exprs: list, unknowns):
        keys = {u if isinstance(u, IndexTerm) else IndexTerm(u): u for u in unknowns}
        self.terms = set().union(*(e.index_terms() for e in exprs))
        rows = [_row_of(e) | {i: Fraction(-1)} for i, e in enumerate(exprs)]
        solved, rest = reduce_rows(rows, reversed(keys))
        # unknowns by column; an index term that is not one is column -1
        self.names, self.unknowns = list(keys), list(keys.values())
        self.column = {u: c for c, u in enumerate(self.unknowns)}
        column = {key: c for c, key in enumerate(keys)}

        def scaled(row):
            # (constant, ((equation, a), ...), ((column, a), ...), d): the
            # row times its common denominator d
            d = _row_denom(row)
            ints = {k: int(v * d) for k, v in row.items()}
            tags = tuple((k, a) for k, a in ints.items() if isinstance(k, int))
            terms = tuple((column.get(k, -1), a) for k, a in ints.items() if isinstance(k, IndexTerm))
            return ints[None], tags, terms, d

        self.solved = {column[key]: scaled(sol) for key, sol in solved.items()}
        self.rest = [scaled(r) for r in rest]
        self.missing = [c for c, key in enumerate(keys) if key not in solved]

    def solve(self, values, pins: dict) -> dict:
        """The unique natural assignment at *values*, keyed as the unknowns
        were given, with each unknown in *pins* (keyed the same way) set to
        its value.  None when inconsistent or not natural, also when
        unknowns are left free: the equations contradict each other, or a
        solved unknown has a negative constant and no positive coefficient,
        which makes it negative for every natural value of the terms it
        still depends on.  The unknowns are pivoted last-declared first;
        when the system does not pin every one down, Ambiguous carries the
        first one left free as ``free``, and as ``least`` the least value
        of it that the solved unknowns depending on it alone allow.  A pin
        gives what one more equation ``unknown = value`` would."""
        pinned = {self.column[u]: v for u, v in pins.items()}

        def value(row):
            const, tags, terms, _ = row
            return (
                const
                + sum(a * values[i] for i, a in tags)
                + sum(a * pinned[c] for c, a in terms if c in pinned)
            )

        def free(row):
            return [(c, a) for c, a in row[2] if c not in pinned]

        if any(not free(r) and value(r) for r in self.rest) or any(
            value(sol) < 0 and all(a <= 0 for _, a in free(sol)) for sol in self.solved.values()
        ):
            return None
        missing = next((c for c in self.missing if c not in pinned), None)
        if missing is not None:
            # c + a * missing >= 0 with a > 0 needs missing >= -c / a
            least = 0
            for sol in self.solved.values():
                terms = free(sol)
                if len(terms) == 1 and terms[0][0] == missing and terms[0][1] > 0:
                    least = max(least, -(value(sol) // terms[0][1]))
            raise Ambiguous(f"{self.names[missing]} is not determined", self.unknowns[missing], least)
        if any(free(r) for r in self.rest) or any(free(sol) for sol in self.solved.values()):
            raise Ambiguous("equations mention index terms that are not unknowns")
        out = {}
        for c, u in enumerate(self.unknowns):
            if c in pinned:
                out[u] = pinned[c]
                continue
            v, d = value(self.solved[c]), self.solved[c][3]
            if v % d or v < 0:
                return None
            out[u] = v // d
        return out


def solve_concrete(equations, unknowns) -> dict:
    """The unique natural assignment of *unknowns* satisfying all
    *equations*, keyed as given: ``LinearSystem.solve`` of a system
    compiled for this one solve."""
    diffs = [eq.diff for eq in equations]
    return LinearSystem(diffs, unknowns).solve([0] * len(diffs), {})
