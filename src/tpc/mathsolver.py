"""Exact linear solving over index variables.

One row-reduction kernel, ``reduce_rows``, pivots chosen keys out of
sparse integer rows in integer arithmetic, each result row exact as its
numerators over one denominator.  Two front-ends share it:

* ``eliminate`` projects scalar existentials out of an equation system,
  returning the region of parameter values for which a natural solution
  exists (with integrality residues turned into congruences and solved
  values required nonnegative).
* ``LinearSystem`` reduces equations ``expr = value`` once, the values as
  tag columns, into integer rows, and solves them at any values by
  integer dot products.  The unknowns it leaves free, and the rows that
  bound each, are fixed then; a solve returns the first one left unpinned
  as a ``Free`` outcome, with its least value, to be pinned in turn.
  Tuning solves every count, length and element with it (elements through
  ``solve_concrete``, a system compiled for one solve), and sigma's fit
  (``sigma._design``) every feature coefficient, in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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


@dataclass(frozen=True)
class Region:
    """Parameter values admitting a solution: everything, nothing, or a
    condition conjunction.  ``raw`` preserves the pre-subsumption list."""

    kind: str  # "universal" | "unsat" | "conditional"
    conditions: tuple = ()
    raw: tuple = ()

    def __str__(self):
        if self.kind == "universal":
            return "all naturals"
        if self.kind == "unsat":
            return "empty"
        return " and ".join(str(c) for c in self.conditions)


# ---------------------------------------------------------------------------
# linear rows


def _row_of(e: AffineExpr) -> dict:
    return {None: e.const, **{it: c for c, it in e.terms}}


def _lowest(nums: dict, d: int) -> list:
    """The row *nums* / *d*, d > 0, as [numerators, d] in lowest terms."""
    g = gcd(d, *nums.values())
    return [{k: v // g for k, v in nums.items()}, d // g]


def reduce_rows(rows: list, keys) -> tuple:
    """Gauss-Jordan over sparse integer rows (key -> int, constant under
    None, each row meaning "sum = 0"): pivots each of *keys* out, in order,
    skipping keys no remaining row mentions.  Returns (solved, rest), each
    row as (numerators, denominator) in lowest terms, the denominator
    positive: solved maps each pivoted key to the row it equals, in the
    unpivoted keys and the constant; rest holds the unused rows with every
    pivoted key substituted away.  The arithmetic is in integers."""
    work = [[dict(r), 1] for r in rows]
    solved = {}
    for key in keys:
        i = next((i for i, (nums, _) in enumerate(work) if nums.get(key)), None)
        if i is None:
            continue
        nums, _ = work.pop(i)
        c = nums.pop(key)
        sol_nums, sol_d = sol = _lowest({k: -v for k, v in nums.items()} if c > 0 else nums, abs(c))
        sol_nums.setdefault(None, 0)
        for row in work + list(solved.values()):
            a = row[0].pop(key, 0)
            if a:
                # row + a * sol, over the product of their denominators
                nums = {k: v * sol_d for k, v in row[0].items()}
                for k, v in sol_nums.items():
                    nums[k] = nums.get(k, 0) + a * v
                row[:] = _lowest({k: v for k, v in nums.items() if v or k is None}, row[1] * sol_d)
        solved[key] = sol
    return solved, work


def _row_to_expr(nums: dict) -> AffineExpr:
    return AffineExpr.of(nums.get(None, 0), *((v, k) for k, v in nums.items() if k is not None))


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
    for nums, _ in rows:
        expr = _row_to_expr(nums)
        if expr.is_const:
            if expr.const != 0:
                unsat = True
                raw.append(_split_equation(expr))
            continue
        raw.append(_split_equation(expr))
    for key, (nums, d) in solved.items():
        leftover = {k for k in nums if isinstance(k, IndexTerm) and k.var in system.existentials}
        if leftover:
            names = ", ".join(sorted(map(str, leftover)))
            raise Unsupported(f"existential {key.var} not isolated: depends on {names}")
        scaled = _row_to_expr(nums)
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
# compiled solving


class LinearSystem:
    """The equations ``exprs[i] = values[i]`` over *unknowns*, naturals or,
    when *natural* is false, integers, reduced once with a tag column per
    equation for its value; ``solve`` reads the outcome at given values off
    the reduced rows with integer dot products.  An unknown is a name (a
    scalar or a multi-index length) or an index term such as ``m[3]``.
    Pivoting them last-declared first fixes the ones left ``free``
    (columns, in declared order) and, for each, the solved rows that bound
    it from below once the free ones before it are pinned."""

    def __init__(self, exprs: list, unknowns, natural: bool = True):
        self.unknowns, self.natural = list(unknowns), natural
        size = len(self.unknowns)
        keys = [u if isinstance(u, IndexTerm) else IndexTerm(u) for u in self.unknowns]
        # an unknown's column is its position, any other index term's one
        # past them; equation i's tag column is ~i, the constant's None
        column = {key: c for c, key in enumerate(keys)}
        rows = [
            {None: e.const, ~i: -1, **{column.setdefault(it, len(column)): a for a, it in e.terms}}
            for i, e in enumerate(exprs)
        ]
        solved, rest = reduce_rows(rows, range(size - 1, -1, -1))
        # integer rows (constant, ((equation, a), ...), ((column, a), ...)):
        # the numerators of the solved ones in column order, each over its
        # denominator d, and of the rest, which mention no unknown; one
        # mentioning another index term holds for some value of it, so only
        # the others are checked
        self.pivots = [(c, solved[c][1]) for c in range(size) if c in solved]
        self.rows = [_parts(solved[c][0]) for c, _ in self.pivots]
        rest = [_parts(nums) for nums, _ in rest]
        self.checks = [(const, tags) for const, tags, terms in rest if not terms]
        self.others = any(c >= size for _, _, terms in self.rows + rest for c, _ in terms)
        self.free = [c for c in range(size) if c not in solved]
        self.column = dict(zip(self.unknowns, range(size)))
        self.uses = {c: [] for c in self.free}
        self.bounds = {c: [] for c in self.free}
        for r, (_, _, terms) in enumerate(self.rows):
            for c, a in terms:
                if c < size:
                    self.uses[c].append((r, a))
            # a row bounds its last free term once the ones before are
            # pinned, when the coefficient is positive and no other term is left
            last, a = max(terms, default=(size, 0))
            if last < size and a > 0:
                self.bounds[last].append((r, a))

    def solve(self, values, pins: dict):
        """The outcome at *values* with the free unknowns in *pins* set, all
        keyed as the unknowns were given: the unique assignment, ``Free``
        for the first free unknown left unpinned, or None.  None when the
        equations contradict each other or a solved value is not integral
        or, for naturals, negative, also while unknowns are left free once
        a solved unknown is negative with no positive coefficient left to
        raise it.  Ambiguous when every unknown is pinned down but an
        equation mentions an index term that is not one."""
        for const, tags in self.checks:
            if const + sum([a * values[i] for i, a in tags]):
                return None
        at = [const + sum([a * values[i] for i, a in tags]) for const, tags, _ in self.rows]
        return self._pinned(at, {}, {self.column[u]: v for u, v in pins.items()})

    def _pinned(self, at, pinned: dict, pins: dict):
        """The outcome from *at*, the solved rows' values with the columns
        in *pinned* set, once the columns in *pins* are set in it too."""
        for c, v in pins.items():
            for r, a in self.uses[c]:
                at[r] += a * v
        pinned = {**pinned, **pins}
        if self.natural and any(
            v < 0 and all(c in pinned for c, a in terms if a > 0) for v, (_, _, terms) in zip(at, self.rows)
        ):
            return None
        for c in self.free:
            if c not in pinned:
                return Free(self, at, pinned, c, max([0] + [-(at[r] // a) for r, a in self.bounds[c]]))
        if self.others:
            raise Ambiguous("equations mention index terms that are not unknowns")
        out = [pinned.get(c) for c in range(len(self.unknowns))]
        for (c, d), v in zip(self.pivots, at):
            if v % d or v < 0 and self.natural:
                return None
            out[c] = v // d
        return dict(zip(self.unknowns, out))


@dataclass(frozen=True)
class Free:
    """``LinearSystem.solve``'s outcome when it leaves an unknown free: the
    first one unpinned, by its ``column``, with ``least``, the least
    natural value of it that the solved unknowns depending on it alone
    allow, and the system's rows evaluated so far."""

    system: LinearSystem
    at: list
    pinned: dict
    column: int
    least: int

    def pin(self, value: int):
        """The outcome with the unknown pinned to *value* too: None when an
        equation mentions an index term that is not an unknown, since no
        assignment of the unknowns alone then holds."""
        return None if self.system.others else self.system._pinned(list(self.at), self.pinned, {self.column: value})

    def ambiguous(self) -> Ambiguous:
        unknown = self.system.unknowns[self.column]
        return Ambiguous(f"{unknown} is not determined", unknown, self.least)


def _parts(nums: dict) -> tuple:
    """The integer row *nums* as (constant, ((equation, a), ...), ((column, a), ...))."""
    tags = [(~k, a) for k, a in nums.items() if k is not None and k < 0]
    return nums.get(None, 0), tags, [(k, a) for k, a in nums.items() if k is not None and k >= 0]


def solve_concrete(equations, unknowns) -> dict:
    """The unique natural assignment of *unknowns* satisfying all
    *equations*, keyed as given, or None: ``LinearSystem.solve`` of a
    system compiled for this one solve, with Ambiguous for a free unknown."""
    diffs = [eq.diff for eq in equations]
    outcome = LinearSystem(diffs, unknowns).solve([0] * len(diffs), {})
    if isinstance(outcome, Free):
        raise outcome.ambiguous()
    return outcome
