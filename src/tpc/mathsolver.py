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
  bound each, are fixed then.  Tuning solves every count, length and
  element with it (elements through ``solve_concrete``, a system compiled
  for one solve), and sigma's fit (``sigma._design``) every feature
  coefficient, in integers.

A solve settles the free unknowns itself, in declared order, each pinned
to the first value that leads to an assignment.  Over the naturals that
is its least value that works in least..least + ``_FREE_BOUND``, where
least is the smallest value the solved unknowns depending on it alone
allow, or 0 when no solved row mentions it, since any value then gives
the same outcome; any witness will do, as tuning needs one.  When no pin
works the solve gives up with ``Ambiguous``, naming the first free
unknown and its least value.  Over the integers, sigma's fit, a free
unknown is 0: a consistent system's free-zero solution depends only on
the row space.
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

_FREE_BOUND = 8


class LinearSystem:
    """The equations ``exprs[i] = values[i]`` over *unknowns*, naturals or,
    when *natural* is false, integers, reduced once with a tag column per
    equation for its value; ``solve`` reads the assignment at given values
    off the reduced rows with integer dot products.  An unknown is a name
    (a scalar or a multi-index length) or an index term such as ``m[3]``.
    Pivoting them last-declared first fixes the ones left ``free``
    (columns, in declared order) and, for each, the solved rows that
    mention it and those that bound it from below once the free ones
    before it are pinned."""

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

    def solve(self, values):
        """The assignment at *values*, keyed as the unknowns were given,
        each free unknown pinned in turn by the rule in the module
        docstring, or None.  None when the equations contradict each other
        or a solved value is not integral or, for naturals, negative, also
        before any pin once a solved unknown is negative with no positive
        coefficient left to raise it.  Ambiguous, with the first free
        unknown as ``free`` and its least value as ``least``, when no pin
        over the naturals gives an assignment, or when an equation mentions
        an index term that is not an unknown, since no pin then settles it
        (without a free unknown, a plain Ambiguous)."""
        for const, tags in self.checks:
            if const + sum([a * values[i] for i, a in tags]):
                return None
        at = [const + sum([a * values[i] for i, a in tags]) for const, tags, _ in self.rows]
        if self._hopeless(at, {}):
            return None
        if not self.others:
            sol = self._settled(at, {})
            if sol is not None or not (self.free and self.natural):
                return sol
        if not self.free:
            raise Ambiguous("equations mention index terms that are not unknowns")
        c = self.free[0]
        raise Ambiguous(f"{self.unknowns[c]} is not determined", self.unknowns[c], self._least(at, c))

    def _hopeless(self, at, pinned: dict) -> bool:
        """Whether, over the naturals, a solved row is negative at *at*
        with every term that could raise it in *pinned*."""
        return self.natural and any(
            v < 0 and all(c in pinned for c, a in terms if a > 0) for v, (_, _, terms) in zip(at, self.rows)
        )

    def _least(self, at, c: int) -> int:
        """The least natural value of free column *c* that the solved rows
        bounding it allow at *at*."""
        return max([0] + [-(at[r] // a) for r, a in self.bounds[c]])

    def _settled(self, at, pinned: dict):
        """The assignment from *at*, the solved rows' values with the free
        columns in *pinned* set, once each later free column is pinned to
        its first value by the rule that gives one, or None."""
        if len(pinned) < len(self.free):
            c = self.free[len(pinned)]
            if self.natural and self.uses[c]:
                least = self._least(at, c)
                pins = range(least, least + _FREE_BOUND + 1)
            else:
                pins = (0,)
            for v in pins:
                sol = self._pinned(at, pinned, c, v)
                if sol is not None:
                    return sol
            return None
        out = [pinned.get(c) for c in range(len(self.unknowns))]
        for (c, d), v in zip(self.pivots, at):
            if v % d or v < 0 and self.natural:
                return None
            out[c] = v // d
        return dict(zip(self.unknowns, out))

    def _pinned(self, at, pinned: dict, c: int, v: int):
        """One pin: the assignment ``_settled`` gives once free column *c*
        is set to *v* too, or None."""
        at = list(at)
        for r, a in self.uses[c]:
            at[r] += a * v
        pinned = {**pinned, c: v}
        return None if self._hopeless(at, pinned) else self._settled(at, pinned)


def _parts(nums: dict) -> tuple:
    """The integer row *nums* as (constant, ((equation, a), ...), ((column, a), ...))."""
    tags = [(~k, a) for k, a in nums.items() if k is not None and k < 0]
    return nums.get(None, 0), tags, [(k, a) for k, a in nums.items() if k is not None and k >= 0]


def solve_concrete(equations, unknowns) -> dict:
    """A natural assignment of *unknowns* satisfying all *equations*, keyed
    as given, or None: ``LinearSystem.solve`` of a system compiled for this
    one solve, its free unknowns pinned by the same rule."""
    diffs = [eq.diff for eq in equations]
    return LinearSystem(diffs, unknowns).solve([0] * len(diffs))
