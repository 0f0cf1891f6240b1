"""Exact linear solving over index variables.

One row-reduction kernel, ``reduce_rows``, pivots chosen keys out of
sparse Fraction rows.  Three front-ends share it:

* ``eliminate`` projects scalar existentials out of an equation system,
  returning the region of parameter values for which a natural solution
  exists (with integrality residues turned into congruences and solved
  values required nonnegative).
* ``solve_concrete`` pins down fully determined natural values: every
  scalar count, multi-index length and element that tuning solves, with
  the first unknown it leaves free, and the least value the solved
  unknowns allow it, reported for tuning to pin.
* ``sigma._design`` reduces a feature matrix once, to solve each
  repetition count for its feature coefficients (free coordinates zero,
  integral or no fit).

``solve_multiindex`` isolates one unknown multi-index hierarchically:
the length equation first, then one element per equation family.

All arithmetic is exact (Fractions internally, integers in results).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm

from .affine import AffineExpr, IndexTerm, ZERO, scopes
from .errors import Underdetermined, Unsupported


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
class ElementFamily:
    """One condition for each itervar in [lower, upper]."""

    itervar: str
    lower: AffineExpr
    upper: AffineExpr
    body: object  # Equation | Ineq

    def __str__(self):
        return f"{self.body}, for {self.itervar} = {self.lower}..{self.upper}"


@dataclass(frozen=True)
class ConditionSystem:
    """Conditions over declared parameters, with existentials to be
    projected out (in declared order)."""

    parameters: tuple = ()
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
        if isinstance(cond, ElementFamily):
            return all(eval_condition(cond.body, scope) for scope in scopes(cond, env))
    except (IndexError, KeyError):
        return False
    raise TypeError(f"not a condition: {cond!r}")


def eval_system(system: ConditionSystem, env: dict) -> bool:
    return all(eval_condition(c, env) for c in system.conditions)


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
    """Project the scalar existentials out of the equation part of
    *system* and describe where (over the naturals) a solution exists."""
    rows = []
    given = []
    for cond in system.conditions:
        if isinstance(cond, Equation):
            rows.append(_row_of(cond.diff))
        elif isinstance(cond, Ineq):
            given.append(cond.diff)
        else:
            raise Unsupported(f"cannot eliminate through {type(cond).__name__}")

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

    kept = []
    facts = list(given)
    for cond in raw:
        if isinstance(cond, Congruence):
            if cond.modulus > 1:
                kept.append(cond)
        elif isinstance(cond, Ineq):
            if not _subsumed(cond.diff, tuple(facts)):
                kept.append(cond)
                facts.append(cond.diff)
        else:
            kept.append(cond)
    if not kept:
        return Region("universal", (), tuple(raw))
    return Region("conditional", tuple(kept), tuple(raw))


# ---------------------------------------------------------------------------
# concrete solving


def solve_concrete(equations, unknowns) -> dict:
    """The unique natural assignment of *unknowns* satisfying all
    *equations*, keyed as given: an unknown is a name (a scalar or a
    multi-index length) or an index term such as the element ``m[3]``.
    None when inconsistent or not natural, also when other unknowns are
    left free: the equations contradict each other, or a solved unknown
    has a negative constant and no positive coefficient, which makes it
    negative for every natural value of the terms it still depends on.
    The unknowns are pivoted last-declared first; when the system does not
    pin every one down, Underdetermined carries the first one left free as
    ``free``, and as ``least`` the least value of it that the solved
    unknowns depending on it alone allow."""
    keys = {u if isinstance(u, IndexTerm) else IndexTerm(u): u for u in unknowns}
    solved, rows = reduce_rows([_row_of(eq.diff) for eq in equations], reversed(keys))
    # hopeless whatever the free unknowns are: a contradiction, or an
    # unknown negative for every natural value of the terms it depends on
    if any(len(r) == 1 and r[None] for r in rows) or any(
        sol[None] < 0 and all(v <= 0 for v in sol.values()) for sol in solved.values()
    ):
        return None
    missing = next((key for key in keys if key not in solved), None)
    if missing is not None:
        # key = c + a * missing >= 0 with a > 0 needs missing >= -c / a
        least = max([0] + [
            ceil(-sol[None] / sol[missing])
            for sol in solved.values()
            if sol.keys() == {None, missing} and sol[missing] > 0
        ])
        raise Underdetermined(f"{missing} is not determined", keys[missing], least)
    if any(len(r) > 1 for r in rows) or any(len(sol) > 1 for sol in solved.values()):
        raise Underdetermined("equations mention index terms that are not unknowns")
    out = {}
    for key, u in keys.items():
        v = solved[key][None]
        if v.denominator != 1 or v < 0:
            return None
        out[u] = v.numerator
    return out


# ---------------------------------------------------------------------------
# multi-index solving


@dataclass(frozen=True)
class MultiIndexSolution:
    """The unknown multi-index isolated: its length, one solved equation
    (or family) per element, and the residual region on the remaining
    parameters."""

    target: str
    length: AffineExpr
    elements: tuple  # Equation | ElementFamily with target isolated on lhs
    region: Region

    def build(self, env: dict) -> tuple:
        """The concrete value of the target under *env* (which binds the
        other indexes).  Every element must be pinned by some equation."""
        size = self.length.evaluate(env)
        if size < 0:
            return None
        out = [None] * size

        def fill(eq: Equation, scope: dict):
            pos = eq.lhs.terms[0][1].sel[0].evaluate(scope)
            if not (1 <= pos <= size):
                raise IndexError(f"element {pos} outside 1..{size}")
            out[pos - 1] = eq.rhs.evaluate(scope)

        for el in self.elements:
            if isinstance(el, Equation):
                fill(el, env)
            else:
                for scope in scopes(el, env):
                    fill(el.body, scope)
        if any(v is None for v in out):
            raise Underdetermined(f"{self.target} has unpinned elements")
        return tuple(out)


def _target_terms(e: AffineExpr, target: str):
    return [(c, it) for c, it in e.terms if it.var == target]


def _isolate(eq: Equation, target: str) -> Equation:
    """Rewrite so the single target term stands alone on the left."""
    diff = eq.diff
    hits = _target_terms(diff, target)
    if len(hits) != 1 or abs(hits[0][0]) != 1:
        raise Unsupported(f"cannot isolate {target} in: {eq}")
    c, it = hits[0]
    lhs = AffineExpr(0, ((1, it),))
    rest = diff - AffineExpr(0, ((c, it),))
    rhs = rest * (-1) if c == 1 else rest
    return Equation(lhs, rhs)


def solve_multiindex(system: ConditionSystem, target: str) -> MultiIndexSolution:
    """Hierarchical solve: the equation fixing |target| first, then the
    element equations; anything not mentioning the target becomes the
    residual region."""
    length = None
    elements = []
    residual = []
    for cond in system.conditions:
        if isinstance(cond, Equation):
            hits = _target_terms(cond.diff, target)
            if not hits:
                residual.append(cond)
                continue
            iso = _isolate(cond, target)
            it = iso.lhs.terms[0][1]
            if not it.sel:
                if length is not None:
                    raise Unsupported(f"two length equations for {target}")
                length = iso.rhs
            else:
                elements.append(iso)
        elif isinstance(cond, ElementFamily):
            if not isinstance(cond.body, Equation) or not _target_terms(cond.body.diff, target):
                residual.append(cond)
                continue
            iso = _isolate(cond.body, target)
            if not iso.lhs.terms[0][1].sel:
                raise Unsupported("length equation inside a family")
            elements.append(ElementFamily(cond.itervar, cond.lower, cond.upper, iso))
        else:
            residual.append(cond)
    if length is None:
        raise Unsupported(f"no length equation for {target}")
    if any(target in _cond_vars(c) for c in residual):
        raise Unsupported(f"residual conditions still mention {target}")
    if not residual:
        region = Region("universal", (), ())
    else:
        region = Region("conditional", tuple(residual), tuple(residual))
    return MultiIndexSolution(target, length, tuple(elements), region)


def _cond_vars(cond) -> set:
    if isinstance(cond, (Equation, Ineq)):
        return cond.diff.variables()
    if isinstance(cond, Congruence):
        return cond.expr.variables()
    if isinstance(cond, ElementFamily):
        return (_cond_vars(cond.body) | cond.lower.variables() | cond.upper.variables()) - {cond.itervar}
    raise TypeError(f"not a condition: {cond!r}")
