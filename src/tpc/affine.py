"""Affine integer expressions over index variables.

A term is a reference into the index space: a scalar variable ``n``, the
length of a multi-index ``m`` (written just ``m``), or
an element ``m[i]`` whose selector is itself affine.  Everything is exact
integer arithmetic.  The module knows no atoms: the values of an iterated
group's variable are ranged over by ``paths.unroll`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class IndexTerm:
    """A scalar-valued reference: variable, multi-index length, or element."""

    var: str
    sel: tuple = ()

    def __str__(self):
        out = self.var
        for s in self.sel:
            out += f"[{s}]"
        return out


def scalar_of(value) -> int:
    """A multi-index stands for its length when used in scalar position."""
    if isinstance(value, int):
        return value
    if isinstance(value, tuple):
        return len(value)
    raise TypeError(f"not an index value: {value!r}")


@dataclass(frozen=True, slots=True)
class AffineExpr:
    const: int = 0
    terms: tuple = ()  # ((coeff, IndexTerm), ...) sorted, no zero coeffs

    @staticmethod
    def of(const: int = 0, *terms) -> "AffineExpr":
        acc = {}
        for coeff, it in terms:
            acc[it] = acc.get(it, 0) + coeff
        items = tuple(sorted(((c, it) for it, c in acc.items() if c != 0), key=lambda p: str(p[1])))
        return AffineExpr(const, items)

    @staticmethod
    def const_(n: int) -> "AffineExpr":
        return AffineExpr(n, ())

    @staticmethod
    def var(name: str) -> "AffineExpr":
        return AffineExpr(0, ((1, IndexTerm(name)),))

    @staticmethod
    def element(name: str, selector: "AffineExpr") -> "AffineExpr":
        return AffineExpr(0, ((1, IndexTerm(name, (selector,))),))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = AffineExpr.const_(other)
        return AffineExpr.of(self.const + other.const, *self.terms, *other.terms)

    def __sub__(self, other):
        if isinstance(other, int):
            other = AffineExpr.const_(other)
        return self + (other * -1)

    def __mul__(self, k: int):
        if k == 0:
            return AffineExpr.const_(0)
        return AffineExpr(self.const * k, tuple((c * k, it) for c, it in self.terms))

    __rmul__ = __mul__

    # -- queries ------------------------------------------------------------

    @property
    def is_const(self) -> bool:
        return not self.terms

    def evaluate(self, env: dict) -> int:
        """env maps variable names to ints or (nested) tuples of ints."""
        total = self.const
        for coeff, it in self.terms:
            value = env[it.var]
            for sel in it.sel:
                pos = sel.evaluate(env)
                if not isinstance(value, tuple):
                    raise KeyError(f"{it.var} has no elements to select from")
                if not (1 <= pos <= len(value)):
                    raise IndexError(f"selector {pos} out of range for {it.var}")
                value = value[pos - 1]
            total += coeff * scalar_of(value)
        return total

    def substitute(self, mapping: dict) -> "AffineExpr":
        """Replace scalar variables by affine expressions (also inside
        selectors)."""
        out = AffineExpr.const_(self.const)
        for coeff, it in self.terms:
            new_sel = tuple(s.substitute(mapping) for s in it.sel)
            if not new_sel and it.var in mapping:
                out = out + mapping[it.var] * coeff
            else:
                out = out + AffineExpr(0, ((1, IndexTerm(it.var, new_sel)),)) * coeff
        return out

    def __str__(self):
        if not self.terms:
            return str(self.const)
        parts = []
        for coeff, it in self.terms:
            mag = "" if abs(coeff) == 1 else str(abs(coeff))
            piece = f"{mag}{it}"
            if not parts:
                parts.append(piece if coeff > 0 else f"-{piece}")
            else:
                parts.append(f" + {piece}" if coeff > 0 else f" - {piece}")
        if self.const > 0:
            parts.append(f" + {self.const}")
        elif self.const < 0:
            parts.append(f" - {-self.const}")
        return "".join(parts)


ZERO = AffineExpr.const_(0)
ONE = AffineExpr.const_(1)

