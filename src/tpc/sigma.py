"""Symbolic characteristic functions for iterative schemes.

``sigma`` turns a scheme into a function of its index variables whose
value is an atom set: a pair of trees is related by some instance of the
scheme exactly when the atoms hold under the corresponding assignment.

The construction samples the scheme at small concrete indexes, reduces
each instance to a single clause, splits it into path atoms, aligns the
atoms across samples into families, fits every repetition count as an
affine expression in the index features (constants, scalar counts,
multi-index lengths, and inside iterated families the position i and the
element value m[i]), and then verifies the fitted form against held-out
samples.  Verification expands the fitted atoms at each held-out index
and compares them, as a multiset, with the atoms split from that sample:
each atom is compared by its class, the unit steps of each side and its
template.  Anything that fails to fit or verify raises NotLinearizable.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .affine import AffineExpr, ONE
from .errors import NotLinearizable
from .mathsolver import reduce_rows
from .paths import (
    AtomSet,
    IterGroup,
    Segment,
    SymbolicPath,
    VarDecl,
    eval_atomset,
    split_axiom,
)
from .schemes import (
    Alt,
    Axiom,
    Dot,
    Eps,
    IterExpr,
    ListOf,
    Star,
    UNIT,
    UNIT_SHAPE,
    instantiate,
    reduce_specific,
    shape_of,
)
from .terms import Term

_SCALAR_NAMES = ("n", "k", "j", "l")
_MULTI_NAMES = ("m", "u", "w")

_SCALAR_FIT = (1, 2, 3)
_SCALAR_VERIFY = (4, 5)
_MULTI_FIT = (
    (1,), (2,),
    (1, 1), (2, 1), (1, 2), (2, 2),
    (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (3, 2, 1),
)
_MULTI_VERIFY = ((3,), (1, 3), (4, 1, 2), (2, 1, 3, 2))

_MAX_FIT_SAMPLES = 400
_MAX_VERIFY_SAMPLES = 64


# ---------------------------------------------------------------------------
# variable layout


def _layout(e: IterExpr, decls: list):
    """Builder spec for constructing a concrete index from an assignment;
    appends one VarDecl per index variable (in left-to-right scheme
    order)."""
    if isinstance(e, (Axiom, Eps)):
        return ("unit",)
    if isinstance(e, Star):
        body = shape_of(e.body)
        if body == UNIT_SHAPE:
            name = _fresh({d.name for d in decls}, _SCALAR_NAMES)
            decls.append(VarDecl(name, "scalar"))
            return ("scalar", name)
        if body == ListOf(UNIT_SHAPE):
            name = _fresh({d.name for d in decls}, _MULTI_NAMES)
            decls.append(VarDecl(name, "multi"))
            return ("multi", name)
        raise NotLinearizable("index nesting too deep to lay out", e)
    if isinstance(e, Dot):
        subs = [_layout(p, decls) for p in e.parts]
        nonunit = tuple(s for s in subs if s != ("unit",))
        if not nonunit:
            return ("unit",)
        if len(nonunit) == 1:
            return nonunit[0]
        return ("tuple", nonunit)
    if isinstance(e, Alt):
        raise NotLinearizable("alternatives must be at the top level", e)
    raise TypeError(e)


def _fresh(taken, preferred):
    """The first of *preferred*, then of preferred[0] + "2", "3", ..., not in *taken*."""
    for name in preferred:
        if name not in taken:
            return name
    i = 2
    while f"{preferred[0]}{i}" in taken:
        i += 1
    return f"{preferred[0]}{i}"


def _build_index(spec, env):
    tag = spec[0]
    if tag == "unit":
        return UNIT
    if tag == "scalar":
        return env[spec[1]]
    if tag == "multi":
        return tuple(env[spec[1]])
    if tag == "tuple":
        return tuple(_build_index(s, env) for s in spec[1])
    raise ValueError(spec)


def _sample_grid(decls, scalar_pool, multi_pool, cap):
    pools = []
    for d in decls:
        pools.append(scalar_pool if d.kind == "scalar" else multi_pool)
    combos = list(itertools.product(*pools)) if decls else [()]
    if len(combos) > cap:
        stride = -(-len(combos) // cap)
        combos = combos[::stride]
    return [dict(zip((d.name for d in decls), combo)) for combo in combos]


# ---------------------------------------------------------------------------
# concrete atoms (one sample)


def _concrete_atoms(theory, names, prefix):
    """The atoms of one sample; *prefix* is the reduce_specific state
    shared by the samples of one branch."""
    clause = reduce_specific(theory, names, prefix)
    return None if clause is None else split_axiom(clause).conjuncts


def _skeleton(path: SymbolicPath) -> tuple:
    return tuple(seg.step for seg in path.segments)


def _family_key(atom):
    """Class, step skeleton of each side and template (None for EqualsLR)
    of a concrete atom."""
    (left, _), (right, template) = atom.sides()
    return (type(atom), _skeleton(left), _skeleton(right), template)


# ---------------------------------------------------------------------------
# affine fitting


def _fit(observations, features):
    """observations: (env, count) pairs; features: AffineExprs.  Returns
    the fitted AffineExpr (free coefficients zero) or None when no
    integral fit exists."""
    rows = []
    try:
        for env, count in observations:
            row = {None: Fraction(-count)}
            for col, f in enumerate(features):
                v = f.evaluate(env)
                if v:
                    row[col] = Fraction(v)
            rows.append(row)
    except (IndexError, KeyError):
        return None
    solved, rest = reduce_rows(rows, range(len(features)))
    if any(r[None] for r in rest):
        return None
    expr = AffineExpr.const_(0)
    for col, f in enumerate(features):
        b = solved[col][None] if col in solved else 0
        if b.denominator != 1:
            return None
        expr = expr + f * int(b)
    return expr


def _base_features(decls):
    # a multi-index name in scalar position means its length
    return [ONE] + [AffineExpr.var(d.name) for d in decls]


# ---------------------------------------------------------------------------
# family alignment


def _sub_skeleton(a, b):
    """Is step tuple a an (ordered) subsequence of b?"""
    it = iter(b)
    return all(step in it for step in a)


def _embed(path: SymbolicPath, skeleton):
    """Leftmost embedding of a concrete path's segment counts into a step
    skeleton; None if its steps are not a subsequence."""
    out = [0] * len(skeleton)
    si = 0
    for seg in path.segments:
        while si < len(skeleton) and skeleton[si] != seg.step:
            si += 1
        if si == len(skeleton):
            return None
        out[si] = seg.count.const
        si += 1
    return out


def _merge_keys(keys):
    """Partition compatible keys around maximal skeletons.  Two keys are
    compatible when they share class and template and both step tuples of
    one embed into the other's."""
    keys = list(keys)
    merged = {}  # representative key -> list of member keys
    for key in sorted(keys, key=lambda k: (-len(k[1]) - len(k[2]), str(k))):
        home = None
        for rep in merged:
            if (
                key[0] == rep[0]
                and key[3] == rep[3]
                and _sub_skeleton(key[1], rep[1])
                and _sub_skeleton(key[2], rep[2])
            ):
                home = rep
                break
        if home is None:
            merged[key] = [key]
        else:
            merged[home].append(key)
    return merged


def _path_from(skeleton, exprs) -> SymbolicPath:
    return SymbolicPath.of(*(Segment(s, e) for s, e in zip(skeleton, exprs)))


# ---------------------------------------------------------------------------
# per-branch synthesis


@dataclass(frozen=True)
class Branch:
    """One alternative of the characteristic function: its scheme, the
    declared index variables, the index builder, and the atoms."""

    scheme: IterExpr
    decls: tuple
    builder: tuple
    atoms: AtomSet

    def holds(self, assign: dict, t: Term, d: Term) -> bool:
        return eval_atomset(self.atoms, assign, t, d)

    def index_of(self, assign: dict):
        return _build_index(self.builder, assign)

    def __str__(self):
        lam = "".join(
            f"lambda {d.name}:{'M' if d.kind == 'multi' else 'N'}." for d in self.decls
        )
        return lam + str(self.atoms)


@dataclass(frozen=True)
class SymbolicCharFn:
    scheme: IterExpr
    branches: tuple

    def __str__(self):
        return " | ".join(str(b) for b in self.branches)


def _family_atom(member, key, fitted):
    """*member*, one atom of the family *key*, rebuilt with the fitted
    paths."""
    return member.with_paths(*(_path_from(skel, exprs) for skel, exprs in zip(key[1:3], fitted)))


def _fit_family_runs(key, observations, features, scheme):
    """observations: (env, atom) with atom steps embedding in key's
    skeletons.  Fits one expression per run on each side."""
    fitted = []
    for side, skel in enumerate(key[1:3]):
        counts = [_embed(atom.sides()[side][0], skel) for _, atom in observations]
        if None in counts:
            raise NotLinearizable("atom does not embed in its family skeleton", scheme)
        exprs = []
        for ri in range(len(skel)):
            expr = _fit([(env, c[ri]) for (env, _), c in zip(observations, counts)], features)
            if expr is None:
                return None
            exprs.append(expr)
        fitted.append(exprs)
    return fitted


def _synthesize_branch(theory, scheme) -> Branch:
    decls = []
    builder = _layout(scheme, decls)
    decls = tuple(decls)
    fit_envs = _sample_grid(decls, _SCALAR_FIT, _MULTI_FIT, _MAX_FIT_SAMPLES)
    verify_envs = _sample_grid(decls, _SCALAR_VERIFY, _MULTI_VERIFY, _MAX_VERIFY_SAMPLES)

    prefix = []
    samples = []
    for env in fit_envs:
        atoms = _concrete_atoms(theory, instantiate(scheme, _build_index(builder, env)), prefix)
        if atoms is None:
            raise NotLinearizable("an instance composes to the empty relation", scheme)
        samples.append((env, atoms))

    # group occurrences by exact key; first_atom holds the keys in order
    # of appearance, each with the atom a fitted family is rebuilt from
    first_atom = {}
    groups = {}
    for si, (env, atoms) in enumerate(samples):
        for pos, atom in enumerate(atoms):
            key = _family_key(atom)
            if key not in groups:
                groups[key] = [[] for _ in samples]
                first_atom[key] = atom
            groups[key][si].append((pos, atom))

    base = _base_features(decls)
    multis = [d.name for d in decls if d.kind == "multi"]
    conjuncts = {}  # key -> list of symbolic atoms (placed at first appearance)
    failing = []

    for key in first_atom:
        per_sample = groups[key]
        counts = {len(lst) for lst in per_sample}
        if counts == {1}:
            obs = [(env, lst[0][1]) for (env, _), lst in zip(samples, per_sample)]
            fitted = _fit_family_runs(key, obs, base, scheme)
            if fitted is not None:
                conjuncts[key] = [_family_atom(first_atom[key], key, fitted)]
                continue
        failing.append(key)

    merged = _merge_keys(failing) if failing else {}
    rep_of = {key: rep for rep, members in merged.items() for key in members}
    if failing:
        itervar = _fresh({d.name for d in decls}, ("i", "i2", "i3"))
        for rep, members in merged.items():
            member_set = set(members)
            # per sample, the member occurrences in original atom order
            occ = []
            for si in range(len(samples)):
                rows = sorted(
                    (pos, atom)
                    for key in member_set
                    for pos, atom in groups[key][si]
                )
                occ.append([atom for _, atom in rows])
            # group size must be affine in the base features
            upper = _fit([(env, len(o)) for (env, _), o in zip(samples, occ)], base)
            if upper is None:
                raise NotLinearizable("family size is not affine in the index", scheme)
            fitted = _fit_iterated(rep, samples, occ, base, multis, itervar, scheme)
            if fitted is None:
                raise NotLinearizable("repetition counts are not affine in the index", scheme)
            body = _family_atom(first_atom[rep], rep, fitted)
            conjuncts[rep] = [IterGroup(itervar, ONE, upper, (body,))]

    ordered = []
    seen = set()
    for key in first_atom:
        key = rep_of.get(key, key)
        if key in conjuncts and key not in seen:
            seen.add(key)
            ordered.extend(conjuncts[key])

    branch = Branch(scheme, decls, builder, AtomSet(tuple(ordered), decls))
    _verify_branch(theory, branch, verify_envs, prefix)
    return branch


def _fit_iterated(key, samples, occ, base, multis, itervar, scheme):
    """Fit run counts over base features extended with the occurrence
    position and, per multi-index, the element at that position (tried
    both from the front and from the back)."""
    pos = AffineExpr.var(itervar)
    selector_choices = [()]
    for w in multis:
        selector_choices = [
            prev + (sel,)
            for prev in selector_choices
            for sel in (
                AffineExpr.element(w, pos),
                AffineExpr.element(w, AffineExpr.var(w) + 1 - pos),
            )
        ]
    for sels in selector_choices:
        features = base + [pos] + list(sels)
        obs = []
        ok = True
        for (env, _), atoms in zip(samples, occ):
            for i, atom in enumerate(atoms, start=1):
                obs.append(({**env, itervar: i}, atom))
        try:
            fitted = _fit_family_runs(key, obs, features, scheme)
        except NotLinearizable:
            return None
        if fitted is not None:
            return fitted
    return None


# ---------------------------------------------------------------------------
# verification


def _unit_form(atom, env):
    """Class, unit steps of each side under *env*, and template (None for
    EqualsLR) of a non-iterated atom."""
    (left, _), (right, template) = atom.sides()
    form = (type(atom), left.expand(env), right.expand(env), template)
    if None in form[1:3]:
        raise NotLinearizable("a fitted count went negative during verification")
    return form


def _expand_symbolic(atoms, env, out: Counter):
    for atom in atoms:
        if isinstance(atom, IterGroup):
            lo = atom.lower.evaluate(env)
            hi = atom.upper.evaluate(env)
            for i in range(lo, hi + 1):
                _expand_symbolic(atom.body, {**env, atom.itervar: i}, out)
        else:
            out[_unit_form(atom, env)] += 1


def _verify_branch(theory, branch: Branch, envs, prefix):
    """At each env the fitted atoms must expand to exactly the multiset of
    the held-out sample's atoms.  Every step comes from
    ``paths._unit_step``, so a side's unit-step sequence and the clause it
    composes to determine each other, and comparing steps needs no clause
    composition."""
    for env in envs:
        atoms = _concrete_atoms(theory, instantiate(branch.scheme, branch.index_of(env)), prefix)
        if atoms is None:
            raise NotLinearizable("a held-out instance composes to the empty relation", branch.scheme)
        got = Counter()
        _expand_symbolic(branch.atoms.conjuncts, env, got)
        if got != Counter(_unit_form(a, {}) for a in atoms):
            raise NotLinearizable("fitted form failed held-out verification", branch.scheme)


# ---------------------------------------------------------------------------
# entry point


def check_layout(scheme: IterExpr) -> None:
    """Raises NotLinearizable when *scheme* has no flat index layout;
    cheap (no sampling), usable as an early feasibility probe."""
    tops = scheme.parts if isinstance(scheme, Alt) else (scheme,)
    for part in tops:
        _layout(part, [])


def sigma(theory, scheme: IterExpr) -> SymbolicCharFn:
    """The symbolic characteristic function of *scheme* over *theory*."""
    tops = scheme.parts if isinstance(scheme, Alt) else (scheme,)
    branches = tuple(_synthesize_branch(theory, part) for part in tops)
    return SymbolicCharFn(scheme, branches)
