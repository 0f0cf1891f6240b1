"""Characteristic-function synthesis: worked forms and oracle agreement."""

import dataclasses
import gc
import itertools
import math
import traceback
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tpc import delta, load_theory
from tpc.affine import ONE, AffineExpr
from tpc.delta import reduce_scheme
from tpc.errors import NotLinearizable, TpcError
from tpc.mathsolver import reduce_rows
from tpc.oracle import SearchBudget, reachable_set
from tpc.paths import EqualsLR, GroundL, GroundR, IterGroup, Segment, SymbolicPath, VarDecl, eval_atomset
from tpc.pipeline import pipeline
from tpc.schemes import (
    Alt,
    Axiom,
    Dot,
    Eps,
    Star,
    build_scheme,
    instantiate,
    parse_scheme,
    reduce_specific,
)
import tpc.sigma
from tpc.sigma import (
    Branch,
    GiveUp,
    _MAX_FIT_SAMPLES,
    _MAX_VERIFY_SAMPLES,
    _MULTI_EDGE,
    _MULTI_FIT,
    _MULTI_VERIFY,
    _PROBE_FIT_SAMPLES,
    _SCALAR_EDGE,
    _SCALAR_FIT,
    _SCALAR_VERIFY,
    _design,
    _fit_branch,
    _layout,
    _sample_grid,
    _verify_branch,
    check_layout,
    fresh_name,
    sigma,
)
from tpc.terms import apply_clause, parse_theory

from test_delta import _linear_theories, _template_schemes


def atoms_of(fn, branch=0):
    return fn.branches[branch].atoms


class TestWorkedForms:
    def test_single_strip_axiom(self):
        fn = sigma(load_theory("chain"), parse_scheme("a*"))
        assert len(fn.branches) == 1
        assert [d.kind for d in fn.branches[0].decls] == ["scalar"]
        assert str(fn) == "lambda n:N.EqualsLR([P(x)->x], [P(x)->x].[F(x)->x]^{n})"

    def test_double_strip_axiom(self):
        fn = sigma(load_theory("mod2"), parse_scheme("b*"))
        (atom,) = atoms_of(fn)
        n = AffineExpr.var("n")
        assert atom.right.segments[-1].count == n * 2

    def test_fixed_scheme_exponents(self):
        fn = sigma(load_theory("fg"), parse_scheme("a.b.a*.b"))
        a1, a2 = atoms_of(fn)
        n = AffineExpr.var("n")
        assert a1.right.segments[-1].count == n * 2 + 4
        assert a2.right.segments[-1].count == n + 3

    def test_two_star_scheme_exponents(self):
        fn = sigma(load_theory("fg"), parse_scheme("b*.a*"))
        a1, a2 = atoms_of(fn)
        n, k = AffineExpr.var("n"), AffineExpr.var("k")
        assert a1.right.segments[-1].count == n + k * 2
        assert a2.right.segments[-1].count == n + k

    def test_rotation_closure(self):
        fn = sigma(load_theory("rotate"), parse_scheme("(a*.b)*"))
        conj = atoms_of(fn)
        assert [type(a).__name__ for a in conj] == ["EqualsLR", "EqualsLR", "IterGroup"]
        fixed1, fixed2, group = conj
        assert str(fixed1) == "EqualsLR([P(x, y)->x].[R(x, y)->x]^{m}, [P(x, y)->x])"
        assert str(fixed2) == "EqualsLR([P(x, y)->y], [P(x, y)->y].[R(x, y)->x]^{m})"
        assert group.itervar == "i"
        assert group.upper == AffineExpr.var("m")
        body = group.atom
        assert str(body.left) == "[P(x, y)->x].[R(x, y)->x]^{i - 1}.[R(x, y)->y]"
        m, i = AffineExpr.var("m"), AffineExpr.var("i")
        assert body.right.segments[1].count == m - i
        assert body.right.segments[-1].count == AffineExpr.element("m", i)

    def test_empty_scheme(self):
        fn = sigma(load_theory("chain"), parse_scheme("eps"))
        (atom,) = atoms_of(fn)
        assert isinstance(atom, EqualsLR)
        assert not atom.left.segments and not atom.right.segments

    def test_alternative_splits_into_branches(self):
        fn = sigma(load_theory("fg"), parse_scheme("b*.a*|a*"))
        assert len(fn.branches) == 2
        assert [d.name for d in fn.branches[0].decls] == ["n", "k"]
        assert [d.name for d in fn.branches[1].decls] == ["n"]

    def test_ground_producing_axioms(self):
        # p3: x -> And(Parent(Adam, John), x); its closure stacks one
        # ground left child per application
        anc = load_theory("ancestor")
        fn = sigma(anc, parse_scheme("p3*"))
        kinds = [type(a).__name__ for a in atoms_of(fn)]
        assert "IterGroup" in kinds


class TestNotLinearizable:
    def test_deep_nesting_rejected(self):
        anc = load_theory("ancestor")
        scheme = build_scheme([c.name for c in anc.axioms])
        with pytest.raises(NotLinearizable):
            sigma(anc, scheme)

    def test_sum_coupled_exponent_rejected(self):
        # (a*.b)* over the fg axioms needs the F exponent to track the sum
        # of all elements of the multi-index, which no affine feature gives
        fg = load_theory("fg")
        with pytest.raises(NotLinearizable):
            sigma(fg, parse_scheme("(a*.b)*"))


class TestSampling:
    GRIDS = (
        (_SCALAR_FIT, _MULTI_FIT, _MAX_FIT_SAMPLES),
        (_SCALAR_VERIFY, _MULTI_VERIFY, _MAX_VERIFY_SAMPLES),
        (_SCALAR_EDGE, _MULTI_EDGE, _MAX_VERIFY_SAMPLES),
        (_SCALAR_FIT, _MULTI_FIT, _PROBE_FIT_SAMPLES),
    )

    @staticmethod
    def assert_covers(decls, scalar_pool, multi_pool, cap):
        envs = _sample_grid(decls, scalar_pool, multi_pool, cap)
        combos = {tuple(env[d.name] for d in decls) for env in envs}
        assert len(combos) == len(envs) <= cap
        for d in decls:
            assert {env[d.name] for env in envs} == set(scalar_pool if d.kind == "scalar" else multi_pool)
        return envs

    def test_thinned_fit_grid_varies_every_variable(self):
        # a stride of 3 over these 11 * 3 * 11 * 3 fit combos kept k = 1 in
        # all 363 samples, so no fit could see k
        decls = []
        _layout(parse_scheme("(a*.b)*.a*.c.(a*.b)*.a*.c"), decls)
        assert [(d.name, d.kind) for d in decls] == [("m", "multi"), ("n", "scalar"), ("u", "multi"), ("k", "scalar")]
        assert len(self.assert_covers(decls, *self.GRIDS[0])) == 400
        assert len(self.assert_covers(decls, *self.GRIDS[1])) == 64

    @staticmethod
    def layouts(most):
        for n in range(most + 1):
            for kinds in itertools.product(("scalar", "multi"), repeat=n):
                yield [VarDecl(f"x{i}", kind) for i, kind in enumerate(kinds)]

    def test_every_small_layout_is_covered(self):
        for grid, most in zip(self.GRIDS, (5, 6, 6, 5)):
            for decls in self.layouts(most):
                if decls:
                    self.assert_covers(decls, *grid)

    @staticmethod
    def listed_grid(decls, scalar_pool, multi_pool, cap):
        # the grid as it was first written: list the whole product, then thin it
        pools = [scalar_pool if d.kind == "scalar" else multi_pool for d in decls]
        combos = list(itertools.product(*pools)) if decls else [()]
        if len(combos) > cap:
            stride = -(-len(combos) // cap)
            while math.gcd(stride, len(combos)) != 1:
                stride += 1
            combos = [combos[i * stride % len(combos)] for i in range(cap)]
        return [dict(zip((d.name for d in decls), combo)) for combo in combos]

    def test_decoded_grid_matches_the_listed_grid(self):
        for grid, most in zip(self.GRIDS, (4, 6, 6, 4)):
            for decls in self.layouts(most):
                got = _sample_grid(decls, *grid)
                want = self.listed_grid(decls, *grid)
                assert got == want
                assert [list(env) for env in got] == [list(env) for env in want]

    def test_wide_layout_does_not_list_the_product(self):
        # 11 ** 9 fit combinations of nine multi-indexes: listing them is
        # out of reach, decoding the 400 kept ones is not
        decls = [VarDecl(f"x{i}", "multi") for i in range(9)]
        envs = _sample_grid(decls, *self.GRIDS[0])
        assert len({tuple(env.values()) for env in envs}) == len(envs) == _MAX_FIT_SAMPLES

    def test_stops_at_the_first_empty_sample(self, monkeypatch):
        # a1 leaves an Ancestor atom on top, which a1 cannot take again
        composed = []
        reduce_specific = tpc.sigma.reduce_specific
        monkeypatch.setattr(
            tpc.sigma, "reduce_specific", lambda th, seq, prefix: composed.append(seq) or reduce_specific(th, seq, prefix)
        )
        with pytest.raises(NotLinearizable, match="an instance composes to the empty relation"):
            sigma(load_theory("ancestor"), parse_scheme("l1*.a1.a1"))
        assert composed == [["l1", "a1", "a1"]]


def sigma_inputs(run):
    """The (theory, scheme) of every branch sigma synthesizes while *run*
    runs, delta's sigma cache cleared first."""
    seen = {}
    synthesize = tpc.sigma._synthesize_branch

    def spy(theory, scheme):
        seen[theory, scheme] = None
        return synthesize(theory, scheme)

    delta._sigma_cached.cache_clear()
    with mock.patch.object(tpc.sigma, "_synthesize_branch", spy):
        run()
    return list(seen)


def outcome(fit):
    """The GiveUp *fit* returns, the str of the Branch it returns, or the
    type and message of the TpcError it raises."""
    try:
        got = fit()
    except TpcError as exc:
        return type(exc), str(exc)
    return got if isinstance(got, GiveUp) else str(got)


def full_grid_fit(theory, scheme):
    decls = []
    failure = _layout(scheme, decls)
    if failure is not None:
        return failure
    envs = _sample_grid(decls, _SCALAR_FIT, _MULTI_FIT, _MAX_FIT_SAMPLES)
    return _fit_branch(theory, scheme, tuple(decls), envs, [])


def assert_sub_grid_keeps_the_full_grid_outcome(inputs):
    """Each branch's fit, the sub-grid tried first, ends as the fit over
    the full fit grid alone does: the same unverified form or give-up
    record, decisiveness included.  Returns how many of *inputs* tried the
    sub-grid."""
    probed = 0
    fit_branch = tpc.sigma._fit_branch

    def counted(theory, scheme, decls, envs, prefix):
        nonlocal probed
        # no fit grid, a product of pool sizes 3 and 11, has 40 samples
        probed += len(envs) == _PROBE_FIT_SAMPLES
        return fit_branch(theory, scheme, decls, envs, prefix)

    with mock.patch.object(tpc.sigma, "_verify_branch", lambda *args: None):
        with mock.patch.object(tpc.sigma, "_fit_branch", counted):
            got = [outcome(lambda: tpc.sigma._synthesize_branch(th, scheme)) for th, scheme in inputs]
    for (theory, scheme), form in zip(inputs, got):
        assert form == outcome(lambda: full_grid_fit(theory, scheme)), scheme
    return probed


class TestSubGrid:
    @pytest.mark.parametrize("name, text, message", [
        ("rotate3", "a*.b.a*.c.(a*.b)*.a*.c", "repetition counts are not affine in the index"),
        ("ancestor", "p1*.p2.p1*.p3.(p1*.p2)*.p1*.p3", "family size is not affine in the index"),
    ])
    def test_gives_up_within_the_sub_grid(self, monkeypatch, name, text, message):
        # both fit grids have 3 * 3 * 11 * 3 = 297 samples
        composed = []
        reduce_specific = tpc.sigma.reduce_specific
        monkeypatch.setattr(
            tpc.sigma, "reduce_specific", lambda th, seq, prefix: composed.append(seq) or reduce_specific(th, seq, prefix)
        )
        with pytest.raises(NotLinearizable) as info:
            sigma(load_theory(name), parse_scheme(text))
        assert str(info.value) == f"{message}: {text}"
        assert len(composed) <= _PROBE_FIT_SAMPLES

    def test_rank_deficient_sub_grid_falls_through(self, monkeypatch):
        # four samples of four scalar counts cannot pin five base
        # coefficients, so a fit that fails on them may still exist over
        # all 81: the full grid must decide
        th = parse_theory("start: P(Z, Z)\na: P(x, y) -> P(F(F(x)), G(y))\nb: P(x, y) -> P(F(x), G(y))")
        scheme = parse_scheme("a*.b*.a*.b*")
        monkeypatch.setattr(tpc.sigma, "_PROBE_FIT_SAMPLES", _MAX_FIT_SAMPLES)
        want = str(sigma(th, scheme))
        monkeypatch.setattr(tpc.sigma, "_PROBE_FIT_SAMPLES", 4)
        decls = []
        _layout(scheme, decls)
        got = _fit_branch(th, scheme, tuple(decls), _sample_grid(decls, _SCALAR_FIT, _MULTI_FIT, 4), [])
        assert got == GiveUp("repetition counts are not affine in the index", scheme, decisive=False)
        assert not got.decisive
        assert str(sigma(th, scheme)) == want

    def test_bundled_pipelines_keep_the_full_grid_outcome(self):
        def run():
            for name in ("chain", "fg", "mod2", "rotate", "rotate3", "ancestor"):
                try:
                    pipeline(load_theory(name), selfcheck=False)
                except TpcError:
                    pass

        assert assert_sub_grid_keeps_the_full_grid_outcome(sigma_inputs(run)) >= 2

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_linear_theories())
    def test_generated_theories_keep_the_full_grid_outcome(self, text):
        th = parse_theory(text)
        inputs = sigma_inputs(lambda: [reduce_scheme(th, scheme) for scheme in _template_schemes(th)])
        # and schemes whose fit grids, of 81 and 121 samples, are large
        # enough to try the sub-grid first
        inputs += [(th, scheme) for scheme in _template_schemes(th, ("{a}*.{b}*.{a}*.{b}*", "({a}*.{b})*.({b}*.{a})*"))]
        assert assert_sub_grid_keeps_the_full_grid_outcome(inputs) >= 2


# _layout and _build_index as they were when sigma wrote out the layout rule
# for itself as an index spec, kept as the reference for index_of.  Its
# own shape rule counts the nodes of a star's body: no star and no choice
# is a count, a single star and no choice a tuple of counts


def _ref_nodes(e):
    yield e
    for p in (e.body,) if isinstance(e, Star) else getattr(e, "parts", ()):
        yield from _ref_nodes(p)


def _ref_layout(e, decls):
    if isinstance(e, (Axiom, Eps)):
        return ("unit",)
    if isinstance(e, Star):
        nested = [x for x in _ref_nodes(e.body) if isinstance(x, (Star, Alt))]
        if not nested:
            name = fresh_name({d.name for d in decls}, "scalar")
            decls.append(VarDecl(name, "scalar"))
            return ("scalar", name)
        if len(nested) == 1 and isinstance(nested[0], Star):
            name = fresh_name({d.name for d in decls}, "multi")
            decls.append(VarDecl(name, "multi"))
            return ("multi", name)
        raise NotLinearizable("index nesting too deep to lay out", e)
    if isinstance(e, Dot):
        subs = [_ref_layout(p, decls) for p in e.parts]
        nonunit = tuple(s for s in subs if s != ("unit",))
        if not nonunit:
            return ("unit",)
        return nonunit[0] if len(nonunit) == 1 else ("tuple", nonunit)
    raise NotLinearizable("alternatives must be at the top level", e)


def _ref_build_index(spec, env):
    tag = spec[0]
    if tag == "unit":
        return ()
    if tag == "scalar":
        return env[spec[1]]
    if tag == "multi":
        return tuple(env[spec[1]])
    return tuple(_ref_build_index(s, env) for s in spec[1])


class TestLayout:
    @pytest.mark.parametrize("text", [
        "eps",
        "a.b",
        "a*",
        "a.b.a*.b",
        "b*.a*",
        "(a*.b)*",
        "a.(a*.b)*.b",
        "(a*)*",
        "(a*.b)*.a*",
        "((a.b)*.c)*.a.b*",
        "a.(b.a*)*.c.b*.(a.c)*",
        "(a*.b)*.a*.c.(a*.b)*.a*.c",
    ])
    def test_index_of_matches_the_builder_spec(self, text):
        scheme = parse_scheme(text)
        decls, want_decls = [], []
        assert _layout(scheme, decls) is None
        spec = _ref_layout(scheme, want_decls)
        assert decls == want_decls
        branch = Branch(scheme, tuple(decls), ())
        for grid in TestSampling.GRIDS:
            for env in _sample_grid(branch.decls, *grid):
                assert branch.index_of(env) == _ref_build_index(spec, env)

    @pytest.mark.parametrize("text", ["(a*.b*)*", "((a*.b)*.a)*", "(a|b)*", "a*.(b|a*)", "a.(b*.c|a)*"])
    def test_rejections_match(self, text):
        scheme = parse_scheme(text)
        with pytest.raises(NotLinearizable) as want:
            _ref_layout(scheme, [])
        assert str(_layout(scheme, []).error()) == str(want.value)
        with pytest.raises(NotLinearizable) as raised:
            check_layout(scheme)
        assert str(raised.value) == str(want.value)


class TestHeldOutVerification:
    """Held-out verification rejects a form that differs from the samples
    in a single count or a single atom class."""

    @staticmethod
    def verify(theory, branch, conjuncts):
        envs = _sample_grid(branch.decls, _SCALAR_VERIFY, _MULTI_VERIFY, _MAX_VERIFY_SAMPLES)
        changed = dataclasses.replace(branch, atoms=tuple(conjuncts))
        failure = _verify_branch(theory, changed, envs, [])
        if failure is not None:
            raise failure.error()

    def test_off_by_one_count_is_rejected(self):
        fg = load_theory("fg")
        (branch,) = sigma(fg, parse_scheme("a*")).branches
        first, second = branch.atoms
        *head, last = first.right.segments
        assert last.count == AffineExpr.var("n") * 2
        self.verify(fg, branch, (first, second))
        wrong = SymbolicPath((*head, Segment(last.step, last.count + 1)))
        with pytest.raises(NotLinearizable, match="held-out"):
            self.verify(fg, branch, (first.with_paths(first.left, wrong), second))

    def test_ground_side_is_checked(self):
        anc = load_theory("ancestor")
        (branch,) = sigma(anc, parse_scheme("p3*")).branches
        conj = list(branch.atoms)
        assert [type(a) for a in conj] == [EqualsLR, GroundR, IterGroup]
        self.verify(anc, branch, conj)
        conj[1] = GroundL(conj[1].path, conj[1].template)
        with pytest.raises(NotLinearizable, match="held-out"):
            self.verify(anc, branch, conj)

    GIVE_UPS = [
        # verification, after the full fit
        ("rotate", "(a*.b)*.a*", "fitted form failed held-out verification"),
        # the layout: rotate3's last pipeline scheme
        ("rotate3", "((a*.b)*.a*.c)*.(a*.b)*.a*", "index nesting too deep to lay out"),
        # the sub-grid
        ("rotate3", "a*.b.a*.c.(a*.b)*.a*.c", "repetition counts are not affine in the index"),
        # a second alternative, after a first one that holds
        ("rotate", "a*|(a*.b)*.a*", "fitted form failed held-out verification"),
    ]

    def test_a_give_up_keeps_no_synthesis_frame(self):
        # a caller that keeps the exception keeps every frame on its
        # traceback alive, and one that a frame holds in turn is freed only
        # by the cycle collector
        for name, text, message in self.GIVE_UPS:
            gc.collect()
            gc.disable()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                try:
                    sigma(load_theory(name), parse_scheme(text))
                except NotLinearizable as exc:
                    assert str(exc).startswith(message)
                    frames = [frame for frame, _ in traceback.walk_tb(exc.__traceback__)]
                gc.collect()
                cyclic = {type(o).__name__ for o in gc.garbage}
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                gc.enable()
            assert [frame.f_code.co_name for frame in frames[1:]] == ["sigma"], text
            # nor the branches synthesized before the give-up
            assert not any(isinstance(value, (Branch, list)) for value in frames[1].f_locals.values()), text
            assert not cyclic & {"frame", "traceback", "NotLinearizable"}, text


class TestBoundary:
    """A form must also hold at zero counts, which the fit and held-out
    pools never sample."""

    # a erases its argument, so b.a^n.b ends in F(R(Z, Z)) for n >= 1 but
    # in F(F(x)) for n = 0
    ERASING = parse_theory("start: P(Z)\na: P(x) -> P(R(Z, Z))\nb: P(x) -> P(F(x))")

    @pytest.mark.parametrize("text", ["b.a*.b", "a*.b", "(a*.b)*"])
    def test_form_wrong_at_zero_is_rejected(self, text):
        with pytest.raises(NotLinearizable, match="held-out verification"):
            sigma(self.ERASING, parse_scheme(text))

    FORMS = {
        ("chain", "a*"): "lambda n:N.EqualsLR([P(x)->x], [P(x)->x].[F(x)->x]^{n})",
        ("fg", "b*.a*"): "lambda n:N.lambda k:N.Intersect(EqualsLR([P(x, y)->x], [P(x, y)->x].[F(x)->x]^{2k + n}), "
                         "EqualsLR([P(x, y)->y], [P(x, y)->y].[G(x)->x]^{k + n}))",
        ("fg", "a.b.a*.b"): "lambda n:N.Intersect(EqualsLR([P(x, y)->x], [P(x, y)->x].[F(x)->x]^{2n + 4}), "
                            "EqualsLR([P(x, y)->y], [P(x, y)->y].[G(x)->x]^{n + 3}))",
        ("mod2", "a*.b"): "lambda n:N.EqualsLR([P(x)->x], [P(x)->x].[F(x)->x]^{n + 2})",
        ("ancestor", "p3*"): "lambda n:N.Intersect(EqualsLR([x->x], [And(x, y)->y]^{n}), "
                             "GroundR([And(x, y)->x], Parent(Peter, Olga)), "
                             "IterIntersect(lambda i:N. GroundR([And(x, y)->y]^{i}.[And(x, y)->x], Parent(Peter, Olga)), 1, n - 1))",
    }

    @pytest.mark.parametrize("name, text", list(FORMS))
    def test_forms_that_hold_at_zero_are_unchanged(self, name, text):
        assert str(sigma(load_theory(name), parse_scheme(text))) == self.FORMS[name, text]


def env_grid(decls, scalars, multis):
    pools = [scalars if d.kind == "scalar" else multis for d in decls]
    for combo in itertools.product(*pools):
        yield dict(zip((d.name for d in decls), combo))


AGREEMENT_CASES = [
    ("chain", "a*", (0, 1, 2)),
    ("mod2", "a*.b", (0, 1, 2)),
    ("fg", "b*.a*", (0, 1, 2)),
    ("fg", "a.b.a*.b", (0, 1, 2)),
    ("rotate", "(a*.b)*", (0, 1, 2)),
]


@pytest.mark.parametrize("theory_name,scheme_text,scalars", AGREEMENT_CASES, ids=lambda v: str(v))
def test_charfn_agrees_with_reduction(theory_name, scheme_text, scalars):
    """On every sampled index, the atoms hold for (t, d) exactly when the
    reduced instance clause rewrites t to d, for all reachable t and
    candidate d."""
    th = load_theory(theory_name)
    scheme = parse_scheme(scheme_text)
    fn = sigma(th, scheme)
    (branch,) = fn.branches
    trees = reachable_set(th, th.start, SearchBudget(max_depth=4, max_tree_size=24))
    envs = list(env_grid(branch.decls, scalars, ((), (2,), (1, 2), (2, 0, 1))))
    mismatches = 0
    for env in envs:
        clause = reduce_specific(th, instantiate(scheme, branch.index_of(env)))
        for t in trees:
            d = apply_clause(clause, t) if clause is not None else None
            for cand in trees:
                holds = eval_atomset(branch.atoms, env, t, cand)
                rewrites = d is not None and cand == d
                if holds != rewrites:
                    mismatches += 1
    assert mismatches == 0


# ---------------------------------------------------------------------------
# the fit over a design agrees with reducing each count's system afresh


def reference_fit(observations, features):
    """One augmented system per count column, row-reduced from scratch:
    the fitted AffineExpr (free coefficients zero) or None when no
    integral fit exists."""
    rows = []
    try:
        for env, count in observations:
            row = {None: -count}
            for col, f in enumerate(features):
                v = f.evaluate(env)
                if v:
                    row[col] = v
            rows.append(row)
    except (IndexError, KeyError):
        return None
    solved, rest = reduce_rows(rows, range(len(features)))
    if any(nums[None] for nums, _ in rest):
        return None
    expr = AffineExpr.const_(0)
    for col, f in enumerate(features):
        b = Fraction(solved[col][0][None], solved[col][1]) if col in solved else 0
        if b.denominator != 1:
            return None
        expr = expr + f * int(b)
    return expr


N, K, M, I = (AffineExpr.var(v) for v in "nkmi")
FEATURE_POOL = [
    ONE,
    N,
    K,
    M,
    N * 2,  # with an odd count, a half coefficient
    N + K,  # dependent on n and k
    ONE * 2,
    AffineExpr.const_(0),  # a zero column
    I,
    AffineExpr.element("m", I),
    AffineExpr.element("m", M + 1 - I),
    AffineExpr.element("m", I + 1),  # out of range at i = len(m)
]

envs_st = st.lists(
    st.fixed_dictionaries({
        "n": st.integers(0, 3),
        "k": st.integers(0, 3),
        "m": st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
        "i": st.integers(1, 3),
    }).map(lambda env: {**env, "i": min(env["i"], len(env["m"]))}),
    min_size=1,
    max_size=8,
)


@st.composite
def count_columns(draw, envs, features):
    """Count columns over *envs*: exact affine combinations of the features
    (integral or half-integral coefficients, floored), some perturbed in
    one row, and arbitrary ones."""
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["affine", "perturbed", "arbitrary"]))
        if kind == "arbitrary":
            columns.append(draw(st.lists(st.integers(-3, 6), min_size=len(envs), max_size=len(envs))))
            continue
        coeffs = [Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 1, 2]))) for _ in features]
        try:
            column = [int(sum(c * f.evaluate(env) for c, f in zip(coeffs, features)) // 1) for env in envs]
        except (IndexError, KeyError):
            column = [0] * len(envs)
        if kind == "perturbed":
            column[draw(st.integers(0, len(envs) - 1))] += 1
        columns.append(column)
    return columns


@st.composite
def designs(draw):
    envs = draw(envs_st)
    features = draw(st.lists(st.sampled_from(FEATURE_POOL), min_size=1, max_size=5))
    return envs, features, draw(count_columns(envs, features))


N_ENVS = [{"n": n, "k": 0, "m": (1,), "i": 1} for n in range(4)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(designs())
# rank-deficient: a duplicate and a zero column
@example((N_ENVS, [ONE, N, N, AffineExpr.const_(0)], [[2 * n + 1 for n in range(4)]]))
# inconsistent: not affine in n
@example((N_ENVS, [ONE, N], [[n * n for n in range(4)]]))
# non-integral: count n over the feature 2n
@example((N_ENVS, [N * 2], [[n for n in range(4)]]))
# an element selector out of range
@example(([{"m": (1, 2), "i": 2}], [AffineExpr.element("m", I + 1)], [[1]]))
def test_design_fit_matches_reference(case):
    envs, features, columns = case
    fit, _ = _design(envs, features)
    for counts in columns:
        assert fit(counts) == reference_fit(list(zip(envs, counts)), features)


class TestDesignFit:
    def test_rank_deficient_takes_the_first_pivot(self):
        fit, decisive = _design(N_ENVS, [ONE, N, N, AffineExpr.const_(0)])
        assert fit([2 * n + 1 for n in range(4)]) == N * 2 + 1
        assert not decisive

    def test_inconsistent_counts_have_no_fit(self):
        fit, decisive = _design(N_ENVS, [ONE, N])
        assert fit([n * n for n in range(4)]) is None
        assert decisive

    def test_non_integral_solution_has_no_fit(self):
        fit, _ = _design(N_ENVS, [N * 2])
        assert fit([n for n in range(4)]) is None
        assert fit([4 * n for n in range(4)]) == N * 4

    def test_selector_out_of_range_has_no_fit(self):
        fit, decisive = _design([{"m": (1, 2), "i": 2}], [AffineExpr.element("m", I + 1)])
        assert fit([1]) is None
        assert decisive
