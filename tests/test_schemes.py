import gc
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from tpc import (
    EPS,
    Alt,
    Axiom,
    Dot,
    Star,
    build_scheme,
    instantiate,
    load_theory,
    parse_scheme,
    parse_term,
    parse_theory,
    print_scheme,
    reduce_specific,
)
import tpc.schemes
from tpc.errors import ShapeError, TheorySyntaxError
from tpc.paths import split_axiom
from tpc.schemes import PRINT_CHARS, PRINT_DEPTH, PRINT_ITEMS, Eps, index_from_stars, print_index
from tpc.sigma import sigma
from tpc.terms import IDENTITY, Clause, Var, _rebuild, compose_clauses, free_vars

from conftest import same_relation, sequences, substitute

AB_STAR = parse_scheme("(a*.b)*.a*")


class TestCoerce:
    """instantiate checks a raw index against the layout as it walks it."""

    def test_nat_index_canonicalizes(self):
        # counts and lists of unit indexes select the same sequence
        canonical = ((((), ()), (), ((),)), ((), (), ()))
        assert instantiate(AB_STAR, ((2, 0, 1), 3)) == instantiate(AB_STAR, canonical)

    def test_nat_becomes_unit_list(self):
        assert instantiate(parse_scheme("a*"), 0) == []
        assert instantiate(parse_scheme("(a.b)*"), 3) == ["a", "b"] * 3
        assert instantiate(parse_scheme("(a.b)*"), (0, (), [])) == ["a", "b"] * 3

    @pytest.mark.parametrize("scheme,index", [
        ("a*", -2),
        ("a.b*", -1),
        ("(a*.b)*", (1, -1)),
        ("(a*.b)*.a*", ((2,), -3)),
        ("a*|b", (1, -1)),
    ])
    def test_negative_count_is_rejected(self, scheme, index):
        # a negative count once read as zero repetitions
        with pytest.raises(ShapeError, match="a count cannot be negative, got -"):
            instantiate(parse_scheme(scheme), index)

    def test_choice_needs_two_components(self):
        with pytest.raises(ShapeError, match="a choice index must have length 2"):
            instantiate(parse_scheme("a|b"), (5,))

    @pytest.mark.parametrize("scheme,index,message,path", [
        ("a.b", 1, "expected a unit index, got 1", ()),
        ("a*", (0, 2), "expected a unit index, got 2", (2,)),
        ("(a*.b)*", 2, "a plain number cannot stand for a list of structured indexes", ()),
        ("a*.b*", (3, "x" * 50), "expected a list or number, got '" + "x" * (PRINT_CHARS - 1) + "...", (2,)),
        ("(a*.b)*.a*", ((1, 2),), "expected 2 index components, got {{1, 2}}", ()),
        ("(a*.b*.c)*", ((1, 2), (1, 2, 3)), "expected 2 index components, got {1, 2, 3}", (2,)),
        ("a*|b", (3, ()), "branch selector 3 out of range", ()),
        ("c.(a*|b)*", ((2, ()), (0, 1)), "branch selector 0 out of range", (2,)),
        ("a|b*", (2, -1), "a count cannot be negative, got -1", (2,)),
        ("(a|b)*", ((1, ()), [1]), "a choice index must have length 2", (2,)),
    ])
    def test_shape_errors_name_their_position(self, scheme, index, message, path):
        with pytest.raises(ShapeError) as exc:
            instantiate(parse_scheme(scheme), index)
        assert exc.value.path == path
        where = "/".join(map(str, path)) or "root"
        assert str(exc.value) == f"{message} (at index position {where})"

    @pytest.mark.parametrize("scheme,index,want", [
        # values that are not indexes once escaped as TypeError, or as
        # RecursionError from printing a string
        ("a*", None, ShapeError("expected a list or number, got None")),
        ("a*", 1.5, ShapeError("expected a list or number, got 1.5")),
        ("a*.b*", (None, 2), ShapeError("expected a list or number, got None", (1,))),
        ("a", "x", ShapeError("expected a unit index, got 'x'")),
        ("a*", "ab", ShapeError("expected a list or number, got 'ab'")),
        ("a.b", [None, 1.5], ShapeError("expected a unit index, got {None, 1.5}")),
        ("a*.b*", 1.5, ShapeError("expected 2 index components, got 1.5")),
        # what instantiated, or raised a ShapeError, still does
        ("a*", True, ["a"]),
        ("(a.b)*.a*", ([0, ()], 2), ["a", "b", "a", "b", "a", "a"]),
        ("(a|b)*", [(2, ()), (1, 0)], ["b", "a"]),
        # a list serves wherever a tuple does, also at a choice and a unit part
        ("a*|b", [1, 2], ["a", "a"]),
        ("a.b", [], ["a", "b"]),
    ])
    def test_only_shape_errors_escape(self, scheme, index, want):
        if isinstance(want, list):
            assert instantiate(parse_scheme(scheme), index) == want
            return
        with pytest.raises(ShapeError) as exc:
            instantiate(parse_scheme(scheme), index)
        assert (str(exc.value), exc.value.path) == (str(want), want.path)

    @pytest.mark.parametrize("scheme,index,path", [
        # an iterable that is not a tuple or a list is not an index, also at a star
        ("a*", "", ()),
        ("a*", range(3), ()),
        ("a*", {1: 2}, ()),
        ("(a|b)*", "ab", ()),
        ("a*.b*", (2, b"ab"), (2,)),
    ])
    def test_only_tuples_and_lists_hold_indexes(self, scheme, index, path):
        with pytest.raises(ShapeError, match="expected a list or number, got ") as exc:
            instantiate(parse_scheme(scheme), index)
        assert exc.value.path == path

    def test_lists_serve_as_tuples(self):
        assert instantiate(parse_scheme("a*.b*"), [1, [0, []]]) == ["a", "b", "b"]
        assert instantiate(parse_scheme("(a|b)*"), [[2, []], [1, 0]]) == ["b", "a"]

    def test_printed_index_is_bounded(self):
        # a value deeper than PRINT_DEPTH or longer than PRINT_ITEMS prints cut
        deep = ()
        for _ in range(3000):
            deep = (deep,)
        with pytest.raises(ShapeError) as exc:
            instantiate(parse_scheme("a.b"), deep)
        nest = "{" * PRINT_DEPTH + "..." + "}" * PRINT_DEPTH
        assert str(exc.value) == f"expected a unit index, got {nest} (at index position root)"
        with pytest.raises(ShapeError) as exc:
            instantiate(parse_scheme("a.b"), list(range(200000)))
        items = ", ".join(map(str, range(PRINT_ITEMS)))
        assert str(exc.value) == f"expected a unit index, got {{{items}, ...}} (at index position root)"

    def test_a_long_value_prints_cut(self):
        # a value's text once went into the message whole
        with pytest.raises(ShapeError) as exc:
            instantiate(parse_scheme("a"), "x" * 10**6)
        cut = "'" + "x" * (PRINT_CHARS - 1) + "..."
        assert str(exc.value) == f"expected a unit index, got {cut} (at index position root)"

    def test_many_long_values_print_cut(self):
        with pytest.raises(ShapeError) as exc:
            instantiate(parse_scheme("a"), ["x" * 1000] * 100)
        items = ", ".join(["'" + "x" * (PRINT_CHARS - 1) + "..."] * 100)
        assert str(exc.value) == f"expected a unit index, got {{{items}}} (at index position root)"

    def test_an_int_too_long_to_print_prints_its_size(self):
        # repr refuses an int of over 4300 digits, which escaped as ValueError
        with pytest.raises(ShapeError) as exc:
            instantiate(parse_scheme("a"), 10**5000)
        assert str(exc.value) == "expected a unit index, got <int of 16610 bits> (at index position root)"
        with pytest.raises(ShapeError) as exc:
            instantiate(parse_scheme("a*"), -(10**5000))
        assert str(exc.value) == "a count cannot be negative, got <int of 16610 bits> (at index position root)"

    def test_a_count_too_large_to_repeat_is_a_shape_error(self):
        # repeating a star body 10**20 times escaped as OverflowError
        with pytest.raises(ShapeError) as exc:
            instantiate(parse_scheme("a*"), 10**20)
        assert str(exc.value) == "a count too large to repeat, got 100000000000000000000 (at index position root)"
        with pytest.raises(ShapeError) as exc:
            instantiate(parse_scheme("a*.b*"), (1, 10**20))
        assert exc.value.path == (2,)
        # a count that fits an index but not memory escaped as MemoryError
        with pytest.raises(ShapeError) as exc:
            instantiate(parse_scheme("a*"), 2**61)
        assert str(exc.value) == f"a count too large to repeat, got {2**61} (at index position root)"

    def test_count_on_a_plain_body_instantiates_it_once(self, monkeypatch):
        calls = []
        walk = tpc.schemes._instantiate
        monkeypatch.setattr(tpc.schemes, "_instantiate", lambda *args: calls.append(1) or walk(*args))
        assert instantiate(parse_scheme("b*.a*"), (32000, 32000)) == ["b"] * 32000 + ["a"] * 32000
        # the sequence, each star and each body once, not once per repetition
        assert len(calls) == 5


class TestInstantiate:
    def test_worked_sequence(self):
        got = instantiate(AB_STAR, ((2, 0, 1), 3))
        assert got == ["a", "a", "b", "b", "a", "b", "a", "a", "a"]

    def test_star_at_zero_is_epsilon(self):
        assert instantiate(parse_scheme("a*"), 0) == []

    def test_leading_axioms_consume_nothing(self):
        assert instantiate(parse_scheme("a.b.a*.b"), 2) == ["a", "b", "a", "a", "b"]

    def test_index_from_star_values(self):
        index = index_from_stars(AB_STAR, [(2, 0, 1), 3])
        assert index == ((2, 0, 1), 3)
        assert instantiate(AB_STAR, index) == ["a", "a", "b", "b", "a", "b", "a", "a", "a"]
        assert index_from_stars(parse_scheme("a.b.a*.b"), [2]) == 2
        assert index_from_stars(parse_scheme("a.b"), []) == ()

    def test_alt_branch_selection(self):
        e = parse_scheme("a*|b")
        assert instantiate(e, (1, 2)) == ["a", "a"]
        assert instantiate(e, (2, ())) == ["b"]


# _instantiate and _gen_exact as they were when each wrote out the layout
# rule for itself, kept as the reference for the shared one; a part takes
# no index when it holds no star and no choice


def _ref_min_length(e):
    if isinstance(e, Axiom):
        return 1
    if isinstance(e, (Eps, Star)):
        return 0
    if isinstance(e, Dot):
        return sum(map(_ref_min_length, e.parts))
    return min(map(_ref_min_length, e.parts))


def _ref_unit(e):
    if isinstance(e, (Axiom, Eps)):
        return True
    return isinstance(e, Dot) and all(map(_ref_unit, e.parts))


def _ref_instantiate(e, c):
    if isinstance(e, Axiom):
        return [e.name]
    if isinstance(e, Eps):
        return []
    if isinstance(e, Star):
        return [name for elem in c for name in _ref_instantiate(e.body, elem)]
    if isinstance(e, Dot):
        nonunit = [p for p in e.parts if not _ref_unit(p)]
        components = ([c] if nonunit else []) if len(nonunit) <= 1 else list(c)
        out = []
        k = 0
        for p in e.parts:
            if _ref_unit(p):
                out.extend(_ref_instantiate(p, ()))
            else:
                out.extend(_ref_instantiate(p, components[k]))
                k += 1
        return out
    branch, sub = c
    return _ref_instantiate(e.parts[branch - 1], sub)


def _ref_gen_exact(e, L):
    if isinstance(e, Axiom):
        if L == 1:
            yield ()
        return
    if isinstance(e, Eps):
        if L == 0:
            yield ()
        return
    if isinstance(e, Star):
        lo = _ref_min_length(e.body)
        max_reps = L // lo if lo > 0 else L

        def go(remaining, reps_left):
            if remaining == 0:
                yield ()
            if reps_left == 0:
                return
            for first_len in range(lo, remaining + 1):
                for head in _ref_gen_exact(e.body, first_len):
                    for tail in go(remaining - first_len, reps_left - 1):
                        yield (head,) + tail

        yield from go(L, max_reps)
        return
    if isinstance(e, Dot):
        units = [_ref_unit(p) for p in e.parts]

        def go(i, remaining):
            if i == len(e.parts):
                if remaining == 0:
                    yield ()
                return
            for here in range(_ref_min_length(e.parts[i]), remaining + 1):
                for idx in _ref_gen_exact(e.parts[i], here):
                    for rest in go(i + 1, remaining - here):
                        yield rest if units[i] else (idx,) + rest

        nonunit_count = units.count(False)
        for combo in go(0, L):
            yield () if nonunit_count == 0 else combo[0] if nonunit_count == 1 else combo
        return
    for b, p in enumerate(e.parts, start=1):
        for idx in _ref_gen_exact(p, L):
            yield (b, idx)


def _raw_schemes(depth):
    """Schemes over a, b and eps of nesting depth <= *depth*, built without
    the flattening constructors, so a sequence may hold eps, a nested
    sequence or a single part that takes an index."""
    leaves = st.sampled_from([Axiom("a"), Axiom("b"), EPS])
    if depth == 0:
        return leaves
    sub = _raw_schemes(depth - 1)
    parts = st.lists(sub, min_size=2, max_size=3).map(tuple)
    return st.one_of(leaves, sub.map(Star), parts.map(Dot), parts.map(Alt))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_raw_schemes(3))
@example(parse_scheme("(a*.b)*.a*"))
@example(Dot((EPS, Star(Axiom("a")), Axiom("b"))))  # one part takes an index
@example(Star(Dot((Axiom("a"), Dot((EPS, Axiom("b")))))))  # a star over parts that take none
@example(Dot((Alt((Axiom("a"), Star(EPS))), Star(Dot((Star(Axiom("b")), Axiom("a")))))))
def test_layout_matches_the_per_function_rule(e):
    want = set()
    for idx in {idx for L in range(5) for idx in _ref_gen_exact(e, L)}:
        seq = _ref_instantiate(e, idx)
        assert instantiate(e, idx) == seq
        want.add(tuple(seq))
    # the helper lists the same sequences as the reference's indexes
    assert sequences(e, 4) == want


class TestBuildScheme:
    def test_three_axioms(self):
        assert print_scheme(build_scheme(["a", "b", "c"])) == "((a*.b)*.a*.c)*.(a*.b)*.a*"

    def test_one_axiom(self):
        assert build_scheme(["a"]) == Star(Axiom("a"))

    def test_two_axioms(self):
        assert print_scheme(build_scheme(["a", "b"])) == "(a*.b)*.a*"


def test_printing_and_indexing_leave_no_cycles():
    # sigma indexes every sample it takes; a recursive closure made per
    # call would be a cycle that only the collector frees
    schemes = [
        build_scheme([ax.name for ax in load_theory(name).axioms])
        for name in ("chain", "fg", "mod2", "rotate", "rotate3", "ancestor")
    ]
    gc.collect()
    gc.disable()
    try:
        ab = parse_scheme("a.b")
        texts = [print_scheme(e) for e in schemes]
        indexes = [index_from_stars(e, range(10)) for e in schemes]
        printed = [print_index(m) for m in indexes + [((1, 2), (3,))] * 10]
        # every ShapeError message prints its index, this one cut
        try:
            instantiate(ab, [list(range(60))] * 2)
        except ShapeError as exc:
            message = str(exc)
        freed = gc.collect()
    finally:
        gc.enable()
    assert texts[4] == "((a*.b)*.a*.c)*.(a*.b)*.a*" and indexes[4] == (0, 1, 2)
    assert printed[4] == "{0, 1, 2}" and printed[-1] == "{{1, 2}, {3}}"
    # PRINT_ITEMS items: the two lists, then 60 and 38 of their elements
    assert ", 59}, {0, 1, " in message and message.endswith(", 37, ...}} (at index position root)")
    assert freed == 0


class TestEnumerate:
    """The axiom sequences of a scheme, listed by the ``sequences`` helper."""

    def test_build_scheme_covers_all_sequences(self):
        # the (alpha.a_n)*.alpha construction spans the whole proof space
        for axioms in (["a"], ["a", "b"], ["a", "b", "c"]):
            scheme = build_scheme(axioms)
            for budget in range(4 if len(axioms) < 3 else 3):
                got = sequences(scheme, budget)
                want = set()
                seq = [()]
                for _ in range(budget + 1):
                    want.update(seq)
                    seq = [s + (a,) for s in seq for a in axioms]
                assert got == want


class TestReduceSpecific:
    def test_fg_sequence(self):
        th = load_theory("fg")
        got = reduce_specific(th, ["b", "a"])
        want = Clause("", parse_term("P(x, y)"), parse_term("P(F(F(F(x))), G(G(y)))"))
        assert same_relation(got, want)
        assert same_relation(got, reduce_specific(th, ["a", "b"]))

    def test_empty_sequence_is_identity(self):
        th = load_theory("fg")
        got = reduce_specific(th, [])
        assert same_relation(got, Clause("", parse_term("x"), parse_term("x")))

    def test_l1_twice(self):
        th = load_theory("ancestor")
        got = reduce_specific(th, ["l1", "l1"])
        assert same_relation(got, Clause("", parse_term("And(And(x, y), z)"), parse_term("x")))

    def test_shared_prefix_state_matches_fresh_folds(self):
        th = load_theory("ancestor")
        long = ("p3", "a1", "p2", "a2", "p1", "a2", "l1")
        calls = [
            long,
            long[:4],  # a proper prefix
            long[:3] + ("p1", "l2", "l2"),  # diverges mid-way
            (),
            ("a1", "a1"),  # the empty relation
            ("a1", "a1", "a2"),
        ]
        state = []
        for seq in calls:
            got = reduce_specific(th, seq, state)
            want = reduce_specific(th, seq)
            if want is None:
                assert got is None
            else:
                assert same_relation(got, want)
            assert len(state) <= len(seq) + 1
        assert reduce_specific(th, ("a1", "a1")) is None
        assert same_relation(
            reduce_specific(th, long, state), Clause("", parse_term("x"), parse_term("Ancestor(Adam, Olga)"))
        )
        assert len(state) == len(long) + 1

    def test_deep_chain_is_iterative(self):
        # far past the recursion limit: composing, renaming and splitting
        # all walk the clause iteratively, in time linear in its size
        start = time.perf_counter()
        got = reduce_specific(load_theory("chain"), ["a"] * 3000)
        assert got.rhs.size == 3002
        assert got == compose_clauses(got)
        (atom,) = split_axiom(got)
        assert str(atom) == "EqualsLR([P(x)->x], [P(x)->x].[F(x)->x]^3000)"
        # a fold that walked the whole clause at every step took about 6 s
        assert time.perf_counter() - start < 3


# The fold as it was before it kept one substitution: one compose_clauses
# per step, which renames the next axiom apart with a prime, unifies with a
# full occurs check and resolves and renames the whole clause.


def _stepwise_unify(a, b):
    subst = {}

    def walk(t):
        while isinstance(t, Var) and t.name in subst:
            t = subst[t.name]
        return t

    def occurs(name, t):
        stack = [t]
        while stack:
            node = walk(stack.pop())
            if isinstance(node, Var):
                if node.name == name:
                    return True
            else:
                stack.extend(node.children)
        return False

    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x, y = walk(x), walk(y)
        if x is y or x == y:
            continue
        if isinstance(x, Var):
            if occurs(x.name, y):
                return None
            subst[x.name] = y
            continue
        if isinstance(y, Var):
            if occurs(y.name, x):
                return None
            subst[y.name] = x
            continue
        if x.functor != y.functor or len(x.children) != len(y.children):
            return None
        stack.extend(zip(x.children, y.children))
    return subst


def _stepwise_compose(c1, c2):
    apart = {v: Var(v + "'") for v in free_vars(c2.lhs)}
    subst = _stepwise_unify(c1.rhs, substitute(c2.lhs, apart))
    if subst is None:
        return None
    name = f"{c1.name}.{c2.name}" if c1.name and c2.name else (c1.name or c2.name)
    names = {}
    return Clause(name, _rebuild(c1.lhs, subst, names), _rebuild(substitute(c2.rhs, apart), subst, names))


def _stepwise_fold(th, seq):
    if not seq:
        return Clause(IDENTITY.name, Var("v0"), Var("v0"))
    clause = IDENTITY
    for name in seq:
        clause = _stepwise_compose(clause, th.axiom(name))
        if clause is None:
            return None
    return clause


# the six bundled theories and one whose rhs repeats a variable
_FOLD_THEORIES = {name: load_theory(name) for name in ("chain", "fg", "mod2", "rotate", "rotate3", "ancestor")}
_FOLD_THEORIES["nonlinear"] = parse_theory(
    "start: S\nd: x -> F(x, x)\ne: F(G(y), y) -> y\ng: x -> G(x)\nh: F(x, y) -> G(y)\n"
)
_ANCESTOR_LONG = ("p3", "a1", "p2", "a2", "p1", "a2", "l1")


@st.composite
def _fold_calls(draw):
    """A theory and a run of sequences, each keeping some prefix of the one
    before it and adding axioms of its own."""
    name = draw(st.sampled_from(sorted(_FOLD_THEORIES)))
    axioms = [ax.name for ax in _FOLD_THEORIES[name].axioms]
    seqs = [()]
    for _ in range(draw(st.integers(1, 6))):
        keep = draw(st.integers(0, len(seqs[-1])))
        seqs.append(seqs[-1][:keep] + tuple(draw(st.lists(st.sampled_from(axioms), max_size=8))))
    return name, seqs[1:]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_fold_calls())
@example(  # a proper prefix, a divergence mid-way, then the full sequence again
    ("ancestor", [_ANCESTOR_LONG, _ANCESTOR_LONG[:4], _ANCESTOR_LONG[:3] + ("p1", "l2", "l2"), _ANCESTOR_LONG])
)
@example(  # a2 binds p and a before it fails, and a1 renames its p the same way
    ("ancestor", [("p2", "p1", "a2"), ("p2", "p1", "a1", "l1"), ("p2", "p1", "a2", "l2")])
)
@example(  # the occurs check fails: y = G(y)
    ("nonlinear", [("d", "e"), ("d",), ("g", "d", "e"), ("g", "d", "h", "d")])
)
def test_fold_matches_stepwise_fold(call):
    name, seqs = call
    th = _FOLD_THEORIES[name]
    state = []
    for seq in seqs:
        got = reduce_specific(th, seq, state)
        want = _stepwise_fold(th, seq)
        if want is None:
            assert got is None
        else:
            assert (got.name, got.lhs, got.rhs) == (want.name, want.lhs, want.rhs)
        assert len(state) <= len(seq) + 1


class TestSyntax:
    def test_round_trip(self):
        for text in ("a*", "(a*.b)*.a*", "a|b.c*", "eps", "((a*.b)*.a*.c)*.(a*.b)*.a*"):
            e = parse_scheme(text)
            assert parse_scheme(print_scheme(e)) == e

    def test_dot_flattens(self):
        e = parse_scheme("a.(b.c)")
        assert isinstance(e, Dot) and len(e.parts) == 3

    def test_eps_in_dot_vanishes(self):
        assert parse_scheme("a.eps.b") == parse_scheme("a.b")

    def test_alternatives_flatten_and_deduplicate(self):
        assert parse_scheme("(a|b)|a") == parse_scheme("a|b")
        assert parse_scheme("a|(b|c)") == parse_scheme("a|b|c")
        assert parse_scheme("a|a") == Axiom("a")

    @pytest.mark.parametrize("text,message,column", [
        ("a.$", "unexpected character '$' in scheme", 3),
        ("(a.b", "missing ')' in scheme", None),
        ("a..b", "unexpected '.' in scheme", None),
        ("", "unexpected None in scheme", None),
        ("a b", "trailing input in scheme: 'b'", None),
        ("a)", "trailing input in scheme: ')'", None),
    ])
    def test_syntax_errors(self, text, message, column):
        with pytest.raises(TheorySyntaxError) as e:
            parse_scheme(text)
        assert (str(e.value), e.value.line, e.value.column) == (message, None, column)

    @pytest.mark.parametrize("text", ["(" * 3000 + "a" + ")" * 3000, "a" + "*" * 3000], ids=["parens", "stars"])
    def test_nesting_past_the_bound_is_a_syntax_error(self, text):
        # once a RecursionError from the recursive descent or a later walk
        with pytest.raises(TheorySyntaxError, match="scheme nests parentheses and stars deeper than 100"):
            parse_scheme(text)

    def test_nesting_counts_parentheses_plus_stars(self):
        bound = tpc.schemes.MAX_SCHEME_DEPTH
        assert parse_scheme("(a*)" + "*" * (bound - 2)) == parse_scheme("a" + "*" * (bound - 1))
        for text in ("(a*)" + "*" * (bound - 1), "(" * (bound + 1) + "a" + ")" * (bound + 1)):
            with pytest.raises(TheorySyntaxError):
                parse_scheme(text)

    def test_nested_alternatives_reach_sigma(self):
        fg = load_theory("fg")
        assert str(sigma(fg, parse_scheme("(a|b)|a"))) == str(sigma(fg, parse_scheme("a|b")))
