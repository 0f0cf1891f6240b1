"""Fuzzed entry points: the text parsers and instantiate fail only with
typed errors, whatever they are given, and the CLI exits only with its
documented codes."""

import contextlib
import io

from hypothesis import example, given, settings, strategies as st

from tpc import instantiate, parse_scheme, parse_term, parse_theory
from tpc.cli import main
from tpc.errors import ShapeError, TpcError


def _text(fragments):
    """Text made of the grammar's own fragments, so that much of it gets
    past the tokenizer, or of any characters at all."""
    joined = st.lists(st.sampled_from(fragments), max_size=20).map("".join)
    return st.one_of(joined, st.text(max_size=20))


TERM_TEXT = _text(["P", "F", "Z", "x", "y", "(", ")", ",", " ", "F(", "P(Z", "()", "1"])
SCHEME_TEXT = _text(["a", "b", "eps", "(", ")", ".", "*", "|", " ", "a*", "(a.b)", "1"])
THEORY_TEXT = _text([
    "start:", "a:", "b:", " P(Z)", " P(x)", " -> ", "P(F(x))", "Q(x, y)", "x", "(", ")", ",",
    "\n", "#", " ", ":", "->", "start: P(Z)\n", "a: P(x) -> P(F(x))\n",
])


def _parses_or_raises_typed(parse, text):
    try:
        parse(text)
    except TpcError:
        pass


@settings(max_examples=200, deadline=None, derandomize=True)
@given(TERM_TEXT)
def test_parse_term_raises_only_typed_errors(text):
    _parses_or_raises_typed(parse_term, text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(SCHEME_TEXT)
def test_parse_scheme_raises_only_typed_errors(text):
    _parses_or_raises_typed(parse_scheme, text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(THEORY_TEXT)
def test_parse_theory_raises_only_typed_errors(text):
    _parses_or_raises_typed(parse_theory, text)


SCHEMES = st.recursive(
    st.sampled_from(["a", "b", "eps"]),
    lambda sub: st.one_of(
        sub.map("({})*".format),
        st.tuples(sub, sub).map("({0[0]}.{0[1]})".format),
        st.tuples(sub, sub).map("({0[0]}|{0[1]})".format),
    ),
    max_leaves=6,
).map(parse_scheme)

# counts stay small: a large count is a large instance, not a misshapen index
RAW_VALUES = st.recursive(
    st.one_of(
        st.integers(-3, 5), st.booleans(), st.none(), st.floats(), st.text(max_size=3),
        st.binary(max_size=3),
    ),
    lambda sub: st.one_of(
        st.lists(sub, max_size=4),
        st.lists(sub, max_size=4).map(tuple),
        st.dictionaries(st.integers(0, 3), sub, max_size=2),
    ),
    max_leaves=12,
)

# a message prints at most PRINT_ITEMS short items, whatever the index
MAX_MESSAGE = 2000


class _Nested(tuple):
    """A tuple nested *depth* deep, whose repr (which hypothesis prints for
    an explicit example) does not recurse."""

    def __new__(cls, depth):
        m = ()
        for _ in range(depth - 1):
            m = (m,)
        return super().__new__(cls, (m,))

    def __repr__(self):
        return "_Nested(...)"


@settings(max_examples=250, deadline=None, derandomize=True)
@given(SCHEMES, RAW_VALUES)
@example(parse_scheme("a.b"), _Nested(3000))  # deeper than PRINT_DEPTH
@example(parse_scheme("a.b"), list(range(200000)))  # longer than PRINT_ITEMS
@example(parse_scheme("a*"), "")  # a string is not a list
def test_instantiate_raises_only_bounded_shape_errors(e, m):
    try:
        instantiate(e, m)
    except ShapeError as exc:
        assert len(str(exc)) <= MAX_MESSAGE


# the bundled theories' axiom names, and a name that is no theory
AXIOMS = {
    "chain": ["a"], "fg": ["a", "b"], "mod2": ["a", "b"], "rotate": ["a", "b"], "rotate3": ["a", "b", "c"],
    "ancestor": ["p1", "p2", "p3", "a1", "a2", "l1", "l2"], "nosuch": ["a"],
}
SENTENCES = [
    "P(Z)", "P(F(Z))", "P(F(F(F(Z))))", "P(Z, Z)", "P(F(Z), G(Z))", "P(F(F(F(Z))), G(G(Z)))", "S",
    "Ancestor(Adam, Olga)", "And(Parent(Adam, John), S)", "P(R(R(R(R(E, D4), D3), D2), D1), Y0)",
    "P(R(R(R(E, D4), D3), D2), R(Y0, D1))",
]
METHODS = ["oracle", "generated", "auto"]


def _schemes(names):
    """Schemes over *names*, small enough that sigma stays quick."""
    return st.recursive(
        st.sampled_from([*names, "eps"]),
        lambda sub: st.one_of(
            sub.map("{}*".format),
            st.tuples(sub, sub).map("({0[0]}.{0[1]})".format),
            st.tuples(sub, sub).map("({0[0]}|{0[1]})".format),
        ),
        max_leaves=4,
    )


@st.composite
def _argv(draw):
    """A tpc command line: global flags with --max-depth at most 4, a
    subcommand on a bundled theory or a name that is none, and its options.
    Now and then an option is left out, a text is not a sentence or a
    scheme, or a stray word is added."""
    theory = draw(st.sampled_from(sorted(AXIOMS)))

    def rarely():
        return draw(st.integers(0, 7)) == 7

    def option(name, required=True):
        if rarely() if required else draw(st.booleans()):
            return []
        if name == "--method":
            return [name, draw(st.sampled_from(METHODS))]
        if name in ("--scheme", "--left", "--right"):
            return [name, draw(SCHEME_TEXT if rarely() else _schemes(AXIOMS[theory]))]
        return [name, draw(TERM_TEXT if rarely() else st.sampled_from(SENTENCES))]

    argv = ["--max-depth", str(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        argv += ["--max-tree-size", str(draw(st.integers(0, 64)))]
    argv += [flag for flag in ("--json", "--no-selfcheck") if draw(st.booleans())]
    command = draw(st.sampled_from(["parse", "oracle", "prove", "decide", "sigma", "includes", "reduce"]))
    argv += [command, theory]
    if command == "oracle":
        argv += option("--goal", False) + (["--dump"] if draw(st.booleans()) else [])
    elif command in ("prove", "decide"):
        argv += option("--goal", False) if command == "prove" else option("--from") + option("--to")
        argv += option("--method", False)
    elif command in ("sigma", "reduce"):
        argv += option("--scheme", command == "sigma")
    elif command == "includes":
        argv += option("--left") + option("--right")
    if rarely():
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-", "--", "7", "--json"])))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argv())
def test_cli_exits_only_with_its_documented_codes(argv):
    # 0-3 are answers, usage errors and give-ups; 4 is an internal error
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (code, err.getvalue())
