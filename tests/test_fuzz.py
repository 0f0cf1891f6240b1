"""Fuzzed library entry points: the text parsers and instantiate fail only
with typed errors, whatever they are given."""

from hypothesis import example, given, settings, strategies as st

from tpc import instantiate, parse_scheme, parse_term, parse_theory
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
