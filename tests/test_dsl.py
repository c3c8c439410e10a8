import pytest
from hypothesis import given, settings, strategies as st

from quditswap.circuit import (
    Circuit,
    GateOp,
    cx_tilde_decomposition,
    swap_circuit,
)
from quditswap.dsl import ParseError, parse, render
from quditswap.gates import GateKind


@st.composite
def circuits(draw):
    d = draw(st.integers(2, 9))
    n = draw(st.integers(2, 4))
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(list(GateKind)))
        wires = tuple(
            draw(
                st.lists(
                    st.integers(1, n),
                    min_size=kind.arity,
                    max_size=kind.arity,
                    unique=True,
                )
            )
        )
        ops.append(GateOp(kind, wires))
    return Circuit(d, n, tuple(ops))


def test_parse_swap_circuit():
    text = "dim 3\nwires 2\nCXT 2 1\nCXT 1 2\nCXT 2 1\n"
    assert parse(text) == swap_circuit(3)


def test_parse_decomposition():
    text = "dim 3\nwires 2\nQFT 2\nCZ 1 2\nQFT 2\n"
    assert parse(text) == cx_tilde_decomposition(3)


def test_parse_arity_error_position():
    with pytest.raises(ParseError) as exc:
        parse("dim 3\nwires 2\nCXT 1\n")
    assert exc.value.line == 3
    assert "2 wire" in exc.value.message


def test_render_swap():
    assert render(swap_circuit(2)) == "dim 2\nwires 2\nCXT 2 1\nCXT 1 2\nCXT 2 1\n"


def test_render_empty():
    assert render(Circuit(4, 2)) == "dim 4\nwires 2\n"


def test_comments_and_blank_lines_ignored():
    text = "# a swap\n\ndim 3\nwires 2\n  # indented comment\nCXT 2 1  # inline\n\n"
    c = parse(text)
    assert c.ops == (GateOp(GateKind.CXTilde, (2, 1)),)
    assert render(c) == "dim 3\nwires 2\nCXT 2 1\n"


@given(circuits())
@settings(max_examples=200, deadline=None)
def test_round_trip(c):
    assert parse(render(c)) == c


@given(circuits())
@settings(max_examples=100, deadline=None)
def test_render_idempotent(c):
    text = render(c)
    assert render(parse(text)) == text


# (document, message fragment, (line, column, token) of the error)
MALFORMED = [
    ("", "missing 'dim'", (1, 1, "")),
    ("wires 2\n", "before 'dim'", (1, 1, "wires")),
    ("dim 3\n", "missing 'wires'", (2, 1, "")),
    ("dim 3\ndim 4\nwires 2\n", "duplicate 'dim'", (2, 1, "dim")),
    ("dim 3\nwires 2\nwires 2\n", "duplicate 'wires'", (3, 1, "wires")),
    ("dim 1\nwires 2\n", "dimension must be >= 2", (1, 5, "1")),
    ("dim x\nwires 2\n", "expected integer", (1, 5, "x")),
    ("dim 3\nwires zero\n", "expected integer", (2, 7, "zero")),
    ("dim 3\nwires 0\n", "wire count", (2, 7, "0")),
    ("dim 3 4\nwires 2\n", "exactly one", (1, 1, "dim")),
    ("dim 3\nwires 2 2\n", "exactly one", (2, 1, "wires")),
    ("CXT 1 2\ndim 3\nwires 2\n", "before 'dim'", (1, 1, "CXT")),
    ("dim 3\nwires 2\nBOGUS 1 2\n", "unknown gate", (3, 1, "BOGUS")),
    ("dim 3\nwires 2\nCXT 1\n", "2 wire", (3, 1, "CXT")),
    ("dim 3\nwires 2\nQFT 1 2\n", "1 wire", (3, 1, "QFT")),
    ("dim 3\nwires 2\nCXT 1 3\n", "out of range", (3, 7, "3")),
    ("dim 3\nwires 2\nCXT 0 1\n", "out of range", (3, 5, "0")),
    ("dim 3\nwires 2\nCXT 1 1\n", "duplicate wire", (3, 1, "CXT")),
    ("dim 3\nwires 2\nCXT 1 two\n", "expected integer", (3, 7, "two")),
    ("dim 3\nwires 2\nCZ 1 2 1\n", "2 wire", (3, 1, "CZ")),
    # columns after irregular whitespace and repeated tokens
    ("dim 3\nwires 2\nCXT\t1\t9\n", "out of range", (3, 7, "9")),
    ("dim 3\nwires 2\nCXT   1    9\n", "out of range", (3, 12, "9")),
    ("  dim 1\nwires 2\n", "dimension must be >= 2", (1, 7, "1")),
    ("dim 3\n \t wires 2\nCX 1 2\n  \tBOGUS 1\n", "unknown gate", (4, 4, "BOGUS")),
    ("dim\xa0x\nwires 2\n", "expected integer", (1, 5, "x")),
    ("dim 3\nwires\u30000\n", "wire count", (2, 7, "0")),
    ("dim 3\nwires 2\nCXT\x1c1 two\n", "expected integer", (3, 7, "two")),
    ("dim dim\nwires 2\n", "expected integer", (1, 5, "dim")),
    ("dim 3\nwires 2\nQFT QFT\n", "expected integer", (3, 5, "QFT")),
    ("dim 3\nwires 2\nCXT 2\xa0\xa02 3\n", "out of range", (3, 10, "3")),
]


@pytest.mark.parametrize(
    "text,needle,where", MALFORMED, ids=[f"{text}-{needle}" for text, needle, _ in MALFORMED]
)
def test_malformed_documents(text, needle, where):
    with pytest.raises(ParseError) as exc:
        parse(text)
    err = exc.value
    assert needle in err.message
    assert (err.line, err.column, err.token) == where
    lines = text.split("\n")
    assert err.line <= max(len(lines), 1)
    if err.token and err.line <= len(lines):
        assert err.token in lines[err.line - 1]


def test_error_column_points_at_token():
    with pytest.raises(ParseError) as exc:
        parse("dim 3\nwires 2\nCXT 1 9\n")
    err = exc.value
    assert (err.line, err.column) == (3, 7)
    assert err.token == "9"
