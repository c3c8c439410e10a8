"""Line-oriented circuit format (.qc) and its parser.

Grammar (one statement per line, '#' comments and blank lines ignored):

    dim <d>
    wires <n>
    <MNEMONIC> <wire> [<wire>]

The two header lines are required, in that order, before any gate.  Wires
are 1-based, control first for two-qudit gates, so a gate controlled by
wire 2 targeting wire 1 is written ``CXT 2 1``.  The canonical renderer
emits uppercase mnemonics, single spaces, LF endings and a trailing newline;
parse(render(c)) reproduces the circuit exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .circuit import Circuit, GateOp
from .gates import GateKind

MNEMONICS = {kind.value: kind for kind in GateKind}
# each header's value: what it is, and its least value
_HEADERS = {"dim": ("dimension", 2), "wires": ("wire count", 1)}


@dataclass(frozen=True)
class ParseError(Exception):
    """Parse failure with a 1-based source position."""

    line: int
    column: int
    message: str
    token: str = ""

    def __str__(self) -> str:
        where = f"line {self.line}, column {self.column}"
        if self.token:
            return f"{where}: {self.message} ({self.token!r})"
        return f"{where}: {self.message}"


def _int_token(lineno: int, col: int, tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, col, f"expected integer {what}", tok) from None


def parse(text: str) -> Circuit:
    """Parse a circuit document; raises :class:`ParseError` on the first error."""
    d: int | None = None
    n: int | None = None
    ops: list[GateOp] = []
    lines = text.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        toks = [(m.start() + 1, m[0]) for m in re.finditer(r"\S+", line)]  # 1-based columns
        if not toks:
            continue
        col, head = toks[0]

        if head in _HEADERS:
            if head == "wires" and d is None:
                raise ParseError(lineno, col, "'wires' before 'dim' header", head)
            if (d if head == "dim" else n) is not None:
                raise ParseError(lineno, col, f"duplicate '{head}' header", head)
            if len(toks) != 2:
                raise ParseError(lineno, col, f"'{head}' takes exactly one integer", head)
            (vcol, tok), (what, least) = toks[1], _HEADERS[head]
            value = _int_token(lineno, vcol, tok, what)
            if value < least:
                raise ParseError(lineno, vcol, f"{what} must be >= {least}", tok)
            d, n = (value, n) if head == "dim" else (d, value)
            continue

        if d is None or n is None:
            raise ParseError(lineno, col, "gate before 'dim'/'wires' headers", head)
        kind = MNEMONICS.get(head)
        if kind is None:
            raise ParseError(lineno, col, "unknown gate mnemonic", head)
        wires = []
        for wcol, tok in toks[1:]:
            w = _int_token(lineno, wcol, tok, "wire index")
            if not 1 <= w <= n:
                raise ParseError(lineno, wcol, f"wire out of range 1..{n}", tok)
            wires.append(w)
        try:
            ops.append(GateOp(kind, tuple(wires)))
        except ValueError as exc:  # the op's own arity and repeated-wire checks
            raise ParseError(lineno, col, str(exc), head) from None

    if d is None:
        raise ParseError(max(len(lines), 1), 1, "missing 'dim' header")
    if n is None:
        raise ParseError(max(len(lines), 1), 1, "missing 'wires' header")
    return Circuit(d, n, tuple(ops))


def render(c: Circuit) -> str:
    """Canonical text form: headers then one gate per line, trailing newline."""
    lines = [f"dim {c.d}", f"wires {c.n}"]
    for op in c.ops:
        lines.append(" ".join([op.kind.value, *map(str, op.wires)]))
    return "\n".join(lines) + "\n"
