"""The plain-text theory format.

    # comment
    premise ID: FORMULA
    order ID1 < ID2

Lines end at \n, \r\n or \r and nowhere else (not at the other breaks
str.splitlines knows, such as \x1c or U+2028); blank lines and '#'
comments are skipped, here and in the ATMS format.  An order line says
ID1 is less reliable than ID2.  Reading does not validate the theory
(that is validate's job) beyond the line syntax itself; rendering
writes the premises in declaration order and the order pairs sorted,
and re-reading the result reproduces the theory exactly.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from . import formulas
from .errors import FormulaSyntaxError, InputError, TheoryFormatError
from .theory import Premise, ReliabilityTheory

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_LINE_END = re.compile(r"\r\n|\r|\n")


def statement_lines(text: str) -> Iterator[Tuple[int, str]]:
    """(line number, stripped line) for each line neither blank nor a comment."""
    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_theory(text: str) -> ReliabilityTheory:
    premises: List[Premise] = []
    pairs: List[Tuple[str, str]] = []
    for lineno, line in statement_lines(text):
        keyword, _, rest = line.partition(" ")
        if keyword == "premise":
            name, colon, body = rest.partition(":")
            name = name.strip()
            if not colon:
                raise TheoryFormatError("premise line needs 'id: formula'", lineno)
            if not _ID_RE.match(name):
                raise TheoryFormatError(f"bad premise id {name!r}", lineno)
            try:
                formula = formulas.parse_formula(body)
            except FormulaSyntaxError as err:
                raise TheoryFormatError(str(err), lineno) from err
            premises.append(Premise(name, formula))
        elif keyword == "order":
            left, angle, right = rest.partition("<")
            left, right = left.strip(), right.strip()
            if not angle or not _ID_RE.match(left) or not _ID_RE.match(right):
                raise TheoryFormatError("order line needs 'id < id'", lineno)
            pairs.append((left, right))
        else:
            raise TheoryFormatError(f"unknown directive {keyword!r}", lineno)
    return ReliabilityTheory(tuple(premises), frozenset(pairs))


def render_theory(theory: ReliabilityTheory) -> str:
    """The premises in declaration order, then the order pairs sorted by
    lower id, then upper id (the order of `sorted` on the pairs)."""
    lines = [
        f"premise {p.id}: {formulas.format_formula(p.formula)}"
        for p in theory.premises
    ]
    uppers: Dict[str, List[str]] = {}
    for x, y in theory.order:
        uppers.setdefault(x, []).append(y)
    for x in sorted(uppers):  # one entry per lower id, its lines joined
        lines.append(f"order {x} < " + f"\norder {x} < ".join(sorted(uppers[x])))
    return "\n".join(lines) + "\n"


def read_text(path: "str | Path") -> str:
    """A UTF-8 file's text; a non-UTF-8 byte is an InputError naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = len(_LINE_END.split(data[:err.start].decode("utf-8")))
        bad = f"not valid UTF-8 (byte 0x{data[err.start]:02x})"
        raise InputError(f"{path}, line {line}: {bad}") from None


def load_theory(path: "str | Path") -> ReliabilityTheory:
    return parse_theory(read_text(path))


def save_theory(theory: ReliabilityTheory, path: "str | Path") -> None:
    Path(path).write_text(render_theory(theory), encoding="utf-8")
