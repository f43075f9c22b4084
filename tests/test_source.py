"""Guards on the library source: no process-wide caches, and one module
that picks the consistency backend."""

import pathlib
import re

import inconlog

SOURCES = sorted(pathlib.Path(inconlog.__file__).parent.glob("*.py"))


def offending_lines(pattern, skip=()):
    found = []
    for path in SOURCES:
        if path.name in skip:
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if re.search(pattern, line):
                found.append(f"{path.name}:{number}: {line.strip()}")
    return found


def test_sources_are_found():
    assert "formulas.py" in {path.name for path in SOURCES}


def test_no_unbounded_cache():
    # an unbounded memo keeps every formula and theory it saw alive
    assert offending_lines(r"lru_cache\(maxsize=None\)|@(functools\.)?cache\b") == []


def test_only_formulas_picks_the_backend():
    # ConsistencyIndex decides between bitmask and DPLL
    pattern = r"\.atoms is (not )?None|dpll_satisfiable\("
    assert offending_lines(pattern, skip=("formulas.py",)) == []
