"""Guards on the library source: no process-wide caches, one module that
picks the consistency backend and owns its clause solver, one that
reads the order pairs, one atom-part routine, one subset sweep, one
formula parser, one set-bit decoder and no recursion."""

import ast
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


def test_one_clause_solver():
    # formulas._Solver is built and driven only by formulas.py, one per
    # ConsistencyIndex above the atom cap; no second DPLL route is kept
    assert offending_lines(r"\b_Solver\b", skip=("formulas.py",)) == []
    defined = offending_lines(r"^class _Solver\b")
    assert len(defined) == 1 and defined[0].startswith("formulas.py:")
    assert offending_lines(r"def (_tseitin|_dpll)\b") == []


def test_one_reader_of_order_pairs():
    # the order lives as bitsets in theory.py; only revision writes pairs
    assert offending_lines(r"def (linear_extensions|transitive_closure)\b") == []
    readers = offending_lines(r"closure_of\(|\.closure\b", skip=("theory.py",))
    assert len(readers) == 1 and readers[0].startswith("semantics.py:")


def test_one_atom_part_routine():
    # formulas.atom_links and formulas.connected_parts split premises
    # into atom-connected parts for the extension search and the subset
    # sweep alike
    pattern = r"def (_components|connected_parts|atom_links)\b|\bnear ="
    assert offending_lines(pattern, skip=("formulas.py",)) == []


def test_one_subset_sweep():
    # only arguments.minimal_subsets walks a subset lattice
    users = offending_lines(r"\bcombinations\b")
    assert {line.split(":")[0] for line in users} == {"arguments.py"}
    tree = ast.parse(next(p for p in SOURCES if p.name == "arguments.py").read_text())
    callers = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "combinations" for n in ast.walk(node))
    }
    assert callers == {"minimal_subsets"}


def test_no_function_calls_itself():
    # formulas of any depth, and searches of any length, run in loops: no
    # function names itself (a bare name, or self.<name> in a method),
    # whether to call itself or to hand itself to map and the like
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {
            id(node)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if id(fn) in methods:
                    names_itself = (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in ("self", "cls")
                        and node.attr == fn.name
                    )
                else:
                    names_itself = isinstance(node, ast.Name) and node.id == fn.name
                if names_itself:
                    found.append(f"{path.name}:{node.lineno}: {fn.name}")
    assert found == []


def test_one_formula_parser():
    # formulas.parse_formula is one loop over the tokens; the recursive
    # descent it replaced lives on only in tests/util.py
    assert offending_lines(r"^class _Parser\b") == []


def test_one_set_bit_decoder():
    # formulas.positions_of is the only code that turns a bitset into
    # positions; no other library code prints a number to read its bits
    tree = ast.parse(next(p for p in SOURCES if p.name == "formulas.py").read_text())
    decoder = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "positions_of"
    )
    inside = {f"formulas.py:{n}" for n in range(decoder.lineno, decoder.end_lineno + 1)}
    calls = offending_lines(r"\b(bin|format)\(")
    assert [line for line in calls if ":".join(line.split(":")[:2]) not in inside] == []
