"""Propositional language over negation and implication.

The object language has exactly two connectives.  Conjunction and
disjunction are accepted by the parser as shortcuts and rewritten away
at parse time:

    a & b   becomes   !(a -> !b)
    a | b   becomes   !a -> b

so everything downstream only ever sees atoms, negations and
implications.

Concrete syntax: atoms match [A-Za-z_][A-Za-z0-9_]*, negation is "!"
or "~" (tightest), then "&", then "|", then "->" (loosest,
right-associative; "&" and "|" associate to the left).  Whitespace is
insignificant.

Satisfiability and entailment are decided by `ConsistencyIndex`, the
one oracle that picks a backend and owns the model masks.  Up to the
atom cap it represents the models of a formula as a bitmask over the
2^n valuations of a fixed atom tuple (valuation k makes atom i true iff
bit i of k is set), so a conjunction of premises is a bitwise AND.
Above the cap a small DPLL procedure over a Tseitin translation takes
over; the two backends must agree wherever both run.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union,
)

from .errors import AtomCapExceeded, FormulaSyntaxError

DEFAULT_ATOM_CAP = 20


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Not, Implies]

# An interpretation is simply the set of atoms it makes true.
Interpretation = FrozenSet[str]


def conj(left: Formula, right: Formula) -> Formula:
    """a & b, rewritten to !(a -> !b)."""
    return Not(Implies(left, Not(right)))


def disj(left: Formula, right: Formula) -> Formula:
    """a | b, rewritten to !a -> b."""
    return Implies(Not(left), right)


def atoms_of(formula: Formula) -> FrozenSet[str]:
    if isinstance(formula, Atom):
        return frozenset((formula.name,))
    if isinstance(formula, Not):
        return atoms_of(formula.child)
    if isinstance(formula, Implies):
        return atoms_of(formula.left) | atoms_of(formula.right)
    raise TypeError(f"not a formula: {formula!r}")


def atoms_of_all(formulas: Iterable[Formula]) -> FrozenSet[str]:
    out: Set[str] = set()
    for f in formulas:
        out |= atoms_of(f)
    return frozenset(out)


def evaluate(formula: Formula, interpretation: Interpretation) -> bool:
    if isinstance(formula, Atom):
        return formula.name in interpretation
    if isinstance(formula, Not):
        return not evaluate(formula.child, interpretation)
    if isinstance(formula, Implies):
        return (not evaluate(formula.left, interpretation)) or evaluate(
            formula.right, interpretation
        )
    raise TypeError(f"not a formula: {formula!r}")


# ------------------------------------------------------ atom-connected parts


def positions_of(mask: int) -> List[int]:
    """Positions of the set bits of `mask`, lowest first."""
    low = (mask & -mask).bit_length() - 1
    digits = bin(mask >> low)[:1:-1] if mask else ""
    return [low + i for i, digit in enumerate(digits) if digit == "1"]


def atom_links(formulas: Sequence[Formula]) -> List[int]:
    """Bit j of entry i is set iff formulas i and j share an atom."""
    atoms = [atoms_of(f) for f in formulas]
    sharing: Dict[str, int] = {}
    for i, mine in enumerate(atoms):
        for atom in mine:
            sharing[atom] = sharing.get(atom, 0) | 1 << i
    return [functools.reduce(operator.or_, map(sharing.get, mine), 0) for mine in atoms]


def connected_parts(left: int, linked: Callable[[int], int]) -> List[int]:
    """The connected parts of the positions in `left` as bitsets, lowest
    position first; `linked(i)` is the bitset of positions tied to i,
    for example an `atom_links` entry."""
    parts = []
    while left:
        part = grow = left & -left
        while grow:
            if grow & (grow - 1):
                reach = functools.reduce(operator.or_, map(linked, positions_of(grow)))
            else:
                reach = linked(grow.bit_length() - 1)
            grow = reach & left & ~part
            part |= grow
        left ^= part
        parts.append(part)
    return parts


# ---------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(r"(->)|([A-Za-z_][A-Za-z0-9_]*)|([!~&|()])|(\S)")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        pos = match.start()
        if match.group(1):
            tokens.append(("op", "->", pos))
        elif match.group(2):
            tokens.append(("atom", match.group(2), pos))
        elif match.group(3):
            tokens.append(("op", match.group(3), pos))
        else:
            raise FormulaSyntaxError(f"unexpected character {match.group(4)!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent following the precedence chain ! > & > | > ->."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> Tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise FormulaSyntaxError(f"expected {op!r}", pos)
        self.take()

    def parse(self) -> Formula:
        formula = self.implication()
        kind, value, pos = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected {value!r}", pos)
        return formula

    def implication(self) -> Formula:
        left = self.disjunction()
        kind, value, _ = self.peek()
        if kind == "op" and value == "->":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "|":
                self.take()
                out = disj(out, self.conjunction())
            else:
                return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "&":
                self.take()
                out = conj(out, self.unary())
            else:
                return out

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "op" and value in ("!", "~"):
            self.take()
            return Not(self.unary())
        if kind == "op" and value == "(":
            self.take()
            inner = self.implication()
            self.expect_op(")")
            return inner
        if kind == "atom":
            self.take()
            return Atom(value)
        raise FormulaSyntaxError("expected a formula", pos)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into the two-connective core language."""
    return _Parser(text).parse()


# --------------------------------------------------------------- printing

# Precedence levels used by the printer; higher binds tighter.
_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_NOT = 1, 2, 3, 4


def _classify(formula: Formula, sugar: bool):
    if isinstance(formula, Atom):
        return ("atom", formula.name)
    if sugar and isinstance(formula, Not):
        inner = formula.child
        if isinstance(inner, Implies) and isinstance(inner.right, Not):
            return ("&", inner.left, inner.right.child)
    if sugar and isinstance(formula, Implies) and isinstance(formula.left, Not):
        return ("|", formula.left.child, formula.right)
    if isinstance(formula, Not):
        return ("!", formula.child)
    return ("->", formula.left, formula.right)


def format_formula(formula: Formula, sugar: bool = True) -> str:
    """Render a formula so that parse_formula(result) == formula.

    With sugar enabled the conjunction/disjunction rewrites are folded
    back for readability; either way the output reparses to the same
    tree.
    """

    def go(f: Formula, minimum: int) -> str:
        node = _classify(f, sugar)
        if node[0] == "atom":
            return node[1]
        if node[0] == "!":
            text = "!" + go(node[1], _PREC_NOT)
            prec = _PREC_NOT
        elif node[0] == "&":
            text = go(node[1], _PREC_AND) + " & " + go(node[2], _PREC_AND + 1)
            prec = _PREC_AND
        elif node[0] == "|":
            text = go(node[1], _PREC_OR) + " | " + go(node[2], _PREC_OR + 1)
            prec = _PREC_OR
        else:
            text = go(node[1], _PREC_IMPLIES + 1) + " -> " + go(node[2], _PREC_IMPLIES)
            prec = _PREC_IMPLIES
        if prec < minimum:
            return "(" + text + ")"
        return text

    return go(formula, 0)


# ----------------------------------------------------- exhaustive valuation


def all_interpretations(
    atoms: Iterable[str], cap: int = DEFAULT_ATOM_CAP
) -> List[Interpretation]:
    """Every interpretation over the given atoms, in counting order.

    Valuation k makes the i-th atom (sorted) true iff bit i of k is
    set, so the list starts with the empty interpretation and ends
    with the full one.
    """
    ordered = sorted(set(atoms))
    if len(ordered) > cap:
        raise AtomCapExceeded(
            f"{len(ordered)} atoms exceed the exhaustive-valuation cap of {cap}"
        )
    out = []
    for k in range(1 << len(ordered)):
        out.append(frozenset(a for i, a in enumerate(ordered) if k >> i & 1))
    return out


@functools.lru_cache(maxsize=256)
def _atom_pattern(bit: int, width_bits: int) -> int:
    # Bitmask over 2^width_bits valuations selecting those with bit set.
    run = 1 << bit
    pattern = ((1 << run) - 1) << run
    length = run * 2
    total = 1 << width_bits
    while length < total:
        pattern |= pattern << length
        length <<= 1
    return pattern


def models_mask(formula: Formula, atoms: Tuple[str, ...]) -> int:
    """Bitmask of the valuations over `atoms` that satisfy the formula."""
    n = len(atoms)
    full = (1 << (1 << n)) - 1
    if isinstance(formula, Atom):
        return _atom_pattern(atoms.index(formula.name), n)
    if isinstance(formula, Not):
        return full ^ models_mask(formula.child, atoms)
    if isinstance(formula, Implies):
        return (full ^ models_mask(formula.left, atoms)) | models_mask(
            formula.right, atoms
        )
    raise TypeError(f"not a formula: {formula!r}")


def interpretation_of_index(index: int, atoms: Sequence[str]) -> Interpretation:
    return frozenset(a for i, a in enumerate(atoms) if index >> i & 1)


# ----------------------------------------------------------- DPLL backend


def _tseitin(formulas: Sequence[Formula]):
    """Clause translation; one variable per distinct subformula."""
    variables: Dict[Formula, int] = {}
    clauses: List[Tuple[int, ...]] = []

    def var(f: Formula) -> int:
        known = variables.get(f)
        if known is not None:
            return known
        v = len(variables) + 1
        variables[f] = v
        if isinstance(f, Not):
            c = var(f.child)
            clauses.append((-v, -c))
            clauses.append((v, c))
        elif isinstance(f, Implies):
            l, r = var(f.left), var(f.right)
            clauses.append((-v, -l, r))
            clauses.append((v, l))
            clauses.append((v, -r))
        return v

    for f in formulas:
        clauses.append((var(f),))
    return clauses


def _dpll(clauses: List[Tuple[int, ...]], assignment: Dict[int, bool]) -> bool:
    # One scan per round: fail, propagate the first unit clause, or pick
    # the first unassigned literal of the first unsatisfied clause.
    while True:
        unit = pick = None
        for clause in clauses:
            unassigned = []
            satisfied = False
            for lit in clause:
                value = assignment.get(abs(lit))
                if value is None:
                    unassigned.append(lit)
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unassigned:
                return False
            if len(unassigned) == 1:
                unit = unassigned[0]
                break
            if pick is None:
                pick = abs(unassigned[0])
        if unit is None:
            break
        assignment[abs(unit)] = unit > 0

    if pick is None:
        return True
    for value in (True, False):
        trail = dict(assignment)
        trail[pick] = value
        if _dpll(clauses, trail):
            return True
    return False


def dpll_satisfiable(formulas: Iterable[Formula]) -> bool:
    """Satisfiability via Tseitin translation and DPLL; no atom cap."""
    fs = tuple(formulas)
    if not fs:
        return True
    return _dpll(_tseitin(fs), {})


# ------------------------------------------------------- public decisions


def is_consistent(
    formulas: Iterable[Formula], max_atoms: int = DEFAULT_ATOM_CAP
) -> bool:
    """True iff some interpretation satisfies every formula."""
    fs = dict(enumerate(formulas))
    return ConsistencyIndex(fs, max_atoms=max_atoms).consistent(fs)


def entails(
    formulas: Iterable[Formula], goal: Formula, max_atoms: int = DEFAULT_ATOM_CAP
) -> bool:
    """True iff every model of the formulas satisfies the goal."""
    fs = dict(enumerate(formulas))
    return ConsistencyIndex(fs, extra=(goal,), max_atoms=max_atoms).entails(fs, goal)


def is_tautology(formula: Formula, max_atoms: int = DEFAULT_ATOM_CAP) -> bool:
    return entails((), formula, max_atoms=max_atoms)


class ConsistencyIndex:
    """The satisfiability/entailment oracle over a fixed id -> formula map.

    It owns both backends.  Up to `max_atoms` atoms (formulas plus the
    `extra` query formulas) it computes each formula's model mask once,
    here, and answers by bitwise ANDs; above the cap `atoms` is None and
    every call runs DPLL.  A greedy walk grows a state from `top` by
    `meet`: a kept set's mask, or its formulas above the cap.
    """

    def __init__(
        self,
        formulas: Mapping[str, Formula],
        extra: Iterable[Formula] = (),
        max_atoms: int = DEFAULT_ATOM_CAP,
    ):
        self.formulas = dict(formulas)
        extra = tuple(extra)
        atoms = tuple(sorted(atoms_of_all([*self.formulas.values(), *extra])))
        self.atoms: Optional[Tuple[str, ...]] = atoms if len(atoms) <= max_atoms else None
        if self.atoms is None:
            self.full_mask, self.top, self.masks, self._extra_masks = 0, (), {}, {}
            return
        self.full_mask = self.top = (1 << (1 << len(atoms))) - 1
        self.masks = {pid: models_mask(f, atoms) for pid, f in self.formulas.items()}
        self._extra_masks = {f: models_mask(f, atoms) for f in extra}

    def same_models_key(self, pid: str) -> object:
        """Equal for premises with the same models (above the cap: formulas)."""
        return self.formulas[pid] if self.atoms is None else self.masks[pid]

    def meet(self, state, pid: str):
        """The state narrowed by premise `pid`, or None if they clash."""
        if self.atoms is None:
            grown = state + (self.formulas[pid],)
            return grown if dpll_satisfiable(grown) else None
        return state & self.masks[pid] or None

    def subset_mask(self, ids: Iterable[str]) -> int:
        mask = self.full_mask
        for pid in ids:
            mask &= self.masks[pid]
            if not mask:
                break
        return mask

    def consistent(self, ids: Iterable[str]) -> bool:
        if self.atoms is None:
            return dpll_satisfiable(self.formulas[pid] for pid in ids)
        return self.subset_mask(ids) != 0

    def entails(self, ids: Iterable[str], goal: Formula) -> bool:
        """Do the premises `ids` entail `goal`, one of the `extra` formulas?"""
        if self.atoms is None:
            fs = tuple(self.formulas[pid] for pid in ids) + (Not(goal),)
            return not dpll_satisfiable(fs)
        return self.subset_mask(ids) & ~self._extra_masks[goal] == 0
