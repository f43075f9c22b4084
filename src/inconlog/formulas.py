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

A formula is flat code: one tuple of atom names, "!" and "->" in
postfix order, so `!a -> b` is ("a", "!", "b", "->").  Nothing here
recurses on a formula, so nesting depth is bounded by memory alone:
the parser is one loop over the tokens that emits the code as it
goes, equality is a tuple compare, the atom set is a set difference,
and truth values, model masks and clause variables are each one loop
over the code with a value stack.  Only printing and `repr` rebuild a
tree, of tuples, in one such loop.

Satisfiability and entailment are decided by `ConsistencyIndex`, the
one oracle that picks a backend and owns the model masks.  Up to the
atom cap it represents the models of a formula as a bitmask over the
2^n valuations of a fixed atom tuple (valuation k makes atom i true iff
bit i of k is set), so a conjunction of premises is a bitwise AND.
Above the cap the index owns one clause solver, `_Solver`, instead:
each formula is Tseitin-translated once to a root variable, and every
consistency or entailment question is one DPLL search under the roots
it names (Eén & Sörensson 2003).  The assumed roots stay propagated
between questions, one frame per root, so a question that shares a
prefix of roots with the one before it propagates only the rest: a
greedy walk that adds one premise per step propagates each premise
once.  The two backends must agree wherever both run.
"""

from __future__ import annotations

import functools
import operator
import re
import zlib
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from .errors import AtomCapExceeded, FormulaSyntaxError

DEFAULT_ATOM_CAP = 20

_OPERATORS = frozenset(("!", "->"))


class Formula:
    """A formula as its postfix `code`: atom names, "!" and "->".

    Build one with `parse_formula` or with `Atom`, `Not`, `Implies`,
    `conj` and `disj`, and treat it as immutable.  Equal formulas have
    equal code.  The hash (a crc32 of the code, so the same in every
    process) and the atom set that `atoms_of` reads are computed on
    first use and kept on the formula: nothing outlives it.  Pickling
    keeps the code, and copies are the formula itself.
    """

    __slots__ = ("code", "_hash", "_atoms", "__weakref__")

    def __init__(self, code: Tuple[str, ...]):
        self.code = code
        self._hash: Optional[int] = None
        self._atoms: Optional[FrozenSet[str]] = None

    def __eq__(self, other: object) -> bool:
        if type(other) is not Formula:
            return NotImplemented
        return self.code == other.code

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = zlib.crc32(" ".join(self.code).encode())
        return self._hash

    def __repr__(self) -> str:
        # dataclass-style text: Implies(left=Atom(name='a'), right=...)
        pieces: List[str] = []
        stack: List[object] = [_tree(self.code)]
        while stack:
            node = stack.pop()
            if type(node) is str:
                pieces.append(node)
            elif len(node) == 1:
                pieces.append(f"Atom(name={node[0]!r})")
            elif len(node) == 2:
                pieces.append("Not(child=")
                stack += (")", node[1])
            else:
                pieces.append("Implies(left=")
                stack += (")", node[2], ", right=", node[1])
        return "".join(pieces)

    def __reduce__(self):
        return Formula, (self.code,)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


# An interpretation is simply the set of atoms it makes true.
Interpretation = FrozenSet[str]

# The code each binary connective appends after its two operands' code;
# "|" also puts "!" between them.
_FOLD = {"&": ("!", "->", "!"), "|": ("->",), "->": ("->",)}


def Atom(name: str) -> Formula:
    return Formula((name,))


def Not(child: Formula) -> Formula:
    return Formula(child.code + ("!",))


def Implies(left: Formula, right: Formula) -> Formula:
    return Formula(left.code + right.code + ("->",))


def conj(left: Formula, right: Formula) -> Formula:
    """a & b, rewritten to !(a -> !b)."""
    return Formula(left.code + right.code + _FOLD["&"])


def disj(left: Formula, right: Formula) -> Formula:
    """a | b, rewritten to !a -> b."""
    return Formula(left.code + ("!",) + right.code + ("->",))


def _tree(code: Tuple[str, ...]) -> tuple:
    """The code as nested tuples: (name,), ("!", child) or ("->", left, right)."""
    stack: List[tuple] = []
    for token in code:
        if token == "!":
            stack[-1] = ("!", stack[-1])
        elif token == "->":
            right = stack.pop()
            stack[-1] = ("->", stack[-1], right)
        else:
            stack.append((token,))
    return stack[0]


def atoms_of(formula: Formula) -> FrozenSet[str]:
    atoms = formula._atoms
    if atoms is None:
        atoms = formula._atoms = frozenset(formula.code) - _OPERATORS
    return atoms


def atoms_of_all(formulas: Iterable[Formula]) -> FrozenSet[str]:
    out: Set[str] = set()
    for f in formulas:
        out |= atoms_of(f)
    return frozenset(out)


def _models(formula: Formula, full: int, atom: Callable[[str], int]) -> int:
    """The models of `formula` as a bitmask: `full` has a bit for every
    valuation and `atom(name)` the bits of those that make the atom true."""
    stack: List[int] = []
    for token in formula.code:
        if token == "!":
            stack[-1] ^= full
        elif token == "->":
            right = stack.pop()
            stack[-1] = full ^ stack[-1] | right
        else:
            stack.append(atom(token))
    return stack[0]


def evaluate(formula: Formula, interpretation: Interpretation) -> bool:
    """True iff `interpretation`, taken as the only valuation, is a model of `formula`."""
    return _models(formula, 1, interpretation.__contains__) == 1


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


# ------------------------------------------------------- parsing, printing

# Connective: (its printed text, its precedence, higher binding tighter,
# then the raise of the minimum precedence for the left and the right
# operand).  The printer brackets an operand whose precedence is below
# its minimum; the parser folds into a connective's left operand every
# pending connective that meets that minimum.
_CONNECTIVES = {
    "!": ("!", 4, 0, 0),
    "&": (" & ", 3, 0, 1),
    "|": (" | ", 2, 0, 1),
    "->": (" -> ", 1, 1, 0),
}

_TOKEN_RE = re.compile(r"->|[A-Za-z_][A-Za-z0-9_]*|[!~&|()]")
# Matches up to the first character that starts no token.
_TOKENS_RE = re.compile(r"(?:\s+|->|[A-Za-z_][A-Za-z0-9_]*|[!~&|()])*")


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into the two-connective core language.

    One loop over the tokens (Dijkstra's shunting yard) that alternates
    between wanting an operand (an atom, "!"/"~" or "(") and wanting what
    follows one (a connective, ")" or the end); the first token that fits
    neither raises.  Each operand and each folded connective appends its
    code at once, so the code comes out in postfix order.
    """
    bad = _TOKENS_RE.match(text).end()
    if bad < len(text):
        raise FormulaSyntaxError(f"unexpected character {text[bad]!r}", bad)
    tokens = _TOKEN_RE.findall(text) + [""]  # "" is the end
    code: List[str] = []
    pending: List[str] = []  # "(", negations and binary connectives, innermost last
    brackets = 0
    want_operand = True
    for k, token in enumerate(tokens):
        if want_operand:
            if token in ("!", "~", "("):
                pending.append(token)
                brackets += token == "("
                continue
            if not token or token in _CONNECTIVES or token == ")":
                message = "expected a formula"
                break
            code.append(token)
        else:
            binary = token in _FOLD
            if not (binary or token == ")" and brackets or not token and not brackets):
                message = "expected ')'" if brackets else f"unexpected {token!r}"
                break
            # fold the pending connectives tight enough to sit below `token`
            floor = _CONNECTIVES[token][1] + _CONNECTIVES[token][2] if binary else 1
            while pending and pending[-1] in _FOLD and _CONNECTIVES[pending[-1]][1] >= floor:
                code += _FOLD[pending.pop()]
            if binary:
                pending.append(token)
                if token == "|":  # its left operand is complete
                    code.append("!")
            elif not token:
                return Formula(tuple(code))
            else:
                pending.pop()  # the matching "("
                brackets -= 1
        while pending and pending[-1] in ("!", "~"):  # negations waiting for an operand
            pending.pop()
            code.append("!")
        want_operand = token in _FOLD
    # token k fits nowhere: the end of the text if it is the last
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    raise FormulaSyntaxError(message, (starts + [len(text)])[k])


def format_formula(formula: Formula, sugar: bool = True) -> str:
    """Render a formula so that parse_formula(result) == formula.

    With sugar enabled the conjunction/disjunction rewrites are folded
    back for readability; either way the output reparses to the same
    code.
    """

    # An explicit stack of pending text and (tree node, minimum
    # precedence) pairs, so output depth is not bounded by recursion.
    pieces: List[str] = []
    stack: List[object] = [(_tree(formula.code), 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            pieces.append(item)
            continue
        (op, *operands), minimum = item
        if not operands:
            pieces.append(op)
            continue
        if sugar and op == "!" and operands[0][0] == "->" and operands[0][2][0] == "!":
            op, operands = "&", (operands[0][1], operands[0][2][1])  # !(l -> !r)
        elif sugar and op == "->" and operands[0][0] == "!":
            op, operands = "|", (operands[0][1], operands[1])  # !l -> r
        text, prec, left_up, right_up = _CONNECTIVES[op]
        if prec < minimum:
            pieces.append("(")
            stack.append(")")
        if op == "!":
            pieces.append(text)
            stack.append((operands[0], prec))
        else:
            stack += ((operands[1], prec + right_up), text, (operands[0], prec + left_up))
    return "".join(pieces)


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
        raise AtomCapExceeded("exhaustive-valuation", cap, len(ordered))
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


def _patterns(atoms: Tuple[str, ...]) -> Callable[[str], int]:
    """Atom name -> the bits of the valuations over `atoms` making it true."""
    return {a: _atom_pattern(i, len(atoms)) for i, a in enumerate(atoms)}.__getitem__


def models_mask(formula: Formula, atoms: Tuple[str, ...]) -> int:
    """Bitmask of the valuations over `atoms` that satisfy the formula."""
    return _models(formula, (1 << (1 << len(atoms))) - 1, _patterns(atoms))


def interpretation_of_index(index: int, atoms: Sequence[str]) -> Interpretation:
    return frozenset(a for i, a in enumerate(atoms) if index >> i & 1)


# ---------------------------------------------------------- clause solver


class _Solver:
    """Tseitin clauses, built once, and a DPLL search under assumptions.

    Every distinct subformula is one variable, hash-consed on its name
    (atoms) or on its connective and its children's variables, so no
    formula is ever hashed.  Each variable is defined by a full
    equivalence: v <-> !c as two clauses, v <-> (l -> r) as three.
    Assuming a root variable true is therefore the same as adding its
    formula, and every question about a set of formulas is one `solve`
    under their roots.

    The search keeps two watched literals per clause and one trail,
    backtracks chronologically and learns nothing (Moskewicz et al.
    2001).  The assumptions stay on the trail between calls as a stack
    of frames, one per assumed literal (MiniSat's incremental solving,
    Eén & Sörensson 2003): a call keeps the frames of the longest prefix
    it shares with the last call's assumptions and propagates only the
    rest, so a greedy walk that adds one premise per call propagates
    each premise once.  Internally literal +v is 2v and -v is 2v + 1,
    so negation is `^ 1`.
    """

    def __init__(self):
        self._nodes: Dict[object, int] = {}
        self._atoms_under: Dict[int, Tuple[int, ...]] = {}
        # per literal: 1 true, -1 false, 0 unassigned; variable 0 is unused
        self._value: List[int] = [0, 0]
        # per literal: the clauses watching it, visited when it turns false
        self._watches: List[List[List[int]]] = [[], []]
        self._trail: List[int] = []
        # The frames: the assumed literals, and per frame the trail
        # length and the length of `_free` once it is propagated.
        # `_free` holds the atoms under the frames' roots that were
        # unassigned when their frame was pushed.
        self._assumed: List[int] = []
        self._frames: List[Tuple[int, int]] = []
        self._free: List[int] = []

    def root(self, formula: Formula) -> int:
        """The variable of `formula`, translated on first sight."""
        stack: List[int] = []  # the variables of the finished subformulas
        atoms: Dict[int, None] = {}
        for token in formula.code:
            if token == "!":
                stack[-1] = self._node(("!", stack[-1]))
            elif token == "->":
                right = stack.pop()
                stack[-1] = self._node(("->", stack[-1], right))
            else:
                stack.append(self._node(token))
                atoms[stack[-1]] = None
        self._atoms_under.setdefault(stack[0], tuple(atoms))
        return stack[0]

    def _node(self, key) -> int:
        """The variable of an atom name or a ("!", child) / ("->", left,
        right) node, with its defining clauses on first sight."""
        var = self._nodes.get(key)
        if var is None:
            var = self._nodes[key] = len(self._value) // 2
            self._value += (0, 0)
            self._watches += ([], [])
            pos, neg = 2 * var, 2 * var + 1
            if isinstance(key, str):
                return var
            if self._trail:  # watches are only sound for clauses added on an empty trail
                self._pop_frames(0)
            if key[0] == "!":
                child = 2 * key[1]
                self._clause([neg, child ^ 1])
                self._clause([pos, child])
            else:
                left, right = 2 * key[1], 2 * key[2]
                self._clause([neg, left ^ 1, right])
                self._clause([pos, left])
                self._clause([pos, right ^ 1])
        return var

    def _clause(self, lits: List[int]) -> None:
        self._watches[lits[0]].append(lits)
        self._watches[lits[1]].append(lits)

    def _assign(self, lit: int) -> None:
        self._value[lit], self._value[lit ^ 1] = 1, -1
        self._trail.append(lit)

    def _undo(self, length: int) -> None:
        value, trail = self._value, self._trail
        for lit in trail[length:]:
            value[lit] = value[lit ^ 1] = 0
        del trail[length:]

    def _pop_frames(self, keep: int) -> None:
        """Drop every frame above the first `keep`, and their trail."""
        trail, free = self._frames[keep - 1] if keep else (0, 0)
        self._undo(trail)
        del self._assumed[keep:], self._frames[keep:], self._free[free:]

    def _propagate(self, head: int) -> bool:
        """Unit propagation from trail position `head`; False on a conflict."""
        value, trail, watches = self._value, self._trail, self._watches
        while head < len(trail):
            false = trail[head] ^ 1
            head += 1
            watching, kept = watches[false], []
            for k, clause in enumerate(watching):
                # keep the falsified watch second
                other = clause[0]
                if other == false:
                    other = clause[0] = clause[1]
                    clause[1] = false
                if value[other] > 0:
                    kept.append(clause)
                    continue
                for i in range(2, len(clause)):
                    lit = clause[i]
                    if value[lit] >= 0:
                        clause[1], clause[i] = lit, false
                        watches[lit].append(clause)
                        break
                else:
                    kept.append(clause)
                    if value[other] < 0:
                        kept += watching[k + 1:]
                        watches[false] = kept
                        return False
                    value[other], value[other ^ 1] = 1, -1
                    trail.append(other)
            watches[false] = kept
        return True

    def solve(self, assumptions: Sequence[int]) -> bool:
        """Is some model of the clauses true on every assumed root?

        Assumptions are root variables, negated for false.  The frames
        of the longest prefix shared with the last call stay; the rest
        are pushed and propagated one by one, and a conflict leaves the
        frames below it.  Decisions then go only to the atoms under the
        roots, false first, and are undone on exit.  That is enough:
        once those atoms are set without a conflict, propagation has
        given every node under the roots the value of its subformula,
        and every other node is a function of atoms that nothing has
        set, so the partial assignment extends to a model.
        """
        assumptions = list(assumptions)
        assumed = self._assumed
        keep = len(assumed)
        if assumptions[:keep] != assumed:
            # the shared prefix, by binary search over C-level slice compares
            low, keep = 0, min(keep, len(assumptions))
            while low < keep:
                middle = (low + keep + 1) // 2
                if assumptions[:middle] == assumed[:middle]:
                    low = middle
                else:
                    keep = middle - 1
            self._pop_frames(keep)
        value, trail, free = self._value, self._trail, self._free
        for lit in assumptions[keep:]:
            code = 2 * lit if lit > 0 else 1 - 2 * lit
            if value[code] < 0:
                return False
            if not value[code]:
                head = len(trail)
                self._assign(code)
                if not self._propagate(head):
                    self._undo(head)
                    return False
            free += [atom for atom in self._atoms_under[abs(lit)] if not value[2 * atom]]
            assumed.append(lit)
            self._frames.append((len(trail), len(free)))
        base = len(trail)
        # (trail length before, decision literal, position in `free`);
        # a positive decision is the second value tried
        levels: List[Tuple[int, int, int]] = []
        at = 0
        try:
            while True:
                while at < len(free) and value[2 * free[at]]:
                    at += 1
                if at == len(free):
                    return True
                levels.append((len(trail), 2 * free[at] + 1, at))
                self._assign(2 * free[at] + 1)
                while not self._propagate(levels[-1][0]):
                    while levels and not levels[-1][1] & 1:
                        levels.pop()
                    if not levels:
                        return False
                    start, decision, at = levels.pop()
                    self._undo(start)
                    levels.append((start, decision ^ 1, at))
                    self._assign(decision ^ 1)
        finally:
            self._undo(base)


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
    here, and answers by bitwise ANDs.  Above the cap `atoms` is None
    and the index owns one `_Solver`: every formula is translated once,
    here, to a root variable, and each question solves under the roots
    it names (with the goal's root negated for `entails`).  A greedy
    walk grows a state from `top` by `meet`: a kept set's mask, or the
    tuple of its roots above the cap; a `meet` on the state the solver
    last saw propagates only the root it adds.
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
            self.full_mask, self.top, self.masks = 0, (), {}
            self._solver = _Solver()
            self._roots = {pid: self._solver.root(f) for pid, f in self.formulas.items()}
            # each `extra` formula -> its root here, its model mask below the cap
            self._extra = {f: self._solver.root(f) for f in extra}
            return
        full = self.full_mask = self.top = (1 << (1 << len(atoms))) - 1
        pattern = _patterns(atoms)
        self.masks = {pid: _models(f, full, pattern) for pid, f in self.formulas.items()}
        self._extra = {f: _models(f, full, pattern) for f in extra}

    def same_models_key(self, pid: str) -> object:
        """Equal for premises with the same models (above the cap: equal
        formulas, which share a root variable)."""
        return self._roots[pid] if self.atoms is None else self.masks[pid]

    def meet(self, state, pid: str):
        """The state narrowed by premise `pid`, or None if they clash."""
        if self.atoms is None:
            grown = state + (self._roots[pid],)
            return grown if self._solver.solve(grown) else None
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
            return self._solver.solve([self._roots[pid] for pid in ids])
        return self.subset_mask(ids) != 0

    def entails(self, ids: Iterable[str], goal: Formula) -> bool:
        """Do the premises `ids` entail `goal`, one of the `extra` formulas?"""
        if self.atoms is None:
            roots = [self._roots[pid] for pid in ids]
            return not self._solver.solve(roots + [-self._extra[goal]])
        return self.subset_mask(ids) & ~self._extra[goal] == 0
