"""Shared randomized generators and naive reference implementations.

The reference implementations here are deliberately the dumbest
correct algorithms available (permutation filters, full subset scans,
pairwise dominance checks).  The fast library code is tested against
them, and the frozen expected values in the unit tests were computed
with them.
"""

from __future__ import annotations

import random
import re
from itertools import combinations, permutations
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

from inconlog import formulas
from inconlog.af import ArgumentationFramework
from inconlog.arguments import UnderminingArgument
from inconlog.errors import FormulaSyntaxError
from inconlog.formulas import Atom, Formula, Implies, Not
from inconlog.theory import Premise, ReliabilityTheory, TotalOrder


# ------------------------------------------------------------- generators


def random_formula(rng: random.Random, atoms: Sequence[str], depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_formula(rng, atoms, depth - 1))
    left = random_formula(rng, atoms, depth - 1)
    right = random_formula(rng, atoms, depth - 1)
    if kind == 1:
        return Implies(left, right)
    if kind == 2:
        return formulas.conj(left, right)
    return formulas.disj(left, right)


def random_order_pairs(
    rng: random.Random, ids: Sequence[str], prob: float
) -> Set[Tuple[str, str]]:
    """A random strict partial order: orient pairs along a hidden shuffle."""
    shuffled = list(ids)
    rng.shuffle(shuffled)
    rank = {pid: i for i, pid in enumerate(shuffled)}
    pairs = set()
    for a, b in combinations(ids, 2):
        if rng.random() < prob:
            pairs.add((a, b) if rank[a] < rank[b] else (b, a))
    return pairs


def shaped_order_pairs(
    rng: random.Random, ids: Sequence[str], shape: str
) -> Set[Tuple[str, str]]:
    """Cover pairs of a "layered", "diamond" or "two-chain" order over
    `ids`, most reliable first: orders where a premise can have several
    covers, or none in common with its neighbours in `ids`."""
    pairs = set()
    if shape == "layered":
        layers, rest = [], list(ids)
        while rest:
            width = rng.randint(1, 3)
            layers.append(rest[:width])
            rest = rest[width:]
        for upper, lower in zip(layers, layers[1:]):
            pairs.update((x, y) for x in lower for y in upper if rng.random() < 0.7)
    elif shape == "diamond":
        # each top above two middles, both above the next top
        for i in range(0, len(ids) - 3, 3):
            top, left, right, bottom = ids[i:i + 4]
            pairs |= {(left, top), (right, top), (bottom, left), (bottom, right)}
    else:
        for chain in (ids[0::2], ids[1::2]):
            pairs.update(zip(chain[1:], chain))
    return pairs


def random_theory(
    rng: random.Random,
    n_premises: int,
    atoms: Sequence[str],
    order_prob: float = 0.4,
    depth: int = 2,
) -> ReliabilityTheory:
    ids = [f"p{i}" for i in range(1, n_premises + 1)]
    premises = tuple(
        Premise(pid, random_formula(rng, atoms, depth)) for pid in ids
    )
    return ReliabilityTheory(premises, frozenset(random_order_pairs(rng, ids, order_prob)))


def all_strict_partial_orders(ids: Sequence[str]) -> List[FrozenSet[Tuple[str, str]]]:
    """Every irreflexive transitive relation over ids, by filtering."""
    slots = [(a, b) for a in ids for b in ids if a != b]
    out = []
    for bits in range(1 << len(slots)):
        rel = {slots[i] for i in range(len(slots)) if bits >> i & 1}
        if any((b, a) in rel for a, b in rel):
            continue
        if any(
            (a, c) not in rel
            for a, b in rel
            for b2, c in rel
            if b == b2 and a != c
        ):
            continue
        out.append(frozenset(rel))
    return out


# ------------------------------------------------------ reference parser

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
                out = formulas.disj(out, self.conjunction())
            else:
                return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "&":
                self.take()
                out = formulas.conj(out, self.unary())
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


def reference_parse(text: str) -> Formula:
    """The recursive-descent parser that `formulas.parse_formula`
    replaced; bounded by the recursion limit, so for shallow input only."""
    return _Parser(text).parse()


# ---------------------------------------------------------------- oracles


def oracle_linear_extensions(theory: ReliabilityTheory) -> List[Tuple[str, ...]]:
    """Permutation filter: keep orderings that respect every pair."""
    out = []
    for perm in permutations(sorted(theory.ids)):
        pos = {pid: i for i, pid in enumerate(perm)}
        if all(pos[more] < pos[less] for less, more in theory.order):
            out.append(perm)
    return out


def linear_extensions(theory: ReliabilityTheory) -> List[TotalOrder]:
    """Every linear extension, lexicographically, as total orders."""
    return [TotalOrder(perm) for perm in oracle_linear_extensions(theory)]


def transitive_closure(pairs: Iterable[Tuple[str, str]]) -> FrozenSet[Tuple[str, str]]:
    """Warshall closure of an arbitrary pair set."""
    reach: Dict[str, Set[str]] = {}
    nodes: Set[str] = set()
    for x, y in pairs:
        reach.setdefault(x, set()).add(y)
        nodes.add(x)
        nodes.add(y)
    for via in nodes:
        targets = reach.get(via)
        if not targets:
            continue
        for x in nodes:
            mine = reach.get(x)
            if mine and via in mine:
                mine |= targets
    return frozenset((x, y) for x, ys in reach.items() for y in ys)


def oracle_greedy(theory: ReliabilityTheory, ranking: Sequence[str]) -> FrozenSet[str]:
    by_id = theory.formulas_by_id()
    kept: List[str] = []
    for pid in ranking:
        if formulas.is_consistent([by_id[k] for k in kept] + [by_id[pid]]):
            kept.append(pid)
    return frozenset(kept)


def oracle_extensions(theory: ReliabilityTheory) -> FrozenSet[FrozenSet[str]]:
    return frozenset(
        oracle_greedy(theory, perm) for perm in oracle_linear_extensions(theory)
    )


def oracle_muses(theory: ReliabilityTheory) -> FrozenSet[FrozenSet[str]]:
    """Scan every subset; keep the unsatisfiable ones with no unsat proper subset."""
    by_id = theory.formulas_by_id()
    ids = list(theory.ids)
    unsat = []
    for size in range(len(ids) + 1):
        for combo in combinations(ids, size):
            if not formulas.is_consistent([by_id[pid] for pid in combo]):
                unsat.append(frozenset(combo))
    return frozenset(
        s for s in unsat if not any(other < s for other in unsat)
    )


def oracle_fixed_points(
    ids: Sequence[str], args: Iterable[UnderminingArgument]
) -> List[FrozenSet[str]]:
    """Every S with S = ids \\ out(S), by scanning all 2^n subsets."""
    arg_list = list(args)
    order = list(ids)
    index = {pid: i for i, pid in enumerate(order)}
    packed = [
        (sum(1 << index[pid] for pid in a.support), index[a.victim]) for a in arg_list
    ]
    full = (1 << len(order)) - 1
    out = []
    for mask in range(1 << len(order)):
        removed = 0
        for support, victim in packed:
            if support & ~mask == 0:
                removed |= 1 << victim
        if mask == full & ~removed:
            out.append(frozenset(order[i] for i in range(len(order)) if mask >> i & 1))
    return out


def oracle_minimal_entailing(
    by_id: Mapping[str, Formula], universe: Iterable[str], goal: Formula
) -> FrozenSet[FrozenSet[str]]:
    ids = sorted(universe)
    entailing = []
    for size in range(len(ids) + 1):
        for combo in combinations(ids, size):
            if formulas.entails([by_id[pid] for pid in combo], goal):
                entailing.append(frozenset(combo))
    return frozenset(
        s for s in entailing if not any(other < s for other in entailing)
    )


def oracle_stable(af: ArgumentationFramework) -> FrozenSet[FrozenSet]:
    """Definitional check over every subset of arguments."""
    args = list(af.arguments)
    results = []
    for size in range(len(args) + 1):
        for combo in combinations(args, size):
            chosen = frozenset(combo)
            if any((a, b) in af.attacks for a in chosen for b in chosen):
                continue
            outside = [a for a in args if a not in chosen]
            if all(
                any((a, b) in af.attacks for a in chosen) for b in outside
            ):
                results.append(chosen)
    return frozenset(results)


def oracle_preferred(theory: ReliabilityTheory) -> FrozenSet[FrozenSet[str]]:
    """Pairwise dominance over every interpretation of the theory's atoms."""
    from inconlog.semantics import prefers

    interps = formulas.all_interpretations(theory.atoms())
    return frozenset(
        m for m in interps if not any(prefers(theory, m, n) for n in interps)
    )


def oracle_pmmc(layers: Sequence[Iterable[Formula]]) -> FrozenSet[FrozenSet[Formula]]:
    """Layer-by-layer maximal consistent widening, all branches."""
    states: List[FrozenSet[Formula]] = [frozenset()]
    for layer in layers:
        pool = sorted(set(layer), key=formulas.format_formula)
        next_states: Set[FrozenSet[Formula]] = set()
        for state in states:
            grown = []
            for size in range(len(pool), -1, -1):
                for combo in combinations(pool, size):
                    candidate = state | frozenset(combo)
                    if any(candidate <= g for g in grown):
                        continue
                    if formulas.is_consistent(candidate):
                        grown.append(candidate)
            next_states.update(grown)
        states = sorted(next_states, key=lambda s: sorted(map(formulas.format_formula, s)))
    return frozenset(states)
