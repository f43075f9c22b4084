"""Reliability theories: premises plus a strict partial order on them.

A theory pairs a finite premise set with a relation "is less reliable
than".  The stored pair set is whatever the caller supplied; the
transitive closure is taken implicitly everywhere the relation is
consulted, so the one real validity condition is that the closure is
irreflexive (no premise ends up less reliable than itself).

The closure is held as bitsets over the premise positions, computed
once per theory: a Kahn pass from the most reliable premise down, the
smallest id first, gives each premise the set above it and yields the
lexicographically least linear extension; a sweep back up the ranking
gives the sets below.  A premise on or below a cycle is never placed.

A linear extension lists all premise ids from most reliable to least
reliable, consistently with the order: whenever x is less reliable
than y, y appears first.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple
)

from . import formulas
from .errors import InvalidTheoryError
from .formulas import Formula, positions_of

DEFAULT_EXTENSION_CAP = 100_000

Pair = Tuple[str, str]


@dataclass(frozen=True)
class Premise:
    id: str
    formula: Formula


class OrderBits(NamedTuple):
    """An order's closure as bitsets over the positions of `names`:
    above[i]/below[i] hold the positions strictly more/less reliable
    than names[i].  `ranking` is the lexicographically least linear
    extension; `stuck` holds the positions on or below a cycle."""

    names: Tuple[str, ...]
    position: Dict[str, int]
    ranking: Tuple[int, ...]
    above: Tuple[int, ...]
    below: Tuple[int, ...]
    stuck: FrozenSet[int]


def order_bits(names: Sequence[str], pairs: Iterable[Pair]) -> OrderBits:
    """The closure of the (less, more) `pairs` over distinct `names`
    that include every id the pairs mention.  The only code that reads
    order pairs."""
    position = {name: i for i, name in enumerate(names)}
    lower: List[List[int]] = [[] for _ in names]
    waiting = [0] * len(names)
    for less, more in pairs:
        lower[position[more]].append(position[less])
        waiting[position[less]] += 1
    # Kahn's algorithm, smallest name first: a placed premise passes
    # itself and all above it on to the premises just below it.
    above, ranking = [0] * len(names), []
    heap = [(names[i], i) for i, count in enumerate(waiting) if not count]
    heapq.heapify(heap)
    while heap:
        i = heapq.heappop(heap)[1]
        ranking.append(i)
        passed = above[i] | 1 << i
        for j in lower[i]:
            above[j] |= passed
            waiting[j] -= 1
            if not waiting[j]:
                heapq.heappush(heap, (names[j], j))
    below = [0] * len(names)
    for i in reversed(ranking):
        for j in lower[i]:
            below[i] |= below[j] | 1 << j
    stuck = frozenset(range(len(names))).difference(ranking)
    return OrderBits(
        tuple(names), position, tuple(ranking), tuple(above), tuple(below), stuck
    )


@dataclass(frozen=True)
class ReliabilityTheory:
    """Premise sequence plus pairs (x, y) meaning x is less reliable than y."""

    premises: Tuple[Premise, ...]
    order: FrozenSet[Pair]

    @property
    def ids(self) -> Tuple[str, ...]:
        return tuple(p.id for p in self.premises)

    def formulas_by_id(self) -> Dict[str, Formula]:
        return {p.id: p.formula for p in self.premises}

    def formula_of(self, premise_id: str) -> Formula:
        for p in self.premises:
            if p.id == premise_id:
                return p.formula
        raise KeyError(premise_id)

    def atoms(self) -> FrozenSet[str]:
        return formulas.atoms_of_all(p.formula for p in self.premises)

    @functools.cached_property
    def order_bits(self) -> OrderBits:  # computed once per theory
        # premise positions first, then any undeclared id the order names
        names = dict.fromkeys(self.ids)
        names.update(dict.fromkeys(name for pair in self.order for name in pair))
        return order_bits(tuple(names), self.order)

    @functools.cached_property
    def structural_issues(self) -> Tuple[ValidationIssue, ...]:  # computed once per theory
        return _structural_issues(self)


def theory_of(
    premises: Mapping[str, "Formula | str"] | Iterable[Tuple[str, "Formula | str"]],
    order: Iterable[Pair] = (),
) -> ReliabilityTheory:
    """Convenience constructor; formula strings are parsed."""
    if isinstance(premises, Mapping):
        items = premises.items()
    else:
        items = premises
    built = tuple(
        Premise(pid, formulas.parse_formula(f) if isinstance(f, str) else f)
        for pid, f in items
    )
    return ReliabilityTheory(built, frozenset(order))


def closure_of(theory: ReliabilityTheory, keep: int = -1) -> FrozenSet[Pair]:
    """The closure's (less, more) pairs within the position bitset `keep`."""
    names, above = theory.order_bits.names, theory.order_bits.above
    return frozenset((names[x], names[y]) for x in range(len(names)) if keep >> x & 1
                     for y in positions_of(above[x] & keep))


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # "cycle", "dangling-id" or "duplicate-id"
    items: Tuple[str, ...]

    def describe(self) -> str:
        if self.kind == "cycle":
            return "cycle: " + " < ".join(self.items)
        if self.kind == "dangling-id":
            return f"dangling id: {self.items[0]}"
        return f"duplicate id: {self.items[0]}"


@dataclass(frozen=True)
class ValidationReport:
    issues: Tuple[ValidationIssue, ...]
    warnings: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues


def _find_cycle(theory: ReliabilityTheory) -> Optional[Tuple[str, ...]]:
    # Shortest edge path from the smallest id on a cycle back to itself.
    stuck = sorted(theory.order_bits.names[i] for i in theory.order_bits.stuck)
    if not stuck:
        return None
    edges: Dict[str, List[str]] = {}
    for x, y in sorted(theory.order):
        edges.setdefault(x, []).append(y)
    for start in stuck:
        frontier = [(start,)]
        seen = set()
        while frontier:
            path = frontier.pop(0)
            for nxt in edges.get(path[-1], ()):
                if nxt == start:
                    return path + (start,)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(path + (nxt,))
    return None


def _structural_issues(theory: ReliabilityTheory) -> Tuple[ValidationIssue, ...]:
    issues: List[ValidationIssue] = []
    seen: Set[str] = set()
    for p in theory.premises:
        if p.id in seen:
            issues.append(ValidationIssue("duplicate-id", (p.id,)))
        seen.add(p.id)
    # order_bits names every id the pairs mention: the pairs are scanned,
    # and only the offending ones sorted, when some id is undeclared
    undeclared = set(theory.order_bits.names) - seen
    if undeclared:
        dangling = (pair for pair in theory.order if not undeclared.isdisjoint(pair))
        for x, y in sorted(dangling):
            for name in (x, y):
                if name in undeclared:
                    issues.append(ValidationIssue("dangling-id", (name,)))
    cycle = _find_cycle(theory)
    if cycle is not None:
        issues.append(ValidationIssue("cycle", cycle))  # one witness is enough
    return tuple(issues)


def validate(theory: ReliabilityTheory) -> ValidationReport:
    """Structured validity report; never raises.

    Failures: duplicate premise ids, order pairs naming unknown ids,
    and any cycle in the order (equivalently, a reflexive pair in its
    transitive closure).  Individually unsatisfiable premises are only
    warned about: they can never enter a consistent premise set, but
    they do not make the theory ill-formed.
    """
    warnings = tuple(
        f"premise {p.id} is unsatisfiable"
        for p in theory.premises
        if not formulas.is_consistent((p.formula,))
    )
    return ValidationReport(theory.structural_issues, warnings)


def ensure_valid(theory: ReliabilityTheory) -> None:
    issues = theory.structural_issues
    if issues:
        raise InvalidTheoryError(issues[0].describe())


@dataclass(frozen=True)
class TotalOrder:
    """Premise ids from most reliable to least reliable."""

    ranking: Tuple[str, ...]

    def positions(self) -> Dict[str, int]:
        return {pid: i for i, pid in enumerate(self.ranking)}


def first_linear_extension(theory: ReliabilityTheory) -> TotalOrder:
    """The lexicographically least linear extension: the Kahn ranking."""
    ensure_valid(theory)
    bits = theory.order_bits
    return TotalOrder(tuple(bits.names[i] for i in bits.ranking))


def min_under(order: TotalOrder, ids: Iterable[str]) -> str:
    """Least reliable member of `ids` under a total order."""
    position = order.positions()
    chosen = None
    for pid in ids:
        if pid not in position:
            raise ValueError(f"id {pid!r} is not ranked")
        if chosen is None or position[pid] > position[chosen]:
            chosen = pid
    if chosen is None:
        raise ValueError("min_under of an empty id set")
    return chosen


def minimal_elements(theory: ReliabilityTheory, ids: Iterable[str]) -> FrozenSet[str]:
    """Members of `ids` with no strictly less reliable member among `ids`."""
    bits = theory.order_bits
    wanted = set(ids)
    mask = sum(1 << bits.position[pid] for pid in wanted)
    return frozenset(pid for pid in wanted if not bits.below[bits.position[pid]] & mask)
