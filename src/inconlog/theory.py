"""Reliability theories: premises plus a strict partial order on them.

A theory pairs a finite premise set with a relation "is less reliable
than".  The stored pair set is whatever the caller supplied; the
transitive closure is taken implicitly everywhere the relation is
consulted, so the one real validity condition is that the closure is
irreflexive (no premise ends up less reliable than itself).

A linear extension lists all premise ids from most reliable to least
reliable, consistently with the order: whenever x is less reliable
than y, y appears first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

from . import formulas
from .errors import ExtensionCapExceeded, InvalidTheoryError
from .formulas import Formula

DEFAULT_EXTENSION_CAP = 100_000

Pair = Tuple[str, str]


@dataclass(frozen=True)
class Premise:
    id: str
    formula: Formula


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
    def closure(self) -> FrozenSet[Pair]:  # computed once per theory
        return transitive_closure(self.order)


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


def transitive_closure(pairs: Iterable[Pair]) -> FrozenSet[Pair]:
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


def closure_of(theory: ReliabilityTheory) -> FrozenSet[Pair]:
    return theory.closure


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


def _find_cycle(pairs: FrozenSet[Pair], start: str) -> Tuple[str, ...]:
    # Shortest edge path from start back to itself, for the report.
    edges: Dict[str, List[str]] = {}
    for x, y in sorted(pairs):
        edges.setdefault(x, []).append(y)
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
    return (start, start)


def _structural_issues(theory: ReliabilityTheory) -> Tuple[ValidationIssue, ...]:
    issues: List[ValidationIssue] = []
    seen: Set[str] = set()
    for p in theory.premises:
        if p.id in seen:
            issues.append(ValidationIssue("duplicate-id", (p.id,)))
        seen.add(p.id)
    declared = set(theory.ids)
    for x, y in sorted(theory.order):
        for name in (x, y):
            if name not in declared:
                issues.append(ValidationIssue("dangling-id", (name,)))
    cyclic = sorted({x for x, y in theory.closure if x == y})
    for node in cyclic:
        issues.append(ValidationIssue("cycle", _find_cycle(theory.order, node)))
        break  # one witness is enough
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
    return ValidationReport(_structural_issues(theory), warnings)


def ensure_valid(theory: ReliabilityTheory) -> None:
    issues = _structural_issues(theory)
    if issues:
        raise InvalidTheoryError(issues[0].describe())


@dataclass(frozen=True)
class TotalOrder:
    """Premise ids from most reliable to least reliable."""

    ranking: Tuple[str, ...]

    def positions(self) -> Dict[str, int]:
        return {pid: i for i, pid in enumerate(self.ranking)}


def linear_extensions(
    theory: ReliabilityTheory, cap: int = DEFAULT_EXTENSION_CAP
) -> List[TotalOrder]:
    """All linear extensions of the reliability order, lexicographic.

    Generated by repeatedly placing, in id order, any premise whose
    more-reliable successors have all been placed already.  Refuses to
    produce more than `cap` orderings.
    """
    ensure_valid(theory)
    ids = sorted(theory.ids)
    above: Dict[str, Set[str]] = {pid: set() for pid in ids}
    for less, more in theory.order:
        above[less].add(more)

    results: List[TotalOrder] = []
    placed: List[str] = []
    placed_set: Set[str] = set()

    def descend() -> None:
        if len(placed) == len(ids):
            if len(results) >= cap:
                raise ExtensionCapExceeded(
                    f"more than {cap} linear extensions"
                )
            results.append(TotalOrder(tuple(placed)))
            return
        for pid in ids:
            if pid not in placed_set and above[pid] <= placed_set:
                placed.append(pid)
                placed_set.add(pid)
                descend()
                placed.pop()
                placed_set.remove(pid)

    descend()
    return results


def first_linear_extension(theory: ReliabilityTheory) -> TotalOrder:
    """The lexicographically least linear extension, without enumeration."""
    ensure_valid(theory)
    ids = sorted(theory.ids)
    above: Dict[str, Set[str]] = {pid: set() for pid in ids}
    for less, more in theory.order:
        above[less].add(more)
    placed: List[str] = []
    placed_set: Set[str] = set()
    while len(placed) < len(ids):
        for pid in ids:
            if pid not in placed_set and above[pid] <= placed_set:
                placed.append(pid)
                placed_set.add(pid)
                break
    return TotalOrder(tuple(placed))


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
    wanted = set(ids)
    closure = closure_of(theory)
    return frozenset(
        x for x in wanted if not any((y, x) in closure for y in wanted if y != x)
    )
