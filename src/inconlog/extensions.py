"""Most reliable consistent premise sets and the two entailment notions.

For one total order the most reliable set is built greedily: walk the
premises from most to least reliable and keep each one whose addition
leaves the collection satisfiable.  The extensions of a theory are the
most reliable sets of all its linear extensions; a goal is a skeptical
consequence when every extension entails it and a credulous one when
some extension does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator

from .errors import ExtensionCapExceeded
from .formulas import ConsistencyIndex, Formula, DEFAULT_ATOM_CAP
from .theory import (
    DEFAULT_EXTENSION_CAP,
    ReliabilityTheory,
    TotalOrder,
    ensure_valid,
    linear_extensions,
)


@dataclass(frozen=True)
class ExtensionSet:
    members: FrozenSet[FrozenSet[str]]

    def __iter__(self) -> Iterator[FrozenSet[str]]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item) -> bool:
        return item in self.members


def _greedy(index: ConsistencyIndex, ranking) -> FrozenSet[str]:
    if index.atoms is None:
        kept = []
        for pid in ranking:
            if index.consistent(kept + [pid]):
                kept.append(pid)
        return frozenset(kept)
    kept = []
    mask = index.full_mask
    for pid in ranking:
        joint = mask & index.masks[pid]
        if joint:
            mask = joint
            kept.append(pid)
    return frozenset(kept)


def most_reliable_set(
    theory: ReliabilityTheory,
    order: TotalOrder,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> FrozenSet[str]:
    """Greedy most-reliable-first consistent accumulation for one order."""
    index = ConsistencyIndex(theory.formulas_by_id(), max_atoms=max_atoms)
    return _greedy(index, order.ranking)


def all_extensions(
    theory: ReliabilityTheory,
    extension_cap: int = DEFAULT_EXTENSION_CAP,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> ExtensionSet:
    """The distinct most reliable sets over every linear extension.

    A satisfiable theory short-circuits to the single extension
    containing everything; only clashing theories pay for the
    enumeration (which refuses to exceed the extension cap).
    """
    ensure_valid(theory)
    index = ConsistencyIndex(theory.formulas_by_id(), max_atoms=max_atoms)
    if index.consistent(theory.ids):
        return ExtensionSet(frozenset((frozenset(theory.ids),)))
    members = set()
    for order in linear_extensions(theory, cap=extension_cap):
        members.add(_greedy(index, order.ranking))
    return ExtensionSet(frozenset(members))


def skeptical_entails(
    theory: ReliabilityTheory,
    goal: Formula,
    extension_cap: int = DEFAULT_EXTENSION_CAP,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> bool:
    """True iff every extension classically entails the goal."""
    index = ConsistencyIndex(
        theory.formulas_by_id(), extra=(goal,), max_atoms=max_atoms
    )
    return all(
        index.entails(member, goal)
        for member in all_extensions(theory, extension_cap, max_atoms)
    )


def credulous_entails(
    theory: ReliabilityTheory,
    goal: Formula,
    extension_cap: int = DEFAULT_EXTENSION_CAP,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> bool:
    """True iff at least one extension classically entails the goal."""
    index = ConsistencyIndex(
        theory.formulas_by_id(), extra=(goal,), max_atoms=max_atoms
    )
    return any(
        index.entails(member, goal)
        for member in all_extensions(theory, extension_cap, max_atoms)
    )
