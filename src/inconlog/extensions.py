"""Most reliable consistent premise sets and the two entailment notions.

For one total order the most reliable set is built greedily: walk the
premises from most to least reliable and keep each one whose addition
leaves the collection satisfiable.  The extensions of a theory (the
extension set R) are the most reliable sets of all its linear
extensions; a goal is a skeptical consequence when every extension
entails it and a credulous one when some extension does.

`all_extensions` computes R without listing linear extensions:

1. Split the premises into components that share atoms.  A component
   that is consistent on its own joins every member of R: it is
   atom-disjoint from the rest, so it never blocks a premise and is
   never blocked.
2. The top chain t1 > t2 > ... of the other premises, each link above
   all of them not yet on the chain, comes first and in this order in
   every linear extension, so its order pairs tie nothing together.
   Split the other premises into blocks: two share a block when they
   share an atom or, both off the top chain, the order relates them
   (also through set-aside premises).  Blocks are atom-disjoint and
   ordered only through the top chain, so R is every union of the
   set-aside premises with one extension of each block.
3. Search each block's greedy states (placed, kept), held as bitsets,
   depth first: a premise can be placed once every more reliable block
   member is placed, and it is kept iff it stays consistent with the
   kept ones.  Each distinct state is expanded once; the kept sets of
   the complete states are the block's extensions.  Premises with the
   same models and the same place in the order are kept or dropped
   together, so they are searched as one unit.

The states of step 3 can grow exponentially with the number of
mutually unordered units in a block.  When a block's atoms fit the
atom cap and its search passes about (units + 1) * 2^atoms states, the
block is solved from its models instead: every member of R(block) is
exactly the premise set some interpretation satisfies, so each such
set is tested for whether an order can yield it.  A block whose atoms
fit the cap thus costs at most about twice that model route, however
wide it is.

The extension cap bounds that work: states and model groups visited
plus members built.  `extension_factors` returns R in this factored
form; `semantics.preferred_models` reads the preferred models off it.
Entailment runs steps 1-3 on the components that share an atom with
the goal and on nothing else, the rule `arguments.minimal_subsets`
applies too.  Every member of R is consistent, so a component apart
from the goal is atom-disjoint from the goal and from the rest of the
member: whichever of its extensions the member takes, the verdict is
the same.  Those components are not searched, indexed or charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .errors import ExtensionCapExceeded
from .formulas import (
    ConsistencyIndex,
    Formula,
    DEFAULT_ATOM_CAP,
    atom_links,
    atoms_of_all,
    connected_parts,
    positions_of,
)
from .theory import (
    DEFAULT_EXTENSION_CAP,
    ReliabilityTheory,
    TotalOrder,
    ensure_valid,
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


def most_reliable_set(
    theory: ReliabilityTheory,
    order: TotalOrder,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> FrozenSet[str]:
    """Greedy most-reliable-first consistent accumulation for one order."""
    index = ConsistencyIndex(theory.formulas_by_id(), max_atoms=max_atoms)
    kept, state = [], index.top
    for pid in order.ranking:
        grown = index.meet(state, pid)
        if grown is not None:
            kept.append(pid)
            state = grown
    return frozenset(kept)


class _Work:
    """Search states and model groups visited, held against the extension cap."""

    def __init__(self, cap: int):
        self.cap, self.states, self.blocks, self.finished = cap, 0, 0, 0

    def charge(self, states: int = 0, members: int = 0) -> None:
        self.states += states
        if self.states + members > self.cap:
            raise ExtensionCapExceeded(self.cap, self.states, self.finished, self.blocks, members)


def _state_budget(units: int, atoms: int, max_atoms: int) -> Optional[int]:
    # The model-group route costs about (units + 1) * 2^atoms steps; past
    # that many states the greedy-state search is the dearer one.
    return (units + 1) << atoms if atoms <= max_atoms else None


def _frontier(above: Dict[int, int]) -> List[int]:
    # upto[k]: the units with at most k units above.  With c units placed
    # only upto[c] can hold a placeable one (one, on a total order).
    upto = [0] * len(above)
    for i, up in above.items():
        upto[up.bit_count()] |= 1 << i
    for k in range(1, len(upto)):
        upto[k] |= upto[k - 1]
    return upto


def _greedy_states(
    index: ConsistencyIndex,
    ids: Sequence[str],
    units: int,
    above: Dict[int, int],
    work: _Work,
    budget: Optional[int],
) -> Optional[List[int]]:
    """Kept unit bitsets of the complete greedy states, or None past `budget`."""
    # kept bitset -> its index state, None if it clashes
    kept_state = {0: index.top}
    results = set()
    seen = {(0, 0)}
    stack, upto = [(0, 0)], _frontier(above)
    while stack:
        if budget is not None and len(seen) > budget:
            return None
        placed, kept = stack.pop()
        work.charge(states=1)
        if placed == units:
            results.add(kept)
            continue
        for i in positions_of(upto[placed.bit_count()] & ~placed):
            if above[i] & ~placed:
                continue
            bit = 1 << i
            grown = kept | bit
            if grown not in kept_state:
                kept_state[grown] = index.meet(kept_state[kept], ids[i])
            state = (placed | bit, kept if kept_state[grown] is None else grown)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return list(results)


def _realisable_groups(
    index: ConsistencyIndex,
    ids: Sequence[str],
    units: int,
    above: Dict[int, int],
    work: _Work,
) -> List[int]:
    """Bitsets of the satisfied premise sets that some order yields.

    A member of R(block) is maximal consistent, so it is exactly the
    premise set some interpretation satisfies.  That set is realisable
    when every premise can be placed: an in-set one whenever its more
    reliable premises are placed, an out-of-set one once the in-set
    premises placed so far refute it.  Placing only ever enables more
    placements, so the order of placement does not matter.
    """
    masks = {i: index.masks[ids[i]] for i in above}
    groups = {0: index.full_mask}
    for i, mask in masks.items():
        split: Dict[int, int] = {}
        for sat, models in groups.items():
            if models & mask:
                split[sat | 1 << i] = models & mask
            if models & ~mask:
                split[sat] = models & ~mask
        work.charge(states=len(split) - len(groups))
        groups = split
    realised, upto = [], _frontier(above)
    for sat in groups:
        placed, models, grew = 0, index.full_mask, True
        while grew and placed != units:
            grew = False
            for i in positions_of(upto[placed.bit_count()] & ~placed):
                if above[i] & ~placed:
                    continue
                bit = 1 << i
                if sat & bit:
                    models &= masks[i]
                elif models & masks[i]:
                    continue
                placed, grew = placed | bit, True
        if placed == units:
            realised.append(sat)
    return realised


def _search(
    theory: ReliabilityTheory,
    work: _Work,
    max_atoms: int,
    index: Optional[ConsistencyIndex] = None,
    goal: Optional[Formula] = None,
) -> Tuple[List[FrozenSet[str]], List[List[FrozenSet[str]]], ConsistencyIndex]:
    # Steps 1-3 of the module docstring, on bitsets over premise positions,
    # for the atom-connected parts that share an atom with `goal`, if any.
    ensure_valid(theory)
    bits, ids = theory.order_bits, theory.ids
    fs = [p.formula for p in theory.premises]
    links = atom_links(fs if goal is None else fs + [goal])
    parts = connected_parts((1 << len(ids)) - 1, links.__getitem__)
    if goal is not None:
        parts = [part for part in parts if part & links[-1]]
    if index is None:
        index = ConsistencyIndex(
            {ids[i]: fs[i] for i in positions_of(sum(parts))},
            extra=() if goal is None else (goal,),
            max_atoms=max_atoms,
        )
    fixed, free = [], 0
    for part in parts:
        # premise-position order, so the solver's work is the same under any hash seed
        members = [ids[i] for i in positions_of(part)]
        if index.consistent(members):
            fixed.append(frozenset(members))
        else:
            free |= part
    top, rest = 0, free
    for i in bits.ranking:
        if free >> i & 1:
            rest ^= 1 << i
            if bits.below[i] & rest != rest:
                break
            top |= 1 << i
    loose = free & ~top
    blocks = connected_parts(free, lambda i: links[i] | (
        (bits.above[i] | bits.below[i]) & loose if loose >> i & 1 else 0))
    work.blocks = len(blocks)
    per_block = []
    for block in blocks:
        # Premises with the same models (above the atom cap: formula) and
        # the same place in the block's order form a unit, kept or dropped
        # whole and named by the position of its first premise.
        groups: Dict[tuple, List[int]] = {}
        for i in positions_of(block):
            key = (index.same_models_key(ids[i]), bits.above[i] & block, bits.below[i] & block)
            groups.setdefault(key, []).append(i)
        members = {group[0]: group for group in groups.values()}
        units = sum(1 << i for i in members)
        above = {i: bits.above[i] & units for i in members}
        width = len(atoms_of_all(index.formulas[ids[i]] for i in members))
        budget = _state_budget(len(members), width, max_atoms)
        kept_sets = _greedy_states(index, ids, units, above, work, budget)
        if kept_sets is None:
            local = ConsistencyIndex(
                {ids[i]: index.formulas[ids[i]] for i in members}, max_atoms=max_atoms
            )
            kept_sets = _realisable_groups(local, ids, units, above, work)
        work.finished += 1
        per_block.append([
            frozenset(ids[j] for i in positions_of(kept) for j in members[i])
            for kept in kept_sets
        ])
    return fixed, per_block, index


def extension_factors(
    theory: ReliabilityTheory,
    extension_cap: int = DEFAULT_EXTENSION_CAP,
    max_atoms: int = DEFAULT_ATOM_CAP,
    index: Optional[ConsistencyIndex] = None,
) -> Tuple[FrozenSet[str], List[List[FrozenSet[str]]]]:
    """R in factored form: the set-aside premises and each block's extensions.

    R holds every union of the set-aside premises with one extension of
    each block.  `index`, when given, must cover the theory's premises;
    it saves building a second one.  Raises ExtensionCapExceeded when
    the search would take more than `extension_cap` steps.
    """
    fixed, per_block, _ = _search(theory, _Work(extension_cap), max_atoms, index)
    return frozenset().union(*fixed), per_block


def all_extensions(
    theory: ReliabilityTheory,
    extension_cap: int = DEFAULT_EXTENSION_CAP,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> ExtensionSet:
    """The distinct most reliable sets over every linear extension.

    Computed by the component, block and greedy-state steps of the
    module docstring; raises ExtensionCapExceeded when the steps taken
    plus the members built would exceed `extension_cap`.
    """
    work = _Work(extension_cap)
    parts, per_block, _ = _search(theory, work, max_atoms)
    work.charge(members=math.prod(len(options) for options in per_block))
    fixed = frozenset().union(*parts)
    return ExtensionSet(
        frozenset(fixed.union(*choice) for choice in product(*per_block))
    )


def _entails(theory, goal, extension_cap, max_atoms, verdict) -> bool:
    work = _Work(extension_cap)
    fixed, per_block, index = _search(theory, work, max_atoms, goal=goal)
    work.charge(members=math.prod(len(options) for options in per_block))
    kept = frozenset().union(*fixed)
    position = theory.order_bits.position
    return verdict(
        index.entails(sorted(kept.union(*choice), key=position.__getitem__), goal)
        for choice in product(*per_block)
    )


def skeptical_entails(
    theory: ReliabilityTheory,
    goal: Formula,
    extension_cap: int = DEFAULT_EXTENSION_CAP,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> bool:
    """True iff every extension classically entails the goal."""
    return _entails(theory, goal, extension_cap, max_atoms, all)


def credulous_entails(
    theory: ReliabilityTheory,
    goal: Formula,
    extension_cap: int = DEFAULT_EXTENSION_CAP,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> bool:
    """True iff at least one extension classically entails the goal."""
    return _entails(theory, goal, extension_cap, max_atoms, any)
