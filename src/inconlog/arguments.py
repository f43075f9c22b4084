"""Arguments for and against premises, and the believed premise set.

A supporting argument P => g records that premise set P entails goal
g.  An undermining argument P =/> v records that P together with
premise v is minimally unsatisfiable, so whoever accepts all of P must
drop v.  Undermining arguments come from the minimal unsatisfiable
subsets (MUSes) of the premise set: against a total reliability order
the least reliable member of each MUS is the one undermined; against
the bare partial order every minimally reliable member is.

MUSes and minimal supports come from one subset-lattice sweep,
`minimal_subsets`, which holds !goal and any fixed premises as hard
constraints.  A MUS, like a minimal support together with !goal, is
connected through shared atoms, so the sweep runs on each
atom-connected part on its own: its cost is exponential in the largest
part rather than in the whole premise set, and the subset budget
bounds that part.

Given the undermining arguments for a total order, the believed set is
the unique fixed point D = premises \\ out(D), where out(D) collects
the victims of arguments whose support lies inside D.  It is computed
by a single most-reliable-first sweep: each premise stays unless some
argument against it has all its support still standing.  The sweep
touches every argument at most once, so it costs on the order of
(number of arguments) * (premise count) literal operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from . import formulas
from .errors import SubsetBudgetExceeded
from .formulas import (
    ConsistencyIndex,
    Formula,
    DEFAULT_ATOM_CAP,
    atom_links,
    connected_parts,
    positions_of,
)
from .theory import ReliabilityTheory, TotalOrder, min_under, minimal_elements

DEFAULT_SUBSET_BUDGET = 24


@dataclass(frozen=True)
class SupportingArgument:
    support: FrozenSet[str]
    conclusion: Formula


@dataclass(frozen=True)
class UnderminingArgument:
    support: FrozenSet[str]
    victim: str

    def __post_init__(self):
        if self.victim in self.support:
            raise ValueError(f"victim {self.victim!r} inside its own support")


@dataclass(frozen=True)
class BeliefState:
    believed: FrozenSet[str]
    order: TotalOrder


def minimal_subsets(
    by_id: Mapping[str, Formula],
    ids: Iterable[str],
    goal: Optional[Formula] = None,
    hard: Tuple[str, ...] = (),
    budget: int = DEFAULT_SUBSET_BUDGET,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> FrozenSet[FrozenSet[str]]:
    """The minimal S within `ids` such that S plus `hard` entails `goal`.

    With `goal` None, S plus `hard` must be unsatisfiable instead.
    `hard` is in every tested set, never in an answer, and outside the
    budget.

    The searched ids, `hard` and !goal split into atom-connected parts.
    Parts share no atoms, so S plus `hard` plus !goal is unsatisfiable
    iff its share of some part is, and every minimal S lies inside one
    part: the answer is {frozenset()} when some part fails without any
    searched id, and otherwise the union of the parts' answers.  Each
    part gets its own oracle, so a part within the atom cap uses
    bitmasks whatever the whole.  A part whose searched ids all
    together do not fail is skipped; the others get an
    ascending-cardinality sweep over their subset lattice, skipping
    supersets of anything already found, so a survivor that passes at
    level k is minimal.  Every part holding searched ids is checked
    against the budget before any search.
    """
    ids, hard = tuple(ids), tuple(hard)
    items = ids + hard
    fs = [by_id[pid] for pid in items] + ([] if goal is None else [goal])
    plan = []
    for part in connected_parts((1 << len(fs)) - 1, atom_links(fs).__getitem__):
        at = positions_of(part)
        plan.append((
            tuple(ids[i] for i in at if i < len(ids)),
            tuple(items[i] for i in at if len(ids) <= i < len(items)),
            at[-1] == len(items),
        ))
    sizes = [len(searched) for searched, _, _ in plan if searched]
    if sizes and max(sizes) > budget:
        what = "MUS search" if goal is None else "support search"
        raise SubsetBudgetExceeded(what, budget, max(sizes), len(sizes))
    found: List[FrozenSet[str]] = []
    for searched, fixed, with_goal in plan:
        index = ConsistencyIndex(
            {pid: by_id[pid] for pid in searched + fixed},
            extra=(goal,) if with_goal else (),
            max_atoms=max_atoms,
        )

        def passes(subset: Tuple[str, ...]) -> bool:
            if with_goal:
                return index.entails(fixed + subset, goal)
            return not index.consistent(fixed + subset)

        if not passes(searched):
            continue
        mine: List[FrozenSet[str]] = []
        for size in range(len(searched) + 1):
            for combo in combinations(searched, size):
                subset = frozenset(combo)
                if any(small <= subset for small in mine):
                    continue
                if passes(combo):
                    if not combo:
                        return frozenset((subset,))
                    mine.append(subset)
        found.extend(mine)
    return frozenset(found)


def minimal_unsat_subsets(
    theory: ReliabilityTheory,
    budget: int = DEFAULT_SUBSET_BUDGET,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> FrozenSet[FrozenSet[str]]:
    """All minimal unsatisfiable premise subsets (MUSes), by premise id."""
    return minimal_subsets(
        theory.formulas_by_id(), theory.ids, budget=budget, max_atoms=max_atoms
    )


def undermining_args_linear(
    theory: ReliabilityTheory,
    order: TotalOrder,
    budget: int = DEFAULT_SUBSET_BUDGET,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> FrozenSet[UnderminingArgument]:
    """One argument per MUS, against its least reliable member."""
    out = set()
    for mus in minimal_unsat_subsets(theory, budget=budget, max_atoms=max_atoms):
        victim = min_under(order, mus)
        out.add(UnderminingArgument(mus - {victim}, victim))
    return frozenset(out)


def undermining_args_partial(
    theory: ReliabilityTheory,
    budget: int = DEFAULT_SUBSET_BUDGET,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> FrozenSet[UnderminingArgument]:
    """One argument per MUS per minimally reliable member."""
    out = set()
    for mus in minimal_unsat_subsets(theory, budget=budget, max_atoms=max_atoms):
        for victim in minimal_elements(theory, mus):
            out.add(UnderminingArgument(mus - {victim}, victim))
    return frozenset(out)


def out_set(
    args: Iterable[UnderminingArgument], premise_ids: Iterable[str]
) -> FrozenSet[str]:
    """Victims of arguments whose support lies inside the given set."""
    inside = set(premise_ids)
    return frozenset(a.victim for a in args if a.support <= inside)


def believed_premises(
    theory: ReliabilityTheory,
    args: Iterable[UnderminingArgument],
    order: TotalOrder,
) -> BeliefState:
    """Most-reliable-first sweep to the fixed point D = ids \\ out(D).

    Requires the arguments to come from the MUS construction for this
    order (each victim strictly less reliable than all of its support);
    that is what makes the fixed point unique and one sweep enough.
    """
    against: Dict[str, List[UnderminingArgument]] = {}
    for a in args:
        against.setdefault(a.victim, []).append(a)
    believed: Set[str] = set(theory.ids)
    for pid in order.ranking:
        for a in against.get(pid, ()):
            if a.support <= believed:
                believed.discard(pid)
                break
    return BeliefState(frozenset(believed), order)


def belief_holds(
    theory: ReliabilityTheory,
    state: BeliefState,
    goal: Formula,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> bool:
    """True iff the believed premises classically entail the goal.

    Decided part by part: `minimal_subsets` with the believed premises
    held fixed and nothing searched answers {frozenset()} exactly when
    they do.
    """
    by_id, believed = theory.formulas_by_id(), tuple(sorted(state.believed))
    return bool(minimal_subsets(by_id, (), goal, believed, max_atoms=max_atoms))


def minimal_entailing_subsets(
    by_id: Mapping[str, Formula],
    universe: Iterable[str],
    goal: Formula,
    budget: int = DEFAULT_SUBSET_BUDGET,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> FrozenSet[FrozenSet[str]]:
    """All subset-minimal id sets within `universe` entailing the goal."""
    return minimal_subsets(
        by_id, sorted(universe), goal=goal, budget=budget, max_atoms=max_atoms
    )


def supports(
    theory: ReliabilityTheory,
    state: BeliefState,
    goal: Formula,
    budget: int = DEFAULT_SUBSET_BUDGET,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> FrozenSet[SupportingArgument]:
    """All minimal supporting arguments for a believed goal.

    Raises ValueError when the goal is not believed at all; a believed
    goal always has at least one minimal support (the empty set, when
    the goal is a tautology).
    """
    subsets = minimal_entailing_subsets(
        theory.formulas_by_id(), state.believed, goal, budget=budget, max_atoms=max_atoms
    )
    if not subsets:
        raise ValueError(f"goal {formulas.format_formula(goal)!r} is not believed")
    return frozenset(SupportingArgument(s, goal) for s in subsets)


def believed_conclusions(
    args: Iterable[SupportingArgument], believed: FrozenSet[str]
) -> List[Formula]:
    """Single scan: conclusions of arguments whose support is believed."""
    seen = set()
    out = []
    for a in args:
        if a.support <= believed and a.conclusion not in seen:
            seen.add(a.conclusion)
            out.append(a.conclusion)
    return out


def premise_arguments(theory: ReliabilityTheory) -> List[SupportingArgument]:
    """The trivial argument {p} => formula(p) for every premise."""
    return [
        SupportingArgument(frozenset((p.id,)), p.formula) for p in theory.premises
    ]


def format_argument(arg: "SupportingArgument | UnderminingArgument") -> str:
    ids = ",".join(sorted(arg.support))
    if isinstance(arg, UnderminingArgument):
        return f"{{{ids}}} =/> {arg.victim}"
    return f"{{{ids}}} => {formulas.format_formula(arg.conclusion)}"


def saturate(
    theory: ReliabilityTheory,
    order: TotalOrder,
    trace: Optional[List[str]] = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> Tuple[FrozenSet[UnderminingArgument], BeliefState]:
    """Derive every undermining argument for the order, then the fixed point.

    With a trace list supplied, appends one line per derived argument
    (premise arguments first) and one line per believed-set
    recomputation as undermining arguments arrive; without one the
    fixed point is computed once.
    """
    args = undermining_args_linear(theory, order, budget=budget, max_atoms=max_atoms)
    if trace is None:
        return args, believed_premises(theory, args, order)
    trace.extend(format_argument(a) for a in premise_arguments(theory))
    accumulated: List[UnderminingArgument] = []
    state = believed_premises(theory, accumulated, order)
    for a in sorted(args, key=lambda a: (tuple(sorted(a.support)), a.victim)):
        accumulated.append(a)
        state = believed_premises(theory, accumulated, order)
        trace.append(format_argument(a))
        trace.append("believed: " + " ".join(sorted(state.believed)))
    return args, state
