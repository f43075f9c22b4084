"""Abstract argumentation view of a premise set.

Arguments are the supporting and undermining arguments of the argument
engine; an undermining argument attacks exactly the arguments whose
support uses its victim.  Supporting arguments never attack anything.

Built from the per-total-order construction the attack graph is
acyclic (attacks strictly descend in reliability), so the grounded
extension is the unique stable one and its victims carve out the
believed set.  Built from the bare partial order instead, several
stable extensions appear; each non-ignored one corresponds to a most
reliable consistent premise set.  An extension is ignored when taking
its undermining arguments at face value (every victim less reliable
than all of its support) cannot be reconciled with the theory's own
order, i.e. the union of the two relations has a cycle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple, Union

from . import formulas
from .arguments import (
    DEFAULT_SUBSET_BUDGET,
    SupportingArgument,
    UnderminingArgument,
    premise_arguments,
    undermining_args_linear,
    undermining_args_partial,
)
from .errors import SearchBudgetExceeded
from .formulas import DEFAULT_ATOM_CAP
from .theory import ReliabilityTheory, TotalOrder, order_bits

DEFAULT_SEARCH_BUDGET = 40

AfArgument = Union[SupportingArgument, UnderminingArgument]


def _sort_key(arg: AfArgument):
    if isinstance(arg, UnderminingArgument):
        return (1, tuple(sorted(arg.support)), arg.victim)
    return (0, tuple(sorted(arg.support)), formulas.format_formula(arg.conclusion))


@dataclass(frozen=True)
class ArgumentationFramework:
    arguments: Tuple[AfArgument, ...]
    attacks: FrozenSet[Tuple[AfArgument, AfArgument]]


@dataclass(frozen=True)
class ArgExtension:
    members: FrozenSet[AfArgument]
    status: str  # "grounded" or "stable"


def build_af(args: Iterable[AfArgument]) -> ArgumentationFramework:
    """Attack edges: underminer of v hits every argument using v."""
    ordered = tuple(sorted(set(args), key=_sort_key))
    attacks = frozenset(
        (a, b)
        for a in ordered
        if isinstance(a, UnderminingArgument)
        for b in ordered
        if a.victim in b.support
    )
    return ArgumentationFramework(ordered, attacks)


def linear_framework(
    theory: ReliabilityTheory,
    order: TotalOrder,
    budget: int = DEFAULT_SUBSET_BUDGET,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> ArgumentationFramework:
    """Premise arguments plus the per-total-order undermining arguments."""
    args: List[AfArgument] = list(premise_arguments(theory))
    args.extend(
        undermining_args_linear(theory, order, budget=budget, max_atoms=max_atoms)
    )
    return build_af(args)


def partial_framework(
    theory: ReliabilityTheory,
    budget: int = DEFAULT_SUBSET_BUDGET,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> ArgumentationFramework:
    """Premise arguments plus the partial-order undermining arguments."""
    args: List[AfArgument] = list(premise_arguments(theory))
    args.extend(
        undermining_args_partial(theory, budget=budget, max_atoms=max_atoms)
    )
    return build_af(args)


def grounded_extension(af: ArgumentationFramework) -> ArgExtension:
    """Least fixed point: accept the unattacked, discard their targets."""
    attackers: Dict[AfArgument, Set[AfArgument]] = {a: set() for a in af.arguments}
    for attacker, target in af.attacks:
        attackers[target].add(attacker)
    accepted: Set[AfArgument] = set()
    rejected: Set[AfArgument] = set()
    changed = True
    while changed:
        changed = False
        for arg in af.arguments:
            if arg in accepted or arg in rejected:
                continue
            if attackers[arg] <= rejected:
                accepted.add(arg)
                rejected.update(t for a, t in af.attacks if a == arg)
                changed = True
    return ArgExtension(frozenset(accepted), "grounded")


def stable_extensions(
    af: ArgumentationFramework, budget: int = DEFAULT_SEARCH_BUDGET
) -> FrozenSet[ArgExtension]:
    """All stable extensions, by backtracking over the attackers.

    Only undermining arguments ever attack, so a candidate is fixed by
    choosing which of them are in; the supporting arguments then join
    exactly when unattacked.  In/out labels are pushed depth-first with
    the conflict checks applied as soon as both ends are decided.
    """
    if len(af.arguments) > budget:
        raise SearchBudgetExceeded(budget, len(af.arguments))
    unders = [a for a in af.arguments if isinstance(a, UnderminingArgument)]
    passive = [a for a in af.arguments if not isinstance(a, UnderminingArgument)]
    hits: Dict[AfArgument, Set[AfArgument]] = {a: set() for a in af.arguments}
    hit_by: Dict[AfArgument, Set[AfArgument]] = {a: set() for a in af.arguments}
    for attacker, target in af.attacks:
        hits[attacker].add(target)
        hit_by[target].add(attacker)

    results: List[ArgExtension] = []
    label: Dict[UnderminingArgument, bool] = {}
    # choices[i]: the labels of unders[i] still to try, for the labels
    # of unders[:i] now set; the search is depth-first, "in" first
    choices: List[List[bool]] = []
    while True:
        i = len(choices)
        if i == len(unders):
            chosen = {u for u in unders if label[u]}
            # stable only if every outsider is attacked
            if all(label[u] or hit_by[u] & chosen for u in unders):
                members = set(chosen)
                members.update(p for p in passive if not (hit_by[p] & chosen))
                results.append(ArgExtension(frozenset(members), "stable"))
        else:
            arg = unders[i]
            conflict = any(
                label.get(other)
                for other in (hit_by[arg] | hits[arg])
                if isinstance(other, UnderminingArgument)
            )
            # taking it out only survives if something in can still attack it
            undecided_or_in = any(label.get(other, True) for other in hit_by[arg])
            choices.append([False] * undecided_or_in + [True] * (not conflict))
        while choices and not choices[-1]:
            choices.pop()
            label.pop(unders[len(choices)], None)
        if not choices:
            return frozenset(results)
        label[unders[len(choices) - 1]] = choices[-1].pop()


def is_ignored(theory: ReliabilityTheory, ext: ArgExtension) -> bool:
    """Would honouring the extension's arguments contradict the order?

    Each undermining argument in the extension asserts its victim to be
    less reliable than all of its support; the extension is ignored iff
    adding those pairs to the theory's order closes into a cycle.
    """
    induced = {
        (a.victim, pid)
        for a in ext.members
        if isinstance(a, UnderminingArgument)
        for pid in a.support
    }
    return bool(order_bits(theory.order_bits.names, theory.order | induced).stuck)


def af_belief_state(theory: ReliabilityTheory, ext: ArgExtension) -> FrozenSet[str]:
    """Premises surviving the extension's undermining arguments."""
    if is_ignored(theory, ext):
        raise ValueError("belief state of an ignored extension")
    victims = {
        a.victim for a in ext.members if isinstance(a, UnderminingArgument)
    }
    return frozenset(theory.ids) - victims


def argument_name(arg: AfArgument) -> str:
    """Short stable name for export: kind prefix plus content hash."""
    if isinstance(arg, UnderminingArgument):
        payload = "U|" + ",".join(sorted(arg.support)) + "|" + arg.victim
        prefix = "u"
    else:
        payload = (
            "S|"
            + ",".join(sorted(arg.support))
            + "|"
            + formulas.format_formula(arg.conclusion)
        )
        prefix = "s"
    return prefix + hashlib.sha1(payload.encode("utf-8")).hexdigest()[:10]


def render_af(af: ArgumentationFramework) -> str:
    """arg(NAME). and att(A,B). lines, each block sorted."""
    lines = sorted(f"arg({argument_name(a)})." for a in af.arguments)
    lines.extend(
        sorted(
            f"att({argument_name(a)},{argument_name(b)})." for a, b in af.attacks
        )
    )
    return "\n".join(lines) + ("\n" if lines else "")
