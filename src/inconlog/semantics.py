"""Preferred models, conditional queries and revision.

Interpretations are compared by the premises they satisfy: M is less
preferred than N when their satisfied-premise sets differ and every
premise M alone satisfies is outweighed by some strictly more reliable
premise that N alone satisfies.  The preferred models of a theory are
the maximal interpretations under this relation, over exactly the
atoms that occur in the theory (plus any query atoms).  They are
exactly the models of the members of the extension set R, which is
how `preferred_models` computes them.

A conditional "alpha reasonably implies beta" is answered by adding
alpha as a fresh most reliable premise and asking whether beta is a
skeptical consequence of the result.  Revision reuses the same
construction and returns the rebuilt theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from . import formulas
from .errors import AtomCapExceeded
from .extensions import extension_factors, skeptical_entails
from .formulas import (
    ConsistencyIndex,
    Formula,
    Interpretation,
    DEFAULT_ATOM_CAP,
    interpretation_of_index,
    positions_of,
)
from .theory import (
    DEFAULT_EXTENSION_CAP,
    OrderBits,
    Premise,
    ReliabilityTheory,
    closure_of,
    ensure_valid,
)

REVISION_ID_STEM = "__revision"


def satisfied_premises(
    interpretation: Interpretation, theory: ReliabilityTheory
) -> FrozenSet[str]:
    """Ids of the premises the interpretation makes true."""
    return frozenset(
        p.id for p in theory.premises if formulas.evaluate(p.formula, interpretation)
    )


@dataclass(frozen=True)
class PreferenceWitness:
    """Why `more` beats `less`: each surplus premise of `less` is outweighed."""

    less: Interpretation
    more: Interpretation
    pairing: Tuple[Tuple[str, str], ...]  # (premise of less, more reliable premise of more)


def _premset_beats(
    winner: FrozenSet[str], loser: FrozenSet[str], bits: OrderBits
) -> Optional[List[Tuple[str, str]]]:
    if winner == loser:
        return None
    pairing = []
    surplus_winner = winner - loser
    for pid in sorted(loser - winner):
        above = bits.above[bits.position[pid]]
        match = next(
            (q for q in sorted(surplus_winner) if above >> bits.position[q] & 1), None
        )
        if match is None:
            return None
        pairing.append((pid, match))
    return pairing


def preference_witness(
    theory: ReliabilityTheory, less: Interpretation, more: Interpretation
) -> Optional[PreferenceWitness]:
    """A pairing witnessing less < more, or None when it does not hold."""
    pairing = _premset_beats(
        satisfied_premises(more, theory),
        satisfied_premises(less, theory),
        theory.order_bits,
    )
    if pairing is None:
        return None
    return PreferenceWitness(less, more, tuple(pairing))


def prefers(
    theory: ReliabilityTheory, less: Interpretation, more: Interpretation
) -> bool:
    """True iff `more` is strictly preferred over `less`."""
    return preference_witness(theory, less, more) is not None


def preferred_models(
    theory: ReliabilityTheory,
    extra_atoms: Iterable[str] = (),
    max_atoms: int = DEFAULT_ATOM_CAP,
    extension_cap: int = DEFAULT_EXTENSION_CAP,
) -> FrozenSet[Interpretation]:
    """All maximally preferred interpretations.

    The preferred models are exactly the models of the members of the
    extension set R, so their mask is the OR over R of each member's
    model mask.  R is taken in factored form (`extension_factors`):
    that OR is the mask of the set-aside premises ANDed, block by
    block, with the OR of the block's extensions' masks, decoded once.
    The search for R shares this function's index, so each premise's
    mask is computed once.  `prefers` stays the public relation; the
    extension cap bounds the search for R.
    """
    ensure_valid(theory)
    atoms = tuple(sorted(theory.atoms() | set(extra_atoms)))
    if len(atoms) > max_atoms:
        raise AtomCapExceeded("preferred-model", max_atoms, len(atoms))
    index = ConsistencyIndex(
        theory.formulas_by_id(),
        extra=tuple(formulas.Atom(a) for a in atoms),
        max_atoms=max_atoms,
    )
    fixed, per_block = extension_factors(theory, extension_cap, max_atoms, index)
    mask = index.subset_mask(fixed)
    for options in per_block:
        union = 0
        for member in options:
            union |= index.subset_mask(member)
        mask &= union
    return frozenset(interpretation_of_index(k, atoms) for k in positions_of(mask))


def revise(theory: ReliabilityTheory, alpha: Formula) -> ReliabilityTheory:
    """Rebuild the theory with alpha as the strictly most reliable premise.

    Any premise whose formula is syntactically alpha is replaced; order
    pairs are restricted to the surviving premises (after transitive
    closure, so comparisons that merely passed through alpha survive)
    and every survivor is placed below the fresh premise.
    """
    ensure_valid(theory)
    # a valid theory's premises hold the first positions of its order
    keep = sum(1 << i for i, p in enumerate(theory.premises) if p.formula != alpha)
    kept = tuple(theory.premises[i] for i in positions_of(keep))
    kept_ids = {p.id for p in kept}
    serial = 0
    while f"{REVISION_ID_STEM}_{serial}" in kept_ids:
        serial += 1
    new_id = f"{REVISION_ID_STEM}_{serial}"
    pairs = closure_of(theory, keep).union((pid, new_id) for pid in kept_ids)
    return ReliabilityTheory(kept + (Premise(new_id, alpha),), pairs)


def conditional(
    theory: ReliabilityTheory,
    alpha: Formula,
    beta: Formula,
    extension_cap: int = DEFAULT_EXTENSION_CAP,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> bool:
    """Does assuming alpha (as most reliable) make beta skeptically follow?"""
    return skeptical_entails(
        revise(theory, alpha), beta, extension_cap=extension_cap, max_atoms=max_atoms
    )
