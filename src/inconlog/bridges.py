"""Bridges to two older frameworks: modal categories and the ATMS.

Modal categories are reliability by another name: a sequence of layers
M_0, ..., M_n, most plausible first, where everything in an earlier
layer outranks everything in a later one and layers are internally
unordered.  Encoding the layers this way makes the extensions of the
resulting theory coincide with the preferred maximal consistent
subsets obtained by widening M_0 layer by layer.

An ATMS problem has assumption atoms, node atoms and justifications
(Horn implications from atoms to a node; "deny" justifications
conclude a negated node and stand in for the nogood constraints).
Encoded as a theory in which every justification outranks every
assumption, the classic notions fall out of the argument engine's
subset sweep over the assumptions, with the justifications J held as
hard constraints:

  label(n)  = minimal assumption sets A with A plus J entailing n
  nogoods   = minimal assumption sets A with A plus J unsatisfiable

By monotonicity these are the minimal assumption parts of the minimal
premise sets entailing n (or unsatisfiable).  Both are independent of
which linear extension is chosen, since supporting arguments and MUSes
never consult the order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import files, formulas
from .arguments import DEFAULT_SUBSET_BUDGET, minimal_subsets
from .errors import InputError, TheoryFormatError
from .formulas import Atom, Formula, Implies, Not, conj, DEFAULT_ATOM_CAP
from .theory import Premise, ReliabilityTheory


@dataclass(frozen=True)
class ModalCategories:
    """Layers of formulas, most plausible first."""

    layers: Tuple[FrozenSet[Formula], ...]


def from_modal_categories(categories: ModalCategories) -> ReliabilityTheory:
    """Layered theory: ids m{layer}_{k}, later layers below earlier ones.

    Formulas within a layer are numbered in rendering order so the
    result is deterministic; members of the same layer stay unordered.
    """
    premises: List[Premise] = []
    by_layer: List[List[str]] = []
    for i, layer in enumerate(categories.layers):
        ids_here = []
        ordered = sorted(layer, key=formulas.format_formula)
        for k, f in enumerate(ordered):
            pid = f"m{i}_{k}"
            premises.append(Premise(pid, f))
            ids_here.append(pid)
        by_layer.append(ids_here)
    pairs = set()
    for i, upper in enumerate(by_layer):
        for lower in by_layer[i + 1 :]:
            pairs.update((lo, up) for lo in lower for up in upper)
    return ReliabilityTheory(tuple(premises), frozenset(pairs))


@dataclass(frozen=True)
class Justification:
    body: FrozenSet[str]
    head: str
    deny: bool = False  # a deny justification concludes !head


class AtmsProblemError(InputError):
    """An ill-formed ATMS problem; `statement` is the offending atom or
    justification."""

    def __init__(self, message: str, statement: "str | Justification"):
        super().__init__(message)
        self.statement = statement


@dataclass(frozen=True)
class AtmsProblem:
    assumptions: FrozenSet[str]
    nodes: FrozenSet[str]
    justifications: Tuple[Justification, ...]

    def __post_init__(self):
        overlap = self.assumptions & self.nodes
        if overlap:
            message = f"atoms declared twice: {sorted(overlap)}"
            raise AtmsProblemError(message, min(overlap))
        known = self.assumptions | self.nodes
        for j in self.justifications:
            if j.head not in self.nodes:
                message = f"justification head {j.head!r} is not a node"
                raise AtmsProblemError(message, j)
            stray = j.body - known
            if stray:
                raise AtmsProblemError(f"unknown atoms in body: {sorted(stray)}", j)


def justification_formula(j: Justification) -> Formula:
    head: Formula = Atom(j.head)
    if j.deny:
        head = Not(head)
    if not j.body:
        return head
    body_atoms = sorted(j.body)
    body: Formula = Atom(body_atoms[0])
    for name in body_atoms[1:]:
        body = conj(body, Atom(name))
    return Implies(body, head)


def atms_encode(problem: AtmsProblem) -> ReliabilityTheory:
    """One premise per assumption and per justification.

    Assumptions keep their atom as id; justifications are numbered in
    declaration order as j1, j2, ..., with the stem lengthened by
    underscores (j_1, j__1, ...) until no number collides with an
    assumption.  Every assumption is less reliable than every
    justification, and that is the entire order.
    """
    premises: List[Premise] = [
        Premise(name, Atom(name)) for name in sorted(problem.assumptions)
    ]
    count = len(problem.justifications)
    stem = "j"
    while any(f"{stem}{k}" in problem.assumptions for k in range(1, count + 1)):
        stem += "_"
    just_ids: List[str] = []
    for k, j in enumerate(problem.justifications):
        pid = f"{stem}{k + 1}"
        premises.append(Premise(pid, justification_formula(j)))
        just_ids.append(pid)
    pairs = frozenset(
        (name, pid) for name in sorted(problem.assumptions) for pid in just_ids
    )
    return ReliabilityTheory(tuple(premises), pairs)


def _assumption_sweep(
    problem: AtmsProblem, goal: Optional[Formula], budget: int, max_atoms: int
) -> FrozenSet[FrozenSet[str]]:
    theory = atms_encode(problem)  # assumptions first, then justifications
    n = len(problem.assumptions)
    return minimal_subsets(
        theory.formulas_by_id(),
        theory.ids[:n],
        goal=goal,
        hard=theory.ids[n:],
        budget=budget,
        max_atoms=max_atoms,
    )


def atms_labels(
    problem: AtmsProblem,
    node: str,
    budget: int = DEFAULT_SUBSET_BUDGET,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> FrozenSet[FrozenSet[str]]:
    """Minimal supporting environments for a node, as assumption sets."""
    if node not in problem.nodes:
        raise InputError(f"unknown node {node!r}")
    return _assumption_sweep(problem, Atom(node), budget, max_atoms)


def atms_nogoods(
    problem: AtmsProblem,
    budget: int = DEFAULT_SUBSET_BUDGET,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> FrozenSet[FrozenSet[str]]:
    """Minimal assumption sets that can never hold together."""
    return _assumption_sweep(problem, None, budget, max_atoms)


# ------------------------------------------------------------ text format
#
# assume a1.
# node n.
# just a1, m -> n.
# deny a1, a2 -> n.
#
# Comment lines start with '#'; every statement ends with a period.


def parse_atms(text: str) -> AtmsProblem:
    assumptions: List[str] = []
    nodes: List[str] = []
    justifications: List[Justification] = []
    # atom -> the line that last declares it; justification -> its first line
    line_of: Dict["str | Justification", int] = {}
    for lineno, line in files.statement_lines(text):
        if not line.endswith("."):
            raise TheoryFormatError("statement must end with '.'", lineno)
        line = line[:-1].strip()
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword in ("assume", "node"):
            if not rest.isidentifier():
                raise TheoryFormatError(f"bad atom name {rest!r}", lineno)
            (assumptions if keyword == "assume" else nodes).append(rest)
            line_of[rest] = lineno
            continue
        if keyword in ("just", "deny"):
            body_text, arrow, head = rest.rpartition("->")
            if not arrow:
                raise TheoryFormatError("justification needs '->'", lineno)
            head = head.strip()
            body = [part.strip() for part in body_text.split(",") if part.strip()]
            for name in body + [head]:
                if not name.isidentifier():
                    raise TheoryFormatError(f"bad atom name {name!r}", lineno)
            justifications.append(
                Justification(frozenset(body), head, deny=keyword == "deny")
            )
            line_of.setdefault(justifications[-1], lineno)
            continue
        raise TheoryFormatError(f"unknown statement {keyword!r}", lineno)
    try:
        return AtmsProblem(
            frozenset(assumptions), frozenset(nodes), tuple(justifications)
        )
    except AtmsProblemError as err:
        raise TheoryFormatError(str(err), line_of[err.statement]) from err
