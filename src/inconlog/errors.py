"""Exception types shared across the package.

Two families matter to callers: input problems (bad syntax, invalid
theories) and resource guards (the deliberate caps on brute-force
search).  The CLI maps the first family to exit code 2 and the second
to exit code 3.  A formula's nesting depth is neither: parsing and
every walk over a formula are loops.
"""

from __future__ import annotations


class InputError(ValueError):
    """A problem with user-supplied input (syntax, ill-formed theory)."""


class FormulaSyntaxError(InputError):
    """Raised by the formula parser; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TheoryFormatError(InputError):
    """Raised by the theory/ATMS file readers; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidTheoryError(InputError):
    """An operation was asked to run on a theory that fails validation."""


class CapExceeded(RuntimeError):
    """Base class for the resource guards on exhaustive search."""


class AtomCapExceeded(CapExceeded):
    """Too many atoms for exhaustive interpretation enumeration.

    `layer` is "exhaustive-valuation" or "preferred-model", `limit` the
    atom cap and `atoms` the number of atoms asked for.
    """

    def __init__(self, layer: str, limit: int, atoms: int):
        super().__init__(f"{atoms} atoms exceed the {layer} cap of {limit}")
        self.layer, self.limit, self.atoms = layer, limit, atoms


class ExtensionCapExceeded(CapExceeded):
    """The extension search would exceed its limit of states plus members.

    `layer` is "extension search", `limit` the cap, `states` the states
    and model groups visited, `finished` of `blocks` the blocks searched
    to the end, and `members` the members of R about to be built (0
    while blocks are searched).
    """

    def __init__(self, limit: int, states: int, finished: int, blocks: int, members: int = 0):
        building = f", {members} members to build" if members else ""
        super().__init__(
            f"extension search: over the limit of {limit} states and members "
            f"({states} states visited, {finished} of {blocks} blocks finished{building})"
        )
        self.layer, self.limit = "extension search", limit
        self.states, self.finished, self.blocks, self.members = states, finished, blocks, members


class SubsetBudgetExceeded(CapExceeded):
    """Too many premises for subset-lattice search (MUS, minimal supports).

    The search runs on each atom-connected part of the searched premises
    (with the fixed premises and the goal) on its own, so the budget
    bounds the largest such part.  `layer` is "MUS search" or "support
    search", `limit` the budget, `size` the premise count of the largest
    part and `parts` the number of parts that hold searched premises.
    """

    def __init__(self, layer: str, limit: int, size: int, parts: int):
        super().__init__(
            f"{layer}: the largest atom-connected part has {size} premises, "
            f"over the budget of {limit} (parts searched: {parts})"
        )
        self.layer, self.limit, self.size, self.parts = layer, limit, size, parts


class SearchBudgetExceeded(CapExceeded):
    """Too many arguments for the stable-extension search.

    `layer` is "stable-extension search", `limit` the budget and
    `arguments` the number of arguments in the framework.
    """

    def __init__(self, limit: int, arguments: int):
        super().__init__(f"{arguments} arguments exceed the search budget of {limit}")
        self.layer, self.limit, self.arguments = "stable-extension search", limit, arguments
