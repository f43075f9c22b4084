"""Reasoning with inconsistent propositional premises ordered by reliability.

The library answers queries against a finite premise set carrying a
strict partial "less reliable than" order: which maximal consistent
premise sets survive when the most reliable premises win, what follows
from all of them (or some of them), which models the theory prefers,
and how the belief state shifts under suppositions and revision.  All
values are immutable and every function is pure, so theories and
results can be shared freely across threads.
"""

from .af import (
    ArgExtension,
    ArgumentationFramework,
    af_belief_state,
    build_af,
    grounded_extension,
    is_ignored,
    linear_framework,
    partial_framework,
    render_af,
    stable_extensions,
)
from .arguments import (
    BeliefState,
    SupportingArgument,
    UnderminingArgument,
    belief_holds,
    believed_conclusions,
    believed_premises,
    minimal_unsat_subsets,
    out_set,
    premise_arguments,
    saturate,
    supports,
    undermining_args_linear,
    undermining_args_partial,
)
from .bridges import (
    AtmsProblem,
    Justification,
    ModalCategories,
    atms_encode,
    atms_labels,
    atms_nogoods,
    from_modal_categories,
    parse_atms,
)
from .errors import (
    AtomCapExceeded,
    CapExceeded,
    ExtensionCapExceeded,
    FormulaSyntaxError,
    InputError,
    InvalidTheoryError,
    SearchBudgetExceeded,
    SubsetBudgetExceeded,
    TheoryFormatError,
)
from .extensions import (
    ExtensionSet,
    all_extensions,
    credulous_entails,
    most_reliable_set,
    skeptical_entails,
)
from .files import load_theory, parse_theory, render_theory, save_theory
from .formulas import (
    Atom,
    Formula,
    Implies,
    Interpretation,
    Not,
    all_interpretations,
    atoms_of,
    conj,
    disj,
    entails,
    evaluate,
    format_formula,
    is_consistent,
    is_tautology,
    parse_formula,
)
from .semantics import (
    PreferenceWitness,
    conditional,
    preference_witness,
    preferred_models,
    prefers,
    revise,
    satisfied_premises,
)
from .theory import (
    Premise,
    ReliabilityTheory,
    TotalOrder,
    ValidationIssue,
    ValidationReport,
    first_linear_extension,
    min_under,
    minimal_elements,
    theory_of,
    validate,
)

__version__ = "0.1.0"
