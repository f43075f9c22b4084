"""Command line front end.

Exit codes: 0 for success (and "yes" answers), 1 for "no" answers,
2 for unreadable input files and parse or validation problems, 3 for
exceeded caps or budgets.
Formulas are parsed and walked by loops, so nesting depth alone never
fails; a RecursionError still exits 3, as a guard, not a traceback.
Output is deterministic byte for byte: collections are sorted before
printing and nothing depends on hash order.

Each command takes only the resource caps it reads: extensions,
entails, models and conditional take --max-atoms and --max-extensions;
af, argue and atms take --max-atoms and --mus-budget; check and revise
take none.  A cap whose flag is not given comes from its environment
variable (INCONLOG_MAX_ATOMS, INCONLOG_MAX_EXTENSIONS or
INCONLOG_MUS_BUDGET), else from its default; a command never reads
the variable of a cap it does not take.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO, List, Optional, Sequence

from . import af as af_mod
from . import arguments, bridges, extensions, files, formulas, semantics, theory
from .errors import CapExceeded, InputError

# each cap's default, by the name of its flag's Namespace attribute
_CAP_DEFAULTS = {
    "max_atoms": formulas.DEFAULT_ATOM_CAP,
    "max_extensions": theory.DEFAULT_EXTENSION_CAP,
    "mus_budget": arguments.DEFAULT_SUBSET_BUDGET,
}


def _fill_caps(ns: argparse.Namespace) -> None:
    """Fill each cap the command takes and was not given by its flag:
    from its INCONLOG_* variable, else from its default."""
    for name, default in _CAP_DEFAULTS.items():
        if getattr(ns, name, default) is not None:
            continue
        var = "INCONLOG_" + name.upper()
        raw = os.environ.get(var)
        try:
            setattr(ns, name, default if raw is None else int(raw))
        except ValueError:
            raise InputError(f"{var} must be an integer, got {raw!r}") from None


def _load_valid(path: str) -> theory.ReliabilityTheory:
    loaded = files.load_theory(path)
    theory.ensure_valid(loaded)
    return loaded


def _format_id_set(ids) -> str:
    return " ".join(sorted(ids)) if ids else "(empty)"


def _format_atom_set(atoms) -> str:
    return "{" + ",".join(sorted(atoms)) + "}"


def _cmd_check(ns, out: IO[str]) -> int:
    loaded = files.load_theory(ns.file)
    report = theory.validate(loaded)
    for issue in report.issues:
        print(issue.describe(), file=out)
    for warning in report.warnings:
        print(f"warning: {warning}", file=out)
    if not report.ok:
        return 2
    print("valid", file=out)
    return 0


def _cmd_extensions(ns, out: IO[str]) -> int:
    t = _load_valid(ns.file)
    members = extensions.all_extensions(
        t, extension_cap=ns.max_extensions, max_atoms=ns.max_atoms
    )
    for line in sorted(_format_id_set(m) for m in members):
        print(line, file=out)
    print(f"(count: {len(members)})", file=out)
    return 0


def _cmd_entails(ns, out: IO[str]) -> int:
    t = _load_valid(ns.file)
    goal = formulas.parse_formula(ns.formula)
    ask = extensions.credulous_entails if ns.credulous else extensions.skeptical_entails
    answer = ask(
        t, goal, extension_cap=ns.max_extensions, max_atoms=ns.max_atoms
    )
    print("yes" if answer else "no", file=out)
    return 0 if answer else 1


def _cmd_models(ns, out: IO[str]) -> int:
    t = _load_valid(ns.file)
    models = semantics.preferred_models(
        t, max_atoms=ns.max_atoms, extension_cap=ns.max_extensions
    )
    for line in sorted(_format_atom_set(m) for m in models):
        print(line, file=out)
    return 0


def _cmd_conditional(ns, out: IO[str]) -> int:
    t = _load_valid(ns.file)
    alpha = formulas.parse_formula(ns.alpha)
    beta = formulas.parse_formula(ns.beta)
    answer = semantics.conditional(
        t, alpha, beta, extension_cap=ns.max_extensions, max_atoms=ns.max_atoms
    )
    print("yes" if answer else "no", file=out)
    return 0 if answer else 1


def _cmd_revise(ns, out: IO[str]) -> int:
    t = _load_valid(ns.file)
    alpha = formulas.parse_formula(ns.alpha)
    files.save_theory(semantics.revise(t, alpha), ns.output)
    return 0


def _cmd_af(ns, out: IO[str]) -> int:
    t = _load_valid(ns.file)
    if not ns.rule4:
        order = theory.first_linear_extension(t)
        framework = af_mod.linear_framework(
            t, order, budget=ns.mus_budget, max_atoms=ns.max_atoms
        )
        out.write(af_mod.render_af(framework))
        return 0
    framework = af_mod.partial_framework(
        t, budget=ns.mus_budget, max_atoms=ns.max_atoms
    )
    out.write(af_mod.render_af(framework))
    listed = []
    for ext in af_mod.stable_extensions(framework):
        ignored = af_mod.is_ignored(t, ext)
        if ignored and not ns.show_ignored:
            continue
        victims = {
            a.victim
            for a in ext.members
            if isinstance(a, arguments.UnderminingArgument)
        }
        survivors = _format_id_set(frozenset(t.ids) - victims)
        suffix = " (ignored)" if ignored else ""
        listed.append(f"stable: {survivors}{suffix}")
    for line in sorted(listed):
        print(line, file=out)
    return 0


def _cmd_argue(ns, out: IO[str]) -> int:
    t = _load_valid(ns.file)
    goal = formulas.parse_formula(ns.formula)
    trace: Optional[List[str]] = [] if ns.trace else None
    _, state = arguments.saturate(
        t,
        theory.first_linear_extension(t),
        trace=trace,
        budget=ns.mus_budget,
        max_atoms=ns.max_atoms,
    )
    if trace is not None:
        for line in trace:
            print(line, file=out)
    if not arguments.belief_holds(t, state, goal, max_atoms=ns.max_atoms):
        print("not believed", file=out)
        return 1
    found = arguments.supports(
        t, state, goal, budget=ns.mus_budget, max_atoms=ns.max_atoms
    )
    for line in sorted(arguments.format_argument(a) for a in found):
        print(line, file=out)
    return 0


def _cmd_atms(ns, out: IO[str]) -> int:
    problem = bridges.parse_atms(files.read_text(ns.file))
    if ns.node is not None:
        labels = bridges.atms_labels(
            problem, ns.node, budget=ns.mus_budget, max_atoms=ns.max_atoms
        )
        for line in sorted(_format_atom_set(s) for s in labels):
            print(line, file=out)
        return 0
    nogoods = bridges.atms_nogoods(
        problem, budget=ns.mus_budget, max_atoms=ns.max_atoms
    )
    for line in sorted(_format_atom_set(s) for s in nogoods):
        print(line, file=out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    def caps(*names: str) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        for name in names:
            parent.add_argument("--" + name.replace("_", "-"), type=int)
        return parent

    ordered = caps("max_atoms", "max_extensions")  # the extension search
    subsets = caps("max_atoms", "mus_budget")  # the subset-lattice sweep

    parser = argparse.ArgumentParser(
        prog="inconlog",
        description="Reason with inconsistent premises ordered by reliability.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("check", help="validate a theory file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = commands.add_parser(
        "extensions", parents=[ordered], help="most reliable consistent premise sets"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_extensions)

    p = commands.add_parser(
        "entails", parents=[ordered], help="skeptical (default) or credulous entailment"
    )
    p.add_argument("file")
    p.add_argument("formula")
    p.add_argument("--credulous", action="store_true")
    p.set_defaults(handler=_cmd_entails)

    p = commands.add_parser("models", parents=[ordered], help="preferred models")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_models)

    p = commands.add_parser(
        "conditional", parents=[ordered], help="does alpha reasonably imply beta"
    )
    p.add_argument("file")
    p.add_argument("alpha")
    p.add_argument("beta")
    p.set_defaults(handler=_cmd_conditional)

    p = commands.add_parser("revise", help="add alpha as the most reliable premise")
    p.add_argument("file")
    p.add_argument("alpha")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_revise)

    p = commands.add_parser(
        "af", parents=[subsets], help="argumentation framework export"
    )
    p.add_argument("file")
    p.add_argument("--rule4", action="store_true")
    p.add_argument("--show-ignored", action="store_true")
    p.set_defaults(handler=_cmd_af)

    p = commands.add_parser(
        "argue", parents=[subsets], help="minimal supporting arguments for a goal"
    )
    p.add_argument("file")
    p.add_argument("formula")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(handler=_cmd_argue)

    p = commands.add_parser("atms", parents=[subsets], help="ATMS labels and nogoods")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--node")
    group.add_argument("--nogoods", action="store_true")
    p.set_defaults(handler=_cmd_atms)

    return parser


# Built once per process: parse_args returns a fresh Namespace on every
# call and the caps are read per call, so no query state lives here.
_PARSER = _build_parser()


def run(argv: Sequence[str], out: Optional[IO[str]] = None) -> int:
    """Run one command; returns the exit code instead of raising SystemExit."""
    stream = out if out is not None else sys.stdout
    try:
        ns = _PARSER.parse_args(list(argv))
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        _fill_caps(ns)
        return ns.handler(ns, stream)
    except (InputError, OSError) as err:  # OSError: a missing or unreadable file
        print(f"error: {err}", file=stream)
        return 2
    except CapExceeded as err:
        print(f"error: {err}", file=stream)
        return 3
    except RecursionError:
        print("error: input nested too deeply (Python recursion limit)", file=stream)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
