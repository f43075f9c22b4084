"""Expected answers, computed outside the timed region.

Inputs within reach of the brute-force oracles in tests/util.py
(permutation greedy, full subset scan, pairwise dominance) are answered
by those oracles, imported from the repository's tests.  Families out of
their reach are answered from the facts their generator guarantees by
construction; wherever a construction family also has members within
oracle reach, the two are compared first, and a disagreement stops the
benchmark as a fault of the benchmark itself.

An `Expected` renders the exact stdout (and, for `revise -o`, the
written file) for one atom tag, since every pass uses fresh atom names.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import util  # tests/util.py
from inconlog import af as af_mod
from inconlog import bridges, files, formulas
from inconlog.af import ArgumentationFramework
from inconlog.arguments import SupportingArgument, UnderminingArgument
from inconlog.theory import Premise, ReliabilityTheory

from gen import Query, Template, closure

REVISION_ID = "__revision_0"
# Oracle reach used to confirm construction facts (premises or atoms).
CROSS_CHECK_SIZE = 12


class BenchmarkFault(RuntimeError):
    """A construction disagrees with an oracle: the benchmark is wrong."""


@dataclass
class Expected:
    rc: int
    stdout: Callable[[str], str]
    written: Optional[Callable[[str], str]] = None  # revise -o output


def _fixed(rc: int, lines: Iterable[str]) -> Expected:
    text = "".join(line + "\n" for line in lines)
    return Expected(rc, lambda tag: text.replace("@", tag))


def _yes_no(answer: bool) -> Expected:
    return _fixed(0 if answer else 1, ["yes" if answer else "no"])


def _atom_sets(sets: Iterable[FrozenSet[str]]) -> Expected:
    frozen = list(sets)
    return Expected(0, lambda tag: "".join(
        line + "\n" for line in sorted(
            "{" + ",".join(sorted(tag + a for a in s)) + "}" for s in frozen)))


def _extension_lines(members: Iterable[FrozenSet[str]]) -> List[str]:
    members = list(members)
    lines = sorted(" ".join(sorted(m)) if m else "(empty)" for m in members)
    return lines + [f"(count: {len(members)})"]


def _minimal(sets: Iterable[FrozenSet[str]]) -> FrozenSet[FrozenSet[str]]:
    pool = set(sets)
    return frozenset(s for s in pool if not any(o < s for o in pool))


def _check(what: str, construction, oracle) -> None:
    if construction != oracle:
        raise BenchmarkFault(f"{what}: construction {construction!r} != oracle {oracle!r}")


def theory_of(t: Template, tag: str = "") -> ReliabilityTheory:
    return files.parse_theory(t.text.replace("@", tag))


def linear_extensions(th: ReliabilityTheory) -> List[Tuple[str, ...]]:
    """All linear extensions, most reliable first, by depth-first placement.

    Used in place of util.oracle_linear_extensions where n! permutations are
    out of reach; the two are compared on every theory small enough.
    """
    ids = sorted(th.ids)
    above = {pid: set() for pid in ids}
    for less, more in th.order:
        above[less].add(more)
    out: List[Tuple[str, ...]] = []

    def place(done: Tuple[str, ...], left: FrozenSet[str]) -> None:
        if not left:
            out.append(done)
        for pid in sorted(left):
            if above[pid] <= set(done):
                place(done + (pid,), left - {pid})

    place((), frozenset(ids))
    if len(ids) <= 7:
        _check("linear extensions", sorted(out), sorted(util.oracle_linear_extensions(th)))
    return out


def _revised(th: ReliabilityTheory, alpha: formulas.Formula) -> ReliabilityTheory:
    kept = tuple(p for p in th.premises if p.formula != alpha)
    ids = {p.id for p in kept}
    pairs = {(x, y) for x, y in closure(th.order) if x in ids and y in ids}
    pairs |= {(pid, REVISION_ID) for pid in ids}
    return ReliabilityTheory(kept + (Premise(REVISION_ID, alpha),), frozenset(pairs))


def _oracle_extensions(th: ReliabilityTheory) -> FrozenSet[FrozenSet[str]]:
    return frozenset(util.oracle_greedy(th, le) for le in linear_extensions(th))


def _skeptical(th, members, goal) -> bool:
    by_id = th.formulas_by_id()
    return all(formulas.entails([by_id[p] for p in m], goal) for m in members)


def _credulous(th, members, goal) -> bool:
    by_id = th.formulas_by_id()
    return any(formulas.entails([by_id[p] for p in m], goal) for m in members)


# ---------------------------------------------------------- belief queries


def _belief(q: Query, memo: Dict) -> Expected:
    t = q.template
    th = theory_of(t)
    command, args = q.args[0], q.args[2:]
    if command == "models":
        return _atom_sets(_preferred(t, th))
    if "R" not in memo:
        memo["R"] = _belief_extensions(t, th)
    members = memo["R"]
    parse = lambda text: formulas.parse_formula(text.replace("@", ""))
    if command == "extensions":
        return _fixed(0, _extension_lines(members))
    if command == "entails":
        ask = _credulous if "--credulous" in args else _skeptical
        return _yes_no(ask(th, members, parse(args[0])))
    if command == "conditional":
        revised = _revised(th, parse(args[0]))
        if t.family == "antichain":
            # Replacing c with a top premise c drops !c everywhere.
            neg = t.facts["clash"][1]
            again = frozenset([frozenset(set(th.ids) - {t.facts["clash"][0], neg} | {REVISION_ID})])
            if len(th.ids) <= 6:
                _check(t.name + " conditional", again, _oracle_extensions(revised))
            return _yes_no(_skeptical(revised, again, parse(args[1])))
        return _yes_no(_skeptical(revised, _oracle_extensions(revised), parse(args[1])))
    raise ValueError(command)


def _belief_extensions(t: Template, th: ReliabilityTheory):
    if t.family != "antichain":
        return _oracle_extensions(th)
    everyone = set(th.ids)
    built = frozenset(frozenset(everyone - {pid}) for pid in t.facts["clash"])
    if t.premises <= 6:
        _check(t.name, built, _oracle_extensions(th))
    return built


def _preferred(t: Template, th: ReliabilityTheory):
    if t.family != "models":
        return util.oracle_preferred(th)
    paired = {a for pair in t.facts["clash_pairs"] for a in pair}
    always = frozenset(a for a in t.facts["atom_names"] if a not in paired)
    choices = [[frozenset(pair), frozenset(pair[:1]), frozenset(pair[1:])]
               for pair in t.facts["clash_pairs"]]
    built = frozenset(always.union(*pick) for pick in product(*choices))
    if t.atoms <= 6:
        _check(t.name, built, util.oracle_preferred(th))
    return built


# ----------------------------------------------------------- argumentation


def first_order(ids: Sequence[str], pairs) -> Tuple[str, ...]:
    """The lexicographically least linear extension, most reliable first."""
    above = {pid: set() for pid in ids}
    for less, more in pairs:
        above[less].add(more)
    placed: List[str] = []
    while len(placed) < len(ids):
        placed.append(min(p for p in ids if p not in placed and above[p] <= set(placed)))
    return tuple(placed)


def _clash(q: Query, memo: Dict) -> Expected:
    t = q.template
    th = theory_of(t)
    muses = [frozenset(g) for g in t.facts["groups"]]
    if "checked" not in memo and t.premises <= CROSS_CHECK_SIZE:
        _check(t.name + " MUSes", frozenset(muses), util.oracle_muses(th))
    memo["checked"] = True
    order = first_order(th.ids, th.order)
    position = {pid: i for i, pid in enumerate(order)}
    linear = [(mus - {v}, v) for mus in muses for v in [max(mus, key=position.get)]]
    command, args = q.args[0], q.args[2:]
    if command == "argue":
        return _argue(t, th, order, linear, args[0], "--trace" in args)
    less = closure(th.order)
    minimal = [[v for v in mus if not any((o, v) in less for o in mus)] for mus in muses]
    if "--rule4" not in args:
        return _af(t, linear, [])
    partial = [(mus - {v}, v) for mus, vs in zip(muses, minimal) for v in vs]
    stable = sorted(
        "stable: " + " ".join(sorted(set(th.ids) - set(pick)))
        for pick in product(*minimal))
    if "stable" not in memo and t.premises <= 10:
        framework = _framework(t, "", partial)
        survivors = sorted(
            "stable: " + " ".join(sorted(set(th.ids) - {a.victim for a in ext if isinstance(a, UnderminingArgument)}))
            for ext in util.oracle_stable(framework))
        _check(t.name + " stable extensions", stable, survivors)
    memo["stable"] = True
    return _af(t, partial, stable)


def _argue(t, th, order, linear, goal_text, trace) -> Expected:
    by_id = th.formulas_by_id()
    goal = formulas.parse_formula(goal_text.replace("@", ""))
    believed = util.oracle_greedy(th, order)
    lines: List[str] = []
    if trace:
        bodies = dict(t.facts["premises"])
        lines += [f"{{{pid}}} => {bodies[pid]}" for pid in th.ids]
        gone: set = set()
        for support, victim in sorted(linear, key=lambda a: (tuple(sorted(a[0])), a[1])):
            gone.add(victim)
            lines.append(f"{{{','.join(sorted(support))}}} =/> {victim}")
            lines.append("believed: " + " ".join(sorted(set(th.ids) - gone)))
    if not formulas.entails([by_id[p] for p in believed], goal):
        return _fixed(1, lines + ["not believed"])
    found = util.oracle_minimal_entailing(by_id, believed, goal)
    return _fixed(0, lines + sorted(f"{{{','.join(sorted(s))}}} => {goal_text}" for s in found))


def _framework(t: Template, tag: str, underminers) -> ArgumentationFramework:
    th = theory_of(t, tag)
    args = [SupportingArgument(frozenset([p.id]), p.formula) for p in th.premises]
    args += [UnderminingArgument(frozenset(s), v) for s, v in underminers]
    attacks = frozenset((a, b) for a in args if isinstance(a, UnderminingArgument)
                        for b in args if a.victim in b.support)
    return ArgumentationFramework(tuple(args), attacks)


def _af(t: Template, underminers, tail: List[str]) -> Expected:
    def render(tag: str) -> str:
        framework = _framework(t, tag, underminers)
        name = af_mod.argument_name
        lines = sorted(f"arg({name(a)})." for a in framework.arguments)
        lines += sorted(f"att({name(a)},{name(b)})." for a, b in framework.attacks)
        return "".join(line + "\n" for line in lines + tail)
    return Expected(0, render)


# --------------------------------------------------------------------- ATMS


def _environments(facts) -> Tuple[List[FrozenSet[str]], Callable[[str], FrozenSet[FrozenSet[str]]]]:
    """Nogoods and labels by scanning every assumption set with Horn chaining."""
    assumptions = facts["assumptions"]
    rules = facts["rules"]
    scanned = []
    for bits in range(1 << len(assumptions)):
        env = frozenset(a for i, a in enumerate(assumptions) if bits >> i & 1)
        derived = set(env)
        grew = True
        while grew:
            grew = False
            for body, head, deny in rules:
                if not deny and head not in derived and set(body) <= derived:
                    derived.add(head)
                    grew = True
        clash = any(deny and head in derived and set(body) <= derived for body, head, deny in rules)
        scanned.append((env, clash, derived))
    nogoods = _minimal(env for env, clash, _ in scanned if clash)
    label = lambda node: _minimal(env for env, clash, derived in scanned if clash or node in derived)
    return nogoods, label


def _atms(q: Query, memo: Dict) -> Expected:
    t = q.template
    if "scan" not in memo:
        memo["scan"] = _environments(t.facts)
    nogoods, label = memo["scan"]
    assumptions = frozenset(t.facts["assumptions"])
    encoded = None
    if t.premises <= CROSS_CHECK_SIZE:
        encoded = bridges.atms_encode(bridges.parse_atms(t.text.replace("@", "")))
    if "--nogoods" in q.args:
        if encoded is not None:
            oracle = _minimal(m & assumptions for m in util.oracle_muses(encoded))
            _check(t.name + " nogoods", nogoods, oracle)
        return _atom_sets(nogoods)
    node = q.args[q.args.index("--node") + 1].replace("@", "")
    found = label(node)
    if encoded is not None:
        entailing = util.oracle_minimal_entailing(
            encoded.formulas_by_id(), encoded.ids, formulas.Atom(node))
        _check(t.name + " label " + node, found, _minimal(s & assumptions for s in entailing))
    return _atom_sets(found)


# ----------------------------------------------------------- large formulas


def _large(q: Query, memo: Dict) -> Expected:
    t = q.template
    kept = t.facts["kept"]
    command, args = q.args[0], q.args[2:]
    if command == "check":
        return _fixed(0, ["valid"])
    if command == "extensions":
        return _fixed(0, _extension_lines([frozenset(kept)]))
    if command == "entails":
        goal = args[0]
        if t.family == "chain":
            return _yes_no(not goal.startswith("!"))  # every x_i follows
        return _yes_no(goal == "@z")  # w makes every b true and u adds z
    alpha = args[0]
    premises = [(pid, body) for pid, body in t.facts["premises"] if body != alpha]
    ids = {pid for pid, _ in premises}
    pairs = {(x, y) for x, y in closure(t.facts["order"]) if x in ids and y in ids}
    pairs |= {(pid, REVISION_ID) for pid in ids}
    lines = [f"premise {pid}: {body}" for pid, body in premises + [(REVISION_ID, alpha)]]
    lines += [f"order {x} < {y}" for x, y in sorted(pairs)]
    text = "\n".join(lines) + "\n"
    return Expected(0, lambda tag: "", lambda tag: text.replace("@", tag))


_BY_FAMILY = {
    "fixture": _belief, "random": _belief, "antichain": _belief, "models": _belief,
    "clash-chain": _clash, "clash-layered": _clash,
    "atms": _atms, "atms-over-budget": _atms, "fixture-atms": _atms,
    "chain": _large, "conj": _large,
}


def expected_answers(queries: Sequence[Query]) -> Dict[int, Expected]:
    """Expected answer per query id; oracle work is shared per template."""
    memos: Dict[str, Dict] = {}
    return {
        q.qid: _BY_FAMILY[q.template.family](q, memos.setdefault(q.template.name, {}))
        for q in queries
    }
