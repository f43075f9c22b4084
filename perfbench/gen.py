"""Seeded inputs for the three workloads.

This module writes theory (.rt) and ATMS (.atms) text itself and never
imports inconlog, so the inputs do not depend on the code under test.

Every atom in a template is written as "@name".  Each pass of the timed
loop substitutes a fresh tag for "@", so no two passes share a formula
and the library's formula caches start cold for every pass.  Premise ids
never contain "@", so answers that name premises do not change with the
tag.

Structural properties (family, size, order density) follow fixed grids,
so every seed yields the same number of queries of each kind and the
same known failures; the seed picks formulas, atom choices, clash
positions and hidden orders.  A `Template` carries the facts a family
guarantees by construction; perfbench.expect turns them, or the
brute-force oracles, into expected answers.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

# Random theories keep their linear-extension count below this, so the
# permutation-greedy oracle stays cheap and no random theory reaches the
# extension cap; the cap failure is shown by the antichain family instead.
RANDOM_LE_LIMIT = 2000

# The pairwise-dominance oracle scans 4^atoms pairs; beyond this many atoms
# `models` is asked only of the family whose answer is known by construction.
MODELS_ORACLE_ATOMS = 7

# Atoms of the wide conjunctions: fixed, since the bitmask oracle's cost
# grows as 2^atoms and would otherwise vary with the seed.
CONJ_WIDTH = 12

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class Template:
    """One input file, with its properties and construction facts."""

    name: str
    kind: str  # "rt" or "atms"
    text: str  # atoms written as "@name"
    family: str
    premises: int
    atoms: int
    density: float = 0.0  # share of comparable premise pairs in the order
    facts: Dict[str, object] = field(default_factory=dict)

    def path(self, root: Path, tag: str) -> Path:
        return root / f"{self.name}-{tag}.{self.kind}"


@dataclass
class Query:
    qid: int
    template: Template
    args: Tuple[str, ...]  # CLI words; "{file}" and "{out}" are filled per pass

    def argv(self, root: Path, tag: str) -> List[str]:
        file = str(self.template.path(root, tag))
        out = str(root / f"q{self.qid}-{tag}.out.rt")
        return [
            a.replace("@", tag).replace("{file}", file).replace("{out}", out)
            for a in self.args
        ]

    def out_path(self, root: Path, tag: str) -> Path:
        return root / f"q{self.qid}-{tag}.out.rt"

    @property
    def command(self) -> str:
        words = [self.args[0]] + [a for a in self.args[1:] if a.startswith("--")]
        return " ".join(words)


# ------------------------------------------------------------ theory text


def theory_text(premises: Sequence[Tuple[str, str]], order: Sequence[Tuple[str, str]]) -> str:
    lines = [f"premise {pid}: {body}" for pid, body in premises]
    lines += [f"order {less} < {more}" for less, more in order]
    return "\n".join(lines) + "\n"


def _rt(name, family, premises, order, atoms, **facts) -> Template:
    n = len(premises)
    density = 0.0 if n < 2 else len(closure(order)) / (n * (n - 1) / 2)
    return Template(
        name, "rt", theory_text(premises, order), family, n, atoms,
        round(density, 3),
        dict(facts, premises=list(premises), order=list(order)),
    )


def closure(pairs) -> set:
    """Transitive closure of (less, more) pairs."""
    reach: Dict[str, set] = {}
    for less, more in pairs:
        reach.setdefault(less, set()).add(more)
    changed = True
    while changed:
        changed = False
        for less, mores in reach.items():
            extra = set().union(*(reach.get(m, set()) for m in mores)) - mores
            if extra:
                mores |= extra
                changed = True
    return {(less, more) for less, mores in reach.items() for more in mores}


def count_linear_extensions(ids: Sequence[str], pairs) -> int:
    """Linear extensions of a small order, by dynamic programming over subsets."""
    index = {pid: i for i, pid in enumerate(ids)}
    above = [0] * len(ids)
    for less, more in pairs:
        above[index[less]] |= 1 << index[more]
    ways = [0] * (1 << len(ids))
    ways[0] = 1
    for placed in range(1 << len(ids)):
        if not ways[placed]:
            continue
        for i in range(len(ids)):
            if not placed >> i & 1 and above[i] & ~placed == 0:
                ways[placed | 1 << i] += ways[placed]
    return ways[-1]


def _random_formula(rng: random.Random, atoms: Sequence[str], depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        return "@" + rng.choice(atoms)
    kind = rng.randrange(4)
    if kind == 0:
        return "!" + _wrap(_random_formula(rng, atoms, depth - 1))
    left = _wrap(_random_formula(rng, atoms, depth - 1))
    right = _wrap(_random_formula(rng, atoms, depth - 1))
    return f"{left} {('->', '&', '|')[kind - 1]} {right}"


def _wrap(text: str) -> str:
    return text if _IDENT.fullmatch(text.lstrip("@!")) else f"({text})"


def _literal(rng: random.Random, atoms: Sequence[str]) -> str:
    return ("!" if rng.random() < 0.5 else "") + "@" + rng.choice(atoms)


# ------------------------------------------------------- belief-queries


def _fixture_templates(fixtures: Path) -> List[Template]:
    out = []
    for path in sorted(fixtures.glob("*.rt")):
        premises, order = [], []
        for raw in path.read_text(encoding="utf-8").splitlines():
            line = raw.strip()
            if line.startswith("premise "):
                pid, _, body = line[len("premise "):].partition(":")
                premises.append((pid.strip(), _IDENT.sub(r"@\g<0>", body.strip())))
            elif line.startswith("order "):
                less, _, more = line[len("order "):].partition("<")
                order.append((less.strip(), more.strip()))
        atoms = sorted({a for _, body in premises for a in re.findall(r"@(\w+)", body)})
        out.append(_rt(f"fixture-{path.stem}", "fixture", premises, order, len(atoms),
                       atom_names=atoms, atom_pool=len(atoms)))
    return out


# (premises, atoms, order density) for the random theories.  Sparse orders go
# with few premises so the number of linear extensions stays within reach.
_RANDOM_GRID = [
    (5, 4, 0.0), (5, 6, 0.25), (6, 5, 0.0), (6, 7, 0.5), (7, 4, 0.25),
    (7, 8, 0.5), (7, 6, 0.75), (8, 5, 0.5), (8, 9, 0.75), (8, 7, 1.0),
    (9, 6, 0.75), (9, 10, 1.0), (5, 10, 0.5), (6, 8, 1.0), (7, 5, 1.0),
    (8, 4, 0.75),
]


def _random_template(rng: random.Random, k: int, n: int, n_atoms: int, prob: float) -> Template:
    atoms = [f"a{i}" for i in range(n_atoms)]
    ids = [f"p{i}" for i in range(1, n + 1)]
    premises = [(pid, _random_formula(rng, atoms, 2)) for pid in ids]
    while True:
        hidden = ids[:]
        rng.shuffle(hidden)
        rank = {pid: i for i, pid in enumerate(hidden)}
        order = [
            (a, b) if rank[a] > rank[b] else (b, a)
            for a, b in combinations(ids, 2)
            if prob >= 1.0 or rng.random() < prob
        ]
        if count_linear_extensions(ids, order) <= RANDOM_LE_LIMIT:
            break
    used = sorted({a for _, body in premises for a in re.findall(r"@(\w+)", body)})
    return _rt(f"random-{k}", "random", premises, order, len(used), atom_names=used,
               atom_pool=n_atoms)


def _antichain_template(rng: random.Random, k: int, n: int) -> Template:
    """n unordered premises over distinct atoms, two of which clash on c."""
    ids = [f"p{i}" for i in range(1, n + 1)]
    pos, neg = rng.sample(ids, 2)
    premises, free = [], []
    for i, pid in enumerate(ids):
        if pid == pos:
            premises.append((pid, "@c"))
        elif pid == neg:
            premises.append((pid, "!@c"))
        else:
            premises.append((pid, f"@x{i}"))
            free.append(f"x{i}")
    return _rt(f"antichain-{n}-{k}", "antichain", premises, [], n - 1,
               clash=(pos, neg), free_atoms=free)


def _models_template(rng: random.Random, n_atoms: int) -> Template:
    """One premise per atom plus clashes !(a & b) over disjoint atom pairs."""
    atoms = [f"a{i}" for i in range(n_atoms)]
    shuffled = atoms[:]
    rng.shuffle(shuffled)
    pairs = [tuple(sorted(shuffled[i:i + 2])) for i in range(0, n_atoms - 1, 2)]
    premises = [(f"p{i}", f"@{a}") for i, a in enumerate(atoms)]
    premises += [(f"q{j}", f"!(@{a} & @{b})") for j, (a, b) in enumerate(pairs)]
    return _rt(f"models-{n_atoms}", "models", premises, [], n_atoms,
               atom_names=atoms, clash_pairs=pairs)


def belief_queries(rng: random.Random, fixtures: Path) -> List[Tuple[Template, List[Tuple[str, ...]]]]:
    plan = []
    templates = _fixture_templates(fixtures)
    templates += [_random_template(rng, k, *cell) for k, cell in enumerate(_RANDOM_GRID)]
    for t in templates:
        atoms = t.facts["atom_names"]
        g, c, a, b = (_literal(rng, atoms) for _ in range(4))
        commands = [
            ("extensions", "{file}"),
            ("entails", "{file}", g),
            ("entails", "{file}", c, "--credulous"),
            ("conditional", "{file}", a, b),
        ]
        if t.facts["atom_pool"] <= MODELS_ORACLE_ATOMS:
            commands.append(("models", "{file}"))
        plan.append((t, commands))
    # One n = 9 antichain: its three refusals stay under 5% of the list,
    # so the p95 tail is a measured time and not the deadline.
    for n, copies in ((6, 2), (7, 2), (8, 2), (9, 1)):
        for k in range(copies):
            t = _antichain_template(rng, k, n)
            x = "@" + rng.choice(t.facts["free_atoms"])
            plan.append((t, [
                ("extensions", "{file}"),
                ("entails", "{file}", "@c"),
                ("entails", "{file}", "@c", "--credulous"),
                ("conditional", "{file}", "@c", x),
            ]))
    for n_atoms in (6, 7, 8, 9):
        plan.append((_models_template(rng, n_atoms), [("models", "{file}")]))
    return plan


# --------------------------------------------------------- argumentation


# Clash groups per theory size: (pairs, triples, consistent fillers).
_CLASH_SHAPES = {10: (2, 1, 3), 12: (3, 1, 3), 14: (3, 2, 2), 16: (4, 2, 2)}


def _clash_template(rng: random.Random, n: int, layered: bool) -> Template:
    """Atom-disjoint small clashes: {x, !x} pairs and {x, x -> y, !y} triples.

    Every group is one MUS.  Under the chain order its least reliable member
    is dropped; under the layered order any member in the group's lowest
    layer may be, independently per group.
    """
    n_pairs, n_triples, n_fill = _CLASH_SHAPES[n]
    bodies: List[List[str]] = []
    for g in range(n_pairs):
        bodies.append([f"@x{g}", f"!@x{g}"])
    for g in range(n_pairs, n_pairs + n_triples):
        bodies.append([f"@x{g}", f"@x{g} -> @y{g}", f"!@y{g}"])
    fillers = [f"@f{i}" for i in range(n_fill)]
    ids = [f"p{i:02d}" for i in range(n)]
    rng.shuffle(ids)
    cursor = iter(ids)
    groups = [[(next(cursor), body) for body in group] for group in bodies]
    fills = [(next(cursor), body) for body in fillers]
    premises = sorted([p for grp in groups for p in grp] + fills)
    ranking = [pid for pid, _ in premises]
    rng.shuffle(ranking)  # most reliable first
    if layered:
        layers = [ranking[i:i + 4] for i in range(0, n, 4)]
        order = [(lo, up) for i, upper in enumerate(layers)
                 for lower in layers[i + 1:] for up in upper for lo in lower]
    else:
        order = [(ranking[i + 1], ranking[i]) for i in range(n - 1)]
    atoms = 2 * n_triples + n_pairs + n_fill
    return _rt(f"clash-{n}-{'layered' if layered else 'chain'}", "clash-" + ("layered" if layered else "chain"),
               premises, order, atoms,
               groups=[[pid for pid, _ in grp] for grp in groups],
               fillers=[pid for pid, _ in fills])


def _atms_template(rng: random.Random, name: str, family: str, n_assume: int, n_rules: int) -> Template:
    """Assumptions a_i supporting nodes n_i, plus rules that deny a node from
    another assumption (each gives a nogood) or derive d_j from two nodes."""
    assumptions = [f"a{i}" for i in range(n_assume)]
    n_base = min(n_assume, n_rules - 2)
    nodes = [f"n{i}" for i in range(n_base)]
    rules = [((assumptions[i],), nodes[i], False) for i in range(n_base)]
    derived = 0
    while len(rules) < n_rules:
        if len(rules) % 2 == 0:
            i, j = rng.sample(range(n_base), 2)
            rules.append(((rng.choice([assumptions[j]] + assumptions[n_base:]),), nodes[i], True))
        else:
            body = tuple(sorted(rng.sample(nodes, 2)))
            nodes.append(f"d{derived}")
            rules.append((body, f"d{derived}", False))
            derived += 1
    lines = [f"assume @{a}." for a in assumptions] + [f"node @{n}." for n in nodes]
    for body, head, deny in rules:
        lines.append(f"{'deny' if deny else 'just'} {', '.join('@' + b for b in body)} -> @{head}.")
    return Template(name, "atms", "\n".join(lines) + "\n", family,
                    n_assume + len(rules), n_assume + len(nodes),
                    facts={"assumptions": assumptions, "nodes": nodes, "rules": rules})


def _fixture_atms(fixtures: Path) -> List[Template]:
    out = []
    for path in sorted(fixtures.glob("*.atms")):
        assumptions, nodes, rules, lines = [], [], [], []
        for raw in path.read_text(encoding="utf-8").splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            keyword, _, rest = line[:-1].partition(" ")
            if keyword in ("assume", "node"):
                (assumptions if keyword == "assume" else nodes).append(rest.strip())
            else:
                body, _, head = rest.rpartition("->")
                parts = tuple(p.strip() for p in body.split(",") if p.strip())
                rules.append((parts, head.strip(), keyword == "deny"))
            lines.append(_IDENT.sub(lambda m: m.group(0) if m.group(0) in ("assume", "node", "just", "deny") else "@" + m.group(0), line))
        out.append(Template(f"fixture-{path.stem}", "atms", "\n".join(lines) + "\n",
                            "fixture-atms", len(assumptions) + len(rules),
                            len(assumptions) + len(nodes),
                            facts={"assumptions": assumptions, "nodes": nodes, "rules": rules}))
    return out


def argumentation(rng: random.Random, fixtures: Path) -> List[Tuple[Template, List[Tuple[str, ...]]]]:
    plan = []
    for t in _fixture_atms(fixtures):
        plan.append((t, _atms_commands(rng, t)))
    for layered in (False, True):
        for n in (10, 12, 14, 16):
            t = _clash_template(rng, n, layered)
            plan.append((t, [
                ("argue", "{file}", "@" + _argue_goal(rng, t)),
                ("argue", "{file}", "@" + _argue_goal(rng, t), "--trace"),
                ("af", "{file}"),
                ("af", "{file}", "--rule4"),
            ]))
    # (assumptions, rules): at most 15 premises, within the subset budget.
    # The (4, 5) and (5, 5) problems put the list's median inside the
    # cluster of 12-premise clash queries, so it does not jump between
    # clusters from seed to seed.
    for n_assume, n_rules in ((4, 5), (4, 6), (5, 5), (5, 6), (6, 6), (7, 7), (8, 7)):
        t = _atms_template(rng, f"atms-{n_assume}-{n_rules}", "atms", n_assume, n_rules)
        plan.append((t, _atms_commands(rng, t)))
    # Above the 24-premise subset budget; one query, so the refusal stays
    # under 5% of the list.
    t = _atms_template(rng, "atms-over", "atms-over-budget", 8, 18)
    plan.append((t, _atms_commands(rng, t)[:1]))
    return plan


def _argue_goal(rng: random.Random, t: Template) -> str:
    """An atom of a filler or of a clash group, so some goals are not believed."""
    bodies = dict(t.facts["premises"])
    pid = rng.choice(t.facts["fillers"] + [p for grp in t.facts["groups"] for p in grp])
    return re.findall(r"@(\w+)", bodies[pid])[-1]


def _atms_commands(rng: random.Random, t: Template) -> List[Tuple[str, ...]]:
    return [("atms", "{file}", "--nogoods"),
            ("atms", "{file}", "--node", "@" + rng.choice(t.facts["nodes"]))]


# -------------------------------------------------------- large-formulas


def _chain_template(rng: random.Random, n: int) -> Template:
    """x0, x0 -> x1, ..., x(n-2) -> x(n-1), then !x(n-1), in a total order."""
    ids = [f"p{i}" for i in range(n + 1)]
    premises = [(ids[0], "@x0")]
    premises += [(ids[i], f"@x{i - 1} -> @x{i}") for i in range(1, n)]
    premises.append((ids[n], f"!@x{n - 1}"))
    order = [(ids[i + 1], ids[i]) for i in range(n)]
    return _rt(f"chain-{n}", "chain", premises, order, n,
               kept=ids[:n], dropped=ids[n])


def _conj_template(rng: random.Random, m: int) -> Template:
    """A wide conjunction w over CONJ_WIDTH atoms, a clashing literal s below
    it and an unrelated implication u into a fresh atom z."""
    width = CONJ_WIDTH
    atoms = [f"b{i}" for i in range(width)]
    conjuncts = [atoms[i % width] for i in range(m)]
    rng.shuffle(conjuncts)
    clash, source = rng.sample(atoms, 2)
    premises = [
        ("s", f"!@{clash}"),
        ("u", f"@{source} -> @z"),
        ("w", " & ".join("@" + a for a in conjuncts)),
    ]
    return _rt(f"conj-{m}", "conj", premises, [("s", "w")], width + 1,
               kept=["u", "w"], dropped="s", clash=clash)


def large_formulas(rng: random.Random, fixtures: Path) -> List[Tuple[Template, List[Tuple[str, ...]]]]:
    plan = []
    for n in (30, 60, 90, 120):
        t = _chain_template(rng, n)
        goal = f"@x{rng.randrange(n)}" if rng.random() < 0.5 else f"!@x{rng.randrange(n)}"
        plan.append((t, [("check", "{file}"), ("extensions", "{file}"),
                         ("entails", "{file}", goal),
                         ("revise", "{file}", f"!@x{rng.randrange(n)}", "-o", "{out}")]))
    for m in (50, 75, 100, 125, 150):
        t = _conj_template(rng, m)
        goal = "@z" if rng.random() < 0.5 else f"!@{t.facts['clash']}"
        plan.append((t, [("check", "{file}"), ("extensions", "{file}"),
                         ("entails", "{file}", goal),
                         ("revise", "{file}", "@z -> @" + t.facts["clash"], "-o", "{out}")]))
    # From about 170 conjuncts every command but `check` overflows the stack,
    # and at 250 `check` does too: one crash, under 5% of the list.
    for m in (200, 250):
        plan.append((_conj_template(rng, m), [("check", "{file}")]))
    return plan


_PLANS = {
    "belief-queries": belief_queries,
    "argumentation": argumentation,
    "large-formulas": large_formulas,
}
WORKLOADS = tuple(_PLANS)

# The query every pass starts with, and the one a fresh interpreter answers
# for setup_s: fixed per workload so set-up time does not vary with the seed.
_FIRST = {
    "belief-queries": "fixture-example3",
    "argumentation": "fixture-conflict",
    "large-formulas": "chain-30",
}


def build(workload: str, seed: int, fixtures: Path) -> List[Query]:
    """The workload's queries for one seed; the first one is fixed per workload."""
    rng = random.Random(f"{workload}/{seed}")
    plan = _PLANS[workload](rng, fixtures)
    first = [p for p in plan if p[0].name == _FIRST[workload]]
    rest = [p for p in plan if p[0].name != _FIRST[workload]]
    rng.shuffle(rest)
    queries = []
    for template, commands in first + rest:
        for args in commands:
            queries.append(Query(len(queries), template, args))
    return queries
