"""End-to-end acceptance checks, one per release criterion.

Each test prints a single PASS/FAIL line on the real stdout so the
verdicts are visible in any pytest run, then asserts.  The randomized
checks use fixed seeds; the timing assertions are generous enough for
a loaded desktop but tight enough to catch an accidental return to
exponential behaviour.
"""

import functools
import math
import random
import statistics
import sys
import time

from inconlog import arguments, extensions, formulas, semantics, theory
from inconlog.af import (
    af_belief_state,
    is_ignored,
    partial_framework,
    stable_extensions,
)
from inconlog.arguments import (
    BeliefState,
    SupportingArgument,
    UnderminingArgument,
    believed_conclusions,
    believed_premises,
    minimal_unsat_subsets,
    supports,
)
from inconlog.bridges import (
    ModalCategories,
    atms_encode,
    atms_labels,
    atms_nogoods,
    from_modal_categories,
    parse_atms,
)
from inconlog.extensions import all_extensions, credulous_entails, skeptical_entails
from inconlog.files import parse_theory
from inconlog.formulas import Atom, Not, conj, disj, parse_formula
from inconlog.semantics import conditional, prefers, revise
from inconlog.theory import (
    Premise,
    ReliabilityTheory,
    TotalOrder,
    closure_of,
)

from conftest import fixture_text
from util import (
    all_strict_partial_orders,
    linear_extensions,
    oracle_fixed_points,
    oracle_minimal_entailing,
    oracle_muses,
    oracle_pmmc,
    random_formula,
    random_theory,
)


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}", file=sys.__stdout__)
                raise
            print(f"[PASS] {label}", file=sys.__stdout__)

        return run

    return wrap


def sets(items):
    return frozenset(frozenset(x) for x in items)


def satisfiable_formula(rng, atoms, depth=2):
    while True:
        f = random_formula(rng, atoms, depth)
        if formulas.is_consistent([f]):
            return f


@criterion("worked examples give the expected extensions and theorems in < 1 s")
def test_a01_worked_examples(example1, example2, bizet):
    start = time.monotonic()
    assert all_extensions(example1).members == sets([{"p1", "p2", "p4"}])
    assert skeptical_entails(example1, parse_formula("psi"))
    assert time.monotonic() - start < 1.0

    start = time.monotonic()
    assert all_extensions(example2).members == sets([{"p1", "p3"}])
    # dropping the middle premise no longer forces its victim's victim out
    assert skeptical_entails(example2, parse_formula("alpha"))
    assert time.monotonic() - start < 1.0

    start = time.monotonic()
    assert len(all_extensions(bizet)) == 2
    assert time.monotonic() - start < 1.0


@criterion("greedy route and argument route agree on 500 random theories in < 60 s")
def test_a02_greedy_route_equals_argument_route():
    rng = random.Random(2024)
    start = time.monotonic()
    for _ in range(500):
        t = random_theory(rng, rng.randint(1, 6), ["a", "b", "c", "d"], 0.5)
        via_args = set()
        for order in linear_extensions(t):
            args = arguments.undermining_args_linear(t, order)
            via_args.add(believed_premises(t, args, order).believed)
        assert all_extensions(t).members == frozenset(via_args)
    assert time.monotonic() - start < 60.0


def _beats(closure, winner, loser):
    """Independent statement of interpretation dominance by premise sets."""
    if winner == loser:
        return False
    return all(
        any((p, q) in closure for q in winner - loser) for p in loser - winner
    )


@criterion("preferred models equal the union of extension models on 200 theories in < 60 s")
def test_a03_preferred_models_equal_extension_models():
    rng = random.Random(321)
    start = time.monotonic()
    for _ in range(200):
        t = random_theory(rng, rng.randint(1, 5), ["a", "b", "c", "d"], 0.5)
        atoms = sorted(t.atoms())
        interps = formulas.all_interpretations(atoms)
        closure = closure_of(t)
        premset = {m: semantics.satisfied_premises(m, t) for m in interps}
        brute = frozenset(
            m
            for m in interps
            if not any(_beats(closure, premset[n], premset[m]) for n in interps)
        )
        by_id = t.formulas_by_id()
        via_extensions = frozenset(
            m
            for member in all_extensions(t)
            for m in interps
            if all(formulas.evaluate(by_id[pid], m) for pid in member)
        )
        assert brute == via_extensions
    assert time.monotonic() - start < 60.0


@criterion("preference relation is irreflexive and transitive on 100 theories")
def test_a04_preference_is_a_strict_order():
    rng = random.Random(55)
    for _ in range(100):
        t = random_theory(rng, rng.randint(1, 5), ["a", "b", "c"], 0.5)
        interps = formulas.all_interpretations(sorted(t.atoms()))
        below = {
            (m, n): prefers(t, m, n) for m in interps for n in interps
        }
        for m in interps:
            assert not below[m, m]
        for m in interps:
            for n in interps:
                if not below[m, n]:
                    continue
                for o in interps:
                    if below[n, o]:
                        assert below[m, o]


@criterion("sweep output is the unique fixed point on 200 argument sets")
def test_a05_sweep_reaches_the_unique_fixed_point():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 12)
        ids = tuple(f"p{i}" for i in range(n))
        t = ReliabilityTheory(
            tuple(Premise(pid, Atom("x")) for pid in ids), frozenset()
        )
        ranking = list(ids)
        rng.shuffle(ranking)
        order = TotalOrder(tuple(ranking))
        args = []
        for _ in range(rng.randint(0, 2 * n)):
            victim = rng.randrange(n)
            support = frozenset(
                ranking[j] for j in range(victim) if rng.random() < 0.4
            )
            args.append(UnderminingArgument(support, ranking[victim]))
        state = believed_premises(t, args, order)
        assert oracle_fixed_points(ids, args) == [state.believed]


@criterion("conditional queries satisfy the six preferential reasoning rules on 300 instances")
def test_a06_conditional_satisfies_the_preferential_rules():
    rng = random.Random(99)
    atoms = ["a", "b", "c", "d"]
    for _ in range(300):
        t = random_theory(rng, rng.randint(1, 4), atoms, 0.5)
        alpha = satisfiable_formula(rng, atoms)
        beta = satisfiable_formula(rng, atoms)
        gamma = random_formula(rng, atoms, 2)
        c_ab = conditional(t, alpha, beta)
        # reflexivity
        assert conditional(t, alpha, alpha)
        # left logical equivalence
        assert conditional(t, Not(Not(alpha)), beta) == c_ab
        # right weakening
        if c_ab:
            assert conditional(t, alpha, disj(beta, gamma))
        c_ag = conditional(t, alpha, gamma)
        c_abg = conditional(t, conj(alpha, beta), gamma)
        # cut
        if c_abg and c_ab:
            assert c_ag
        # cautious monotonicity
        if c_ab and c_ag:
            assert c_abg
        # or
        if c_ag and conditional(t, beta, gamma):
            assert conditional(t, disj(alpha, beta), gamma)


@criterion("revision postulates hold on 100 instances; plain addition fails the counterexample")
def test_a07_revision_postulates(expansion_theory):
    rng = random.Random(111)
    atoms = ["a", "b", "c"]
    bottom = conj(Atom("a"), Not(Atom("a")))
    for _ in range(100):
        t = random_theory(rng, rng.randint(1, 4), atoms, 0.5)
        alpha = satisfiable_formula(rng, atoms)
        revised = revise(t, alpha)

        def holds(goal):
            return skeptical_entails(revised, goal)

        # the revised theory generates a belief set: consistent and
        # closed under detachment and conjunction on a random panel
        assert not holds(bottom)
        for _ in range(3):
            delta = random_formula(rng, atoms, 2)
            epsilon = random_formula(rng, atoms, 2)
            if holds(delta) and holds(formulas.Implies(delta, epsilon)):
                assert holds(epsilon)
            if holds(delta) and holds(epsilon):
                assert holds(conj(delta, epsilon))

        # the new premise is believed
        assert holds(alpha)

        # syntax does not matter: an equivalent formula revises alike
        other = revise(t, Not(Not(alpha)))
        universe = sorted(t.atoms() | formulas.atoms_of(alpha))
        interps = formulas.all_interpretations(universe)

        def model_union(rev):
            by_id = rev.formulas_by_id()
            return frozenset(
                m
                for member in all_extensions(rev)
                for m in interps
                if all(formulas.evaluate(by_id[pid], m) for pid in member)
            )

        assert model_union(revised) == model_union(other)

    # adding the new premise without promoting it is not enough
    alpha = parse_formula("alpha")
    assert skeptical_entails(revise(expansion_theory, alpha), alpha)
    expanded = ReliabilityTheory(
        expansion_theory.premises + (Premise("p5", alpha),),
        expansion_theory.order,
    )
    assert not skeptical_entails(expanded, alpha)


@criterion("non-ignored stable extensions match the premise extensions on 300 theories")
def test_a08_stable_extensions_recover_the_premise_extensions():
    rng = random.Random(4812)
    for _ in range(300):
        t = random_theory(rng, rng.randint(1, 6), ["a", "b", "c"], 0.5)
        af = partial_framework(t)
        kept = {
            af_belief_state(t, ext)
            for ext in stable_extensions(af)
            if not is_ignored(t, ext)
        }
        assert frozenset(kept) == all_extensions(t).members


@criterion("layered encodings match widening on 100 inputs; no order recovers the constrained default pair in < 5 min")
def test_a09_layered_categories_and_the_default_constraint_gap():
    rng = random.Random(103)
    for _ in range(100):
        cats = ModalCategories(
            tuple(
                frozenset(
                    random_formula(rng, ["a", "b"], 2)
                    for _ in range(rng.randint(1, 2))
                )
                for _ in range(rng.randint(1, 3))
            )
        )
        t = from_modal_categories(cats)
        by_id = t.formulas_by_id()
        got = frozenset(
            frozenset(by_id[pid] for pid in member)
            for member in all_extensions(t)
        )
        assert got == oracle_pmmc(cats.layers)

    # two facts, four defaults, and a target pair of scenarios that no
    # strict partial order on the defaults can carve out
    start = time.monotonic()
    facts = (Premise("f_phi", Atom("phi")), Premise("f_psi", Atom("psi")))
    defaults = (
        Premise("d1", parse_formula("phi -> al")),
        Premise("d2", parse_formula("phi -> !be")),
        Premise("d3", parse_formula("psi -> !al")),
        Premise("d4", parse_formula("psi -> be")),
    )
    default_ids = [p.id for p in defaults]
    target = sets(
        [
            {"f_phi", "f_psi", "d1", "d2"},
            {"f_phi", "f_psi", "d3", "d4"},
        ]
    )
    orders = all_strict_partial_orders(default_ids)
    assert len(orders) == 219
    for rel in orders:
        pairs = set(rel)
        pairs.update((d, f.id) for d in default_ids for f in facts)
        t = ReliabilityTheory(facts + defaults, frozenset(pairs))
        assert all_extensions(t).members != target
    assert time.monotonic() - start < 300.0


@criterion("ATMS labels and nogoods match the subset oracle and ignore the chosen order")
def test_a10_atms_labels_and_nogoods():
    chain = parse_atms(fixture_text("chain.atms"))
    conflict = parse_atms(fixture_text("conflict.atms"))

    def project(subsets, assumptions):
        pool = {s & assumptions for s in subsets}
        return frozenset(s for s in pool if not any(o < s for o in pool))

    for problem, nodes in ((chain, ["m", "n"]), (conflict, ["n"])):
        t = atms_encode(problem)
        by_id = t.formulas_by_id()
        for node in nodes:
            expected = project(
                oracle_minimal_entailing(by_id, t.ids, Atom(node)),
                problem.assumptions,
            )
            assert atms_labels(problem, node) == expected
            # the label does not depend on which linear extension the
            # argument engine happens to reason along
            for order in linear_extensions(t):
                state = BeliefState(frozenset(t.ids), order)
                via_args = project(
                    (a.support for a in supports(t, state, Atom(node))),
                    problem.assumptions,
                )
                assert via_args == expected
        assert atms_nogoods(problem) == project(
            oracle_muses(t), problem.assumptions
        )

    assert atms_labels(chain, "n") == sets([{"a1"}])
    assert atms_nogoods(chain) == frozenset()
    assert atms_labels(conflict, "n") == sets([{"a1"}])
    assert atms_nogoods(conflict) == sets([{"a1", "a2"}])


class _OneShot:
    """Single-use iterator that counts how many items were consumed."""

    def __init__(self, items):
        self._inner = iter(items)
        self.consumed = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._inner)
        self.consumed += 1
        return item


@criterion("belief sweep scales about linearly to 10k arguments; membership is a single scan")
def test_a11_sweep_scaling_and_single_scan_membership():
    m = 100
    ids = tuple(f"p{i:03d}" for i in range(m))
    t = ReliabilityTheory(
        tuple(Premise(pid, Atom("x")) for pid in ids), frozenset()
    )
    order = TotalOrder(ids)
    rng = random.Random(7)

    def synthetic_args(n):
        out = []
        for _ in range(n):
            victim = rng.randrange(1, m)
            size = min(victim, rng.randint(1, 4))
            support = frozenset(
                ids[j] for j in rng.sample(range(victim), size)
            )
            out.append(UnderminingArgument(support, ids[victim]))
        return out

    ns = [1000, 2000, 5000, 10000]
    suites = [synthetic_args(n) for n in ns]

    def measure():
        times = []
        for args in suites:
            samples = []
            for _ in range(5):
                begin = time.perf_counter()
                believed_premises(t, args, order)
                samples.append(time.perf_counter() - begin)
            times.append(statistics.median(samples))
        xs = [math.log(n) for n in ns]
        ys = [math.log(s) for s in times]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        slope = sum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
        ) / sum((x - mean_x) ** 2 for x in xs)
        return slope, times[-1]

    # rerun the measurement a couple of times before concluding that
    # growth is superlinear, so scheduler noise cannot fail the build
    slopes = []
    for _ in range(3):
        slope, biggest = measure()
        slopes.append(slope)
        if slope <= 1.2:
            break
    assert min(slopes) <= 1.2, slopes
    assert biggest < 1.0

    believed = frozenset(ids[: m // 2])
    supporting = [
        SupportingArgument(a.support, Atom(a.victim)) for a in suites[-1]
    ]
    scan = _OneShot(supporting)
    conclusions = believed_conclusions(scan, believed)
    assert scan.consumed == len(supporting)
    expected = {
        a.conclusion for a in supporting if a.support <= believed
    }
    assert set(conclusions) == expected


@criterion("planning fixture yields exactly the two conflicts and always drops both facts")
def test_a12_planning_fixture_conflicts(room):
    muses = minimal_unsat_subsets(room)
    assert muses == sets(
        [
            {"c_table_obscures", "f_picture", "f_move"},
            {"c_single_loc", "f_plant_duct", "f_move"},
        ]
    )
    members = all_extensions(room).members
    assert members
    for member in members:
        assert "f_picture" not in member
        assert "f_plant_duct" not in member
        assert "f_move" in member
