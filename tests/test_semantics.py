import random
import time
from typing import Dict, Set

import pytest

from inconlog import formulas
from inconlog.errors import AtomCapExceeded, InvalidTheoryError
from inconlog.extensions import all_extensions, credulous_entails, skeptical_entails
from inconlog.files import parse_theory, render_theory
from inconlog.formulas import parse_formula
from inconlog.semantics import (
    REVISION_ID_STEM,
    conditional,
    preference_witness,
    preferred_models,
    prefers,
    revise,
    satisfied_premises,
)
from inconlog.theory import Premise, ReliabilityTheory, theory_of

from util import oracle_preferred, random_theory, transitive_closure


def sets(items):
    return frozenset(frozenset(x) for x in items)


class TestSatisfiedPremises:
    def test_example(self, example1):
        assert satisfied_premises(
            frozenset({"phi", "psi", "alpha"}), example1
        ) == frozenset({"p1", "p2", "p4"})
        assert satisfied_premises(frozenset(), example1) == frozenset(
            {"p2", "p3"}
        )


class TestPreference:
    def test_outweighed_surplus_loses(self, example1):
        less = frozenset({"alpha"})  # satisfies p2, p3, p4
        more = frozenset({"phi", "psi", "alpha"})  # satisfies p1, p2, p4
        witness = preference_witness(example1, less, more)
        assert witness is not None
        assert witness.pairing == (("p3", "p1"),)
        assert not prefers(example1, more, less)

    def test_premise_superset_wins_vacuously(self, example1):
        less = frozenset()  # satisfies p2, p3
        more = frozenset({"alpha"})  # satisfies p2, p3, p4
        witness = preference_witness(example1, less, more)
        assert witness is not None
        assert witness.pairing == ()

    def test_equal_premise_sets_are_incomparable(self, example1):
        m = frozenset({"phi", "psi"})
        n = frozenset({"phi", "psi", "alpha"})
        # both satisfy p1 and p2; they differ only off-premise
        assert satisfied_premises(m, example1) >= frozenset({"p1", "p2"})
        assert not prefers(example1, m, m)

    def test_unordered_surplus_blocks_dominance(self, example3):
        m = frozenset({"a", "b"})  # satisfies pa, pb
        n = frozenset({"a"})  # satisfies pa, pnb
        # pb's surplus can only be answered by pnb, but pb and pnb are
        # unordered, so n does not beat m; the empty interpretation
        # beats m because the order crosses (pa < pnb and pb < pna)
        assert not prefers(example3, m, n)
        assert not prefers(example3, n, m)
        assert prefers(example3, m, frozenset())


class TestPreferredModels:
    def test_single_model(self, example1):
        assert preferred_models(example1) == frozenset(
            {frozenset({"phi", "psi", "alpha"})}
        )

    def test_crossed_orders_leave_three(self, example3):
        assert preferred_models(example3) == sets([set(), {"a"}, {"b"}])

    def test_extra_atoms_stay_free(self, example1):
        models = preferred_models(example1, extra_atoms=["zeta"])
        assert models == sets(
            [{"phi", "psi", "alpha"}, {"phi", "psi", "alpha", "zeta"}]
        )

    def test_matches_pairwise_reference(self):
        rng = random.Random(71)
        for _ in range(50):
            t = random_theory(rng, rng.randint(1, 4), ["a", "b", "c"], 0.4)
            assert preferred_models(t) == oracle_preferred(t)

    def test_twelve_atoms_of_disjoint_clashes(self):
        # one premise per atom plus !(a & b) over six disjoint atom pairs:
        # each pair keeps exactly two of its three premises, so R has 3^6
        # members, each with one model
        atoms = [f"a{i:02d}" for i in range(12)]
        premises = {f"p{i:02d}": a for i, a in enumerate(atoms)}
        premises.update(
            (f"q{j}", f"!({atoms[2 * j]} & {atoms[2 * j + 1]})") for j in range(6)
        )
        t = theory_of(premises)
        start = time.perf_counter()
        models = preferred_models(t)
        assert time.perf_counter() - start < 1.0
        assert len(models) == 729
        assert len(all_extensions(t)) == 729

    def test_skeptical_theorems_hold_in_every_preferred_model(self):
        rng = random.Random(73)
        for _ in range(40):
            t = random_theory(rng, rng.randint(1, 4), ["a", "b"], 0.4)
            goal = parse_formula(rng.choice(["a", "!a", "a -> b", "a | b"]))
            semantic = all(
                formulas.evaluate(goal, m)
                for m in preferred_models(t, extra_atoms=formulas.atoms_of(goal))
            )
            assert skeptical_entails(t, goal) == semantic

    def test_invalid_theory_is_refused(self):
        t = theory_of({"a": "x"}, [("a", "a")])
        with pytest.raises(InvalidTheoryError):
            preferred_models(t)

    def test_atom_cap_error_names_layer_limit_and_atoms(self):
        t = theory_of({"p": "a -> b", "q": "c"})
        with pytest.raises(AtomCapExceeded) as refused:
            preferred_models(t, extra_atoms=["d"], max_atoms=3)
        err = refused.value
        assert (err.layer, err.limit, err.atoms) == ("preferred-model", 3, 4)
        assert str(err) == "4 atoms exceed the preferred-model cap of 3"


class TestRevise:
    def test_new_premise_tops_the_order(self, example1):
        alpha = parse_formula("!phi")
        revised = revise(example1, alpha)
        new_id = f"{REVISION_ID_STEM}_0"
        assert revised.formula_of(new_id) == alpha
        assert set(revised.ids) == set(example1.ids) | {new_id}
        assert all((pid, new_id) in revised.order for pid in example1.ids)

    def test_syntactic_duplicate_is_replaced(self):
        t = theory_of({"a": "x", "b": "y", "c": "z"}, [("a", "b"), ("b", "c")])
        revised = revise(t, parse_formula("y"))
        assert set(revised.ids) == {"a", "c", f"{REVISION_ID_STEM}_0"}
        # the comparison that passed through the removed premise survives
        assert ("a", "c") in revised.order

    def test_idempotent(self, example2):
        alpha = parse_formula("alpha & beta")
        once = revise(example2, alpha)
        assert revise(once, alpha) == once

    def test_revision_succeeds(self, example2):
        alpha = parse_formula("!alpha & !beta")
        assert skeptical_entails(revise(example2, alpha), alpha)

    def test_plain_addition_is_weaker(self, expansion_theory):
        alpha = parse_formula("alpha")
        assert skeptical_entails(revise(expansion_theory, alpha), alpha)
        expanded = ReliabilityTheory(
            expansion_theory.premises + (Premise("p5", alpha),),
            expansion_theory.order,
        )
        assert not skeptical_entails(expanded, alpha)

    def test_written_revision_matches_the_closure_reference(self):
        # orders given as full closures and as covers; alpha is a premise
        # in the middle of the order, so pairs that passed through it must
        # survive; ids p1..p14 sort p10 before p2 as strings
        rng = random.Random(1414)
        new_id = f"{REVISION_ID_STEM}_0"
        for k in range(500):
            t = random_theory(
                rng, rng.randint(2, 14), ["a", "b", "c"], (0.2, 0.5, 0.8)[k % 3],
                depth=rng.randint(0, 1),
            )
            closure = transitive_closure(t.order)
            above: Dict[str, Set[str]] = {}
            for x, y in closure:
                above.setdefault(x, set()).add(y)
            if k % 2:
                implied = {(x, z) for x, y in closure for z in above.get(y, ())}
                t = ReliabilityTheory(t.premises, closure - implied)
            else:
                t = ReliabilityTheory(t.premises, closure)
            assert parse_theory(render_theory(t)) == t
            middle = sorted(set(above).intersection(y for _, y in closure))
            alpha = t.formula_of(rng.choice(middle or list(t.ids)))
            kept = [p for p in t.premises if p.formula != alpha]
            kept_ids = {p.id for p in kept}
            pairs = {(x, y) for x, y in closure if x in kept_ids and y in kept_ids}
            pairs |= {(pid, new_id) for pid in kept_ids}
            expected = "".join(
                f"premise {p.id}: {formulas.format_formula(p.formula)}\n"
                for p in kept + [Premise(new_id, alpha)]
            ) + "".join(f"order {x} < {y}\n" for x, y in sorted(pairs))
            revised = revise(t, alpha)
            assert render_theory(revised) == expected
            assert parse_theory(render_theory(revised)) == revised


class TestConditional:
    def test_sensor_fusion(self, dakota):
        dak = parse_formula("dakota")
        fast = parse_formula("mach_1_5")
        slow = parse_formula("!mach_1_5")
        assert skeptical_entails(dakota, parse_formula("!dakota"))
        # supposing the aircraft really is a Dakota unseats that belief
        # but leaves the radar-versus-rule standoff open either way
        assert conditional(dakota, dak, dak)
        assert not conditional(dakota, dak, fast)
        assert not conditional(dakota, dak, slow)
        revised = revise(dakota, dak)
        assert credulous_entails(revised, fast)
        assert credulous_entails(revised, slow)

    def test_counterfactual_supposition(self, bizet):
        assert len(all_extensions(bizet)) == 2
        either = parse_formula("!bizet_french | !verdi_italian")
        assert skeptical_entails(bizet, either)
        assert not skeptical_entails(bizet, parse_formula("!bizet_french"))
        assert conditional(
            bizet, parse_formula("verdi_italian"), parse_formula("!bizet_french")
        )

    def test_conditional_is_reflexive_for_satisfiable_antecedents(self):
        rng = random.Random(79)
        for _ in range(40):
            t = random_theory(rng, rng.randint(1, 4), ["a", "b"], 0.4)
            alpha = parse_formula(rng.choice(["a", "!a", "a & b", "a | b"]))
            assert conditional(t, alpha, alpha)
