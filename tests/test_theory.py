import gc
import random
import weakref

import pytest

from inconlog import formulas
from inconlog.extensions import all_extensions, skeptical_entails
from inconlog.semantics import preferred_models
from inconlog.errors import ExtensionCapExceeded, InvalidTheoryError
from inconlog.theory import (
    TotalOrder,
    closure_of,
    ensure_valid,
    first_linear_extension,
    linear_extensions,
    min_under,
    minimal_elements,
    theory_of,
    transitive_closure,
    validate,
)

from util import oracle_linear_extensions, random_theory


class TestClosure:
    def test_chain_closes(self):
        assert transitive_closure([("a", "b"), ("b", "c")]) == frozenset(
            {("a", "b"), ("b", "c"), ("a", "c")}
        )

    def test_empty(self):
        assert transitive_closure([]) == frozenset()

    def test_cycle_closes_to_reflexive_pairs(self):
        closed = transitive_closure([("a", "b"), ("b", "a")])
        assert ("a", "a") in closed and ("b", "b") in closed


class TestValidation:
    def test_valid_theory(self, example1):
        report = validate(example1)
        assert report.ok and report.warnings == ()

    def test_cycle_is_reported(self):
        t = theory_of({"a": "x", "b": "y"}, [("a", "b"), ("b", "a")])
        report = validate(t)
        assert not report.ok
        assert report.issues[0].kind == "cycle"
        assert report.issues[0].describe() == "cycle: a < b < a"

    def test_dangling_and_duplicate_ids(self):
        t = theory_of([("p", "x"), ("p", "y")], [("p", "q")])
        kinds = {issue.kind for issue in validate(t).issues}
        assert kinds == {"duplicate-id", "dangling-id"}

    def test_unsatisfiable_premise_is_a_warning_not_an_error(self):
        t = theory_of({"bad": "a & !a", "good": "a"})
        report = validate(t)
        assert report.ok
        assert report.warnings == ("premise bad is unsatisfiable",)

    def test_validity_matches_naive_irreflexivity_check(self):
        rng = random.Random(41)
        for _ in range(150):
            ids = [f"p{i}" for i in range(rng.randint(1, 5))]
            pairs = {
                (rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 6))
            }
            t = theory_of({pid: "a" for pid in ids}, pairs)
            closed = transitive_closure(pairs)
            expected = not any(x == y for x, y in closed)
            assert validate(t).ok == expected


class TestLinearExtensions:
    def test_unordered_pair_gives_both_orders(self):
        t = theory_of({"a": "x", "b": "y"})
        assert [o.ranking for o in linear_extensions(t)] == [
            ("a", "b"),
            ("b", "a"),
        ]

    def test_total_order_gives_single_extension(self, example2):
        orders = linear_extensions(example2)
        assert [o.ranking for o in orders] == [("p3", "p2", "p1")]

    def test_crossed_pairs_give_six(self, example3):
        # frozen from the permutation-filter reference
        orders = linear_extensions(example3)
        assert len(orders) == 6
        assert {o.ranking for o in orders} == set(oracle_linear_extensions(example3))

    def test_matches_permutation_filter_on_random_theories(self):
        rng = random.Random(17)
        for _ in range(120):
            t = random_theory(rng, rng.randint(1, 6), ["a", "b"], 0.5)
            assert {o.ranking for o in linear_extensions(t)} == set(
                oracle_linear_extensions(t)
            )

    def test_every_extension_respects_the_order(self, example1):
        for order in linear_extensions(example1):
            pos = order.positions()
            assert all(pos[more] < pos[less] for less, more in example1.order)

    def test_cap_is_enforced(self):
        t = theory_of({f"p{i}": "a" for i in range(5)})
        with pytest.raises(ExtensionCapExceeded):
            linear_extensions(t, cap=100)

    def test_invalid_theory_is_refused(self):
        t = theory_of({"a": "x"}, [("a", "a")])
        with pytest.raises(InvalidTheoryError):
            linear_extensions(t)

    def test_first_extension_is_lexicographically_least(self):
        rng = random.Random(5)
        for _ in range(80):
            t = random_theory(rng, rng.randint(1, 6), ["a", "b"], 0.5)
            assert (
                first_linear_extension(t).ranking
                == linear_extensions(t)[0].ranking
            )


class TestOrderQueries:
    def test_min_under_picks_the_least_reliable(self):
        order = TotalOrder(("top", "mid", "low"))
        assert min_under(order, {"top", "low"}) == "low"
        assert min_under(order, {"mid"}) == "mid"

    def test_min_under_rejects_bad_input(self):
        order = TotalOrder(("a",))
        with pytest.raises(ValueError):
            min_under(order, [])
        with pytest.raises(ValueError):
            min_under(order, ["missing"])

    def test_minimal_elements_examples(self, example1):
        assert minimal_elements(example1, {"p1", "p2", "p3"}) == {"p3"}
        assert minimal_elements(example1, {"p1", "p2", "p4"}) == {"p1", "p2", "p4"}

    def test_minimal_elements_sees_through_the_closure(self):
        t = theory_of({"a": "x", "b": "y", "c": "z"}, [("a", "b"), ("b", "c")])
        assert minimal_elements(t, {"a", "c"}) == {"a"}

    def test_min_under_is_always_a_minimal_element(self):
        rng = random.Random(23)
        for _ in range(100):
            t = random_theory(rng, rng.randint(2, 6), ["a", "b"], 0.5)
            subset = {pid for pid in t.ids if rng.random() < 0.6}
            if not subset:
                continue
            for order in linear_extensions(t):
                assert min_under(order, subset) in minimal_elements(t, subset)


class TestLifetimes:
    def test_a_dropped_theory_frees_its_formulas(self):
        # no process-wide cache keeps a premise alive after its theory
        premise = formulas.parse_formula("a & (b -> c)")
        probe = weakref.ref(premise)
        t = theory_of({"p": premise, "q": "!a", "r": "c"}, [("q", "p")])
        ensure_valid(t)
        assert validate(t).ok
        assert closure_of(t) == frozenset({("q", "p")})
        assert len(all_extensions(t)) == 1
        assert skeptical_entails(t, formulas.parse_formula("c"))
        assert len(preferred_models(t)) == 2
        assert not formulas.is_consistent(t.formulas_by_id().values())
        del t, premise
        gc.collect()
        assert probe() is None
