import gc
import random
import time
import weakref

import pytest

from inconlog import formulas, theory
from inconlog.extensions import all_extensions, skeptical_entails
from inconlog.errors import InvalidTheoryError
from inconlog.semantics import preferred_models
from inconlog.af import ArgExtension, is_ignored, partial_framework, stable_extensions
from inconlog.arguments import UnderminingArgument
from inconlog.theory import (
    TotalOrder,
    closure_of,
    ensure_valid,
    first_linear_extension,
    min_under,
    minimal_elements,
    theory_of,
    validate,
)

from conftest import invoke
from util import (
    linear_extensions,
    oracle_linear_extensions,
    random_theory,
    transitive_closure,
)


def warshall_cycle(pairs):
    # the smallest id on a cycle of the Warshall closure, then the
    # shortest edge path from it back to itself, searched in pair order
    cyclic = sorted(x for x, y in transitive_closure(pairs) if x == y)
    if not cyclic:
        return None
    start = cyclic[0]
    edges = {}
    for x, y in sorted(pairs):
        edges.setdefault(x, []).append(y)
    frontier, seen = [(start,)], set()
    while frontier:
        path = frontier.pop(0)
        for nxt in edges.get(path[-1], ()):
            if nxt == start:
                return path + (start,)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(path + (nxt,))


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

    def test_bitsets_decode_to_the_warshall_closure(self):
        rng = random.Random(131)
        for k in range(200):
            t = random_theory(rng, rng.randint(1, 9), ["a"], (0.1, 0.3, 0.6, 1.0)[k % 4])
            assert closure_of(t) == transitive_closure(t.order)

    def test_long_chain(self):
        # 3000 links: no recursion and no pair set on the way
        ids = [f"p{i:04d}" for i in range(3001)]
        t = theory_of({pid: "a" for pid in ids}, zip(ids[1:], ids))
        start = time.perf_counter()
        assert first_linear_extension(t).ranking == tuple(ids)
        assert minimal_elements(t, ids[::100]) == {ids[3000]}
        assert time.perf_counter() - start < 1.0


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

    def test_structure_is_checked_once_per_theory(self, monkeypatch):
        # every library entry point validates; the result is held on the
        # theory, so the scan runs once however many entry points it meets
        scans = []
        scan = theory._structural_issues
        monkeypatch.setattr(
            theory, "_structural_issues", lambda t: scans.append(t) or scan(t)
        )
        t = theory_of({"a": "x", "b": "!x", "c": "y"}, [("a", "b")])
        ensure_valid(t)
        assert validate(t).ok
        first_linear_extension(t)
        assert len(all_extensions(t)) == 1
        assert preferred_models(t) == {frozenset({"y"})}
        assert scans == [t]

    def test_unsatisfiable_premise_is_a_warning_not_an_error(self):
        t = theory_of({"bad": "a & !a", "good": "a"})
        report = validate(t)
        assert report.ok
        assert report.warnings == ("premise bad is unsatisfiable",)

    def test_issues_match_the_warshall_report(self):
        # random pairs over declared and undeclared ids, often cyclic:
        # the same issues as the closure-pair check, in the same order,
        # with the same cycle witness
        rng = random.Random(137)
        for _ in range(400):
            ids = [f"p{i}" for i in range(rng.randint(1, 7))]
            names = ids + ["q0", "q1"]
            pairs = {
                (rng.choice(names), rng.choice(names))
                for _ in range(rng.randint(0, 10))
            }
            t = theory_of({pid: "a" for pid in ids}, pairs)
            expected = [
                f"dangling id: {name}"
                for pair in sorted(pairs)
                for name in pair
                if name not in ids
            ]
            cycle = warshall_cycle(pairs)
            if cycle is not None:
                expected.append("cycle: " + " < ".join(cycle))
            assert [issue.describe() for issue in validate(t).issues] == expected

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

    def test_first_extension_is_lexicographically_least(self):
        rng = random.Random(5)
        for _ in range(80):
            t = random_theory(rng, rng.randint(1, 6), ["a", "b"], 0.5)
            assert first_linear_extension(t).ranking == oracle_linear_extensions(t)[0]

    def test_first_extension_refuses_an_invalid_theory(self):
        t = theory_of({"a": "x"}, [("a", "a")])
        with pytest.raises(InvalidTheoryError):
            first_linear_extension(t)


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


class TestIgnored:
    def test_matches_the_warshall_cycle_test(self):
        # the a08 theories: an extension is ignored iff the order plus
        # its induced pairs has a reflexive pair in its closure
        rng = random.Random(4812)
        for _ in range(150):
            t = random_theory(rng, rng.randint(1, 6), ["a", "b", "c"], 0.5)
            for ext in stable_extensions(partial_framework(t)):
                induced = {
                    (a.victim, pid)
                    for a in ext.members
                    if isinstance(a, UnderminingArgument)
                    for pid in a.support
                }
                closed = transitive_closure(t.order | induced)
                assert is_ignored(t, ext) == any(x == y for x, y in closed)

    def test_a_victim_above_its_support_through_the_order(self):
        # c < b < a; undermining a from {c} claims a < c: a cycle of three
        t = theory_of({"a": "x", "b": "y", "c": "!x"}, [("c", "b"), ("b", "a")])
        against = ArgExtension(frozenset({UnderminingArgument(frozenset({"c"}), "a")}), "stable")
        along = ArgExtension(frozenset({UnderminingArgument(frozenset({"a"}), "c")}), "stable")
        assert is_ignored(t, against) and not is_ignored(t, along)


class TestLongOrders:
    # Bounds are twice the one-second target: shared hosts run this code
    # up to about twice as slowly for stretches.
    def test_ten_thousand_link_chain(self, tmp_path):
        path = tmp_path / "chain.rt"
        ids = [f"p{i}" for i in range(10_000)] + ["q"]
        lines = [f"premise p{i}: x{i}" for i in range(10_000)] + ["premise q: !x0"]
        lines += [f"order {less} < {more}" for more, less in zip(ids, ids[1:])]
        path.write_text("\n".join(lines) + "\n")
        for argv, code in [
            (("check",), 0),
            (("extensions",), 0),
            (("entails", "x1"), 0),
            (("entails", "!x0"), 1),
            (("argue", "x1"), 0),
            (("af",), 0),
        ]:
            start = time.perf_counter()
            got, text = invoke(argv[0], str(path), *argv[1:])
            assert time.perf_counter() - start < 2.0, argv
            assert got == code, (argv, text)
            if argv[0] == "argue":
                assert text == "{p1} => x1\n"

    @pytest.mark.parametrize("clause", [1, 2])
    def test_two_thousand_premise_total_order(self, tmp_path, clause):
        # random clauses of one or two literals over four atoms; with two
        # literals the atoms tie all premises into one block
        rng = random.Random(2000)
        path = tmp_path / "block.rt"
        texts = [
            " | ".join(rng.choice(("", "!")) + rng.choice("abcd") for _ in range(clause))
            for _ in range(2000)
        ]
        lines = [f"premise b{i}: {text}" for i, text in enumerate(texts)]
        lines += [f"order b{i + 1} < b{i}" for i in range(1999)]
        path.write_text("\n".join(lines) + "\n")
        models, greedy = (1 << 16) - 1, []
        for i, text in enumerate(texts):
            mask = formulas.models_mask(formulas.parse_formula(text), ("a", "b", "c", "d"))
            if models & mask:
                models &= mask
                greedy.append(f"b{i}")
        start = time.perf_counter()
        code, text = invoke("extensions", str(path))
        assert time.perf_counter() - start < 4.0
        assert (code, text) == (0, " ".join(sorted(greedy)) + "\n(count: 1)\n")


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
