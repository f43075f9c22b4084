import functools
import random
import time

import pytest

from inconlog import formulas
from inconlog.arguments import (
    BeliefState,
    SupportingArgument,
    UnderminingArgument,
    belief_holds,
    believed_conclusions,
    believed_premises,
    format_argument,
    minimal_entailing_subsets,
    minimal_subsets,
    minimal_unsat_subsets,
    out_set,
    premise_arguments,
    saturate,
    supports,
    undermining_args_linear,
    undermining_args_partial,
)
from inconlog.errors import SubsetBudgetExceeded
from inconlog.formulas import Atom, Implies, Not, conj, parse_formula
from inconlog.theory import theory_of

from conftest import invoke
from util import (
    linear_extensions,
    oracle_fixed_points,
    oracle_minimal_entailing,
    oracle_muses,
    random_formula,
    random_theory,
)


def sets(items):
    return frozenset(frozenset(x) for x in items)


class TestMinimalUnsatSubsets:
    def test_single_conflict(self, example1):
        assert minimal_unsat_subsets(example1) == sets([{"p1", "p2", "p3"}])

    def test_overlapping_conflicts(self, example2):
        assert minimal_unsat_subsets(example2) == sets(
            [{"p1", "p2"}, {"p2", "p3"}]
        )

    def test_consistent_theory_has_none(self):
        t = theory_of({"a": "x", "b": "y"})
        assert minimal_unsat_subsets(t) == frozenset()

    def test_unsatisfiable_premise_is_its_own_conflict(self):
        t = theory_of({"bad": "a & !a", "other": "!a"})
        assert minimal_unsat_subsets(t) == sets([{"bad"}])

    def test_budget_is_enforced(self):
        t = theory_of({f"p{i}": "a" for i in range(5)})
        with pytest.raises(SubsetBudgetExceeded):
            minimal_unsat_subsets(t, budget=4)

    def test_matches_full_subset_scan(self):
        rng = random.Random(29)
        for _ in range(80):
            t = random_theory(rng, rng.randint(1, 5), ["a", "b"], 0.4)
            assert minimal_unsat_subsets(t) == oracle_muses(t)


class TestUnderminingArguments:
    def test_victim_cannot_support_itself(self):
        with pytest.raises(ValueError):
            UnderminingArgument(frozenset({"p1"}), "p1")

    def test_linear_rule_picks_the_least_reliable(self, example1):
        for order in linear_extensions(example1):
            args = undermining_args_linear(example1, order)
            assert args == frozenset(
                {UnderminingArgument(frozenset({"p1", "p2"}), "p3")}
            )

    def test_linear_rule_depends_on_the_extension(self, example3):
        victims = set()
        for order in linear_extensions(example3):
            for a in undermining_args_linear(example3, order):
                victims.add(a.victim)
        assert victims == {"pa", "pb", "pna", "pnb"}

    def test_partial_rule_keeps_every_minimal_victim(self, example3):
        args = undermining_args_partial(example3)
        assert args == frozenset(
            {
                UnderminingArgument(frozenset({"pna"}), "pa"),
                UnderminingArgument(frozenset({"pa"}), "pna"),
                UnderminingArgument(frozenset({"pnb"}), "pb"),
                UnderminingArgument(frozenset({"pb"}), "pnb"),
            }
        )

    def test_partial_rule_respects_the_order(self, example1):
        args = undermining_args_partial(example1)
        assert args == frozenset(
            {UnderminingArgument(frozenset({"p1", "p2"}), "p3")}
        )


class TestBelievedPremises:
    def test_out_set(self):
        args = [
            UnderminingArgument(frozenset({"a"}), "b"),
            UnderminingArgument(frozenset({"c"}), "d"),
        ]
        assert out_set(args, {"a", "b"}) == frozenset({"b"})
        assert out_set(args, {"a", "c"}) == frozenset({"b", "d"})

    def test_least_reliable_loses(self, example1):
        for order in linear_extensions(example1):
            args = undermining_args_linear(example1, order)
            state = believed_premises(example1, args, order)
            assert state.believed == frozenset({"p1", "p2", "p4"})

    def test_chain_of_conflicts(self, example2):
        (order,) = linear_extensions(example2)
        args = undermining_args_linear(example2, order)
        state = believed_premises(example2, args, order)
        assert state.believed == frozenset({"p1", "p3"})

    def test_result_is_the_unique_fixed_point(self):
        rng = random.Random(31)
        for _ in range(60):
            t = random_theory(rng, rng.randint(1, 5), ["a", "b"], 0.4)
            for order in linear_extensions(t):
                args = undermining_args_linear(t, order)
                state = believed_premises(t, args, order)
                fixed = oracle_fixed_points(t.ids, args)
                assert fixed == [state.believed]

    def test_fixed_point_equation_holds(self, example2):
        (order,) = linear_extensions(example2)
        args = undermining_args_linear(example2, order)
        believed = believed_premises(example2, args, order).believed
        assert believed == frozenset(example2.ids) - out_set(args, believed)


class TestSupports:
    def test_detachment(self, example1):
        (order,) = [
            o for o in linear_extensions(example1) if o.ranking[0] == "p1"
        ][:1]
        _, state = saturate(example1, order)
        psi = parse_formula("psi")
        assert belief_holds(example1, state, psi)
        assert supports(example1, state, psi) == frozenset(
            {SupportingArgument(frozenset({"p1", "p2"}), psi)}
        )

    def test_unbelieved_goal_is_refused(self, example1):
        order = linear_extensions(example1)[0]
        _, state = saturate(example1, order)
        with pytest.raises(ValueError):
            supports(example1, state, parse_formula("psi & !psi"))

    def test_tautology_needs_no_premises(self, example1):
        order = linear_extensions(example1)[0]
        _, state = saturate(example1, order)
        taut = parse_formula("phi | !phi")
        assert supports(example1, state, taut) == frozenset(
            {SupportingArgument(frozenset(), taut)}
        )

    def test_minimal_entailing_matches_full_scan(self):
        rng = random.Random(37)
        for _ in range(60):
            t = random_theory(rng, rng.randint(1, 4), ["a", "b"], 0.0)
            goal = parse_formula(rng.choice(["a", "!a", "a -> b", "b"]))
            by_id = t.formulas_by_id()
            assert minimal_entailing_subsets(
                by_id, t.ids, goal
            ) == oracle_minimal_entailing(by_id, t.ids, goal)

    def test_minimal_entailing_budget_is_enforced(self):
        t = theory_of({f"p{i}": "a" for i in range(5)})
        with pytest.raises(SubsetBudgetExceeded):
            minimal_entailing_subsets(
                t.formulas_by_id(), t.ids, parse_formula("a"), budget=4
            )

    def test_believed_conclusions_scans_once(self):
        phi = parse_formula("phi")
        psi = parse_formula("psi")
        args = [
            SupportingArgument(frozenset({"p1"}), phi),
            SupportingArgument(frozenset({"p9"}), psi),
            SupportingArgument(frozenset({"p1", "p2"}), phi),
        ]
        assert believed_conclusions(args, frozenset({"p1", "p2"})) == [phi]

    def test_premise_arguments_are_singletons(self, example1):
        args = premise_arguments(example1)
        assert [a.support for a in args] == [
            frozenset({pid}) for pid in example1.ids
        ]
        by_id = example1.formulas_by_id()
        assert all(a.conclusion == by_id[next(iter(a.support))] for a in args)


class TestFormatting:
    def test_undermining(self):
        arg = UnderminingArgument(frozenset({"p2", "p1"}), "p3")
        assert format_argument(arg) == "{p1,p2} =/> p3"

    def test_supporting(self):
        arg = SupportingArgument(frozenset({"p1"}), parse_formula("phi -> psi"))
        assert format_argument(arg) == "{p1} => phi -> psi"


class TestSaturate:
    def test_trace_shape(self, example1):
        order = linear_extensions(example1)[0]
        trace = []
        args, state = saturate(example1, order, trace=trace)
        assert trace[: len(example1.ids)] == [
            format_argument(a) for a in premise_arguments(example1)
        ]
        tail = trace[len(example1.ids) :]
        assert len(tail) == 2 * len(args)
        assert all(line.startswith("believed: ") for line in tail[1::2])
        assert tail[-1] == "believed: " + " ".join(sorted(state.believed))

    def test_agrees_with_the_direct_route(self):
        rng = random.Random(43)
        for _ in range(40):
            t = random_theory(rng, rng.randint(1, 5), ["a", "b"], 0.4)
            for order in linear_extensions(t)[:3]:
                args, state = saturate(t, order)
                assert args == undermining_args_linear(t, order)
                assert state == believed_premises(t, args, order)


def grouped_problem(rng):
    """2-4 atom-disjoint groups of searched premises, and hard premises
    that may link two groups or clash with each other."""
    groups = rng.randint(2, 4)
    by_id, ids, hard = {}, [], []
    for g in range(groups):
        for k in range(rng.randint(1, 3)):
            ids.append(f"p{g}_{k}")
            # literals make clashes within a group common
            by_id[ids[-1]] = random_formula(rng, [f"g{g}a", f"g{g}b"], rng.choice([0, 2]))
            if rng.random() < 0.3:
                by_id[ids[-1]] = Not(by_id[ids[-1]])
    for k in range(rng.randint(0, 2)):
        pair = rng.sample(range(groups), 2)
        hard.append(f"h{k}")
        by_id[hard[-1]] = random_formula(rng, [f"g{g}{x}" for g in pair for x in "ab"], 2)
    if rng.random() < 0.15:
        by_id["hx"], by_id["hy"] = parse_formula("g0a & g1a"), parse_formula("!g0a")
        hard += ["hx", "hy"]
    return by_id, ids, tuple(hard)


def subsets_by_scan(by_id, ids, goal, hard):
    # S plus hard entails goal iff S entails (hard -> goal); with goal
    # None, S plus hard is unsatisfiable iff S entails !hard.
    if goal is None and not hard:
        return oracle_muses(theory_of({pid: by_id[pid] for pid in ids}))
    fixed = functools.reduce(conj, (by_id[pid] for pid in hard)) if hard else None
    if goal is None:
        return oracle_minimal_entailing(by_id, ids, Not(fixed))
    return oracle_minimal_entailing(
        by_id, ids, goal if fixed is None else Implies(fixed, goal)
    )


class TestPartSplit:
    @pytest.mark.parametrize("max_atoms", [20, 0])
    def test_matches_full_subset_scan_on_disjoint_groups(self, max_atoms):
        rng = random.Random(211)
        for _ in range(120):
            by_id, ids, hard = grouped_problem(rng)
            goals = [None, Atom("fresh"), parse_formula("g0a | !g0a")]
            goals.append(random_formula(rng, ["g0a", "g0b", "g1a"], 2))
            for goal in goals:
                got = minimal_subsets(by_id, ids, goal=goal, hard=hard, max_atoms=max_atoms)
                assert got == subsets_by_scan(by_id, ids, goal, hard), (by_id, hard, goal)

    def test_budget_bounds_the_largest_part(self):
        t = theory_of({**{f"a{i}": f"a{i}" for i in range(30)}, "c": "!a0 & !a1"})
        assert minimal_unsat_subsets(t, budget=3) == sets([{"a0", "c"}, {"a1", "c"}])
        with pytest.raises(SubsetBudgetExceeded) as refused:
            minimal_unsat_subsets(t, budget=2)
        err = refused.value
        assert (err.layer, err.limit, err.size, err.parts) == ("MUS search", 2, 3, 29)
        assert all(str(v) in str(err) for v in ("MUS search", 2, 3, 29))

    def test_consistent_parts_count_against_the_budget(self):
        t = theory_of({"p": "a", "q": "a -> b", "r": "b", "s": "c"})
        with pytest.raises(SubsetBudgetExceeded):
            minimal_unsat_subsets(t, budget=2)

    def test_belief_holds_part_by_part(self):
        t = theory_of({"p": "a", "q": "a -> b", "r": "!c", "s": "d"})
        state = BeliefState(frozenset(t.ids), linear_extensions(t)[0])
        assert belief_holds(t, state, parse_formula("b & !c"))
        assert not belief_holds(t, state, parse_formula("b & e"))
        assert belief_holds(t, state, parse_formula("e | !e"))
        clash = theory_of({"p": "a", "q": "!a", "r": "b"})
        state = BeliefState(frozenset(clash.ids), linear_extensions(clash)[0])
        assert belief_holds(clash, state, parse_formula("e"))


class TestSubsetGates:
    # Bounds are twice the targets (0.1 s and 1 s): shared hosts run this
    # code up to about twice as slowly for stretches.
    def test_twenty_premise_baseline(self):
        t = theory_of({**{f"p{i}": f"x{i}" for i in range(19)}, "c": "!x0 & !x1"})
        start = time.perf_counter()
        muses = minimal_unsat_subsets(t)
        assert time.perf_counter() - start < 0.2
        assert muses == sets([{"p0", "c"}, {"p1", "c"}])

    def test_two_hundred_premises_of_small_clashes(self, tmp_path):
        lines = [f"premise p{i}: a{i}\npremise n{i}: !a{i}" for i in range(100)]
        lines += [f"order n{i} < p{i}" for i in range(100)]
        text = "\n".join(lines) + "\n"
        t = theory_of(
            [(f"p{i}", f"a{i}") for i in range(100)] + [(f"n{i}", f"!a{i}") for i in range(100)]
        )
        start = time.perf_counter()
        muses = minimal_unsat_subsets(t)
        assert time.perf_counter() - start < 2.0
        assert muses == sets([{f"p{i}", f"n{i}"} for i in range(100)])
        path = tmp_path / "pairs.rt"
        path.write_text(text)
        start = time.perf_counter()
        assert invoke("argue", str(path), "a7") == (0, "{p7} => a7\n")
        assert time.perf_counter() - start < 2.0
        assert invoke("argue", str(path), "!a7") == (1, "not believed\n")
