import random
import time

import pytest

from inconlog import extensions, formulas
from inconlog.errors import ExtensionCapExceeded
from inconlog.extensions import (
    all_extensions,
    credulous_entails,
    extension_factors,
    most_reliable_set,
    skeptical_entails,
)
from inconlog.files import load_theory
from inconlog.formulas import parse_formula
from inconlog.semantics import revise, satisfied_premises
from inconlog.theory import Premise, ReliabilityTheory, first_linear_extension, theory_of

from conftest import invoke
from util import (
    linear_extensions,
    oracle_extensions,
    oracle_greedy,
    oracle_preferred,
    random_formula,
    random_order_pairs,
    random_theory,
    shaped_order_pairs,
)


def sets(items):
    return frozenset(frozenset(x) for x in items)


class TestGreedy:
    def test_drops_only_the_least_reliable_conflict(self, example1):
        for order in linear_extensions(example1):
            assert most_reliable_set(example1, order) == frozenset(
                {"p1", "p2", "p4"}
            )

    def test_walks_the_chain(self, example2):
        (order,) = linear_extensions(example2)
        assert order.ranking == ("p3", "p2", "p1")
        assert most_reliable_set(example2, order) == frozenset({"p1", "p3"})

    def test_matches_step_by_step_reference(self):
        rng = random.Random(47)
        for _ in range(80):
            t = random_theory(rng, rng.randint(1, 6), ["a", "b"], 0.4)
            for order in linear_extensions(t)[:4]:
                assert most_reliable_set(t, order) == oracle_greedy(
                    t, order.ranking
                )


class TestAllExtensions:
    def test_single_extension(self, example1):
        assert all_extensions(example1).members == sets([{"p1", "p2", "p4"}])

    def test_total_order_single_extension(self, example2):
        assert all_extensions(example2).members == sets([{"p1", "p3"}])

    def test_crossed_orders_give_three(self, example3):
        # frozen from the permutation-filter reference; note the fourth
        # maximal consistent set {pa,pb} is unreachable because every
        # admissible ranking starts with pna or pnb
        assert all_extensions(example3).members == sets(
            [{"pna", "pnb"}, {"pa", "pnb"}, {"pna", "pb"}]
        )

    def test_consistent_theory_short_circuits(self):
        t = theory_of({"a": "x", "b": "y", "c": "x -> z"})
        assert all_extensions(t).members == sets([{"a", "b", "c"}])

    def test_container_protocol(self, example3):
        ext = all_extensions(example3)
        assert len(ext) == 3
        assert frozenset({"pna", "pnb"}) in ext
        assert frozenset({"pa", "pb"}) not in ext
        assert sets(ext.members) == frozenset(iter(ext))

    def test_matches_permutation_reference(self):
        rng = random.Random(53)
        for _ in range(80):
            t = random_theory(rng, rng.randint(1, 6), ["a", "b"], 0.4)
            assert all_extensions(t).members == oracle_extensions(t)

    def test_every_extension_is_maximal_consistent(self):
        rng = random.Random(59)
        for _ in range(60):
            t = random_theory(rng, rng.randint(1, 5), ["a", "b"], 0.4)
            by_id = t.formulas_by_id()
            satisfiable = {
                pid for pid in t.ids if formulas.is_consistent([by_id[pid]])
            }
            for member in all_extensions(t):
                assert formulas.is_consistent([by_id[pid] for pid in member])
                for pid in satisfiable - member:
                    assert not formulas.is_consistent(
                        [by_id[q] for q in member] + [by_id[pid]]
                    )


class TestBlockSearch:
    ROUTES = {
        "chosen": extensions._state_budget,
        "states": lambda units, atoms, max_atoms: None,
        "models": lambda units, atoms, max_atoms: 0 if atoms <= max_atoms else None,
    }

    def test_matches_permutation_reference_on_both_backends(self, monkeypatch):
        # a pool of 5 atoms and shallow formulas, so that atom components
        # really split; order density from antichain to total; each block
        # by the route the engine picks, by states only and by models
        # whenever its atoms fit the cap
        rng = random.Random(83)
        for k in range(320):
            t = random_theory(
                rng,
                rng.randint(1, 7),
                ["a", "b", "c", "d", "e"],
                (0.0, 0.2, 0.5, 0.8, 1.0)[k % 5],
                depth=rng.randint(0, 2),
            )
            expected = oracle_extensions(t)
            for route in self.ROUTES.values():
                monkeypatch.setattr(extensions, "_state_budget", route)
                assert all_extensions(t).members == expected
                assert all_extensions(t, max_atoms=0).members == expected

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_duplicate_witnesses_are_searched_once(self, monkeypatch, route):
        # 17 unordered copies of a against one !a: the copies are one unit,
        # so the states do not grow with their number
        monkeypatch.setattr(extensions, "_state_budget", self.ROUTES[route])
        premises = {f"a{i:02d}": "a" for i in range(17)}
        premises["n"] = "!a"
        t = theory_of(premises)
        expected = sets([set(premises) - {"n"}, {"n"}])
        assert all_extensions(t, extension_cap=10).members == expected
        assert all_extensions(t, max_atoms=0, extension_cap=10).members == expected

    @pytest.mark.parametrize("shape", ["layered", "diamond", "two-chain"])
    def test_units_with_several_covers(self, monkeypatch, shape):
        # a unit is placeable only once all its covers are: the frontier
        # of units with few enough units above must not skip or reorder
        # one, by states or by models, under either backend
        rng = random.Random(1409)
        atoms = ["a", "b", "c", "d"]
        for _ in range(60):
            ids = [f"p{i}" for i in range(1, rng.randint(4, 7) + 1)]
            premises = tuple(
                Premise(pid, random_formula(rng, atoms, rng.randint(0, 2))) for pid in ids
            )
            rng.shuffle(ids)
            t = ReliabilityTheory(premises, frozenset(shaped_order_pairs(rng, ids, shape)))
            goal = random_formula(rng, atoms, 2)
            expected = oracle_extensions(t)
            by_id = t.formulas_by_id()
            verdicts = [
                formulas.entails([by_id[pid] for pid in member], goal)
                for member in expected
            ]
            for route in self.ROUTES.values():
                monkeypatch.setattr(extensions, "_state_budget", route)
                for max_atoms in (20, 0):
                    assert all_extensions(t, max_atoms=max_atoms).members == expected
                    assert skeptical_entails(t, goal, max_atoms=max_atoms) == all(verdicts)
                    assert credulous_entails(t, goal, max_atoms=max_atoms) == any(verdicts)

    def test_states_are_visited_in_ascending_unit_order(self):
        # the state search passes its budget and the model route answers;
        # the states charged before the switch depend on the visit order,
        # which decides whether a cap of 60 is enough
        t = theory_of({
            "p1": "b -> a", "p2": "!a", "p3": "b", "p4": "a -> c",
            "p5": "b", "p6": "c & b", "p7": "a & b", "p8": "!b",
        })
        message = r"\(58 states visited, 1 of 1 blocks finished, 3 members to build\)"
        with pytest.raises(ExtensionCapExceeded, match=message):
            all_extensions(t, extension_cap=60)
        assert all_extensions(t, extension_cap=61).members == sets(
            [{"p1", "p2", "p4", "p8"}, {"p1", "p3", "p4", "p5", "p6", "p7"},
             {"p2", "p3", "p4", "p5", "p6"}]
        )

    def test_long_total_order_in_one_block(self, tmp_path):
        # 2,000 two-literal clauses over four atoms in one total order: one
        # block whose states each have one placeable unit (1.3 s when every
        # unit was scanned per state; the gate is 0.3 s)
        rng = random.Random(7)
        literals = ["a", "b", "c", "d", "!a", "!b", "!c", "!d"]
        ids = [f"c{i:04d}" for i in range(2000)]
        lines = [f"premise {pid}: {rng.choice(literals)} | {rng.choice(literals)}" for pid in ids]
        lines += [f"order {less} < {more}" for more, less in zip(ids, ids[1:])]
        path = tmp_path / "total.rt"
        path.write_text("\n".join(lines) + "\n")
        start = time.perf_counter()
        code, text = invoke("extensions", str(path))
        assert time.perf_counter() - start < 0.3
        t = load_theory(path)
        kept = most_reliable_set(t, first_linear_extension(t))
        assert (code, text) == (0, " ".join(sorted(kept)) + "\n(count: 1)\n")

    def test_wide_block_over_few_atoms(self):
        # 40 distinct unordered premises over 3 atoms: too wide for the
        # state search, answered from the 8 interpretations; R holds the
        # premise sets of the preferred models (acceptance a03)
        rng = random.Random(89)
        by_mask = {}
        while len(by_mask) < 40:
            f = random_formula(rng, ["a", "b", "c"], 3)
            by_mask.setdefault(formulas.models_mask(f, ("a", "b", "c")), f)
        t = ReliabilityTheory(
            tuple(Premise(f"p{i:02d}", f) for i, f in enumerate(by_mask.values())),
            frozenset(),
        )
        start = time.perf_counter()
        members = all_extensions(t).members
        assert time.perf_counter() - start < 1.0
        assert members == frozenset(
            satisfied_premises(m, t) for m in oracle_preferred(t)
        )

    def test_order_through_a_set_aside_premise(self):
        # f is consistent on its own and set aside, but b1 > f > b2 still
        # ranks b1 above b2 in their clash
        t = theory_of({"b1": "x", "b2": "!x", "f": "z"}, [("f", "b1"), ("b2", "f")])
        assert all_extensions(t).members == sets([{"b1", "f"}])

    def test_blocks_linked_only_through_set_aside_premises(self):
        # a > f > nb and b > g > na cross the two clashes, as in example3
        t = theory_of(
            {"a": "x", "na": "!x", "b": "y", "nb": "!y", "f": "z", "g": "w"},
            [("f", "a"), ("nb", "f"), ("g", "b"), ("na", "g")],
        )
        expected = sets(
            [{"a", "b", "f", "g"}, {"a", "nb", "f", "g"}, {"na", "b", "f", "g"}]
        )
        assert oracle_extensions(t) == expected
        assert all_extensions(t).members == expected
        assert all_extensions(t, max_atoms=0).members == expected

    def test_revised_theories_match_the_permutation_reference(self):
        # revision puts a premise above all others, so a top chain forms
        # and is factored out of the block union
        rng = random.Random(97)
        atoms = ["a", "b", "c", "d", "e"]
        for k in range(400):
            density = (0.0, 0.3, 0.7, 1.0)[k % 4]
            t = random_theory(rng, rng.randint(1, 5), atoms, density, depth=rng.randint(0, 2))
            for _ in range(rng.choice((0, 0, 1, 1, 2))):
                t = revise(t, random_formula(rng, atoms, rng.randint(0, 2)))
            expected = oracle_extensions(t)
            assert all_extensions(t).members == expected
            assert all_extensions(t, max_atoms=0).members == expected

    def test_top_chain_keeps_its_order_inside_the_block(self):
        # t > a > na with t consistent and above all: t's pairs no longer
        # tie b and nb to its block, and inside it a still ranks over na
        t = theory_of(
            {"t": "x | z", "a": "x", "na": "!x", "b": "y", "nb": "!y"},
            [("a", "t"), ("na", "a"), ("b", "t"), ("nb", "t")],
        )
        expected = sets([{"t", "a", "b"}, {"t", "a", "nb"}])
        assert oracle_extensions(t) == expected
        assert all_extensions(t).members == expected
        fixed, per_block = extension_factors(t)
        assert fixed == frozenset() and len(per_block) == 2
        # a total order is all top chain, clashing links included: its
        # blocks are split by atoms alone
        t = theory_of(
            {"a": "x", "na": "!x", "b": "y", "nb": "!y"},
            [("na", "a"), ("b", "na"), ("nb", "b")],
        )
        assert extension_factors(t)[1] == [[frozenset({"a"})], [frozenset({"b"})]]

    def test_wide_antichain_with_one_clash(self):
        premises = {"p00": "c", "p01": "!c"}
        premises.update((f"p{i:02d}", f"x{i}") for i in range(2, 24))
        t = theory_of(premises)
        start = time.perf_counter()
        members = all_extensions(t).members
        assert time.perf_counter() - start < 1.0
        free = set(premises) - {"p00", "p01"}
        assert members == sets([free | {"p00"}, free | {"p01"}])

    def test_cap_counts_states_and_members(self, example3):
        with pytest.raises(ExtensionCapExceeded, match="extension search"):
            all_extensions(example3, extension_cap=2)
        assert len(all_extensions(example3, extension_cap=100)) == 3
        # two unordered clashes: five states each, then 2 x 2 members
        t = theory_of({"a": "x", "na": "!x", "b": "y", "nb": "!y"})
        with pytest.raises(ExtensionCapExceeded, match="4 members to build"):
            all_extensions(t, extension_cap=13)
        assert len(all_extensions(t, extension_cap=14)) == 4
        fixed, per_block = extension_factors(t, extension_cap=10)
        assert fixed == frozenset()
        assert sorted(map(len, per_block)) == [2, 2]


class TestEntailment:
    def test_skeptical_examples(self, example1):
        assert skeptical_entails(example1, parse_formula("psi"))
        assert skeptical_entails(example1, parse_formula("alpha"))
        assert not skeptical_entails(example1, parse_formula("!psi"))

    def test_skeptical_versus_credulous(self, example3):
        a = parse_formula("a")
        assert not skeptical_entails(example3, a)
        assert credulous_entails(example3, a)
        assert skeptical_entails(example3, parse_formula("!a | !b"))
        assert not credulous_entails(example3, parse_formula("a & b"))

    def test_conflicting_premise_is_only_credulous(self, example2):
        assert skeptical_entails(example2, parse_formula("alpha & beta"))
        assert not credulous_entails(example2, parse_formula("!alpha"))

    def test_both_match_the_definition(self):
        rng = random.Random(61)
        for _ in range(60):
            t = random_theory(rng, rng.randint(1, 5), ["a", "b"], 0.4)
            goal = parse_formula(rng.choice(["a", "!a", "a -> b", "a & b"]))
            by_id = t.formulas_by_id()
            verdicts = [
                formulas.entails([by_id[pid] for pid in member], goal)
                for member in all_extensions(t)
            ]
            assert skeptical_entails(t, goal) == all(verdicts)
            assert credulous_entails(t, goal) == any(verdicts)

    def test_factored_entailment_matches_the_definition(self):
        # goals over some of the 5 atoms plus a fresh one, so that blocks
        # sharing no atom with the goal are left out of the product; the
        # verdicts come member by member from the full extension set
        rng = random.Random(71)
        pool = ["a", "b", "c", "d", "e"]
        for k in range(150):
            t = random_theory(
                rng, rng.randint(1, 7), pool, (0.0, 0.3, 0.7)[k % 3], depth=rng.randint(0, 2)
            )
            goal = random_formula(rng, rng.sample(pool, rng.randint(1, 3)) + ["f"], 2)
            by_id = t.formulas_by_id()
            verdicts = [
                formulas.entails([by_id[pid] for pid in member], goal)
                for member in all_extensions(t)
            ]
            for max_atoms in (20, 0):
                assert skeptical_entails(t, goal, max_atoms=max_atoms) == all(verdicts)
                assert credulous_entails(t, goal, max_atoms=max_atoms) == any(verdicts)

    def test_goals_over_some_of_several_disjoint_clusters(self):
        # 2-4 atom-disjoint clusters, ordered across clusters too; each
        # goal reads the atoms of no, one or two clusters, plus at times
        # a fresh atom: only the clusters it touches are searched
        rng = random.Random(1507)
        for _ in range(150):
            clusters = [[f"c{c}a", f"c{c}b"] for c in range(rng.randint(2, 4))]
            premises = [
                Premise(f"p{c}{i}", random_formula(rng, atoms, rng.randint(0, 2)))
                for c, atoms in enumerate(clusters)
                for i in range(rng.randint(1, 2))
            ][:6]
            ids = [p.id for p in premises]
            pairs = random_order_pairs(rng, ids, rng.choice([0.0, 0.2, 0.5]))
            t = ReliabilityTheory(tuple(premises), frozenset(pairs))
            touched = rng.sample(clusters, rng.randint(0, 2))
            atoms = [atom for cluster in touched for atom in cluster]
            if not atoms or rng.random() < 0.3:
                atoms.append("z")
            goal = random_formula(rng, atoms, 2)
            by_id = t.formulas_by_id()
            verdicts = [
                formulas.entails([by_id[pid] for pid in member], goal)
                for member in oracle_extensions(t)
            ]
            for max_atoms in (20, 0):
                assert skeptical_entails(t, goal, max_atoms=max_atoms) == all(verdicts)
                assert credulous_entails(t, goal, max_atoms=max_atoms) == any(verdicts)

    def test_cap_error_names_layer_limit_and_progress(self, example3):
        t = theory_of({"a": "x", "na": "!x", "b": "y", "nb": "!y"})
        with pytest.raises(ExtensionCapExceeded) as refused:
            all_extensions(t, extension_cap=13)
        err = refused.value
        assert (err.layer, err.limit, err.states, err.finished, err.blocks, err.members) == (
            "extension search", 13, 10, 2, 2, 4)
        assert str(err) == ("extension search: over the limit of 13 states and members "
                            "(10 states visited, 2 of 2 blocks finished, 4 members to build)")
        with pytest.raises(ExtensionCapExceeded) as refused:
            all_extensions(example3, extension_cap=2)
        err = refused.value
        assert (err.limit, err.states, err.members) == (2, 3, 0)
        assert str(err).endswith(
            f"(3 states visited, {err.finished} of {err.blocks} blocks finished)")

    def test_premises_reach_the_index_in_position_order(self, monkeypatch):
        # In frozenset order the solver's frames and decisions, and so
        # its work, would follow the hash seed.
        t = theory_of([(f"p{i}", f"a | x{i}") for i in range(12)] + [("q0", "g"), ("q1", "!g")])
        position = {pid: i for i, pid in enumerate(t.ids)}
        seen = []

        def recording(method):
            def wrapper(index, ids, *rest):
                ids = list(ids)
                seen.append(ids)
                return method(index, ids, *rest)
            return wrapper

        for name in ("consistent", "entails"):
            monkeypatch.setattr(formulas.ConsistencyIndex, name,
                                recording(getattr(formulas.ConsistencyIndex, name)))
        for max_atoms in (20, 0):
            assert not skeptical_entails(t, parse_formula("g & (a | x0)"), max_atoms=max_atoms)
            assert credulous_entails(t, parse_formula("g & (a | x0)"), max_atoms=max_atoms)
            assert len(all_extensions(t, max_atoms=max_atoms)) == 2
        assert max(map(len, seen)) == 13
        assert all(ids == sorted(ids, key=position.__getitem__) for ids in seen)

    def test_only_blocks_sharing_an_atom_with_the_goal_are_charged(self):
        # two unordered clashes of 5 states each: x searches its own
        # block alone, 5 states and then 2 members; x & y searches both
        t = theory_of({"a": "x", "na": "!x", "b": "y", "nb": "!y"})
        assert not skeptical_entails(t, parse_formula("x"), extension_cap=7)
        assert credulous_entails(t, parse_formula("x"), extension_cap=7)
        with pytest.raises(ExtensionCapExceeded, match="2 members to build"):
            skeptical_entails(t, parse_formula("x"), extension_cap=6)
        with pytest.raises(ExtensionCapExceeded, match="4 members to build"):
            skeptical_entails(t, parse_formula("x & y"), extension_cap=13)

    def test_skeptical_is_stronger(self):
        rng = random.Random(67)
        for _ in range(60):
            t = random_theory(rng, rng.randint(1, 5), ["a", "b"], 0.4)
            goal = parse_formula(rng.choice(["a", "!b", "a | b"]))
            if skeptical_entails(t, goal):
                assert credulous_entails(t, goal)
