import random
import time

import pytest

from inconlog import formulas
from inconlog.bridges import (
    AtmsProblem,
    Justification,
    ModalCategories,
    atms_encode,
    atms_labels,
    atms_nogoods,
    from_modal_categories,
    justification_formula,
    parse_atms,
)
from inconlog.errors import SubsetBudgetExceeded, TheoryFormatError
from inconlog.extensions import all_extensions
from inconlog.formulas import Atom, parse_formula

from conftest import invoke
from util import (
    linear_extensions,
    oracle_minimal_entailing,
    oracle_muses,
    oracle_pmmc,
    random_formula,
)


def sets(items):
    return frozenset(frozenset(x) for x in items)


def minimised(sets_):
    pool = set(sets_)
    return frozenset(s for s in pool if not any(other < s for other in pool))


def random_atms(rng):
    assumptions = [f"a{i}" for i in range(1, rng.randint(1, 6) + 1)]
    nodes = ["n1", "n2"]
    lines = [f"assume {a}." for a in assumptions]
    lines += [f"node {n}." for n in nodes]
    for _ in range(rng.randint(2, 4)):
        body = rng.sample(assumptions + nodes[:1], rng.randint(0, 2))
        keyword = rng.choice(["just", "just", "deny"])
        lines.append(f"{keyword} {', '.join(body)} -> {rng.choice(nodes)}.")
    return parse_atms("\n".join(lines))


# 8 assumptions and 18 justifications: a{i} -> m{i}, g from adjacent
# pairs, x unconditionally and !x from four clashing pairs.
WIDE_ATMS = "\n".join(
    [f"assume a{i}." for i in range(1, 9)]
    + [f"node m{i}." for i in range(1, 9)]
    + ["node g.", "node x."]
    + [f"just a{i} -> m{i}." for i in range(1, 9)]
    + [f"just m{i}, m{i + 1} -> g." for i in (1, 2, 3, 5, 7)]
    + ["just -> x."]
    + ["deny a1, a3 -> x.", "deny a2, a4 -> x.", "deny a5, a8 -> x."]
    + ["deny m6, m7 -> x."]
)
WIDE_NOGOODS = sets([{"a1", "a3"}, {"a2", "a4"}, {"a5", "a8"}, {"a6", "a7"}])
# every nogood entails g as well
WIDE_LABEL_G = WIDE_NOGOODS | sets(
    [{"a1", "a2"}, {"a2", "a3"}, {"a3", "a4"}, {"a5", "a6"}, {"a7", "a8"}]
)


def layers(*groups):
    return ModalCategories(
        tuple(frozenset(parse_formula(s) for s in group) for group in groups)
    )


class TestModalCategories:
    def test_encoding_shape(self):
        t = from_modal_categories(layers(["a", "b"], ["!a"]))
        assert t.ids == ("m0_0", "m0_1", "m1_0")
        assert t.formula_of("m0_0") == parse_formula("a")
        assert t.formula_of("m1_0") == parse_formula("!a")
        assert t.order == frozenset({("m1_0", "m0_0"), ("m1_0", "m0_1")})

    def test_same_layer_stays_unordered(self):
        t = from_modal_categories(layers(["a", "!a"]))
        assert t.order == frozenset()
        assert len(linear_extensions(t)) == 2

    def test_extensions_match_layerwise_widening(self):
        cats = layers(["compatriots"], ["compatriots -> !(bf & vi)"], ["bf", "vi"])
        t = from_modal_categories(cats)
        by_id = t.formulas_by_id()
        got = frozenset(
            frozenset(by_id[pid] for pid in member)
            for member in all_extensions(t)
        )
        assert got == oracle_pmmc(cats.layers)
        assert len(got) == 2

    def test_random_layerings_agree_with_the_reference(self):
        rng = random.Random(103)
        for _ in range(40):
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


class TestAtmsEncoding:
    def test_justification_formulas(self):
        assert justification_formula(
            Justification(frozenset({"a1", "m"}), "n")
        ) == parse_formula("a1 & m -> n")
        assert justification_formula(
            Justification(frozenset({"a2"}), "n", deny=True)
        ) == parse_formula("a2 -> !n")
        assert justification_formula(
            Justification(frozenset(), "n")
        ) == parse_formula("n")

    def test_assumptions_rank_below_justifications(self):
        problem = parse_atms("assume a1.\nnode n.\njust a1 -> n.")
        t = atms_encode(problem)
        assert set(t.ids) == {"a1", "j1"}
        assert t.order == frozenset({("a1", "j1")})
        assert t.formula_of("a1") == parse_formula("a1")

    def test_validation(self):
        with pytest.raises(ValueError):
            AtmsProblem(frozenset({"a"}), frozenset({"a"}), ())
        with pytest.raises(ValueError):
            AtmsProblem(
                frozenset({"a"}),
                frozenset(),
                (Justification(frozenset({"a"}), "missing"),),
            )
        with pytest.raises(ValueError):
            AtmsProblem(
                frozenset({"a"}),
                frozenset({"n"}),
                (Justification(frozenset({"ghost"}), "n"),),
            )


class TestLabelsAndNogoods:
    def test_chain_label(self):
        problem = parse_atms(
            "assume a1.\nnode m.\nnode n.\njust a1 -> m.\njust m -> n."
        )
        assert atms_labels(problem, "n") == sets([{"a1"}])
        assert atms_labels(problem, "m") == sets([{"a1"}])
        assert atms_nogoods(problem) == frozenset()

    def test_conflicting_assumptions(self):
        problem = parse_atms(
            "assume a1.\nassume a2.\nnode n.\njust a1 -> n.\ndeny a2 -> n."
        )
        assert atms_labels(problem, "n") == sets([{"a1"}])
        assert atms_nogoods(problem) == sets([{"a1", "a2"}])

    def test_joint_support(self):
        problem = parse_atms(
            "assume a1.\nassume a2.\nnode n.\njust a1, a2 -> n."
        )
        assert atms_labels(problem, "n") == sets([{"a1", "a2"}])

    def test_alternative_environments_are_both_kept(self):
        problem = parse_atms(
            "assume a1.\nassume a2.\nnode n.\njust a1 -> n.\njust a2 -> n."
        )
        assert atms_labels(problem, "n") == sets([{"a1"}, {"a2"}])

    def test_premise_node_shrinks_the_label(self):
        # an unconditional justification makes the node hold everywhere
        problem = parse_atms(
            "assume a1.\nnode n.\njust a1 -> n.\njust -> n."
        )
        assert atms_labels(problem, "n") == sets([set()])

    def test_unknown_node_is_refused(self):
        problem = parse_atms("assume a1.\nnode n.\njust a1 -> n.")
        with pytest.raises(ValueError):
            atms_labels(problem, "zzz")

    def test_random_problems_match_the_projected_oracles(self):
        rng = random.Random(107)
        for _ in range(60):
            problem = random_atms(rng)
            t = atms_encode(problem)
            by_id = t.formulas_by_id()
            assumptions = problem.assumptions
            assert atms_nogoods(problem) == minimised(
                m & assumptions for m in oracle_muses(t)
            )
            for node in sorted(problem.nodes):
                entailing = oracle_minimal_entailing(by_id, t.ids, Atom(node))
                assert atms_labels(problem, node) == minimised(
                    s & assumptions for s in entailing
                )


class TestAtmsBudget:
    def test_many_justifications_fit_the_default_budget(self):
        problem = parse_atms(WIDE_ATMS)
        assert len(problem.justifications) == 18
        assert atms_nogoods(problem) == WIDE_NOGOODS
        assert atms_labels(problem, "g") == WIDE_LABEL_G

    def test_many_justifications_through_the_cli(self, tmp_path):
        path = tmp_path / "wide.atms"
        path.write_text(WIDE_ATMS + "\n")
        code, text = invoke("atms", str(path), "--nogoods")
        assert (code, text) == (0, "{a1,a3}\n{a2,a4}\n{a5,a8}\n{a6,a7}\n")
        code, text = invoke("atms", str(path), "--node", "g")
        assert code == 0
        assert len(text.splitlines()) == len(WIDE_LABEL_G)

    def test_assumptions_over_the_budget_are_refused(self, tmp_path):
        # one justification over all 25 assumptions joins them in one part
        body = ", ".join(f"a{i}" for i in range(1, 26))
        text = "\n".join(
            [f"assume a{i}." for i in range(1, 26)] + ["node n.", f"just {body} -> n."]
        )
        problem = parse_atms(text)
        with pytest.raises(SubsetBudgetExceeded) as refused:
            atms_nogoods(problem)
        assert (refused.value.layer, refused.value.limit) == ("MUS search", 24)
        assert (refused.value.size, refused.value.parts) == (25, 1)
        with pytest.raises(SubsetBudgetExceeded) as refused:
            atms_labels(problem, "n")
        assert refused.value.layer == "support search"
        assert "support search" in str(refused.value) and "25" in str(refused.value)
        path = tmp_path / "over.atms"
        path.write_text(text + "\n")
        code, out = invoke("atms", str(path), "--nogoods")
        assert code == 3
        assert out.startswith("error: MUS search")

    def test_independent_assumptions_are_searched_part_by_part(self, tmp_path):
        # 25 assumptions, each an atom-connected part of its own
        text = "\n".join(
            [f"assume a{i}." for i in range(1, 26)] + ["node n.", "just a1 -> n."]
        )
        problem = parse_atms(text)
        assert atms_nogoods(problem) == frozenset()
        assert atms_labels(problem, "n") == sets([{"a1"}])
        path = tmp_path / "wide.atms"
        path.write_text(text + "\n")
        assert invoke("atms", str(path), "--node", "n") == (0, "{a1}\n")


class TestIndependentGroups:
    @staticmethod
    def group(g):
        # 3 assumptions; n{g} from a pair or through m{g}, and in even
        # groups a deny that makes {a{g}_0, a{g}_2} a nogood
        a = [f"a{g}_{k}" for k in range(3)]
        lines = [f"assume {name}." for name in a] + [f"node n{g}.", f"node m{g}."]
        lines += [f"just {a[0]}, {a[1]} -> n{g}.", f"just {a[2]} -> m{g}.", f"just m{g} -> n{g}."]
        if g % 2 == 0:
            lines.append(f"deny {a[0]}, {a[2]} -> n{g}.")
        return lines

    def test_thirty_assumptions_in_ten_groups(self):
        # 30 assumptions exceed the budget of 24 as a whole, but each
        # group is an atom-connected part of 3; the bound is twice the
        # one-second target
        groups = [self.group(g) for g in range(10)]
        whole = parse_atms("\n".join(line for lines in groups for line in lines))
        start = time.perf_counter()
        nogoods = atms_nogoods(whole)
        labels = [atms_labels(whole, f"n{g}") for g in range(10)]
        assert time.perf_counter() - start < 2.0
        alone = [parse_atms("\n".join(lines)) for lines in groups]
        assert nogoods == frozenset().union(*(atms_nogoods(p) for p in alone))
        assert nogoods == sets([{f"a{g}_0", f"a{g}_2"} for g in range(0, 10, 2)])
        # a nogood of another group entails every node
        for g, label in enumerate(labels):
            others = [atms_nogoods(p) for h, p in enumerate(alone) if h != g]
            assert label == atms_labels(alone[g], f"n{g}").union(*others)
        assert labels[1] == sets([{"a1_0", "a1_1"}, {"a1_2"}]) | nogoods


class TestJustificationIds:
    def test_assumption_named_like_a_justification(self):
        problem = parse_atms("assume j1.\nnode n.\ndeny j1 -> n.\njust -> n.")
        t = atms_encode(problem)
        assert len(set(t.ids)) == 3
        assert t.formula_of("j1") == parse_formula("j1")
        assert atms_nogoods(problem) == frozenset({frozenset({"j1"})})

    def test_nogoods_through_the_cli(self, tmp_path):
        path = tmp_path / "clash.atms"
        path.write_text("assume j1.\nnode n.\ndeny j1 -> n.\njust -> n.\n")
        assert invoke("atms", str(path), "--nogoods") == (0, "{j1}\n")

    def test_label_through_the_cli(self, tmp_path):
        path = tmp_path / "label.atms"
        path.write_text(
            "assume j1.\nassume j2.\nnode n.\njust j1 -> n.\njust j1, j2 -> n.\n"
        )
        assert invoke("atms", str(path), "--node", "n") == (0, "{j1}\n")


class TestAtmsParsing:
    def test_comments_and_blanks_are_skipped(self):
        problem = parse_atms("# heading\n\nassume a1.\n  node n.\n")
        assert problem.assumptions == frozenset({"a1"})
        assert problem.nodes == frozenset({"n"})

    def test_missing_period(self):
        with pytest.raises(TheoryFormatError) as err:
            parse_atms("assume a1")
        assert err.value.line == 1

    def test_missing_arrow(self):
        with pytest.raises(TheoryFormatError):
            parse_atms("node n.\njust n.")

    def test_bad_atom_name(self):
        with pytest.raises(TheoryFormatError):
            parse_atms("assume not an atom.")

    def test_unknown_keyword(self):
        with pytest.raises(TheoryFormatError) as err:
            parse_atms("node n.\nbelieve n.")
        assert err.value.line == 2

    @pytest.mark.parametrize("text, line", [
        ("assume a.\nnode a.", 2),  # an atom both assumed and a node
        ("node a.\nassume b.\nassume a.\nnode n.", 3),
        ("node n.\njust a -> m.", 2),  # a head that is not a node
        ("assume a.\nnode n.\njust b -> n.", 3),  # a body atom never declared
        ("node n.\njust -> n.\nassume a.\ndeny a, c -> n.", 4),
    ])
    def test_ill_formed_problem_names_the_statement(self, text, line):
        with pytest.raises(TheoryFormatError) as err:
            parse_atms(text)
        assert err.value.line == line
