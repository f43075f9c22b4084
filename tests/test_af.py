import random

import pytest

from inconlog.af import (
    ArgExtension,
    af_belief_state,
    argument_name,
    build_af,
    grounded_extension,
    is_ignored,
    linear_framework,
    partial_framework,
    render_af,
    stable_extensions,
)
from inconlog.arguments import (
    SupportingArgument,
    UnderminingArgument,
    believed_premises,
    undermining_args_linear,
)
from inconlog.errors import SearchBudgetExceeded
from inconlog.extensions import all_extensions
from inconlog.formulas import parse_formula
from inconlog.theory import theory_of

from util import linear_extensions, oracle_stable, random_theory


def undermining_members(ext: ArgExtension):
    return {a for a in ext.members if isinstance(a, UnderminingArgument)}


class TestBuildAf:
    def test_attack_edges_follow_victims(self):
        u = UnderminingArgument(frozenset({"p1"}), "p2")
        s_hit = SupportingArgument(frozenset({"p2"}), parse_formula("x"))
        s_safe = SupportingArgument(frozenset({"p1"}), parse_formula("y"))
        af = build_af([u, s_hit, s_safe])
        assert af.attacks == frozenset({(u, s_hit)})

    def test_supporting_arguments_never_attack(self, example1):
        order = linear_extensions(example1)[0]
        af = linear_framework(example1, order)
        assert all(
            isinstance(attacker, UnderminingArgument)
            for attacker, _ in af.attacks
        )

    def test_arguments_are_deduplicated_and_ordered(self):
        s = SupportingArgument(frozenset({"p1"}), parse_formula("x"))
        af = build_af([s, s])
        assert af.arguments == (s,)


class TestGrounded:
    def test_unattacked_arguments_are_accepted(self, example1):
        order = linear_extensions(example1)[0]
        af = linear_framework(example1, order)
        grounded = grounded_extension(af)
        victims = {a.victim for a in undermining_members(grounded)}
        assert victims == {"p3"}
        assert af_belief_state(example1, grounded) == frozenset(
            {"p1", "p2", "p4"}
        )

    def test_matches_the_sweep_on_every_order(self):
        rng = random.Random(83)
        for _ in range(50):
            t = random_theory(rng, rng.randint(1, 5), ["a", "b"], 0.4)
            for order in linear_extensions(t)[:3]:
                af = linear_framework(t, order)
                grounded = grounded_extension(af)
                direct = believed_premises(
                    t, undermining_args_linear(t, order), order
                )
                assert af_belief_state(t, grounded) == direct.believed

    def test_grounded_is_the_unique_stable_on_linear_frameworks(self):
        rng = random.Random(89)
        for _ in range(40):
            t = random_theory(rng, rng.randint(1, 5), ["a", "b"], 0.4)
            for order in linear_extensions(t)[:2]:
                af = linear_framework(t, order)
                stables = stable_extensions(af)
                assert len(stables) == 1
                (stable,) = stables
                assert stable.members == grounded_extension(af).members


class TestStable:
    def test_crossed_orders_give_four(self, example3):
        af = partial_framework(example3)
        stables = stable_extensions(af)
        assert len(stables) == 4
        victim_sets = {
            frozenset(a.victim for a in undermining_members(e)) for e in stables
        }
        assert victim_sets == {
            frozenset({"pa", "pb"}),
            frozenset({"pa", "pnb"}),
            frozenset({"pna", "pb"}),
            frozenset({"pna", "pnb"}),
        }

    def test_matches_definitional_scan(self):
        rng = random.Random(97)
        for _ in range(50):
            t = random_theory(rng, rng.randint(1, 4), ["a", "b"], 0.4)
            af = partial_framework(t)
            assert {
                e.members for e in stable_extensions(af)
            } == oracle_stable(af)

    def test_budget_is_enforced(self):
        t = theory_of({f"p{i}": "a" for i in range(5)})
        af = partial_framework(t)
        with pytest.raises(SearchBudgetExceeded) as refused:
            stable_extensions(af, budget=3)
        err = refused.value
        assert (err.layer, err.limit, err.arguments) == (
            "stable-extension search", 3, len(af.arguments))
        assert str(err) == f"{len(af.arguments)} arguments exceed the search budget of 3"


class TestIgnored:
    def test_exactly_one_extension_is_ignored(self, example3):
        af = partial_framework(example3)
        stables = stable_extensions(af)
        ignored = [e for e in stables if is_ignored(example3, e)]
        assert len(ignored) == 1
        victims = {a.victim for a in undermining_members(ignored[0])}
        # dropping pna and pnb would place them below pa and pb, against
        # the theory's own pa < pnb and pb < pna
        assert victims == {"pna", "pnb"}

    def test_remaining_extensions_recover_the_premise_extensions(
        self, example3
    ):
        af = partial_framework(example3)
        kept = {
            af_belief_state(example3, e)
            for e in stable_extensions(af)
            if not is_ignored(example3, e)
        }
        assert kept == all_extensions(example3).members

    def test_belief_state_of_ignored_extension_is_refused(self, example3):
        af = partial_framework(example3)
        (ignored,) = [
            e for e in stable_extensions(af) if is_ignored(example3, e)
        ]
        with pytest.raises(ValueError):
            af_belief_state(example3, ignored)

    def test_linear_frameworks_never_ignore(self):
        rng = random.Random(101)
        for _ in range(40):
            t = random_theory(rng, rng.randint(1, 5), ["a", "b"], 0.4)
            for order in linear_extensions(t)[:2]:
                af = linear_framework(t, order)
                for ext in stable_extensions(af):
                    assert not is_ignored(t, ext)


class TestExport:
    def test_names_are_stable_and_distinct(self):
        u = UnderminingArgument(frozenset({"p1"}), "p2")
        s = SupportingArgument(frozenset({"p1"}), parse_formula("x"))
        assert argument_name(u) == argument_name(
            UnderminingArgument(frozenset({"p1"}), "p2")
        )
        assert argument_name(u).startswith("u")
        assert argument_name(s).startswith("s")
        assert argument_name(u) != argument_name(s)

    def test_render_shape(self, example1):
        order = linear_extensions(example1)[0]
        af = linear_framework(example1, order)
        text = render_af(af)
        lines = text.splitlines()
        assert text.endswith("\n")
        arg_lines = [l for l in lines if l.startswith("arg(")]
        att_lines = [l for l in lines if l.startswith("att(")]
        assert len(arg_lines) == len(af.arguments)
        assert len(att_lines) == len(af.attacks)
        assert lines == arg_lines + att_lines
        assert arg_lines == sorted(arg_lines)
        assert att_lines == sorted(att_lines)

    def test_render_empty_framework(self):
        assert render_af(build_af([])) == ""
