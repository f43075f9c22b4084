import copy
import functools
import os
import pickle
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from inconlog import formulas
from inconlog.errors import AtomCapExceeded, FormulaSyntaxError
from inconlog.extensions import all_extensions
from inconlog.formulas import (
    Atom,
    ConsistencyIndex,
    Implies,
    Not,
    all_interpretations,
    conj,
    disj,
    entails,
    evaluate,
    format_formula,
    is_consistent,
    is_tautology,
    parse_formula,
)
from inconlog.theory import theory_of

from util import _tokenize, random_formula, reference_parse


class TestParsing:
    def test_implication_is_right_associative(self):
        assert parse_formula("a -> b -> c") == Implies(
            Atom("a"), Implies(Atom("b"), Atom("c"))
        )

    def test_conjunction_desugars(self):
        assert parse_formula("a & b") == Not(Implies(Atom("a"), Not(Atom("b"))))

    def test_disjunction_desugars(self):
        assert parse_formula("a | b") == Implies(Not(Atom("a")), Atom("b"))

    def test_negation_binds_tightest(self):
        assert parse_formula("!a -> b") == Implies(Not(Atom("a")), Atom("b"))
        assert parse_formula("~a & b") == conj(Not(Atom("a")), Atom("b"))

    def test_precedence_and_over_or(self):
        assert parse_formula("a | b & c") == disj(Atom("a"), conj(Atom("b"), Atom("c")))

    def test_left_associative_chains(self):
        assert parse_formula("a & b & c") == conj(conj(Atom("a"), Atom("b")), Atom("c"))

    def test_parens_and_whitespace(self):
        assert parse_formula(" ( a )->b ") == Implies(Atom("a"), Atom("b"))

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("a -> ")
        assert err.value.position == 5

    def test_dangling_operator_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a b")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(a -> b")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a ? b")


class TestEvaluation:
    def test_implication_truth_table(self):
        f = parse_formula("a -> b")
        assert evaluate(f, frozenset()) is True
        assert evaluate(f, frozenset({"a"})) is False
        assert evaluate(f, frozenset({"b"})) is True
        assert evaluate(f, frozenset({"a", "b"})) is True

    def test_sugar_truth_tables(self):
        both = parse_formula("a & b")
        either = parse_formula("a | b")
        for m in all_interpretations(["a", "b"]):
            assert evaluate(both, m) == ("a" in m and "b" in m)
            assert evaluate(either, m) == ("a" in m or "b" in m)


class TestInterpretations:
    def test_counting_order(self):
        out = all_interpretations(["b", "a"])
        assert out == [
            frozenset(),
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"a", "b"}),
        ]

    def test_no_atoms_single_empty_interpretation(self):
        assert all_interpretations([]) == [frozenset()]

    def test_cap_is_enforced(self):
        with pytest.raises(AtomCapExceeded) as refused:
            all_interpretations([f"x{i}" for i in range(21)])
        err = refused.value
        assert (err.layer, err.limit, err.atoms) == ("exhaustive-valuation", 20, 21)
        assert str(err) == "21 atoms exceed the exhaustive-valuation cap of 20"


class TestConsequence:
    def test_modus_ponens(self):
        fs = [parse_formula("phi"), parse_formula("phi -> psi")]
        assert entails(fs, parse_formula("psi"))

    def test_clashing_premises_are_inconsistent(self):
        fs = [parse_formula(s) for s in ("alpha", "!alpha & !beta", "beta")]
        assert not is_consistent(fs)
        assert is_consistent(fs[:2]) is False
        assert is_consistent([fs[0], fs[2]])

    def test_empty_set_is_consistent_and_entails_only_tautologies(self):
        assert is_consistent([])
        assert entails([], parse_formula("a -> a"))
        assert not entails([], parse_formula("a"))
        assert is_tautology(parse_formula("a | !a"))

    def test_unsatisfiable_set_entails_everything(self):
        fs = [parse_formula("a"), parse_formula("!a")]
        assert entails(fs, parse_formula("b"))


class TestPrinting:
    def test_examples_round_trip(self):
        for text in ("a -> b -> c", "!(a -> b)", "a & (b | c)", "!!x", "a | b -> c"):
            f = parse_formula(text)
            assert parse_formula(format_formula(f)) == f

    def test_sugared_display(self):
        assert format_formula(parse_formula("a & b")) == "a & b"
        assert format_formula(parse_formula("a|b")) == "a | b"
        assert format_formula(parse_formula("!(a&b)")) == "!(a & b)"

    def test_raw_display_uses_core_connectives_only(self):
        raw = format_formula(parse_formula("a & b"), sugar=False)
        assert "&" not in raw and "|" not in raw
        assert parse_formula(raw) == parse_formula("a & b")


_atom_names = ("a", "b", "c", "d")


def _formula_strategy():
    return st.recursive(
        st.sampled_from([Atom(n) for n in _atom_names]),
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda lr: Implies(*lr)),
            st.tuples(children, children).map(lambda lr: conj(*lr)),
            st.tuples(children, children).map(lambda lr: disj(*lr)),
        ),
        max_leaves=12,
    )


class TestByProperty:
    @given(_formula_strategy())
    def test_format_parse_round_trip(self, f):
        """Printed formulas reparse to the identical tree, with and without sugar."""
        assert parse_formula(format_formula(f)) == f
        assert parse_formula(format_formula(f, sugar=False)) == f

    @given(st.lists(_formula_strategy(), max_size=4), _formula_strategy())
    def test_entailment_is_consistency_of_negated_goal(self, fs, goal):
        assert entails(fs, goal) == (not is_consistent(list(fs) + [Not(goal)]))

    @settings(max_examples=60)
    @given(st.lists(_formula_strategy(), max_size=4))
    def test_dpll_agrees_with_exhaustive_valuation(self, fs):
        """The two satisfiability backends agree wherever both can run."""
        assert is_consistent(fs, max_atoms=0) == is_consistent(fs)

    @settings(max_examples=40)
    @given(st.lists(_formula_strategy(), min_size=1, max_size=4), _formula_strategy())
    def test_index_matches_direct_decisions(self, fs, goal):
        by_id = {f"p{i}": f for i, f in enumerate(fs)}
        index = ConsistencyIndex(by_id, extra=(goal,))
        ids = list(by_id)
        assert index.consistent(ids) == is_consistent(fs)
        assert index.entails(ids, goal) == entails(fs, goal)


@st.composite
def _deep_formulas(draw):
    """A formula 1,000 or more levels deep: runs of one wrapping each,
    repeated until deep enough, around an atom.  A wrapping is a
    negation, or a connective with an atom on the side drawn."""
    f = Atom(draw(st.sampled_from(_atom_names)))
    runs = draw(st.lists(
        st.tuples(st.sampled_from(("!", "->", "&", "|")), st.booleans(),
                  st.sampled_from(_atom_names), st.integers(1, 300)),
        min_size=1, max_size=8,
    ))
    depth = 0
    while depth < 1000:
        for op, atom_first, name, count in runs:
            for _ in range(count):
                if op == "!":
                    f = Not(f)
                else:
                    build = {"->": Implies, "&": conj, "|": disj}[op]
                    f = build(Atom(name), f) if atom_first else build(f, Atom(name))
            depth += count
    return f


class TestDeepByProperty:
    @settings(max_examples=25, deadline=None)
    @given(_deep_formulas())
    def test_format_parse_round_trip(self, f):
        assert parse_formula(format_formula(f)) == f
        assert parse_formula(format_formula(f, sugar=False)) == f

    @settings(max_examples=25, deadline=None)
    @given(_deep_formulas(), st.sampled_from(_atom_names))
    def test_solver_agrees_with_bitmasks(self, f, goal):
        fs = [f, Atom(goal)]
        assert is_consistent([f], max_atoms=0) == is_consistent([f])
        assert is_consistent(fs, max_atoms=0) == is_consistent(fs)
        assert entails([f], Atom(goal), max_atoms=0) == entails([f], Atom(goal))


class TestSolverState:
    """Above the atom cap one solver answers every question an index is
    asked, so nothing one call leaves behind may change the next answer."""

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_interleaved_calls_match_the_bitmask_backend(self, rng):
        # formulas over three atoms share many nodes; "n" negates p0, so
        # the sets holding both are unsatisfiable
        fs = [random_formula(rng, "abc", 3) for _ in range(rng.randint(1, 8))]
        goals = [random_formula(rng, "abc", 3) for _ in range(2)]
        by_id = {f"p{i}": f for i, f in enumerate(fs)}
        by_id["n"] = Not(fs[0])
        ids = list(by_id)
        solver = ConsistencyIndex(by_id, extra=goals, max_atoms=0)
        masks = ConsistencyIndex(by_id, extra=goals)
        assert solver.atoms is None and masks.atoms is not None
        # states reached by `meet`, grown again from any of them as the
        # depth-first greedy-state search does
        states = [(solver.top, masks.top)]
        chosen, goal = [], goals[0]
        for _ in range(100):
            kind = rng.choice(("consistent", "entails", "meet"))
            if rng.random() < 0.2:
                pass  # the same set and goal as the last call
            elif rng.random() < 0.5:
                chosen, goal = rng.sample(ids, rng.randrange(len(ids) + 1)), rng.choice(goals)
            else:
                # a prefix of the last set, then more; half of these put
                # the clashing pair p0, n partway, with premises after it
                chosen = chosen[:rng.randrange(len(chosen) + 1)] + rng.choices(ids, k=rng.randrange(3))
                if rng.random() < 0.5:
                    chosen += ["p0", "n"] + rng.choices(ids, k=rng.randrange(1, 3))
            if kind == "consistent":
                assert solver.consistent(chosen) == masks.consistent(chosen)
            elif kind == "entails":
                assert solver.entails(chosen, goal) == masks.entails(chosen, goal)
            else:
                left, right = rng.choice(states)
                for pid in chosen:
                    grown, narrowed = solver.meet(left, pid), masks.meet(right, pid)
                    assert (grown is None) == (narrowed is None)
                    if grown is not None:
                        left, right = grown, narrowed
                        states.append((left, right))

    def test_goal_outside_extra_is_refused_by_both_backends(self):
        by_id = {"p": parse_formula("a -> b"), "q": parse_formula("a")}
        for max_atoms in (0, formulas.DEFAULT_ATOM_CAP):
            index = ConsistencyIndex(by_id, extra=(Atom("b"),), max_atoms=max_atoms)
            assert index.entails(["p", "q"], Atom("b"))
            with pytest.raises(KeyError):
                index.entails(["p", "q"], Atom("a"))

    def test_new_clauses_after_a_solve(self):
        # `a` stays assumed after the first call; the clauses of f are
        # added later, and must still see it: with a true, f is false
        solver = formulas._Solver()
        a = solver.root(Atom("a"))
        assert solver.solve([a])
        f = solver.root(parse_formula("a -> (c | a -> !a)"))
        assert not solver.solve([a, f])
        assert solver.solve([f]) and solver.solve([-a, f])

    def test_greedy_walk_propagates_each_premise_once(self, monkeypatch):
        # x0, x0 -> x1, ..., x398 -> x399, then !x399, in a total order:
        # each greedy step adds one premise, so its propagation must not
        # walk the kept ones again
        ids = [f"p{i}" for i in range(401)]
        premises = [("p0", "x0")] + [(f"p{i}", f"x{i - 1} -> x{i}") for i in range(1, 400)]
        premises.append(("p400", "!x399"))
        theory = theory_of(premises, zip(ids[1:], ids))
        walked = []
        propagate = formulas._Solver._propagate

        def counting(solver, head):
            try:
                return propagate(solver, head)
            finally:
                walked.append(len(solver._trail) - head)

        monkeypatch.setattr(formulas._Solver, "_propagate", counting)
        assert list(all_extensions(theory)) == [frozenset(ids[:400])]
        assert sum(walked) < 10 * len(ids)

    def test_equal_formulas_share_a_models_key(self):
        # two parses of one text are equal but distinct objects
        by_id = {"p": parse_formula("a & b"), "q": parse_formula("a & b")}
        index = ConsistencyIndex(by_id, max_atoms=0)
        assert index.same_models_key("p") == index.same_models_key("q")


class TestDeepFormulas:
    # Bounds are twice the targets: shared hosts run this code up to
    # about twice as slowly for stretches.
    def test_thousand_atom_conjunction(self):
        wide = functools.reduce(conj, [Atom(f"a{i}") for i in range(1000)])
        assert is_consistent([wide])
        assert not is_consistent([wide, Not(Atom("a7"))])
        assert entails([wide], Atom("a999"))
        fs = [wide, Atom("z")]
        assert is_consistent(fs, max_atoms=0) and is_consistent(fs)

    def test_wide_conjunction_prints_and_reparses(self):
        # 3334 distinct atoms: about 10k nodes, nested far deeper than
        # the recursion limit
        wide = functools.reduce(conj, [Atom(f"a{i}") for i in range(3334)])
        text = format_formula(wide)
        assert text == " & ".join(f"a{i}" for i in range(3334))
        assert parse_formula(text) == wide

    def test_three_thousand_negations(self):
        f = Atom("a")
        for _ in range(3000):
            f = Not(f)
        assert parse_formula("!" * 3000 + "a") == f
        assert format_formula(f) == "!" * 3000 + "a"
        assert evaluate(f, frozenset({"a"})) and not evaluate(f, frozenset())
        assert entails([Atom("a")], f) and entails([f], Atom("a"))

    def test_three_thousand_link_implication_chain(self):
        text = " -> ".join(f"x{i}" for i in range(3001))
        f = Atom("x3000")
        for i in reversed(range(3000)):
            f = Implies(Atom(f"x{i}"), f)
        assert parse_formula(text) == f
        assert format_formula(f) == text
        premises = [f] + [Atom(f"x{i}") for i in range(3000)]
        assert entails(premises, Atom("x3000"))
        assert not entails(premises[:-1], Atom("x3000"))

    def test_three_thousand_nested_parentheses(self):
        assert parse_formula("(" * 3000 + "a" + ")" * 3000) == Atom("a")
        text = "(" * 3000 + "a & b" + ")" * 3000 + " -> c"
        assert parse_formula(text) == parse_formula("a & b -> c")

    @pytest.mark.parametrize("deep", [
        parse_formula("!" * 3000 + "a"),
        functools.reduce(conj, [Atom(f"a{i}") for i in range(1000)]),
    ], ids=["negations", "conjunction"])
    def test_repr_pickle_and_copy(self, deep):
        for copied in (pickle.loads(pickle.dumps(deep)), copy.copy(deep), copy.deepcopy(deep)):
            assert copied == deep and hash(copied) == hash(deep)
        assert repr(deep).startswith(("Not(child=Not(child=", "Not(child=Implies(left="))

    def test_repr_is_the_dataclass_text(self):
        f = parse_formula("!(a -> b) -> c")
        assert repr(f) == ("Implies(left=Not(child=Implies(left=Atom(name='a'), "
                           "right=Atom(name='b'))), right=Atom(name='c'))")

    def test_equality_and_hash_of_ten_thousand_node_trees(self):
        def wide(first):
            # 3334 conjuncts: about 10k nodes, `first` the deepest leaf
            atoms = [Atom(first)] + [Atom(f"a{i}") for i in range(1, 3334)]
            return functools.reduce(conj, atoms)

        f, same, other = wide("a0"), wide("a0"), wide("b0")
        assert f == same and hash(f) == hash(same)
        assert f != other and hash(other) == hash(wide("b0"))
        assert len({f, same, other}) == 2

    def test_thousand_implication_chain(self):
        links = [Implies(Atom(f"x{i}"), Atom(f"x{i + 1}")) for i in range(1000)]
        for fs, expected in (([Atom("x0")] + links, True), (links, False)):
            start = time.perf_counter()
            assert entails(fs, Atom("x1000")) is expected
            assert time.perf_counter() - start < 0.2


class TestHashing:
    def test_hash_does_not_depend_on_the_hash_seed(self):
        src = os.path.dirname(os.path.dirname(formulas.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = ("from inconlog.formulas import parse_formula\n"
                  "print(hash(parse_formula('a & (b -> !c) | d')), hash(parse_formula('x')))")
        hashes = [
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "1")
        ]
        assert hashes[0] == hashes[1] and hashes[0].strip()


def _outcome(parse, text):
    # the tree, and its core-connective text so that a parse does not
    # rest on == alone; or the error's type, message and position
    try:
        tree = parse(text)
        return tree, format_formula(tree, sugar=False)
    except FormulaSyntaxError as err:
        return (type(err), str(err), err.position)


class TestAgainstTheReferenceParser:
    """The loop parser builds the trees, and raises the errors, of the
    recursive-descent parser it replaced (kept in tests/util.py)."""

    def test_seeded_sweep(self):
        rng = random.Random(1101)
        spaces = ("", " ", "  ", "\t")
        for i in range(20000):
            f = random_formula(rng, _atom_names, rng.randrange(6))
            text = format_formula(f, sugar=rng.random() < 0.5)
            tokens = [value for _, value, _ in _tokenize(text)[:-1]]
            if i % 2:
                # mostly malformed: one token deleted, duplicated or swapped
                k = rng.randrange(len(tokens))
                edit = rng.randrange(3)
                if edit == 0:
                    del tokens[k]
                elif edit == 1:
                    tokens.insert(k, tokens[k])
                else:
                    j = rng.randrange(len(tokens))
                    tokens[j], tokens[k] = tokens[k], tokens[j]
            else:
                # valid: extra parentheses around some atoms and the whole
                tokens = [f"({t})" if t.isidentifier() and rng.random() < 0.2 else t
                          for t in tokens]
                if rng.random() < 0.3:
                    tokens = ["(", *tokens, ")"]
            text = "".join(t + rng.choice(spaces) for t in tokens)
            expected = _outcome(reference_parse, text)
            assert _outcome(parse_formula, text) == expected, text
            if i % 2 == 0:
                assert expected[0] == f

    def test_stray_characters(self):
        for text in ("a ? b", "a - > b", "1a", "(a & b) >", "a -> b; c", "!(a)$"):
            assert _outcome(parse_formula, text) == _outcome(reference_parse, text)


def test_desugared_semantics_match_native_connectives():
    """Random sugared syntax evaluates like native and/or truth tables."""
    rng = random.Random(2301)

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            return ("atom", rng.choice(_atom_names))
        pick = rng.choice(["not", "imp", "and", "or"])
        if pick == "not":
            return ("not", build(depth - 1))
        return (pick, build(depth - 1), build(depth - 1))

    def render(node):
        if node[0] == "atom":
            return node[1]
        if node[0] == "not":
            return f"!({render(node[1])})"
        op = {"imp": "->", "and": "&", "or": "|"}[node[0]]
        return f"({render(node[1])} {op} {render(node[2])})"

    def native_eval(node, m):
        if node[0] == "atom":
            return node[1] in m
        if node[0] == "not":
            return not native_eval(node[1], m)
        left, right = native_eval(node[1], m), native_eval(node[2], m)
        if node[0] == "imp":
            return (not left) or right
        if node[0] == "and":
            return left and right
        return left or right

    for _ in range(200):
        tree = build(3)
        parsed = parse_formula(render(tree))
        for m in all_interpretations(_atom_names):
            assert evaluate(parsed, m) == native_eval(tree, m)


def test_random_formula_generator_round_trips():
    rng = random.Random(99)
    for _ in range(100):
        f = random_formula(rng, _atom_names, 3)
        assert parse_formula(format_formula(f)) == f
