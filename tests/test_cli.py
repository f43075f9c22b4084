import io
import os
import random
import shutil
import subprocess
import sys
import textwrap
import time

import pytest

import inconlog
from inconlog import cli
from inconlog.files import load_theory, render_theory
from inconlog.formulas import format_formula

from conftest import fixture_path, invoke
from util import random_formula


class TestCheck:
    def test_valid_file(self):
        code, text = invoke("check", fixture_path("example1.rt"))
        assert (code, text) == (0, "valid\n")

    def test_cycle(self, tmp_path):
        bad = tmp_path / "bad.rt"
        bad.write_text("premise a: x\npremise b: y\norder a < b\norder b < a\n")
        code, text = invoke("check", str(bad))
        assert code == 2
        assert text == "cycle: a < b < a\n"

    def test_duplicate_id(self, tmp_path):
        bad = tmp_path / "dup.rt"
        bad.write_text("premise p: a\npremise p: !a\n")
        assert invoke("check", str(bad)) == (2, "duplicate id: p\n")

    def test_unsatisfiable_premise_warns_but_passes(self, tmp_path):
        f = tmp_path / "warn.rt"
        f.write_text("premise odd: a & !a\n")
        code, text = invoke("check", str(f))
        assert code == 0
        assert text == "warning: premise odd is unsatisfiable\nvalid\n"


class TestExtensions:
    def test_single(self):
        code, text = invoke("extensions", fixture_path("example1.rt"))
        assert (code, text) == (0, "p1 p2 p4\n(count: 1)\n")

    def test_several_sorted(self):
        code, text = invoke("extensions", fixture_path("example3.rt"))
        assert code == 0
        assert text == "pa pnb\npb pna\npna pnb\n(count: 3)\n"


class TestEntails:
    def test_yes(self):
        code, text = invoke("entails", fixture_path("example1.rt"), "psi")
        assert (code, text) == (0, "yes\n")

    def test_no(self):
        code, text = invoke("entails", fixture_path("example3.rt"), "a")
        assert (code, text) == (1, "no\n")

    def test_credulous(self):
        code, text = invoke(
            "entails", fixture_path("example3.rt"), "a", "--credulous"
        )
        assert (code, text) == (0, "yes\n")

    def test_blocks_apart_from_the_goal_are_not_multiplied_out(self, tmp_path):
        # 17 unordered clash pairs give R 2^17 members; the goal z shares
        # no atom with any pair, and x3 with one of them
        path = tmp_path / "pairs.rt"
        lines = [f"premise p{i}: x{i}\npremise n{i}: !x{i}" for i in range(17)]
        path.write_text("\n".join(lines) + "\npremise f: z\n")
        assert invoke("entails", str(path), "z") == (0, "yes\n")
        assert invoke("entails", str(path), "x3") == (1, "no\n")
        assert invoke("entails", str(path), "x3", "--credulous") == (0, "yes\n")

    def test_a_block_apart_from_the_goal_is_not_searched(self, tmp_path):
        # a clash on x beside 26 unordered two-literal conjunctions over
        # y0..y23, a block that alone passes the default extension cap
        rng = random.Random(5)
        ys = [f"y{i}" for i in range(24)]
        lines = ["premise a: x", "premise na: !x"]
        for i in range(26):
            u, v = rng.sample(ys, 2)
            left, right = ("!" + y if rng.random() < 0.5 else y for y in (u, v))
            lines.append(f"premise w_{i}: {left} & {right}")
        path = tmp_path / "probe.rt"
        path.write_text("\n".join(lines) + "\n")
        for argv, expected in [
            (("entails", "x"), (1, "no\n")),
            (("entails", "x", "--credulous"), (0, "yes\n")),
            (("conditional", "x", "x"), (0, "yes\n")),
        ]:
            start = time.perf_counter()
            got = invoke(argv[0], str(path), *argv[1:])
            assert time.perf_counter() - start < 0.1, argv
            assert got == expected, argv
        assert invoke("extensions", str(path)) == (3, (
            "error: extension search: over the limit of 100000 states and members "
            "(100001 states visited, 1 of 2 blocks finished)\n"
        ))


class TestDeepFormulas:
    def test_four_hundred_conjuncts(self, tmp_path):
        # one premise of 400 conjuncts over 12 atoms, as in the benchmark's
        # wide conjunctions
        path = tmp_path / "conj.rt"
        conjuncts = " & ".join(f"b{i % 12}" for i in range(400))
        path.write_text(
            f"premise s: !b3\npremise u: b5 -> z\npremise w: {conjuncts}\norder s < w\n"
        )
        atoms = ",".join(sorted(f"b{i}" for i in range(12)))
        assert invoke("check", str(path)) == (0, "valid\n")
        assert invoke("extensions", str(path)) == (0, "u w\n(count: 1)\n")
        assert invoke("entails", str(path), "z") == (0, "yes\n")
        assert invoke("models", str(path)) == (0, "{" + atoms + ",z}\n")
        target = tmp_path / "revised.rt"
        assert invoke("revise", str(path), "!z", "-o", str(target)) == (0, "")
        assert f"premise w: {conjuncts}\n" in target.read_text()


class TestAntichain:
    def test_nine_unordered_premises_with_one_clash(self, tmp_path):
        path = tmp_path / "antichain.rt"
        lines = ["premise p1: c", "premise p2: !c"]
        lines += [f"premise p{i}: x{i}" for i in range(3, 10)]
        path.write_text("\n".join(lines) + "\n")
        code, text = invoke("extensions", str(path))
        free = " ".join(f"p{i}" for i in range(3, 10))
        assert code == 0
        assert text == f"p1 {free}\np2 {free}\n(count: 2)\n"


class TestModels:
    def test_many_copies_of_one_witness(self, tmp_path):
        path = tmp_path / "copies.rt"
        lines = [f"premise a{i}: a" for i in range(17)] + ["premise n: !a"]
        path.write_text("\n".join(lines) + "\n")
        code, text = invoke("models", str(path))
        assert (code, text) == (0, "{a}\n{}\n")

    def test_sorted_atom_sets(self):
        code, text = invoke("models", fixture_path("example3.rt"))
        assert code == 0
        assert text == "{a}\n{b}\n{}\n"

    def test_single_model(self):
        code, text = invoke("models", fixture_path("example1.rt"))
        assert (code, text) == (0, "{alpha,phi,psi}\n")


class TestConditional:
    def test_yes_and_no(self):
        dakota = fixture_path("dakota.rt")
        assert invoke("conditional", dakota, "dakota", "dakota")[0] == 0
        code, text = invoke("conditional", dakota, "dakota", "!mach_1_5")
        assert (code, text) == (1, "no\n")

    def test_supposition_above_unordered_pairs(self, tmp_path):
        # the supposed x0 goes above all 17 clash pairs; it is kept by
        # every order, so its pairs do not glue the pairs into one block
        path = tmp_path / "pairs.rt"
        lines = [f"premise p{i}: x{i}\npremise n{i}: !x{i}" for i in range(17)]
        path.write_text("\n".join(lines) + "\npremise f: z\n")
        assert invoke("conditional", str(path), "x0", "z") == (0, "yes\n")
        assert invoke("conditional", str(path), "x0", "!x0") == (1, "no\n")


class TestRevise:
    def test_writes_a_loadable_theory(self, tmp_path):
        target = tmp_path / "revised.rt"
        code, text = invoke(
            "revise", fixture_path("example1.rt"), "!phi", "-o", str(target)
        )
        assert (code, text) == (0, "")
        revised = load_theory(target)
        assert "__revision_0" in revised.ids
        assert ("p1", "__revision_0") in revised.order

    def test_round_trips_through_the_renderer(self, tmp_path):
        target = tmp_path / "revised.rt"
        invoke("revise", fixture_path("example2.rt"), "alpha | beta", "-o", str(target))
        revised = load_theory(target)
        assert render_theory(revised) == target.read_text()


class TestAf:
    def test_default_export_shape(self):
        code, text = invoke("af", fixture_path("example1.rt"))
        assert code == 0
        lines = text.splitlines()
        assert all(l.startswith(("arg(", "att(")) for l in lines)
        assert sum(l.startswith("arg(") for l in lines) == 5  # 4 premises + 1 attack argument
        assert sum(l.startswith("att(") for l in lines) == 1

    def test_rule4_lists_non_ignored_stables(self):
        code, text = invoke("af", fixture_path("example3.rt"), "--rule4")
        stable_lines = [l for l in text.splitlines() if l.startswith("stable:")]
        assert code == 0
        assert stable_lines == [
            "stable: pa pnb",
            "stable: pb pna",
            "stable: pna pnb",
        ]

    def test_show_ignored_adds_the_marked_line(self):
        code, text = invoke(
            "af", fixture_path("example3.rt"), "--rule4", "--show-ignored"
        )
        stable_lines = [l for l in text.splitlines() if l.startswith("stable:")]
        assert code == 0
        assert "stable: pa pb (ignored)" in stable_lines
        assert len(stable_lines) == 4


class TestArgue:
    def test_supports(self):
        code, text = invoke("argue", fixture_path("example1.rt"), "psi")
        assert (code, text) == (0, "{p1,p2} => psi\n")

    def test_not_believed(self):
        code, text = invoke("argue", fixture_path("example1.rt"), "!psi")
        assert (code, text) == (1, "not believed\n")

    def test_trace_prepends_the_derivation(self):
        code, text = invoke(
            "argue", fixture_path("example1.rt"), "psi", "--trace"
        )
        lines = text.splitlines()
        assert code == 0
        assert lines[0] == "{p1} => phi"
        assert "{p1,p2} =/> p3" in lines
        assert "believed: p1 p2 p4" in lines
        assert lines[-1] == "{p1,p2} => psi"


class TestAtms:
    def test_label(self):
        code, text = invoke("atms", fixture_path("chain.atms"), "--node", "n")
        assert (code, text) == (0, "{a1}\n")

    def test_nogoods(self):
        code, text = invoke("atms", fixture_path("conflict.atms"), "--nogoods")
        assert (code, text) == (0, "{a1,a2}\n")

    def test_unknown_node(self):
        code, text = invoke("atms", fixture_path("chain.atms"), "--node", "zzz")
        assert code == 2
        assert text.startswith("error:")


class TestFailureModes:
    def test_missing_file(self):
        code, text = invoke("check", "/nonexistent/theory.rt")
        assert code == 2
        assert text.startswith("error:")

    @pytest.mark.parametrize(
        "command", [["extensions"], ["atms", "--nogoods"]], ids=["theory", "atms"]
    )
    @pytest.mark.parametrize(
        "content", [None, b"assume \xff.\n"], ids=["directory", "not-utf-8"]
    )
    def test_unreadable_input(self, tmp_path, command, content):
        # a directory, or a file that is not UTF-8: an error line, not a
        # traceback that would exit 1
        path = tmp_path
        if content is not None:
            path = tmp_path / "input"
            path.write_bytes(content)
        code, text = invoke(command[0], str(path), *command[1:])
        assert code == 2
        assert text.startswith("error:")

    @pytest.mark.parametrize("command, content, line, byte", [
        (["check"], b"premise p: \xff\n", 1, "0xff"),
        (["extensions"], b"premise p: a\n\npremise q: b & \xff\n", 3, "0xff"),
        (["atms", "--nogoods"], b"assume \xff.\n", 1, "0xff"),
        (["atms", "--nogoods"], b"assume a.\r\nnode \xe9.\n", 2, "0xe9"),
        (["check"], b"premise p: a\rpremise q: \xc3(\n", 2, "0xc3"),
    ])
    def test_not_utf8_names_the_file_and_line(self, tmp_path, command, content, line, byte):
        path = tmp_path / "input"
        path.write_bytes(content)
        code, text = invoke(command[0], str(path), *command[1:])
        assert (code, text) == (
            2, f"error: {path}, line {line}: not valid UTF-8 (byte {byte})\n"
        )

    @pytest.mark.parametrize("lines, line", [
        (["assume a.", "node a."], 2),
        (["node n.", "just a -> m."], 2),
        (["assume a.", "node n.", "just b -> n."], 3),
    ])
    def test_malformed_atms(self, tmp_path, lines, line):
        path = tmp_path / "bad.atms"
        path.write_text("\n".join(lines) + "\n")
        code, text = invoke("atms", str(path), "--nogoods")
        assert code == 2
        assert text.startswith(f"error: line {line}: ")

    def test_bad_atom_in_a_justification(self, tmp_path):
        path = tmp_path / "bad.atms"
        path.write_text("assume a.\nnode n.\njust a, b-c -> n.\n")
        code, text = invoke("atms", str(path), "--nogoods")
        assert (code, text) == (2, "error: line 3: bad atom name 'b-c'\n")

    @pytest.mark.parametrize("command, content", [
        (["check"], "premise p: a\x1cpremise q: b\n"),
        (["atms", "--nogoods"], "assume a.\x85node n.\n"),
    ], ids=["theory", "atms"])
    def test_lines_end_only_at_newline_or_carriage_return(self, tmp_path, command, content):
        # str.splitlines would read two statements off line 1
        path = tmp_path / "input"
        path.write_text(content, encoding="utf-8")
        code, text = invoke(command[0], str(path), *command[1:])
        assert code == 2
        assert text.startswith("error: line 1: ")

    def test_bad_formula(self):
        code, text = invoke("entails", fixture_path("example1.rt"), "a ->")
        assert code == 2
        assert text.startswith("error:")

    def test_invalid_theory_is_rejected_by_reasoning_commands(self, tmp_path):
        bad = tmp_path / "bad.rt"
        bad.write_text("premise a: x\norder a < a\n")
        code, text = invoke("extensions", str(bad))
        assert code == 2
        assert text.startswith("error:")

    def test_extension_cap(self):
        code, text = invoke(
            "extensions", fixture_path("example3.rt"), "--max-extensions", "2"
        )
        assert code == 3
        assert text.startswith("error: extension search:")
        assert "limit of 2 " in text
        assert "3 states visited" in text
        assert "0 of 1 blocks finished" in text

    def test_extension_cap_on_models(self):
        code, text = invoke(
            "models", fixture_path("example3.rt"), "--max-extensions", "2"
        )
        assert code == 3
        assert text.startswith("error: extension search:")

    def test_deep_formula_is_answered(self):
        # 3000 negations are an even number of them: the goal is psi
        goal = "!" * 3000 + "psi"
        assert invoke("entails", fixture_path("example1.rt"), goal) == (0, "yes\n")

    def test_mus_budget(self):
        code, text = invoke(
            "argue", fixture_path("example1.rt"), "psi", "--mus-budget", "2"
        )
        assert code == 3

    def test_atom_cap_on_models(self):
        code, text = invoke(
            "models", fixture_path("example1.rt"), "--max-atoms", "2"
        )
        assert code == 3

    def test_unknown_command(self):
        code, _ = invoke("frobnicate")
        assert code == 2

    def test_help_exits_cleanly(self):
        code, _ = invoke("--help")
        assert code == 0


class TestAboveTheAtomCap:
    # Bounds are twice the targets: shared hosts run this code up to
    # about twice as slowly for stretches.
    def test_chain_of_120_links(self, tmp_path):
        # x0, x0 -> x1, ..., x118 -> x119, then !x119 at the bottom
        path = tmp_path / "chain.rt"
        ids = [f"p{i}" for i in range(121)]
        lines = ["premise p0: x0"]
        lines += [f"premise p{i}: x{i - 1} -> x{i}" for i in range(1, 120)]
        lines += ["premise p120: !x119"]
        lines += [f"order {less} < {more}" for more, less in zip(ids, ids[1:])]
        path.write_text("\n".join(lines) + "\n")
        for argv, expected in [
            (("extensions",), (0, " ".join(sorted(ids[:120])) + "\n(count: 1)\n")),
            (("entails", "x77"), (0, "yes\n")),
            (("entails", "!x5"), (1, "no\n")),
        ]:
            start = time.perf_counter()
            got = invoke(argv[0], str(path), *argv[1:])
            assert time.perf_counter() - start < 0.1, argv
            assert got == expected, argv

    def test_thousand_atom_conjunction(self, tmp_path):
        path = tmp_path / "wide.rt"
        wide = " & ".join(f"a{i}" for i in range(1000))
        path.write_text(
            f"premise w: {wide}\npremise s: !a7\npremise u: a3 -> z\norder s < w\n"
        )
        assert invoke("check", str(path)) == (0, "valid\n")
        assert invoke("extensions", str(path)) == (0, "u w\n(count: 1)\n")
        assert invoke("entails", str(path), "z") == (0, "yes\n")
        assert invoke("entails", str(path), "!a7") == (1, "no\n")
        target = tmp_path / "revised.rt"
        assert invoke("revise", str(path), "q", "-o", str(target)) == (0, "")
        revised = load_theory(target)
        assert revised.ids == ("w", "s", "u", "__revision_0")
        assert revised.formula_of("w") == load_theory(path).formula_of("w")
        arg_lines = []
        for flags in ((), ("--rule4",)):
            code, text = invoke("af", str(path), *flags)
            assert code == 0
            arg_lines.append([l for l in text.splitlines() if l.startswith("arg(")])
        assert len(arg_lines[0]) == 4 and arg_lines[0] == arg_lines[1]


class TestEnvironmentCaps:
    def test_env_var_applies(self, monkeypatch):
        monkeypatch.setenv("INCONLOG_MAX_EXTENSIONS", "2")
        code, _ = invoke("extensions", fixture_path("example3.rt"))
        assert code == 3

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("INCONLOG_MAX_EXTENSIONS", "2")
        code, _ = invoke(
            "extensions", fixture_path("example3.rt"), "--max-extensions", "100"
        )
        assert code == 0

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("INCONLOG_MUS_BUDGET", "many")
        code, text = invoke("argue", fixture_path("example1.rt"), "psi")
        assert code == 2
        assert "INCONLOG_MUS_BUDGET" in text

    @pytest.mark.parametrize("argv, variable", [
        (["extensions", "example3.rt"], "INCONLOG_MUS_BUDGET"),
        (["af", "example3.rt"], "INCONLOG_MAX_EXTENSIONS"),
        (["check", "example1.rt"], "INCONLOG_MAX_ATOMS"),
    ])
    def test_the_variable_of_a_cap_the_command_does_not_take_is_not_read(
        self, monkeypatch, argv, variable
    ):
        monkeypatch.setenv(variable, "many")
        assert invoke(argv[0], fixture_path(argv[1]), *argv[2:])[0] == 0


class TestCapsPerCommand:
    # extensions, entails, models and conditional take --max-atoms and
    # --max-extensions; af, argue and atms --max-atoms and --mus-budget;
    # check and revise none
    @pytest.mark.parametrize("argv", [
        ["check", "example1.rt", "--max-atoms", "0"],
        ["revise", "example1.rt", "q", "--mus-budget", "1"],
        ["argue", "example1.rt", "psi", "--max-extensions", "1"],
        ["extensions", "example1.rt", "--mus-budget", "0"],
        ["atms", "chain.atms", "--nogoods", "--max-extensions", "1"],
    ], ids=lambda argv: argv[0])
    def test_a_flag_the_command_never_reads_is_a_usage_error(self, tmp_path, argv):
        target = tmp_path / "revised.rt"
        command, name, *rest = argv
        if command == "revise":
            rest += ["-o", str(target)]
        assert invoke(command, fixture_path(name), *rest) == (2, "")
        assert not target.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["models", "example1.rt"], "--max-atoms"),
        (["conditional", "example3.rt", "a", "b"], "--max-extensions"),
        (["af", "example1.rt"], "--mus-budget"),
        (["atms", "chain.atms", "--node", "n"], "--mus-budget"),
    ], ids=lambda item: item if isinstance(item, str) else item[0])
    def test_a_flag_the_command_reads_is_applied(self, argv, flag):
        command, name, *rest = argv
        assert invoke(command, fixture_path(name), *rest, flag, "0")[0] == 3


class TestParserReuse:
    """One argparse parser serves every cli.run call in a process."""

    def test_interleaved_calls_match_lone_runs(self, monkeypatch, capsys):
        # stdout is compared with that of a fresh process per call, so
        # help is wrapped at a width fixed by COLUMNS in both
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("INCONLOG_MAX_EXTENSIONS", raising=False)
        ex3 = fixture_path("example3.rt")
        steps = [
            (["frobnicate"], None, 2),
            (["entails", ex3, "a", "--credulous"], None, 0),
            (["entails", ex3], None, 2),  # the formula is missing
            (["entails", ex3, "a"], None, 1),  # still skeptical
            (["--help"], None, 0),
            (["extensions", ex3, "--max-extensions", "1"], None, 3),
            (["extensions", ex3], None, 0),
            (["extensions", ex3], "2", 3),
            (["extensions", ex3], None, 0),
            (["entails", ex3, "a"], None, 1),
        ]
        src = os.path.dirname(os.path.dirname(inconlog.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for argv, cap, code in steps:
            if cap is None:
                monkeypatch.delenv("INCONLOG_MAX_EXTENSIONS", raising=False)
            else:
                monkeypatch.setenv("INCONLOG_MAX_EXTENSIONS", cap)
            got = cli.run(argv)
            captured = capsys.readouterr()
            alone = subprocess.run(
                [sys.executable, "-m", "inconlog", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path},
            )
            assert got == alone.returncode == code, argv
            assert captured.out == alone.stdout, argv
            assert captured.err == alone.stderr, argv

    def test_parser_is_built_at_most_once(self, monkeypatch):
        built = []

        def counting():
            built.append(1)
            return original()

        original = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", counting)
        argvs = [
            ["extensions", fixture_path("example1.rt")],
            ["entails", fixture_path("example3.rt"), "a", "--credulous"],
            ["models", fixture_path("example3.rt")],
            ["af", fixture_path("example3.rt"), "--rule4"],
            ["atms", fixture_path("chain.atms"), "--nogoods"],
        ]
        for i in range(50):
            assert invoke(*argvs[i % len(argvs)])[0] == 0
        assert len(built) <= 1


# Every fixture through the commands that print collections, one line
# per command, then its output; run under two hash seeds and compared.
EVERY_FIXTURE_COMMAND = textwrap.dedent("""
    import importlib.resources, io
    from inconlog import files, formulas
    from inconlog.cli import run

    root = importlib.resources.files("inconlog") / "fixtures"
    for entry in sorted(root.iterdir(), key=lambda entry: entry.name):
        path = str(entry)
        if entry.name.endswith(".atms"):
            runs = [["atms", path, "--nogoods"]]
        else:
            by_id = files.load_theory(path).formulas_by_id()
            runs = [["extensions", path], ["models", path],
                    ["af", path, "--rule4", "--show-ignored"]]
            for atom in sorted(formulas.atoms_of_all(by_id.values())):
                runs += [["entails", path, atom], ["argue", path, atom, "--trace"]]
        for argv in runs:
            out = io.StringIO()
            code = run(argv, out=out)
            print(argv[0], entry.name, *argv[2:], "->", code)
            print(out.getvalue(), end="")
""")


class TestDeterminism:
    def test_output_does_not_depend_on_the_hash_seed(self):
        src = os.path.dirname(os.path.dirname(inconlog.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", EVERY_FIXTURE_COMMAND],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(" -> ") > 100

    def test_repeated_runs_are_byte_identical(self):
        first = invoke("af", fixture_path("example3.rt"), "--rule4")
        second = invoke("af", fixture_path("example3.rt"), "--rule4")
        assert first == second

    @pytest.mark.parametrize(
        "entry",
        [
            pytest.param([sys.executable, "-m", "inconlog"], id="module"),
            pytest.param(
                ["inconlog"],
                id="script",
                marks=pytest.mark.skipif(
                    shutil.which("inconlog") is None,
                    reason="console script not installed",
                ),
            ),
        ],
    )
    def test_console_script_matches_in_process_output(self, entry):
        argv = ["extensions", fixture_path("example3.rt")]
        src = os.path.dirname(os.path.dirname(inconlog.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [*entry, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        code, text = invoke(*argv)
        assert proc.returncode == code
        assert proc.stdout == text


class TestRobustness:
    """Random small inputs: every run ends in an exit code, never a traceback."""

    ATOMS = ["a", "b", "c"]
    NOISE = ["\r", "\t", "\x00", "\u00e9", "#", ":", "<", ".", ",", "->", " ", "premise"]

    def formula(self, rng):
        if rng.random() < 0.9:
            return format_formula(random_formula(rng, self.ATOMS, 2))
        words = self.ATOMS + self.NOISE + ["!", "&", "|", "(", ")"]
        return " ".join(rng.choice(words) for _ in range(rng.randint(0, 5)))

    def rt_lines(self, rng):
        n = rng.randint(0, 5)
        lines = [f"premise p{i}: {self.formula(rng)}" for i in range(n)]
        lines += [f"order p{j} < p{i}" for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.3]
        return lines

    def atms_lines(self, rng):
        lines = ["assume a.", "assume b.", "node c."]
        for _ in range(rng.randint(0, 3)):
            body = ", ".join(rng.sample(self.ATOMS, rng.randint(0, 2)))
            lines.append(f"{rng.choice(['just', 'deny'])} {body} -> c.")
        return lines

    def text(self, rng, lines):
        # shuffled, and about half the texts damaged in one place
        rng.shuffle(lines)
        if rng.random() < 0.5:
            damage, k = rng.choice(self.NOISE + self.ATOMS), rng.randint(0, len(lines))
            if k == len(lines):
                lines.append(damage)
            else:
                at = rng.randint(0, len(lines[k]))
                lines[k] = lines[k][:at] + damage + lines[k][at:]
        return "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in lines)

    def test_no_input_raises(self, tmp_path):
        rng = random.Random(1915)
        path, target = tmp_path / "input", tmp_path / "revised.rt"
        ordered = ["--max-atoms", "--max-extensions"]
        subsets = ["--max-atoms", "--mus-budget"]
        for _ in range(2000):
            goal, alpha = self.formula(rng), self.formula(rng)
            commands = [
                (["check"], []),
                (["extensions"], ordered),
                (["entails", goal], ordered),
                (["entails", goal, "--credulous"], ordered),
                (["models"], ordered),
                (["conditional", alpha, goal], ordered),
                (["revise", alpha, "-o", str(target)], []),
                (["af"], subsets),
                (["af", "--rule4", "--show-ignored"], subsets),
                (["argue", goal], subsets),
                (["argue", goal, "--trace"], subsets),
                (["atms", "--nogoods"], subsets),
                (["atms", "--node", rng.choice(["a", "c", "c"])], subsets),
            ]
            words, caps = rng.choice(commands)
            lines = self.atms_lines(rng) if words[0] == "atms" else self.rt_lines(rng)
            text = self.text(rng, lines)
            path.write_text(text, encoding="utf-8")
            argv = [words[0], str(path), *words[1:]]
            for flag in caps:
                if rng.random() < 0.5:
                    argv += [flag, str(rng.choice([0, 1, 3, 50]))]
            try:
                code = cli.run(argv, out=io.StringIO())
            except Exception as err:  # the failing input, not only the traceback
                pytest.fail(f"{argv} on {text!r} raised {err!r}")
            assert code in (0, 1, 2, 3), (argv, text)
