"""Command-line surface: output shapes and exit codes."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import tpc
import tpc.cli
import tpc.oracle
from tpc.cli import main
from tpc.oracle import SearchBudget, reachable_set
from tpc.pipeline import _SELFCHECK_BUDGET, _self_check
from tpc.schemes import reduce_specific
from tpc.terms import Proof, parse_theory, print_term

_DEEP_X = "F(" * 2000 + "x" + ")" * 2000
_DEEP_Z = "F(" * 2000 + "Z" + ")" * 2000

FG_PAIR = [
    "--from",
    "P(Z, Z)",
    "--to",
    "P(F(F(F(F(F(F(F(F(Z)))))))), G(G(G(G(G(Z))))))",
]


class TestExitCodes:
    def test_positive_decision(self, capsys):
        assert main(["decide", "fg", *FG_PAIR]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_a_tree_reaches_itself(self, capsys):
        # no chain axiom matches Z, and zero steps rewrite it to itself
        for method in ("auto", "generated", "oracle"):
            assert main(["decide", "chain", "--method", method, "--from", "Z", "--to", "Z"]) == 0
            assert capsys.readouterr().out.strip() == "true"

    def test_a_tree_past_the_search_size_bound_reaches_itself(self, capsys):
        tree = "P(F(F(F(Z))))"
        for method in ("generated", "oracle"):
            argv = ["--max-tree-size", "3", "decide", "chain", "--method", method, "--from", tree, "--to", tree]
            assert main(argv) == 0
            assert capsys.readouterr().out == "true\n"

    def test_a_count_that_can_match_at_two_depths_is_not_a_false(self, capsys, tmp_path):
        # a.a rewrites the pair; the decider's atom
        # [P(x, y)->x].[R(x, y)->x]^{n}.[R(x, y)->y] = [P(x, y)->x].[R(x, y)->y]
        # also matches at n = 1, on the inner T
        path = tmp_path / "two_depths.tpc"
        path.write_text("start: P(R(R(R(A, B), C), D), Z)\na: P(R(R(x, y), v), z) -> P(R(x, y), v)\n")
        argv = ["decide", str(path), "--from", "P(R(R(R(A, T), T), V), Z)", "--to", "P(R(A, T), T)"]
        assert main(["--json", *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["decision"], payload["method"]) == (True, "oracle")
        assert main(["--no-selfcheck", *argv, "--method", "generated"]) == 3
        assert capsys.readouterr().err == "error: an atom's count can match at two depths of its run\n"

    def test_negative_decision(self, capsys):
        assert main(["decide", "fg", "--from", "P(Z, Z)", "--to", "P(Z, G(Z))"]) == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_synthesis_failure_is_reported(self, capsys):
        code = main(["decide", "ancestor", "--method", "generated", "--from", "S", "--to", "S"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == "" and "error" in err

    def test_rotation_gives_up(self, capsys):
        start = "P(R(R(R(R(E, D4), D3), D2), D1), Y0)"
        argv = ["decide", "rotate", "--method", "generated", "--from", start, "--to", start]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: fitted form failed held-out verification: (a*.b)*.a*\n"
        )
        assert main(["decide", "rotate", "--from", start, "--to", start]) == 0
        assert capsys.readouterr().out.strip() == "true"

    @staticmethod
    def use_procedure(monkeypatch, proc):
        """Makes the CLI's pipeline return *proc*, self-checked unless
        --no-selfcheck is given."""

        def build(theory, selfcheck=True):
            if selfcheck:
                _self_check(proc, _SELFCHECK_BUDGET)
            return proc

        monkeypatch.setattr(tpc.cli, "pipeline", build)

    def test_auto_falls_back_when_selfcheck_fails(self, capsys, monkeypatch, rejecting_procedure):
        self.use_procedure(monkeypatch, rejecting_procedure)
        assert main(["decide", "chain", "--from", "P(Z)", "--to", "P(Z)"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_auto_falls_back_when_tuning_is_ambiguous(self, capsys, monkeypatch, undecidable_procedure):
        self.use_procedure(monkeypatch, undecidable_procedure)
        assert main(["--no-selfcheck", "decide", "chain", "--from", "P(Z)", "--to", "P(F(Z))"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_zero_steps_answer_a_tree_tuning_cannot_count(self, capsys, monkeypatch, undecidable_procedure):
        self.use_procedure(monkeypatch, undecidable_procedure)
        argv = ["--no-selfcheck", "decide", "chain", "--method", "generated", "--from", "P(Z)", "--to", "P(Z)"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "true\n"

    def test_ambiguous_tuning_is_a_give_up(self, capsys, monkeypatch, undecidable_procedure):
        self.use_procedure(monkeypatch, undecidable_procedure)
        argv = ["--no-selfcheck", "decide", "chain", "--method", "generated", "--from", "P(Z)", "--to", "P(F(Z))"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: both sides of an atom have undetermined counts\n"

    def test_failed_selfcheck_is_a_give_up(self, capsys, monkeypatch, rejecting_procedure):
        self.use_procedure(monkeypatch, rejecting_procedure)
        argv = ["decide", "chain", "--method", "generated", "--from", "P(Z)", "--to", "P(Z)"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: procedure rejects a reachable sentence under a.a*\n"

    def test_form_wrong_at_zero_is_a_give_up(self, capsys, tmp_path):
        # a erases, so (a*.b)*.a* fitted from counts >= 1 relates every
        # tree to P(R(Z, Z)); the decider said P(F(Z)) does not reach itself
        path = tmp_path / "erasing.tpc"
        path.write_text("start: P(Z)\na: P(x) -> P(R(Z, Z))\nb: P(x) -> P(F(x))\n")
        argv = ["--no-selfcheck", "decide", str(path), "--from", "P(F(Z))", "--to", "P(F(Z))"]
        assert main([*argv, "--method", "generated"]) == 3
        assert "held-out verification" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr().out == "true\n"

    @pytest.mark.parametrize("command", [["oracle"], ["prove", "--method", "oracle"]], ids=["oracle", "prove"])
    @pytest.mark.parametrize("theory, goal, steps", [
        ("chain", ["--goal", "P(F(F(Z)))"], ("a",)),  # a proof of P(F(Z))
        ("ancestor", [], ("l1",)),  # l1 does not apply to the start S
    ], ids=["wrong-tree", "step-does-not-apply"])
    def test_a_found_proof_that_does_not_replay_is_not_printed(self, capsys, monkeypatch, command, theory, goal, steps):
        monkeypatch.setattr(tpc.cli, "find_proof", lambda th, goal, budget: Proof(steps))
        assert main([command[0], theory, *command[1:], *goal]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: found proof does not replay to the goal\n"

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["decide", "fg", "--from", "P(Z, Z)"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--max-depth", "-1", "oracle", "chain"],
        ["--max-tree-size", "-1", "decide", "chain", "--method", "oracle", "--from", "P(Z)", "--to", "P(F(Z))"],
    ], ids=["max-depth", "max-tree-size"])
    def test_negative_search_bound_is_a_usage_error(self, capsys, argv):
        # exit 1 would read as a negative decision
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: tpc")
        assert f"argument {argv[0]}: must be >= 0, got -1" in err

    def test_non_ground_sentence_is_a_usage_error(self, capsys):
        # a lowercase name is a variable, so P(x) is no sentence
        argv = ["decide", "chain", "--method", "generated", "--from", "P(x)", "--to", "P(F(x))"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: sentence P(x) is not ground\n"

    @pytest.mark.parametrize("depth,codes", [(100, {0, 2, 3}), (3000, {2})], ids=["at-bound", "past-bound"])
    @pytest.mark.parametrize("shape", ["parens", "stars"])
    @pytest.mark.parametrize("command", ["sigma", "reduce"])
    def test_deep_scheme_is_never_a_crash(self, capsys, command, shape, depth, codes):
        # a RecursionError once exited 1, which reads as "false"
        text = "(" * depth + "a" + ")" * depth if shape == "parens" else "a" + "*" * depth
        assert main([command, "fg", "--scheme", text]) in codes
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["decide", "--from", f"P({_DEEP_Z})", "--to", f"P(G({_DEEP_Z}))"],
        ["decide", "--method", "generated", "--from", f"P({_DEEP_Z})", "--to", f"P(G({_DEEP_Z}))"],
        ["prove", "--goal", f"P(G({_DEEP_Z}))"],
        ["sigma", "--scheme", "a*"],
    ], ids=["decide", "decide-generated", "prove", "sigma"])
    def test_deep_axiom_is_never_a_crash(self, capsys, tmp_path, command):
        # composing renames each clause apart; a recursive renaming once
        # exited 4 with a RecursionError on this 2000-deep axiom
        path = tmp_path / "deep.tpc"
        path.write_text(f"start: P({_DEEP_Z})\na: P({_DEEP_X}) -> P(G({_DEEP_X}))\n")
        assert main([command[0], str(path), *command[1:]]) in {0, 1, 3}
        assert "Traceback" not in capsys.readouterr().err
        th = parse_theory(path.read_text())
        assert reduce_specific(th, ["a"]) is not None

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_crash_is_an_internal_error(self, capsys, monkeypatch, json_flag):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(tpc.cli, "_cmd_decide", crash)
        assert main([*json_flag, "decide", "fg", *FG_PAIR]) == 4
        out, err = capsys.readouterr()
        assert err == "error: RuntimeError: boom\n"
        if json_flag:
            payload = json.loads(out)
            assert payload["schema"] == "tpc/1"
            assert payload["error"] == {"type": "InternalError", "message": "RuntimeError: boom", "exit_code": 4}
        else:
            assert out == ""

    def test_keyboard_interrupt_is_not_caught(self, monkeypatch):
        def interrupt(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(tpc.cli, "_cmd_decide", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["decide", "fg", *FG_PAIR])

    def test_unknown_theory(self, capsys):
        assert main(["parse", "no_such_theory"]) == 2

    def test_unknown_axiom_after_an_empty_prefix(self, capsys):
        # a1.a1 composes to the empty relation, but zz is a usage error
        assert main(["sigma", "ancestor", "--scheme", "a1.a1.zz"]) == 2
        assert "unknown axiom 'zz'" in capsys.readouterr().err


class TestJsonErrors:
    @staticmethod
    def error_of(capsys, argv, code):
        assert main(["--json", *argv]) == code
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["schema"] == "tpc/1" and payload["version"] == tpc.__version__
        assert payload["error"]["exit_code"] == code
        assert err == f"error: {payload['error']['message']}\n"
        return payload["error"]

    def test_give_up_prints_an_error_object(self, capsys):
        argv = ["decide", "rotate3", "--method", "generated", "--from", "S", "--to", "S"]
        error = self.error_of(capsys, argv, 3)
        assert error["type"] == "NotLinearizable"
        assert error["message"].startswith("index nesting too deep")

    @pytest.mark.parametrize("argv", [
        ["decide", "chain", "--method", "generated", "--from", "P(x)", "--to", "P(F(x))"],
        ["decide", "chain", "--from", "P(Z)", "--to", "x"],
        ["prove", "fg", "--goal", "P(F(y), Z)"],
        ["oracle", "chain", "--goal", "P(F(x))"],
    ], ids=["from", "to", "prove-goal", "oracle-goal"])
    def test_non_ground_sentence_prints_an_error_object(self, capsys, argv):
        error = self.error_of(capsys, argv, 2)
        assert error["type"] == "NonGroundStart"
        assert error["message"].endswith("is not ground")

    @pytest.mark.parametrize("argv, message", [
        (["decide", "fg", "--from", "P(Z, Z)"], "the following arguments are required: --to"),
        (["--max-depth", "-1", "oracle", "chain"], "argument --max-depth: must be >= 0, got -1"),
    ], ids=["missing-option", "negative-bound"])
    def test_argparse_error_prints_an_error_object(self, capsys, argv, message):
        # stderr keeps argparse's usage text; stdout adds the object
        with pytest.raises(SystemExit) as exc:
            main(["--json", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["schema"] == "tpc/1"
        assert payload["error"] == {"type": "TpcError", "message": message, "exit_code": 2}
        assert err.startswith("usage: tpc") and err.endswith(f": error: {message}\n")

    def test_dump_with_a_goal_prints_an_error_object(self, capsys):
        error = self.error_of(capsys, ["oracle", "chain", "--dump", "--goal", "P(F(Z))"], 2)
        assert error == {
            "type": "TpcError",
            "message": "--dump lists the sentences reachable from the start; it takes no --goal",
            "exit_code": 2,
        }

    def test_usage_error_prints_an_error_object(self, capsys):
        error = self.error_of(capsys, ["parse", "no_such_theory"], 2)
        assert error == {
            "type": "TpcError",
            "message": "no such theory file or bundled theory: no_such_theory",
            "exit_code": 2,
        }


class TestCommands:
    def test_parse_roundtrip(self, capsys):
        assert main(["parse", "chain"]) == 0
        out = capsys.readouterr().out
        assert "start: P(Z)" in out and "a: P(x) -> P(F(x))" in out

    def test_oracle_finds_seven_step_proof(self, capsys):
        assert main(["--max-depth", "8", "oracle", "ancestor"]) == 0
        assert capsys.readouterr().out.strip() == "p3.a1.p2.a2.p1.a2.l1"

    def test_oracle_dump(self, capsys):
        assert main(["--max-depth", "2", "oracle", "chain", "--dump"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["P(Z)", "P(F(Z))", "P(F(F(Z)))"]

    def test_prove_with_generated_procedure(self, capsys):
        assert main(["prove", "fg", "--method", "generated", "--goal", "P(F(F(F(Z))), G(G(Z)))"]) == 0
        assert capsys.readouterr().out.strip() == "b.a"

    def test_prove_falls_back_to_oracle(self, capsys):
        assert main(["prove", "ancestor"]) == 0
        assert capsys.readouterr().out.strip() == "p3.a1.p2.a2.p1.a2.l1"

    @pytest.mark.parametrize("flags, argv, code, human", [
        ([], ["chain", "--goal", "P(F(F(Z)))"], 0, "a.a"),
        ([], ["chain", "--goal", "P(Z)"], 0, "eps"),
        ([], ["ancestor"], 0, "p3.a1.p2.a2.p1.a2.l1"),
        (["--max-depth", "1"], ["chain", "--goal", "P(F(F(Z)))"], 1, "no proof found within budget"),
    ], ids=["chain", "empty-proof", "theory-goal", "out-of-budget"])
    def test_oracle_is_prove_by_the_oracle(self, capsys, flags, argv, code, human):
        commands = (["oracle", *argv], ["prove", *argv, "--method", "oracle"])
        for json_flag in ([], ["--json"]):
            runs = [(main([*json_flag, *flags, *command]), capsys.readouterr()) for command in commands]
            assert runs[0] == runs[1]
            ((got, (out, err)), _) = runs
            assert (got, err) == (code, "")
            if json_flag:
                assert json.loads(out)["method"] == "oracle"
            else:
                assert out == human + "\n"

    def test_a_theory_without_a_goal_gives_one_message(self, capsys, tmp_path):
        path = tmp_path / "nogoal.tpc"
        path.write_text("start: P(Z)\na: P(x) -> P(F(x))\n")
        for command in (["oracle"], ["prove"], ["prove", "--method", "generated"]):
            assert main([command[0], str(path), *command[1:]]) == 2
            assert capsys.readouterr().err == "error: theory has no goal; pass --goal TERM\n"

    def test_reduce_without_axioms(self, capsys, tmp_path):
        path = tmp_path / "bare.tpc"
        path.write_text("start: P(Z)\n")
        assert main(["reduce", str(path)]) == 0
        assert capsys.readouterr().out == "reduced: eps\n"

    def test_sigma_json(self, capsys):
        assert main(["--json", "sigma", "chain", "--scheme", "a*"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "tpc/1"
        (branch,) = payload["charfn"]["branches"]
        assert branch["atoms"] == ["EqualsLR([P(x)->x], [P(x)->x].[F(x)->x]^{n})"]

    def test_includes_region(self, capsys):
        assert main(["includes", "fg", "--left", "a.b.a*.b", "--right", "b.a*.b"]) == 0
        assert "all naturals" in capsys.readouterr().out

    def test_reduce_trace(self, capsys):
        assert main(["reduce", "fg"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "reduced: b*.a*"
        assert "absorption" in out and "commutation" in out

    def test_json_reduce_schema(self, capsys):
        assert main(["--json", "reduce", "fg"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["result"] == "b*.a*"
        assert [s["rule"] for s in payload["trace"]["steps"]] == [
            "absorption",
            "normalize",
            "commutation",
            "normalize",
        ]

    @pytest.mark.parametrize("argv, method", [
        (["decide", "chain", "--from", "P(Z)", "--to", "P(F(Z))"], "generated"),
        (["prove", "chain", "--goal", "P(F(Z))"], "generated"),
        (["decide", "chain", "--method", "oracle", "--from", "P(Z)", "--to", "P(F(Z))"], "oracle"),
        (["prove", "chain", "--method", "oracle", "--goal", "P(F(Z))"], "oracle"),
    ], ids=["decide", "prove", "decide-oracle", "prove-oracle"])
    def test_json_names_the_method_that_answered(self, capsys, argv, method):
        assert main(["--json", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == method

    @pytest.mark.parametrize("command", [
        ["decide", "--from", f"P({_DEEP_Z})", "--to", f"P(G({_DEEP_Z}))"],
        ["prove", "--goal", f"P(G({_DEEP_Z}))"],
    ], ids=["decide", "prove"])
    def test_json_names_the_oracle_after_a_give_up(self, capsys, tmp_path, command):
        # the generated procedure gives up on this 2000-deep axiom, and
        # the oracle's tree-size bound cuts its search short of the goal
        path = tmp_path / "deep.tpc"
        path.write_text(f"start: P({_DEEP_Z})\na: P({_DEEP_X}) -> P(G({_DEEP_X}))\n")
        assert main(["--json", command[0], str(path), *command[1:]]) == 1
        assert json.loads(capsys.readouterr().out)["method"] == "oracle"

    def test_theory_from_file(self, tmp_path, capsys):
        f = tmp_path / "tiny.tpc"
        f.write_text("start: Q(Z)\na: Q(x) -> Q(H(x))\n")
        assert main(["decide", str(f), "--from", "Q(Z)", "--to", "Q(H(H(Z)))"]) == 0

    def test_bad_theory_file_is_a_usage_error(self, tmp_path, capsys):
        f = tmp_path / "bad.tpc"
        f.write_text("start: Q(Z)\na: Q(x)\n")
        assert main(["parse", str(f)]) == 2
        assert capsys.readouterr() == ("", "error: axiom 'a' needs 'lhs -> rhs' (line 2)\n")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_theory_file_is_a_usage_error(self, tmp_path, capsys, kind, json_flag):
        # not a crash (exit 4): the file is named and the exit is a usage error
        f = tmp_path / "theory.tpc"
        if kind == "directory":
            f.mkdir()
            message = f"cannot read theory file {f}: Is a directory"
        else:
            f.write_bytes(b"start: Q(\xff)\n")
            message = f"theory file {f} is not UTF-8 text"
        assert main([*json_flag, "parse", str(f)]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: {message}\n"
        if json_flag:
            assert json.loads(out)["error"] == {"type": "TpcError", "message": message, "exit_code": 2}
        else:
            assert out == ""


def test_oracle_dump_is_pinned(capsys):
    # reachable sentences in (size, text) order, one per line
    assert main(["--max-depth", "8", "oracle", "ancestor", "--dump"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 62990
    assert hashlib.sha256(out.encode()).hexdigest() == "dbb857f38c918678768b697983747aa5b670c71ee5be4d3abb17c975f7922ce5"


def test_oracle_dump_prints_each_tree_once(capsys, monkeypatch):
    # the texts come from reachable_set's memo, not from a second pass
    th = tpc.load_theory("ancestor")
    want = [print_term(t) for t in reachable_set(th, th.start, SearchBudget(max_depth=5, max_tree_size=512))]
    calls = []

    def counted(t, memo=None):
        calls.append(t)
        return print_term(t, memo)

    monkeypatch.setattr(tpc.oracle, "print_term", counted)
    monkeypatch.setattr(tpc.cli, "print_term", counted, raising=False)
    assert main(["--max-depth", "5", "oracle", "ancestor", "--dump"]) == 0
    assert capsys.readouterr().out.splitlines() == want
    assert len(calls) == len(want)


class TestDeterministicMessages:
    INCLUDES = ["includes", "chain", "--left", "a*", "--right", "a*.a*.a*.a*.a*.a*"]

    @staticmethod
    def run(argv, hash_seed):
        src = str(Path(tpc.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-m", "tpc.cli", *argv], capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_unsupported_message_ignores_the_hash_seed(self, json_flag):
        runs = {self.run(json_flag + self.INCLUDES, seed) for seed in (0, 1)}
        assert len(runs) == 1
        ((code, _, err),) = runs
        assert code == 3
        assert "existential k not isolated: depends on j, l, n2, n3, n4" in err


def _readme_cli_lines():
    """Every ``tpc ...`` line in the README's CLI section, as argv lists."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in section.splitlines() if line.startswith("tpc ")]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_examples_are_valid(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code != 2, capsys.readouterr().err


def test_readme_lists_cli_examples():
    assert len(_readme_cli_lines()) >= 8
