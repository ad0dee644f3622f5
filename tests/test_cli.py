"""The polyqtt command: exit codes, diagnostics, reports, and the output of
verify on every corpus declaration that takes an input.

Pinned in tests/golden/verify/: to re-pin, copy in the actual file a failure names."""

import json
import os
import random
import re
import subprocess
import sys

import pytest

from polyqtt.cli import main

from conftest import CORPUS, FIXTURES, ROOT
from test_corpus import EXPECTED_REJECTIONS

# a Python repr such as BoolTy() or Var(index=0)
_REPR = re.compile(r"\b[A-Z][A-Za-z]*\(")


def test_check_ok(capsys):
    assert main(["check", str(CORPUS / "consfree_iter.qtt")]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_all_corpus_files():
    limit = sys.getrecursionlimit()
    for name in (
        "consfree_iter.qtt",
        "consfree_zero.qtt",
        "lfpl_iter.qtt",
        "lfpl_sort.qtt",
        "reflection.qtt",
    ):
        assert main(["check", str(CORPUS / name)]) == 0
    # checking leaves the interpreter's recursion limit alone
    assert sys.getrecursionlimit() == limit


def test_each_declaration_checked_once(monkeypatch):
    # load takes each declaration as a reference to its definition node
    # is taken: the declared type is formed and evaluated once, and no
    # conversion compares it with itself
    import polyqtt.kernel as kernel_mod
    from polyqtt.compiler import load

    from conftest import fanout_chain

    calls = {name: [] for name in ("_check_type", "_value", "_conv")}
    for name, seen in calls.items():
        real = getattr(kernel_mod, name)

        def counting(*args, real=real, seen=seen):
            seen.append(args[-1])
            return real(*args)

        monkeypatch.setattr(kernel_mod, name, counting)
    mod = load(fanout_chain(12))
    monkeypatch.undo()
    # every conversion, and formation or evaluation of a declared type
    declared = {id(d.ty) for d in mod.decls}
    counts = {
        name: sum(name == "_conv" or id(x) in declared for x in seen)
        for name, seen in calls.items()
    }
    assert len(mod.decls) == 14
    assert counts == {"_check_type": 14, "_value": 14, "_conv": 0}


def test_check_failure_exit_1(capsys):
    assert main(["check", str(FIXTURES / "bad_double_use.qtt")]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_check_rule_label_on_stderr(capsys, tmp_path):
    # a superscript two is a digit to str.isdigit, but not to the lexer
    superscript = tmp_path / "superscript.qtt"
    superscript.write_text("regime consfree\ndef f ^\u00b2 : Bool = true\n", encoding="utf-8")
    # a byte that is not UTF-8 is a source error, not an internal one
    latin1 = tmp_path / "latin1.qtt"
    latin1.write_bytes(b"regime consfree\n-- caf\xff\ndef f ^1 : Bool = true\n")
    for path, rule in (
        *((FIXTURES / name, f"[{rule}]") for name, rule in EXPECTED_REJECTIONS.items()),
        (superscript, "[Parse]"),
        (latin1, "[Parse]"),
    ):
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert rule in err, (path, err)
        # types print in source syntax, not as Python reprs
        assert not _REPR.search(err), (path, err)
    assert main(["check", str(FIXTURES / "conversion_mismatch.qtt")]) == 1
    err = capsys.readouterr().err
    assert err == "error: [Conv] expected Bool but synthesised I\n"
    assert len(EXPECTED_REJECTIONS) == len(list(FIXTURES.glob("*.qtt")))


def test_run_and_verify_need_a_natural_input(capsys):
    # both commands reject a declaration without a natural input with the
    # same labelled diagnostic, and exit 1
    path = str(CORPUS / "consfree_iter.qtt")
    for argv in (
        ["run", path, "flip", "--input", "3"],
        ["verify", path, "flip"],
        ["verify", path, "flip", "--max-n", "2", "--sabotage", "--json"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: [Tm] 'flip' does not take a natural input\n"
        assert captured.out == ""


def test_verify_runs_its_largest_input_first(monkeypatch, capsys):
    # verify computes its rows from --max-n down and prints them from 0 up:
    # the run at n = 60 has fuel past COMPILE_MIN_FUEL and prepares the
    # code's blocks, so every smaller run takes the compiled path too
    import polyqtt.machine as machine

    paths = []
    for name in ("_eval_compiled", "_eval_reference"):
        real = getattr(machine, name)
        monkeypatch.setattr(
            machine, name, lambda *a, name=name, real=real: paths.append(name) or real(*a)
        )
    argv = ["verify", str(CORPUS / "consfree_iter.qtt"), "negAcc", "--max-n", "60", "--json"]
    assert main(argv) == 0
    assert [r["n"] for r in json.loads(capsys.readouterr().out)["rows"]] == list(range(61))
    assert paths == ["_eval_compiled"] * 61


def test_verify_output_is_pinned(capsys, golden):
    # `verify <module> <declaration> --max-n 60 --json` for every corpus
    # declaration that takes an input: its steps and bound at each n
    from conftest import compiled, load_corpus

    outputs = {}
    for path in sorted(CORPUS.glob("*.qtt")):
        for d in load_corpus(path.name).decls:
            if d.sigma == 1 and compiled(path.name, d.name).input_arity == 1:
                assert main(["verify", str(path), d.name, "--max-n", "60", "--json"]) == 0
                outputs[f"{path.stem}.{d.name}.json"] = capsys.readouterr().out
    golden("verify", outputs)


# what a character edit inserts: punctuation and its prefixes, digits, the
# whitespace the lexer rejects, and letters, digits and numerals outside ASCII
_EDIT_PIECES = [*"(){},.:=|\\*^<>-_'", "--", "->", "=>", "^-1", *"0123456789",
                "\t", "\n", "\f", "²", "é", "λ", "٣", "Ⅷ"]


def test_character_edits_end_in_a_diagnostic(capsys, tmp_path):
    # each edit deletes, inserts or replaces 1-3 characters of a corpus or
    # fixture module; whatever the result, check exits 0 or 1, never 3
    sources = [p.read_text() for p in sorted([*CORPUS.glob("*.qtt"), *FIXTURES.glob("*.qtt")])]
    rng = random.Random(20261018)
    path = tmp_path / "edited.qtt"
    exits = []
    for _ in range(400):
        text = rng.choice(sources)
        i, k = rng.randrange(len(text)), rng.randint(1, 3)
        piece = "".join(rng.choice(_EDIT_PIECES) for _ in range(k))
        op = rng.choice(("delete", "insert", "replace"))
        if op == "delete":
            text = text[:i] + text[i + k:]
        elif op == "insert":
            text = text[:i] + piece + text[i:]
        else:
            text = text[:i] + piece + text[i + k:]
        path.write_text(text, encoding="utf-8")
        code = main(["check", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1) and "internal error" not in err, (text, err)
        if code == 1:
            assert re.search(r"\[[A-Za-z][\w-]*\]", err), (text, err)
        exits.append(code)
    # the edits reach past the lexer: some modules still check
    assert 0 < exits.count(0) < len(exits)


def test_check_sigma_override():
    # the erased fragment admits what the runtime fragment rejects
    assert main(["check", str(FIXTURES / "bad_double_use.qtt"), "--sigma", "0"]) == 0


def test_missing_file_exit_1():
    assert main(["check", "no_such_file.qtt"]) == 1


def test_run_identity(capsys):
    rc = main(["run", str(CORPUS / "consfree_iter.qtt"), "idNat", "--input", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "value: 9" in out
    assert "steps:" in out and "bound_at_n:" in out


def test_run_parity_base_case(capsys):
    rc = main(["run", str(CORPUS / "consfree_iter.qtt"), "parity1", "--input", "0"])
    assert rc == 0
    assert "value: true" in capsys.readouterr().out


def test_run_sort(capsys):
    rc = main(["run", str(CORPUS / "lfpl_sort.qtt"), "sortDriver", "--input", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    # sorted alternating list of length 5: two false, then three true,
    # each element read at the Bool type its vector of length 5 gives it
    assert "value: (5, (false, (false, (true, (true, (true, *))))))" in out


def test_values_are_shown_by_their_type():
    from polyqtt import machine as m
    from polyqtt.cli import _show_value
    from polyqtt.syntax import (
        BOOL_TY, DIAMOND_TY, NAT_TY, UNIT_TY, CodeTy, El, ListTy, Pi, RecNatL,
        Regime, Tensor, Universe, Var,
    )

    # a vector of n naturals, for the n bound by the enclosing pair
    vec = El(RecNatL(Var(0), CodeTy(UNIT_TY), CodeTy(Tensor(1, NAT_TY, El(Var(1)))), Universe()))
    one, two = m.nat_value(1), m.nat_value(2)
    cells = m.VPair(one, m.VPair(two, m.UNIT))
    for ty, v, want in (
        (NAT_TY, two, "2"),
        (BOOL_TY, m.FALSE, "false"),
        (UNIT_TY, m.UNIT, "*"),
        (DIAMOND_TY, m.UNIT, "*"),
        (ListTy(NAT_TY), m.encode_list([two, m.nat_value(0)]), "[2, 0]"),
        (Pi(1, BOOL_TY, BOOL_TY), m.Clo(m.Var(0)), "<closure>"),
        # the dependent component is read at the instantiated type
        (Tensor(1, NAT_TY, vec), m.VPair(two, cells), "(2, (1, (2, *)))"),
        # over an erased or non-data component it is shown as it is
        (Tensor(0, NAT_TY, vec), m.VPair(m.UNIT, cells),
         "(*, ((false, (true, *)), ((false, (false, (true, *))), *)))"),
        (Tensor(1, Tensor(1, BOOL_TY, BOOL_TY), El(Var(0))),
         m.VPair(m.VPair(m.TRUE, m.TRUE), m.nat_value(0)), "((true, true), (true, *))"),
        # a value that does not decode at its type is not guessed at
        (NAT_TY, m.VPair(m.TRUE, m.TRUE), "(true, true)"),
    ):
        assert _show_value(Regime.LFPL, v, ty) == want, want


def test_run_out_of_fuel_exit_2(capsys):
    rc = main(
        ["run", str(CORPUS / "consfree_iter.qtt"), "nested3", "--input", "9",
         "--fuel", "5"]
    )
    assert rc == 2
    assert "out of fuel" in capsys.readouterr().err


def test_emit_machine_roundtrips(capsys):
    from polyqtt.machine import expr_from_sexp, expr_to_sexp

    rc = main(
        ["run", str(CORPUS / "consfree_iter.qtt"), "idNat", "--input", "1",
         "--emit-machine"]
    )
    assert rc == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    assert expr_to_sexp(expr_from_sexp(first_line)) == first_line


def test_trace(capsys):
    rc = main(
        ["run", str(CORPUS / "consfree_iter.qtt"), "idNat", "--input", "1", "--trace"]
    )
    assert rc == 0
    assert "trace 0:" in capsys.readouterr().err
    # a longer run prints its first 10,000 rules
    rc = main(
        ["run", str(CORPUS / "consfree_iter.qtt"), "nested2", "--input", "25", "--trace"]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert int(re.search(r"steps: (\d+)", captured.out).group(1)) > 10_000
    lines = captured.err.splitlines()
    assert len(lines) == 10_000
    assert lines[0].startswith("trace 0: ") and lines[-1].startswith("trace 9999: ")


def test_bound_reports_degree(capsys):
    rc = main(["bound", str(CORPUS / "consfree_iter.qtt"), "nested3"])
    assert rc == 0
    out = capsys.readouterr().out
    coeffs = eval(out.split("): ")[1].splitlines()[0])
    assert len(coeffs) - 1 == 3  # cubic


def test_bound_json_schema(capsys):
    rc = main(["bound", str(CORPUS / "consfree_iter.qtt"), "parity1", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"name", "regime", "bound", "rows", "ok"}
    assert payload["regime"] == "consfree"


def test_verify_ok_and_schema(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    rc = main(
        ["verify", str(CORPUS / "consfree_iter.qtt"), "parity1",
         "--max-n", "10", "--json", str(out_json)]
    )
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert payload["ok"] is True
    assert payload["name"] == "parity1"
    assert [r["n"] for r in payload["rows"]] == list(range(11))
    for row in payload["rows"]:
        assert set(row) == {"n", "steps", "bound", "ok"}
        assert row["steps"] <= row["bound"]


def test_verify_extracts_the_bound_once(monkeypatch, tmp_path):
    import polyqtt.cli as cli_mod
    import polyqtt.compiler as compiler_mod

    calls = []
    real = compiler_mod.extract_bound

    def counting(p):
        calls.append(p)
        return real(p)

    for module in (compiler_mod, cli_mod):
        monkeypatch.setattr(module, "extract_bound", counting)
    argv = ["verify", str(CORPUS / "consfree_iter.qtt"), "parity1", "--max-n", "50"]
    assert main(argv + ["--json", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


def test_verify_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", str(CORPUS / "lfpl_iter.qtt"), "rebuild1", "--max-n", "6"]
    assert main(argv + ["--json", str(a)]) == 0
    assert main(argv + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_sabotage_exit_2(tmp_path):
    rc = main(
        ["verify", str(CORPUS / "consfree_iter.qtt"), "nested2",
         "--max-n", "8", "--sabotage", "--json", str(tmp_path / "s.json")]
    )
    assert rc == 2
    payload = json.loads((tmp_path / "s.json").read_text())
    assert payload["ok"] is False


def test_verify_erased_decl_rejected(capsys):
    rc = main(["verify", str(CORPUS / "consfree_zero.qtt"), "two", "--max-n", "3"])
    assert rc == 1
    assert "erased" in capsys.readouterr().err


def test_regime_override_flag():
    # the cons-free module fails to even check under the payment regime
    assert main(
        ["check", str(CORPUS / "consfree_iter.qtt"), "--regime", "lfpl"]
    ) == 1


def test_verify_non_nat_input_rejected(capsys):
    # flip takes a boolean, not an encoded natural
    rc = main(["verify", str(CORPUS / "consfree_iter.qtt"), "flip", "--max-n", "2"])
    assert rc == 1
    assert "natural input" in capsys.readouterr().err


def test_internal_error_exit_3(monkeypatch, capsys):
    import polyqtt.compiler as compiler_mod

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(compiler_mod, "compile_declaration", boom)
    rc = main(["bound", str(CORPUS / "consfree_iter.qtt"), "parity1"])
    assert rc == 3
    assert "internal error" in capsys.readouterr().err


def test_unknown_declaration_exit_1(capsys):
    rc = main(["run", str(CORPUS / "consfree_iter.qtt"), "nope", "--input", "1"])
    assert rc == 1
    assert "no definition named" in capsys.readouterr().err


def test_verify_negative_max_n_rejected(capsys):
    # a sweep over no inputs must not report a pass
    rc = main(["verify", str(CORPUS / "consfree_iter.qtt"), "parity1", "--max-n", "-3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "--max-n" in captured.err


def test_run_negative_input_rejected(capsys):
    # a command-line mistake is a static failure (exit 1), never argparse's
    # exit 2, which is reserved for failed runs
    src = str(CORPUS / "consfree_iter.qtt")
    for argv, flag in (
        (["run", src, "idNat", "--input", "-1"], "--input"),
        (["run", src, "idNat", "--input", "abc"], "--input"),
        (["run", src, "idNat"], "--input"),
        (["run", src, "parity1", "--input", "3", "--fuel", "-5"], "--fuel"),
        (["check", "--regime", "foo", src], "--regime"),
    ):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1, argv
        assert captured.out == "" and flag in captured.err, argv
    with pytest.raises(SystemExit) as e:
        main(["run", "--help"])
    assert e.value.code == 0


def test_run_elaborates_each_declaration_once(monkeypatch, capsys):
    # the module check hands the target's core term to the compiler: each
    # declaration is checked once, through its definition node, and
    # nothing elaborates it again
    import polyqtt.cli as cli_mod
    import polyqtt.compiler as compiler_mod
    import polyqtt.kernel as kernel_mod

    calls = []

    def counting(name, real):
        def count(*args, **kwargs):
            calls.append((name, args))
            return real(*args, **kwargs)

        return count

    for module in (kernel_mod, compiler_mod, cli_mod):
        if hasattr(module, "elaborate"):
            monkeypatch.setattr(module, "elaborate", counting("elaborate", module.elaborate))
    check = counting("check", compiler_mod._check_declaration)
    monkeypatch.setattr(compiler_mod, "_check_declaration", check)
    rc = main(["run", str(CORPUS / "consfree_iter.qtt"), "nested3", "--input", "3"])
    assert rc == 0
    assert "value:" in capsys.readouterr().out
    # one per declaration in the module
    assert [name for name, _ in calls] == ["check"] * 13
    assert len({id(args[4]) for _, args in calls}) == 13


def test_declarations_sharing_a_body_node_each_compile(tmp_path, capsys):
    # two `nil` bodies are the one constant node, and two aliases of one
    # definition the one reference node, each declared at its own type:
    # checking the later declaration leaves the earlier one compilable
    path = tmp_path / "shared.qtt"
    path.write_text(
        "regime consfree\n"
        "def xs ^1 : List Bool = nil\n"
        "def ys ^1 : List Bool = nil\n"
        "def id ^1 : Bool -> Bool = \\b. b\n"
        "def a ^1 : Bool -> Bool = id\n"
        "def b ^1 : Bool -> Bool = id\n"
    )
    for name, cost in (("xs", 5), ("ys", 5), ("a", 2), ("b", 2)):
        assert main(["bound", str(path), name]) == 0
        assert f"bound coefficients (low to high): [{cost}]" in capsys.readouterr().out


def test_check_long_literal_both_regimes(tmp_path, capsys):
    # a literal's successor chain is checked, normalised and compared
    # without host recursion
    for regime in ("consfree", "lfpl"):
        path = tmp_path / f"{regime}.qtt"
        for decl in (
            "def big ^0 : Nat = 20000",
            "def big ^0 : Id Nat 20000 20000 = refl 20000",
        ):
            path.write_text(f"regime {regime}\n{decl}\n")
            assert main(["check", str(path)]) == 0
            assert "ok: 1 definition(s)" in capsys.readouterr().out
        path.write_text(
            f"regime {regime}\ndef big ^0 : Id Nat 20000 19999 = refl 20000\n"
        )
        assert main(["check", str(path)]) == 1
        assert "[Id-Refl]" in capsys.readouterr().err


def test_deep_nesting_is_a_diagnostic(tmp_path):
    # the front end recurses once per nesting level; in a fresh interpreter
    # (default recursion limit) nesting past the host stack is reported as
    # a diagnostic with a span, and shallower nesting still checks
    def nest(n, inner, wrap):
        for _ in range(n):
            inner = wrap.format(inner)
        return inner

    def check(decl):
        path = tmp_path / "deep.qtt"
        path.write_text(f"regime consfree\n{decl}\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, "-m", "polyqtt.cli", "check", str(path)]
        return subprocess.run(cmd, capture_output=True, text=True, env=env)

    def conses(n):
        return f"def xs ^0 : List Bool = {nest(n, 'nil', '(cons true {})')}"

    ok = check(conses(120))
    assert ok.returncode == 0, ok.stderr
    arrows = nest(600, "Bool", "(Bool -> {})")
    # a chain of 600 binders parses, but its resolution recurses deeper
    flat_arrows = nest(600, "Bool", "Bool -> {}")
    lams = nest(600, "true", "\\x. {}")
    for decl, rule in (
        (conses(300), "Parse"),
        (f"def f ^0 : {arrows} = true", "Parse"),
        (f"def f ^0 : {flat_arrows} = {lams}", "Resolve"),
    ):
        out = check(decl)
        assert out.returncode == 1, out.stderr
        assert re.search(rf"error at \d+:\d+: \[{rule}\] .*nested too deeply", out.stderr)

    # six nesting shapes at two depths: each run ends in a verdict with a
    # diagnostic, and at depth 300 each shape keeps its verdict
    shapes = {
        "then-spine if": (
            lambda n: "def f ^1 : Bool -> Bool = \\b. "
            + nest(n, "b", "if b then {} else false"),
            1,
            "Tm-Lam",
        ),
        "else-spine if": (
            lambda n: "def f ^1 : Bool = " + nest(n, "true", "if true then false else {}"),
            0,
            None,
        ),
        "succ": (lambda n: f"def k ^0 : Nat = {nest(n, '0', 'succ ({})')}", 1, "Parse"),
        "cons": (conses, 1, "Parse"),
        "application": (
            lambda n: "def f ^0 : Bool -> Bool = \\b. b\n"
            f"def g ^0 : Bool = {nest(n, 'true', 'f ({})')}",
            1,
            "Parse",
        ),
        "lambda": (
            lambda n: f"def f ^0 : {nest(n, 'Bool', 'Bool -> {}')} = "
            + nest(n, "true", "\\x. {}"),
            0,
            None,
        ),
    }
    for shape, (decl, code_at_300, rule_at_300) in shapes.items():
        for depth in (300, 600):
            out = check(decl(depth))
            assert out.returncode in (0, 1), (shape, depth, out.stderr)
            if out.returncode == 0:
                assert out.stdout.startswith("ok:"), (shape, depth)
            else:
                assert re.match(r"error: .*\[[\w-]+\] ", out.stderr), (shape, depth)
                assert "internal error" not in out.stderr
            if depth == 300:
                assert out.returncode == code_at_300, (shape, out.stderr)
                if rule_at_300:
                    assert f"[{rule_at_300}]" in out.stderr, (shape, out.stderr)


def test_chain_of_references_compiles_leaves_first(tmp_path):
    # definitions are compiled leaves first with an explicit stack, so in a
    # fresh interpreter (default recursion limit) a 1,000-definition chain
    # of references compiles, runs and verifies; its code, which nests each
    # definition in the next, prints with an explicit stack too
    k = 1000
    lines = ["regime consfree", r"def g0 ^1 : Bool -> Bool = \b. if b then false else true"]
    lines += [rf"def g{i} ^1 : Bool -> Bool = \b. g{i - 1} b" for i in range(1, k)]
    rec = "rec n at (x. Bool) { zero => true | succ(m, p) => g0 p }"
    lines.append(rf"def drive ^1 : (n ^1 : Nat) -> Bool = \n. g{k - 1} ({rec})")
    path = tmp_path / "chain.qtt"
    path.write_text("\n".join(lines) + "\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for args in (
        ["check"],
        ["bound", "drive"],
        ["run", "drive", "--input", "3"],
        ["verify", "drive", "--max-n", "3"],
        ["bound", "drive", "--emit-machine"],
    ):
        cmd = [sys.executable, "-m", "polyqtt.cli", args[0], str(path), *args[1:]]
        out = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0, (args, out.stderr)
