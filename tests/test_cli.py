import json

from polyqtt.cli import main

from conftest import CORPUS, FIXTURES


def test_check_ok(capsys):
    assert main(["check", str(CORPUS / "consfree_iter.qtt")]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_all_corpus_files():
    for name in (
        "consfree_iter.qtt",
        "consfree_zero.qtt",
        "lfpl_iter.qtt",
        "lfpl_sort.qtt",
        "reflection.qtt",
    ):
        assert main(["check", str(CORPUS / name)]) == 0


def test_check_failure_exit_1(capsys):
    assert main(["check", str(FIXTURES / "bad_double_use.qtt")]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_check_rule_label_on_stderr(capsys):
    assert main(["check", str(FIXTURES / "consfree_succ_sigma1.qtt")]) == 1
    assert "Tm-CF-Succ" in capsys.readouterr().err


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
    # sorted alternating list of length 5: two false, then three true; the
    # untyped renderer reads the final (true, *) cell as the natural 0
    assert "value: (5, (false, (false, (true, (true, 0)))))" in out


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
    import polyqtt.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli_mod, "compile_declaration", boom)
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
    rc = main(["run", str(CORPUS / "consfree_iter.qtt"), "idNat", "--input", "-1"])
    assert rc == 1
    assert "--input" in capsys.readouterr().err
