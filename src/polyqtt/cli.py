"""Batch command-line driver: check, run, bound, verify; JSON reporting.

Exit codes: 0 success, 1 static (parse/check) failure, 2 dynamic bound
violation or failed run, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import machine as m
from .compiler import (
    VERIFY_FUEL_SLACK,
    CompiledProgram,
    CompileError,
    compile_declaration,
    extract_bound,
    run_and_verify,
    sabotage,
)
from .frontend import FrontendError, parse_module, resolve_module
from .kernel import CheckError, infer_usage_check
from .syntax import Regime

EXIT_OK = 0
EXIT_STATIC = 1
EXIT_DYNAMIC = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """A command-line value outside its domain."""


def _natural(value: int, flag: str) -> int:
    if value < 0:
        raise UsageError(f"{flag} takes a natural number, got {value}")
    return value


def _regime_of(flag: str | None) -> Regime | None:
    if flag is None:
        return None
    return Regime.CONS_FREE if flag == "consfree" else Regime.LFPL


def _load(path: str, regime_flag: str | None):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return resolve_module(parse_module(text), _regime_of(regime_flag))


def _check_module(mod, sigma_override: int | None) -> None:
    for d in mod.decls:
        sigma = d.sigma if sigma_override is None else sigma_override
        ctx = ()
        infer_usage_check(mod.regime, ctx, sigma, d.body, d.ty)


def _find_decl(mod, name: str):
    for d in mod.decls:
        if d.name == name:
            return d
    raise CheckError("Resolve", f"no definition named {name!r}")


def _compile_decl(mod, name: str) -> CompiledProgram:
    d = _find_decl(mod, name)
    if d.sigma != 1:
        raise CheckError(
            "Tm", f"{name!r} lives in the erased fragment and has no runtime code"
        )
    return compile_declaration(mod.regime, d.ty, d.body)


def _show_value(v) -> str:
    try:
        return str(m.decode_nat(v))
    except m.DecodeError:
        pass
    try:
        return "true" if m.decode_bool(v) else "false"
    except m.DecodeError:
        pass
    if isinstance(v, m.VPair):
        return f"({_show_value(v.fst)}, {_show_value(v.snd)})"
    if isinstance(v, m.VUnit):
        return "*"
    if isinstance(v, m.Clo):
        return "<closure>"
    return m.value_to_sexp(v)


def _emit_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_check(args) -> int:
    mod = _load(args.file, args.regime)
    _check_module(mod, args.sigma)
    print(f"ok: {len(mod.decls)} definition(s) check under {mod.regime.value}")
    return EXIT_OK


def cmd_run(args) -> int:
    n = _natural(args.input, "--input")
    mod = _load(args.file, args.regime)
    _check_module(mod, None)
    prog = _compile_decl(mod, args.decl)
    if args.emit_machine:
        print(m.expr_to_sexp(prog.code))
    if prog.input_arity != 1:
        raise CheckError("Tm", f"{args.decl!r} does not take a natural input")
    report = extract_bound(prog)
    bound = report.bound_at(n)
    fuel = args.fuel if args.fuel is not None else bound + VERIFY_FUEL_SLACK
    trace: list | None = [] if args.trace else None
    out = m.eval_expr(prog.code, (m.nat_value(n),), fuel, trace=trace)
    if trace is not None:
        for i, rule in enumerate(trace[:10_000]):
            print(f"trace {i}: {rule}", file=sys.stderr)
    if not isinstance(out, m.Done):
        kind = "stuck" if isinstance(out, m.Stuck) else "out of fuel"
        reason = f": {out.reason}" if isinstance(out, m.Stuck) else ""
        print(f"run failed ({kind}{reason})", file=sys.stderr)
        return EXIT_DYNAMIC
    print(f"value: {_show_value(out.value)}")
    print(f"steps: {out.steps}")
    print(f"bound_at_n: {bound}")
    return EXIT_OK


def cmd_bound(args) -> int:
    mod = _load(args.file, args.regime)
    _check_module(mod, None)
    prog = _compile_decl(mod, args.decl)
    if args.emit_machine:
        print(m.expr_to_sexp(prog.code))
    report = extract_bound(prog)
    coeffs = list(report.poly.coeffs)
    if args.json is not None:
        _emit_json(
            {
                "name": args.decl,
                "regime": report.regime.value,
                "bound": coeffs,
                "rows": [],
                "ok": True,
            },
            args.json,
        )
        return EXIT_OK
    print(f"name: {args.decl}")
    print(f"regime: {report.regime.value}")
    print(f"bound coefficients (low to high): {coeffs}")
    if report.input_arity == 1:
        print("bound at input n: evaluate at n + 1")
    else:
        print("bound: constant (no input)")
    return EXIT_OK


def cmd_verify(args) -> int:
    max_n = _natural(args.max_n, "--max-n")
    mod = _load(args.file, args.regime)
    _check_module(mod, None)
    prog = _compile_decl(mod, args.decl)
    if args.sabotage:
        prog = sabotage(prog)
    report = extract_bound(prog)
    rows = []
    overall = True
    for n in range(max_n + 1):
        r = run_and_verify(prog, n)
        rows.append(
            {
                "n": n,
                "steps": r.steps if r.steps is not None else -1,
                "bound": r.bound_at_n,
                "ok": r.ok,
            }
        )
        overall = overall and r.ok
    payload = {
        "name": args.decl,
        "regime": report.regime.value,
        "bound": list(report.poly.coeffs),
        "rows": rows,
        "ok": overall,
    }
    _emit_json(payload, args.json)
    return EXIT_OK if overall else EXIT_DYNAMIC


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyqtt",
        description="check, compile, run, and verify polytime-typed programs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="source module (.qtt)")
        p.add_argument(
            "--regime",
            choices=["consfree", "lfpl"],
            help="override the module's regime pragma",
        )

    p = sub.add_parser("check", help="type- and usage-check a module")
    common(p)
    p.add_argument(
        "--sigma", type=int, choices=[0, 1], help="re-check every definition at this fragment"
    )
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="run one definition on an encoded natural")
    common(p)
    p.add_argument("decl", help="definition name")
    p.add_argument("--input", type=int, required=True, metavar="N")
    p.add_argument("--fuel", type=int, default=None, metavar="N")
    p.add_argument("--emit-machine", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bound", help="print the extracted step bound")
    common(p)
    p.add_argument("decl")
    p.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    p.add_argument("--emit-machine", action="store_true")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("verify", help="sweep inputs and check steps against the bound")
    common(p)
    p.add_argument("decl")
    p.add_argument("--max-n", type=int, default=20, metavar="N")
    p.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    p.add_argument(
        "--sabotage",
        action="store_true",
        help="halve the potential first (testing aid: demonstrates violation detection)",
    )
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FrontendError, CheckError, CompileError, UsageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STATIC
    except Exception as e:  # noqa: BLE001  (contract: internal errors exit 3)
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
