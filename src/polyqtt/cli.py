"""Batch command-line driver: check, run, bound, verify; JSON reporting.

Exit codes: 0 success, 1 static (parse/check) failure or command-line
mistake, 2 dynamic bound violation or failed run, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import machine as m
from .compiler import (
    VERIFY_FUEL_SLACK,
    CompileError,
    extract_bound,
    load,
    run_and_verify,
    sabotage,
)
from .frontend import Diagnostic, FrontendError, Span
from .kernel import CheckError, normalize_type
from .syntax import (
    BoolTy,
    DiamondTy,
    FalseC,
    ListTy,
    NatTy,
    Pi,
    Reflect,
    Regime,
    Star,
    Tensor,
    Term,
    TrueC,
    TypeExpr,
    UnitTy,
    has_free_var,
    nat_literal,
)

EXIT_OK = 0
EXIT_STATIC = 1
EXIT_DYNAMIC = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """A command-line mistake: an unknown option or command, or a value
    missing or outside its domain."""


def _natural(text: str) -> int:
    """The argparse type of an option that takes a natural number."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"takes a natural number, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Reports a command-line mistake as a UsageError, so it exits 1."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


class _TraceHead(list):
    """A machine trace that keeps only the rules run --trace prints."""

    def append(self, rule):
        if len(self) < 10_000:
            list.append(self, rule)


def _load(path: str, regime_flag: str | None, sigma: int | None = None):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[: e.start].decode("utf-8")
        span = Span(head.count("\n") + 1, len(head) - head.rfind("\n"))
        message = f"byte 0x{data[e.start]:02x} is not UTF-8 text"
        raise FrontendError(Diagnostic("error", message, span, "Parse")) from None
    return load(text, Regime(regime_flag) if regime_flag else None, sigma)


def _nested(parts: list[str]) -> str:
    """(a, (b, c)) for the parts a, b, c."""
    return "".join(f"({p}, " for p in parts[:-1]) + parts[-1] + ")" * (len(parts) - 1)


def _show_raw(v) -> str:
    """The structure of a machine value, read as no type."""
    parts = []
    while v.__class__ is m.VPair:
        parts.append(_show_raw(v.fst))
        v = v.snd
    cls = v.__class__
    if cls is m.Clo:
        last = "<closure>"
    elif cls is m.VTrue or cls is m.VFalse:
        last = "true" if cls is m.VTrue else "false"
    else:
        last = "*" if cls is m.VUnit else m.value_to_sexp(v)
    return _nested(parts + [last])


def _literal(regime: Regime, ty: TypeExpr, v) -> Term | None:
    """The term of a runtime Nat or Bool value, for a dependent type to
    be normalised at; None for any other type."""
    if ty.__class__ is BoolTy:
        return TrueC() if m.decode_bool(v) else FalseC()
    if ty.__class__ is NatTy:
        return nat_literal(regime, m.decode_nat(v))
    return None


def _show_value(regime: Regime, v, ty: TypeExpr) -> str:
    """A machine value decoded by its type: Nat as a numeral, Bool as
    true/false, unit and diamond as *, pairs as (a, b), lists as [a, b]
    and functions as <closure>.  A pair's second component is decoded at
    its type normalised with the tensor's binder bound to the first
    component's literal, by the kernel's evaluator.  A value that does
    not decode at its type, and a pair component whose type depends on
    an erased or non-data component, is shown by its structure."""
    try:
        ty = normalize_type(ty)
        cls = ty.__class__
        if cls is NatTy:
            return str(m.decode_nat(v))
        if cls is BoolTy:
            return "true" if m.decode_bool(v) else "false"
        if (cls is UnitTy or cls is DiamondTy) and v.__class__ is m.VUnit:
            return "*"
        if cls is Pi and v.__class__ is m.Clo:
            return "<closure>"
        if cls is Reflect:
            return _show_value(regime, v, ty.inner)
        if cls is ListTy:
            items = (_show_value(regime, x, ty.elem) for x in m.decode_list(v))
            return f"[{', '.join(items)}]"
        if cls is Tensor and v.__class__ is m.VPair:
            # a right-nested chain of pairs is walked, not recursed
            parts = []
            while cls is Tensor and v.__class__ is m.VPair:
                erased = ty.usage == 0
                fst = _show_raw(v.fst) if erased else _show_value(regime, v.fst, ty.fst)
                parts.append(fst)
                # a second component that does not read the first takes
                # any closed term for it
                lit = Star()
                if has_free_var(ty.snd, 0):
                    lit = None if erased else _literal(regime, ty.fst, v.fst)
                    if lit is None:
                        parts.append(_show_raw(v.snd))
                        return _nested(parts)
                ty, v = normalize_type(ty.snd, (lit,)), v.snd
                cls = ty.__class__
            return _nested(parts + [_show_value(regime, v, ty)])
    except (m.DecodeError, CheckError):
        pass
    return _show_raw(v)


def _emit_json(args, report, rows: list, ok: bool) -> None:
    """The JSON report of bound (no rows) and verify, to args.json."""
    payload = {
        "name": args.decl,
        "regime": report.regime.value,
        "bound": list(report.poly.coeffs),
        "rows": rows,
        "ok": ok,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if args.json is None or args.json == "-":
        sys.stdout.write(text)
    else:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_check(args) -> int:
    mod = _load(args.file, args.regime, args.sigma)
    mod.check()
    print(f"ok: {len(mod.decls)} definition(s) check under {mod.regime.value}")
    return EXIT_OK


def cmd_run(args) -> int:
    n = args.input
    mod = _load(args.file, args.regime)
    prog = mod.compile(args.decl)
    if args.emit_machine:
        print(m.expr_to_sexp(prog.code))
    if prog.input_arity != 1:
        raise CheckError("Tm", f"{args.decl!r} does not take a natural input")
    bound = extract_bound(prog).bound_at(n)
    fuel = args.fuel if args.fuel is not None else bound + VERIFY_FUEL_SLACK
    trace = _TraceHead() if args.trace else None
    out = m.eval_nat(prog.code, n, fuel, trace=trace)
    if trace is not None:
        for i, rule in enumerate(trace):
            print(f"trace {i}: {rule}", file=sys.stderr)
    if not isinstance(out, m.Done):
        kind = "stuck" if isinstance(out, m.Stuck) else "out of fuel"
        reason = f": {out.reason}" if isinstance(out, m.Stuck) else ""
        print(f"run failed ({kind}{reason})", file=sys.stderr)
        return EXIT_DYNAMIC
    ty = normalize_type(mod.decl(args.decl).ty)
    # a result type that does not read the input takes any closed term for it
    lit = nat_literal(mod.regime, n) if has_free_var(ty.cod, 0) else Star()
    result_ty = normalize_type(ty.cod, (lit,))
    print(f"value: {_show_value(mod.regime, out.value, result_ty)}")
    print(f"steps: {out.steps}")
    print(f"bound_at_n: {bound}")
    return EXIT_OK


def cmd_bound(args) -> int:
    prog = _load(args.file, args.regime).compile(args.decl)
    if args.emit_machine:
        print(m.expr_to_sexp(prog.code))
    report = extract_bound(prog)
    if args.json is not None:
        _emit_json(args, report, [], True)
        return EXIT_OK
    print(f"name: {args.decl}")
    print(f"regime: {report.regime.value}")
    print(f"bound coefficients (low to high): {list(report.poly.coeffs)}")
    if report.input_arity == 1:
        print("bound at input n: evaluate at n + 1")
    else:
        print("bound: constant (no input)")
    return EXIT_OK


def cmd_verify(args) -> int:
    prog = _load(args.file, args.regime).compile(args.decl)
    if prog.input_arity != 1:
        raise CheckError("Tm", f"{args.decl!r} does not take a natural input")
    if args.sabotage:
        prog = sabotage(prog)
    report = extract_bound(prog)
    rows = []
    # the largest input first: its run has the most fuel, and once it has
    # taken the compiled path the smaller ones run on the blocks it prepared
    for n in range(args.max_n, -1, -1):
        r = run_and_verify(prog, n)
        rows.append(
            {
                "n": n,
                "steps": r.steps if r.steps is not None else -1,
                "bound": r.bound_at_n,
                "ok": r.ok,
            }
        )
    rows.reverse()
    ok = all(row["ok"] for row in rows)
    _emit_json(args, report, rows, ok)
    return EXIT_OK if ok else EXIT_DYNAMIC


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    p.add_argument("--input", type=_natural, required=True, metavar="N")
    p.add_argument("--fuel", type=_natural, default=None, metavar="N")
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
    p.add_argument("--max-n", type=_natural, default=20, metavar="N")
    p.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH")
    p.add_argument(
        "--sabotage",
        action="store_true",
        help="halve the potential first (testing aid: demonstrates violation detection)",
    )
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
