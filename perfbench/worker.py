"""Run one workload in this (fresh, single-threaded) process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

The worker repeats passes over the workload's items until ``--seconds``
is used up (at least one pass), checks every verdict against its Python
reference and pinned step counts and bounds, and prints one JSON object
as its last line of output.  With ``--trace 1`` half the time runs
untraced and half traced, and the per-layer metrics come from the traced
passes.  Times are corrected for contention on the host (see
``calibration.py``).  ``--setup-only`` imports polyqtt, builds the inputs
and exits; ``perfbench/run.py`` times that to measure set-up.

Every polyqtt function is called through its module attribute
(``compiler.compile_declaration``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from polyqtt import compiler, frontend, kernel, machine  # noqa: E402
from polyqtt.syntax import (  # noqa: E402
    Ann,
    App,
    Cons,
    DiamondStar,
    FalseC,
    Nil,
    Pair,
    Regime,
    Star,
    SuccCF,
    SuccL,
    TrueC,
    ZeroCF,
    ZeroL,
)

import calibration  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"


class Mismatch(Exception):
    """A verdict that disagrees with its reference or pin."""


# ---------------------------------------------------------------------------
# Decoding: machine values with the machine codecs, normal forms by shape.

def decode_value(shape: str, v):
    if shape == "bool":
        return machine.decode_bool(v)
    if shape == "nat":
        return machine.decode_nat(v)
    if shape == "list":
        return [machine.decode_bool(x) for x in machine.decode_list(v)]
    # ilist: (size, element tuple ending in unit)
    size, elems, out = machine.decode_nat(v.fst), v.snd, []
    for _ in range(size):
        out.append(machine.decode_bool(elems.fst))
        elems = elems.snd
    if not isinstance(elems, machine.VUnit):
        raise machine.DecodeError("overlong element tuple")
    return out


def _nf_nat(t) -> int:
    n = 0
    while isinstance(t, (SuccCF, SuccL)):
        t, n = t.pred, n + 1
    if not isinstance(t, (ZeroCF, ZeroL)):
        raise Mismatch(f"normal form is not a numeral: {t!r}")
    return n


def _nf_bool(t) -> bool:
    if isinstance(t, (TrueC, FalseC)):
        return isinstance(t, TrueC)
    raise Mismatch(f"normal form is not a boolean: {t!r}")


def decode_normal_form(shape: str, t):
    if shape == "bool":
        return _nf_bool(t)
    if shape == "nat":
        return _nf_nat(t)
    out = []
    if shape == "list":
        while isinstance(t, Cons):
            out.append(_nf_bool(t.head))
            t = t.tail
        if not isinstance(t, Nil):
            raise Mismatch(f"normal form is not a list: {t!r}")
        return out
    if not isinstance(t, Pair):
        raise Mismatch(f"normal form is not a sized list: {t!r}")
    size, elems = _nf_nat(t.fst), t.snd
    for _ in range(size):
        out.append(_nf_bool(elems.fst))
        elems = elems.snd
    if not isinstance(elems, Star):
        raise Mismatch(f"overlong element tuple in normal form: {elems!r}")
    return out


def nat_literal(regime: Regime, n: int):
    if regime is Regime.CONS_FREE:
        t = ZeroCF()
        for _ in range(n):
            t = SuccCF(t)
        return t
    t = ZeroL(DiamondStar())
    for _ in range(n):
        t = SuccL(DiamondStar(), t)
    return t


def count_code(e) -> int:
    """Number of MachineExpr nodes in emitted code."""
    total, todo = 0, [e]
    while todo:
        x = todo.pop()
        total += 1
        for f in x.__dataclass_fields__:
            v = getattr(x, f)
            if isinstance(v, machine.MachineExpr):
                todo.append(v)
    return total


# ---------------------------------------------------------------------------
# The pipeline, stage by stage

STAGES = ("parse", "resolve", "check", "compile", "bound", "run", "norm")


@dataclass
class Outcome:
    stages: dict = field(default_factory=dict)  # stage -> seconds
    prog: object = None
    report: object = None
    result: object = None  # RunResult
    nf: object = None
    rule: str | None = None


def _find(mod, name):
    for d in mod.decls:
        if d.name == name:
            return d
    raise Mismatch(f"no definition named {name!r}")


def load_module(text: str, out: Outcome, check: bool = True):
    perf = time.perf_counter
    t0 = perf()
    src = frontend.parse_module(text)
    t1 = perf()
    out.stages["parse"] = t1 - t0
    mod = frontend.resolve_module(src)
    t2 = perf()
    out.stages["resolve"] = t2 - t1
    try:
        if check:
            for d in mod.decls:
                kernel.infer_usage_check(mod.regime, (), d.sigma, d.body, d.ty)
    finally:
        out.stages["check"] = perf() - t2
    return mod


def _define(mod, decl, out: Outcome, check: bool):
    perf = time.perf_counter
    d = _find(mod, decl)
    t0 = perf()
    if check:
        kernel.infer_usage_check(mod.regime, (), 1, d.body, d.ty)
    t1 = perf()
    out.prog = compiler.compile_declaration(mod.regime, d.ty, d.body)
    t2 = perf()
    out.report = compiler.extract_bound(out.prog)
    t3 = perf()
    out.stages["check"] = out.stages.get("check", 0.0) + t1 - t0
    out.stages.update(compile=t2 - t1, bound=t3 - t2)


def _run(n, out: Outcome):
    t0 = time.perf_counter()
    out.result = compiler.run_and_verify(out.prog, n)
    out.stages["run"] = time.perf_counter() - t0


def execute(item: wl.Item, work: wl.Workload, prepared: dict) -> Outcome:
    out = Outcome()
    if item.kind == "reject":
        try:
            load_module(work.modules[item.module], out)
        except kernel.CheckError as e:
            out.rule = e.rule
        return out
    if item.kind == "oracle":
        mod, progs = prepared[item.module]
        d = _find(mod, item.decl)
        out.prog = progs[item.decl]
        t0 = time.perf_counter()
        applied = App(Ann(d.body, d.ty), nat_literal(mod.regime, item.n))
        out.nf = kernel.normalize_sigma0(mod.regime, (), applied)
        out.stages["norm"] = time.perf_counter() - t0
        _run(item.n, out)
        return out
    if item.module in prepared:
        # a prepared chain module is parsed and resolved once per pass;
        # each item checks its own definition
        mod, _ = prepared[item.module]
        _define(mod, item.decl, out, check=True)
    else:
        # as ``polyqtt run``: load and check the module, then compile
        mod = load_module(work.modules[item.module], out)
        _define(mod, item.decl, out, check=False)
    if item.kind == "run":
        _run(item.n, out)
    return out


def prepare(work: wl.Workload) -> dict:
    """Parse and resolve the workload's shared modules; for the oracle also
    check them and compile its programs.  Timed as part of every pass."""
    prepared = {}
    oracle = work.name == "oracle"
    for name in work.prepared:
        mod = load_module(work.modules[name], Outcome(), check=oracle)
        progs = {}
        if oracle:
            for decl in wl.oracle_decls(name):
                d = _find(mod, decl)
                progs[decl] = compiler.compile_declaration(mod.regime, d.ty, d.body)
        prepared[name] = (mod, progs)
    return prepared


# ---------------------------------------------------------------------------
# Verdicts

def verdict(item: wl.Item, out: Outcome, pins: dict) -> None:
    """Raise Mismatch unless the outcome matches every reference."""
    if item.kind == "reject":
        if out.rule != item.expect:
            raise Mismatch(f"{item.module}: rejected with {out.rule!r}, want {item.expect!r}")
        return
    want_bound = pins["bounds"].get(item.pin)
    if item.kind != "oracle":
        got = list(out.report.poly.coeffs)
        if got != want_bound:
            raise Mismatch(f"{item.pin}: bound {got}, pinned {want_bound}")
    if item.kind == "define":
        return
    r = out.result
    if r.outcome != "done" or not r.ok:
        raise Mismatch(f"{item.pin} n={item.n}: {r.outcome}, ok={r.ok}")
    want_steps = pins["steps"].get(item.pin, {}).get(str(item.n))
    if r.steps != want_steps:
        raise Mismatch(f"{item.pin} n={item.n}: {r.steps} steps, pinned {want_steps}")
    got = decode_value(item.shape, r.value)
    if got != item.expect:
        raise Mismatch(f"{item.pin} n={item.n}: value {got!r}, reference {item.expect!r}")
    if item.kind == "oracle":
        nf = decode_normal_form(item.shape, out.nf)
        if nf != item.expect:
            raise Mismatch(f"{item.pin} n={item.n}: normal form {nf!r}, reference {item.expect!r}")


# ---------------------------------------------------------------------------
# Passes

@dataclass
class Pass:
    wall: float  # raw seconds for preparation and every item
    samples: dict  # item id, or None for the preparation -> (seconds, calibration)
    stages: dict  # item id -> Outcome.stages
    failures: list  # (item id, message)
    layers: dict | None = None  # per-layer metrics of a traced pass
    sigma0_s: float = 0.0  # time in normalize_sigma0 alone, traced passes only


def run_pass(work: wl.Workload, pins: dict, tracer=None, rows: list | None = None) -> Pass:
    """One pass over every item.  Each timing is paired with the mean of
    the calibration loop's times just before, during and just after it.
    ``rows`` collects, untimed, each item's steps, bound and code size."""
    perf = time.perf_counter
    if tracer is not None:
        tracer.item = None
    samples, stages, failures = {}, {}, []
    with calibration.Ticker() as ticker:

        def timed(key, fn):
            before, ticks, spent = calibration.calibrate(), len(ticker.cals), ticker.spent
            t0 = perf()
            try:
                return fn()
            finally:
                dt = perf() - t0 - (ticker.spent - spent)
                cals = [before] + ticker.cals[ticks:] + [calibration.calibrate()]
                samples[key] = (dt, statistics.fmean(cals))

        prepared = timed(None, lambda: prepare(work))
        if rows is not None:
            for mod, progs in prepared.values():
                rows.extend({"code_nodes": count_code(p.code)} for p in progs.values())
        for item in work.items:
            if tracer is not None:
                tracer.item = item.id
            try:
                out = timed(item.id, lambda: execute(item, work, prepared))
                stages[item.id] = out.stages
                verdict(item, out, pins)
            except Exception as e:  # noqa: BLE001 - any exception is a failed verdict
                failures.append((item.id, f"{type(e).__name__}: {e}"))
                continue
            if rows is not None:
                row = {"item": item.id, "module": item.module, "decl": item.decl, "n": item.n}
                if item.kind == "reject":
                    row["rule"] = out.rule
                elif item.kind != "oracle":
                    row["code_nodes"] = count_code(out.prog.code)
                    row["bound"] = list(out.report.poly.coeffs)
                if out.result is not None:
                    row.update(steps=out.result.steps, bound_at_n=out.result.bound_at_n)
                rows.append(row)
    return Pass(sum(t for t, _ in samples.values()), samples, stages, failures)


def run_passes(work, pins, seconds, tracer=None, rows=None) -> list[Pass]:
    """Passes until ``seconds`` is used up; a pass is started only when at
    least half of a median pass still fits.  At least one pass runs."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
            tracer.pass_no = len(passes)
        p = run_pass(work, pins, tracer, rows if not passes else None)
        if tracer is not None:
            p.layers = layer_metrics(tracer)
            p.sigma0_s = tracer.incl.get("norm", 0.0)
        passes.append(p)
        used = time.perf_counter() - start
        if used + statistics.median(x.wall for x in passes) / 2 > seconds:
            return passes


def layer_metrics(t) -> dict:
    incl, calls, counts = t.incl, t.calls, t.counts
    eval_s = incl.get("eval", 0.0)
    out = {
        "frontend.parse_s": incl.get("parse", 0.0),
        "frontend.resolve_s": incl.get("resolve", 0.0),
        "frontend.core_nodes": counts["core_nodes"],
        "kernel.check_s": incl.get("check", 0.0),
        "kernel.check_calls": calls.get("check", 0),
        "kernel.norm_s": incl.get("norm", 0.0) + incl.get("norm_type", 0.0),
        "kernel.nf_nodes": counts["nf_nodes"],
        "syntax.instantiate_calls": calls.get("instantiate", 0),
        "syntax.instantiate_s": incl.get("instantiate", 0.0),
        "compiler.compile_s": incl.get("compile", 0.0),
        "compiler.resynth_calls": calls.get("resynth", 0),
        "compiler.resynth_s": incl.get("resynth", 0.0),
        "compiler.bound_calls": calls.get("bound", 0),
        "compiler.bound_s": incl.get("bound", 0.0),
        "potentials.calls": calls.get("potentials", 0),
        "potentials.s": incl.get("potentials", 0.0),
        "machine.eval_s": eval_s,
        "machine.evals": calls.get("eval", 0),
        "machine.steps": counts["steps"],
        "machine.steps_per_s": counts["steps"] / eval_s if eval_s else 0.0,
    }
    for layer, s in t.self_time.items():
        out[f"{layer}.self_s"] = s
    return out


# ---------------------------------------------------------------------------
# Summaries

def quantile(values, q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least q of the
    values at or below it."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def corrected_times(passes: list[Pass]) -> tuple[float, list[float]]:
    """Each item's latency is the median of its corrected samples, and the
    time to finish every item is the preparation's plus the sum of those."""
    est = {k: calibration.corrected([p.samples[k] for p in passes]) for k in passes[0].samples}
    items = [v for k, v in est.items() if k is not None]
    return est[None] + sum(items), items


def breakdown(work, passes, rows) -> dict:
    """Median stage time per module and per declaration, and one row per
    verdict with its steps, bound and slack."""
    by_item = {it.id: it for it in work.items}
    med: dict = {}
    for i in passes[0].stages:
        stages = [p.stages[i] for p in passes if i in p.stages]
        med[i] = {s: statistics.median(st.get(s, 0.0) for st in stages) for s in STAGES}

    def group(key):
        groups: dict = {}
        for i, st in med.items():
            groups.setdefault(key(by_item[i]), []).append(st)
        return {
            k: {s: statistics.median(x[s] for x in v) for s in STAGES} | {"items": len(v)}
            for k, v in sorted(groups.items())
        }

    ids = [k for k in passes[0].samples if k is not None]
    latency = dict(zip(ids, corrected_times(passes)[1]))
    for r in rows:
        if "item" in r:
            r["latency_ms"] = 1000 * latency[r["item"]]
        if r.get("steps"):
            r["slack"] = r["bound_at_n"] - r["steps"]
            r["ratio"] = r["bound_at_n"] / r["steps"]
    return {
        "per_module": group(lambda it: it.module),
        "per_declaration": group(lambda it: f"{it.module}:{it.decl or ''}"),
        "rows": sorted(
            (r for r in rows if "item" in r),
            key=lambda r: (r["module"], r["decl"] or "", r["n"] or 0),
        ),
    }


def end_to_end(passes, rows) -> dict:
    wall, lat = corrected_times(passes)
    ratios = [r["bound_at_n"] / r["steps"] for r in rows if r.get("steps")]
    return {
        "wall_s": wall,
        "item_ms.p50": 1000 * quantile(lat, 0.5),
        "item_ms.p90": 1000 * quantile(lat, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "code_nodes": sum(r.get("code_nodes", 0) for r in rows),
        "bound_slack": math.exp(statistics.fmean(math.log(x) for x in ratios)) if ratios else 0.0,
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, corrupt: bool = False, write: bool = True) -> dict:
    work = wl.WORKLOADS[name](seed, tiny)
    pins = load_pins()
    if corrupt:
        # self-test: one wrong reference must show up as a failed verdict
        i = next(i for i, it in enumerate(work.items) if it.kind != "define")
        work.items[i] = dataclasses.replace(work.items[i], expect=("corrupted", work.items[i].expect))
    rows: list = []
    budget = seconds / 2 if trace else seconds
    plain = run_passes(work, pins, budget, rows=rows)
    traced = []
    report: dict = {"workload": name, "seed": seed, "items": len(work.items)}
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(work, pins, budget, tracer=tracer)
        finally:
            tracer.uninstall()
        if write:
            tracer.write(OUT_DIR / f"spans-{name}-{seed}.jsonl")
        report["spans"] = len(tracer.spans)
    passes = plain + traced
    failures = [f for p in passes for f in p.failures]
    attempted = len(work.items) * len(passes)
    if trace:
        metrics = {
            k: statistics.median(p.layers[k] for p in traced) for k in traced[0].layers
        }
        metrics["trace.overhead_s"] = corrected_times(traced)[0] - corrected_times(plain)[0]
        report["split"] = split(metrics, traced)
    else:
        metrics = end_to_end(plain, rows)
    report.update(
        raw_pass_s=[p.wall for p in passes],
        calibration_median_s=statistics.median(
            c for p in passes for _, c in p.samples.values()
        ),
        failures=failures[:50],
        metrics=metrics,
        breakdown=breakdown(work, plain, rows),
    )
    if write:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"report-{name}-{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": attempted > 0 and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "report": report,
    }


def split(m: dict, traced: list[Pass]) -> dict:
    """Shares of the traced pass time, for the predicted split per workload."""
    wall = statistics.median(p.wall for p in traced)
    return {
        "wall_s": wall,
        "machine": m["machine.eval_s"] / wall,
        "check_and_compile": (m["kernel.check_s"] + m["compiler.compile_s"]) / wall,
        "normalize_sigma0": statistics.median(p.sigma0_s for p in traced) / wall,
        "self": {k[: -len(".self_s")]: v / wall for k, v in m.items() if k.endswith(".self_s")},
    }


def load_pins() -> dict:
    return json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test size")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        wl.WORKLOADS[args.workload](args.seed, args.tiny)
        load_pins()
        print(time.time())  # the moment set-up is done, for run.py
        return 0
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    for item, msg in out["report"]["failures"][:10]:
        print(f"failed item {item}: {msg}", file=sys.stderr)
    del out["report"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
