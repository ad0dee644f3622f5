"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json is printed by name with its
unit, that two runs give identical counts (the compiler is
deterministic), that nothing fails at this commit, that a corrupted
reference value is counted as a failure, that the ROADMAP baselines
reproduce, and that the benchmark refuses to run outside a checkout.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import worker
import workloads as wl
from polyqtt import compiler, frontend, kernel

SPEC = json.loads((worker.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(worker.HERE / "run.py")]

# ROADMAP baselines: (module, declaration, n) -> (bound at n, steps)
BASELINE_ROWS = {
    ("corpus/lfpl_iter.qtt", "nested2L", 50): (94_328, 46_104),
    ("corpus/lfpl_sort.qtt", "sortDriver", 50): (146_384, 71_965),
}
BASELINE_FANOUT_K10_NODES = 14_328


def check(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        check.failed += 1


check.failed = 0


def metrics_printed() -> None:
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                RUN + ["--workload", w["name"], "--seed", "7", "--seconds", "0.1",
                       "--trace", str(trace), "--tiny"],
                cwd=worker.ROOT, capture_output=True, text=True, timeout=170,
            )
            out = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in out.get("metrics", {}).items()}
            printed = all(f"{w['name']} {k} = " in proc.stderr for k in want)
            check(got == want and printed and set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{w['name']} --trace {trace}: every {key} metric printed with its unit")
            check(out.get("correct") is True and out.get("failed") == 0 and out.get("attempted", 0) > 0,
                  f"{w['name']} --trace {trace}: fail rate 0 over {out.get('attempted')} items")


def counts_repeat() -> None:
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for w in SPEC["workloads"]:
        runs = [worker.measure(w["name"], 3, 0.0, True, tiny=True, write=False) for _ in range(2)]
        plain = [worker.measure(w["name"], 3, 0.0, False, tiny=True, write=False) for _ in range(2)]
        a, b = ({k: r["metrics"][k] for k in counted} for r in runs)
        c, d = ({k: r["metrics"][k] for k in ("code_nodes", "bound_slack")} for r in plain)
        check(a == b and c == d, f"{w['name']}: counts identical across two runs")
        bad = worker.measure(w["name"], 3, 0.0, False, tiny=True, corrupt=True, write=False)
        check(bad["failed"] >= 1 and bad["correct"] is False,
              f"{w['name']}: a corrupted reference counts as a failure")


def baselines() -> None:
    for (module, decl, n), (bound, steps) in BASELINE_ROWS.items():
        mod = frontend.resolve_module(frontend.parse_module(wl._read(module)))
        d = next(x for x in mod.decls if x.name == decl)
        kernel.infer_usage_check(mod.regime, (), 1, d.body, d.ty)
        r = compiler.run_and_verify(compiler.compile_declaration(mod.regime, d.ty, d.body), n)
        check((r.bound_at_n, r.steps) == (bound, steps),
              f"{decl} at n={n}: bound {r.bound_at_n} vs {r.steps} steps")
    regime, fo, k, leaf = wl.FANOUT_ANCHOR
    mod = frontend.resolve_module(frontend.parse_module(wl.fanout_chain(regime, fo, k, leaf, True)))
    d = next(x for x in mod.decls if x.name == f"g{k}")
    nodes = worker.count_code(compiler.compile_declaration(mod.regime, d.ty, d.body).code)
    check(nodes == BASELINE_FANOUT_K10_NODES, f"fan-out k={k}: {nodes} machine nodes")


def refuses_without_checkout() -> None:
    bare = worker.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(worker.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(worker.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"outside a checkout: exit {proc.returncode}, no result printed")


def main() -> int:
    baselines()
    counts_repeat()
    metrics_printed()
    refuses_without_checkout()
    print("self-test " + ("passed" if not check.failed else f"failed: {check.failed} check(s)"))
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
