"""The polyqtt benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up is timed by starting a fresh interpreter that imports polyqtt and
builds the workload's inputs, nine times, and taking the median; four of
them run before the workload and five after.  The workload itself runs in
one more fresh single-threaded process (``perfbench/worker.py``).  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Reports and spans go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 9
TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # the same iteration order in every run
    return env


def _worker_args(args) -> list[str]:
    out = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    return out + (["--tiny"] if args.tiny else [])


def setup_seconds(args, runs: int, deadline: float) -> list[float]:
    """Times from starting a fresh interpreter to the moment it has
    imported polyqtt and built the inputs; the child reports that moment."""
    times = []
    for _ in range(runs):
        t0 = time.time()
        proc = subprocess.run(
            _worker_args(args) + ["--setup-only"], cwd=ROOT, env=_child_env(),
            stdout=subprocess.PIPE, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="polyqtt benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test size")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    missing = [p for p in ("src/polyqtt/__init__.py", "corpus", "fixtures") if not (ROOT / p).exists()]
    if missing or not spec_path.is_file():
        print(f"perfbench: not a polyqtt checkout, missing {missing or ['BENCHMARK.json']}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + TIMEOUT_S

    # set-up is sampled before and after the workload, so that its median
    # spans the run rather than one moment of the host's load
    setups = SETUP_RUNS if not args.trace else 0
    try:
        setup = setup_seconds(args, setups // 2, deadline)
        proc = subprocess.run(
            _worker_args(args) + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, check=True,
            timeout=max(1.0, deadline - time.monotonic()), text=True,
        )
        setup += setup_seconds(args, setups - setups // 2, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: worker failed: {e}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = dict(result["metrics"], setup_s=statistics.median(setup) if setup else None)
    metrics = {}
    for m in wanted:
        if measured.get(m["name"]) is None:
            print(f"perfbench: the worker did not measure {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    for name, v in metrics.items():
        print(f"{args.workload} {name} = {v['value']:.6g} {v['unit']}", file=sys.stderr)
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
