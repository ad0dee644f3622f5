"""Record the step counts and bound coefficients that the benchmark pins.

    python3 perfbench/pin.py

Step counts and bounds are semantics: an optimisation must leave every
one of them unchanged.  This script records them for every program and
input the workloads can draw, and checks each run's value against the
Python reference on the way.  Run it again only in a change that means to
alter the semantics, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import worker  # sets up the import path for polyqtt
import workloads as wl
from polyqtt import compiler, frontend, kernel


def _load(text):
    mod = frontend.resolve_module(frontend.parse_module(text))
    for d in mod.decls:
        kernel.infer_usage_check(mod.regime, (), d.sigma, d.body, d.ty)
    return {d.name: (mod.regime, d) for d in mod.decls}


def _pin(pins, key, decls, decl, max_n, reference):
    regime, d = decls[decl]
    prog = compiler.compile_declaration(regime, d.ty, d.body)
    coeffs = list(compiler.extract_bound(prog).poly.coeffs)
    if pins["bounds"].setdefault(key, coeffs) != coeffs:
        raise SystemExit(f"{key}: bound differs between equivalent programs")
    if max_n is None:
        return
    steps = pins["steps"].setdefault(key, {})
    shape, fn = reference
    for n in range(max_n + 1):
        r = compiler.run_and_verify(prog, n)
        if not r.ok or worker.decode_value(shape, r.value) != fn(n):
            raise SystemExit(f"{key} n={n}: run disagrees with the reference")
        if steps.setdefault(str(n), r.steps) != r.steps:
            raise SystemExit(f"{key} n={n}: steps differ between equivalent programs")


def main() -> int:
    pins = {"bounds": {}, "steps": {}}
    ranges: dict = {}
    for table in (wl.CONSFREE_SWEEP, wl.LFPL_SWEEP, wl.ORACLE):
        for key, (_, hi, _, _) in table.items():
            ranges[key] = max(hi, ranges.get(key, 0))
    for module in sorted({m for m, _ in ranges}):
        decls = _load(wl._read(module))
        for (m, decl), hi in sorted(ranges.items()):
            if m == module:
                ref = wl.REFERENCES[module][decl]
                _pin(pins, f"{module}:{decl}", decls, decl, hi, ref)
        print(f"pinned {module}", file=sys.stderr)
    for start in (False, True):
        decls = _load(wl.depth_chain(dict.fromkeys(wl.DEPTHS, start)))
        for k in wl.DEPTHS:
            ref = ("bool", wl.depth_reference(start))
            _pin(pins, f"depth:nested{k}", decls, f"nested{k}", wl.DEPTH_RANGES[k][1], ref)
    print("pinned the depth chain", file=sys.stderr)
    chains = [(fo, size[fo]) for size in (wl.FANOUT_SMALL, wl.FANOUT_LARGE) for fo in (2, 3)]
    for regime in ("consfree", "lfpl"):
        for leaf in wl.LEAVES:
            for fo, k in chains:
                for start in (False, True):
                    decls = _load(wl.fanout_chain(regime, fo, k, leaf, start))
                    for i in range(k + 1):
                        _pin(pins, f"fanout:{regime}:{fo}:{leaf}:g{i}", decls, f"g{i}", None, None)
                    ref = ("bool", wl.fanout_reference(fo, k, leaf, start))
                    key = f"fanout:{regime}:{fo}:{k}:{leaf}:{int(start)}:drive"
                    _pin(pins, key, decls, "drive", wl.DRIVE_MAX_N, ref)
        print(f"pinned the {regime} fan-out chains", file=sys.stderr)
    regime, fo, k, leaf = wl.FANOUT_ANCHOR
    decls = _load(wl.fanout_chain(regime, fo, k, leaf, True))
    _pin(pins, f"fanout:{regime}:{fo}:{leaf}:g{k}", decls, f"g{k}", None, None)
    path = worker.HERE / "pinned.json"
    path.write_text(json.dumps(pins, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {path.name}: {len(pins['bounds'])} bounds", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
