"""Spans around polyqtt's layer boundaries, installed from outside.

The tracer replaces public functions at their module attributes and puts
the originals back on ``uninstall``; no file of the program changes.  A
call made through a replaced attribute opens a span; a layer's self time
is the time its spans cover minus what their child spans cover.

Coarse spans (one per pipeline stage call) are kept in memory with name,
start, end, parent span and item id, and written out at the end.  Fine
calls (the kernel's type normaliser, the compiler's re-synthesis, the
kernel's substitutions and the potential operations) happen up to millions of times per pass, so they
are only counted and timed, and attributed to the enclosing coarse span.
An attribute that no longer exists is skipped and reports zero.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

from polyqtt import compiler, frontend, kernel, machine, potentials


@dataclass(frozen=True)
class Target:
    module: object
    attr: str
    name: str  # span / metric name
    layer: str
    coarse: bool


def count_nodes(node) -> int:
    """Size of a syntax tree (terms, types and whatever they hold)."""
    total, todo = 0, [node]
    while todo:
        x = todo.pop()
        if isinstance(x, (tuple, list)):
            todo.extend(x)
            continue
        fields = getattr(x, "__dataclass_fields__", None)
        if fields is None:
            continue
        total += 1
        todo.extend(getattr(x, f) for f in fields)
    return total


def _pot_operations() -> list[str]:
    """The potentials functions the compiler calls through ``pot.``."""
    src = Path(compiler.__file__).read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"\bpot\.([A-Za-z_]\w*)\s*\(", src)))
    return [n for n in names if callable(getattr(potentials, n, None))]


def targets() -> list[Target]:
    out = [
        Target(frontend, "parse_module", "parse", "frontend", True),
        Target(frontend, "resolve_module", "resolve", "frontend", True),
        Target(kernel, "infer_usage_check", "check", "kernel", True),
        Target(kernel, "normalize_sigma0", "norm", "kernel", True),
        Target(kernel, "normalize_type", "norm_type", "kernel", False),
        Target(compiler, "compile_declaration", "compile", "compiler", True),
        Target(compiler, "extract_bound", "bound", "compiler", True),
        Target(compiler, "run_and_verify", "run", "compiler", True),
        Target(machine, "eval_expr", "eval", "machine", True),
        Target(compiler, "synth", "resynth", "kernel", False),
        Target(compiler, "normalize_type", "resynth", "kernel", False),
        Target(kernel, "instantiate", "instantiate", "syntax", False),
        Target(kernel, "instantiate_type", "instantiate", "syntax", False),
    ]
    out += [Target(potentials, op, "potentials", "potentials", False) for op in _pot_operations()]
    return out


LAYERS = ("frontend", "kernel", "syntax", "compiler", "potentials", "machine")


class _Frame:
    __slots__ = ("start", "child", "span")

    def __init__(self, start, span):
        self.start, self.child, self.span = start, 0.0, span


class Tracer:
    def __init__(self):
        self.targets = [t for t in targets() if callable(getattr(t.module, t.attr, None))]
        self._saved: list[tuple[object, str, object]] = []
        self.names: list[str] = sorted({t.name for t in self.targets})
        self.spans: list[tuple] = []  # (name, start, end, parent, item, pass)
        self.item: int | None = None
        self.pass_no = 0
        self._stack: list[_Frame] = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass: zero every counter, keep the recorded spans."""
        self.calls = dict.fromkeys(self.names, 0)
        self.incl = dict.fromkeys(self.names, 0.0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.active = dict.fromkeys(self.names, 0)
        self.counts = {"steps": 0, "nf_nodes": 0, "core_nodes": 0}
        self.hook_s = 0.0

    def install(self) -> None:
        for t in self.targets:
            orig = getattr(t.module, t.attr)
            self._saved.append((t.module, t.attr, orig))
            setattr(t.module, t.attr, self._wrap(orig, t))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _hook(self, name: str, result) -> None:
        if name == "eval" and isinstance(result, machine.Done):
            self.counts["steps"] += result.steps
        elif name == "norm":
            self.counts["nf_nodes"] += count_nodes(result)
        elif name == "resolve":
            self.counts["core_nodes"] += sum(count_nodes(d.body) for d in result.decls)

    def _wrap(self, fn, t: Target):
        name, layer, coarse = t.name, t.layer, t.coarse
        perf = time.perf_counter
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            # calls and inclusive time count outermost calls only, so an
            # operation that calls its own layer is not counted twice
            if not self.active[name]:
                self.calls[name] += 1
            self.active[name] += 1
            span = None
            if coarse:
                parent = next((f.span for f in reversed(stack) if f.span is not None), None)
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.item, self.pass_no])
            frame = _Frame(perf(), span)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                self.active[name] -= 1
                dur = end - frame.start
                self.self_time[layer] += dur - frame.child
                if not self.active[name]:
                    self.incl[name] += dur
                if span is not None:
                    spans[span][1:3] = [frame.start, end]
                if stack:
                    stack[-1].child += dur
            self._hook(name, result)
            done = perf()
            self.hook_s += done - end
            if stack:
                stack[-1].child += done - end
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "item", "pass"]}))
            fh.write("\n")
            for s in self.spans:
                fh.write(json.dumps(s))
                fh.write("\n")
