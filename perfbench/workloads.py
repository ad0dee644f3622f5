"""Seeded inputs for the four benchmark workloads, and their references.

Everything polyqtt receives is source text: the corpus modules, the
rejection fixtures and the programs generated here.  Every value the
benchmark checks against comes from a plain Python function in this file,
never from the compiler under test.

Inputs are drawn by stratified sampling: a declaration's input range is
cut into equal strata and the seed picks one input inside each.  Different
seeds give different programs and inputs, but the same amount of work to
within a few percent, so that timings from different seeds are comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Rule labels of the rejection fixtures, as acceptance criterion 6 pins them.
REJECTIONS = {
    "bad_double_use.qtt": "Tm-Lam",
    "consfree_succ_sigma1.qtt": "Tm-CF-Succ",
    "dupnat_under_lfpl.qtt": "Tm-CF-DupNat",
    "diamondstar_sigma1.qtt": "Tm-LFPL-Star",
    "reclist_sigma1.qtt": "Tm-List-Rec",
    "usage_undershoot.qtt": "Tm-Lam",
    "regime_mismatch_type.qtt": "Ty-Diamond",
    "lfpl_zero_under_consfree.qtt": "Tm-LFPL-Zero",
    "lfpl_succ_under_consfree.qtt": "Tm-LFPL-Succ",
    "lfpl_rec_under_consfree.qtt": "Tm-LFPL-Rec",
    "cf_rec_under_lfpl.qtt": "Tm-CF-Rec",
    "function_dup.qtt": "Tm-Lam",
    "conversion_mismatch.qtt": "Conv",
    "rec_branch_ambient.qtt": "Tm-CF-Rec",
}


# ---------------------------------------------------------------------------
# Python references.  A reference is (shape, function of n); the shape says
# how both the machine value and the normal form are decoded.

def _even(n: int) -> bool:
    return n % 2 == 0


def _alt_list(n: int) -> list[bool]:
    # altList: the head is the phase after n - 1 flips, starting from true
    return [(n - 1 - i) % 2 == 0 for i in range(n)]


def _alt_ilist(n: int) -> list[bool]:
    # buildAlt: the element added at step i is (i odd); the last one is first
    return [(n - j) % 2 == 1 for j in range(n)]


REFERENCES = {
    "corpus/consfree_iter.qtt": {
        "parity1": ("bool", _even),
        "nested2": ("bool", _even),
        "nested3": ("bool", _even),
        "comboDup": ("bool", lambda n: True),
        "negAcc": ("bool", _even),
        "idNat": ("nat", lambda n: n),
        "altList": ("list", _alt_list),
        "dupUse": ("bool", _even),
        "headOr": ("bool", lambda n: n % 2 == 1),
    },
    "corpus/lfpl_iter.qtt": {
        "rebuild1": ("nat", lambda n: n),
        "nested2L": ("nat", lambda n: n),
        "zeroOut": ("nat", lambda n: 0),
    },
    "corpus/lfpl_sort.qtt": {
        "buildAlt": ("ilist", _alt_ilist),
        "sortDriver": ("ilist", lambda n: sorted(_alt_ilist(n))),
    },
}


# ---------------------------------------------------------------------------
# Generated programs

DEPTHS = (2, 3, 4, 5, 6)

_DEPTH_PRELUDE = r"""regime consfree

def flip ^1 : Bool -> Bool = \b. if b then false else true

def flipN ^1 : (w ^1 : (y ^1 : Nat) * Bool) -> (z ^1 : Nat) * Bool =
  \w. let (c, s) = w in
      let (c1, c2) = dup c in
      (c2, (rec c1 at (x. Bool -> Bool) {
              zero => \t. t
            | succ(m, q) => \t. flip (q t)
            }) s)
"""


def depth_chain(starts: dict[int, bool]) -> str:
    """sweepK runs sweep(K-1) once per input step; nestedK starts it from
    the seeded state starts[K] and so flips that state n^K times."""
    parts = [_DEPTH_PRELUDE]
    for k in DEPTHS:
        inner = "flipN" if k == 2 else f"sweep{k - 1}"
        parts.append(
            f"def sweep{k} ^1 : (w ^1 : (y ^1 : Nat) * Bool) -> (z ^1 : Nat) * Bool =\n"
            f"  \\w. let (c, s) = w in\n"
            f"      let (c1, c2) = dup c in\n"
            f"      (rec c1 at (x. ((u ^1 : Nat) * Bool) -> (v ^1 : Nat) * Bool) {{\n"
            f"         zero => \\u. u\n"
            f"       | succ(m, p) => \\u. {inner} (p u)\n"
            f"       }}) (c2, s)\n"
        )
        start = "true" if starts[k] else "false"
        parts.append(
            f"def nested{k} ^1 : (n ^1 : Nat) -> Bool =\n"
            f"  \\n. let (r, s) = sweep{k} (n, {start}) in s\n"
        )
    return "\n".join(parts)


def depth_reference(start: bool):
    # n^K flips, and n^K is odd exactly when n is
    return lambda n: start if n % 2 == 0 else not start


# Leaf functions, all of one code shape so that the seed's choice of leaf
# leaves the amount of emitted code unchanged.
LEAVES = {
    "not": (r"\b. if b then false else true", lambda b: not b),
    "ifid": (r"\b. if b then true else false", lambda b: b),
    "true": (r"\b. if b then true else true", lambda b: True),
    "false": (r"\b. if b then false else false", lambda b: False),
}


def fanout_chain(regime: str, fanout: int, k: int, leaf: str, start: bool) -> str:
    """g0 is the leaf; g_i applies g_(i-1) fanout times; drive runs g_k
    after n leaf applications to the seeded start state."""
    lines = [f"regime {regime}", "", f"def g0 ^1 : Bool -> Bool = {LEAVES[leaf][0]}"]
    for i in range(1, k + 1):
        body = "b"
        for _ in range(fanout):
            body = f"g{i - 1} ({body})" if body != "b" else f"g{i - 1} b"
        lines.append(f"def g{i} ^1 : Bool -> Bool = \\b. {body}")
    st = "true" if start else "false"
    if regime == "consfree":
        rec = f"rec n at (x. Bool) {{ zero => {st} | succ(m, p) => g0 p }}"
    else:
        rec = f"rec n at (x. Bool) {{ zero(d) => {st} | succ(d, m, p) => g0 p }}"
    lines.append(f"def drive ^1 : (n ^1 : Nat) -> Bool = \\n. g{k} ({rec})")
    return "\n".join(lines) + "\n"


def fanout_reference(fanout: int, k: int, leaf: str, start: bool):
    """drive n applies the leaf fanout^k + n times to the start state."""
    fn = LEAVES[leaf][1]

    def ref(n: int) -> bool:
        b = start
        for _ in range(fanout**k + n):
            b = fn(b)
        return b

    return ref


# ---------------------------------------------------------------------------
# Workloads

@dataclass(frozen=True)
class Item:
    """One user-visible verdict.

    kind is "run" (the pipeline of ``polyqtt run``), "define" (check,
    compile and bound one definition), "reject" (a fixture must fail with
    ``expect`` as its rule label) or "oracle" (normal form, machine value
    and reference agree).  ``pin`` names the pinned bound and step counts.
    """

    id: int
    kind: str
    module: str
    decl: str | None
    n: int | None
    shape: str | None
    expect: object
    pin: str | None


@dataclass
class Workload:
    name: str
    modules: dict[str, str]  # module name -> source text
    items: list[Item]
    prepared: tuple[str, ...]  # modules loaded once per pass, not once per item


def strata(rng: random.Random, lo: int, hi: int, count: int, power: int = 1) -> list[int]:
    """One draw from each of ``count`` strata of [lo, hi].

    The strata are of equal width in n^power.  For an input whose cost
    grows like n^(power - 1) every stratum then holds the same share of
    the total cost, so the expensive inputs fall in narrow strata and the
    seed moves the total work by little.  Draws are antithetic: where the
    i-th stratum draws at fraction u of its width, the i-th from the top
    draws at 1 - u, which keeps the middle of the drawn inputs in place.
    """
    span = hi + 1 - lo
    if count > span:
        raise ValueError(f"{count} strata do not fit in [{lo}, {hi}]")
    b = [lo + math.ceil(span * (i / count) ** (1 / power)) for i in range(count + 1)]
    for i in range(count - 1, 0, -1):
        b[i] = min(b[i], b[i + 1] - 1)
    for i in range(1, count + 1):
        b[i] = max(b[i], b[i - 1] + 1)
    us = [rng.random() for _ in range((count + 1) // 2)]
    us += [1 - u for u in reversed(us[: count // 2])]
    return [b[i] + min(int(u * (b[i + 1] - b[i])), b[i + 1] - b[i] - 1) for i, u in enumerate(us)]


def _read(rel: str) -> str:
    return (ROOT / rel).read_text(encoding="utf-8")


class _Maker:
    def __init__(self, name: str, seed: int, tiny: bool):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.tiny = tiny
        self.modules: dict[str, str] = {}
        self.items: list[Item] = []

    def ns(self, lo: int, hi: int, count: int, power: int) -> list[int]:
        if self.tiny:
            # self-test size: two small inputs
            return strata(self.rng, lo, min(hi, lo + 5), 2)
        return strata(self.rng, lo, hi, count, power)

    def add(self, kind, module, decl=None, n=None, shape=None, expect=None, pin=None):
        self.items.append(Item(len(self.items), kind, module, decl, n, shape, expect, pin))

    def add_sweep(self, module, decl, ns, kind="run", ref=None, pin=None):
        shape, fn = ref if ref is not None else REFERENCES[module][decl]
        for n in ns:
            self.add(kind, module, decl, n, shape, fn(n), pin or f"{module}:{decl}")

    def finish(self, prepared=()) -> Workload:
        items = list(self.items)
        self.rng.shuffle(items)
        return Workload(self.name, self.modules, items, tuple(prepared))


CONSFREE_LINEAR = ("parity1", "negAcc", "idNat", "altList", "dupUse", "headOr")
CF, LI, LS = "corpus/consfree_iter.qtt", "corpus/lfpl_iter.qtt", "corpus/lfpl_sort.qtt"

# (module, declaration) -> (lowest n, highest n, strata count, power):
# see ``strata``; the power is one more than the degree of the input's cost
CONSFREE_SWEEP = {
    **{(CF, d): (0, 60, 10, 1) for d in CONSFREE_LINEAR},
    (CF, "nested2"): (0, 60, 8, 3),
    (CF, "comboDup"): (0, 60, 8, 3),
    (CF, "nested3"): (0, 19, 8, 4),
}
# nestedK of the depth chain
DEPTH_RANGES = {
    2: (0, 60, 6, 3), 3: (0, 17, 7, 4), 4: (0, 10, 6, 5), 5: (0, 6, 5, 6), 6: (0, 4, 5, 7),
}
LFPL_SWEEP = {
    (LI, "rebuild1"): (0, 199, 40, 1),
    (LI, "zeroOut"): (0, 199, 40, 1),
    (LS, "buildAlt"): (0, 199, 25, 1),
    (LI, "nested2L"): (0, 100, 12, 3),
    (LS, "sortDriver"): (0, 100, 12, 3),
}
# n = 50 is the ROADMAP's baseline row, kept in every draw
LFPL_ANCHORS = {(LI, "nested2L"): 50, (LS, "sortDriver"): 50}
# the normaliser's cost grows about one degree faster than the machine's
ORACLE = {
    **{(CF, d): (0, 30, 16, 1) for d in CONSFREE_LINEAR},
    (CF, "nested2"): (0, 30, 6, 4),
    (CF, "comboDup"): (0, 26, 6, 4),
    (CF, "nested3"): (0, 14, 6, 5),
    **{(LI, d): (0, 30, 16, 1) for d in ("rebuild1", "zeroOut")},
    (LI, "nested2L"): (0, 24, 6, 4),
    (LS, "buildAlt"): (0, 30, 16, 1),
    (LS, "sortDriver"): (0, 20, 6, 4),
}


def sweep_consfree(seed: int, tiny: bool = False) -> Workload:
    b = _Maker("sweep_consfree", seed, tiny)
    b.modules[CF] = _read(CF)
    starts = {k: b.rng.random() < 0.5 for k in DEPTHS}
    b.modules["gen/depth_chain.qtt"] = depth_chain(starts)
    for (module, decl), draw in CONSFREE_SWEEP.items():
        b.add_sweep(module, decl, b.ns(*draw))
    for k in DEPTHS:
        b.add_sweep(
            "gen/depth_chain.qtt", f"nested{k}", b.ns(*DEPTH_RANGES[k]),
            ref=("bool", depth_reference(starts[k])), pin=f"depth:nested{k}",
        )
    return b.finish()


def sweep_lfpl(seed: int, tiny: bool = False) -> Workload:
    b = _Maker("sweep_lfpl", seed, tiny)
    b.modules[LI] = _read(LI)
    b.modules[LS] = _read(LS)
    for key, draw in LFPL_SWEEP.items():
        anchor = [] if tiny or key not in LFPL_ANCHORS else [LFPL_ANCHORS[key]]
        b.add_sweep(*key, b.ns(*draw) + anchor)
    return b.finish()


# Fan-out chain sizes: fan-out 2 at depth k and fan-out 3 at depth k' have
# about the same number of leaf calls (2^5 ~ 3^3, 2^8 ~ 3^5).
FANOUT_SMALL = {2: 5, 3: 3}
FANOUT_LARGE = {2: 8, 3: 5}
FANOUT_ANCHOR = ("consfree", 2, 10, "not")  # the ROADMAP's 14,328-node row
DRIVE_MAX_N = 12


def fanout(seed: int, tiny: bool = False) -> Workload:
    b = _Maker("fanout", seed, tiny)
    rng = b.rng
    small, large = (2, 0) if tiny else (14, 2)
    sizes = [FANOUT_SMALL] * small + [FANOUT_LARGE] * large
    # each size class has as many fan-out 2 chains as fan-out 3 chains, so
    # the seed moves the amount of code by little; leaf and regime are free
    fanouts = [2, 3] * (small // 2) + [2, 3] * (large // 2)
    regimes = [rng.choice(("consfree", "lfpl")) for _ in sizes]
    leaves = [rng.choice(sorted(LEAVES)) for _ in sizes]
    for c, (size, fo, regime, leaf) in enumerate(zip(sizes, fanouts, regimes, leaves)):
        k = size[fo]
        start = rng.random() < 0.5
        module = f"gen/fanout{c}.qtt"
        b.modules[module] = fanout_chain(regime, fo, k, leaf, start)
        for i in range(k + 1):
            b.add("define", module, f"g{i}", pin=f"fanout:{regime}:{fo}:{leaf}:g{i}")
        n = rng.randrange(DRIVE_MAX_N + 1)
        b.add(
            "run", module, "drive", n, "bool", fanout_reference(fo, k, leaf, start)(n),
            f"fanout:{regime}:{fo}:{k}:{leaf}:{int(start)}:drive",
        )
    if not tiny:
        regime, fo, k, leaf = FANOUT_ANCHOR
        module = "gen/fanout_anchor.qtt"
        b.modules[module] = fanout_chain(regime, fo, k, leaf, True)
        b.add("define", module, f"g{k}", pin=f"fanout:{regime}:{fo}:{leaf}:g{k}")
    fixtures = sorted(REJECTIONS)[:2] if tiny else sorted(REJECTIONS)
    for name in fixtures:
        module = f"fixtures/{name}"
        b.modules[module] = _read(module)
        b.add("reject", module, expect=REJECTIONS[name])
    chains = tuple(m for m in b.modules if m.startswith("gen/"))
    return b.finish(prepared=chains)


def oracle(seed: int, tiny: bool = False) -> Workload:
    b = _Maker("oracle", seed, tiny)
    for (module, decl), draw in ORACLE.items():
        b.modules[module] = _read(module)
        b.add_sweep(module, decl, b.ns(*draw), kind="oracle")
    return b.finish(prepared=tuple(b.modules))


def oracle_decls(module: str) -> list[str]:
    return [d for (m, d) in ORACLE if m == module]


WORKLOADS = {
    "sweep_consfree": sweep_consfree,
    "sweep_lfpl": sweep_lfpl,
    "fanout": fanout,
    "oracle": oracle,
}
