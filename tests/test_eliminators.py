"""The typing rule of the eliminators (if, let-pair, let-unit, list match,
list recursion and both natural-number recursors), pinned by the exact
verdict of `check` on small inline modules."""

import pytest

from polyqtt.cli import main

ISZ = (r"def isz ^1 : (n ^1 : Nat) -> Bool ="
       r" \n. rec n at (x. Bool) { zero => true | succ(m, p) => false }")
OVERFLOW = "usage overflow on a binder: inferred {}, annotation admits {}"
AMBIENT = "premise requires a fully erased context but ambient usage was inferred"
NO_MOTIVE = "motive required to synthesise"

# (id, regime, definitions, the verdict of `check`: ok or [Rule] message)
CASES = [
    # a let-pair binds the first component at usage sigma*pi, the second at sigma
    ("let-pair-fst-cap", "consfree",
     [r"def f ^1 : (x ^0 : Bool) * Bool -> Bool = \p. let (a, b) = p in a"],
     "[Tm-Let-Pair] " + OVERFLOW.format(1, 0)),
    ("let-pair-snd-cap", "consfree",
     [r"def f ^1 : (x ^1 : Bool) * Bool -> (y ^1 : Bool) * Bool = \p. let (a, b) = p in (b, b)"],
     "[Tm-Let-Pair] " + OVERFLOW.format(2, 1)),
    ("let-pair-fst-used-once", "consfree",
     [r"def f ^1 : (x ^1 : Bool) * Bool -> (y ^1 : Bool) * Bool = \p. let (a, b) = p in (a, b)"],
     "ok"),
    # the scrutinee's usage counts
    ("let-pair-scrut-usage", "consfree",
     [r"def f ^1 : (x ^1 : Bool) * Bool -> Bool = \p. let (a, b) = p in let (c, d) = p in a"],
     "[Tm-Lam] " + OVERFLOW.format(2, 1)),
    ("let-unit-scrut-usage", "consfree",
     [r"def f ^1 : (u ^0 : I) -> Bool = \u. let * = u at (y. Bool) in true"],
     "[Tm-Lam] " + OVERFLOW.format(1, 0)),
    ("let-unit-erased", "consfree",
     [r"def f ^0 : (u ^0 : I) -> Bool = \u. let * = u at (y. Bool) in true"],
     "ok"),
    # the branches of a case analysis share the ambient usage: a maximum
    ("match-list-branches-max", "consfree",
     [r"def f ^1 : (x ^1 : Bool) -> (l ^1 : List Bool) -> Bool ="
      r" \x l. match l at (y. Bool) { nil => x | cons(h, t) => x }"],
     "ok"),
    ("if-branches-max", "consfree",
     [r"def f ^1 : (x ^1 : Bool) -> (b ^1 : Bool) -> Bool = \x b. if b then x else x"],
     "ok"),
    ("match-list-field-cap", "consfree",
     [r"def f ^1 : (l ^1 : List Bool) -> (y ^1 : Bool) * Bool ="
      r" \l. match l at (y. (z ^1 : Bool) * Bool) { nil => (true, true) | cons(h, t) => (h, h) }"],
     "[Tm-List-Match] " + OVERFLOW.format(2, 1)),
    ("match-list-tail-cap", "consfree",
     [r"def f ^1 : (l ^1 : List Bool) -> (k ^1 : List Bool) * List Bool ="
      r" \l. match l at (y. (k ^1 : List Bool) * List Bool)"
      r" { nil => (nil, nil) | cons(h, t) => (t, t) }"],
     "[Tm-List-Match] " + OVERFLOW.format(2, 1)),
    # a recursor's predecessor is erased: using it at runtime is rejected
    ("cf-rec-pred-erased", "consfree",
     [ISZ, r"def f ^1 : (n ^1 : Nat) -> Bool ="
           r" \n. rec n at (x. Bool) { zero => true | succ(m, p) => isz m }"],
     "[Tm-CF-Rec] " + OVERFLOW.format(1, 0)),
    ("cf-rec-result-cap", "consfree",
     [r"def f ^1 : (n ^1 : Nat) -> (x ^1 : Bool) * Bool ="
      r" \n. rec n at (x. (y ^1 : Bool) * Bool) { zero => (true, true)"
      r" | succ(m, p) => let (a, b) = p in let (c, e) = p in (a, c) }"],
     "[Tm-CF-Rec] " + OVERFLOW.format(2, 1)),
    ("cf-rec-zero-ambient", "consfree",
     [r"def f ^1 : (b ^1 : Bool) -> (n ^1 : Nat) -> Bool ="
      r" \b n. rec n at (x. Bool) { zero => b | succ(m, p) => p }"],
     "[Tm-CF-Rec] " + AMBIENT),
    ("cf-rec-succ-ambient", "consfree",
     [r"def f ^1 : (b ^1 : Bool) -> (n ^1 : Nat) -> Bool ="
      r" \b n. rec n at (x. Bool) { zero => true | succ(m, p) => b }"],
     "[Tm-CF-Rec] " + AMBIENT),
    ("lfpl-rec-pred-erased", "lfpl",
     [r"def f ^1 : (n ^1 : Nat) -> Nat ="
      r" \n. rec n at (x. Nat) { zero(d) => zero d | succ(d, m, p) => succ d m }"],
     "[Tm-LFPL-Rec] " + OVERFLOW.format(1, 0)),
    ("lfpl-rec-zero-ambient", "lfpl",
     [r"def f ^1 : (x ^1 : Nat) -> (n ^1 : Nat) -> Nat ="
      r" \x n. rec n at (y. Nat) { zero(d) => x | succ(d, m, p) => p }"],
     "[Tm-LFPL-Rec] " + AMBIENT),
    ("lfpl-rec-succ-ambient", "lfpl",
     [r"def f ^1 : (x ^1 : Nat) -> (n ^1 : Nat) -> Nat ="
      r" \x n. rec n at (y. Nat) { zero(d) => zero d | succ(d, m, p) => x }"],
     "[Tm-LFPL-Rec] " + AMBIENT),
    ("lfpl-rec-zero-diamond-cap", "lfpl",
     [r"def f ^1 : (n ^1 : Nat) -> Nat ="
      r" \n. rec n at (x. Nat) { zero(d) => succ d (zero d) | succ(d, m, p) => succ d p }"],
     "[Tm-LFPL-Rec] " + OVERFLOW.format(2, 1)),
    ("lfpl-rec-succ-diamond-cap", "lfpl",
     [r"def f ^1 : (n ^1 : Nat) -> Nat ="
      r" \n. rec n at (x. Nat) { zero(d) => zero d | succ(d, m, p) => succ d (succ d p) }"],
     "[Tm-LFPL-Rec] " + OVERFLOW.format(2, 1)),
    ("lfpl-rec-result-cap", "lfpl",
     [r"def f ^1 : (n ^1 : Nat) -> (x ^1 : Bool) * Bool ="
      r" \n. rec n at (x. (y ^1 : Bool) * Bool) { zero(d) => (true, true)"
      r" | succ(d, m, p) => let (a, b) = p in let (c, e) = p in (a, c) }"],
     "[Tm-LFPL-Rec] " + OVERFLOW.format(2, 1)),
    # each branch is checked against the motive at its own constructor
    ("if-motive-instances", "consfree",
     [r"def T ^0 : Bool -> U = \b. if b at (x. U) then Bool else I",
      r"def pick ^0 : (b ^1 : Bool) -> El (T b) = \b. if b at (x. El (T x)) then true else *"],
     "ok"),
    ("if-motive-instances-swapped", "consfree",
     [r"def T ^0 : Bool -> U = \b. if b at (x. U) then Bool else I",
      r"def pick ^0 : (b ^1 : Bool) -> El (T b) = \b. if b at (x. El (T x)) then * else true"],
     "[Conv] expected Bool but synthesised I"),
    # the previous result has the motive's type at the predecessor
    ("cf-rec-result-type", "consfree",
     [r"def T ^0 : Nat -> U = \n. rec n at (x. U) { zero => Bool | succ(m, p) => I }",
      r"def f ^0 : (n ^0 : Nat) -> El (T n) ="
      r" \n. rec n at (x. El (T x)) { zero => true | succ(m, p) => p }"],
     r"[Conv] expected I but synthesised El (rec x1 at (x3. U)"
     r" { zero => Bool | succ(x3, x4) => I })"),
    ("lfpl-rec-result-type", "lfpl",
     [r"def T ^0 : Nat -> U = \n. rec n at (x. U) { zero(d) => Bool | succ(d, m, p) => I }",
      r"def f ^0 : (n ^0 : Nat) -> El (T n) ="
      r" \n. rec n at (x. El (T x)) { zero(d) => true | succ(d, m, p) => p }"],
     r"[Conv] expected I but synthesised El (rec x2 at (x4. U)"
     r" { zero(x4) => Bool | succ(x4, x5, x6) => I })"),
    ("rec-list-result-type", "consfree",
     [r"def T ^0 : List Bool -> U = \l. reclist l at (x. U) { nil => Bool | cons(h, t, p) => I }",
      r"def f ^0 : (l ^0 : List Bool) -> El (T l) ="
      r" \l. reclist l at (x. El (T x)) { nil => true | cons(h, t, p) => p }"],
     r"[Conv] expected I but synthesised El (reclist x2 at (x4. U)"
     r" { nil => Bool | cons(x4, x5, x6) => I })"),
    ("let-pair-motive-instance", "consfree",
     [r"def T ^0 : Bool -> U = \b. if b at (x. U) then Bool else I",
      r"def g ^0 : (q ^1 : (x ^1 : Bool) * Bool) -> El (T (fst q)) ="
      r" \q. let (a, b) = q at (r. El (T (fst r))) in if a at (x. El (T x)) then true else *"],
     "ok"),
    ("match-list-motive-instance", "consfree",
     [r"def T ^0 : List Bool -> U = \l. match l at (x. U) { nil => Bool | cons(h, t) => I }",
      r"def g ^0 : (l ^1 : List Bool) -> El (T l) ="
      r" \l. match l at (x. El (T x)) { nil => true | cons(h, t) => * }"],
     "ok"),
    ("let-unit-motive-instance", "consfree",
     [r"def T ^0 : I -> U = \u. let * = u at (x. U) in Bool",
      r"def g ^0 : (u ^1 : I) -> El (T u) = \u. let * = u at (x. El (T x)) in true"],
     "ok"),
    ("let-pair-dependent-snd", "consfree",
     [r"def T ^0 : Bool -> U = \b. if b at (x. U) then Bool else I",
      r"def g ^0 : (q ^1 : (x ^1 : Bool) * El (T x)) -> Bool ="
      r" \q. let (a, b) = q in (if a at (y. El (T y) -> Bool) then \z. z else \z. true) b"],
     "ok"),
    # an ill-formed motive keeps its own rule and names the eliminator's
    ("if-motive-ill-formed", "consfree",
     [r"def f ^1 : (b ^1 : Bool) -> Bool = \b. if b at (x. El x) then true else false"],
     "[Conv] ill-formed motive of Tm-If: expected U but synthesised Bool"),
    ("cf-rec-motive-ill-formed", "consfree",
     [r"def f ^1 : (n ^1 : Nat) -> Bool ="
      r" \n. rec n at (x. El x) { zero => true | succ(m, p) => p }"],
     "[Conv] ill-formed motive of Tm-CF-Rec: expected U but synthesised Nat"),
    # synthesis needs a motive, and gives the motive at the scrutinee
    ("if-synth-motive", "consfree",
     [r"def f ^1 : (b ^1 : Bool) -> Bool ="
      r" \b. (if b at (x. Bool -> Bool) then \x. x else \x. x) true"],
     "ok"),
    ("if-synth", "consfree",
     [r"def f ^1 : (b ^1 : Bool) -> Bool = \b. (if b then \x. x else \x. x) true"],
     "[Tm-If] " + NO_MOTIVE),
    ("let-pair-synth", "consfree",
     [r"def f ^1 : (x ^1 : Bool) * Bool -> Bool = \p. (let (a, b) = p in \x. x) true"],
     "[Tm-Let-Pair] " + NO_MOTIVE),
    ("let-unit-synth", "consfree",
     [r"def f ^1 : (u ^1 : I) -> Bool = \u. (let * = u in \x. x) true"],
     "[Tm-Let-Unit] " + NO_MOTIVE),
    ("match-list-synth", "consfree",
     [r"def f ^1 : (l ^1 : List Bool) -> Bool ="
      r" \l. (match l { nil => \x. x | cons(h, t) => \x. x }) true"],
     "[Tm-List-Match] " + NO_MOTIVE),
    ("rec-list-synth", "consfree",
     [r"def f ^0 : (l ^0 : List Bool) -> Bool ="
      r" \l. (reclist l { nil => \x. x | cons(h, t, p) => p }) true"],
     "[Tm-List-Rec] " + NO_MOTIVE),
    ("cf-rec-synth", "consfree",
     [r"def f ^1 : (n ^1 : Nat) -> Bool = \n. (rec n { zero => \x. x | succ(m, p) => p }) true"],
     "[Tm-CF-Rec] " + NO_MOTIVE),
    ("lfpl-rec-synth", "lfpl",
     [r"def f ^1 : (n ^1 : Nat) -> Bool ="
      r" \n. (rec n { zero(d) => \x. x | succ(d, m, p) => p }) true"],
     "[Tm-LFPL-Rec] " + NO_MOTIVE),
    # the regime and fragment gate comes before the demand for a motive
    ("lfpl-rec-synth-under-consfree", "consfree",
     [r"def f ^1 : (n ^1 : Nat) -> Bool ="
      r" \n. (rec n { zero(d) => \x. x | succ(d, m, p) => p }) true"],
     "[Tm-LFPL-Rec] this recursor shape belongs to the payment regime"),
    ("rec-list-synth-at-runtime", "consfree",
     [r"def f ^1 : (l ^1 : List Bool) -> Bool ="
      r" \l. (reclist l { nil => \x. x | cons(h, t, p) => p }) true"],
     "[Tm-List-Rec] list recursion lives in the erased fragment only"),
    # the scrutinee's form
    ("let-pair-non-pair", "consfree",
     [r"def f ^1 : (b ^1 : Bool) -> Bool = \b. let (x, y) = b in x"],
     "[Tm-Let-Pair] splitting a non-pair of type Bool"),
    ("match-list-non-list", "consfree",
     [r"def f ^1 : (b ^1 : Bool) -> Bool ="
      r" \b. match b at (y. Bool) { nil => true | cons(h, t) => h }"],
     "[Tm-List-Match] matching a non-list of type Bool"),
    ("rec-list-non-list", "consfree",
     [r"def f ^0 : (b ^0 : Bool) -> Bool ="
      r" \b. reclist b at (y. Bool) { nil => true | cons(h, t, p) => p }"],
     "[Tm-List-Rec] recursing on a non-list of type Bool"),
]


def check_verdict(tmp_path, capsys, regime: str, defs: list[str]) -> str:
    path = tmp_path / "m.qtt"
    path.write_text("\n".join([f"regime {regime}", *defs]) + "\n", encoding="utf-8")
    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    if code == 0:
        return "ok"
    assert code == 1, err
    return err.strip().removeprefix("error: ")


@pytest.mark.parametrize(
    "regime, defs, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_eliminator_rule(tmp_path, capsys, regime, defs, expected):
    assert check_verdict(tmp_path, capsys, regime, defs) == expected
