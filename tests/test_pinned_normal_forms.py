"""Normal forms of the kernel's normaliser, pinned so that a rewrite of
definitional equality that changes any of them fails here: the repr of
each, or the rule label of the CheckError raised instead, one file per
corpus declaration and one for the random terms.  Re-pin only for a change
that means to alter the equational theory.

Pinned in tests/golden/normal_forms/: to re-pin, copy in the actual file a failure names."""

import random

import pytest

from polyqtt.kernel import CheckError, normalize_sigma0, normalize_type
from polyqtt.syntax import Ann, App, BOOL_TY, CtxEntry, Regime, nat_literal

from conftest import CORPUS_FILES, load_corpus
from test_frontend import _random_term

# (file, declaration): the normalisation steps (beta-, iota- and
#   projection redexes, the budget's unit) that normalize_sigma0 spends
#   on (body : type) applied to the literals 0, 1 and 7, whose normal
#   forms test_corpus_normal_forms_pinned pins
BUDGET = {
    ('consfree_iter.qtt', 'flip'): (1, 1, 1),
    ('consfree_iter.qtt', 'parity1'): (3, 7, 31),
    ('consfree_iter.qtt', 'flipN'): (4, 4, 4),
    ('consfree_iter.qtt', 'sweep2'): (7, 7, 7),
    ('consfree_iter.qtt', 'nested2'): (8, 20, 260),
    ('consfree_iter.qtt', 'sweep3'): (10, 10, 10),
    ('consfree_iter.qtt', 'nested3'): (8, 28, 1828),
    ('consfree_iter.qtt', 'comboDup'): (15, 33, 297),
    ('consfree_iter.qtt', 'negAcc'): (2, 4, 16),
    ('consfree_iter.qtt', 'idNat'): (1, 1, 1),
    ('consfree_iter.qtt', 'altList'): (3, 6, 24),
    ('consfree_iter.qtt', 'dupUse'): (10, 14, 38),
    ('consfree_iter.qtt', 'headOr'): (5, 8, 26),
    ('consfree_zero.qtt', 'two'): (0, 0, 0),
    ('consfree_zero.qtt', 'add'): (2, 3, 9),
    ('consfree_zero.qtt', 'mul'): (2, 5, 23),
    ('consfree_zero.qtt', 'orList'): (1, 1, 1),
    ('consfree_zero.qtt', 'dupFst'): (3, 3, 3),
    ('consfree_zero.qtt', 'addZeroLeft'): (1, 1, 1),
    ('lfpl_iter.qtt', 'flip'): (1, 1, 1),
    ('lfpl_iter.qtt', 'step1'): (2, 2, 2),
    ('lfpl_iter.qtt', 'rebuild1'): (6, 11, 41),
    ('lfpl_iter.qtt', 'nested2L'): (4, 12, 165),
    ('lfpl_iter.qtt', 'zeroOut'): (2, 3, 9),
    ('lfpl_sort.qtt', 'VecBool'): (2, 4, 16),
    ('lfpl_sort.qtt', 'IListB'): (1, 1, 1),
    ('lfpl_sort.qtt', 'insert'): (4, 4, 4),
    ('lfpl_sort.qtt', 'isort'): (10, 10, 10),
    ('lfpl_sort.qtt', 'buildAlt'): (3, 7, 31),
    ('lfpl_sort.qtt', 'sortDriver'): (9, 25, 289),
    ('reflection.qtt', 'Iff'): (1, 1, 1),
    ('reflection.qtt', 'PTIME'): (6, 6, 6),
    ('reflection.qtt', 'PolyRed'): (4, 4, 4),
    ('reflection.qtt', 'NP'): (6, 6, 6),
    ('reflection.qtt', 'BPP'): (4, 4, 4),
    ('reflection.qtt', 'notR'): (0, 0, 0),
    ('reflection.qtt', 'useR'): (3, 3, 3),
}

def _normal_form(thunk) -> str:
    try:
        return repr(thunk())
    except CheckError as e:
        return f"CheckError {e.rule}"


@pytest.mark.parametrize("file", CORPUS_FILES)
def test_corpus_normal_forms_pinned(file, golden):
    mod = load_corpus(file)
    r = mod.regime
    texts = {}
    for d in mod.decls:
        lines = [f"type: {_normal_form(lambda: normalize_type(d.ty))}"]
        if d.sigma == 0:
            lines.append(f"body: {_normal_form(lambda: normalize_sigma0(r, (), d.body, d.ty))}")
        for n in (0, 1, 7):
            applied = App(Ann(d.body, d.ty), nat_literal(r, n))
            lines.append(f"at {n}: {_normal_form(lambda: normalize_sigma0(r, (), applied))}")
        texts[f"{d.name}.txt"] = "\n".join(lines) + "\n"
    golden(f"normal_forms/{file.removesuffix('.qtt')}", texts)


def test_random_term_normal_forms_pinned(golden):
    # the terms of test_normalisation_idempotent_on_random_terms
    rng = random.Random(424242)
    ctx = (CtxEntry("a", 0, BOOL_TY), CtxEntry("b", 0, BOOL_TY))
    lines = []
    for _ in range(300):
        t = _random_term(rng, 4, 2)
        lines.append(
            _normal_form(lambda: normalize_sigma0(Regime.CONS_FREE, ctx, t, budget=20_000))
        )
    golden("normal_forms/random", {"terms.txt": "\n".join(lines) + "\n"})


@pytest.mark.parametrize("file", CORPUS_FILES)
def test_corpus_normalisation_budget_pinned(file):
    # the budget counts redexes: exactly the pinned number suffices, and
    # one fewer runs out (an entry that spends nothing has no such bound)
    mod = load_corpus(file)
    r = mod.regime
    for d in mod.decls:
        for n, spent in zip((0, 1, 7), BUDGET[(file, d.name)]):
            applied = App(Ann(d.body, d.ty), nat_literal(r, n))
            normalize_sigma0(r, (), applied, budget=spent)
            if spent:
                with pytest.raises(CheckError, match=r"^\[Normalize\]"):
                    normalize_sigma0(r, (), applied, budget=spent - 1)
