"""The verdict of `polyqtt check` on every corpus and fixture module,
under both regimes and both fragments, pinned as recorded before the
eliminators shared one typing rule."""

import pytest

from polyqtt.cli import main

from conftest import ROOT

# (module, regime, fragment): (exit code, output)
VERDICTS = {
    ("corpus/consfree_iter.qtt", "consfree", 0): (0, "ok: 13 definition(s) check under consfree"),
    ("corpus/consfree_iter.qtt", "consfree", 1): (0, "ok: 13 definition(s) check under consfree"),
    ("corpus/consfree_iter.qtt", "lfpl", 0): (1, "error: [Tm-CF-Rec] this recursor shape belongs to the cons-free regime"),
    ("corpus/consfree_iter.qtt", "lfpl", 1): (1, "error: [Tm-CF-Rec] this recursor shape belongs to the cons-free regime"),
    ("corpus/consfree_zero.qtt", "consfree", 0): (0, "ok: 6 definition(s) check under consfree"),
    ("corpus/consfree_zero.qtt", "consfree", 1): (1, "error: [Tm-CF-Succ] cons-free constructors live in the erased fragment only"),
    ("corpus/consfree_zero.qtt", "lfpl", 0): (1, "error: [Tm-CF-Succ] bare successor belongs to the cons-free regime"),
    ("corpus/consfree_zero.qtt", "lfpl", 1): (1, "error: [Tm-CF-Succ] bare successor belongs to the cons-free regime"),
    ("corpus/lfpl_iter.qtt", "consfree", 0): (1, "error: [Tm-LFPL-Rec] this recursor shape belongs to the payment regime"),
    ("corpus/lfpl_iter.qtt", "consfree", 1): (1, "error: [Tm-LFPL-Rec] this recursor shape belongs to the payment regime"),
    ("corpus/lfpl_iter.qtt", "lfpl", 0): (0, "ok: 5 definition(s) check under lfpl"),
    ("corpus/lfpl_iter.qtt", "lfpl", 1): (0, "ok: 5 definition(s) check under lfpl"),
    ("corpus/lfpl_sort.qtt", "consfree", 0): (1, "error: [Tm-LFPL-Rec] this recursor shape belongs to the payment regime"),
    ("corpus/lfpl_sort.qtt", "consfree", 1): (1, "error: [Tm-LFPL-Rec] this recursor shape belongs to the payment regime"),
    ("corpus/lfpl_sort.qtt", "lfpl", 0): (0, "ok: 6 definition(s) check under lfpl"),
    ("corpus/lfpl_sort.qtt", "lfpl", 1): (1, "error: [Tm-Lam] usage overflow on a binder: inferred 1, annotation admits 0"),
    ("corpus/reflection.qtt", "consfree", 0): (0, "ok: 7 definition(s) check under consfree"),
    ("corpus/reflection.qtt", "consfree", 1): (0, "ok: 7 definition(s) check under consfree"),
    ("corpus/reflection.qtt", "lfpl", 0): (0, "ok: 7 definition(s) check under lfpl"),
    ("corpus/reflection.qtt", "lfpl", 1): (0, "ok: 7 definition(s) check under lfpl"),
    ("fixtures/bad_double_use.qtt", "consfree", 0): (0, "ok: 1 definition(s) check under consfree"),
    ("fixtures/bad_double_use.qtt", "consfree", 1): (1, "error: [Tm-Lam] usage overflow on a binder: inferred 2, annotation admits 1"),
    ("fixtures/bad_double_use.qtt", "lfpl", 0): (0, "ok: 1 definition(s) check under lfpl"),
    ("fixtures/bad_double_use.qtt", "lfpl", 1): (1, "error: [Tm-Lam] usage overflow on a binder: inferred 2, annotation admits 1"),
    ("fixtures/cf_rec_under_lfpl.qtt", "consfree", 0): (0, "ok: 1 definition(s) check under consfree"),
    ("fixtures/cf_rec_under_lfpl.qtt", "consfree", 1): (0, "ok: 1 definition(s) check under consfree"),
    ("fixtures/cf_rec_under_lfpl.qtt", "lfpl", 0): (1, "error: [Tm-CF-Rec] this recursor shape belongs to the cons-free regime"),
    ("fixtures/cf_rec_under_lfpl.qtt", "lfpl", 1): (1, "error: [Tm-CF-Rec] this recursor shape belongs to the cons-free regime"),
    ("fixtures/consfree_succ_sigma1.qtt", "consfree", 0): (0, "ok: 1 definition(s) check under consfree"),
    ("fixtures/consfree_succ_sigma1.qtt", "consfree", 1): (1, "error: [Tm-CF-Succ] cons-free constructors live in the erased fragment only"),
    ("fixtures/consfree_succ_sigma1.qtt", "lfpl", 0): (1, "error: [Tm-CF-Succ] bare successor belongs to the cons-free regime"),
    ("fixtures/consfree_succ_sigma1.qtt", "lfpl", 1): (1, "error: [Tm-CF-Succ] bare successor belongs to the cons-free regime"),
    ("fixtures/conversion_mismatch.qtt", "consfree", 0): (1, "error: [Conv] expected Bool but synthesised I"),
    ("fixtures/conversion_mismatch.qtt", "consfree", 1): (1, "error: [Conv] expected Bool but synthesised I"),
    ("fixtures/conversion_mismatch.qtt", "lfpl", 0): (1, "error: [Conv] expected Bool but synthesised I"),
    ("fixtures/conversion_mismatch.qtt", "lfpl", 1): (1, "error: [Conv] expected Bool but synthesised I"),
    ("fixtures/diamondstar_sigma1.qtt", "consfree", 0): (1, "error: [Ty-Diamond] the diamond type belongs to the payment regime"),
    ("fixtures/diamondstar_sigma1.qtt", "consfree", 1): (1, "error: [Ty-Diamond] the diamond type belongs to the payment regime"),
    ("fixtures/diamondstar_sigma1.qtt", "lfpl", 0): (0, "ok: 1 definition(s) check under lfpl"),
    ("fixtures/diamondstar_sigma1.qtt", "lfpl", 1): (1, "error: [Tm-LFPL-Star] the dummy diamond lives in the erased fragment only"),
    ("fixtures/dupnat_under_lfpl.qtt", "consfree", 0): (0, "ok: 1 definition(s) check under consfree"),
    ("fixtures/dupnat_under_lfpl.qtt", "consfree", 1): (0, "ok: 1 definition(s) check under consfree"),
    ("fixtures/dupnat_under_lfpl.qtt", "lfpl", 0): (1, "error: [Tm-CF-DupNat] duplication of naturals belongs to the cons-free regime"),
    ("fixtures/dupnat_under_lfpl.qtt", "lfpl", 1): (1, "error: [Tm-CF-DupNat] duplication of naturals belongs to the cons-free regime"),
    ("fixtures/function_dup.qtt", "consfree", 0): (0, "ok: 1 definition(s) check under consfree"),
    ("fixtures/function_dup.qtt", "consfree", 1): (1, "error: [Tm-Lam] usage overflow on a binder: inferred 2, annotation admits 1"),
    ("fixtures/function_dup.qtt", "lfpl", 0): (0, "ok: 1 definition(s) check under lfpl"),
    ("fixtures/function_dup.qtt", "lfpl", 1): (1, "error: [Tm-Lam] usage overflow on a binder: inferred 2, annotation admits 1"),
    ("fixtures/lfpl_rec_under_consfree.qtt", "consfree", 0): (1, "error: [Tm-LFPL-Rec] this recursor shape belongs to the payment regime"),
    ("fixtures/lfpl_rec_under_consfree.qtt", "consfree", 1): (1, "error: [Tm-LFPL-Rec] this recursor shape belongs to the payment regime"),
    ("fixtures/lfpl_rec_under_consfree.qtt", "lfpl", 0): (0, "ok: 1 definition(s) check under lfpl"),
    ("fixtures/lfpl_rec_under_consfree.qtt", "lfpl", 1): (0, "ok: 1 definition(s) check under lfpl"),
    ("fixtures/lfpl_succ_under_consfree.qtt", "consfree", 0): (1, "error: [Tm-LFPL-Succ] paid successor belongs to the payment regime"),
    ("fixtures/lfpl_succ_under_consfree.qtt", "consfree", 1): (1, "error: [Tm-LFPL-Succ] paid successor belongs to the payment regime"),
    ("fixtures/lfpl_succ_under_consfree.qtt", "lfpl", 0): (1, "error: [Tm-CF-Zero] bare zero belongs to the cons-free regime"),
    ("fixtures/lfpl_succ_under_consfree.qtt", "lfpl", 1): (1, "error: [Tm-CF-Zero] bare zero belongs to the cons-free regime"),
    ("fixtures/lfpl_zero_under_consfree.qtt", "consfree", 0): (1, "error: [Tm-LFPL-Zero] paid zero belongs to the payment regime"),
    ("fixtures/lfpl_zero_under_consfree.qtt", "consfree", 1): (1, "error: [Tm-LFPL-Zero] paid zero belongs to the payment regime"),
    ("fixtures/lfpl_zero_under_consfree.qtt", "lfpl", 0): (1, "error: [Tm-CF-Zero] bare zero belongs to the cons-free regime"),
    ("fixtures/lfpl_zero_under_consfree.qtt", "lfpl", 1): (1, "error: [Tm-CF-Zero] bare zero belongs to the cons-free regime"),
    ("fixtures/rec_branch_ambient.qtt", "consfree", 0): (0, "ok: 1 definition(s) check under consfree"),
    ("fixtures/rec_branch_ambient.qtt", "consfree", 1): (1, "error: [Tm-CF-Rec] premise requires a fully erased context but ambient usage was inferred"),
    ("fixtures/rec_branch_ambient.qtt", "lfpl", 0): (1, "error: [Tm-CF-Rec] this recursor shape belongs to the cons-free regime"),
    ("fixtures/rec_branch_ambient.qtt", "lfpl", 1): (1, "error: [Tm-CF-Rec] this recursor shape belongs to the cons-free regime"),
    ("fixtures/reclist_sigma1.qtt", "consfree", 0): (0, "ok: 1 definition(s) check under consfree"),
    ("fixtures/reclist_sigma1.qtt", "consfree", 1): (1, "error: [Tm-List-Rec] list recursion lives in the erased fragment only"),
    ("fixtures/reclist_sigma1.qtt", "lfpl", 0): (0, "ok: 1 definition(s) check under lfpl"),
    ("fixtures/reclist_sigma1.qtt", "lfpl", 1): (1, "error: [Tm-List-Rec] list recursion lives in the erased fragment only"),
    ("fixtures/regime_mismatch_type.qtt", "consfree", 0): (1, "error: [Ty-Diamond] the diamond type belongs to the payment regime"),
    ("fixtures/regime_mismatch_type.qtt", "consfree", 1): (1, "error: [Ty-Diamond] the diamond type belongs to the payment regime"),
    ("fixtures/regime_mismatch_type.qtt", "lfpl", 0): (0, "ok: 1 definition(s) check under lfpl"),
    ("fixtures/regime_mismatch_type.qtt", "lfpl", 1): (0, "ok: 1 definition(s) check under lfpl"),
    ("fixtures/usage_undershoot.qtt", "consfree", 0): (0, "ok: 1 definition(s) check under consfree"),
    ("fixtures/usage_undershoot.qtt", "consfree", 1): (1, "error: [Tm-Lam] usage overflow on a binder: inferred 1, annotation admits 0"),
    ("fixtures/usage_undershoot.qtt", "lfpl", 0): (0, "ok: 1 definition(s) check under lfpl"),
    ("fixtures/usage_undershoot.qtt", "lfpl", 1): (1, "error: [Tm-Lam] usage overflow on a binder: inferred 1, annotation admits 0"),
}


@pytest.mark.parametrize("module, regime, sigma", list(VERDICTS))
def test_check_verdict_pinned(capsys, module, regime, sigma):
    code = main(["check", str(ROOT / module), "--regime", regime, "--sigma", str(sigma)])
    out, err = capsys.readouterr()
    assert (code, (out + err).strip()) == VERDICTS[module, regime, sigma]
