"""Emitted code, potential and input arity of every runtime declaration in
corpus/, one file per module, pinned so that a refactor of the checker or
the compiler that changes any of them fails here.  Re-pin only for a change
that means to alter emitted code.

Pinned in tests/golden/code/: to re-pin, copy in the actual file a failure names."""

from polyqtt.machine import expr_to_sexp

from conftest import CORPUS, compiled, load_corpus


def test_corpus_code_potential_and_arity_are_pinned(golden):
    texts = {}
    for path in sorted(CORPUS.glob("*.qtt")):
        entries = []
        for d in load_corpus(path.name).decls:
            if d.sigma == 1:
                p = compiled(path.name, d.name)
                coeffs = " ".join(map(str, p.potential.coeffs))
                entries.append(
                    f"def {d.name}\ncoefficients: {coeffs}\narity: {p.input_arity}\n"
                    f"code: {expr_to_sexp(p.code)}\n"
                )
        if entries:
            texts[f"{path.stem}.txt"] = "\n".join(entries)
    golden("code", texts)
