import functools
import pathlib

import pytest

from polyqtt.compiler import compile_declaration
from polyqtt.frontend import parse_module, resolve_module
from polyqtt.kernel import infer_usage_check

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
FIXTURES = ROOT / "fixtures"

CORPUS_FILES = [
    "consfree_iter.qtt",
    "consfree_zero.qtt",
    "lfpl_iter.qtt",
    "lfpl_sort.qtt",
    "reflection.qtt",
]


def fanout_chain(k: int) -> str:
    """A cons-free module where g0 negates, g_i applies g_(i-1) twice, and
    drive runs g_k after n negations: a 2^k-fold use of g0."""
    lines = ["regime consfree", r"def g0 ^1 : Bool -> Bool = \b. if b then false else true"]
    lines += [rf"def g{i} ^1 : Bool -> Bool = \b. g{i - 1} (g{i - 1} b)" for i in range(1, k + 1)]
    rec = "rec n at (x. Bool) { zero => true | succ(m, p) => g0 p }"
    lines.append(rf"def drive ^1 : (n ^1 : Nat) -> Bool = \n. g{k} ({rec})")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def load_corpus(name: str):
    """Parse, resolve, and check a corpus module; cached per session."""
    mod = resolve_module(parse_module((CORPUS / name).read_text()))
    for d in mod.decls:
        infer_usage_check(mod.regime, (), d.sigma, d.body, d.ty)
    return mod


@functools.lru_cache(maxsize=None)
def compiled(name: str, decl: str):
    mod = load_corpus(name)
    for d in mod.decls:
        if d.name == decl:
            return compile_declaration(mod.regime, d.ty, d.body)
    raise KeyError(decl)


@pytest.fixture(scope="session")
def corpus():
    return {name: load_corpus(name) for name in CORPUS_FILES}
