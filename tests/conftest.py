import functools
import pathlib

import pytest

from polyqtt.compiler import load

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
    mod = load((CORPUS / name).read_text())
    mod.check()
    return mod


@functools.lru_cache(maxsize=None)
def compiled(name: str, decl: str):
    return load_corpus(name).compile(decl)


@pytest.fixture(scope="session")
def corpus():
    return {name: load_corpus(name) for name in CORPUS_FILES}
