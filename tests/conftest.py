import difflib
import functools
import itertools
import pathlib

import pytest

from polyqtt import machine as m
from polyqtt.compiler import load

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"

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


def decode_ilist_bools(v: m.MachineValue) -> list[bool]:
    """An encoded (size, elements) pair of booleans."""
    size = m.decode_nat(v.fst)
    out = []
    elems = v.snd
    for _ in range(size):
        out.append(m.decode_bool(elems.fst))
        elems = elems.snd
    if not isinstance(elems, m.VUnit):
        raise m.DecodeError("overlong element tuple")
    return out


@pytest.fixture
def golden(tmp_path):
    """golden(subdir, {filename: text}) compares the files of
    tests/golden/<subdir> with the given texts: a missing, extra or changed
    file fails.  A changed or missing file's actual text is written under
    tmp_path, and the failure names it; to re-pin, copy it over the golden
    file (and delete a golden file that nothing produces any more)."""

    def compare(subdir: str, texts: dict[str, str]) -> None:
        pinned = GOLDEN / subdir
        stored = {p.name for p in pinned.iterdir()} if pinned.is_dir() else set()
        extra = sorted(stored - texts.keys())
        errors = [f"{pinned / name}: extra, no output has this name" for name in extra]
        for name, text in sorted(texts.items()):
            path = pinned / name
            old = path.read_bytes() if name in stored else b""
            if name in stored and old == text.encode():
                continue
            actual = tmp_path / subdir / name
            actual.parent.mkdir(parents=True, exist_ok=True)
            actual.write_bytes(text.encode())
            diff = difflib.unified_diff(
                old.decode(errors="replace").splitlines(), text.splitlines(),
                str(path), str(actual), lineterm="",
            )
            state = "differs" if name in stored else "missing"
            errors.append(f"{path}: {state}; actual text in {actual}")
            errors += [line[:200] for line in itertools.islice(diff, 20)]
        if errors:
            pytest.fail("\n".join(errors), pytrace=False)

    return compare
