"""The resolved type and body of every declaration in corpus/ and
fixtures/, under each regime, pinned so that a refactor of the front end
that changes any of them fails here.  Erased declarations and types are
pinned too, which the pins on emitted code do not reach.  The regime
decides how numerals are encoded, so each module is resolved under both
regime overrides, and without an override it must resolve as the override
that names its own pragma.  Re-pin only for a change that means to alter
resolution.

Pinned in tests/golden/resolution/: to re-pin, copy in the actual file a failure names."""

from polyqtt.frontend import parse_module, resolve_module
from polyqtt.syntax import Regime

from conftest import CORPUS, FIXTURES


def _resolved(decls) -> str:
    return "\n".join(f"def {d.name}\nty: {d.ty!r}\nbody: {d.body!r}\n" for d in decls)


def test_resolved_types_and_bodies_are_pinned(golden):
    texts = {}
    for path in sorted([*CORPUS.glob("*.qtt"), *FIXTURES.glob("*.qtt")]):
        mod = parse_module(path.read_text())
        for regime in Regime:
            texts[f"{path.stem}.{regime.value}.txt"] = _resolved(resolve_module(mod, regime).decls)
        own = resolve_module(mod)
        assert _resolved(own.decls) == texts[f"{path.stem}.{own.regime.value}.txt"], path.name
    golden("resolution", texts)
