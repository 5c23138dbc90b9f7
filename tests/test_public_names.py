"""Every name the benchmark's tracer wraps, and every name ``rquiver`` exports,
resolves in the library.

``bench/spans.py`` finds each traced function by a (module, attribute path)
pair, so a library change that deletes or renames one of them breaks every
traced benchmark run.  This test sees that without a traced run.  The tracer
is imported from its path, since ``bench/`` is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import rquiver

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(mod_name: str, path: str) -> bool:
    """Whether Tracer.install finds path in rquiver.<mod_name>: a module
    function by getattr, a method in its class's own __dict__."""
    owner = importlib.import_module(f"rquiver.{mod_name}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part, None)
    if cls_path:
        return isinstance(owner, type) and attr in owner.__dict__
    return callable(getattr(owner, attr, None))


def test_resolves_sees_a_missing_name():
    assert resolves("exact", "column_space_basis")
    assert resolves("exact", "QuadMatrix.__mul__")
    assert not resolves("exact", "no_such_function")
    assert not resolves("exact", "QuadMatrix.no_such_method")
    assert not resolves("exact", "NoSuchClass.__mul__")
    # inherited, so not in the class's own __dict__
    assert not resolves("exact", "CocycleViolation.__str__")


def test_every_traced_name_resolves():
    spans = load_spans()
    pairs = [pair for targets in spans.SPANS.values() for pair in targets]
    assert len(pairs) > 40
    assert [pair for pair in pairs if not resolves(*pair)] == []
    for name in spans.MODULES:
        importlib.import_module(f"rquiver.{name}")


def test_every_exported_name_resolves():
    assert len(set(rquiver.__all__)) == len(rquiver.__all__)
    assert [name for name in rquiver.__all__ if not hasattr(rquiver, name)] == []
