"""The benchmark's tracer patches the package by name: installing it and
taking it off again shows that every name it patches still exists, so a
renamed method fails here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import restrictedsums.cli  # noqa: F401  the tracer wraps every layer, the CLI included
from restrictedsums import FieldElement, PowerSumForm, SparsePoly

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
PATCHED = ((PowerSumForm, "eval"), (SparsePoly, "eval"), (SparsePoly, "mul"), (FieldElement, "__init__"))


def test_tracer_installs_and_uninstalls_on_the_package():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    originals = [vars(owner)[name] for owner, name in PATCHED]
    tracer = module.Tracer()
    try:
        tracer.install()
        assert all(vars(owner)[name] is not fn for (owner, name), fn in zip(PATCHED, originals))
    finally:
        tracer.uninstall()
    assert all(vars(owner)[name] is fn for (owner, name), fn in zip(PATCHED, originals))
