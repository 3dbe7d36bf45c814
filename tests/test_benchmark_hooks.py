"""Guard for the end-to-end benchmark's hooks into the package.

``benchmarks/e2e/layertrace.py`` times the program's layers from outside:
for a traced round it replaces named functions and methods of ``repro``
with timing wrappers and puts the originals back afterwards.  A change
that renames or deletes one of those names breaks every
``benchmarks/e2e/run.py --trace 1`` run, and nothing else in the test
suite imports the tracer, so this test loads it by path and installs it.
"""

import importlib.util
import inspect
import pathlib

LAYERTRACE = (
    pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layertrace.py"
)

#: Targets the tracer plans in the package itself.  It also wraps
#: subclasses of the dispatch and arrival bases that test modules define,
#: so only targets whose owner lives in ``repro`` are counted.
PACKAGE_TARGETS = 31


def load_layertrace():
    spec = importlib.util.spec_from_file_location("e2e_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def home(owner) -> str:
    return owner.__name__ if inspect.ismodule(owner) else owner.__module__


def test_tracer_wraps_every_target_and_restores_it():
    tracer = load_layertrace().Tracer()
    with tracer.installed():
        patches = list(tracer._patches)
        assert len(patches) == len(tracer._targets)
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original, (owner, attr)
        in_package = [p for p in patches if home(p[0]).startswith("repro.")]
        assert len(in_package) == PACKAGE_TARGETS
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, (owner, attr)
