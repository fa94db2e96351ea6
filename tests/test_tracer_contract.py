"""The names that perfbench/tracer.py wraps must exist in the library.

Only ``perfbench/run.py --trace 1`` installs the tracer, so a deleted layer
module or method would otherwise go unnoticed until a traced run.  The
tracer is loaded by path and used read-only.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_layer_imports(tracer):
    for name in tracer.LAYERS:
        importlib.import_module(f"mahlerlift.{name}")


def test_every_traced_method_is_defined_on_its_class(tracer):
    for layer, classes in tracer.METHODS.items():
        mod = importlib.import_module(f"mahlerlift.{layer}")
        for cname, methods in classes.items():
            cls = getattr(mod, cname)
            for meth in methods:
                assert meth in cls.__dict__, f"{layer}.{cname}.{meth}"


def test_hooked_functions_are_public(tracer):
    """Every function with a work-count hook is one the tracer wraps."""
    for full in tracer.AFTER:
        layer, name = full.split(".")
        mod = importlib.import_module(f"mahlerlift.{layer}")
        assert name in dict(tracer._public_functions(mod, layer)), full


def test_shared_helpers_are_not_wrapped(tracer):
    util = importlib.import_module("mahlerlift.util")
    assert not list(tracer._public_functions(util, "util"))
    for name in tracer.LAYERS:
        mod = importlib.import_module(f"mahlerlift.{name}")
        assert util.sparse_mul not in dict(tracer._public_functions(mod, name)).values()
