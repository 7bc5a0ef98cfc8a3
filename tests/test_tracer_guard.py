"""The benchmark tracer wraps the public functions it reports by name; a
function that stops being a plain public `def` of its own module (for
example by decorating it with a cache) would silently drop out of the traced
run.  It also imports every module of its `LAYERS`, so each must stay
importable.  The tracer is imported by path and not edited."""

import importlib
import importlib.util
import pathlib
import types

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module_name, function_name",
    [(m, f) for m, functions in tracer.REPORTED.items() for f in functions],
)
def test_reported_function_is_a_public_def_of_its_module(module_name, function_name):
    module = importlib.import_module(f"{tracer.Tracer().package}.{module_name}")
    value = getattr(module, function_name)
    assert not function_name.startswith("_")
    assert isinstance(value, types.FunctionType)
    assert value.__module__ == module.__name__


@pytest.mark.parametrize("layer", tracer.LAYERS)
def test_traced_layer_is_a_module_of_the_package(layer):
    # the tracer imports every layer it names, so a deleted or renamed layer
    # module would end the traced run with an ImportError
    importlib.import_module(f"{tracer.Tracer().package}.{layer}")
