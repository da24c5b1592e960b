"""The benchmark's span bindings name attributes that exist in the package.

``perfbench/spans.py`` looks up ``owner.__dict__[attr]`` for every entry of
``BINDINGS`` at the start of each benchmark run, traced or not, so renaming
or deleting any bound function makes every run exit with a KeyError.  This
test makes the same lookup, loading the module by path without changing it.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_names_an_attribute_of_its_owner():
    bindings = _load_spans().BINDINGS
    missing = [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
        for owner, attr, *_ in bindings
        if attr not in owner.__dict__
    ]
    assert bindings and not missing, missing
