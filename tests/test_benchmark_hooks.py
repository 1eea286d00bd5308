"""The traced benchmark wraps adlink functions by name; they must all exist.

``perfbench/tracer.py`` is loaded from its file, read-only, so a rename or
deletion of a traced name fails here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("home,attr", [(home, attr) for home, attr, *_ in tracer.FUNCTIONS])
def test_traced_function_exists(home, attr):
    assert callable(getattr(importlib.import_module(home), attr, None)), f"{home}.{attr}"


@pytest.mark.parametrize("home,cls_name,meth",
                         [(home, cls, meth) for home, cls, meth, *_ in tracer.METHODS])
def test_traced_method_exists(home, cls_name, meth):
    cls = getattr(importlib.import_module(home), cls_name)
    # the tracer replaces the method in the class's own __dict__
    assert callable(cls.__dict__.get(meth)), f"{home}.{cls_name}.{meth}"
