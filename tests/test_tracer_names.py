"""The benchmark tracer (perfbench/spans.py) still finds every name it wraps.

`spans.install` looks each TRACED name up with getattr, so deleting one of
them from the package breaks `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qseries import registry


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("name", sorted(spans.TRACED))
def test_traced_name_resolves(name):
    module_name, attr = spans.TRACED[name]
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{name}: {module_name}.{attr} is gone"


def test_install_wraps_and_restores():
    original = registry.verify_identity
    restore = spans.install(spans.Tracer())
    try:
        assert registry.verify_identity is not original
    finally:
        restore()
    assert registry.verify_identity is original
