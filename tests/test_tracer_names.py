"""The benchmark tracer (perfbench/spans.py) still finds every name it wraps.

`spans.install` looks each TRACED name up with getattr, so deleting one of
them from the package breaks `perfbench/run.py --trace 1`.  The engine's
import path is also checked to leave the inversion oracles out, and, with the
catalog load, mpmath and dataclasses.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


def test_engine_imports_load_every_traced_module():
    # spans.install finds each module in sys.modules, so importing the engine
    # modules the workloads use must load every module a TRACED name lives in
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import json, sys; from qseries import bisection, limits, qcore, registry; "
            "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = set(json.loads(proc.stdout))
    assert {module for module, _ in spans.TRACED.values()} <= loaded


def test_engine_imports_leave_inversion_unloaded():
    # the inversion oracles are not on the engine's import path; only the
    # oracle command loads them
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import json, sys; import qseries.cli; from qseries import bisection, limits, registry; "
            "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = set(json.loads(proc.stdout))
    assert {"qseries.cli", "qseries.registry", "qseries.theorems"} <= loaded
    assert "qseries.inversion" not in loaded


def test_engine_imports_and_catalog_load_leave_mpmath_and_dataclasses_unloaded():
    # start-up is the fixed cost of every command: mpmath loads on the first
    # numeric call, and no record type is a dataclass
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import json, sys; import qseries.cli; from qseries import bisection, limits, registry; "
            "registry.load_catalog(); print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = set(json.loads(proc.stdout))
    assert {"qseries.cli", "qseries.bisection", "qseries.limits", "qseries.registry"} <= loaded
    assert "mpmath" not in loaded
    assert "dataclasses" not in loaded


def test_cold_limit_report_matches_recorded():
    # the first numeric call in a fresh process imports mpmath and still gives
    # the recorded report (the CLI's `limit v3x1` defaults: 40 terms, 60 digits)
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import json, sys; from qseries import limits, registry; "
            "rec = registry.load_catalog().get('v3x1'); assert 'mpmath' not in sys.modules; "
            "print(json.dumps(limits.limit_report(rec.id, rec.classical, 40, limits.BigFloatCtx(60)), indent=2))")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))   # mpmath may come from there
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout == (Path(__file__).resolve().parent / "data" / "limit_v3x1.json").read_text()


def test_install_wraps_and_restores():
    original = registry.verify_identity
    restore = spans.install(spans.Tracer())
    try:
        assert registry.verify_identity is not original
    finally:
        restore()
    assert registry.verify_identity is original
