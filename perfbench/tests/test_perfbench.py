"""Self-check of the benchmark: span arithmetic, golden check, smoke passes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qseries import registry  # noqa: E402


@pytest.fixture(scope="module")
def cat():
    return registry.load_catalog()


def test_self_time_is_duration_minus_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 4.125, 4.375, 4.5, 7.0])
    monkeypatch.setattr(spans, "perf", lambda: next(clock))
    tracer = spans.Tracer()
    outer = tracer.enter("registry.verify_identity")       # [0, 7]
    child = tracer.enter("theorems.theorem_lhs")           # [1, 3], kept as a span
    tracer.exit(child)
    hot = tracer.enter("series.LaurentSeries.__mul__")     # [4, 4.5], aggregated only
    inner = tracer.enter("qcore.poch_infinite")            # [4.125, 4.375], kept
    tracer.exit(inner)
    tracer.exit(hot)
    tracer.exit(outer)
    assert tracer.incl["registry.verify_identity"] == 7.0
    assert tracer.self_s["registry.verify_identity"] == 7.0 - 2.0 - 0.5
    assert tracer.self_s["theorems.theorem_lhs"] == 2.0
    assert tracer.self_s["series.LaurentSeries.__mul__"] == 0.5 - 0.25
    assert tracer.calls["series.LaurentSeries.__mul__"] == 1
    names = {name: (span_id, parent) for span_id, parent, name, *_ in tracer.spans}
    assert set(names) == {"registry.verify_identity", "theorems.theorem_lhs", "qcore.poch_infinite"}
    outer_id, outer_parent = names["registry.verify_identity"]
    assert outer_parent is None
    assert names["theorems.theorem_lhs"][1] == names["qcore.poch_infinite"][1] == outer_id


def test_kernel_op_counts_match_the_loops():
    def dense(la, lb, nmax):
        n = min(nmax, la + lb - 1) if la and lb else 0
        return sum(min(lb, n - i) for i in range(min(la, n)))

    def inverse(la, nmax):
        return sum(min(k, la - 1) for k in range(1, nmax))

    for la in range(0, 7):
        for lb in range(0, 7):
            for nmax in range(0, 15):
                assert spans.mul_dense_ops([1] * la, [1] * lb, nmax) == dense(la, lb, nmax)
    for la in range(1, 7):
        for nmax in range(0, 15):
            assert spans.inv_dense_ops([1] * la, nmax) == inverse(la, nmax)


def test_altered_golden_output_counts_as_failed(cat):
    ops = workloads.build("verify", 3, cat, workloads.SMOKE)
    golden = workloads.record(ops)
    outputs = [out for _, _, _, out in run.run_pass(ops)]
    assert workloads.failures(ops, outputs, golden) == []
    victim = ops[5].id
    golden[victim] = {**golden[victim], "terms_used": golden[victim]["terms_used"] + 1}
    assert workloads.failures(ops, outputs, golden) == [victim]


def test_pass_stops_before_an_op_that_would_overrun():
    ops = [workloads.Op(f"op{i}", lambda: None) for i in range(4)]
    last = {"op0": 0.0, "op1": 0.0, "op2": 1e6, "op3": 0.0}
    runs = run.run_pass(ops, deadline=run.perf() + 60, last=last)
    assert [op.id for op, *_ in runs] == ["op0", "op1"]


def test_numeric_outputs_compare_to_25_digits(cat):
    op = next(op for op in workloads.build("bisect-limits", 0, cat, workloads.SMOKE) if op.numeric)
    out = workloads.canonical(op.run())
    key = next(iter(out))
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = 50
    value = ctx.mpf(out[key])
    near = dict(out, **{key: ctx.nstr(value * (1 + ctx.mpf(10) ** -30), 45)})
    far = dict(out, **{key: ctx.nstr(value * (1 + ctx.mpf(10) ** -20), 45)})
    assert workloads.matches(op, out, near)
    assert not workloads.matches(op, out, far)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_runs_cleanly_under_tracing(cat, workload):
    ops = workloads.build(workload, 0, cat, workloads.SMOKE)
    tracer = spans.Tracer()
    original = registry.verify_identity
    runs = run.run_pass(ops, tracer)
    assert registry.verify_identity is original
    assert [(op.id, traced) for op, traced, _, _ in runs] == [(op.id, traced) for op in ops for traced in (False, True)]
    untraced, traced = ({op.id: workloads.canonical(out) for op, t, _, out in runs if t == side} for side in (False, True))
    assert not [oid for oid, out in traced.items() if isinstance(out, dict) and "error" in out]
    assert workloads.unsound(traced) == []
    assert traced == untraced
    assert tracer.calls["op"] == len(ops)
    values = spans.layer_values(tracer, 1)
    busy = {"verify": ["theorems.theorem_lhs.calls"],
            "bisect-limits": ["bisection.build_P.calls", "limits.eval_series.calls"]}[workload]
    assert all(values[name] > 0 for name in busy)


def test_benchmark_json_lists_the_reported_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""
