#!/usr/bin/env python3
"""qseries benchmark: one workload, one seed, timed end to end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 55 --trace 0

The engine is imported from ./src.  Set-up time is measured in fresh
interpreters before and after the passes; the workload runs passes over its
op list, one op at a time in this single process.  Every op output is
checked against the golden output of the seed commit after its pass.

--trace 0 runs passes until the next op would end after --seconds (at
least one whole pass; the last pass may stop part-way) and reports the
end-to-end metrics, from each op's mean time over the whole run.  --trace 1
runs whole passes in which each op runs untraced and then traced, while the
next pass fits in --seconds, and reports the per-layer metrics plus the
tracing overhead between the two runs of each op.  The last line of stdout is the result as JSON; the line
before it is the environment.  The full record, with per-pass figures and
the spans of a traced run, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

SETUP_RUNS = 8          # timed fresh interpreters before the passes, and as many after
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import qseries.bisection, qseries.limits, qseries.registry
qseries.registry.load_catalog()
print(time.perf_counter() - t0)
"""
HERE = Path(__file__).resolve().parent
perf = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "bisect-limits"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(root, src, runs, warm_up=False):
    """Import + load_catalog times of fresh interpreters, in seconds.

    The warm-up run, which fills the bytecode cache, is not timed.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(runs + warm_up):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples[warm_up:]


def environment(root, src, args):
    import mpmath
    from qseries import kernel

    digest = hashlib.sha256()
    for path in sorted(p for p in (src / "qseries").rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    rev = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        rev = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernel_implementation": kernel.IMPLEMENTATION,
        "mpmath": mpmath.__version__,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_op(op, tracer=None):
    """(seconds, output) of one op, traced when a tracer is given."""
    t0 = perf()
    try:
        if tracer is None:
            out = op.run()
        else:
            tracer.op_id = op.id
            out = tracer.call("op", op.run)
    except Exception as exc:            # a failed op is a result: it counts in `failed`
        out = {"error": f"{type(exc).__name__}: {exc}"}
    return perf() - t0, out


def run_pass(ops, tracer=None, deadline=None, last=None):
    """One pass over the op list, as (op, traced, seconds, output) per op run.

    With a deadline, the pass stops before the first op whose previous
    time (``last``, by op id) would take it past the deadline, so it may
    cover only a prefix of the list.  With a tracer, each op runs twice back
    to back, untraced and then traced, so that both runs see the same
    stretch of machine time.
    """
    gc.collect()
    runs = []
    for op in ops:
        if deadline is not None and perf() + last[op.id] > deadline:
            break
        runs.append((op, False, *run_op(op)))
        if tracer is not None:
            restore = spans.install(tracer)
            try:
                runs.append((op, True, *run_op(op, tracer)))
            finally:
                restore()
    return runs


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "qseries" / "__init__.py").is_file():
        print(f"perfbench: {src / 'qseries'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    setup_samples = measure_setup(root, src, SETUP_RUNS, warm_up=True)

    import workloads
    from qseries import registry

    cat = registry.load_catalog()
    ops = workloads.build(args.workload, args.seed, cat)
    golden = workloads.load_golden(args.workload)

    tracer = spans.Tracer() if args.trace else None
    untraced = {op.id: [] for op in ops}    # op id -> seconds of each untraced run
    last = {}                               # op id -> seconds of its latest untraced run
    pass_walls = []
    passes = []
    failed_ids = []
    start = perf()
    while True:
        # --trace 0: passes until the next op would end after --seconds (the
        # last pass may stop part-way).  --trace 1: whole passes until the
        # next one would end after --seconds.
        deadline = None
        if passes and not args.trace:
            deadline = start + args.seconds
        elif passes and perf() - start + pass_walls[-1] > args.seconds:
            break
        if tracer is not None:
            restore = spans.install(tracer)
            try:
                registry.load_catalog()
            finally:
                restore()
        t0 = perf()
        runs = run_pass(ops, tracer, deadline, last)
        if not runs:
            break
        pass_walls.append(perf() - t0)
        bad = workloads.failures([r[0] for r in runs], [r[3] for r in runs], golden)
        failed_ids += bad
        passes.append({"wall_s": pass_walls[-1], "runs": [(op.id, traced, t) for op, traced, t, _ in runs],
                       "failed": bad})
        for op, traced, t, _ in runs:
            if not traced:
                last[op.id] = t
                untraced[op.id].append(t)
        if not args.trace and len(runs) < len(ops):
            break

    # Set-up is timed at both ends of the passes, so that it sees the same
    # stretch of machine time as they do.
    setup_samples += measure_setup(root, src, SETUP_RUNS)
    setup_s = statistics.median(setup_samples)

    # Each op's latency is its mean over the untraced runs of the whole
    # measurement, so every second of the run counts; a pass of the workload
    # costs the sum of those means.
    op_ms = [statistics.fmean(untraced[op.id]) * 1e3 for op in ops]
    attempted = sum(len(p["runs"]) for p in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(op_ms) / 1e3, "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_max_ms": (max(op_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    record = {"env": environment(root, src, args), "setup_s": setup_samples, "ops": [op.id for op in ops],
              "passes": passes,
              "fail_frac": len(failed_ids) / attempted}
    if args.trace:
        layer = spans.layer_values(tracer, len(passes))
        paired = [sum(t for p in passes for _, tr, t in p["runs"] if tr == traced) for traced in (False, True)]
        layer[spans.OVERHEAD] = paired[1] / paired[0] - 1
        units = dict(spans.LAYER_METRICS)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        record["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
        record["spans"] = tracer.spans
    record["metrics"] = metrics

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"env": record["env"], "fail_frac": record["fail_frac"], "failed_ops": sorted(set(failed_ids))}))
    print(json.dumps({"correct": not failed_ids, "attempted": attempted, "failed": len(failed_ids),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
