#!/usr/bin/env python3
"""Record the golden op outputs that perfbench/run.py checks against.

Usage, from the repository root:  python3 perfbench/make_golden.py [workload ...]

Runs every op any seed can produce, refuses outputs that are wrong on their
face (an unverified identity, an inconsistent or nonzero bisection), and
writes perfbench/golden/<workload>.json.  The files in the repository were
recorded from the seed commit of the benchmark; rerunning this on a later
commit would hide any change of output from the benchmark.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from qseries import registry  # noqa: E402


def main(argv):
    cat = registry.load_catalog()
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in argv or workloads.WORKLOADS:
        outputs = workloads.record(workloads.build(name, 0, cat, every=True))
        bad = workloads.unsound(outputs)
        if bad:
            raise SystemExit(f"{name}: unsound outputs {bad}")
        with open(workloads.GOLDEN_DIR / f"{name}.json", "w") as fh:
            json.dump(outputs, fh, indent=1)
            fh.write("\n")
        print(f"{name}: {len(outputs)} outputs")


if __name__ == "__main__":
    main(sys.argv[1:])
