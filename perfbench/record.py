#!/usr/bin/env python3
"""Re-record ``expected.json``: the reference output digests and exact
counts of every workload variant, from one traced run each.

Run from the root of a checkout, only after a change that alters the
program's outputs on purpose::

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
import time

from layers import EXACT_COUNTS
from run import HARD_LIMIT_S, HERE, Runner
from workloads import VARIANTS, WORKLOADS


def main() -> int:
    doc = {}
    for workload in sorted(WORKLOADS):
        doc[workload] = {}
        for variant in range(VARIANTS):
            run = Runner(workload, variant, time.monotonic() + HARD_LIMIT_S)
            try:
                result = run("traced", 1)
            finally:
                run.cleanup()
            failed = [check for check in result["checks"] if not check[1]]
            if failed:
                print(f"{workload} variant {variant} failed: {failed}",
                      file=sys.stderr)
                return 1
            doc[workload][str(variant)] = {
                "outputs": result["outputs"],
                "exact": {name: result["layers"][name]
                          for name in EXACT_COUNTS},
            }
            print(f"{workload} variant {variant}: recorded", file=sys.stderr)
    (HERE / "expected.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
