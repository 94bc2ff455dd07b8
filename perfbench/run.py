"""Benchmark entry point.

    python3 perfbench/run.py --workload crack_growth --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the inputs, the host and any failure reasons.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer split.
"""

import argparse
import json
import sys

from prepare import MissingSource, prepare


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        prepare()
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import bench
    import workloads

    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; one of {workloads.NAMES}")
    out = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for reason in out["failures"]:
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    info = {k: out[k] for k in ("inputs", "host", "reps", "absent")}
    print(json.dumps(info))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
