"""Link-simulator benchmark: one workload per call, result on the last line.

    python3 perfbench/run.py --workload gate-16qam --seed 1 --seconds 20 --trace 0

Run from the repository root. With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer ones; the last line
of standard output is the JSON result. --smoke runs one block per SNR point
and one pass; --record rewrites expected.json at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "chasedet" / "__init__.py").is_file():
        print(f"error: no chasedet sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import host

    # One single-threaded interpreter per workload: pinned before numpy loads.
    for var in host.THREAD_VARS:
        os.environ[var] = "1"
    import harness
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.record:
        harness.record_expected()
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    result = harness.run(args.workload, seed, args.seconds, bool(args.trace), names, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
