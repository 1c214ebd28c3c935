"""Set-up time of one workload, measured in a fresh interpreter.

Prints the seconds from `import chasedet` until every leg is ready for its
first block: validate_config, build_constellation and make_interleaver.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS


def main(argv) -> int:
    workload, seed = WORKLOADS[argv[1]], int(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = perf_counter()
    import chasedet
    from chasedet.simcli import validate_config

    for leg in workload.legs:
        cfg = validate_config(chasedet.SimConfig(seed=seed, blocks=workload.blocks, **leg))
        chasedet.build_constellation(cfg.mod)
        code = chasedet.CodeConfig(cfg.info_bits, cfg.rate)
        chasedet.make_interleaver(code.transmitted_len, cfg.seed)
    print(repr(perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
