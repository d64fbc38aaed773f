"""Set-up probe: a fresh interpreter imports contextsim, generates the first
block of a workload's inputs and prints ``ready``. ``run.py`` times it from
process start to that line. The probe then prints a few host-speed reference
times, taken on the CPU it ran on.

usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

from __future__ import annotations

import bootstrap  # first: pins BLAS threads before numpy loads

import os
import shutil
import sys

import hostspeed

REFERENCE_REPEATS = 3


def main(argv: list[str]) -> int:
    workload, seed = argv
    bootstrap.load_contextsim()
    import workloads

    workdir = bootstrap.WORK_DIR / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        next(workloads.WORKLOADS[workload].blocks(int(seed), workdir))
        print("ready", flush=True)
        for _ in range(REFERENCE_REPEATS):
            print(hostspeed.reference())
    finally:
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
