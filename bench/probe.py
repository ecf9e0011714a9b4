"""Set-up probe: a fresh interpreter imports conecalc, generates one
workload's inputs, makes its first BLAS and LAPACK calls and prints "ready".

    python3 bench/probe.py WORKLOAD SEED SIZE WORKDIR

The parent times spawn to "ready"; the median over a few probes is setup_s.
"""

import importlib
import sys
from pathlib import Path


def main() -> int:
    workload, seed, size, workdir = sys.argv[1:]
    importlib.import_module("conecalc.cli" if workload == "cli-cold" else "conecalc")
    import numpy as np

    import workloads

    workloads.make_ops(workload, int(seed), size, Path(__file__).resolve().parents[1],
                       Path(workdir))
    a = np.arange(16.0).reshape(4, 4)
    np.linalg.eigh(a @ a.T)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
