"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 benchmarks/e2e/run.py --workload paper-sweep --seed 2024 --trace 0

Prints every metric as ``name value unit`` and, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 1
if any cell failed its correctness check, and 2 if the simulator under
``src/`` cannot be imported.  See README.md.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    # One BLAS/OpenMP thread in this process and in every pool worker it forks;
    # set before numpy is first imported.
    os.environ["OMP_NUM_THREADS"] = "1"
    here = Path(__file__).resolve().parent
    src = here.parents[1] / "src"
    sys.path[:0] = [str(here), str(src)]
    try:
        import harness
    except ImportError as error:
        print(f"cannot import the simulator from {src}: {error}", file=sys.stderr)
        return 2
    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
