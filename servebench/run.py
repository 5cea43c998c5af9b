"""Entry point of the serving benchmark (see ``bench.py``).

Run from the repository root::

    python3 servebench/run.py --workload storm --seed 0 --seconds 10 --trace 0

The program under test is imported from the checkout's own ``src/``;
without it the benchmark exits with an error before measuring anything.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"servebench: no program to measure, {SRC}/repro is missing")
    sys.path[:0] = [SRC, HERE]
    from bench import main

    sys.exit(main())
