"""One set-up sample, taken in a fresh interpreter.

Times a cold ``import ftcfd.cli`` plus the workload's warm-up calls and
prints ``{"setup_s": ..., "import_s": ...}``. run.py starts it with
PYTHONPATH pointing at the checkout's ``src`` and the warm-up argument lists
as one JSON argument:

    python3 perfbench/probe.py '[["experiment", "--mode", ...]]'
"""

import json
import sys
import time

from workloads import call_cli


def main():
    argvs = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import ftcfd.cli  # noqa: F401  (the cold import being timed)

    t1 = time.perf_counter()
    for argv in argvs:
        call_cli(argv)
    t2 = time.perf_counter()
    print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0}))


if __name__ == "__main__":
    main()
