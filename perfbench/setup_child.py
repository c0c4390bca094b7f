"""One set-up sample: a fresh interpreter timing :func:`workloads.setup`.

Usage: ``python perfbench/setup_child.py <workload>``.  Prints one JSON
object: ``setup_s`` (imports, backend load and check, warm pool start,
from the first line of this script) and what set-up reported.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

sys.path.insert(1, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

try:
    info = workloads.setup(sys.argv[1])
    elapsed = time.perf_counter() - STARTED
finally:
    workloads.teardown()
print(json.dumps({"setup_s": elapsed, **info}))
