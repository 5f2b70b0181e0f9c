"""Set-up cost in a fresh interpreter: import `overbook`, load and validate a config.

Usage: python3 setup_probe.py <src dir> <config.json>
Prints the elapsed seconds.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from overbook.harness import load_config  # noqa: E402

for spec in load_config(sys.argv[2]):
    spec.validate()
print(time.perf_counter() - start)
