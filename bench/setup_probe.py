"""Set-up time of a fresh interpreter: import vortexcert and build fixtures.

    python3 bench/setup_probe.py <src dir> "name:label;name:"

Prints the seconds from interpreter start of this script to the last
fixture built.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from vortexcert import catalog  # noqa: E402

for spec in sys.argv[2].split(";"):
    name, _, label = spec.partition(":")
    catalog.fixture(name, tuple(int(t) for t in label.split(",")) if label else None)
print(f"{time.perf_counter() - t0:.9f}")
