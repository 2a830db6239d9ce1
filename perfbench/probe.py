"""One set-up measurement in a fresh process.

Usage: python3 probe.py SRC_DIR CONFIG

Prints the seconds taken to import numpy, scipy and the ssdp CLI and to load
CONFIG once, which includes the scipy quantile discretisation of the demand.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401
import ssdp.cli  # noqa: E402,F401
from ssdp.config import load_model  # noqa: E402

load_model(sys.argv[2])
print(repr(time.perf_counter() - start))
