"""One ``setup_s`` sample, taken in a fresh interpreter.

Times importing ``codedlat`` (with numpy and scipy) and building one
workload's inputs, up to the workload's first timed call, and prints
the seconds on stdout.  ``run.py`` starts this script several times
per run and reports the median.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

start = time.perf_counter()

from checkout import use_checkout_source  # noqa: E402

use_checkout_source()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(repr(time.perf_counter() - start))
