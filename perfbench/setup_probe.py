"""Child that times one workload's set-up in a fresh interpreter and prints the seconds.

Usage: python3 setup_probe.py <library-profile|oracle-verify>
The time covers importing weylord and building every datum, root table and
Weyl group the workload uses.
"""

import sys
import time

start = time.perf_counter()
import importlib  # noqa: E402

importlib.import_module(sys.argv[1].replace("-", "_")).build_data()
print(time.perf_counter() - start)
