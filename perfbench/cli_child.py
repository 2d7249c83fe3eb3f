"""Child of a traced cli-oneshot call: install the tracing, then run `weylord.cli.main`.

stdout and the exit status are the command's own; the spans and timings go
to the file named by PERFBENCH_TRACE_OUT, written once when main returns or
raises.  An exception still propagates, so a traceback looks as it does
without tracing.
"""

import json
import os
import sys
import time

start = time.perf_counter()
import weylord.cli  # noqa: E402

import_s = time.perf_counter() - start
from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
main_start = time.perf_counter()
try:
    code = weylord.cli.main(sys.argv[1:])
finally:
    main_s = time.perf_counter() - main_start
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "trace": tracer.export()}, fh)
sys.exit(code)
