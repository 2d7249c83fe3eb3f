"""Record digests of the program's answers, which later runs check against.

Usage, from the root of a checkout:

    python3 perfbench/record.py [--seeds 0,1,2] [--workload NAME ...]

For each workload this runs every query of the pools of the given seeds
once, untimed, and writes perfbench/references/<workload>.json mapping a
digest of each query to a digest of its canonical answer.  Record only on a
commit whose answers are trusted: the library-profile answers must also pass
the independent brute-force checks, the oracle reports must all agree, and
well-formed CLI calls must exit 0.  A run checks a query without a recorded
digest by those independent checks instead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from common import REFERENCE_DIR, SRC, WORKLOADS

sys.path.insert(0, str(SRC))



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        digests = importlib.import_module(WORKLOADS[name]).record(seeds)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps({"seeds": seeds, "digests": dict(sorted(digests.items()))}, indent=0) + "\n")
        print(f"{name}: {len(digests)} digests for seeds {seeds} -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
