"""Helpers shared by the workloads: paths, statistics, digests, set-up probes."""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"  # scratch files and traces of a run; ignored by git
REFERENCE_DIR = BENCH_DIR / "references"
WORKLOADS = {  # workload name -> module in this directory
    "cli-oneshot": "cli_oneshot",
    "library-profile": "library_profile",
    "oracle-verify": "oracle_verify",
}
MIN_QUERIES = 100  # so that at least ten samples lie beyond p90
CHILD_TIMEOUT_S = 120


def another_pass(timed: float, passes: int, queries: int, seconds: float) -> bool:
    """Runs are whole passes: stop at the pass count whose time is nearest `seconds`."""
    if passes == 0 or queries < MIN_QUERIES:
        return True
    return timed + 0.5 * timed / passes < seconds


def coxeter_symmetries(num_simple: int, edges) -> list[tuple[int, ...]]:
    """Permutations of simple-root indices that keep the labelled Coxeter diagram.

    `edges` holds (i, j, m) for each pair joined by an edge of label m.  Such a
    permutation keeps lengths, Bruhat order and double cosets, so mapping a
    query's subsets through it changes the input but not the work.
    """
    labelled = {frozenset((i, j)): m for i, j, m in edges}
    return [
        p
        for p in itertools.permutations(range(num_simple))
        if {frozenset((p[i], p[j])): m for i, j, m in edges} == labelled
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def timing_metrics(latencies_s: list[float]) -> dict:
    """Median, p90 and throughput of one run's queries, from their scaled times."""
    deciles = statistics.quantiles(latencies_s, n=10, method="inclusive")
    return {
        "query_p50_ms": (statistics.median(latencies_s) * 1e3, "ms"),
        "query_p90_ms": (deciles[8] * 1e3, "ms"),
        "queries_per_s": (len(latencies_s) / sum(latencies_s), "1/s"),
    }


# A fixed pure-Python loop of tuple indexing, dict lookups and int additions,
# the kind of work the program does.  It allocates no containers, so it never
# triggers a garbage collection of the program's objects.
_KERNEL_PERM = tuple((i * 7 + 3) % 64 for i in range(64))
_KERNEL_MAP = {i: (i * 13) % 64 for i in range(64)}
KERNEL_ITERATIONS = 19_000
KERNEL_S = 1e-3  # the kernel's time at the speed all reported times are scaled to


def kernel_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    perm, table, x, y = _KERNEL_PERM, _KERNEL_MAP, 0, 0
    start = time.perf_counter()
    for _ in range(KERNEL_ITERATIONS):
        x = perm[x]
        y += table[x]
    return time.perf_counter() - start


class Speed:
    """Scales each measured time to a machine on which the kernel takes KERNEL_S.

    A shared host's speed moves by itself: on a 2-core Xeon VM the same query
    took from 5.3 to 9.8 ms in 5 s windows over 150 s, in phases of seconds
    to minutes, so a run's median follows the phases it met.  The kernel is
    timed right before and right after each measured interval, and the
    interval is divided by the mean of the two and multiplied by KERNEL_S.
    The same windows of that query, scaled, spread by 3.5% (IQR/median)
    where the raw ones spread by 26-30%.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the kernel; call it right before a measured interval."""
        self.samples.append(kernel_s())

    def scale(self, elapsed: float) -> float:
        """`elapsed` seconds, measured since the last sample, at the fixed speed."""
        before = self.samples[-1]
        self.sample()
        return elapsed * KERNEL_S * 2 / (before + self.samples[-1])

    def time(self, fn) -> float:
        """Scaled seconds of `fn()`, which returns the seconds it measured."""
        self.sample()
        return self.scale(fn())

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())["digests"]


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once `seconds` have passed.

    It uses SIGALRM, so a wait inside the block blocks in the kernel.  A
    `timeout=` argument to subprocess would poll instead, with sleeps of up
    to 50 ms, and a child's measured time would round up to the next poll.
    """

    def expire(signum, frame):
        raise TimeoutError(f"a child process ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_child(cmd, env=None, capture=True, while_waiting=None) -> tuple[int, bytes, bytes, float]:
    """Run a child to its exit: (exit status, stdout, stderr, wall seconds from spawn to exit).

    `while_waiting`, if given, is called over and over until the child
    exits; the wall time then overshoots the exit by up to one call.
    """
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env or child_env(), cwd=ROOT, stdout=pipe, stderr=pipe)
    try:
        with deadline(CHILD_TIMEOUT_S):
            while while_waiting and proc.poll() is None:
                while_waiting()
            out, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out or b"", err or b"", time.perf_counter() - start


def setup_child(workload: str) -> float:
    """Set-up seconds of a workload, measured by a fresh interpreter and scaled.

    A set-up takes up to seconds, longer than the machine holds one speed,
    so kernel times taken just before and after it would not say how fast
    the machine ran meanwhile.  Instead the kernel is timed every 10 ms
    while the child runs, and the child's own time is scaled by their median.
    """
    kernel = []

    def sample():
        kernel.append(kernel_s())
        time.sleep(0.01)

    code, out, err, _ = run_child([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload], while_waiting=sample)
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')[-500:]}")
    return float(out.split()[-1]) * KERNEL_S / statistics.median(kernel or [kernel_s()])


class SetupProbes:
    """Set-up samples from fresh interpreters, taken a few at a time through a run.

    The machine's speed drifts from second to second, so samples spread over
    the run give a median that depends less on the moment the run started.
    """

    def __init__(self, probe, total: int):
        self.probe = probe  # () -> scaled seconds
        self.total = total
        self.samples: list[float] = []

    def take(self, count: int = 1) -> None:
        for _ in range(min(count, self.total - len(self.samples))):
            self.samples.append(self.probe())

    def median(self) -> float:
        self.take(self.total)
        return statistics.median(self.samples)
