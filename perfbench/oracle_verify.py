"""oracle-verify: the brute-force verification sweep over a pinned case list.

The case list lives here, not in `weylord.oracle.DEFAULT_TYPES`, so that
widening the default sweep cannot change the workload.  A query is one
verified (type, I, J) report.  The seed orders the cases and seeds the
sweep's random reduced words; a run repeats whole sweeps until its time is
up, so every run verifies the same reports.
"""

from __future__ import annotations

import random
import time

import weylord.oracle
from common import SetupProbes, Speed, another_pass, digest, load_reference, peak_rss_mb, setup_child, timing_metrics

CASES = (
    ("A1", None),
    ("A2", None),
    ("A3", None),
    ("B2", None),
    ("B3", None),
    ("C3", None),
    ("G2", None),
    ("A1xA1", None),
    ("A2", (2, 2)),
    ("A4", None),
)

REPLAY = ("B3", "C3")  # the slice that measures the tracing overhead


def build_data() -> list:
    """Every case's datum, root table and Weyl group: the workload's set-up."""
    cases = [weylord.oracle.SweepCase(t, multiplicity=m) for t, m in CASES]
    for case in cases:
        weylord.weyl_group(case.build())
    return cases


def report_key(r) -> str:
    return f"{r.case} I={','.join(r.I)} J={','.join(r.J)}"


def report_view(r) -> list:
    return [r.agreement, r.first_divergence]


def timed_sweep(cases, seed, speed=None):
    """One sweep: (reports, each report's seconds, the same scaled by `speed`, wall seconds).

    The module's report constructor is swapped for one that also reads the
    clock, which costs two clock reads per report of several milliseconds.
    With `speed`, it also times the reference kernel after each report,
    between those two reads, so outside the reports' times.
    """
    original = weylord.oracle.OracleReport
    raw, scaled = [], []
    clock = time.perf_counter
    last = 0.0

    def stamped(**fields):
        nonlocal last
        report = original(**fields)
        elapsed = clock() - last
        raw.append(elapsed)
        if speed:
            scaled.append(speed.scale(elapsed))
        last = clock()
        return report

    weylord.oracle.OracleReport = stamped
    try:
        if speed:
            speed.sample()
        start = last = clock()
        reports = weylord.oracle.sweep(cases=cases, seed=seed)
        end = clock()
    finally:
        weylord.oracle.OracleReport = original
    if len(raw) != len(reports):
        raise RuntimeError("the sweep made reports the benchmark did not see")
    return reports, raw, scaled, end - start


def run(seed: int, seconds: float, tracer=None) -> dict:
    rng = random.Random(f"oracle-verify:{seed}")
    reference = load_reference("oracle-verify")
    speed = Speed()
    setup = SetupProbes(lambda: setup_child("oracle-verify"), 0 if tracer else 9)
    setup.take(4)
    cases = build_data()
    rng.shuffle(cases)
    latencies, raw, outcomes = [], [], []
    timed = 0.0
    sweeps = 0
    while another_pass(timed, sweeps, len(latencies), seconds):
        reports, lat, scaled, _ = timed_sweep(cases, seed + sweeps, speed)
        latencies += scaled
        raw += lat
        timed += sum(lat)
        sweeps += 1
        for r in reports:
            key = report_key(r)
            ok = r.agreement and (key not in reference or digest(report_view(r)) == reference[key])
            outcomes.append(ok)
        setup.take()
    failed = sum(1 for ok in outcomes if not ok)
    metrics = timing_metrics(latencies)
    if setup.total:
        metrics["setup_s"] = (setup.median(), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["ok_frac"] = (1 - failed / len(outcomes), "fraction")
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
        "timed_s": timed,
        "raw": raw,
        "kernel_ms": speed.median_ms(),
        "samples": {"reports": len(latencies), "sweeps": sweeps, "setup_probes": len(setup.samples)},
        "replay": lambda traced: timed_sweep([c for c in cases if c.dynkin in REPLAY], seed)[3],
    }


def record(seeds) -> dict:
    out = {}
    for seed in seeds:
        reports = timed_sweep(build_data(), seed)[0]
        for r in reports:
            if not r.agreement:
                raise RuntimeError(f"the oracle diverges on {report_key(r)}: {r.first_divergence}")
            out[report_key(r)] = digest(report_view(r))
    return out
