"""library-profile: warm in-process library calls on groups built once.

A pass is a fixed design of 135 queries.  For every small type (B4, C4, D4,
F4, A5) and every pair of subset sizes 1 <= |I|, |J| <= 3 it holds one
`full_profile`, and for five of the nine pairs also one single-degree
`graded_terms` and one `double_coset_table`; the other 40 queries are on
maximal parabolics of B5 and A6 (all three kinds) and of an E6 datum
(terms and tables).  The seed maps each query's I and J through a symmetry
of the Coxeter diagram, and picks the side, sigma flags and degree.
Diagram symmetries keep lengths and double cosets, so every seed runs the
same costs on other inputs, and a run makes whole passes so that every run
has the same mix.

The mix places p90 inside a run of similar costs: the 100-130 ms profiles
of B4, C4, F4 and the maximal B5 and A6 parabolics.  With terms and tables
on all nine size pairs (175 queries), p90 fell on the edge between those
profiles and the E6 queries below them (60-80 ms), and moved by 13% from
run to run as single queries' noise decided which side it read.
"""

from __future__ import annotations

import gc
import random
import time

import weylord
from common import (
    another_pass,
    coxeter_symmetries,
    digest,
    load_reference,
    peak_rss_mb,
    SetupProbes,
    Speed,
    setup_child,
    timing_metrics,
)

# Bound before any tracing is installed, so the checks never show up in a trace.
from weylord.oracle import brute_double_reps, naive_dw_delta

SMALL = ("B4", "C4", "D4", "F4", "A5")
NUM_POSITIVE = {"B4": 16, "C4": 16, "D4": 12, "F4": 24, "A5": 15, "B5": 25, "A6": 21, "E6": 36}
SIZE_PAIRS = tuple((a, b) for a in (1, 2, 3) for b in (1, 2, 3))
KINDS = ("profile", "terms", "table")
SIGMAS = {
    "supersingular": {"supersingular": True},
    "right_cuspidal": {"right_cuspidal": True},
    "none": {},
}
REPLAY_QUERIES = 40  # queries run with and without tracing to measure its overhead
RECORDED_PASSES = 4  # passes per seed whose answers the references hold
BRUTE_MAX_ORDER = 1152  # tables on groups up to F4 are re-derived by brute force


def _chain(n, special=None):
    return tuple((i, i + 1, 4 if (i, i + 1) == special else 3) for i in range(n - 1))


# Labelled Coxeter diagrams; their symmetries are the seed's freedom in I and J.
DIAGRAMS = {
    "B4": (4, _chain(4, (2, 3))),
    "C4": (4, _chain(4, (2, 3))),
    "D4": (4, ((0, 1, 3), (1, 2, 3), (1, 3, 3))),
    "F4": (4, _chain(4, (1, 2))),
    "A5": (5, _chain(5)),
    "B5": (5, _chain(5, (3, 4))),
    "A6": (6, _chain(6)),
    "E6": (6, ((0, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (1, 3, 3))),
}
SYMMETRIES = {name: coxeter_symmetries(*diagram) for name, diagram in DIAGRAMS.items()}

# Bourbaki numbering: a1-a3-a4-a5-a6 with a2 attached to a4.  There is no
# E6 preset, so the datum is built here and cannot change with later presets.
E6_CARTAN = (
    (2, 0, -1, 0, 0, 0),
    (0, 2, 0, -1, 0, 0),
    (-1, 0, 2, -1, 0, 0),
    (0, -1, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, -1, 2),
)


def build_data() -> dict:
    """Every datum with its root table and Weyl group: the workload's set-up."""
    data = {}
    for name in SMALL + ("B5", "A6"):
        datum = weylord.preset_datum(name)
        data[name] = (datum, weylord.weyl_group(datum))
    unit = [tuple(int(i == j) for i in range(6)) for j in range(6)]
    e6 = weylord.explicit_datum(6, E6_CARTAN, unit, name="E6")
    data["E6"] = (e6, weylord.weyl_group(e6))
    if len(data["E6"][1]) != 51840 or e6.num_positive != 36:
        raise RuntimeError("the E6 datum does not have |W| = 51840 and 36 positive roots")
    return data


def _rank(name: str) -> int:
    return int(name[1:])


def design() -> list[dict]:
    """The seed-independent part of a pass: type, kind, I, J and e of each query."""
    rng = random.Random("library-profile design")
    out = []
    for name in SMALL:
        r = _rank(name)
        for p, (si, sj) in enumerate(SIZE_PAIRS):
            for kind in KINDS:
                # I = J = {a1} is the profile of the ROADMAP baseline
                I, J = ([0], [0]) if (si, sj) == (1, 1) else (rng.sample(range(r), si), rng.sample(range(r), sj))
                if kind == "profile" or p % 2 == 0:
                    out.append({"type": name, "kind": kind, "I": sorted(I), "J": sorted(J), "e": 1 + p % 2})
    for name, kinds, pairs in (("B5", KINDS, 5), ("A6", KINDS, 5), ("E6", KINDS[1:], 5)):
        r = _rank(name)
        for p in range(pairs):
            for kind in kinds:
                drop_i, drop_j = rng.randrange(r), rng.randrange(r)
                I = [i for i in range(r) if i != drop_i]
                J = [j for j in range(r) if j != drop_j]
                out.append({"type": name, "kind": kind, "I": I, "J": J, "e": 1 + p % 2})
    # The order is part of the design: the group caches fill as the queries
    # run, so a per-seed order would change what each query costs.
    rng.shuffle(out)
    return out


def make_pass(seed: int, index: int) -> list[dict]:
    rng = random.Random(f"library-profile:{seed}:{index}")
    queries = []
    for t in design():
        perm = rng.choice(SYMMETRIES[t["type"]])
        q = {"type": t["type"], "kind": t["kind"], "I": sorted(perm[i] for i in t["I"]), "J": sorted(perm[j] for j in t["J"])}
        if q["kind"] != "table":
            q.update(e=t["e"], side=rng.choice(("ord", "jacquet")), sigma=rng.choice(sorted(SIGMAS)))
        if q["kind"] == "terms":
            q["n"] = rng.randint(0, t["e"] * NUM_POSITIVE[t["type"]])
        queries.append(q)
    return queries


def query_key(q: dict) -> str:
    return digest(q)


def execute(q: dict, data: dict):
    datum, group = data[q["type"]]
    I, J = frozenset(q["I"]), frozenset(q["J"])
    if q["kind"] == "table":
        return weylord.double_coset_table(group, I, J)
    sigma = weylord.SigmaDescriptor(**SIGMAS[q["sigma"]])
    if q["kind"] == "terms":
        return weylord.graded_terms(datum, I, J, q["e"], q["n"], sigma, side=q["side"])
    return weylord.full_profile(datum, I, J, q["e"], sigma, side=q["side"])


def canonical(q: dict, result, datum):
    """What a caller reads from the answer, in a stable serialisation."""
    lab = datum.label_list
    if q["kind"] == "table":
        return [[str(e.rep), e.d, list(e.delta), lab(e.meet), lab(e.comeet)] for e in result.entries]

    def terms(ts):
        return [[t.render(datum), t.status.kind, t.status.rule] for t in ts]

    if q["kind"] == "terms":
        return terms(result)
    return {
        "max_degree": result.max_degree,
        "terms": {str(n): terms(ts) for n, ts in sorted(result.terms.items())},
        "checks": dict(result.corollary_checks),
    }


class IndependentCheck:
    """Independent re-derivation for queries that have no recorded digest."""

    def __init__(self, data):
        self.data = data
        self._reps = {}
        self._dw = {}

    def reps(self, name, I, J):
        group = self.data[name][1]
        if len(group) > BRUTE_MAX_ORDER:
            return None
        key = (name, I, J)
        if key not in self._reps:
            self._reps[key] = frozenset(brute_double_reps(group, I, J))
        return self._reps[key]

    def dw_delta(self, name, w):
        key = (name, w.index)
        if key not in self._dw:
            d, delta = naive_dw_delta(self.data[name][1], w)
            self._dw[key] = (d, tuple(delta))
        return self._dw[key]

    def _terms_ok(self, q, terms, n, reps) -> bool:
        conj = [t.conjugator for t in terms]
        if len(set(conj)) != len(conj) or (reps is not None and set(conj) != reps):
            return False
        sign = -1 if q["side"] == "ord" else 1
        for t in terms:
            d, delta = self.dw_delta(q["type"], t.conjugator)
            if t.degree != n or t.inner_degree != n - q["e"] * d:
                return False
            if tuple(t.twist) != tuple(sign * c for c in delta):
                return False
        return True

    def check(self, q, result) -> bool:
        name = q["type"]
        I, J = frozenset(q["I"]), frozenset(q["J"])
        reps = self.reps(name, I, J)
        if q["kind"] == "table":
            if reps is not None and frozenset(result.reps) != reps:
                return False
            return all((e.d, tuple(e.delta)) == self.dw_delta(name, e.rep) for e in result.entries)
        if q["kind"] == "terms":
            return self._terms_ok(q, result, q["n"], reps)
        if sorted(result.terms) != list(range(result.max_degree + 1)):
            return False
        if any(v is False for v in result.corollary_checks.values()):
            return False
        return all(self._terms_ok(q, ts, n, reps) for n, ts in result.terms.items())


def run(seed: int, seconds: float, tracer=None) -> dict:
    reference = load_reference("library-profile")
    speed = Speed()
    setup = SetupProbes(lambda: setup_child("library-profile"), 0 if tracer else 3)
    setup.take()
    data = build_data()
    check = IndependentCheck(data)
    outcomes = []
    # Pass 0 warms up, untimed and untraced but checked: it fills the groups'
    # lazy caches (inverses, cones, parabolic subgroups), so that every timed
    # pass runs on the same warm state.  Cold, the first pass's p90 was 25%
    # above a warm pass's, by an amount that moved from run to run.
    if tracer:
        tracer.uninstall()
    for q in make_pass(seed, 0):
        outcomes.append(_verdict(q, *_attempt(q, data), data, reference, check))
    if tracer:
        tracer.install()
    # The groups and their caches live as long as the process.  Frozen, they
    # are left out of the periodic full collections, which would otherwise
    # rescan the E6 group and put a pause of tens of milliseconds on
    # whichever query happened to trigger one.
    gc.collect()
    gc.freeze()
    latencies, raw = [], []
    clock = time.perf_counter
    timed = 0.0
    passes = 0
    while another_pass(timed, passes, len(latencies), seconds):
        for q in make_pass(seed, 1 + passes):
            if tracer:
                tracer.query = len(latencies)
            speed.sample()
            start = clock()
            result, error = _attempt(q, data)
            elapsed = clock() - start
            latencies.append(speed.scale(elapsed))
            raw.append(elapsed)
            timed += elapsed
            # checks run here, outside the timed region, so no result is kept alive
            outcomes.append(_verdict(q, result, error, data, reference, check))
        passes += 1
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
        "samples": {"queries": len(latencies), "setup_probes": len(setup.samples), "passes": passes, "warm_up": 1},
        "replay": lambda traced: _replay(make_pass(seed, 0)[:REPLAY_QUERIES], data),
    }


def _attempt(q: dict, data: dict):
    """(result, None), or (None, the exception) for a raising query, which fails."""
    try:
        return execute(q, data), None
    except Exception as exc:
        return None, exc


def _replay(queries, data) -> float:
    start = time.perf_counter()
    for q in queries:
        execute(q, data)
    return time.perf_counter() - start


def _verdict(q, result, error, data, reference, check) -> bool:
    if error is not None:
        return False
    key = query_key(q)
    if key in reference:
        return digest(canonical(q, result, data[q["type"]][0])) == reference[key]
    return check.check(q, result)


def record(seeds) -> dict:
    """Digests of the answers to the first passes of the given seeds.

    Each answer must also pass the independent re-derivation that a run
    applies to queries without a digest, so that check is known to hold here.
    """
    data = build_data()
    check = IndependentCheck(data)
    out = {}
    for seed in seeds:
        for index in range(RECORDED_PASSES):
            for q in make_pass(seed, index):
                key = query_key(q)
                if key in out:
                    continue
                result = execute(q, data)
                if not check.check(q, result):
                    raise RuntimeError(f"independent check disagrees on {q}")
                out[key] = digest(canonical(q, result, data[q["type"]][0]))
    return out
