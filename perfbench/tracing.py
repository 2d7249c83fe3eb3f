"""In-memory spans and counters around the public functions of weylord's layers.

Tracing is installed only in a `--trace 1` run, and only from these files:
nothing under src/ knows about it.  `install()` replaces every public
function of each layer module with a wrapper that records a span
(name, start, end, parent span, query id), and patches the same object
wherever another weylord module imported it by name, so calls between
layers are seen too.  A few methods are wrapped by hand: the group build,
the root table, the Bruhat poset build and the oracle's case build.  Hot
helpers get counters instead of spans, because a span on each of their
millions of calls would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("rootdata", "intlinalg", "weyl", "posets", "grading", "ext", "fileio", "cli", "oracle")

# Vector helpers called from every reflection: no span, no counter.
UNTRACED = {"intlinalg": {"dot", "vadd", "vsub", "vscale", "zero_vector", "unit_vector"}}
# Hot functions and methods: a call counter, plus accumulated time when timed.
COUNTED = {("oracle", None, "brute_bruhat"): True, ("weyl", "WeylGroup", "bruhat_leq"): False}
# Methods that carry a layer's work but are not module-level functions.
SPAN_METHODS = (
    ("rootdata", "RootDatum", "isogeny_flags"),
    ("weyl", "WeylGroup", "__init__"),
    ("posets", "FinitePoset", "__init__"),
    ("oracle", "SweepCase", "build"),
)


class Tracer:
    """Spans and counters of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, query id)
        self.counters: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)  # accumulated time of counted calls
        self.query = None
        self._counts: dict = {}  # name -> reader of a counted wrapper's call count
        self._stack: list[int] = []
        self._installed: list = []  # (owner, attribute, original) to restore

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        spans, stack, clock, counters = self.spans, self._stack, time.perf_counter, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counters[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.query)
            if after is not None:
                after(counters, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn, timed: bool):
        """A wrapper that only counts calls (and sums their time when timed).

        The count lives in a closure cell and is read back by `export`,
        which is cheaper per call than updating a Counter.
        """
        seconds, clock = self.seconds, time.perf_counter
        calls = 0

        if timed:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                nonlocal calls
                calls += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[name] += clock() - start

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                nonlocal calls
                calls += 1
                return fn(*args, **kwargs)

        self._counts[name] = lambda: calls
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of an imported weylord package in place."""
        modules = {name: importlib.import_module(f"weylord.{name}") for name in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr in UNTRACED.get(layer, ()):
                    continue
                key = (layer, None, attr)
                if key in COUNTED:
                    replaced[fn] = self.counted(f"{layer}.{attr}", fn, COUNTED[key])
                else:
                    replaced[fn] = self.span(f"{layer}.{attr}", fn, _AFTER.get(f"{layer}.{attr}"))
        # every module that imported a wrapped function by name sees the wrapper
        for mod in [m for n, m in sys.modules.items() if n == "weylord" or n.startswith("weylord.")]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._patch(mod, attr, replaced[value])
        for layer, cls_name, meth in SPAN_METHODS:
            cls = getattr(modules[layer], cls_name, None)
            if cls is not None and meth in vars(cls):
                name = f"{layer}.{cls_name}.{meth}"
                self._patch(cls, meth, self.span(name, vars(cls)[meth], _AFTER.get(name)))
        for (layer, cls_name, meth), timed in COUNTED.items():
            if cls_name is None:
                continue
            cls = getattr(modules[layer], cls_name, None)
            if cls is not None and meth in vars(cls):
                self._patch(cls, meth, self.counted(f"{layer}.{cls_name}.{meth}", vars(cls)[meth], timed))
        # the root table is a cached property: wrap the function it caches
        datum_cls = modules["rootdata"].RootDatum
        prop = vars(datum_cls).get("roots")
        if isinstance(prop, functools.cached_property):
            wrapped = functools.cached_property(self.span("rootdata.RootDatum.roots", prop.func))
            wrapped.__set_name__(datum_cls, "roots")
            self._patch(datum_cls, "roots", wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- export --------------------------------------------------------------

    def export(self) -> dict:
        counters = Counter(self.counters)
        for name, read in self._counts.items():
            counters[name] += read()
        return {
            "spans": [list(s) for s in self.spans if s is not None],
            "counters": dict(counters),
            "seconds": dict(self.seconds),
        }


def _count_group(counters, args, result):
    counters["weyl.group_elements"] += len(args[0].elements)


def _count_table(counters, args, result):
    counters["weyl.coset_reps"] += len(result.reps)


def _count_terms(counters, args, result):
    counters["grading.terms"] += len(result)
    counters["grading.surviving_terms"] += sum(1 for t in result if t.survives)


def _count_reports(counters, args, result):
    counters["oracle.divergences"] += sum(1 for r in result if not r.agreement)


_AFTER = {
    "weyl.WeylGroup.__init__": _count_group,
    "weyl.double_coset_table": _count_table,
    "grading.graded_terms": _count_terms,
    "oracle.sweep": _count_reports,
}


# -- per-layer metrics from spans --------------------------------------------------


def _sum(spans, *names) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] in names)


def _count(spans, *names) -> int:
    return sum(1 for s in spans if s[0] in names)


def layer_metrics(traces: list[dict], cli_calls: list[dict] | None = None) -> dict:
    """Every per-layer metric, from merged exports of one or more processes.

    A layer's self time is the time its spans cover minus the time their
    direct child spans cover; counted (unspanned) calls stay inside the self
    time of the span that made them.
    """
    per_layer_self = defaultdict(float)
    spans_all = []
    counters: Counter = Counter()
    seconds: defaultdict = defaultdict(float)
    case_times = []
    for trace in traces:
        spans = [tuple(s) for s in trace["spans"]]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for i, s in enumerate(spans):
            per_layer_self[s[0].split(".", 1)[0]] += (s[2] - s[1]) - child[i]
        # oracle cases: from one case build to the next, or to the end of the sweep
        for i, s in enumerate(spans):
            if s[0] != "oracle.sweep":
                continue
            starts = [c[1] for c in spans if c[0] == "oracle.SweepCase.build" and c[3] == i]
            bounds = sorted(starts) + [s[2]]
            case_times += [b - a for a, b in zip(bounds, bounds[1:])]
        spans_all += spans
        counters.update(trace["counters"])
        for k, v in trace["seconds"].items():
            seconds[k] += v
    sp = spans_all
    terms = counters["grading.terms"]
    raised_by_loaders = sum(
        v for k, v in counters.items() if k.split("!")[0] in ("fileio.load_datum", "fileio.load_scenario")
    )
    m = {
        "weyl.group_build_s": _sum(sp, "weyl.WeylGroup.__init__"),
        "weyl.group_builds": _count(sp, "weyl.WeylGroup.__init__"),
        "weyl.group_elements": counters["weyl.group_elements"],
        "weyl.coset_table_s": _sum(sp, "weyl.double_coset_table"),
        "weyl.coset_table_calls": _count(sp, "weyl.double_coset_table"),
        "weyl.coset_reps": counters["weyl.coset_reps"],
        "weyl.bruhat_leq_calls": counters["weyl.WeylGroup.bruhat_leq"],
        "weyl.cross_section_s": _sum(sp, "weyl.cross_section"),
        "weyl.opposition_s": _sum(sp, "weyl.opposition_map"),
        "grading.profile_s": _sum(sp, "grading.full_profile"),
        "grading.graded_terms_s": _sum(sp, "grading.graded_terms"),
        "grading.graded_terms_calls": _count(sp, "grading.graded_terms"),
        "grading.terms": terms,
        "grading.surviving_ratio": counters["grading.surviving_terms"] / terms if terms else 0.0,
        "posets.bruhat_poset_s": _sum(sp, "posets.FinitePoset.__init__"),
        "posets.lin_identity_s": _sum(sp, "posets.check_lin_identity"),
        "oracle.case_s": sum(case_times) / len(case_times) if case_times else 0.0,
        "oracle.brute_bruhat_calls": counters["oracle.brute_bruhat"],
        "oracle.brute_bruhat_s": seconds["oracle.brute_bruhat"],
        "oracle.brute_double_reps_s": _sum(sp, "oracle.brute_double_reps"),
        "oracle.naive_dw_delta_s": _sum(sp, "oracle.naive_dw_delta"),
        "oracle.divergences": counters["oracle.divergences"],
        "fileio.load_s": _sum(sp, "fileio.load_datum", "fileio.load_scenario"),
        "fileio.input_errors": raised_by_loaders,
        "rootdata.roots_s": _sum(sp, "rootdata.RootDatum.roots"),
        "intlinalg.isogeny_s": _sum(sp, "intlinalg.surjective_over_z"),
        "ext.verdict_s": _sum(sp, "ext.ext1_verdict", "ext.extn_mode"),
        "ext.consistency_s": _sum(sp, "ext.check_consistency"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_layer_self[layer]
    calls = cli_calls or []
    m["cli.import_s"] = sum(c["import_s"] for c in calls)
    m["cli.main_s"] = sum(c["main_s"] for c in calls)
    m["cli.outside_main_s"] = sum(c["wall_s"] - c["main_s"] for c in calls)
    m["cli.stdout_bytes"] = sum(c["stdout_bytes"] for c in calls)
    m["cli.tracebacks"] = sum(1 for c in calls if c["traceback"])
    m["cli.exit_nonzero"] = sum(1 for c in calls if c["exit"] != 0)
    m["trace.spans"] = len(sp)
    m["trace.counted_calls"] = sum(v for k, v in counters.items() if k in _COUNTED_NAMES)
    return m


_COUNTED_NAMES = {f"{layer}.{cls}.{meth}" if cls else f"{layer}.{meth}" for layer, cls, meth in COUNTED}
