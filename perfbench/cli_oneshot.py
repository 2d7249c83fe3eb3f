"""cli-oneshot: one `weylord` command per child process, as at a shell.

A pass is a fixed design of six blocks of twenty calls.  Each block holds
two `info`, three `cosets`, two `cosets --json`, three `bruhat --leq`,
three `grading --n`, two `grading --profile` (rank <= 3 only), two `ext`,
two `ext --n` and one malformed-input probe, so about 5% of calls are
probes.  The design fixes each call's datum, subset sizes, word lengths
and output flags.  The seed maps subsets and words through a symmetry of
the Coxeter diagram and picks the sigma flags, side, scenario relations and
the order, so every seed runs the same costs on other inputs.  A call is
timed from spawn to exit.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import sys

from common import (
    BENCH_DIR,
    OUT_DIR,
    SetupProbes,
    Speed,
    another_pass,
    child_env,
    coxeter_symmetries,
    digest,
    load_reference,
    peak_rss_mb,
    run_child,
    timing_metrics,
)


def _chain(n, label=None, at=None):
    return tuple((i, i + 1, label if i == at else 3) for i in range(n - 1))


# datum name -> (file text, number of simple roots, labelled Coxeter diagram)
DATUMS = {
    "A1": ('type = "A1"\n', 1, ()),
    "A2": ('type = "A2"\n', 2, _chain(2)),
    "A3": ('type = "A3"\n', 3, _chain(3)),
    "B2": ('type = "B2"\n', 2, _chain(2, 4, 0)),
    "B3": ('type = "B3"\n', 3, _chain(3, 4, 1)),
    "C3": ('type = "C3"\n', 3, _chain(3, 4, 1)),
    "G2": ('type = "G2"\n', 2, _chain(2, 6, 0)),
    "A1xA1": ('type = "A1xA1"\n', 2, ()),
    "A4": ('type = "A4"\n', 4, _chain(4)),
    "B4": ('type = "B4"\n', 4, _chain(4, 4, 2)),
    "C4": ('type = "C4"\n', 4, _chain(4, 4, 2)),
    "D4": ('type = "D4"\n', 4, ((0, 1, 3), (1, 2, 3), (1, 3, 3))),
    "F4": ('type = "F4"\n', 4, _chain(4, 4, 1)),
    "PGL3": ('name = "PGL3"\ntype = "A2"\nlattice = "adjoint"\n', 2, _chain(2)),
    "GL4": ('name = "GL4"\ntype = "A3"\nlattice = "gl"\n', 3, _chain(3)),
    # the explicit datum from the README
    "GL3": (
        'name = "GL3"\nrank = 3\nsimple_roots = [[1,-1,0],[0,1,-1]]\n'
        "simple_coroots = [[1,-1,0],[0,1,-1]]\n",
        2,
        _chain(2),
    ),
}
SYMMETRIES = {name: coxeter_symmetries(s, edges) for name, (_, s, edges) in DATUMS.items()}
SLOTS = (
    ("info",) * 2
    + ("cosets",) * 3
    + ("cosets_json",) * 2
    + ("bruhat",) * 3
    + ("grading_n",) * 3
    + ("grading_profile",) * 2
    + ("ext",) * 2
    + ("ext_n",) * 2
    + ("probe",)
)
BLOCKS = 6
# The malformed inputs of the ROADMAP baseline.  The first three end in a
# traceback at the commit that introduced this benchmark; they are counted
# as failed calls but do not make the run incorrect.
PROBES = ("multiplicity_x", "labels_int", "scenario_e_x", "unknown_label", "missing_file")
KNOWN_DEFECTS = {"multiplicity_x", "labels_int", "scenario_e_x"}
SIGMA_FLAGS = ("supersingular", "right_cuspidal", "left_cuspidal", "none", "right_cuspidal,left_cuspidal")
RECORDED_PASSES = 2  # passes per seed whose outputs the references hold
IMPORT_PROBES = 9
PROBE_EVERY = len(SLOTS) * BLOCKS // IMPORT_PROBES + 1  # spreads the probes over a pass
REPLAY_CALLS = 10  # calls run with and without tracing to measure its overhead
TRACEBACK = "Traceback (most recent call last)"
ENTRY = "import sys; from weylord.cli import main_entry; main_entry()"


def _sample(rng, s):
    return sorted(rng.sample(range(s), rng.randint(0, s)))


def design() -> list[dict]:
    """The seed-independent part of a pass: slot, datum, subsets, word shapes, flags."""
    rng = random.Random("cli-oneshot design")
    names = list(DATUMS)
    small = [n for n, (_, s, _) in DATUMS.items() if s <= 3]
    out = []
    for b in range(BLOCKS):
        for slot in SLOTS:
            if slot == "probe":
                out.append({"slot": slot, "probe": PROBES[b % len(PROBES)], "label": rng.randint(3, 9)})
                continue
            name = rng.choice(small if slot == "grading_profile" else names)
            s = DATUMS[name][1]
            t = {"slot": slot, "datum": name, "I": _sample(rng, s), "J": _sample(rng, s)}
            if slot == "bruhat":
                t["words"] = [[rng.randrange(s) for _ in range(rng.randint(0, 6))] for _ in range(2)]
            elif slot.startswith("grading"):
                e = rng.randint(1, 2)
                t.update(e=e, json=rng.random() < 0.5, strict=rng.random() < 0.25)
                t["degree"] = rng.randint(0, 4 * e) if slot == "grading_n" else rng.randint(0, 6)
            elif slot.startswith("ext"):
                t.update(same=slot == "ext_n" or rng.random() < 0.5, json=rng.random() < 0.5, n=rng.randint(0, 3))
            out.append(t)
    return out


def _labels(idx):
    return [f"a{i + 1}" for i in idx]


def _perp(name, I):
    """Simple roots outside I and not joined to it in the diagram."""
    near = set(I)
    for i, j, _ in DATUMS[name][2]:
        if i in I or j in I:
            near |= {i, j}
    return [k for k in range(DATUMS[name][1]) if k not in near]


def _scenario(rng, name, I, J, emerton):
    """A scenario that passes the consistency checks: rel_id is never "yes",
    at most one twist relation is "yes", and no pairing is omega_inverse
    (nor "one" when p = 2, which folds it into omega_inverse)."""
    p2 = rng.random() < 0.25
    lines = [
        f"I = {json.dumps(_labels(I))}; J = {json.dumps(_labels(J))}; e = {rng.randint(1, 3)}",
        f"p_is_2 = {str(p2).lower()}",
    ]
    for key in ("sigma", "sigma_prime"):
        flag = rng.choice(("supersingular", "right_cuspidal", "left_cuspidal", None))
        lines.append(f"{key} = {{ {flag} = true }}" if flag else f"{key} = {{ }}")
    perp = _labels(_perp(name, I))
    if perp:
        values = ("other", "unknown") if p2 else ("one", "other", "unknown")
        lines.append("pairings = { " + ", ".join(f'{a} = "{rng.choice(values)}"' for a in perp) + " }")
    if I == J:
        lines.append(f'rel_id = "{rng.choice(("no", "unknown"))}"')
        if perp:
            yes = rng.choice(perp + [None])
            twists = {a: "yes" if a == yes else rng.choice(("no", "unknown")) for a in perp}
            lines.append("rel_twist = { " + ", ".join(f'{a} = "{v}"' for a, v in twists.items()) + " }")
    lines.append(f"conjecture_assumed = {str(rng.random() < 0.5).lower()}")
    if emerton:
        lines.append("emerton_conjecture_assumed = true")
    return "\n".join(lines) + "\n"


def _call(rng, t):
    """One call: argv with @file placeholders, the files' texts, and a probe kind."""
    if t["slot"] == "probe":
        return _probe(t["probe"], t["label"])
    name, slot = t["datum"], t["slot"]
    perm = rng.choice(SYMMETRIES[name])
    I, J = sorted(perm[i] for i in t["I"]), sorted(perm[j] for j in t["J"])
    files = {"@datum": DATUMS[name][0]}
    if slot == "info":
        argv = ["info", "@datum"]
    elif slot in ("cosets", "cosets_json"):
        argv = ["cosets", "@datum", "--I", ",".join(_labels(I)), "--J", ",".join(_labels(J))]
        if slot == "cosets_json":
            argv.append("--json")
    elif slot == "bruhat":
        words = [" ".join(_labels(perm[g] for g in w)) or "e" for w in t["words"]]
        argv = ["bruhat", "@datum", "--leq", *words]
    elif slot.startswith("grading"):
        argv = ["grading", "@datum", "--I", ",".join(_labels(I)), "--J", ",".join(_labels(J)), "--e", str(t["e"])]
        argv += ["--n" if slot == "grading_n" else "--profile", str(t["degree"])]
        argv += ["--sigma", rng.choice(SIGMA_FLAGS), "--side", rng.choice(("ord", "jacquet"))]
        argv += ["--json"] * t["json"] + ["--strict"] * t["strict"]
    else:
        emerton = slot == "ext_n"
        files["@scenario"] = _scenario(rng, name, I, I if t["same"] else J, emerton)
        argv = ["ext", "@datum", "--scenario", "@scenario"]
        argv += ["--n", str(t["n"])] * emerton + ["--json"] * t["json"]
    return {"argv": argv, "files": files, "probe": None}


def _probe(kind, label):
    files = {"@datum": 'type = "A2"\n'}
    argv = ["info", "@datum"]
    if kind == "multiplicity_x":
        files["@datum"] = 'type = "A2"\nmultiplicity = ["x", 1]\n'
    elif kind == "labels_int":
        files["@datum"] = 'type = "A2"\nlabels = [1, 2]\n'
    elif kind == "scenario_e_x":
        files["@scenario"] = 'I = ["a1"]; J = ["a1"]; e = "x"\n'
        argv = ["ext", "@datum", "--scenario", "@scenario"]
    elif kind == "unknown_label":
        argv = ["cosets", "@datum", "--I", f"a{label}", "--J", "a1"]
    else:  # missing_file: a path that is never written
        files = {}
        argv = ["info", "@missing"]
    return {"argv": argv, "files": files, "probe": kind}


def make_pass(seed: int, index: int) -> list[dict]:
    rng = random.Random(f"cli-oneshot:{seed}:{index}")
    calls = [_call(rng, t) for t in design()]
    rng.shuffle(calls)
    return calls


def call_key(call: dict) -> str:
    return digest({"argv": call["argv"], "files": call["files"]})


def output_digest(exit_code: int, stdout: bytes) -> str:
    return digest([exit_code, stdout.decode("utf-8", "replace")])


class Files:
    """The datum and scenario files of a run, written once under the output directory."""

    def __init__(self):
        self.dir = OUT_DIR / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self._paths: dict[str, str] = {}

    def argv(self, call) -> list[str]:
        out = []
        for a in call["argv"]:
            if a == "@missing":
                out.append(str(self.dir / "missing.txt"))
            elif a in call["files"]:
                text = call["files"][a]
                path = self._paths.get(text)
                if path is None:
                    path = str(self.dir / f"f{len(self._paths)}.txt")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text)
                    self._paths[text] = path
                out.append(path)
            else:
                out.append(a)
        return out

    def remove(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def spawn(argv, traced: bool, trace_path=None) -> dict:
    """Run one call in a fresh interpreter and time it from spawn to exit."""
    env = child_env()
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), *argv]
        env["PERFBENCH_TRACE_OUT"] = str(trace_path)
    else:
        cmd = [sys.executable, "-c", ENTRY, *argv]
    code, out, err, wall = run_child(cmd, env)
    return {"exit": code, "stdout": out, "stderr": err.decode("utf-8", "replace"), "wall_s": wall}


def judge(call, out, reference) -> tuple[bool, bool]:
    """(passed, acceptable): a failed known-defect probe is still acceptable."""
    tb = TRACEBACK in out["stderr"]
    if call["probe"]:
        lines = out["stderr"].strip().splitlines()
        passed = out["exit"] in (1, 2) and not tb and bool(lines) and lines[-1].startswith("error:")
        return passed, passed or call["probe"] in KNOWN_DEFECTS
    key = call_key(call)
    if key in reference:
        passed = not tb and output_digest(out["exit"], out["stdout"]) == reference[key]
    else:
        passed = not tb and out["exit"] == 0 and bool(out["stdout"])
    return passed, passed


def run(seed: int, seconds: float, tracer=None) -> dict:
    reference = load_reference("cli-oneshot")
    traced = tracer is not None
    speed = Speed()
    setup = SetupProbes(lambda: speed.time(_import_probe), 0 if traced else IMPORT_PROBES)
    files = Files()
    latencies, raw, verdicts, child_calls, traces = [], [], [], [], []
    timed = 0.0
    passes = 0
    try:
        while another_pass(timed, passes, len(latencies), seconds):
            for i, call in enumerate(make_pass(seed, passes)):
                if i % PROBE_EVERY == 0:
                    setup.take()
                argv = files.argv(call)
                trace_path = files.dir / "trace.json"
                speed.sample()
                out = spawn(argv, traced, trace_path)
                latencies.append(speed.scale(out["wall_s"]))
                raw.append(out["wall_s"])
                timed += out["wall_s"]
                verdicts.append(judge(call, out, reference))
                if traced:
                    child = json.loads(trace_path.read_text())
                    trace_path.unlink()
                    for s in child["trace"]["spans"]:
                        s[4] = len(latencies) - 1
                    traces.append(child["trace"])
                    child_calls.append(
                        {
                            "import_s": child["import_s"],
                            "main_s": child["main_s"],
                            "wall_s": out["wall_s"],
                            "stdout_bytes": len(out["stdout"]),
                            "traceback": TRACEBACK in out["stderr"],
                            "exit": out["exit"],
                        }
                    )
            passes += 1
    finally:
        files.remove()
    failed = sum(1 for passed, _ in verdicts if not passed)
    metrics = timing_metrics(latencies)
    if setup.total:
        metrics["setup_s"] = (setup.median(), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    metrics["ok_frac"] = (1 - failed / len(verdicts), "fraction")
    return {
        "correct": all(ok for _, ok in verdicts),
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": metrics,
        "timed_s": timed,
        "raw": raw,
        "kernel_ms": speed.median_ms(),
        "traces": traces,
        "cli_calls": child_calls,
        "samples": {"calls": len(latencies), "passes": passes, "import_probes": len(setup.samples)},
        "replay": lambda traced: _replay(make_pass(seed, 0)[:REPLAY_CALLS], traced),
    }


def _replay(calls, traced: bool) -> float:
    files = Files()
    try:
        return sum(spawn(files.argv(c), traced, files.dir / "trace.json")["wall_s"] for c in calls)
    finally:
        files.remove()


def _import_probe() -> float:
    code, _, _, wall = run_child([sys.executable, "-c", "import weylord"], capture=False)
    if code != 0:
        raise RuntimeError("import weylord failed")
    return wall


def record(seeds) -> dict:
    files = Files()
    out = {}
    try:
        for seed in seeds:
            for index in range(RECORDED_PASSES):
                for call in make_pass(seed, index):
                    key = call_key(call)
                    if call["probe"] or key in out:
                        continue
                    res = spawn(files.argv(call), False)
                    if res["exit"] != 0 or TRACEBACK in res["stderr"]:
                        raise RuntimeError(f"well-formed call failed: {call['argv']}: {res['stderr'][-300:]}")
                    out[key] = output_digest(res["exit"], res["stdout"])
    finally:
        files.remove()
    return out
