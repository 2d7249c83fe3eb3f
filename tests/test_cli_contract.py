"""The CLI's output contract: stdout, stderr and exit code over a fixed grid of calls.

Each call runs `weylord.cli.main` in process on datum files written to a
temporary directory.  A sha256 of the call's exit code, stdout and stderr must
equal the digest recorded for it in `cli_contract.json`, so a refactor that
changes any byte of any of these outputs names the calls it changed.  When an
output is meant to change, re-record the digests with

    PYTHONPATH=src python tests/test_cli_contract.py > tests/cli_contract.json

and say in the change which calls moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import shlex
import sys
import tempfile
from pathlib import Path

from weylord.cli import main

RECORDED = Path(__file__).with_name("cli_contract.json")

GL3 = """
name = "GL3"
rank = 3
simple_roots = [[1,-1,0],[0,1,-1]]
simple_coroots = [[1,-1,0],[0,1,-1]]
"""

# file name -> (datum file text, number of simple roots); a call names its datum by file name
DATA = {
    "A1": ('type = "A1"\n', 1),
    "A2": ('type = "A2"\n', 2),
    "A3": ('type = "A3"\n', 3),
    "B3": ('type = "B3"\n', 3),
    "C3": ('type = "C3"\n', 3),
    "G2": ('type = "G2"\n', 2),
    "A1xA1": ('type = "A1xA1"\n', 2),
    "GL3": (GL3, 2),
    "A2d22": ('name = "A2 d=(2,2)"\ntype = "A2"\nmultiplicity = [2,2]\n', 2),
}
COSETS = ("A1", "A2", "A3", "B3", "G2", "A1xA1", "GL3", "A2d22")
GRADING = ("G2", "GL3", "A2d22")


def _subset_pairs(name):
    labels = [f"a{k + 1}" for k in range(DATA[name][1])]
    subsets = [",".join(c) for k in range(len(labels) + 1) for c in itertools.combinations(labels, k)]
    return itertools.product(subsets, repeat=2)


def calls() -> list[tuple[str, ...]]:
    """The grid, as argument lists whose second entry is a key of DATA."""
    out = []
    for name in DATA:
        out += [("info", name), ("bruhat", name, "--list")]
    for name in COSETS:
        for I, J in _subset_pairs(name):
            out += [("cosets", name, "--I", I, "--J", J), ("cosets", name, "--I", I, "--J", J, "--json")]
    for name in GRADING:
        for I, J in _subset_pairs(name):
            base = ("grading", name, "--I", I, "--J", J)
            out += [
                base + ("--e", "2", "--profile", "3", "--sigma", "supersingular", "--json"),
                base + ("--e", "1", "--n", "2", "--sigma", "right_cuspidal", "--side", "jacquet", "--strict"),
            ]
    out += [
        ("bruhat", "A2", "--leq", "a1 a2", "a2 a1 a2"),
        ("bruhat", "A2", "--leq", "a1", "a7"),
        ("cosets", "A2", "--I", "a9", "--J", "a1"),
        ("grading", "GL3", "--I", "a1", "--J", "a1", "--e", "0", "--n", "1", "--sigma", "none"),
        ("grading", "GL3", "--I", "a1", "--J", "a1", "--e", "1", "--profile", "-1", "--sigma", "none"),
        ("grading", "GL3", "--I", "a1", "--J", "a1", "--e", "1", "--n", "1", "--sigma", "bogus"),
        ("grading", "A2", "--I", "a1", "--J", "a2", "--e", "1", "--n", "1", "--sigma", "none", "--side", "ord", "--json"),
    ]
    return out


def run_grid(directory: Path) -> dict:
    """Call key -> (exit code, stdout, stderr) for every call of the grid."""
    for name, (text, _) in DATA.items():
        (directory / name).write_text(text)
    out = {}
    for argv in calls():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([argv[0], str(directory / argv[1]), *argv[2:]])
        out[shlex.join(argv)] = (code, stdout.getvalue(), stderr.getvalue())
    return out


def digest(result) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


def test_cli_output_matches_the_recorded_digests(tmp_path):
    recorded = json.loads(RECORDED.read_text())
    results = run_grid(tmp_path)
    assert len(results) > 500
    assert sorted(results) == sorted(recorded), "the grid of calls differs from the recorded one"
    leaked = [key for key, (_, out, err) in results.items() if str(tmp_path) in out + err]
    assert not leaked, f"output names the temporary directory: {leaked[:5]}"
    changed = [key for key, result in results.items() if digest(result) != recorded[key]]
    assert not changed, f"{len(changed)} calls changed their output, first: {changed[:10]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        grid = run_grid(Path(directory))
    json.dump({key: digest(result) for key, result in grid.items()}, sys.stdout, indent=0)
    sys.stdout.write("\n")
