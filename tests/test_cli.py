import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylord
import weylord.oracle
from weylord.cli import main
from weylord.grading import SigmaDescriptor, full_profile
from weylord.ext import Scenario, ext1_verdict
from weylord.fileio import load_datum
from weylord.weyl import double_coset_table, weyl_group

DATUM = """
name = "GL3"
type = "A2"
lattice = "gl"
"""

GL4 = """
name = "GL4"
type = "A3"
lattice = "gl"
"""

SCENARIO = """
I = ["a1"]; J = ["a1"]; e = 1
sigma = { supersingular = true }
sigma_prime = { supersingular = true }
rel_twist = { a3 = "yes" }; rel_id = "no"
pairings = { a3 = "other" }
"""


@pytest.fixture()
def datum_file(tmp_path):
    path = tmp_path / "gl3.txt"
    path.write_text(DATUM)
    return str(path)


@pytest.fixture()
def gl4_file(tmp_path):
    path = tmp_path / "gl4.txt"
    path.write_text(GL4)
    return str(path)


def test_info(datum_file, capsys):
    assert main(["info", datum_file]) == 0
    out = capsys.readouterr().out
    assert "rank: 3" in out and "weyl group order: 6" in out
    assert "fundamental weights exist: true" in out


def test_cosets_text(datum_file, capsys):
    assert main(["cosets", datum_file, "--I", "a1", "--J", "a2"]) == 0
    out = capsys.readouterr().out
    assert "reps: 2" in out
    assert "a2 a1" in out


def test_cosets_json_roundtrip(datum_file, capsys):
    assert main(["cosets", datum_file, "--I", "a1", "--J", "a2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    datum = load_datum(datum_file)
    group = weyl_group(datum)
    table = double_coset_table(group, datum.subset(["a1"]), datum.subset(["a2"]))
    assert payload["reps"][1]["word"] == "a2 a1"
    assert payload["reps"][1]["delta"] == list(table.entries[1].delta)
    assert payload["bruhat_leq"] == [list(r) for r in table.leq]
    # every printed word parses back to the same element
    for rep in payload["reps"]:
        assert str(group.parse_word(rep["word"])) == rep["word"]


def test_subset_arguments(datum_file, capsys):
    assert main(["cosets", datum_file, "--I", "", "--J", "all"]) == 0
    out = capsys.readouterr().out
    assert "I = []" in out and "J = [a1 a2]" in out


def test_bruhat(datum_file, capsys):
    assert main(["bruhat", datum_file, "--leq", "a1", "a2 a1"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["bruhat", datum_file, "--leq", "a1 a2", "a2 a1"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["bruhat", datum_file, "--list"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith("e") and len(out.splitlines()) == 6


def test_grading_single_degree(gl4_file, capsys):
    assert main(["grading", gl4_file, "--I", "a1", "--J", "a1", "--e", "1",
                 "--n", "1", "--sigma", "supersingular"]) == 0
    out = capsys.readouterr().out
    assert "HOrd^0" in out and "omega^{[0,0,-1,1]}" in out


def test_grading_profile_json_matches_library(gl4_file, capsys):
    assert main(["grading", gl4_file, "--I", "a1", "--J", "a1", "--e", "1",
                 "--profile", "1", "--sigma", "supersingular", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    datum = load_datum(gl4_file)
    I = datum.subset(["a1"])
    report = full_profile(datum, I, I, 1, SigmaDescriptor(supersingular=True), n_max=1)
    assert payload["max_degree"] == report.max_degree
    assert payload["corollary_checks"] == report.corollary_checks
    for n, terms in report.terms.items():
        rows = payload["terms"][str(n)]
        assert [r["conjugator"] for r in rows] == [str(t.conjugator) for t in terms]
        assert [r["status"] for r in rows] == [t.status.kind for t in terms]
        assert [tuple(r["twist"]) for r in rows] == [t.twist for t in terms]


@pytest.mark.parametrize("e, profile", [("1", "100000000"), ("100000000", "3")])
def test_grading_profile_over_the_cap_is_an_error(datum_file, capsys, e, profile):
    assert main(["grading", datum_file, "--I", "a1", "--J", "a1", "--e", e,
                 "--sigma", "supersingular", "--profile", profile]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the profile covers ") and "over the cap" in captured.err


def test_grading_jacquet_side(gl4_file, capsys):
    assert main(["grading", gl4_file, "--I", "a1", "--J", "a1", "--e", "1",
                 "--n", "1", "--sigma", "supersingular", "--side", "jacquet"]) == 0
    out = capsys.readouterr().out
    assert "H_0" in out and "omega^{[0,0,1,-1]}" in out


def test_ext_verdict(gl4_file, tmp_path, capsys):
    scen = tmp_path / "scen.txt"
    scen.write_text(SCENARIO)
    assert main(["ext", gl4_file, "--scenario", str(scen)]) == 0
    out = capsys.readouterr().out
    assert "ExactDim (1)" in out
    assert main(["ext", gl4_file, "--scenario", str(scen), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    datum = load_datum(gl4_file)
    expected = ext1_verdict(
        Scenario(
            datum,
            datum.subset(["a1"]),
            datum.subset(["a1"]),
            sigma=SigmaDescriptor(supersingular=True),
            sigma_prime=SigmaDescriptor(supersingular=True),
            rel_twist={datum.labels.index("a3"): "yes"},
            rel_id="no",
            central_pairings={datum.labels.index("a3"): "other"},
        )
    )
    for key, value in expected.to_dict().items():
        assert payload[key] == value


def test_ext_higher_degree(gl4_file, tmp_path, capsys):
    scen = tmp_path / "scen.txt"
    scen.write_text(SCENARIO + "\nemerton_conjecture_assumed = true\n")
    assert main(["ext", gl4_file, "--scenario", str(scen), "--n", "0"]) == 0
    assert "Iso" in capsys.readouterr().out


def test_verify_quick(capsys):
    assert main(["verify", "--types", "A1,A1xA1"]) == 0
    assert "agree" in capsys.readouterr().out
    assert main(["verify", "--types", "A1,A4", "--max-rank", "1"]) == 0
    assert capsys.readouterr().out == "all 4 cases agree\n"


def test_verify_max_rank_keeps_types_of_that_rank(monkeypatch, capsys):
    # the selection only: the rank-4 sweep itself takes seconds
    swept = []

    def fake_sweep(cases):
        swept.extend(c.label for c in cases)
        return []

    monkeypatch.setattr(weylord.oracle, "sweep", fake_sweep)
    assert main(["verify", "--types", "A4,D4", "--max-rank", "4"]) == 0
    assert swept == ["A4(simply_connected)", "D4(simply_connected)"]
    assert "no cases selected" not in capsys.readouterr().out
    assert main(["verify", "--types", "A4,D4", "--max-rank", "3"]) == 0
    assert capsys.readouterr().out == "no cases selected\n"
    # an unknown type is an error with or without a rank bound
    assert main(["verify", "--types", "X9", "--max-rank", "3"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_import_leaves_the_oracle_out():
    src = Path(weylord.__file__).resolve().parents[1]
    code = "import sys, weylord.cli; sys.exit('weylord.oracle' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_closed_stdout_pipe_ends_quietly(tmp_path):
    # 1008 reps, about 100 KB of output: more than the pipe and the reader's
    # buffer hold, so the command is still writing when the pipe closes
    datum = tmp_path / "b5.txt"
    datum.write_text('type = "B5"\n')
    src = Path(weylord.__file__).resolve().parents[1]
    code = "from weylord.cli import main_entry; main_entry()"
    with subprocess.Popen(
        [sys.executable, "-c", code, "cosets", str(datum), "--I", "a1", "--J", "a1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ) as proc:
        assert proc.stdout.readline().startswith(b"I = [a1]  J = [a1]  reps: 1008")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err, err


def test_exit_codes(datum_file, tmp_path, capsys):
    # unknown flag: command-line error
    assert main(["cosets", datum_file, "--I", "a1", "--J", "a2", "--bogus"]) == 1
    capsys.readouterr()
    # unknown label: domain error
    assert main(["cosets", datum_file, "--I", "zz", "--J", "a2"]) == 2
    capsys.readouterr()
    # missing file
    assert main(["info", str(tmp_path / "missing.txt")]) == 1
    capsys.readouterr()
    # unparsable datum
    bad = tmp_path / "bad.txt"
    bad.write_text("rank = ")
    assert main(["info", str(bad)]) == 1
    capsys.readouterr()
    # inconsistent scenario: domain error
    scen = tmp_path / "inconsistent.txt"
    scen.write_text(
        'I = ["a1"]; J = ["a1"]\n'
        "sigma = { supersingular = true }\nsigma_prime = { supersingular = true }\n"
        'rel_twist = { a3 = "no" }; rel_id = "yes"\npairings = { a3 = "omega_inverse" }\n'
    )
    gl4 = tmp_path / "gl4.txt"
    gl4.write_text(GL4)
    assert main(["ext", str(gl4), "--scenario", str(scen)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "datum_text, scenario_text, message",
    [
        ('type = "A2"\nmultiplicity = ["x", 1]\n', None, "'multiplicity' must be a list of integers"),
        ('type = "A2"\nlabels = [1, 2]\n', None, "'labels' must be a list of strings"),
        ('type = "A2"\nsplit = 3\n', None, "'split' must be a boolean"),
        ('type = "A2"\nname = 3\n', None, "'name' must be a string"),
        ('rank = 1\nsimple_roots = [["2"]]\nsimple_coroots = [[1]]\n', None, "'simple_roots' must be"),
        ('type = "A2"\n', 'I = ["a1"]; J = ["a1"]; e = "x"\n', "'e' must be an integer"),
        ('type = "A2"\n', 'I = "a1"; J = ["a1"]\n', "'I' must be a list of strings"),
        ('type = "A2"\n', 'I = ["a1"]; J = ["a1"]; p_is_2 = "no"\n', "'p_is_2' must be a boolean"),
        ('type = "A2"\n', 'I = ["a1"]; J = ["a1"]; sigma = { supersingular = 1 }\n', "'supersingular' must be a boolean"),
        # only ASCII digits make an integer, and int() is never handed more digits than it takes
        pytest.param(
            'type = "A2"\nsplit = \u00b2\n', None, "line 2: unexpected character '\u00b2'", id="superscript-digit"
        ),
        pytest.param(
            'type = "A2"\nsplit = \u0663\n', None, "line 2: unexpected character '\u0663'", id="arabic-indic-digit"
        ),
        pytest.param(
            'type = "A2"\nsplit = ' + "1" * 5000 + "\n",
            None,
            "line 2: integer literal longer than 4300 digits",
            id="5000-digit-literal",
        ),
        pytest.param(
            'type = "A2"\n',
            "I = []; J = []\ne = " + "[" * 5000,
            "line 2: lists and tables nest deeper than 100 levels",
            id="lists-nested-5000-deep",
        ),
    ],
)
def test_malformed_values_end_in_an_input_error(tmp_path, capsys, datum_text, scenario_text, message):
    datum = tmp_path / "datum.txt"
    datum.write_text(datum_text, encoding="utf-8")
    argv = ["info", str(datum)]
    if scenario_text is not None:
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(scenario_text, encoding="utf-8")
        argv = ["ext", str(datum), "--scenario", str(scenario)]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("error:") and message in err[-1]


def _run_in_600_mb(argv):
    """The CLI in a subprocess whose address space is capped at 600 MB."""
    src = Path(weylord.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    return subprocess.run(
        [sys.executable, "-m", "weylord.cli", *argv],
        env=env, capture_output=True, text=True, preexec_fn=limit_memory, timeout=60,
    )


@pytest.mark.parametrize("verb", ["info", "verify"])
def test_preset_over_the_root_cap_ends_in_an_error_line(tmp_path, verb):
    datum = tmp_path / "huge.txt"
    datum.write_text('type = "A30000"\n')
    argv = ["info", str(datum)] if verb == "info" else ["verify", "--types", "A30000"]
    # without the cap the Cartan block alone needs gigabytes
    run = _run_in_600_mb(argv)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr.strip().splitlines()[-1] == (
        "error: type A30000 has 450015000 positive roots, over the cap of 10000"
    )


def test_explicit_rank_over_the_root_cap_ends_in_an_error_line(tmp_path):
    datum = tmp_path / "wide.txt"
    datum.write_text("rank = 1000000000\nsimple_roots = []\nsimple_coroots = []\n")
    # without the cap, delta_w of the identity is a zero vector of 10^9 coordinates
    run = _run_in_600_mb(["cosets", str(datum), "--I", "", "--J", ""])
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr.strip().splitlines()[-1] == "error: rank 1000000000 is over the cap of 10000"


# Pieces of key/value documents: punctuation, names, keywords and ASCII and
# non-ASCII digits (superscript two, Arabic-Indic three, Devanagari one).
_DOCUMENT_PIECES = (
    "[", "]", "{", "}", '"', "=", ",", ";", "#", "\n", " ", "-",
    "rank", "type", "simple_roots", "simple_coroots", "multiplicity", "labels", "split",
    "I", "J", "e", "sigma", "pairings", "supersingular", "a1", '"A2"', '"a1"',
    "true", "false", "0", "1", "2", "7", "\u00b2", "\u0663", "\u0967",
)


@pytest.fixture(scope="module")
def drawn_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("drawn")
    (path / "gl4.txt").write_text(GL4)
    return path


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_DOCUMENT_PIECES), max_size=60).map("".join))
def test_random_documents_end_in_an_exit_status(drawn_dir, document):
    drawn = drawn_dir / "drawn.txt"
    drawn.write_text(document, encoding="utf-8")
    for argv in (["info", str(drawn)], ["ext", str(drawn_dir / "gl4.txt"), "--scenario", str(drawn)]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize("kind", ["datum_is_directory", "datum_not_utf8", "scenario_is_directory", "missing_file"])
def test_unreadable_files_end_in_an_error_line(tmp_path, kind):
    datum = tmp_path / "gl4.txt"
    datum.write_text(GL4)
    argv = ["info", str(tmp_path)]
    if kind == "datum_not_utf8":
        datum.write_bytes(b'name = "GL4\xff"\ntype = "A3"\n')
        argv = ["info", str(datum)]
    elif kind == "scenario_is_directory":
        argv = ["ext", str(datum), "--scenario", str(tmp_path)]
    elif kind == "missing_file":
        argv = ["info", str(tmp_path / "missing.txt")]
    src = Path(weylord.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-m", "weylord.cli", *argv], env=env, capture_output=True, text=True)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    last = run.stderr.strip().splitlines()[-1]
    assert last.startswith("error:")
    if kind == "missing_file":
        assert "No such file or directory" in last
