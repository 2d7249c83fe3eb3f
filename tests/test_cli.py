import json

import pytest

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
    ],
)
def test_malformed_values_end_in_an_input_error(tmp_path, capsys, datum_text, scenario_text, message):
    datum = tmp_path / "datum.txt"
    datum.write_text(datum_text)
    argv = ["info", str(datum)]
    if scenario_text is not None:
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(scenario_text)
        argv = ["ext", str(datum), "--scenario", str(scenario)]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("error:") and message in err[-1]
