import pytest

from weylord import DomainError, InputError, preset_datum
from weylord.fileio import load_datum_text, load_scenario_text, parse_kv

DATUM_TEXT = """
name = "GL3"
rank = 3
simple_roots = [[1,-1,0],[0,1,-1]]
simple_coroots = [[1,-1,0],[0,1,-1]]
multiplicity = [1,1]          # optional, default all 1
labels = ["a1","a2"]          # optional, default a1..as
split = true                  # optional
"""

SCENARIO_TEXT = """
I = ["a1"]; J = ["a1"]; e = 1; p_is_2 = false
sigma = { supersingular = true }
sigma_prime = { supersingular = true }
rel_twist = { a3 = "yes" }; rel_id = "no"
pairings = { a3 = "other" }
conjecture_assumed = false
"""


def test_parse_kv_values():
    data = parse_kv('x = 3; y = "s"\nz = [1, [2, -3]]\nt = { a = true, b = "u" }')
    assert data == {"x": 3, "y": "s", "z": [1, [2, -3]], "t": {"a": True, "b": "u"}}


def test_parse_kv_errors():
    with pytest.raises(InputError):
        parse_kv("x = ")
    with pytest.raises(InputError):
        parse_kv('x = "unterminated')
    with pytest.raises(InputError):
        parse_kv("x = 1 y = 2")
    with pytest.raises(InputError):
        parse_kv("x = 1\nx = 2")
    with pytest.raises(InputError):
        parse_kv("x = [1, 2")
    with pytest.raises(InputError):
        parse_kv("= 3")


def test_load_datum(gl3):
    datum = load_datum_text(DATUM_TEXT)
    assert datum == gl3
    assert datum.name == "GL3" and datum.split


def test_load_datum_preset_shorthand():
    datum = load_datum_text('type = "A2"\nlattice = "gl"\nname = "GL3"')
    assert datum == preset_datum("A2", "gl", name="GL3")
    with pytest.raises(InputError, match="unknown keys"):
        load_datum_text('type = "A2"\nnonsense = 1')


def test_load_scenario(gl4):
    sc = load_scenario_text(SCENARIO_TEXT, gl4)
    assert sc.I == sc.J == gl4.subset(["a1"])
    assert sc.sigma.supersingular and sc.sigma_prime.supersingular
    assert sc.rel_id == "no"
    a3 = gl4.labels.index("a3")
    assert sc.rel_twist == {a3: "yes"}
    assert sc.central_pairings == {a3: "other"}
    assert not sc.conjecture_assumed


def test_load_scenario_errors(gl4):
    with pytest.raises(InputError, match="missing"):
        load_scenario_text('I = ["a1"]', gl4)
    with pytest.raises(InputError, match="unknown scenario keys"):
        load_scenario_text('I = ["a1"]; J = ["a1"]; zap = 1', gl4)
    with pytest.raises(DomainError, match="unknown simple-root label"):
        load_scenario_text('I = ["zz"]; J = ["a1"]', gl4)
    with pytest.raises(InputError, match="unknown sigma keys"):
        load_scenario_text('I = ["a1"]; J = ["a1"]; sigma = { cuspidal = true }', gl4)


def test_integer_and_nesting_limits_admit_what_they_bound():
    assert parse_kv("x = -" + "9" * 4300) == {"x": -int("9" * 4300)}
    with pytest.raises(InputError, match="line 1: integer literal longer than 4300 digits"):
        parse_kv("x = " + "9" * 4301)
    nested = []
    for _ in range(99):
        nested = [nested]
    assert parse_kv("x = " + "[" * 100 + "]" * 100) == {"x": nested}
    with pytest.raises(InputError, match="line 1: lists and tables nest deeper than 100 levels"):
        parse_kv("x = " + "[" * 101 + "]" * 101)
    with pytest.raises(InputError, match="line 1: lists and tables nest deeper than 100 levels"):
        parse_kv("x = " + "{ y = " * 101)
