import random
import re

import pytest

from weylord import (
    DomainError,
    Scenario,
    SigmaDescriptor,
    check_consistency,
    ext1_verdict,
    extn_mode,
    preset_datum,
)
from weylord.ext import lemma_gen_solvable

SS = SigmaDescriptor(supersingular=True)
PLAIN = SigmaDescriptor()
RIGHT = SigmaDescriptor(right_cuspidal=True)
LEFT = SigmaDescriptor(left_cuspidal=True)
BOTH = SigmaDescriptor(right_cuspidal=True, left_cuspidal=True)


@pytest.fixture(scope="module")
def gl4():
    return preset_datum("A3", "gl", name="GL4")


@pytest.fixture(scope="module")
def gl5():
    return preset_datum("A4", "gl", name="GL5")


def a(datum, label):
    return datum.labels.index(label)


# -- separating cocharacters ---------------------------------------------------


def test_lemma_gen_solvability_matches_isogeny_pattern(gl3, sl3, pgl3):
    assert lemma_gen_solvable(gl3, frozenset(), 0)
    assert not lemma_gen_solvable(sl3, frozenset(), 0)
    assert lemma_gen_solvable(pgl3, frozenset(), 0)


def test_lemma_gen_needs_orthogonal_root(gl3):
    with pytest.raises(DomainError):
        lemma_gen_solvable(gl3, gl3.subset(["a1"]), 0)


# -- consistency ----------------------------------------------------------------


def test_forced_identification_violation(gl4):
    I = gl4.subset(["a1"])
    bad = Scenario(
        gl4, I, I, sigma=SS, sigma_prime=SS,
        central_pairings={a(gl4, "a3"): "omega_inverse"},
        rel_twist={a(gl4, "a3"): "no"}, rel_id="yes",
    )
    viols = check_consistency(bad)
    assert viols and viols[0].rule == "central-twist"
    with pytest.raises(DomainError, match="inconsistent"):
        ext1_verdict(bad)
    # and the mirrored orientation
    bad2 = Scenario(
        gl4, I, I, sigma=SS, sigma_prime=SS,
        central_pairings={a(gl4, "a3"): "omega_inverse"},
        rel_twist={a(gl4, "a3"): "yes"}, rel_id="no",
    )
    assert check_consistency(bad2)


def test_distinct_central_characters_violation(gl4, gl5):
    I = gl4.subset(["a1"])
    bad = Scenario(
        gl4, I, I, sigma=SS, sigma_prime=SS,
        central_pairings={a(gl4, "a3"): "other"},
        rel_twist={a(gl4, "a3"): "yes"}, rel_id="yes",
    )
    assert any(v.rule == "central-characters" for v in check_consistency(bad))
    I5 = gl5.subset(["a1"])
    bad2 = Scenario(
        gl5, I5, I5, sigma=SS, sigma_prime=SS,
        central_pairings={a(gl5, "a3"): "other", a(gl5, "a4"): "other"},
        rel_twist={a(gl5, "a3"): "yes", a(gl5, "a4"): "yes"},
    )
    assert any(len(v.alphas) == 2 for v in check_consistency(bad2))


def test_empty_relations_consistent(gl4):
    I = gl4.subset(["a1"])
    assert check_consistency(Scenario(gl4, I, I, sigma=SS, sigma_prime=SS)) == []


def test_p2_collapses_pairings(gl4):
    # at p = 2 the pairing value "one" plays the omega_inverse role
    I = gl4.subset(["a1"])
    bad = Scenario(
        gl4, I, I, sigma=SS, sigma_prime=SS, p_is_2=True,
        central_pairings={a(gl4, "a3"): "one"},
        rel_twist={a(gl4, "a3"): "no"}, rel_id="yes",
    )
    assert check_consistency(bad)
    fine = Scenario(
        gl4, I, I, sigma=SS, sigma_prime=SS, p_is_2=False,
        central_pairings={a(gl4, "a3"): "one"},
        rel_twist={a(gl4, "a3"): "no"}, rel_id="yes",
    )
    # without p = 2 the same data instead trips the separating-character check
    assert all(v.rule != "central-twist" for v in check_consistency(fine))


def test_scenario_validation(gl4):
    I = gl4.subset(["a1"])
    with pytest.raises(DomainError):
        Scenario(gl4, I, I, e=0)
    with pytest.raises(DomainError):
        Scenario(gl4, I, I, rel_twist={a(gl4, "a2"): "yes"})  # a2 not orthogonal
    with pytest.raises(DomainError):
        Scenario(gl4, I, gl4.subset(["a2"]), rel_id="yes")  # relations need I == J
    with pytest.raises(DomainError):
        Scenario(gl4, I, I, rel_twist={a(gl4, "a3"): "maybe"})


# -- the decision tree -----------------------------------------------------------


LEVI_A1 = "induction identifies Ext^1_{L[a1]}(sigma', sigma) with Ext^1_G"
RIGHT_A12 = "induction identifies Ext^1_{L[a1 a2]}(Ind along P[a1]^- of sigma', sigma) with Ext^1_G"
LEFT_A12 = "induction identifies Ext^1_{L[a1 a2]}(sigma', Ind along P[a1]^- of sigma) with Ext^1_G"
GRADED_CONJ = "graded-pieces conjecture in degree 1 at the identity double-coset representative"
EMERTON = "Emerton's conjecture that derived ordinary parts compute the derived functors"


def expect(kind, citation, description, value=None, conditional_on=(), side_facts=()):
    """A verdict as `ExtVerdict.to_dict()` renders it."""
    return {
        "kind": kind,
        "value": value,
        "description": description,
        "conditional_on": list(conditional_on),
        "citations": [citation],
        "side_facts": list(side_facts),
    }


def fixture_scenarios():
    """Scenario table covering every branch and all split-centre cases."""
    a2 = preset_datum("A2", name="A2sc")
    gl4 = preset_datum("A3", "gl", name="GL4")
    sl2 = preset_datum("A1", "simply_connected", name="SL2")
    I1 = gl4.subset(["a1"])
    I12 = gl4.subset(["a1", "a2"])
    a3 = gl4.labels.index("a3")
    line = "the space of extensions between the induced representations is a line"
    bound = "induction embeds the Levi extensions with cokernel bounded by the twisted matches"
    rows = []
    # incomparable parabolics: conditional vanishing, then no verdict
    rows.append((
        Scenario(a2, a2.subset(["a1"]), a2.subset(["a2"]), sigma=SS, sigma_prime=SS,
                 conjecture_assumed=True),
        expect("Zero", "incomparable-cuspidal-vanishing",
               "no extensions between the two induced representations", 0, conditional_on=(GRADED_CONJ,)),
    ))
    rows.append((
        Scenario(a2, a2.subset(["a1"]), a2.subset(["a2"]), sigma=SS, sigma_prime=SS),
        expect("Inconclusive", "no-applicable-rule",
               "incomparable parabolics need cuspidality flags and the degree-one conjecture"),
    ))
    # large base field: always reduces to the Levi
    rows.append((Scenario(gl4, I1, I1, sigma=PLAIN, sigma_prime=PLAIN, e=2),
                 expect("Iso", "large-field-levi-isomorphism", LEVI_A1)))
    rows.append((Scenario(gl4, I12, I1, sigma=PLAIN, sigma_prime=PLAIN, e=3),
                 expect("Iso", "large-field-nested-right-isomorphism", RIGHT_A12)))
    rows.append((Scenario(gl4, I1, I12, sigma=PLAIN, sigma_prime=PLAIN, e=2),
                 expect("Iso", "large-field-nested-left-isomorphism", LEFT_A12)))
    # degree one, nested parabolics with a cuspidal side
    rows.append((Scenario(gl4, I12, I1, sigma=RIGHT, sigma_prime=PLAIN),
                 expect("Iso", "degree-one-nested-right-cuspidal", RIGHT_A12)))
    rows.append((Scenario(gl4, I1, I12, sigma=PLAIN, sigma_prime=LEFT),
                 expect("Iso", "degree-one-nested-left-cuspidal", LEFT_A12)))
    # split with connected centre: the three equal-parabolic cases
    rows.append((
        Scenario(gl4, I1, I1, sigma=SS, sigma_prime=SS,
                 rel_twist={a3: "yes"}, rel_id="no", central_pairings={a3: "other"}),
        expect("ExactDim", "split-connected-centre-dimension-one", line, 1,
               side_facts=("Ext^1 over the Levi between sigma' and sigma vanishes",)),
    ))
    rows.append((
        Scenario(gl4, I1, I1, sigma=SS, sigma_prime=SS, rel_id="yes",
                 central_pairings={a3: "omega_inverse"}, rel_twist={a3: "yes"}),
        expect("Iso", "split-connected-centre-isomorphism", LEVI_A1),
    ))
    rows.append((
        Scenario(gl4, I1, I1, sigma=SS, sigma_prime=SS, rel_twist={a3: "no"}),
        expect("Iso", "split-connected-centre-isomorphism", LEVI_A1),
    ))
    rows.append((
        Scenario(gl4, I1, I1, sigma=SS, sigma_prime=SS, p_is_2=True,
                 rel_twist={a3: "yes"}, rel_id="yes", central_pairings={a3: "one"}),
        expect("ExactCokernel", "split-connected-centre-p2-cokernel",
               "the cokernel of induction on Ext^1 counts conjugate identifications", 1),
    ))
    rows.append((
        Scenario(gl4, I1, I1, sigma=SS, sigma_prime=SS, p_is_2=True),
        expect("UpperBoundCokernel", "split-connected-centre-p2-cokernel",
               "unknown relations leave only an upper bound for the cokernel of induction", 1),
    ))
    # supercuspidal away from the split-connected hypotheses
    rows.append((
        Scenario(sl2, frozenset(), frozenset(), sigma=BOTH, sigma_prime=BOTH,
                 rel_twist={0: "no"}),
        expect("Iso", "supercuspidal-untwisted-isomorphism",
               "induction identifies Ext^1_{L[-]}(sigma', sigma) with Ext^1_G"),
    ))
    # one-sided cuspidality only gives the cokernel bound
    rows.append((
        Scenario(gl4, I1, I1, sigma=RIGHT, sigma_prime=PLAIN,
                 rel_twist={a3: "unknown"}),
        expect("UpperBoundCokernel", "cuspidal-cokernel-bound", bound, 1),
    ))
    rows.append((
        Scenario(gl4, I1, I1, sigma=SS, sigma_prime=SS, rel_twist={a3: "yes"}),
        expect("UpperBoundCokernel", "cuspidal-cokernel-bound", bound, 1),
    ))
    # no flags at all
    rows.append((
        Scenario(gl4, I1, I1, sigma=PLAIN, sigma_prime=PLAIN),
        expect("Inconclusive", "no-applicable-rule",
               "declared flags and relations select no branch of the decision tree"),
    ))
    # connected centre but not split: the split-connected-centre rules stay silent
    nonsplit = preset_datum("A2", "adjoint", multiplicity=(2, 2), name="nonsplit")
    rows.append((
        Scenario(nonsplit, frozenset(), frozenset(), sigma=SS, sigma_prime=SS),
        expect("Iso", "supercuspidal-untwisted-isomorphism",
               "induction identifies Ext^1_{L[-]}(sigma', sigma) with Ext^1_G"),
    ))
    return rows


def extn_fixture_scenarios():
    """(scenario, degree, verdict) rows covering every higher-degree rule, the top degree n = e included."""
    gl4 = preset_datum("A3", "gl", name="GL4")
    I1 = gl4.subset(["a1"])
    a3 = gl4.labels.index("a3")

    def sc(sigma, e, **kw):
        return Scenario(gl4, I1, I1, sigma=sigma, sigma_prime=sigma, e=e, emerton_conjecture_assumed=True, **kw)

    line = "the space Ext^2 between the induced representations is a line"
    vanishes = "Ext^2 over the Levi between sigma' and sigma vanishes"
    iso = "no twisted matches: induction is an isomorphism on Ext^1"
    bound = "induction embeds Ext^2 with cokernel bounded by the twisted matches"
    return [
        (sc(SS, 2), 0, expect("Iso", "full-faithfulness-degree-zero", "parabolic induction is fully faithful")),
        (sc(SS, 2), 1, expect("Iso", "low-degree-isomorphism",
                              "induction is an isomorphism on Ext^1 below the field degree",
                              conditional_on=(EMERTON,))),
        # top degree n = e
        (sc(SS, 2, rel_twist={a3: "yes"}, rel_id="no", central_pairings={a3: "other"}), 2,
         expect("ExactDim", "split-connected-centre-top-degree", line, 1,
                conditional_on=(EMERTON,), side_facts=(vanishes,))),
        (sc(BOTH, 1, rel_twist={a3: "no"}), 1,
         expect("Iso", "top-degree-cokernel-bound", iso, conditional_on=(EMERTON,))),
        (sc(BOTH, 2, rel_twist={a3: "unknown"}), 2,
         expect("UpperBoundCokernel", "top-degree-cokernel-bound", bound, 1, conditional_on=(EMERTON,))),
        (sc(RIGHT, 1), 1,
         expect("Inconclusive", "no-applicable-rule", "the top-degree rules need supercuspidal flags")),
        # above the field degree
        (sc(SS, 1), 3, expect("Inconclusive", "no-applicable-rule", "no rule applies above the field degree")),
    ]


def test_fixture_table_has_full_branch_coverage():
    rows = fixture_scenarios()
    assert len(rows) >= 12
    kinds = {expected["kind"] for _, expected in rows}
    assert kinds == {"Zero", "Inconclusive", "Iso", "ExactDim", "ExactCokernel", "UpperBoundCokernel"}


@pytest.mark.parametrize("idx", range(len(fixture_scenarios())))
def test_fixture_verdicts(idx):
    scenario, expected = fixture_scenarios()[idx]
    assert ext1_verdict(scenario).to_dict() == expected


@pytest.mark.parametrize("idx", range(len(extn_fixture_scenarios())))
def test_extn_fixture_verdicts(idx):
    scenario, n, expected = extn_fixture_scenarios()[idx]
    assert extn_mode(scenario, n).to_dict() == expected


def test_every_rule_fires_first_on_a_fixture():
    # rows are counted by index: some citations label more than one row
    from weylord.ext import _EXT1_RULES, _EXTN_RULES

    def first(rules, sc, n):
        return next(i for i, rule in enumerate(rules) if rule.guard(sc, n))

    fired = set()
    for sc, expected in fixture_scenarios():
        i = first(_EXT1_RULES, sc, 1)
        assert [_EXT1_RULES[i].citation] == expected["citations"]
        fired.add(i)
    assert fired == set(range(len(_EXT1_RULES)))
    fired = set()
    for sc, n, expected in extn_fixture_scenarios():
        i = first(_EXTN_RULES, sc, n)
        assert [_EXTN_RULES[i].citation] == expected["citations"]
        fired.add(i)
    assert fired == set(range(len(_EXTN_RULES)))


def test_full_levi_degenerate(gl4):
    # I = J = all simple roots: no orthogonal twists, induction is the identity
    full = gl4.subset(gl4.labels)
    v = ext1_verdict(Scenario(gl4, full, full, sigma=SS, sigma_prime=SS))
    assert v.kind == "Iso"


def test_unknowns_never_give_strong_verdicts(gl4):
    I = gl4.subset(["a1"])
    a3 = gl4.labels.index("a3")
    v = ext1_verdict(Scenario(gl4, I, I, sigma=SS, sigma_prime=SS, rel_twist={a3: "unknown"}))
    assert v.kind not in ("Iso", "ExactDim", "Zero")


def _random_scenario(rng, datum):
    n = datum.num_simple
    I = frozenset(i for i in range(n) if rng.random() < 0.5)
    perp, perp1 = datum.perp(I)
    same = rng.random() < 0.7
    J = I if same else frozenset(i for i in range(n) if rng.random() < 0.5)
    flags = [PLAIN, SS, RIGHT, LEFT, BOTH]
    rel_twist = {}
    pairings = {}
    if same:
        for b in perp1:
            rel_twist[b] = rng.choice(["yes", "no", "unknown"])
        for b in perp:
            pairings[b] = rng.choice(["one", "omega_inverse", "other", "unknown"])
    return Scenario(
        datum,
        I,
        J,
        sigma=rng.choice(flags),
        sigma_prime=rng.choice(flags),
        e=rng.choice([1, 1, 2]),
        p_is_2=rng.random() < 0.3,
        central_pairings=pairings,
        rel_twist=rel_twist,
        rel_id=rng.choice(["yes", "no", "unknown"]) if same else "unknown",
        conjecture_assumed=rng.random() < 0.5,
        emerton_conjecture_assumed=rng.random() < 0.5,
    )


KINDS = ("ExactDim", "Iso", "UpperBoundCokernel", "ExactCokernel", "Zero", "Inconclusive")


def test_branch_totality_randomised():
    rng = random.Random(7)
    data = [preset_datum(t, lat) for t in ("A1", "A2", "A3", "B2") for lat in ("simply_connected", "adjoint")]
    data.append(preset_datum("A3", "gl"))
    decided = higher = refused = 0
    for _ in range(600):
        sc = _random_scenario(rng, rng.choice(data))
        if check_consistency(sc):
            continue
        v = ext1_verdict(sc)
        assert v.kind in KINDS
        assert v.citations
        assert ext1_verdict(sc) == v  # deterministic
        decided += 1
        for n in range(sc.e + 2):
            try:
                vn = extn_mode(sc, n)
            except DomainError as exc:
                with pytest.raises(DomainError, match=re.escape(str(exc))):
                    extn_mode(sc, n)
                refused += 1
                continue
            assert vn.kind in KINDS
            assert vn.citations
            assert extn_mode(sc, n) == vn  # deterministic
            higher += 1
    assert decided > 300
    assert higher > 100 and refused > 100


def _refinements(sc):
    """Scenarios with one unknown relation made definite."""
    out = []
    for b, v in sc.rel_twist.items():
        if v == "unknown":
            for new in ("yes", "no"):
                out.append(
                    Scenario(
                        sc.datum, sc.I, sc.J, sigma=sc.sigma, sigma_prime=sc.sigma_prime,
                        e=sc.e, p_is_2=sc.p_is_2, central_pairings=sc.central_pairings,
                        rel_twist={**sc.rel_twist, b: new}, rel_id=sc.rel_id,
                        conjecture_assumed=sc.conjecture_assumed,
                        emerton_conjecture_assumed=sc.emerton_conjecture_assumed,
                    )
                )
    if sc.rel_id == "unknown" and sc.I == sc.J:
        for new in ("yes", "no"):
            out.append(
                Scenario(
                    sc.datum, sc.I, sc.J, sigma=sc.sigma, sigma_prime=sc.sigma_prime,
                    e=sc.e, p_is_2=sc.p_is_2, central_pairings=sc.central_pairings,
                    rel_twist=sc.rel_twist, rel_id=new,
                    conjecture_assumed=sc.conjecture_assumed,
                )
            )
    return out


def test_monotonicity_under_information():
    # refining an unknown relation never flips one definite verdict into a
    # contradictory definite verdict
    rng = random.Random(11)
    data = [preset_datum("A3", "gl"), preset_datum("A2"), preset_datum("B2", "adjoint")]
    checked = 0
    for _ in range(400):
        sc = _random_scenario(rng, rng.choice(data))
        if check_consistency(sc):
            continue
        base = ext1_verdict(sc)
        for refined in _refinements(sc):
            if check_consistency(refined):
                continue
            new = ext1_verdict(refined)
            checked += 1
            if base.kind in ("ExactDim", "Zero") and new.kind in ("ExactDim", "Zero"):
                assert (base.kind, base.value) == (new.kind, new.value)
    assert checked > 100


# -- higher degrees ---------------------------------------------------------------


def test_extn_requires_flag_and_matching_parabolics(gl4):
    I = gl4.subset(["a1"])
    sc = Scenario(gl4, I, I, sigma=SS, sigma_prime=SS)
    with pytest.raises(DomainError, match="emerton"):
        extn_mode(sc, 1)
    bad = Scenario(gl4, I, gl4.subset(["a2"]), sigma=SS, sigma_prime=SS,
                   emerton_conjecture_assumed=True)
    with pytest.raises(DomainError):
        extn_mode(bad, 1)


def test_extn_degrees(gl4):
    I = gl4.subset(["a1"])
    a3 = gl4.labels.index("a3")
    base = Scenario(gl4, I, I, sigma=SS, sigma_prime=SS, e=2, emerton_conjecture_assumed=True)
    v0 = extn_mode(base, 0)
    assert v0.kind == "Iso" and not v0.conditional_on
    v1 = extn_mode(base, 1)
    assert v1.kind == "Iso" and v1.conditional_on
    assert extn_mode(base, 5).kind == "Inconclusive"
    zcnx = Scenario(gl4, I, I, sigma=SS, sigma_prime=SS,
                    rel_twist={a3: "yes"}, rel_id="no", central_pairings={a3: "other"},
                    emerton_conjecture_assumed=True)
    v = extn_mode(zcnx, 1)
    assert v.kind == "ExactDim" and v.value == 1 and v.conditional_on


def test_extn_agrees_with_degree_one(gl4):
    # on scenarios designed for both modes the degree-one verdicts coincide
    I = gl4.subset(["a1"])
    a3 = gl4.labels.index("a3")
    pairs = [
        Scenario(gl4, I, I, sigma=SS, sigma_prime=SS,
                 rel_twist={a3: "yes"}, rel_id="no", central_pairings={a3: "other"},
                 emerton_conjecture_assumed=True),
        Scenario(gl4, I, I, sigma=BOTH, sigma_prime=BOTH, rel_twist={a3: "no"},
                 emerton_conjecture_assumed=True),
        Scenario(gl4, I, I, sigma=BOTH, sigma_prime=BOTH, rel_twist={a3: "unknown"},
                 emerton_conjecture_assumed=True),
    ]
    for sc in pairs:
        v1 = ext1_verdict(sc)
        vn = extn_mode(sc, 1)
        assert (v1.kind, v1.value) == (vn.kind, vn.value)
