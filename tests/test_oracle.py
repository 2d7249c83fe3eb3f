import random

import pytest

from weylord import preset_datum, weyl_group
from weylord.oracle import (
    SweepCase,
    _case_checks,
    brute_bruhat,
    brute_double_reps,
    brute_min_reps,
    default_cases,
    naive_dw_delta,
    random_reduced_word,
    sweep,
)
from weylord.weyl import WeylGroup


@pytest.fixture(scope="module")
def w_a2():
    return weyl_group(preset_datum("A2"))


def test_brute_min_reps(w_a2):
    dat = w_a2.datum
    I = dat.subset(["a1"])
    assert {str(w) for w in brute_min_reps(w_a2, I)} == {"e", "a2", "a2 a1"}
    assert brute_min_reps(w_a2, dat.subset(["a1", "a2"])) == frozenset({w_a2.identity})
    assert brute_min_reps(w_a2, frozenset()) == frozenset(w_a2.elements)


def test_brute_double_reps(w_a2):
    dat = w_a2.datum
    I, J = dat.subset(["a1"]), dat.subset(["a2"])
    assert {str(w) for w in brute_double_reps(w_a2, I, J)} == {"e", "a2 a1"}
    assert brute_double_reps(w_a2, frozenset(), frozenset()) == frozenset(w_a2.elements)
    assert frozenset(w_a2.double_coset_reps(I, J)) == brute_double_reps(w_a2, I, J)


def test_random_reduced_word(w_a2):
    rng = random.Random(3)
    for w in w_a2:
        for _ in range(4):
            word = random_reduced_word(w_a2, w, rng)
            assert len(word) == w.length
            assert w_a2.from_word(word) == w


def test_brute_bruhat_matches(w_a2):
    rng = random.Random(5)
    for u in w_a2:
        assert brute_bruhat(w_a2, u, u, rng)
        for w in w_a2:
            assert brute_bruhat(w_a2, u, w, rng) == w_a2.bruhat_leq(u, w)
            # antisymmetry
            if u != w:
                assert not (w_a2.bruhat_leq(u, w) and w_a2.bruhat_leq(w, u))


def test_naive_dw_delta_matches(w_a2):
    for w in w_a2:
        assert naive_dw_delta(w_a2, w) == w_a2.dw_delta(w)


def test_default_cases():
    labels = [c.label for c in default_cases()]
    assert "A2(simply_connected)" in labels
    assert any("d=2,2" in l for l in labels)
    ranked = default_cases(max_rank=2)
    assert all("3" not in c.dynkin for c in ranked)


def test_sweep_small():
    reports = sweep(cases=[SweepCase("A1"), SweepCase("A1xA1")])
    assert reports and all(r.agreement for r in reports)
    assert len(reports) == 4 + 16


def test_sweep_empty():
    assert sweep(cases=[]) == []


def test_sweep_multiplicity_case():
    reports = sweep(cases=[SweepCase("A2", multiplicity=(2, 2))])
    assert all(r.agreement for r in reports)
    W = weyl_group(SweepCase("A2", multiplicity=(2, 2)).build())
    assert all(W.d(w) == 2 * w.length for w in W)


@pytest.mark.parametrize("side", [0, 1])
def test_case_checks_catch_a_wrong_descent_mask(side):
    W = WeylGroup(preset_datum("A2"))
    masks = [list(m) for m in W.descents]
    masks[side][0] ^= 1  # the identity gets a descent it does not have
    W.descents = tuple(tuple(m) for m in masks)
    found = _case_checks(W, random.Random(1))
    assert found and "descent mask of e disagrees at a1" in found[0]
    assert ("left" if side == 0 else "right") in found[0]


def test_case_checks_catch_a_wrong_right_multiplication_entry():
    W = WeylGroup(preset_datum("A2"))
    s1 = W.parse_word("a1")
    row = list(W._right[s1.index])
    row[1] = 0  # a1 * a2 now claims to be the identity
    W._right[s1.index] = tuple(row)
    found = _case_checks(W, random.Random(1))
    assert found == ["right multiplication table of a1 disagrees at a2"]
