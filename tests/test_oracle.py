import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylord.oracle
from weylord import preset_datum, weyl_group
from weylord.oracle import (
    SweepCase,
    _bruhat_covers,
    _case_checks,
    _cross_section_checks,
    _left_checks,
    _order_reversal_failure,
    brute_double_reps,
    default_cases,
    naive_dw_delta,
    sweep,
)
from weylord.weyl import WeylGroup, opposition_map


@pytest.fixture(scope="module")
def w_a2():
    return weyl_group(preset_datum("A2"))


def test_brute_min_reps(w_a2):
    # minimal coset representatives are the double-coset ones with J empty
    dat = w_a2.datum
    I = dat.subset(["a1"])
    empty = frozenset()
    assert {str(w) for w in brute_double_reps(w_a2, I, empty)} == {"e", "a2", "a2 a1"}
    assert brute_double_reps(w_a2, dat.subset(["a1", "a2"]), empty) == frozenset({w_a2.identity})
    assert brute_double_reps(w_a2, empty, empty) == frozenset(w_a2.elements)


def test_brute_double_reps(w_a2):
    dat = w_a2.datum
    I, J = dat.subset(["a1"]), dat.subset(["a2"])
    assert {str(w) for w in brute_double_reps(w_a2, I, J)} == {"e", "a2 a1"}
    assert brute_double_reps(w_a2, frozenset(), frozenset()) == frozenset(w_a2.elements)
    assert frozenset(w_a2.double_coset_reps(I, J)) == brute_double_reps(w_a2, I, J)


def test_naive_dw_delta_matches(w_a2):
    for w in w_a2:
        assert naive_dw_delta(w_a2, w) == w_a2.dw_delta(w)


def test_default_cases():
    labels = [c.label for c in default_cases()]
    assert "A2(simply_connected)" in labels
    assert any("d=2,2" in l for l in labels)
    ranked = default_cases(max_rank=2)
    assert all("3" not in c.dynkin for c in ranked)
    # the rank comes from the datum, so types outside the default list count too
    assert [c.label for c in default_cases(types=("A4", "D4", "B5"), max_rank=4)] == [
        "A4(simply_connected)",
        "D4(simply_connected)",
    ]


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
    assert all(W.dw_delta(w)[0] == 2 * w.length for w in W)


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


@pytest.mark.parametrize("g", [0, 1, 2])
def test_case_checks_catch_a_swapped_reflection_entry(g):
    W = WeylGroup(preset_datum("B3"))
    reflect = [list(row) for row in W.table.reflect]
    a, b = random.Random(g).sample(range(2 * W.num_positive), 2)
    reflect[g][a], reflect[g][b] = reflect[g][b], reflect[g][a]
    W.table = dataclasses.replace(W.table, reflect=tuple(map(tuple, reflect)))
    assert _case_checks(W, random.Random(1)) == [f"reflection table disagrees at a{g + 1}"]


@pytest.mark.parametrize("dynkin, count", [("A3", 58), ("B3", 138)])
def test_bruhat_covers_are_the_cover_relations(dynkin, count):
    W = weyl_group(preset_datum(dynkin))
    covers = _bruhat_covers(W)
    # u < w with no element strictly between them
    expected = {
        (u, w)
        for w in W
        for u in W
        if u != w
        and W.bruhat_leq(u, w)
        and not any(u != z != w and W.bruhat_leq(u, z) and W.bruhat_leq(z, w) for z in W)
    }
    assert set(covers) == expected
    assert len(covers) == count
    assert all(w.length == u.length + 1 for u, w in covers)


def _order_preserving(W, image, pairs) -> bool:
    elems = W.elements
    return all(W.bruhat_leq(elems[image[u.index]], elems[image[w.index]]) for u, w in pairs)


def test_order_preservation_on_covers_decides_it_on_all_pairs():
    W = weyl_group(preset_datum("A3"))
    covers = _bruhat_covers(W)
    comparable = [(u, w) for w in W for u in W if W.bruhat_leq(u, w)]
    subsets = [W.datum.subset(c) for k in range(4) for c in itertools.combinations(W.datum.labels, k)]
    maps = set()
    for I in subsets:
        proj1 = [W.coset_decompose(I, w)[1] for w in W]
        maps.add(tuple(x.index for x in proj1))
        for J in subsets:
            maps.add(tuple(W.double_decompose(I, J, x)[0].index for x in proj1))
    rng = random.Random(13)
    outcomes = []
    for image in sorted(maps):
        tested = [image]
        for _ in range(4):
            moved = list(image)
            x = rng.randrange(len(W))
            if rng.random() < 0.5:
                moved[x] = rng.randrange(len(W))
            else:
                # a small move: one step up or down in Bruhat order
                target = W.elements[moved[x]]
                near = [u.index for u, w in covers if w == target]
                near += [w.index for u, w in covers if u == target]
                moved[x] = rng.choice(near)
            tested.append(tuple(moved))
        for f in tested:
            on_covers = _order_preserving(W, f, covers)
            assert on_covers == _order_preserving(W, f, comparable)
            outcomes.append(on_covers)
    assert len(maps) > 16 and outcomes.count(True) > len(maps) and False in outcomes


def test_left_checks_report_a_left_projection_that_breaks_order(monkeypatch):
    # a group of its own: `bruhat_leq` is patched on the instance below
    W = WeylGroup(preset_datum("A3"))
    covers = _bruhat_covers(W)
    leq = W.bruhat_leq
    comparable = [(u, w) for w in W for u in W if leq(u, w)]
    rng = random.Random(19)
    for labels in ((), ("a1",), ("a1", "a3"), ("a2",)):
        I = W.datum.subset(labels)
        issues, proj1 = _left_checks(W, I, covers)
        assert issues == [] and proj1 == {w: W.coset_decompose(I, w)[1] for w in W}
        reps = sorted(set(proj1.values()), key=lambda x: x.index)
        for _ in range(6):
            # exchange two images: with `bruhat_leq` read through the swap s,
            # the cover check compares the images of s o proj1
            a, b = rng.sample(reps, 2)
            s = {a: b, b: a}
            monkeypatch.setattr(W, "bruhat_leq", lambda x, y: leq(s.get(x, x), s.get(y, y)))
            issues, _ = _left_checks(W, I, covers)
            monkeypatch.undo()
            swapped = {w: s.get(x, x) for w, x in proj1.items()}
            assert not all(leq(swapped[u], swapped[w]) for u, w in comparable)
            assert len(issues) == 1
            assert issues[0].startswith("left projection is not order-preserving at (")


def test_order_reversal_on_comparable_pairs_matches_all_pairs():
    W = weyl_group(preset_datum("B3"))
    rng = random.Random(17)
    outcomes = []
    for labels in ((), ("a1",), ("a2", "a3")):
        I = W.datum.subset(labels)
        mapping = opposition_map(W, I, frozenset()).rep_map
        for trial in range(12):
            f = dict(mapping)
            if trial:  # exchange two images
                u, v = rng.sample(list(f), 2)
                f[u], f[v] = f[v], f[u]
            all_pairs = all(W.bruhat_leq(f[v], f[u]) for u in f for v in f if W.bruhat_leq(u, v))
            bad = _order_reversal_failure(W, f)
            assert (bad is None) == all_pairs
            if bad:
                u, v = bad
                assert W.bruhat_leq(u, v) and not W.bruhat_leq(f[v], f[u])
            outcomes.append(all_pairs)
    assert True in outcomes and False in outcomes


# -- Bruhat order against the subword property ------------------------------------


def _random_reduced_word(W, w, rng) -> list:
    """A reduced word of w, peeling off a random left descent at each step."""
    word = []
    x = w
    while x.length:
        g = rng.choice([i for i in range(W.datum.num_simple) if W.mul(W.gen(i), x).length < x.length])
        word.append(g)
        x = W.mul(W.gen(g), x)
    return word


def _subword_disagreement(W, rng):
    """The first (u, w) where `bruhat_leq` and the subword property disagree, or None.

    The reference for the Bruhat-graph check of `_case_checks`: u <= w exactly
    when u is the product of a subword of a reduced word of w (Bjorner-Brenti
    Thm 2.2.2), here a random reduced word rather than the canonical one.
    """
    for w in W:
        below = {0}
        for g in _random_reduced_word(W, w, rng):
            below |= {W._right[x][g] for x in below}
        for u in W:
            if W.bruhat_leq(u, w) != (u.index in below):
                return u, w
    return None


def _order(W) -> set:
    """Bruhat order as `bruhat_leq` reads it; computing it fills every cone."""
    return {(u.index, w.index) for w in W for u in W if W.bruhat_leq(u, w)}


def _mutated_groups(dynkin, kind, draws=6):
    """Fresh groups whose Bruhat cones each carry one seeded corruption.

    A cone is a bitmask over element indices.  "removed": one bit cleared
    in one cone; "added": one bit set in a cone it does not belong to;
    "swapped": every cone filled while one row of the right-multiplication
    table had two entries swapped, the table then restored, so that only the
    cones are wrong.  A draw is kept when it changes the order `bruhat_leq`
    reads.
    """
    datum = preset_datum(dynkin)
    truth = _order(WeylGroup(datum))
    rng = random.Random(f"{dynkin}:{kind}")
    out = []
    while len(out) < draws:
        W = WeylGroup(datum)
        if kind == "swapped":
            x = rng.randrange(len(W))
            g, h = rng.sample(range(datum.num_simple), 2)
            row = W._right[x]
            W._right[x] = tuple(row[h] if k == g else row[g] if k == h else v for k, v in enumerate(row))
            _order(W)
            W._right[x] = row
        else:
            _order(W)
            w = W.elements[rng.randrange(1, len(W) - 1)]  # neither e nor w0
            cone = W._cones[w.index]
            members = [i for i in range(len(W)) if (cone >> i & 1) == (kind == "removed")]
            W._cones[w.index] = cone ^ 1 << rng.choice(members)
        if _order(W) != truth:
            out.append(W)
    return out


@pytest.mark.parametrize("dynkin", ["A3", "B3"])
def test_subword_reference_agrees_on_intact_groups(dynkin):
    W = WeylGroup(preset_datum(dynkin))
    assert _case_checks(W, random.Random(1)) == []
    assert _subword_disagreement(W, random.Random(2)) is None


@pytest.mark.parametrize("kind", ["removed", "added", "swapped"])
@pytest.mark.parametrize("dynkin", ["A3", "B3"])
def test_case_checks_catch_a_corrupted_bruhat_cone(dynkin, kind):
    for W in _mutated_groups(dynkin, kind):
        found = _case_checks(W, random.Random(1))
        assert found and found[0].startswith("Bruhat co"), found
        # the subword search catches the same corruption
        assert _subword_disagreement(W, random.Random(2)) is not None


# -- cross sections against their definitions --------------------------------------


def _subset_pairs(n):
    subsets = [frozenset(k for k in range(n) if mask >> k & 1) for mask in range(1 << n)]
    return list(itertools.product(subsets, repeat=2))


def test_cross_section_checks_name_a_grown_set(monkeypatch):
    # u_j_dprime grown by n_j_dprime: the grown set is reported by name
    # wherever some iw has a root in n_j_dprime, and nowhere else
    W = weyl_group(preset_datum("B3"))
    honest = weylord.oracle.cross_section

    def grown(group, I, J, iw):
        cs = honest(group, I, J, iw)
        return dataclasses.replace(cs, u_j_dprime=cs.u_j_dprime | cs.n_j_dprime)

    monkeypatch.setattr(weylord.oracle, "cross_section", grown)
    reported = 0
    for I, J in _subset_pairs(3):
        found = _cross_section_checks(W, I, J)
        assert bool(found) == any(honest(W, I, J, iw).n_j_dprime for iw in W.min_coset_reps(I))
        if found:
            assert len(found) == 1
            assert found[0].startswith("cross-section set u_j_dprime disagrees with its definition at ")
            reported += 1
    assert reported == 49


def test_cross_section_checks_catch_another_elements_sets(monkeypatch):
    # every iw gets the identity's sets: each family is consistent in itself,
    # so only the definitions can tell
    W = weyl_group(preset_datum("B3"))
    honest = weylord.oracle.cross_section
    monkeypatch.setattr(
        weylord.oracle, "cross_section", lambda group, I, J, iw: honest(group, I, J, group.identity)
    )
    assert _cross_section_checks(W, frozenset(), frozenset()) == [
        "cross-section set u_w disagrees with its definition at a1"
    ]


# -- random product types ------------------------------------------------------------

COMPONENTS = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2")


@st.composite
def _product_cases(draw):
    """A product of COMPONENTS of total rank at most 3, on a lattice that fits it.

    Each W-orbit of simple roots gets one multiplicity in 1-3: one orbit in
    type A, and in B, C and G2 one for a1..a(n-1) and one for the last root.
    """
    parts = []
    rank = 0
    while not parts or draw(st.booleans()):
        fitting = [c for c in COMPONENTS if rank + int(c[1:]) <= 3]
        if not fitting:
            break
        part = draw(st.sampled_from(fitting))
        parts.append(part)
        rank += int(part[1:])
    lattices = ["simply_connected", "adjoint"]
    if all(part[0] == "A" for part in parts):
        lattices.append("gl")
    lattice = draw(st.sampled_from(lattices))
    mult = st.integers(1, 3)
    multiplicity = []
    for part in parts:
        n = int(part[1:])
        if part[0] == "A":
            multiplicity += [draw(mult)] * n
        else:
            multiplicity += [draw(mult)] * (n - 1) + [draw(mult)]
    return SweepCase("x".join(parts), lattice, multiplicity=tuple(multiplicity))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(_product_cases())
def test_random_product_types_agree_with_the_oracle(case):
    reports = sweep([case])
    assert len(reports) == 4 ** case.build().num_simple
    assert [r.first_divergence for r in reports if not r.agreement] == []
