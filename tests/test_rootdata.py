import itertools

import pytest

from weylord import DomainError, InputError, build_datum, explicit_datum, preset_datum
from weylord.rootdata import ROOT_CAP, _positive_root_count, parse_type
from weylord.intlinalg import dot, vscale, vsub


def test_gl_preset_coordinates(gl3):
    assert gl3.rank == 3
    assert gl3.simple_roots == ((1, -1, 0), (0, 1, -1))
    assert gl3.simple_coroots == ((1, -1, 0), (0, 1, -1))
    assert gl3.cartan == ((2, -1), (-1, 2))


def test_simply_connected_a1():
    a1 = preset_datum("A1", "simply_connected")
    assert a1.rank == 1
    assert a1.simple_roots == ((2,),)
    assert a1.simple_coroots == ((1,),)
    assert a1.cartan == ((2,),)


def test_non_crystallographic_rejected():
    with pytest.raises(DomainError, match="non-crystallographic"):
        explicit_datum(2, [(2, 1), (1, 2)], [(1, 0), (0, 1)])


def test_gl_for_non_type_a_rejected():
    with pytest.raises(InputError):
        preset_datum("B2", "gl")


@pytest.mark.parametrize(
    "type_str, count",
    [
        ("A2", 3), ("A1xA1", 2), ("G2", 6), ("B2", 4), ("B3", 9), ("C3", 9), ("A3", 6), ("F4", 24),
        ("C4", 16), ("D3", 6), ("D5", 20), ("A2xB3xG2", 18),
    ],
)
def test_positive_root_counts(type_str, count):
    assert preset_datum(type_str).num_positive == count
    # the preset bound reads the same count off the type alone
    assert sum(_positive_root_count(letter, n) for letter, n in parse_type(type_str)) == count


def test_preset_over_the_root_cap_is_an_input_error():
    assert ROOT_CAP == 10_000
    with pytest.raises(InputError, match="10011 positive roots"):
        preset_datum("A141")
    with pytest.raises(InputError, match="10100 positive roots"):
        preset_datum("A100xA100", "gl")
    assert preset_datum("A140").num_simple == 140  # 9870 positive roots
    with pytest.raises(InputError, match="cannot parse type component"):
        preset_datum("A" + "9" * 5000)


def test_positive_roots_ordered_by_height():
    a2 = preset_datum("A2", "gl")
    roots = a2.positive_roots
    assert roots == ((1, -1, 0), (0, 1, -1), (1, 0, -1))


def test_isogeny_flags(gl3, sl3, pgl3):
    assert gl3.isogeny_flags().fundamental_weights_exist
    assert gl3.isogeny_flags().fundamental_coweights_exist
    assert sl3.isogeny_flags().fundamental_weights_exist
    assert not sl3.isogeny_flags().fundamental_coweights_exist
    assert not pgl3.isogeny_flags().fundamental_weights_exist
    assert pgl3.isogeny_flags().fundamental_coweights_exist


@pytest.mark.parametrize("type_str", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"])
def test_isogeny_flags_by_lattice(type_str):
    sc = preset_datum(type_str, "simply_connected")
    ad = preset_datum(type_str, "adjoint")
    assert sc.isogeny_flags().fundamental_weights_exist
    assert ad.isogeny_flags().fundamental_coweights_exist


def test_isogeny_flags_relabeling_invariant(sl3):
    # swap the two simple roots; the flags cannot change
    swapped = explicit_datum(
        2,
        [sl3.simple_roots[1], sl3.simple_roots[0]],
        [sl3.simple_coroots[1], sl3.simple_coroots[0]],
    )
    assert swapped.isogeny_flags() == sl3.isogeny_flags()


def test_perp():
    a3 = preset_datum("A3")
    I = a3.subset(["a1"])
    p, p1 = a3.perp(I)
    assert p == a3.subset(["a3"]) and p1 == p
    assert a3.perp(frozenset())[0] == frozenset(range(3))
    assert a3.perp(frozenset(range(3)))[0] == frozenset()
    a1 = preset_datum("A1")
    assert a1.perp(frozenset({0}))[0] == frozenset()


def test_perp_symmetric_on_singletons():
    b3 = preset_datum("B3")
    for i, j in itertools.product(range(3), repeat=2):
        assert (j in b3.perp({i})[0]) == (i in b3.perp({j})[0])


def test_reflection_preserves_pairing():
    for type_str in ("A2", "B2", "G2"):
        dat = preset_datum(type_str)
        basis = [tuple(int(i == k) for k in range(dat.rank)) for i in range(dat.rank)]
        for g in range(dat.num_simple):
            for chi in basis:
                for lam in basis:
                    # s_g on the cocharacter lattice: lam - <alpha_g, lam> alpha_g^vee
                    co = vsub(lam, vscale(dot(dat.simple_roots[g], lam), dat.simple_coroots[g]))
                    assert dot(dat.reflect_vector(g, chi), co) == dot(chi, lam)


def test_multiplicity_weyl_invariance():
    # both simple roots of A2 lie in one orbit: unequal multiplicities fail
    bad = preset_datum("A2", multiplicity=(1, 2))
    with pytest.raises(DomainError, match="Weyl-invariant"):
        bad.roots
    # B2 has two orbits, so distinct values per orbit are fine
    ok = preset_datum("B2", multiplicity=(1, 2))
    assert ok.num_positive == 4
    assert sorted(ok.roots.mult) == [1, 1, 2, 2]


def test_split_requires_multiplicity_one():
    with pytest.raises(DomainError, match="split"):
        preset_datum("A2", multiplicity=(2, 2), split=True)


def test_build_datum_mapping(gl3):
    spec = {
        "name": "GL3",
        "rank": 3,
        "simple_roots": [[1, -1, 0], [0, 1, -1]],
        "simple_coroots": [[1, -1, 0], [0, 1, -1]],
        "labels": ["a1", "a2"],
    }
    assert build_datum(spec) == gl3
    with pytest.raises(InputError, match="unknown keys"):
        build_datum({**spec, "bogus": 1})
    preset = build_datum({"type": "A2", "lattice": "gl", "name": "GL3"})
    assert preset == gl3


def test_unknown_label():
    a2 = preset_datum("A2")
    with pytest.raises(DomainError, match="unknown simple-root label"):
        a2.subset(["zz"])


@pytest.mark.parametrize("type_str, multiplicity", [("B3", None), ("G2", None), ("A2", (2, 2))])
def test_support_masks_and_subset_weight(type_str, multiplicity):
    table = preset_datum(type_str, multiplicity=multiplicity).roots
    s = len(table.simple_index)
    for r in range(table.count):
        assert table.support_mask[r] == sum(1 << k for k in table.support(r))
    subsets = [frozenset(k for k in range(s) if mask >> k & 1) for mask in range(1 << s)]
    for inside, outside in itertools.product(subsets, repeat=2):
        expected = sum(
            table.mult[r]
            for r in range(table.count)
            if table.support(r) <= inside and not table.support(r) <= outside
        )
        assert table.subset_weight(inside, outside) == expected
