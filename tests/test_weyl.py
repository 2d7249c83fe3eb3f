import itertools
import math

import pytest

from weylord import DomainError, explicit_datum, preset_datum, weyl_group
from weylord.intlinalg import vscale
from weylord.weyl import (
    WEYL_CACHE_SIZE,
    WeylGroup,
    _weyl_order,
    cross_section,
    double_coset_table,
    opposition_map,
)

# Bourbaki numbering: a1-a3-a4-a5-a6 with a2 attached to a4.
E6_CARTAN = (
    (2, 0, -1, 0, 0, 0),
    (0, 2, 0, -1, 0, 0),
    (-1, 0, 2, -1, 0, 0),
    (0, -1, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, -1, 2),
)


@pytest.mark.parametrize("type_str, order, top", [("A1", 2, 1), ("A2", 6, 3), ("B2", 8, 4), ("G2", 12, 6)])
def test_orders(type_str, order, top):
    W = weyl_group(preset_datum(type_str))
    assert len(W) == order
    assert W.w0.length == top


def test_f4_order():
    W = weyl_group(preset_datum("F4"))
    assert len(W) == 1152 and W.w0.length == 24


def test_cap():
    with pytest.raises(DomainError, match="cap"):
        weyl_group(preset_datum("F4"), cap=100)


def _e_cartan(n):
    """E_n in Bourbaki numbering: the chain a1-a3-a4-...-an with a2 attached to a4."""
    edges = {(0, 2), (1, 3)} | {(k, k + 1) for k in range(2, n - 1)}
    return tuple(
        tuple(2 if i == j else -1 if (i, j) in edges or (j, i) in edges else 0 for j in range(n))
        for i in range(n)
    )


@pytest.mark.parametrize(
    "type_str",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "D4", "D5", "F4", "G2", "A1xA1", "A2xB2", "A1xG2"],
)
def test_order_from_the_exponents_matches_the_group(type_str):
    datum = preset_datum(type_str)
    assert _weyl_order(datum.roots) == len(WeylGroup(datum))


def test_order_from_the_exponents_on_e_types():
    assert _e_cartan(6) == E6_CARTAN
    for n, order in ((6, 51840), (7, 2_903_040), (8, 696_729_600)):
        unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        assert _weyl_order(explicit_datum(n, _e_cartan(n), unit).roots) == order


def test_a_group_over_the_cap_is_refused_with_its_order():
    # 31! elements: refused from the root table, before any element is built
    with pytest.raises(DomainError, match=f"order {math.factorial(31)} exceeds the configured cap"):
        WeylGroup(preset_datum("A30"))


def test_length_is_inversion_count(w_gl4):
    for w in w_gl4:
        assert w.length == len(w_gl4.inversions(w))


def test_perm_multiplicative(w_gl3):
    for u in w_gl3:
        for v in w_gl3:
            uv = w_gl3.mul(u, v)
            assert uv.perm == tuple(u.perm[v.perm[r]] for r in range(len(u.perm)))


def test_identity_and_words(w_gl3):
    e = w_gl3.identity
    assert e.word == () and str(e) == "e"
    assert e.perm == tuple(range(len(e.perm)))
    # canonical words are ShortLex-least among all reduced words
    for w in w_gl3:
        reduced = _all_reduced_words(w_gl3, w)
        assert min(reduced) == w.word


def _all_reduced_words(group, w):
    if w.length == 0:
        return {()}
    out = set()
    for g in range(group.datum.num_simple):
        shorter = group.mul(group.gen(g), w)
        if shorter.length < w.length:
            out |= {(g,) + rest for rest in _all_reduced_words(group, shorter)}
    return out


def test_parse_word_roundtrip(w_gl4):
    for w in w_gl4:
        assert w_gl4.parse_word(str(w)) == w
    # non-reduced input gets reduced
    assert w_gl4.parse_word("a1 a1") == w_gl4.identity
    assert w_gl4.parse_word("a1 a1 a2") == w_gl4.parse_word("a2")


def test_bruhat_examples(w_gl3):
    e = w_gl3.identity
    s1, s2 = w_gl3.parse_word("a1"), w_gl3.parse_word("a2")
    s21 = w_gl3.parse_word("a2 a1")
    s12 = w_gl3.parse_word("a1 a2")
    for w in w_gl3:
        assert w_gl3.bruhat_leq(e, w)
        assert w_gl3.bruhat_leq(w, w)
    assert w_gl3.bruhat_leq(s1, s21)
    assert not w_gl3.bruhat_leq(s1, s2)
    assert not w_gl3.bruhat_leq(s12, s21) and not w_gl3.bruhat_leq(s21, s12)


def test_min_coset_reps(w_gl3, gl3):
    I = gl3.subset(["a1"])
    assert [str(w) for w in w_gl3.min_coset_reps(I)] == ["e", "a2", "a2 a1"]
    assert w_gl3.min_coset_reps(frozenset()) == w_gl3.elements
    assert [str(w) for w in w_gl3.min_coset_reps(gl3.subset(["a1", "a2"]))] == ["e"]


def test_coset_decompose(w_gl4, gl4):
    for I_labels in ([], ["a1"], ["a1", "a3"], ["a1", "a2", "a3"]):
        I = gl4.subset(I_labels)
        reps = set(w_gl4.min_coset_reps(I))
        for w in w_gl4:
            u, x = w_gl4.coset_decompose(I, w)
            assert w_gl4.mul(u, x) == w
            assert u.length + x.length == w.length
            assert x in reps
            assert u in set(w_gl4.parabolic_elements(I))


def test_double_cosets(w_gl3, gl3):
    I, J = gl3.subset(["a1"]), gl3.subset(["a2"])
    assert [str(w) for w in w_gl3.double_coset_reps(I, J)] == ["e", "a2 a1"]
    assert [str(w) for w in w_gl3.double_coset_reps(I, I)] == ["e", "a2"]
    assert w_gl3.double_coset_reps(frozenset(), frozenset()) == w_gl3.elements


def test_double_decompose_requires_minimal(w_gl3, gl3):
    I, J = gl3.subset(["a1"]), gl3.subset(["a2"])
    with pytest.raises(DomainError):
        w_gl3.double_decompose(I, J, w_gl3.parse_word("a1"))


def test_double_coset_table(w_gl3, gl3):
    I, J = gl3.subset(["a1"]), gl3.subset(["a2"])
    table = double_coset_table(w_gl3, I, J)
    by_word = {str(e.rep): e for e in table.entries}
    assert by_word["e"].meet == frozenset() and by_word["e"].comeet == frozenset()
    assert by_word["a2 a1"].meet == J and by_word["a2 a1"].comeet == I
    assert by_word["a2 a1"].d == 2 and by_word["a2 a1"].delta == (2, -1, -1)
    assert [str(v) for v in w_gl3.fiber(J, by_word["e"].meet)] == ["e", "a2"]
    assert [str(v) for v in w_gl3.fiber(J, by_word["a2 a1"].meet)] == ["e"]
    # identity is below the other representative
    assert table.leq[0][1] and not table.leq[1][0]


@pytest.mark.parametrize(
    "datum", [preset_datum("B3"), preset_datum("A3", "gl", name="GL4")], ids=lambda d: d.name
)
def test_fiber_is_the_left_minimal_part_of_w_j(datum):
    W = weyl_group(datum)
    n = datum.num_simple
    subsets = [frozenset(k for k in range(n) if mask >> k & 1) for mask in range(1 << n)]
    for I, J in itertools.product(subsets, repeat=2):
        w_j = W.parabolic_elements(J)
        for entry in double_coset_table(W, I, J).entries:
            fiber = W.fiber(J, entry.meet)
            assert fiber == tuple(v for v in w_j if W.is_left_minimal(v, entry.meet))
            assert len(fiber) * len(W.parabolic_elements(entry.meet)) == len(w_j)


def test_dw_delta(w_gl3):
    e = w_gl3.identity
    assert w_gl3.dw_delta(e) == (0, (0, 0, 0))
    w = w_gl3.parse_word("a2 a1")
    assert w_gl3.dw_delta(w) == (2, (2, -1, -1))


def test_dw_delta_multiplicity():
    dat = preset_datum("A2", multiplicity=(2, 2))
    W = weyl_group(dat)
    s1 = W.parse_word("a1")
    d, delta = W.dw_delta(s1)
    assert d == 2
    assert delta == tuple(2 * c for c in dat.simple_roots[0])
    for w in W:
        assert W.d(w) == 2 * w.length


def test_cross_section_identity(w_gl3, gl3):
    I, J = gl3.subset(["a1"]), gl3.subset(["a2"])
    cs = cross_section(w_gl3, I, J, w_gl3.identity)
    pos = gl3.positive_roots
    # at the identity, the primed part is everything outside the I-Levi
    assert {pos[r] for r in cs.u_prime} == {(0, 1, -1), (1, 0, -1)}
    assert {pos[r] for r in cs.u_dprime} == {(1, -1, 0)}
    assert cs.u_w == frozenset(range(3))


def test_cross_section_deep_cell(w_gl3, gl3):
    # the longest representative keeps only the J-simple root; the unipotent
    # intersection with the J-radical is empty, matching d_w = dim(N_J)
    I, J = gl3.subset(["a1"]), gl3.subset(["a2"])
    w = w_gl3.parse_word("a2 a1")
    cs = cross_section(w_gl3, I, J, w)
    pos = gl3.positive_roots
    assert {pos[r] for r in cs.u_w} == {(0, 1, -1)}
    assert cs.n_j == frozenset()
    n_j_weight = sum(w_gl3.table.mult[r] for r in range(3) if not w_gl3.table.support(r) <= J)
    assert w_gl3.d(w) == n_j_weight - cs.weight(w_gl3, cs.n_j)


def test_cross_section_disjoint_unions(w_gl4, gl4):
    I, J = gl4.subset(["a1", "a2"]), gl4.subset(["a3"])
    for iw in w_gl4.min_coset_reps(I):
        cs = cross_section(w_gl4, I, J, iw)
        assert cs.u_w == cs.u_j | cs.n_j and not cs.u_j & cs.n_j
        assert cs.n_j == cs.n_j_prime | cs.n_j_dprime and not cs.n_j_prime & cs.n_j_dprime
        assert cs.u_j == cs.u_j_prime | cs.u_j_dprime and not cs.u_j_prime & cs.u_j_dprime


def test_opposition_map(w_gl3, gl3):
    I, J = gl3.subset(["a1"]), gl3.subset(["a2"])
    om = opposition_map(w_gl3, I, J)
    assert om.I_prime == J
    images = {str(w): str(img) for w, img in om.rep_map.items()}
    assert images == {"e": "a1", "a2 a1": "e"}
    # order reversing
    reps = list(om.rep_map)
    for u, v in itertools.product(reps, repeat=2):
        if w_gl3.bruhat_leq(u, v):
            assert w_gl3.bruhat_leq(om.rep_map[v], om.rep_map[u])


def test_opposition_empty_sets(w_gl4):
    om = opposition_map(w_gl4, frozenset(), frozenset())
    w0_inv = w_gl4.inv(w_gl4.w0)
    for w, img in om.rep_map.items():
        assert img == w_gl4.mul(w0_inv, w)


def test_trivial_group_on_torus_datum():
    from weylord import explicit_datum

    torus = explicit_datum(2, [], [], name="T2")
    W = weyl_group(torus)
    assert len(W) == 1 and W.w0 == W.identity
    assert W.min_coset_reps(frozenset()) == (W.identity,)
    assert torus.isogeny_flags().fundamental_weights_exist


@pytest.mark.parametrize("type_str", ["A2", "B2", "A1xA1"])
def test_opposition_cardinality(type_str):
    dat = preset_datum(type_str)
    W = weyl_group(dat)
    n = dat.num_simple
    for imask in range(1 << n):
        for jmask in range(1 << n):
            I = frozenset(i for i in range(n) if imask >> i & 1)
            J = frozenset(j for j in range(n) if jmask >> j & 1)
            om = opposition_map(W, I, J)
            assert len(om.rep_map) == len(W.double_coset_reps(om.I_prime, J))


def test_descent_masks_match_root_criterion():
    W = WeylGroup(preset_datum("B3"))
    assert "descents" not in vars(W)  # computed on first use, not in the build
    left, right = W.descents
    n = W.num_positive
    simple = W.table.simple_index
    for w in W:
        wi = W.inv(w)
        for k, p in enumerate(simple):
            assert bool(right[w.index] >> k & 1) == (w.perm[p] >= n)
            assert bool(left[w.index] >> k & 1) == (wi.perm[p] >= n)
        for I in (frozenset(), frozenset({0}), frozenset({1, 2})):
            assert W.is_left_minimal(w, I) == all(wi.perm[simple[i]] < n for i in I)
            assert W.is_right_minimal(w, I) == all(w.perm[simple[i]] < n for i in I)


def test_table_leq_is_lazy_and_matches_bruhat():
    W = weyl_group(preset_datum("B3"))
    table = double_coset_table(W, frozenset({0}), frozenset({1}))
    assert len(table.reps) > 2 and all(W.fiber(table.J, e.meet) for e in table.entries)
    assert "leq" not in vars(table)
    for a, u in enumerate(table.reps):
        for b, v in enumerate(table.reps):
            assert table.leq[a][b] == W.bruhat_leq(u, v)


def test_table_entry_lookup(w_gl4, gl4):
    table = double_coset_table(w_gl4, gl4.subset(["a1"]), gl4.subset(["a2"]))
    for entry in table.entries:
        assert table.entry(entry.rep) is entry
    outsider = next(w for w in w_gl4 if w not in set(table.reps))
    with pytest.raises(DomainError, match="not a double-coset representative"):
        table.entry(outsider)


def _perm_reference(datum):
    """(perms, words, right table) from a BFS over root permutations, sorted by (length, word)."""
    table = datum.roots
    roots = list(table.positive) + [vscale(-1, v) for v in table.positive]
    gens = [
        tuple(table.index[datum.reflect_vector(g, v)] for v in roots) for g in range(datum.num_simple)
    ]
    words = {tuple(range(len(roots))): ()}
    layer = list(words)
    while layer:
        found = {}
        for p in layer:
            for g, gp in enumerate(gens):
                q = tuple(p[r] for r in gp)
                if q not in words:
                    word = words[p] + (g,)
                    found[q] = min(found.get(q, word), word)
        words.update(found)
        layer = list(found)
    order = sorted(words, key=lambda q: (len(words[q]), words[q]))
    position = {q: i for i, q in enumerate(order)}
    right = [tuple(position[tuple(p[r] for r in gp)] for gp in gens) for p in order]
    return order, [words[q] for q in order], right


@pytest.mark.parametrize(
    "datum",
    [
        preset_datum("A2"),
        preset_datum("B3"),
        preset_datum("G2"),
        preset_datum("A1xA1"),
        preset_datum("A3", "gl", name="GL4"),
        explicit_datum(2, [], [], name="T2"),
        preset_datum("F4"),
    ],
    ids=lambda d: d.name,
)
def test_rho_orbit_build_matches_permutation_bfs(datum):
    W = WeylGroup(datum)
    perms, words, right = _perm_reference(datum)
    assert [w.word for w in W] == words
    assert W._right == right
    assert [w.index for w in W] == list(range(len(perms)))
    assert [w.perm for w in W] == perms


def test_perm_is_composed_on_first_use():
    W = WeylGroup(preset_datum("B3"))
    assert all(w._perm is None for w in W)  # the build keeps no root permutation
    w = W.w0
    assert w.perm is w.perm and w._perm is not None
    assert w.perm == tuple(range(W.num_positive, 2 * W.num_positive)) + tuple(range(W.num_positive))


def test_inv_is_the_permutation_inverse():
    W = weyl_group(preset_datum("F4"))
    for w in W:
        ip = [0] * len(w.perm)
        for a, b in enumerate(w.perm):
            ip[b] = a
        assert W.inv(w).perm == tuple(ip)
        assert W.mul(w, W.inv(w)) == W.identity


def test_same_datum_under_two_names_gives_equal_elements():
    A = WeylGroup(preset_datum("B3", name="first"))
    B = WeylGroup(preset_datum("B3", name="second"))
    for a, b in zip(A, B):
        assert a == b and hash(a) == hash(b)
    assert len(set(A) | set(B)) == len(A)
    assert A.elements[1] != B.elements[2]
    # an element of another datum with the same index is a different element
    C = WeylGroup(preset_datum("C3"))
    assert any(a != c for a, c in zip(A, C))


def test_e6_order_and_descents():
    e6 = explicit_datum(6, E6_CARTAN, [tuple(int(i == j) for i in range(6)) for j in range(6)], name="E6")
    W = WeylGroup(e6)
    assert len(W) == 51840 and W.w0.length == 36 == W.num_positive
    left, right = W.descents
    n = W.num_positive
    simple = W.table.simple_index
    for w in W.elements[::997] + (W.w0,):
        wi = W.inv(w)
        for k, p in enumerate(simple):
            assert bool(right[w.index] >> k & 1) == (w.perm[p] >= n)
            assert bool(left[w.index] >> k & 1) == (wi.perm[p] >= n)


def test_weyl_group_cache_is_bounded():
    assert weyl_group.cache_info().maxsize == WEYL_CACHE_SIZE >= 32
    for k in range(WEYL_CACHE_SIZE + 1):
        weyl_group(preset_datum("A1", name=f"A1 copy {k}"))
    assert weyl_group.cache_info().currsize == WEYL_CACHE_SIZE
