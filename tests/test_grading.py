import itertools

import pytest

from weylord import (
    DomainError,
    SigmaDescriptor,
    full_profile,
    graded_terms,
    hj_graded_pieces,
    hord_graded_pieces,
    preset_datum,
    surviving,
    weyl_group,
)
from weylord.grading import JACQUET, ORD, PROFILE_CAP, RULE_DEGREE_ZERO, RULE_LEVI_FORM
from weylord.intlinalg import vadd, vsub, vscale, zero_vector
from weylord.weyl import double_coset_table, opposition_map

SS = SigmaDescriptor(supersingular=True)
PLAIN = SigmaDescriptor()


def test_supersingular_implies_cuspidal():
    assert SS.right_cuspidal and SS.left_cuspidal and SS.supercuspidal


def test_top_degree_terms_match_orthogonal_twists(gl4):
    I = gl4.subset(["a1"])
    for e in (1, 2):
        for n in range(1, e):
            assert not surviving(hord_graded_pieces(gl4, I, I, e, n, SS))
        alive = surviving(hord_graded_pieces(gl4, I, I, e, e, SS))
        assert len(alive) == 1
        t = alive[0]
        assert str(t.conjugator) == "a3"
        assert t.inducing == I and t.inner_subset == I and t.inner_degree == 0
        assert t.twist == (0, 0, -1, 1)
        assert t.status.kind == "proven" and t.status.rule == RULE_LEVI_FORM


def test_jacquet_twist_sign(gl4):
    I = gl4.subset(["a1"])
    alive = surviving(hj_graded_pieces(gl4, I, I, 1, 1, SS))
    assert len(alive) == 1 and alive[0].twist == (0, 0, 1, -1)
    flipped = surviving(hj_graded_pieces(gl4, I, I, 1, 1, SS, opposite=True))
    assert flipped[0].twist == (0, 0, -1, 1) and flipped[0].opposite_flag


def test_two_cell_example(gl3):
    I, J = gl3.subset(["a1"]), gl3.subset(["a2"])
    terms = hord_graded_pieces(gl3, I, J, 1, 1, SS)
    assert [str(t.conjugator) for t in terms] == ["e", "a2 a1"]
    alive, dead = terms[0], terms[1]
    assert alive.survives and alive.status.kind == "conjectural"
    assert alive.inner_degree == 1 and alive.inducing == frozenset() and alive.inner_subset == frozenset()
    assert "Emerton" in alive.status.note
    assert not dead.survives and dead.inner_degree == 1 - 2


def test_profile_identity_levi(gl4):
    full = gl4.subset(gl4.labels)
    report = full_profile(gl4, full, full, 1, SS, n_max=3)
    assert [str(t.conjugator) for t in report.terms[0]] == ["e"]
    assert report.surviving(0)[0].status.rule == RULE_LEVI_FORM
    for n in range(1, 4):
        assert not report.surviving(n)


def test_profile_nested_strict(gl4):
    # J strictly inside I at e = 2: single identity term below the field degree
    I, J = gl4.subset(["a1", "a2"]), gl4.subset(["a1"])
    report = full_profile(gl4, I, J, 2, PLAIN, n_max=1)
    for n in (0, 1):
        alive = report.surviving(n)
        assert len(alive) == 1 and alive[0].conjugator.length == 0
    assert report.corollary_checks["nested-low-degrees-single-term"] is True


def test_profile_nested_top_shape(gl4):
    # declared vanishing on the non-orthogonal reflections keeps exactly the
    # stated terms at the field degree
    I, J = gl4.subset(["a1", "a2"]), gl4.subset(["a1"])
    C = gl4.cartan
    declared = frozenset(
        frozenset(j for j in J if C[j][a] == 0)
        for a in gl4.delta1 - I
        if any(C[j][a] != 0 for j in J)
    )
    sig = SigmaDescriptor(ord_vanishes_for=declared)
    report = full_profile(gl4, I, J, 1, sig, n_max=1)
    alive = report.surviving(1)
    got = {str(t.conjugator) for t in alive}
    perp1 = gl4.perp(J)[1]
    assert got == {"e"} | {gl4.labels[a] for a in perp1 - I}
    assert report.corollary_checks["nested-top-degree-shape"] is True


def test_included_low_degrees_vanish(gl4):
    I, J = gl4.subset(["a1"]), gl4.subset(["a1", "a2"])
    report = full_profile(gl4, I, J, 2, PLAIN, n_max=1)
    assert report.corollary_checks["included-low-degrees-vanish"] is True
    assert not report.surviving(1)


def test_status_soundness(gl4):
    group = weyl_group(gl4)
    subsets = [frozenset(), gl4.subset(["a1"]), gl4.subset(["a1", "a3"]), gl4.subset(gl4.labels)]
    for I, J in itertools.product(subsets, repeat=2):
        for n in range(0, 4):
            for t in graded_terms(gl4, I, J, 1, n, SS):
                if t.status.kind != "proven":
                    continue
                if t.status.rule == RULE_LEVI_FORM:
                    assert t.inducing == J  # w(J) inside the Levi
                elif t.status.rule == RULE_DEGREE_ZERO:
                    assert n == 0 and t.conjugator.length == 0
                else:
                    raise AssertionError(f"unexpected proven rule {t.status.rule}")


def test_degree_support_bound(gl4):
    group = weyl_group(gl4)
    I, J = gl4.subset(["a1"]), gl4.subset(["a2"])
    d_j = sum(
        group.table.mult[r]
        for r in range(group.num_positive)
        if not group.table.support(r) <= J
    )
    for e in (1, 2):
        report = full_profile(gl4, I, J, e, PLAIN, n_max=e * d_j + 2)
        for n, terms in report.terms.items():
            if surviving(terms):
                assert n <= e * d_j


def test_twist_orthogonal_to_inducing_coroots(gl4):
    subsets = [frozenset(), gl4.subset(["a1"]), gl4.subset(["a2", "a3"])]
    for I, J in itertools.product(subsets, repeat=2):
        for n in range(0, 5):
            for t in surviving(graded_terms(gl4, I, J, 1, n, PLAIN)):
                for b in t.inducing:
                    assert sum(c * q for c, q in zip(t.twist, gl4.simple_coroots[b])) == 0


def test_multiplicity_two_has_no_twist_terms():
    dat = preset_datum("A2", multiplicity=(2, 2))
    I = dat.subset(["a1"])
    for e in (1, 2):
        assert not surviving(hord_graded_pieces(dat, I, I, e, e, SS))


def test_strict_mode_renders_unknown(gl3):
    I, J = gl3.subset(["a1"]), gl3.subset(["a2"])
    t = surviving(hord_graded_pieces(gl3, I, J, 1, 1, SS))[0]
    assert "[conjectural]" in t.render(gl3)
    assert "[unknown]" in t.render(gl3, strict=True)


def test_input_validation(gl3):
    I = gl3.subset(["a1"])
    with pytest.raises(DomainError):
        graded_terms(gl3, I, I, 0, 0, SS)
    with pytest.raises(DomainError):
        graded_terms(gl3, I, I, 1, -1, SS)
    with pytest.raises(DomainError):
        graded_terms(gl3, I, I, 1, 0, SS, side="bogus")
    with pytest.raises(DomainError, match="proper"):
        graded_terms(gl3, I, I, 1, 0, SigmaDescriptor(ord_vanishes_for=frozenset({I})))


@pytest.mark.parametrize("type_str", ["A2", "B2"])
def test_duality_between_sides(type_str):
    """Coinvariant-side terms match ordinary-side terms of the opposed datum.

    The correspondence sends the representative w to its opposition partner,
    complements the inner degree inside the inner unipotent dimension, and
    transports the inducing and inner subsets; the twists are linked by the
    partition identity of the weighted inversion sums.
    """
    datum = preset_datum(type_str, "gl" if type_str == "A2" else "simply_connected")
    group = weyl_group(datum)
    n_simple = datum.num_simple
    e = 1
    for imask in range(1 << n_simple):
        for jmask in range(1 << n_simple):
            I = frozenset(i for i in range(n_simple) if imask >> i & 1)
            J = frozenset(j for j in range(n_simple) if jmask >> j & 1)
            om = opposition_map(group, I, J)
            table = double_coset_table(group, I, J)
            d_j = sum(
                group.table.mult[r]
                for r in range(group.num_positive)
                if not group.table.support(r) <= J
            )
            w_j0 = group.longest_in(J)
            for n in range(0, e * d_j + 1):
                hj = {t.conjugator: t for t in graded_terms(datum, I, J, e, n, PLAIN, side=JACQUET)}
                hord = {
                    t.conjugator: t
                    for t in graded_terms(datum, om.I_prime, J, e, e * d_j - n, PLAIN, side=ORD)
                }
                for entry in table.entries:
                    w = entry.rep
                    partner = om.rep_map[w]
                    s, t = hj[w], hord[partner]
                    top = e * _inner_weight(group, I, entry.comeet)
                    assert t.inner_degree == top - s.inner_degree
                    assert s.survives == t.survives
                    k_wj0 = group.mul(group.longest_in(entry.meet), w_j0)
                    assert t.inducing == group.transport_subset(group.inv(k_wj0), entry.meet)
                    assert t.inner_subset == group.transport_subset(group.inv(om.iw0), entry.comeet)
                    # twist link: delta_J decomposes through both sides
                    d_meet = _subset_delta(group, entry.comeet)
                    d_i = _subset_delta(group, I)
                    lhs = _subset_delta(group, J)
                    rhs = vadd(
                        vadd(group.inv(w).apply(vsub(d_meet, d_i)), s.twist),
                        k_wj0.apply(vscale(-1, t.twist)),
                    )
                    assert lhs == rhs


def _inner_weight(group, I, inner):
    table = group.table
    return sum(
        table.mult[r]
        for r in range(group.num_positive)
        if table.support(r) <= I and not table.support(r) <= inner
    )


def _subset_delta(group, K):
    out = zero_vector(group.datum.rank)
    table = group.table
    for r in range(group.num_positive):
        if not table.support(r) <= K:
            out = vadd(out, vscale(table.mult[r], table.positive[r]))
    return out


# declared vanishing of the degree-zero inner functor along the empty subset
DECLARED = SigmaDescriptor(ord_vanishes_for={frozenset()}, jacquet_vanishes_for={frozenset()})


@pytest.mark.parametrize(
    "type_str, lattice, multiplicity",
    [("A3", "gl", None), ("B3", "simply_connected", None), ("G2", "simply_connected", None), ("A2", "simply_connected", (2, 2))],
)
def test_profile_matches_graded_terms(type_str, lattice, multiplicity):
    datum = preset_datum(type_str, lattice, multiplicity=multiplicity)
    last = datum.num_simple - 1
    pairs = [({0}, {0}), ({0}, {last}), (set(range(datum.num_simple)), {last})]
    sides = [(ORD, False), (JACQUET, False), (JACQUET, True)]
    for (I, J), (side, opposite), sigma, e in itertools.product(pairs, sides, (SS, PLAIN, DECLARED), (1, 2)):
        report = full_profile(datum, I, J, e, sigma, n_max=1, side=side, opposite=opposite)
        assert sorted(report.terms) == list(range(report.max_degree + 1))
        for n, terms in report.terms.items():
            assert terms == tuple(graded_terms(datum, I, J, e, n, sigma, side=side, opposite=opposite))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d, I: full_profile(d, I, I, 0, SS), "field degree e"),
        (lambda d, I: full_profile(d, I, I, 1, SS, opposite=True), "opposite-flag option applies"),
        (lambda d, I: full_profile(d, I, I, 1, SigmaDescriptor(ord_vanishes_for={I})), "proper subsets"),
        # which check fires first when several fail
        (lambda d, I: full_profile(d, I, I, 0, SS, n_max=-1, side="bogus"), "profile degree bound"),
        (lambda d, I: full_profile(d, {7}, I, 0, SS, side="bogus"), "outside the simple roots"),
        (lambda d, I: full_profile(d, I, I, 0, SS, side="bogus"), "unknown side"),
        (lambda d, I: full_profile(d, I, I, 0, SigmaDescriptor(ord_vanishes_for={I})), "field degree e"),
        (lambda d, I: full_profile(d, I, I, 1, SigmaDescriptor(ord_vanishes_for={I}), opposite=True), "proper subsets"),
        (lambda d, I: graded_terms(d, {7}, I, 0, -1, SS), "field degree e"),
        (lambda d, I: graded_terms(d, {7}, I, 1, -1, SS), "cohomological degree"),
        (lambda d, I: graded_terms(d, I, I, 1, 0, SigmaDescriptor(ord_vanishes_for={I}), opposite=True), "proper subsets"),
    ],
)
def test_argument_checks_and_their_order(gl3, call, message):
    with pytest.raises(DomainError, match=message):
        call(gl3, gl3.subset(["a1"]))


def test_profile_degree_count_is_capped(gl3):
    I = gl3.subset(["a1"])
    assert full_profile(gl3, I, I, 1, SS, n_max=PROFILE_CAP - 1).max_degree == PROFILE_CAP - 1
    # a degree bound or a field degree past the cap: refused before any degree is built
    for e, n_max in ((1, PROFILE_CAP), (1, 10**8), (10**8, 0)):
        with pytest.raises(DomainError, match=f"over the cap of {PROFILE_CAP}"):
            full_profile(gl3, I, I, e, SS, n_max=n_max)
