"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (visible with -s or in the
captured output); every comparison is exact, no tolerances anywhere.
"""

import itertools
import time

import pytest

from weylord import (
    SigmaDescriptor,
    bruhat_poset,
    check_consistency,
    check_lin_identity,
    ext1_verdict,
    graded_terms,
    preset_datum,
    surviving,
    weyl_group,
)
from weylord.ext import Scenario, lemma_gen_solvable
from weylord.grading import JACQUET, ORD
from weylord.intlinalg import vadd, vscale, vsub, zero_vector
from weylord.oracle import brute_double_reps, default_cases, sweep
from weylord.weyl import double_coset_table, opposition_map

from test_ext import fixture_scenarios

SWEEP_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1")
SS = SigmaDescriptor(supersingular=True)


@pytest.fixture(scope="module")
def groups():
    data = [preset_datum(t, name=t) for t in SWEEP_TYPES]
    data.append(preset_datum("A2", multiplicity=(2, 2), name="A2/d=2"))
    return [(d, weyl_group(d)) for d in data]


def _subset_pairs(datum):
    n = datum.num_simple
    masks = range(1 << n)
    for im, jm in itertools.product(masks, masks):
        yield (
            frozenset(i for i in range(n) if im >> i & 1),
            frozenset(j for j in range(n) if jm >> j & 1),
        )


def _subset_d_delta(group, K):
    d = 0
    delta = zero_vector(group.datum.rank)
    table = group.table
    for r in range(group.num_positive):
        if not table.support(r) <= K:
            d += table.mult[r]
            delta = vadd(delta, vscale(table.mult[r], table.positive[r]))
    return d, delta


def test_criterion_01_coset_correctness(groups):
    start = time.monotonic()
    for datum, group in groups:
        for I, J in _subset_pairs(datum):
            assert frozenset(group.min_coset_reps(I)) == brute_double_reps(group, I, frozenset())
            assert frozenset(group.double_coset_reps(I, J)) == brute_double_reps(group, I, J)
            for iw in group.min_coset_reps(I):
                x, v = group.double_decompose(I, J, iw)
                assert iw.length == x.length + v.length
        for I, _ in _subset_pairs(datum):
            for w in group.elements:
                u, x = group.coset_decompose(I, w)
                assert w.length == u.length + x.length
    reports = sweep(cases=default_cases())
    elapsed = time.monotonic() - start
    assert all(r.agreement for r in reports), [r for r in reports if not r.agreement][:3]
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 coset-correctness: PASS ({elapsed:.1f}s)")


def test_criterion_02_kostant_and_root_identities(groups):
    for datum, group in groups:
        n = group.num_positive
        table = group.table
        for I, J in _subset_pairs(datum):
            phi_j = frozenset(r for r in range(n) if table.support(r) <= J)
            simple_in_i = {table.simple_index[i] for i in I}
            for iw in group.min_coset_reps(I):
                x, v = group.double_decompose(I, J, iw)
                lhs = {r for r in phi_j if iw.perm[r] < n}
                rhs = {r for r in phi_j if v.perm[r] in phi_j}
                assert lhs == rhs  # characterising equality of the factorisation
            for entry in double_coset_table(group, I, J).entries:
                w = entry.rep
                img_j = {w.perm[table.simple_index[j]] for j in J}
                in_levi = {r for r in img_j if r < n and table.support(r) <= I}
                assert in_levi == img_j & simple_in_i
                img_phi_j = {w.perm[r] for r in phi_j}
                lhs = {r for r in img_phi_j if r < n and table.support(r) <= I}
                rhs = {r for r in range(n) if table.support(r) <= entry.comeet}
                assert lhs == rhs
    print("\nACCEPTANCE 2 kostant-and-root-identities: PASS")


def test_criterion_03_duality_bijections(groups):
    for datum, group in groups:
        for I, J in _subset_pairs(datum):
            om = opposition_map(group, I, J)
            images = list(om.rep_map.values())
            assert len(set(images)) == len(images)
            assert frozenset(images) == frozenset(group.double_coset_reps(om.I_prime, J))
            reps = list(om.rep_map)
            for u, v in itertools.product(reps, repeat=2):
                if group.bruhat_leq(u, v):
                    assert group.bruhat_leq(om.rep_map[v], om.rep_map[u])
            for w, fm in om.fiber_maps.items():
                assert len(set(fm.values())) == len(fm)
                for p, q in itertools.product(list(fm), repeat=2):
                    if group.bruhat_leq(p, q):
                        assert group.bruhat_leq(fm[q], fm[p])
            if not I and not J:
                w0_inv = group.inv(group.w0)
                for w, img in om.rep_map.items():
                    assert img == group.mul(w0_inv, w)
    print("\nACCEPTANCE 3 duality-bijections: PASS")


def test_criterion_04_partition_identities(groups):
    assert any("d=2" in datum.name for datum, _ in groups)
    for datum, group in groups:
        for I, J in _subset_pairs(datum):
            om = opposition_map(group, I, J)
            d_j, delta_j = _subset_d_delta(group, J)
            d_i, delta_i = _subset_d_delta(group, I)
            w_j0 = group.longest_in(J)
            for entry in double_coset_table(group, I, J).entries:
                w = entry.rep
                w_prime = om.rep_map[w]
                d_meet, delta_meet = _subset_d_delta(group, entry.comeet)
                k_wj0 = group.mul(group.longest_in(entry.meet), w_j0)
                assert d_j == (d_meet - d_i) + entry.d + group.d(w_prime)
                rhs = vadd(
                    vadd(group.inv(w).apply(vsub(delta_meet, delta_i)), entry.delta),
                    k_wj0.apply(group.delta(w_prime)),
                )
                assert delta_j == rhs
    print("\nACCEPTANCE 4 partition-identities: PASS")


def test_criterion_05_delta_orthogonality(groups):
    for datum, group in groups:
        for I, J in _subset_pairs(datum):
            for entry in double_coset_table(group, I, J).entries:
                for b in entry.meet:
                    pairing = sum(c * q for c, q in zip(entry.delta, datum.simple_coroots[b]))
                    assert pairing == 0
    print("\nACCEPTANCE 5 delta-orthogonality: PASS")


def test_criterion_06_top_degree_reproduction(groups):
    for datum, group in groups:
        n_simple = datum.num_simple
        for imask in range(1 << n_simple):
            I = frozenset(i for i in range(n_simple) if imask >> i & 1)
            perp1 = sorted(datum.perp(I)[1] - I)
            for e in (1, 2):
                for side, sign in ((ORD, -1), (JACQUET, 1)):
                    for n in range(1, e):
                        assert not surviving(graded_terms(datum, I, I, e, n, SS, side=side))
                    alive = surviving(graded_terms(datum, I, I, e, e, SS, side=side))
                    got = {
                        (t.conjugator, t.twist, t.inducing, t.inner_subset, t.inner_degree)
                        for t in alive
                    }
                    expected = {
                        (group.gen(a), vscale(sign, datum.simple_roots[a]), I, I, 0)
                        for a in perp1
                    }
                    assert got == expected
    print("\nACCEPTANCE 6 top-degree-reproduction: PASS")


def test_criterion_07_nested_profile_reproduction(groups):
    for datum, group in groups:
        C = datum.cartan
        n_simple = datum.num_simple
        for I, J in _subset_pairs(datum):
            if not J < I:
                continue
            declared = frozenset(
                frozenset(j for j in J if C[j][a] == 0)
                for a in datum.delta1 - I
                if any(C[j][a] != 0 for j in J)
            )
            sig = SigmaDescriptor(ord_vanishes_for=declared)
            for e in (1, 2):
                for n in range(0, e):
                    alive = surviving(graded_terms(datum, I, J, e, n, sig))
                    assert [t.conjugator for t in alive] == [group.identity]
                alive = surviving(graded_terms(datum, I, J, e, e, sig))
                expected = {group.identity} | {group.gen(a) for a in datum.perp(J)[1] - I}
                assert {t.conjugator for t in alive} == expected
    print("\nACCEPTANCE 7 nested-profile-reproduction: PASS")


def test_criterion_08_ext_fixture_table():
    rows = fixture_scenarios()
    assert len(rows) >= 12
    seen_kinds = set()
    for scenario, expected in rows:
        assert ext1_verdict(scenario).to_dict() == expected
        seen_kinds.add(expected["kind"])
    assert {"Zero", "Iso", "ExactDim", "ExactCokernel", "UpperBoundCokernel", "Inconclusive"} <= seen_kinds
    print("\nACCEPTANCE 8 ext-decision-tree: PASS")


def test_criterion_09_consistency_checks():
    gl4 = preset_datum("A3", "gl", name="GL4")
    I = gl4.subset(["a1"])
    a3 = gl4.labels.index("a3")
    bad = Scenario(
        gl4, I, I, sigma=SS, sigma_prime=SS,
        central_pairings={a3: "omega_inverse"}, rel_twist={a3: "no"}, rel_id="yes",
    )
    assert check_consistency(bad)
    good = Scenario(gl4, I, I, sigma=SS, sigma_prime=SS)
    assert not check_consistency(good)
    for lattice, expected in (("gl", True), ("simply_connected", False), ("adjoint", True)):
        datum = preset_datum("A2", lattice)
        assert lemma_gen_solvable(datum, frozenset(), 0) == expected
    print("\nACCEPTANCE 9 consistency-checks: PASS")


def test_criterion_10_isogeny_flags():
    expectations = {
        "gl": (True, True),
        "simply_connected": (True, False),
        "adjoint": (False, True),
    }
    for lattice, (weights, coweights) in expectations.items():
        flags = preset_datum("A2", lattice).isogeny_flags()
        assert flags.fundamental_weights_exist == weights
        assert flags.fundamental_coweights_exist == coweights
    print("\nACCEPTANCE 10 isogeny-flags: PASS")


def test_criterion_11_filtration_identities(groups):
    for datum, group in groups:
        for I, J in _subset_pairs(datum):
            reps = group.double_coset_reps(I, J)
            poset = bruhat_poset(group, reps)
            for w in reps:
                assert check_lin_identity(poset, lambda x: x.length, w)
    print("\nACCEPTANCE 11 filtration-identities: PASS")
