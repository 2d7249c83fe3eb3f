import itertools
import random

import pytest

from weylord import (
    DomainError,
    FinitePoset,
    LowerSet,
    bruhat_poset,
    check_lin_identity,
    lattice_ops,
    preset_datum,
    principal_lower_set,
    weyl_group,
)
from weylord.posets import _lin_identity_failures


@pytest.fixture(scope="module")
def a2_poset():
    W = weyl_group(preset_datum("A2"))
    return W, bruhat_poset(W)


def test_validation_rejects_non_poset():
    with pytest.raises(DomainError, match="antisymmetric"):
        FinitePoset.from_pairs([1, 2], {(1, 2), (2, 1)})
    with pytest.raises(DomainError, match="transitive"):
        FinitePoset.from_pairs([1, 2, 3], {(1, 2), (2, 3)})
    FinitePoset.from_pairs([1, 2, 3], {(1, 2), (2, 3), (1, 3)})


def test_principal_lower_sets(a2_poset):
    W, P = a2_poset
    assert principal_lower_set(P, W.identity).members() == (W.identity,)
    assert set(principal_lower_set(P, W.w0).members()) == set(W.elements)
    s12 = W.parse_word("a1 a2")
    expected = {W.identity, W.parse_word("a1"), W.parse_word("a2"), s12}
    assert set(principal_lower_set(P, s12).members()) == expected


def test_lattice_ops(a2_poset):
    W, P = a2_poset
    s1 = principal_lower_set(P, W.parse_word("a1"))
    s2 = principal_lower_set(P, W.parse_word("a2"))
    empty = LowerSet(P, 0)
    union, inter = lattice_ops(s1, s2)
    assert set(union.members()) == {W.identity, W.parse_word("a1"), W.parse_word("a2")}
    assert inter.members() == (W.identity,)
    assert (s1 | empty) == s1 and (s1 & empty) == empty


def test_lower_set_closure_enforced(a2_poset):
    W, P = a2_poset
    with pytest.raises(DomainError, match="downward closed"):
        LowerSet.from_members(P, [W.parse_word("a1")])


def test_mismatched_posets_rejected(a2_poset):
    W, P = a2_poset
    Q = FinitePoset.from_pairs(["x"], set())
    with pytest.raises(DomainError, match="different posets"):
        principal_lower_set(P, W.identity) | principal_lower_set(Q, "x")


def test_lower_sets_closed_under_ops_exhaustively():
    # all lower sets of the Bruhat poset of W(A2): unions and intersections stay closed
    W = weyl_group(preset_datum("A2"))
    P = bruhat_poset(W)
    all_lower = []
    for mask in range(1 << len(P)):
        try:
            all_lower.append(LowerSet(P, mask))
        except DomainError:
            pass
    for s1, s2 in itertools.product(all_lower[:64], all_lower[:64]):
        u, i = lattice_ops(s1, s2)  # constructors re-validate closure
        assert u.mask == s1.mask | s2.mask and i.mask == s1.mask & s2.mask


def test_every_lower_set_is_union_of_principal_of_maximal():
    W = weyl_group(preset_datum("A2"))
    P = bruhat_poset(W)
    for mask in range(1 << len(P)):
        try:
            ls = LowerSet(P, mask)
        except DomainError:
            continue
        acc = 0
        for m in ls.maximal_elements():
            acc |= P.down_mask(m)
        assert acc == ls.mask


def test_lin_identity_on_bruhat(a2_poset):
    W, P = a2_poset
    for w in W:
        assert check_lin_identity(P, lambda x: x.length, w)


def test_lin_identity_singleton():
    P = FinitePoset.from_pairs(["x"], set())
    assert check_lin_identity(P, lambda x: 7, "x")


def test_lin_identity_requires_strict_monotonicity():
    P = FinitePoset.from_pairs(["a", "b"], {("a", "b")})
    with pytest.raises(DomainError, match="strictly monotonic"):
        check_lin_identity(P, lambda x: 0, "b")


def _lin_identity_reference(poset, length, x0) -> bool:
    """`check_lin_identity` written over all pairs through `FinitePoset.leq`."""
    values = {x: length(x) for x in poset.elements}
    for x in poset.elements:
        for y in poset.elements:
            if x != y and poset.leq(x, y) and not values[x] < values[y]:
                raise DomainError("length function is not strictly monotonic")
    n = values[x0]
    down0 = poset.down_mask(x0)
    union_small = 0
    for x in poset.elements:
        if values[x] <= n and x != x0:
            union_small |= poset.down_mask(x)
    union_below = 0
    for x in poset.elements:
        if x != x0 and poset.leq(x, x0):
            union_below |= poset.down_mask(x)
    return (down0 & union_small) == union_below


def _random_poset(rng):
    n = rng.randint(1, 9)
    p = rng.choice((0.1, 0.3, 0.6))
    below = [{a for a in range(b) if rng.random() < p} for b in range(n)]
    for b in range(n):  # transitive closure; every a in below[b] has a < b
        for a in sorted(below[b], reverse=True):
            below[b] |= below[a]
    names = rng.sample("abcdefghijkl", n)
    pairs = {(names[a], names[b]) for b in range(n) for a in below[b]}
    return FinitePoset.from_pairs(names, pairs)


def _outcome(check, poset, length, x0):
    try:
        return check(poset, length, x0)
    except DomainError as exc:
        return str(exc)


def _random_posets_with_lengths():
    """300 seeded random posets, each with a length function of one of four kinds."""
    rng = random.Random(2024)
    for _ in range(300):
        P = _random_poset(rng)
        size = {x: bin(P.down_mask(x)).count("1") for x in P.elements}
        kind = rng.randrange(4)
        if kind == 0:  # arbitrary: mostly not monotonic
            values = {x: rng.randrange(4) for x in P.elements}
        elif kind == 1:  # strictly monotonic with ties and gaps
            values = {x: 3 * size[x] + rng.randrange(3) for x in P.elements}
        elif kind == 2:  # nearly monotonic: breaks now and then
            values = {x: size[x] + rng.randrange(-1, 2) for x in P.elements}
        else:  # partially ordered values: the lower set itself
            values = {x: frozenset(principal_lower_set(P, x).members()) for x in P.elements}
        yield P, values


def test_lin_identity_matches_the_all_pairs_reference():
    outcomes = []
    for P, values in _random_posets_with_lengths():
        for x0 in P.elements:
            got = _outcome(check_lin_identity, P, values.__getitem__, x0)
            assert got == _outcome(_lin_identity_reference, P, values.__getitem__, x0)
            outcomes.append(got)
    assert True in outcomes and "length function is not strictly monotonic" in outcomes


def test_poset_membership_errors(a2_poset):
    W, P = a2_poset
    Q = FinitePoset.from_pairs(["x"], set())
    with pytest.raises(DomainError, match="belong"):
        P.leq("x", W.identity)
    with pytest.raises(DomainError):
        principal_lower_set(Q, "y")


def _failing_indices(check, poset, length):
    """Per-element outcomes folded like `_lin_identity_failures`: indices or the error."""
    outcomes = [_outcome(check, poset, length, x0) for x0 in poset.elements]
    errors = {o for o in outcomes if isinstance(o, str)}
    if errors:
        assert len(errors) == 1 and len(set(map(type, outcomes))) == 1
        return errors.pop()
    return tuple(i for i, ok in enumerate(outcomes) if not ok)


def _one_pass(poset, length):
    try:
        return _lin_identity_failures(poset, length)
    except DomainError as exc:
        return str(exc)


def _bruhat_posets_with_lengths():
    for dynkin in ("A3", "B3", "G2"):
        P = bruhat_poset(weyl_group(preset_datum(dynkin)))
        yield P, {x: x.length for x in P.elements}
        yield P, {x: 2 * x.length + x.index % 2 for x in P.elements}  # strictly monotonic, with ties
        yield P, {x: x.length // 2 for x in P.elements}  # not strictly monotonic


def test_one_pass_lin_identity_matches_the_per_element_check():
    seen = []
    for P, values in itertools.chain(_random_posets_with_lengths(), _bruhat_posets_with_lengths()):
        got = _one_pass(P, values.__getitem__)
        assert got == _failing_indices(check_lin_identity, P, values.__getitem__)
        assert got == _failing_indices(_lin_identity_reference, P, values.__getitem__)
        seen.append(got)
    assert () in seen and "length function is not strictly monotonic" in seen
