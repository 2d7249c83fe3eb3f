import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylord import preset_datum
from weylord.intlinalg import dot, solve_integer, surjective_over_z, unit_vector


# -- an independent criterion: gcds of minors ----------------------------------


def det(M):
    """Laplace expansion along the first row; fine for the small minors here."""
    if not M:
        return 1
    return sum(
        (-1) ** j * M[0][j] * det([r[:j] + r[j + 1 :] for r in M[1:]])
        for j in range(len(M))
        if M[0][j]
    )


def minor_gcds(A, ncols):
    """g[r] = gcd of the r x r minors of A for r = 0 .. min(m, n); 0 if they all vanish."""
    m = len(A)
    out = []
    for r in range(min(m, ncols) + 1):
        g = 0
        for rs in itertools.combinations(range(m), r):
            for cs in itertools.combinations(range(ncols), r):
                g = gcd(g, det([[A[i][j] for j in cs] for i in rs]))
        out.append(g)
    return out


def heger_solvable(A, ncols, b):
    """A x = b has an integer solution iff A and [A | b] have the same rank r
    and the same gcd of r x r minors (Heger)."""
    ga = minor_gcds(A, ncols)
    gb = minor_gcds([list(row) + [c] for row, c in zip(A, b)], ncols + 1)
    rank = max(r for r, g in enumerate(ga) if g)
    rank_b = max(r for r, g in enumerate(gb) if g)
    return rank == rank_b and ga[rank] == gb[rank]


def onto_by_minors(A, ncols):
    """A maps Z^n onto Z^m iff the gcd of its m x m minors is 1."""
    m = len(A)
    return m <= ncols and minor_gcds(A, ncols)[m] == 1


def check_against_criterion(A, ncols, b):
    x = solve_integer(A, b)
    assert (x is not None) == heger_solvable(A, ncols, b)
    if x is not None:
        assert len(x) == ncols
        assert tuple(dot(tuple(r), x) for r in A) == tuple(b)
    return x


@st.composite
def systems(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    entry = st.integers(-6, 6)
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(entry, min_size=m, max_size=m))
    return A, n, tuple(b)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_and_surjectivity_match_minor_gcds(system):
    A, n, b = system
    check_against_criterion(A, n, b)
    # a right-hand side inside the lattice A Z^n is always solvable
    inside = tuple(sum(row) for row in A)
    assert check_against_criterion(A, n, inside) is not None
    assert surjective_over_z(A) == onto_by_minors(A, n)


PRESETS = [
    (t, lattice)
    for lattice in ("simply_connected", "adjoint")
    for t in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2", "A1xA1")
] + [(t, "gl") for t in ("A1", "A2", "A3", "A4")]


@pytest.mark.parametrize("type_str, lattice", PRESETS)
def test_presets_match_minor_gcds(type_str, lattice):
    d = preset_datum(type_str, lattice)
    for vectors in (d.simple_roots, d.simple_coroots):
        # every subsystem of simple (co)roots, as the separating-cocharacter
        # test and the isogeny flags pose them
        for k in range(1, len(vectors) + 1):
            for chosen in itertools.combinations(vectors, k):
                A = [list(v) for v in chosen]
                assert surjective_over_z(A) == onto_by_minors(A, d.rank)
                for i in range(k):
                    check_against_criterion(A, d.rank, unit_vector(i, k))


@pytest.mark.parametrize("b, expected", [((1, 0), True), ((0, 1), True), ((2, 3), True)])
def test_solve_gl(b, expected):
    rows = [[1, -1, 0], [0, 1, -1]]
    x = solve_integer(rows, b)
    assert (x is not None) == expected
    if x is not None:
        assert tuple(dot(tuple(r), x) for r in rows) == b


def test_solve_unsolvable():
    # 2a - b = 1, -a + 2b = 0 has no integer solution
    assert solve_integer([[2, -1], [-1, 2]], (1, 0)) is None


def test_surjectivity():
    assert surjective_over_z([[1, -1, 0], [0, 1, -1]])
    assert not surjective_over_z([[2, -1], [-1, 2]])
    assert surjective_over_z([])
    assert not surjective_over_z([[0, 0]])
    assert surjective_over_z([unit_vector(1, 3)])


def test_malformed_systems_raise():
    with pytest.raises(ValueError, match="wrong length"):
        solve_integer([[1, 2]], (1, 2))
    with pytest.raises(ValueError, match="ragged"):
        solve_integer([[1, 2], [3]], (1, 2))
    assert solve_integer([], ()) == ()
