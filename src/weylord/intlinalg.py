"""Exact integer linear algebra on plain tuples.

Everything here works over Z with arbitrary-precision ints; no floats are ever
involved, so pairings and lattice computations are exact by construction.

It decides whether A x = b has an integer solution (`solve_integer`) and
whether A maps Z^n onto Z^m (`surjective_over_z`, every unit vector is hit),
both by one column-echelon pass: unimodular column operations keep the
lattice A Z^n (Cohen, A Course in Computational Algebraic Number Theory, §2.4).
"""

from __future__ import annotations

Vector = tuple[int, ...]


def dot(u, v) -> int:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in pairing")
    return sum(a * b for a, b in zip(u, v))


def vadd(u, v) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c: int, u) -> Vector:
    return tuple(c * a for a in u)


def zero_vector(n: int) -> Vector:
    return (0,) * n


def unit_vector(i: int, n: int) -> Vector:
    return tuple(int(j == i) for j in range(n))


def solve_integer(rows, b) -> Vector | None:
    """One integer solution x of A x = b, or None if the system is unsolvable.

    One pass over the rows of A.  On row i, Euclid's algorithm across the
    columns still free leaves a single nonzero entry, the pivot, so the fixed
    columns form H = A V in lower echelon form with V unimodular.  H y = b is
    solved on the same pass: a pivot row must divide what is left of b_i,
    and a row without a pivot must have nothing left.  Then x = V y.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if len(b) != m:
        raise ValueError("right-hand side has wrong length")
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    H = [[r[j] for r in rows] for j in range(n)]  # columns of A V
    V = [list(unit_vector(j, n)) for j in range(n)]  # columns of V
    rest = list(b)  # b minus the fixed columns of H times their y
    x = [0] * n
    k = 0  # columns before k are fixed
    for i in range(m):
        while True:
            live = [j for j in range(k, n) if H[j][i]]
            if not live:
                break
            p = min(live, key=lambda j: abs(H[j][i]))
            H[k], H[p], V[k], V[p] = H[p], H[k], V[p], V[k]
            if len(live) == 1:
                break
            for j in range(k + 1, n):
                q = H[j][i] // H[k][i]
                H[j] = [a - q * c for a, c in zip(H[j], H[k])]
                V[j] = [a - q * c for a, c in zip(V[j], V[k])]
        if k == n or not H[k][i]:
            if rest[i]:
                return None
            continue
        y, r = divmod(rest[i], H[k][i])
        if r:
            return None
        rest = [a - y * c for a, c in zip(rest, H[k])]
        x = [a + y * c for a, c in zip(x, V[k])]
        k += 1
    return tuple(x)


def surjective_over_z(rows) -> bool:
    """Whether x -> A x maps Z^cols onto Z^rows: every unit vector is some A x."""
    m = len(rows)
    if m and len(rows[0]) < m:
        return False
    return all(solve_integer(rows, unit_vector(i, m)) is not None for i in range(m))
