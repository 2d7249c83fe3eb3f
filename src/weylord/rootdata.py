"""Based root data with root-space multiplicities.

A datum fixes coordinates: simple roots live in X* = Z^rank, simple coroots in
the dual lattice, and the pairing is the standard dot product.  The optional
multiplicity function d_alpha >= 1 records the dimension of the root space
attached to each simple root (all 1 in the split case) and is extended to the
whole reduced system along Weyl orbits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, InputError
from .intlinalg import dot, surjective_over_z, unit_vector, vsub, vscale

ROOT_CAP = 10_000

Vector = tuple[int, ...]


@dataclass(frozen=True)
class IsogenyFlags:
    """Lattice-theoretic isogeny information, determined by the datum alone."""

    fundamental_weights_exist: bool
    fundamental_coweights_exist: bool

    @property
    def center_connected(self) -> bool:
        return self.fundamental_coweights_exist


@dataclass(frozen=True)
class RootSystemTable:
    """Reduced positive roots in a fixed deterministic order.

    `positive[i]` is the i-th positive root in X* coordinates, `coeffs[i]` its
    coordinates in the simple-root basis and `mult[i]` its multiplicity.  Index
    convention for the full reduced system: root i is positive for i < N and
    -positive[i - N] for N <= i < 2N.  `support_mask[i]` is the support of
    positive root i as a bitmask over simple indices, in the encoding of `mask`,
    and `supports[i]` the same support as a frozenset.
    `reflect[g][i]` is the index of s_g applied to root i of the full system,
    so row g is the permutation of the 2N roots by the simple reflection s_g,
    recorded by the orbit closure that finds the roots.
    """

    positive: tuple[Vector, ...]
    coeffs: tuple[Vector, ...]
    mult: tuple[int, ...]
    simple_index: tuple[int, ...]
    index: dict  # vector -> index in the full system
    support_mask: tuple[int, ...]
    supports: tuple[frozenset[int], ...]
    reflect: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.positive)

    @staticmethod
    def mask(subset) -> int:
        """A set of simple indices as a bitmask: bit k stands for simple root k."""
        out = 0
        for k in subset:
            out |= 1 << k
        return out

    def support(self, i: int) -> frozenset[int]:
        return self.supports[i]

    def subset_weight(self, inside, outside) -> int:
        """Total multiplicity of positive roots supported in `inside` but not in `outside`."""
        not_inside = ~self.mask(inside)
        not_outside = ~self.mask(outside)
        return sum(
            m
            for s, m in zip(self.support_mask, self.mult)
            if not s & not_inside and s & not_outside
        )


@dataclass(frozen=True)
class RootDatum:
    rank: int
    simple_roots: tuple[Vector, ...]
    simple_coroots: tuple[Vector, ...]
    multiplicity: tuple[int, ...]
    labels: tuple[str, ...]
    split: bool
    name: str = ""

    # -- validation ------------------------------------------------------

    def __post_init__(self):
        s = len(self.simple_roots)
        if self.rank < 0:
            raise DomainError("rank must be nonnegative")
        if len(self.simple_coroots) != s:
            raise DomainError("simple roots and coroots must come in equal numbers")
        for v in self.simple_roots + self.simple_coroots:
            if len(v) != self.rank or not all(isinstance(c, int) for c in v):
                raise DomainError("root and coroot coordinates must be integer vectors of length rank")
        if len(self.multiplicity) != s or any(m < 1 for m in self.multiplicity):
            raise DomainError("multiplicity must assign a positive integer to each simple root")
        if len(self.labels) != s or len(set(self.labels)) != s:
            raise DomainError("labels must be distinct, one per simple root")
        if self.split and any(m != 1 for m in self.multiplicity):
            raise DomainError("a split datum must have all multiplicities equal to 1")
        C = self.cartan
        for i in range(s):
            if C[i][i] != 2:
                raise DomainError("non-crystallographic Cartan matrix: diagonal entry != 2")
            for j in range(s):
                if i == j:
                    continue
                if C[i][j] > 0:
                    raise DomainError("non-crystallographic Cartan matrix: positive off-diagonal entry")
                if (C[i][j] == 0) != (C[j][i] == 0):
                    raise DomainError("non-crystallographic Cartan matrix: zero pattern not symmetric")
                if C[i][j] * C[j][i] > 3:
                    raise DomainError("Cartan matrix is not of finite crystallographic type")

    # -- basic structure --------------------------------------------------

    @property
    def num_simple(self) -> int:
        return len(self.simple_roots)

    @cached_property
    def cartan(self) -> tuple[Vector, ...]:
        """Cartan matrix C[i][j] = <alpha_i, alpha_j^vee>."""
        return tuple(
            tuple(dot(a, bv) for bv in self.simple_coroots) for a in self.simple_roots
        )

    def reflect_vector(self, i: int, v) -> Vector:
        """Simple reflection s_i acting on X*."""
        return vsub(v, vscale(dot(v, self.simple_coroots[i]), self.simple_roots[i]))

    # -- root system -------------------------------------------------------

    @cached_property
    def roots(self) -> RootSystemTable:
        """Orbit closure of the simple roots under the simple reflections.

        Also extends the multiplicity function Weyl-invariantly and rejects
        data where that extension is inconsistent.
        """
        s = self.num_simple
        # root -> (simple-root coefficients, multiplicity, position in discovery order)
        known: dict[Vector, tuple[Vector, int, int]] = {}
        # images[p][i]: position of s_i applied to root p; roots are reflected in discovery order
        images: list[list[int]] = []
        frontier: list[Vector] = []
        for i in range(s):
            v = self.simple_roots[i]
            if v in known:
                raise DomainError("duplicate simple root")
            known[v] = (unit_vector(i, s), self.multiplicity[i], i)
            frontier.append(v)
        while frontier:
            fresh: list[Vector] = []
            for v in frontier:
                cv, mv, _ = known[v]
                row = []
                for i in range(s):
                    w = self.reflect_vector(i, v)
                    cw = vsub(cv, vscale(dot(v, self.simple_coroots[i]), unit_vector(i, s)))
                    got = known.get(w)
                    if got is None:
                        got = known[w] = (cw, mv, len(known))
                        fresh.append(w)
                    elif got[0] != cw:
                        raise DomainError("corrupt datum: dependent simple roots")
                    elif got[1] != mv:
                        raise DomainError("multiplicity is not Weyl-invariant")
                    row.append(got[2])
                images.append(row)
            frontier = fresh
            if len(known) > 2 * ROOT_CAP:
                raise DomainError("root generation exceeded the crystallographic bound (corrupt datum)")

        positive = []
        for v, (c, m, _) in known.items():
            if all(x >= 0 for x in c):
                positive.append((sum(c), c, v, m))
            elif not all(x <= 0 for x in c):
                raise DomainError("corrupt datum: root with mixed-sign coefficients")
        # by height, then lexicographically with the earlier simple roots first
        positive.sort(key=lambda t: (t[0], tuple(-x for x in t[1])))
        vectors = tuple(t[2] for t in positive)
        coeffs = tuple(t[1] for t in positive)
        mult = tuple(t[3] for t in positive)
        if 2 * len(vectors) != len(known):
            raise DomainError("corrupt datum: positive and negative roots do not match up")
        index: dict[Vector, int] = {}
        for i, v in enumerate(vectors):
            index[v] = i
        n = len(vectors)
        for i, v in enumerate(vectors):
            neg = vscale(-1, v)
            if neg not in known:
                raise DomainError("corrupt datum: missing negative root")
            index[neg] = n + i
        simple_index = tuple(index[v] for v in self.simple_roots)
        final = [index[v] for v in known]  # discovery position -> index
        rows = [images[known[v][2]] for v in index]  # `index` lists the full system in order
        reflect = tuple(tuple(final[row[i]] for row in rows) for i in range(s))

        # each simple reflection must permute the other positive roots
        for i, row in enumerate(reflect):
            if any(row[j] >= n for j in range(n) if j != simple_index[i]):
                raise DomainError("corrupt datum: simple reflection does not permute positive roots")
        supports = tuple(frozenset(k for k, c in enumerate(cv) if c) for cv in coeffs)
        support_mask = tuple(RootSystemTable.mask(sup) for sup in supports)
        return RootSystemTable(vectors, coeffs, mult, simple_index, index, support_mask, supports, reflect)

    @property
    def positive_roots(self) -> tuple[Vector, ...]:
        return self.roots.positive

    @property
    def num_positive(self) -> int:
        return self.roots.count

    # -- subsets of simple roots -------------------------------------------

    @cached_property
    def delta1(self) -> frozenset[int]:
        """Simple roots with one-dimensional root space."""
        return frozenset(i for i, m in enumerate(self.multiplicity) if m == 1)

    def subset(self, labels) -> frozenset[int]:
        """Resolve an iterable of labels to a set of simple-root indices."""
        out = set()
        for lab in labels:
            try:
                out.add(self.labels.index(lab))
            except ValueError:
                raise DomainError(f"unknown simple-root label {lab!r}") from None
        return frozenset(out)

    def label_list(self, subset) -> list[str]:
        return [self.labels[i] for i in sorted(subset)]

    def check_subset(self, subset) -> frozenset[int]:
        subset = frozenset(subset)
        if not subset <= frozenset(range(self.num_simple)):
            raise DomainError("subset contains indices outside the simple roots")
        return subset

    def perp(self, subset) -> tuple[frozenset[int], frozenset[int]]:
        """Orthogonal complement of a subset of simple roots, and its Delta^1 part."""
        subset = self.check_subset(subset)
        C = self.cartan
        p = frozenset(
            i for i in range(self.num_simple) if all(C[i][j] == 0 for j in subset)
        )
        return p, p & self.delta1

    def isogeny_flags(self) -> IsogenyFlags:
        """Existence of fundamental weights and coweights, by lattice surjectivity."""
        return IsogenyFlags(
            fundamental_weights_exist=surjective_over_z(self.simple_coroots),
            fundamental_coweights_exist=surjective_over_z(self.simple_roots),
        )


# -- presets -----------------------------------------------------------------

# nine digits at most: int() refuses thousands, and ten are far over ROOT_CAP
_TYPE_RE = re.compile(r"^([ABCDFG])(\d{1,9})$")

LATTICES = ("simply_connected", "adjoint", "gl")


def _positive_root_count(letter: str, n: int) -> int:
    """|Phi^+| of one irreducible component, read off its type; 0 for an F or G
    other than F4 and G2, which `_cartan_block` rejects."""
    return {
        "A": n * (n + 1) // 2,
        "B": n * n,
        "C": n * n,
        "D": n * (n - 1),
        "F": 24 * (n == 4),
        "G": 6 * (n == 2),
    }[letter]


def _cartan_block(letter: str, n: int):
    if letter == "A" and n >= 1:
        pairs = {(i, i + 1) for i in range(n - 1)}
        special = {}
    elif letter == "B" and n >= 2:
        pairs = {(i, i + 1) for i in range(n - 1)}
        special = {(n - 2, n - 1): -2}
    elif letter == "C" and n >= 2:
        pairs = {(i, i + 1) for i in range(n - 1)}
        special = {(n - 1, n - 2): -2}
    elif letter == "D" and n >= 3:
        pairs = {(i, i + 1) for i in range(n - 2)} | {(n - 3, n - 1)}
        special = {}
    elif letter == "G" and n == 2:
        pairs = {(0, 1)}
        special = {(1, 0): -3}
    elif letter == "F" and n == 4:
        pairs = {(0, 1), (1, 2), (2, 3)}
        special = {(1, 2): -2}
    else:
        raise InputError(f"unsupported preset type {letter}{n}")
    C = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    for i, j in pairs:
        C[i][j] = -1
        C[j][i] = -1
    for (i, j), v in special.items():
        C[i][j] = v
    return C


def parse_type(type_str: str) -> list[tuple[str, int]]:
    """Parse a (possibly composite) type string like 'A2' or 'A1xA1'."""
    parts = re.split(r"[x×*]", type_str.strip())
    out = []
    for part in parts:
        m = _TYPE_RE.match(part.strip())
        if not m:
            raise InputError(f"cannot parse type component {part!r}")
        out.append((m.group(1), int(m.group(2))))
    if not out:
        raise InputError("empty type string")
    return out


def _gl_block(n: int):
    """Roots and coroots of GL_{n+1} in the standard basis of Z^(n+1)."""
    roots = []
    for i in range(n):
        v = [0] * (n + 1)
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
    return roots, [r for r in roots]


def _simple_root_options(s: int, multiplicity, labels, split) -> dict:
    """Multiplicity, labels and split of a datum with s simple roots, defaults filled in.

    The defaults are multiplicity 1, labels a1, a2, ... and split exactly
    when every multiplicity is 1.
    """
    multiplicity = (1,) * s if multiplicity is None else tuple(int(m) for m in multiplicity)
    if labels is None:
        labels = [f"a{i + 1}" for i in range(s)]
    if split is None:
        split = all(m == 1 for m in multiplicity)
    return {"multiplicity": multiplicity, "labels": tuple(labels), "split": bool(split)}


def preset_datum(
    type_str: str,
    lattice: str = "simply_connected",
    multiplicity=None,
    labels=None,
    split=None,
    name: str = "",
) -> RootDatum:
    """Build a datum from a Dynkin type and a choice of lattice.

    simply_connected: X* has the fundamental-weight basis, coroots are the
    unit vectors.  adjoint: X* has the simple-root basis, coroots are the
    columns of the Cartan matrix.  gl: type A only, the standard GL_n lattice.
    """
    if lattice not in LATTICES:
        raise InputError(f"unknown lattice {lattice!r}; expected one of {LATTICES}")
    components = parse_type(type_str)
    # bound the work before any block is built: an n x n Cartan block costs n^2
    roots = sum(_positive_root_count(letter, n) for letter, n in components)
    if roots > ROOT_CAP:
        raise InputError(f"type {type_str} has {roots} positive roots, over the cap of {ROOT_CAP}")
    blocks_r: list[list[Vector]] = []
    blocks_c: list[list[Vector]] = []
    widths: list[int] = []
    for letter, n in components:
        if lattice == "gl":
            if letter != "A":
                raise InputError("the gl lattice is only defined for type A components")
            roots, coroots = _gl_block(n)
            widths.append(n + 1)
        else:
            C = _cartan_block(letter, n)
            if lattice == "simply_connected":
                roots = [tuple(C[i]) for i in range(n)]
                coroots = [unit_vector(i, n) for i in range(n)]
            else:  # adjoint
                roots = [unit_vector(i, n) for i in range(n)]
                coroots = [tuple(C[i][j] for i in range(n)) for j in range(n)]
            widths.append(n)
        blocks_r.append([tuple(v) for v in roots])
        blocks_c.append([tuple(v) for v in coroots])
    rank = sum(widths)
    simple_roots: list[Vector] = []
    simple_coroots: list[Vector] = []
    offset = 0
    for w, rb, cb in zip(widths, blocks_r, blocks_c):
        pad_l, pad_r = offset, rank - offset - w
        for v in rb:
            simple_roots.append((0,) * pad_l + v + (0,) * pad_r)
        for v in cb:
            simple_coroots.append((0,) * pad_l + v + (0,) * pad_r)
        offset += w
    return RootDatum(
        rank=rank,
        simple_roots=tuple(simple_roots),
        simple_coroots=tuple(simple_coroots),
        name=name or type_str,
        **_simple_root_options(len(simple_roots), multiplicity, labels, split),
    )


def explicit_datum(
    rank: int,
    simple_roots,
    simple_coroots,
    multiplicity=None,
    labels=None,
    split=None,
    name: str = "",
) -> RootDatum:
    rank = int(rank)
    # every vector of the datum has `rank` coordinates: bound them as presets bound their roots
    if rank > ROOT_CAP:
        raise InputError(f"rank {rank} is over the cap of {ROOT_CAP}")
    simple_roots = tuple(tuple(int(c) for c in v) for v in simple_roots)
    simple_coroots = tuple(tuple(int(c) for c in v) for v in simple_coroots)
    return RootDatum(
        rank=rank,
        simple_roots=simple_roots,
        simple_coroots=simple_coroots,
        name=name,
        **_simple_root_options(len(simple_roots), multiplicity, labels, split),
    )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_list(v, item) -> bool:
    return isinstance(v, (list, tuple)) and all(item(x) for x in v)


# What a value read from a file may be, by the phrase an error message uses.
_VALUE_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "an integer": _is_int,
    "a boolean": lambda v: isinstance(v, bool),
    "a list of strings": lambda v: _is_list(v, lambda x: isinstance(x, str)),
    "a list of integers": lambda v: _is_list(v, _is_int),
    "a list of integer vectors": lambda v: _is_list(v, lambda x: _is_list(x, _is_int)),
}

_DATUM_KINDS = {
    "name": "a string",
    "type": "a string",
    "lattice": "a string",
    "rank": "an integer",
    "simple_roots": "a list of integer vectors",
    "simple_coroots": "a list of integer vectors",
    "multiplicity": "a list of integers",
    "labels": "a list of strings",
    "split": "a boolean",
}


def check_value_kinds(data: dict, kinds: dict, what: str) -> None:
    """Raise InputError for the first value of `data` that is not of its kind."""
    for key, kind in kinds.items():
        if key in data and not _VALUE_KINDS[kind](data[key]):
            raise InputError(f"{what} key {key!r} must be {kind}, got {data[key]!r}")


def build_datum(data: dict) -> RootDatum:
    """Build a datum from a key/value mapping (the on-disk file format)."""
    check_value_kinds(data, _DATUM_KINDS, "datum")
    data = dict(data)
    name = data.pop("name", "")
    if "type" in data:
        make = preset_datum
        args = [data.pop("type"), data.pop("lattice", "simply_connected")]
    else:
        make = explicit_datum
        try:
            args = [data.pop(k) for k in ("rank", "simple_roots", "simple_coroots")]
        except KeyError as exc:
            raise InputError(f"datum description is missing required key {exc.args[0]!r}") from None
    options = {k: data.pop(k) for k in ("multiplicity", "labels", "split") if k in data}
    if data:
        raise InputError(f"unknown keys in datum description: {sorted(data)}")
    return make(*args, name=name, **options)
