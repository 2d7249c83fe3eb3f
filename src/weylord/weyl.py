"""Weyl groups acting on the reduced roots of a datum.

The whole group is one breadth-first pass over the orbit of rho, made only
once the exponents show that |W| is under the cap.  Inside the pass an element
w is keyed by the weight w^{-1}(rho) in fundamental-weight coordinates, where
rho = (1, ..., 1); s_g acts on such a weight x by x -> x - x_g * (row g of the
Cartan matrix), and rho is regular, so distinct elements have distinct keys.
The keys are dropped after the pass.  Each element keeps its canonical
(ShortLex-least) reduced word and a row of the right-multiplication table; its
permutation of the full reduced root list is composed from the word and the
root table's reflection rows on first use.  On top of the bare group this
module computes Bruhat order, minimal coset and double-coset representatives
with their Kostant-style decompositions, the inversion invariants d_w and
delta_w, unipotent cross-section root sets, and the order-reversing opposition
bijections between double-coset representative sets.

Coset membership is a descent test: w is minimal in W_I w (in w W_J) exactly
when no simple root of I is a left (of J a right) descent of w.  g is a right
descent of w when w * s_g comes before w in the (length, word) order of the
elements, and the left descents are the right descents of w^{-1}; both are
read off the right-multiplication table on first use, as int bitmasks over
simple indices, so a membership test is one `&`.  `WeylGroup.fiber` reads the
fiber W_K \\ W_J off them where it is used.  Bruhat order is stored once, as
each element's cone (`WeylGroup._cone`): `bruhat_leq` is one bit test, and
`bruhat_poset` and the Bruhat matrix of a double-coset table read their
down-sets off the cones without comparing pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DomainError
from .intlinalg import vadd, vscale, zero_vector
from .posets import FinitePoset, _bits
from .rootdata import RootDatum, RootSystemTable

WEYL_CAP = 1_000_000
WEYL_CACHE_SIZE = 32  # groups kept by `weyl_group`; the largest benchmark holds 10


def _weyl_order(table: RootSystemTable) -> int:
    """|W| as the product of m_i + 1 over the exponents m_i (Humphreys §3.20).

    By Kostant's theorem the exponents are the dual partition of the numbers
    of positive roots of each height.
    """
    per_height = Counter(sum(c) for c in table.coeffs).values()
    return math.prod(1 + sum(n >= i for n in per_height) for i in range(1, max(per_height, default=0) + 1))


class WeylElement:
    """A Weyl group element: its index in the group and canonical reduced word.

    `perm`, the permutation of the full reduced root list (positive roots,
    then their negatives), is composed from the word on first access and
    cached.  Elements of one group are equal when their indices are; elements
    of two groups are equal when their indices and root permutations are, so
    two groups built from the same datum under two names share their elements.
    """

    __slots__ = ("group", "index", "word", "_perm")

    def __init__(self, group, index, word):
        self.group = group
        self.index = index
        self.word = word
        self._perm = None

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def perm(self) -> tuple[int, ...]:
        perm = self._perm
        if perm is None:
            reflect = self.group.table.reflect
            perm = tuple(range(2 * self.group.num_positive))
            for g in self.word:
                perm = tuple([perm[r] for r in reflect[g]])
            self._perm = perm
        return perm

    def __eq__(self, other):
        if not isinstance(other, WeylElement) or self.index != other.index:
            return False
        return self.group is other.group or self.perm == other.perm

    def __hash__(self):
        return self.index

    def __mul__(self, other):
        return self.group.mul(self, other)

    def inverse(self):
        return self.group.inv(self)

    def apply(self, v):
        """Image of a character-lattice vector."""
        for g in reversed(self.word):
            v = self.group.datum.reflect_vector(g, v)
        return v

    def __str__(self):
        return self.group.word_str(self)

    def __repr__(self):
        return f"<{self}>"


class WeylGroup:
    """The full Weyl group of a datum, generated breadth-first from rho.

    Elements come out sorted by (length, canonical word); the identity is
    element 0 and the longest element is last.  `_right[i][g]` is the index
    of elements[i] * s_g.

    In the build a key w^{-1}(rho) is packed into one int, `bits` bits per
    coordinate with `bias` added: a coordinate <w^{-1}(rho), alpha_j^vee> is
    the height of the coroot w(alpha_j^vee) up to sign, so it lies within the
    number of positive roots, and s_g then acts on the packed key as one
    multiply-subtract.
    """

    def __init__(self, datum: RootDatum, cap: int = WEYL_CAP):
        self.datum = datum
        table = datum.roots
        order = _weyl_order(table)
        if order > cap:
            raise DomainError(f"Weyl group of order {order} exceeds the configured cap ({cap})")
        self.table = table
        n = table.count
        self.num_positive = n

        bias = n + 1
        bits = (2 * bias).bit_length()
        fields = (1 << bits) - 1
        # (g, shift of coordinate g, packed row g of the Cartan matrix)
        gens = tuple(
            (g, bits * g, sum(c << bits * j for j, c in enumerate(row)))
            for g, row in enumerate(datum.cartan)
        )
        rho = sum((1 + bias) << bits * j for j in range(datum.num_simple))
        keys = [rho]
        words = [()]
        right = []
        index = {rho: 0}
        # Scanning a layer in index order with generators in increasing order
        # finds each element first through its ShortLex-least reduced word, so
        # discovery order is already the (length, word) order.
        start, end = 0, 1
        while start < end:
            for i in range(start, end):
                x = keys[i]
                base = words[i]
                row = []
                for g, shift, packed in gens:
                    y = x - ((x >> shift & fields) - bias) * packed
                    j = index.get(y)
                    if j is None:
                        j = index[y] = len(keys)
                        keys.append(y)
                        words.append(base + (g,))
                    row.append(j)
                right.append(tuple(row))
            start, end = end, len(keys)

        self._right = right
        self.elements = tuple(WeylElement(self, i, w) for i, w in enumerate(words))
        self.identity = self.elements[0]
        self.w0 = self.elements[-1]
        # the longest element inverts every positive root
        if self.w0.length != n:
            raise DomainError("corrupt datum: longest element does not invert all positive roots")

        self._inv = [None] * len(self.elements)
        self._cones = {0: 1}  # element index -> cone bitmask, filled on first use
        self._simple_at = {r: i for i, r in enumerate(table.simple_index)}
        self._parabolic_cache: dict[frozenset, tuple] = {}

    # -- group mechanics ---------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def gen(self, i: int) -> WeylElement:
        return self.elements[self._right[0][i]]

    def _walk(self, i: int, gens) -> int:
        """Index of elements[i] * s_{g_1} * ... * s_{g_k} for gens = (g_1, ..., g_k)."""
        right = self._right
        for g in gens:
            i = right[i][g]
        return i

    def mul(self, u: WeylElement, v: WeylElement) -> WeylElement:
        return self.elements[self._walk(u.index, v.word)]

    def inv(self, w: WeylElement) -> WeylElement:
        cached = self._inv[w.index]
        if cached is None:
            cached = self._inv[w.index] = self._walk(0, reversed(w.word))
        return self.elements[cached]

    def from_word(self, gens) -> WeylElement:
        return self.elements[self._walk(0, gens)]

    def word_str(self, w: WeylElement) -> str:
        if not w.word:
            return "e"
        return " ".join(self.datum.labels[g] for g in w.word)

    def parse_word(self, text: str) -> WeylElement:
        """Accept a word over simple-root labels; reduces and canonicalises."""
        text = text.strip()
        if text in ("", "e"):
            return self.identity
        gens = []
        for tok in text.split():
            try:
                gens.append(self.datum.labels.index(tok))
            except ValueError:
                raise DomainError(f"unknown simple-root label {tok!r}") from None
        return self.from_word(gens)

    # -- roots and inversions ------------------------------------------------

    def inversions(self, w: WeylElement) -> tuple[int, ...]:
        """Positive-root indices sent to negative roots."""
        n = self.num_positive
        perm = w.perm
        return tuple(r for r in range(n) if perm[r] >= n)

    def d(self, w: WeylElement) -> int:
        """Total multiplicity of the inversion set."""
        mult = self.table.mult
        return sum(mult[r] for r in self.inversions(w))

    def delta(self, w: WeylElement) -> tuple[int, ...]:
        """Multiplicity-weighted sum of the inversion roots, in X* coordinates."""
        out = zero_vector(self.datum.rank)
        for r in self.inversions(w):
            out = vadd(out, vscale(self.table.mult[r], self.table.positive[r]))
        return out

    def dw_delta(self, w: WeylElement) -> tuple[int, tuple[int, ...]]:
        return self.d(w), self.delta(w)

    # -- descents and minimality ----------------------------------------------

    @cached_property
    def descents(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(left, right): every element's descent sets, indexed like `elements`.

        Each set is a bitmask over simple indices (`RootSystemTable.mask`).
        Elements are sorted by length, so g is a right descent of w exactly
        when w * s_g has the smaller index, and i is a left descent when it is
        a right descent of w^{-1}.  Computed on first use, not in the group
        build.
        """
        right = tuple(sum(1 << g for g, j in enumerate(row) if j < i) for i, row in enumerate(self._right))
        left = tuple(right[self.inv(w).index] for w in self.elements)
        return left, right

    def is_left_minimal(self, w: WeylElement, I) -> bool:
        """w is the shortest element of W_I w  (no left descent in I)."""
        return not self.descents[0][w.index] & self.table.mask(I)

    def is_right_minimal(self, w: WeylElement, J) -> bool:
        """w is the shortest element of w W_J  (no right descent in J)."""
        return not self.descents[1][w.index] & self.table.mask(J)

    # -- parabolic subgroups ----------------------------------------------------

    def parabolic_elements(self, I) -> tuple[WeylElement, ...]:
        I = self.datum.check_subset(I)
        cached = self._parabolic_cache.get(I)
        if cached is None:
            seen = {0}
            frontier = [0]
            while frontier:
                fresh = []
                for idx in frontier:
                    for g in I:
                        nxt = self._right[idx][g]
                        if nxt not in seen:
                            seen.add(nxt)
                            fresh.append(nxt)
                frontier = fresh
            cached = tuple(self.elements[i] for i in sorted(seen))
            self._parabolic_cache[I] = cached
        return cached

    def fiber(self, J, K) -> tuple[WeylElement, ...]:
        """Minimal representatives of W_K \\ W_J: the elements of W_J with no left descent in K."""
        return tuple(v for v in self.parabolic_elements(J) if self.is_left_minimal(v, K))

    def longest_in(self, I) -> WeylElement:
        elems = self.parabolic_elements(I)
        top = elems[-1]
        if sum(1 for w in elems if w.length == top.length) != 1:
            raise DomainError("parabolic subgroup has no unique longest element")
        return top

    # -- Bruhat order ---------------------------------------------------------

    def _cone(self, w: WeylElement) -> int:
        """All u <= w, as a bitmask over element indices, built on first use.

        cone(p * s_g) = cone(p) | cone(p) * s_g when p * s_g is longer than p
        (subword property, Bjorner-Brenti Thm 2.2.2), and the prefixes of a
        canonical word are canonical, so w's prefixes are filled walking forward.
        """
        cones = self._cones
        cone = cones.get(w.index)
        if cone is None:
            right = self._right
            i, cone = 0, 1
            for g in w.word:
                i = right[i][g]
                nxt = cones.get(i)
                if nxt is None:
                    nxt = cone
                    for u in _bits(cone):
                        nxt |= 1 << right[u][g]
                    cones[i] = nxt
                cone = nxt
        return cone

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        return bool(self._cone(w) >> u.index & 1)

    # -- coset decompositions ----------------------------------------------------

    def min_coset_reps(self, I) -> tuple[WeylElement, ...]:
        return self.double_coset_reps(I, ())

    def _strip(self, w: WeylElement, subset, left: bool) -> tuple[WeylElement, WeylElement]:
        """(x, p) with p in W_subset and x free of its descents: w = p * x if `left`, else x * p."""
        m = self.table.mask(subset)
        descents = self.descents[0 if left else 1]
        x, p = w, self.identity
        while True:
            d = descents[x.index] & m
            if not d:
                return x, p
            # strip the lowest descent; any order gives the same unique factors
            s = self.gen((d & -d).bit_length() - 1)
            x, p = (self.mul(s, x), self.mul(p, s)) if left else (self.mul(x, s), self.mul(s, p))

    def coset_decompose(self, I, w: WeylElement) -> tuple[WeylElement, WeylElement]:
        """Unique factorisation w = w_I * x with w_I in W_I and x left-minimal."""
        x, u = self._strip(w, self.datum.check_subset(I), left=True)
        return u, x

    def double_coset_reps(self, I, J) -> tuple[WeylElement, ...]:
        mi = self.table.mask(self.datum.check_subset(I))
        mj = self.table.mask(self.datum.check_subset(J))
        left, right = self.descents
        return tuple(
            w for w, l, r in zip(self.elements, left, right) if not (l & mi or r & mj)
        )

    def double_decompose(self, I, J, iw: WeylElement) -> tuple[WeylElement, WeylElement]:
        """Factor a left-minimal element as (double-coset rep) * w_J."""
        I = self.datum.check_subset(I)
        J = self.datum.check_subset(J)
        if not self.is_left_minimal(iw, I):
            raise DomainError("element is not a minimal left-coset representative")
        return self._strip(iw, J, left=False)

    # -- simple-root transport ---------------------------------------------------

    def _simple_images(self, w: WeylElement, K) -> list[tuple[int, int | None]]:
        """(k, i) for k in K, with w(alpha_k) = alpha_i, or i None if w(alpha_k) is not simple."""
        perm = w.perm
        simple = self.table.simple_index
        return [(k, self._simple_at.get(perm[simple[k]])) for k in K]

    def image_subset(self, w: WeylElement, J, into) -> frozenset[int]:
        """{ j in J : w(alpha_j) is a simple root belonging to `into` }."""
        return frozenset(j for j, i in self._simple_images(w, J) if i in into)

    def transport_subset(self, w: WeylElement, K) -> frozenset[int]:
        """Apply w to a subset of simple roots; all images must stay simple."""
        images = self._simple_images(w, K)
        if any(i is None for _, i in images):
            raise DomainError("subset is not carried to simple roots")
        return frozenset(i for _, i in images)


@lru_cache(maxsize=WEYL_CACHE_SIZE)
def weyl_group(datum: RootDatum, cap: int = WEYL_CAP) -> WeylGroup:
    return WeylGroup(datum, cap)


def bruhat_poset(group: WeylGroup, elements=None):
    """Bruhat order on the whole group or on a chosen element subset.

    Each down-set is the element's cone restricted to the subset: no pair is compared.
    """
    if elements is None:
        elements = group.elements

    def down(elements):
        position = {x.index: j for j, x in enumerate(elements)}
        subset = sum(1 << i for i in position)
        return [sum(1 << position[i] for i in _bits(group._cone(x) & subset)) for x in elements]

    return FinitePoset._from_down(elements, down)


# -- double coset tables -------------------------------------------------------


@dataclass(frozen=True)
class DoubleCosetEntry:
    rep: WeylElement
    meet: frozenset[int]  # J cap w^{-1}(I), the inducing subset
    comeet: frozenset[int]  # I cap w(J)
    d: int
    delta: tuple[int, ...]


@dataclass(frozen=True)
class DoubleCosetTable:
    I: frozenset[int]
    J: frozenset[int]
    reps: tuple[WeylElement, ...]
    entries: tuple[DoubleCosetEntry, ...]

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        """Bruhat order restricted to reps, read off `bruhat_poset` on first use.

        The identity is always a representative, so reps[0] knows the group.
        """
        down = bruhat_poset(self.reps[0].group, self.reps)._down
        return tuple(tuple(bool(d >> a & 1) for d in down) for a in range(len(down)))

    @cached_property
    def _by_rep(self) -> dict:
        return {e.rep: e for e in self.entries}

    def entry(self, rep: WeylElement) -> DoubleCosetEntry:
        found = self._by_rep.get(rep)
        if found is None:
            raise DomainError("element is not a double-coset representative")
        return found


def double_coset_table(group: WeylGroup, I, J) -> DoubleCosetTable:
    I = group.datum.check_subset(I)
    J = group.datum.check_subset(J)
    reps = group.double_coset_reps(I, J)
    entries = []
    for w in reps:
        # J cap w^{-1}(I): the j in J with w(alpha_j) a simple root of I
        meet = group.image_subset(w, J, I)
        # I cap w(J): the i in I with w^{-1}(alpha_i) a simple root of J
        comeet = group.image_subset(group.inv(w), I, J)
        entries.append(DoubleCosetEntry(w, meet, comeet, group.d(w), group.delta(w)))
    return DoubleCosetTable(I, J, reps, tuple(entries))


# -- cross sections ------------------------------------------------------------


@dataclass(frozen=True)
class CrossSection:
    """Root bookkeeping for a Bruhat cell attached to (I, J, iw).

    All nine sets are frozensets of positive-root indices; multiplicities are
    read off from the datum's root table.  Conventions: a positive root gamma
    belongs to the subgroup attached to w when w(gamma) lies in the indicated
    positive part.
    """

    I: frozenset[int]
    J: frozenset[int]
    iw: WeylElement
    iwj: WeylElement
    w_j: WeylElement
    u_w: frozenset[int]
    u_prime: frozenset[int]
    u_dprime: frozenset[int]
    n_j: frozenset[int]
    n_j_prime: frozenset[int]
    n_j_dprime: frozenset[int]
    u_j: frozenset[int]
    u_j_prime: frozenset[int]
    u_j_dprime: frozenset[int]

    def weight(self, group: WeylGroup, roots) -> int:
        mult = group.table.mult
        return sum(mult[r] for r in roots)


def cross_section(group: WeylGroup, I, J, iw: WeylElement) -> CrossSection:
    I = group.datum.check_subset(I)
    J = group.datum.check_subset(J)
    iwj, w_j = group.double_decompose(I, J, iw)
    table = group.table
    support = table.support_mask
    outside_i = ~table.mask(I)
    outside_j = ~table.mask(J)
    n = group.num_positive
    perm = iw.perm
    # the positive roots iw keeps positive; the inverted ones are not part of the cross section
    u_w = frozenset(r for r in range(n) if perm[r] < n)
    # those sent into the Levi of I, and those in Phi_J
    u_dprime = frozenset(r for r in u_w if not support[perm[r]] & outside_i)
    u_j = frozenset(r for r in u_w if not support[r] & outside_j)
    u_prime = u_w - u_dprime
    n_j = u_w - u_j
    return CrossSection(
        I=I,
        J=J,
        iw=iw,
        iwj=iwj,
        w_j=w_j,
        u_w=u_w,
        u_prime=u_prime,
        u_dprime=u_dprime,
        n_j=n_j,
        n_j_prime=n_j & u_prime,
        n_j_dprime=n_j & u_dprime,
        u_j=u_j,
        u_j_prime=u_j & u_prime,
        u_j_dprime=u_j & u_dprime,
    )


# -- opposition bijections -------------------------------------------------------


@dataclass(frozen=True)
class OppositionMap:
    """The order-reversing bijection between double-coset representative sets.

    `rep_map` sends a rep w (for I, J) to its partner (for I', J) where
    I' is the transport of I by the inverse of the minimal representative of
    the longest element; `fiber_maps[w]` is the induced order-reversing
    bijection between the corresponding right-coset fibers in W_J.
    """

    I: frozenset[int]
    J: frozenset[int]
    I_prime: frozenset[int]
    iw0: WeylElement
    rep_map: dict
    fiber_maps: dict
    meets_prime: dict


def opposition_map(group: WeylGroup, I, J) -> OppositionMap:
    I = group.datum.check_subset(I)
    J = group.datum.check_subset(J)
    w_i0 = group.longest_in(I)
    iw0 = group.mul(w_i0, group.w0)
    I_prime = group.transport_subset(group.inv(iw0), I)
    src = double_coset_table(group, I, J)
    tgt = frozenset(w.index for w in group.double_coset_reps(I_prime, J))
    iw0_inv = group.inv(iw0)
    w_j0 = group.longest_in(J)
    rep_map = {}
    fiber_maps = {}
    meets_prime = {}
    for entry in src.entries:
        w = entry.rep
        k_wj0 = group.mul(group.longest_in(entry.meet), w_j0)
        image = group.mul(group.mul(iw0_inv, w), k_wj0)
        if image.index not in tgt:
            raise DomainError("opposition image is not a double-coset representative")
        rep_map[w] = image
        meets_prime[w] = group.image_subset(image, J, I_prime)
        inv_k = group.inv(k_wj0)
        fiber_maps[w] = {v: group.mul(inv_k, v) for v in group.fiber(J, entry.meet)}
    return OppositionMap(
        I=I,
        J=J,
        I_prime=I_prime,
        iw0=iw0,
        rep_map=rep_map,
        fiber_maps=fiber_maps,
        meets_prime=meets_prime,
    )
