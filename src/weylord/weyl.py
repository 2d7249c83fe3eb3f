"""Weyl groups acting on the reduced roots of a datum.

An element w is keyed by the weight w^{-1}(rho) in fundamental-weight
coordinates, where rho = (1, ..., 1).  The simple reflection s_g acts on such a
weight x by x -> x - x_g * (row g of the Cartan matrix), and the key of w*s_g
is s_g applied to the key of w.  rho is regular, so distinct elements have
distinct keys, and the whole group is one breadth-first pass over the orbit
of rho.  Each element also carries its canonical (ShortLex-least) reduced word
and a row of the right-multiplication table; its permutation of the full
reduced root list is composed from the word on first use.  On top of the bare
group this module computes Bruhat order, minimal coset and double-coset
representatives with their Kostant-style decompositions, the inversion
invariants d_w and delta_w, unipotent cross-section root sets, and the
order-reversing opposition bijections between double-coset representative
sets.

Coset membership is a descent test: w is minimal in W_I w (in w W_J) exactly
when no simple root of I is a left (of J a right) descent of w.  The right
descents of w are the negative coordinates of its key, and the left descents
are the right descents of w^{-1}.  The group keeps every element's left and
right descent sets as int bitmasks over simple indices, computed on first
use, so a membership test is one `&`.  The Bruhat matrix of a double-coset
table is also computed on first use: only the JSON output and the tests read
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DomainError
from .intlinalg import vadd, vscale, zero_vector
from .rootdata import RootDatum

WEYL_CAP = 1_000_000
WEYL_CACHE_SIZE = 32  # groups kept by `weyl_group`; the largest benchmark holds 10


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
            gen_perms = self.group._gen_perms
            perm = tuple(range(2 * self.group.num_positive))
            for g in self.word:
                perm = tuple([perm[r] for r in gen_perms[g]])
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

    A key w^{-1}(rho) is packed into one int, `bits` bits per coordinate with
    `bias` added: a coordinate <w^{-1}(rho), alpha_j^vee> is the height of the
    coroot w(alpha_j^vee) up to sign, so it lies within the number of positive
    roots, and s_g then acts on the packed key as one multiply-subtract.
    """

    def __init__(self, datum: RootDatum, cap: int = WEYL_CAP):
        self.datum = datum
        table = datum.roots
        self.table = table
        n = table.count
        self.num_positive = n
        full = 2 * n

        gen_perms = []
        for i in range(datum.num_simple):
            images = []
            for r in range(full):
                v = table.positive[r] if r < n else vscale(-1, table.positive[r - n])
                images.append(table.index[datum.reflect_vector(i, v)])
            gen_perms.append(tuple(images))
        self._gen_perms = gen_perms

        bias = n + 1
        bits = (2 * bias).bit_length()
        self._bias, self._bits = bias, bits
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
            if len(keys) > cap:
                raise DomainError(f"Weyl group exceeds the configured cap ({cap})")
            start, end = end, len(keys)

        self._keys = keys
        self._right = right
        self.elements = tuple(WeylElement(self, i, w) for i, w in enumerate(words))
        self.identity = self.elements[0]
        self.w0 = self.elements[-1]
        # the longest element inverts every positive root
        if self.w0.length != n:
            raise DomainError("corrupt datum: longest element does not invert all positive roots")

        self._inv = [None] * len(self.elements)
        self._cones: dict[int, frozenset[int]] = {}
        self._parabolic_cache: dict[frozenset, tuple] = {}

    # -- group mechanics ---------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def gen(self, i: int) -> WeylElement:
        return self.elements[self._right[0][i]]

    def mul(self, u: WeylElement, v: WeylElement) -> WeylElement:
        i = u.index
        for g in v.word:
            i = self._right[i][g]
        return self.elements[i]

    def inv(self, w: WeylElement) -> WeylElement:
        cached = self._inv[w.index]
        if cached is None:
            cached = 0
            for g in reversed(w.word):
                cached = self._right[cached][g]
            self._inv[w.index] = cached
        return self.elements[cached]

    def from_word(self, gens) -> WeylElement:
        i = 0
        for g in gens:
            i = self._right[i][g]
        return self.elements[i]

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

    def _simple_pos(self, i: int) -> int:
        return self.table.simple_index[i]

    def simple_of_root(self, r: int) -> int | None:
        """Simple index of a root position, if the (positive) root is simple."""
        try:
            return self.table.simple_index.index(r)
        except ValueError:
            return None

    @cached_property
    def descents(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(left, right): every element's descent sets, indexed like `elements`.

        Each set is a bitmask over simple indices (`RootSystemTable.mask`).
        j is a right descent of w when w(alpha_j) < 0, that is when coordinate
        j of the key w^{-1}(rho) is negative, and i is a left descent when it
        is a right descent of w^{-1}.  Computed on first use, not in the group
        build.
        """
        bias, bits = self._bias, self._bits
        shifts = tuple(enumerate(range(0, bits * self.datum.num_simple, bits)))
        fields = (1 << bits) - 1
        right = tuple(
            sum(1 << j for j, shift in shifts if x >> shift & fields < bias) for x in self._keys
        )
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

    def longest_in(self, I) -> WeylElement:
        elems = self.parabolic_elements(I)
        top = elems[-1]
        if sum(1 for w in elems if w.length == top.length) != 1:
            raise DomainError("parabolic subgroup has no unique longest element")
        return top

    # -- Bruhat order ---------------------------------------------------------

    def _cone(self, w: WeylElement) -> frozenset[int]:
        """All u <= w, as element indices (subword closure of the canonical word)."""
        cached = self._cones.get(w.index)
        if cached is None:
            S = {0}
            for g in w.word:
                S |= {self._right[x][g] for x in S}
            cached = frozenset(S)
            self._cones[w.index] = cached
        return cached

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        if u.length > w.length:
            return False
        return u.index in self._cone(w)

    # -- coset decompositions ----------------------------------------------------

    def min_coset_reps(self, I) -> tuple[WeylElement, ...]:
        m = self.table.mask(self.datum.check_subset(I))
        return tuple(w for w, d in zip(self.elements, self.descents[0]) if not d & m)

    def coset_decompose(self, I, w: WeylElement) -> tuple[WeylElement, WeylElement]:
        """Unique factorisation w = w_I * x with w_I in W_I and x left-minimal."""
        m = self.table.mask(self.datum.check_subset(I))
        left = self.descents[0]
        u = self.identity
        x = w
        while True:
            d = left[x.index] & m
            if not d:
                return u, x
            # strip the lowest descent in I; any order gives the same unique factors
            g = self.gen((d & -d).bit_length() - 1)
            x = self.mul(g, x)
            u = self.mul(u, g)

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
        m = self.table.mask(J)
        right = self.descents[1]
        x = iw
        v = self.identity
        while True:
            d = right[x.index] & m
            if not d:
                return x, v
            # strip the lowest descent in J; any order gives the same unique factors
            g = self.gen((d & -d).bit_length() - 1)
            x = self.mul(x, g)
            v = self.mul(g, v)

    # -- simple-root transport ---------------------------------------------------

    def image_subset(self, w: WeylElement, J, into) -> frozenset[int]:
        """{ j in J : w(alpha_j) is a simple root belonging to `into` }."""
        perm = w.perm
        out = set()
        for j in J:
            r = perm[self._simple_pos(j)]
            k = self.simple_of_root(r) if r < self.num_positive else None
            if k is not None and k in into:
                out.add(j)
        return frozenset(out)

    def transport_subset(self, w: WeylElement, K) -> frozenset[int]:
        """Apply w to a subset of simple roots; all images must stay simple."""
        perm = w.perm
        out = set()
        for k in K:
            r = perm[self._simple_pos(k)]
            i = self.simple_of_root(r) if r < self.num_positive else None
            if i is None:
                raise DomainError("subset is not carried to simple roots")
            out.add(i)
        return frozenset(out)


@lru_cache(maxsize=WEYL_CACHE_SIZE)
def weyl_group(datum: RootDatum, cap: int = WEYL_CAP) -> WeylGroup:
    return WeylGroup(datum, cap)


def bruhat_poset(group: WeylGroup, elements=None):
    """Bruhat order on the whole group or on a chosen element subset."""
    from .posets import FinitePoset

    if elements is None:
        elements = group.elements
    return FinitePoset(elements, group.bruhat_leq)


# -- double coset tables -------------------------------------------------------


@dataclass(frozen=True)
class DoubleCosetEntry:
    rep: WeylElement
    meet: frozenset[int]  # J cap w^{-1}(I), the inducing subset
    comeet: frozenset[int]  # I cap w(J)
    d: int
    delta: tuple[int, ...]
    fiber: tuple[WeylElement, ...]  # minimal reps of W_meet \ W_J


@dataclass(frozen=True)
class DoubleCosetTable:
    I: frozenset[int]
    J: frozenset[int]
    reps: tuple[WeylElement, ...]
    entries: tuple[DoubleCosetEntry, ...]

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        """Bruhat order restricted to reps, computed on first use.

        The identity is always a representative, so reps[0] knows the group.
        """
        group = self.reps[0].group
        return tuple(tuple(group.bruhat_leq(u, v) for v in self.reps) for u in self.reps)

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
    w_j = group.parabolic_elements(J)
    entries = []
    for w in reps:
        # J cap w^{-1}(I): the j in J with w(alpha_j) a simple root of I
        meet = group.image_subset(w, J, I)
        # I cap w(J): the i in I with w^{-1}(alpha_i) a simple root of J
        comeet = group.image_subset(group.inv(w), I, J)
        fiber = tuple(v for v in w_j if group.is_left_minimal(v, meet))
        entries.append(
            DoubleCosetEntry(w, meet, comeet, group.d(w), group.delta(w), fiber)
        )
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
    u_w, u_p, u_pp = set(), set(), set()
    n_j, n_jp, n_jpp = set(), set(), set()
    u_j, u_jp, u_jpp = set(), set(), set()
    for r in range(n):
        img = perm[r]
        if img >= n:
            continue  # inverted: not part of the cross section
        u_w.add(r)
        in_levi_I = not support[img] & outside_i
        in_phi_J = not support[r] & outside_j
        if in_levi_I:
            u_pp.add(r)
            (u_jpp if in_phi_J else n_jpp).add(r)
        else:
            u_p.add(r)
            (u_jp if in_phi_J else n_jp).add(r)
        if in_phi_J:
            u_j.add(r)
        else:
            n_j.add(r)
    return CrossSection(
        I=I,
        J=J,
        iw=iw,
        iwj=iwj,
        w_j=w_j,
        u_w=frozenset(u_w),
        u_prime=frozenset(u_p),
        u_dprime=frozenset(u_pp),
        n_j=frozenset(n_j),
        n_j_prime=frozenset(n_jp),
        n_j_dprime=frozenset(n_jpp),
        u_j=frozenset(u_j),
        u_j_prime=frozenset(u_jp),
        u_j_dprime=frozenset(u_jpp),
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
        fiber_maps[w] = {v: group.mul(inv_k, v) for v in entry.fiber}
    return OppositionMap(
        I=I,
        J=J,
        I_prime=I_prime,
        iw0=iw0,
        rep_map=rep_map,
        fiber_maps=fiber_maps,
        meets_prime=meets_prime,
    )
