"""Finite posets, lower sets, and the graded-piece splitting identity.

Lower sets (downward-closed subsets) index filtration steps; the lattice they
form is represented here by bitmask arithmetic on validated posets.
"""

from __future__ import annotations

from .errors import DomainError

POSET_CAP = 10_000


class FinitePoset:
    """A finite poset validated for reflexivity, antisymmetry, transitivity."""

    def __init__(self, elements, leq):
        elements = tuple(elements)
        if len(elements) > POSET_CAP:
            raise DomainError(f"poset exceeds the cap of {POSET_CAP} elements")
        if len(set(elements)) != len(elements):
            raise DomainError("poset elements must be distinct")
        self.elements = elements
        self._index = {x: i for i, x in enumerate(elements)}
        n = len(elements)
        down = [0] * n
        for i, x in enumerate(elements):
            for j, y in enumerate(elements):
                if leq(y, x):
                    down[i] |= 1 << j
        self._down = tuple(down)
        self._validate()

    @classmethod
    def from_pairs(cls, elements, pairs):
        pairs = set(pairs)
        return cls(elements, lambda a, b: a == b or (a, b) in pairs)

    def _validate(self):
        down = self._down
        for i in range(len(down)):
            if not down[i] >> i & 1:
                raise DomainError("poset relation is not reflexive")
        for i in range(len(down)):
            for j in range(i + 1, len(down)):
                if down[i] >> j & 1 and down[j] >> i & 1:
                    raise DomainError("poset relation is not antisymmetric")
        for i, mask in enumerate(down):
            m = mask
            while m:
                j = (m & -m).bit_length() - 1
                if down[j] & ~mask:
                    raise DomainError("poset relation is not transitive")
                m &= m - 1

    def __len__(self):
        return len(self.elements)

    def index(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise DomainError("element does not belong to the poset") from None

    def leq(self, x, y) -> bool:
        return bool(self._down[self.index(y)] >> self.index(x) & 1)

    def down_mask(self, x) -> int:
        return self._down[self.index(x)]


class LowerSet:
    """A downward-closed subset of a poset, stored as a membership bitmask."""

    def __init__(self, poset: FinitePoset, mask: int):
        self.poset = poset
        self.mask = mask
        down = poset._down
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if down[i] & ~mask:
                raise DomainError("subset is not downward closed")
            m &= m - 1

    @classmethod
    def from_members(cls, poset, members):
        mask = 0
        for x in members:
            mask |= 1 << poset.index(x)
        return cls(poset, mask)

    def members(self) -> tuple:
        return tuple(
            x for i, x in enumerate(self.poset.elements) if self.mask >> i & 1
        )

    def __contains__(self, x):
        return bool(self.mask >> self.poset.index(x) & 1)

    def __eq__(self, other):
        return (
            isinstance(other, LowerSet)
            and self.poset is other.poset
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((id(self.poset), self.mask))

    def __len__(self):
        return bin(self.mask).count("1")

    def _check_same(self, other):
        if not isinstance(other, LowerSet) or other.poset is not self.poset:
            raise DomainError("lower sets live on different posets")

    def __or__(self, other):
        self._check_same(other)
        return LowerSet(self.poset, self.mask | other.mask)

    def __and__(self, other):
        self._check_same(other)
        return LowerSet(self.poset, self.mask & other.mask)

    def maximal_elements(self) -> tuple:
        out = []
        for i, x in enumerate(self.poset.elements):
            if not self.mask >> i & 1:
                continue
            strictly_above = self.mask & ~self.poset._down[i]
            # members not below x that dominate x
            if not any(
                self.poset._down[j] >> i & 1
                for j in _bits(strictly_above)
            ):
                out.append(x)
        return tuple(out)


def _bits(mask):
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def principal_lower_set(poset: FinitePoset, x) -> LowerSet:
    return LowerSet(poset, poset.down_mask(x))


def lattice_ops(s1: LowerSet, s2: LowerSet) -> tuple[LowerSet, LowerSet]:
    return s1 | s2, s1 & s2


def check_lin_identity(poset: FinitePoset, length, x0) -> bool:
    """Per-element splitting identity behind length filtrations.

    `length` must be strictly monotonic, with hashable values.  For
    n = length(x0) the identity states that the principal lower set of x0
    meets the union of the lower sets of the other elements of length <= n
    exactly in the union of the lower sets of the elements strictly below x0.
    """
    failures = _lin_identity_failures(poset, length)
    return poset.index(x0) not in failures


def _lin_identity_failures(poset: FinitePoset, length) -> tuple[int, ...]:
    """Indices of every element at which `check_lin_identity` fails, in one pass.

    Monotonicity is checked once.  By transitivity the lower sets strictly
    below x0 join to the lower set of x0 without x0.  The lower sets are
    folded per length value into the bits they cover at least once and at
    least twice, and the folds joined over every value <= n.  The lower set
    of x0 covers each of its own bits once, so the union over the other
    elements of length <= n meets it exactly in the bits covered twice.  The
    join costs the square of the number of distinct values, which for Bruhat
    lengths is at most N + 1.
    """
    down = poset._down
    values = [length(x) for x in poset.elements]
    for i, v in enumerate(values):
        if any(not values[j] < v for j in _bits(down[i] & ~(1 << i))):
            raise DomainError("length function is not strictly monotonic")
    folds: dict = {}  # length value -> (bits covered once, bits covered twice)
    for v, mask in zip(values, down):
        once, twice = folds.get(v, (0, 0))
        folds[v] = (once | mask, twice | once & mask)
    twice_upto = {}
    for n in folds:
        once = twice = 0
        for v, (o, t) in folds.items():
            if v <= n:
                once, twice = once | o, twice | t | once & o
        twice_upto[n] = twice
    return tuple(
        i for i, (v, mask) in enumerate(zip(values, down)) if mask & twice_upto[v] != mask & ~(1 << i)
    )
