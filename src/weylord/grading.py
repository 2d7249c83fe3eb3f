"""Symbolic graded pieces of derived ordinary parts and derived coinvariants.

For a parabolically induced representation the graded pieces are indexed by
minimal double-coset representatives.  Each piece is an induction of a shifted
inner functor applied to a conjugate of the inducing representation, twisted
by a power of the cyclotomic character.  Nothing here evaluates the inner
functors on actual representations: the module only decides vanishing,
records proven/conjectural status, and keeps exact degree and twist
bookkeeping.

`side="ord"` follows the right-adjoint (ordinary parts) normalisation with
twist exponent -delta_w; `side="jacquet"` follows the left-adjoint
(unipotent coinvariants / homology) normalisation with twist +delta_w.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DomainError
from .intlinalg import vscale
from .rootdata import RootDatum
from .weyl import WeylElement, double_coset_table, weyl_group

PROFILE_CAP = 10_000  # degrees one `full_profile` may cover

ORD = "ord"
JACQUET = "jacquet"

RULE_NEGATIVE = "vanish:negative-inner-degree"
RULE_FULL_LEVI = "vanish:full-levi-positive-degree"
RULE_TOP = "vanish:above-top-degree"
RULE_CUSPIDAL = "vanish:cuspidal-degree-zero"
RULE_DECLARED = "vanish:declared-degree-zero"
RULE_LEVI_FORM = "proven:image-inside-levi"
RULE_DEGREE_ZERO = "proven:degree-zero-adjunction"
RULE_CONJECTURAL = "conjectural"

EMERTON_NOTE = (
    "at the identity representative this term is governed by Emerton's "
    "conjecture that derived ordinary parts compute the derived functors"
)


@dataclass(frozen=True)
class SigmaDescriptor:
    """Declared vanishing properties of the inducing representation.

    `ord_vanishes_for` / `jacquet_vanishes_for` optionally declare proper
    subsets K of the ambient Levi for which the degree-zero inner functor
    (ordinary parts along K, resp. coinvariants along K) is known to vanish;
    they refine the blanket cuspidality flags.
    """

    name: str = "sigma"
    supersingular: bool = False
    right_cuspidal: bool = False
    left_cuspidal: bool = False
    ord_vanishes_for: frozenset = frozenset()
    jacquet_vanishes_for: frozenset = frozenset()

    def __post_init__(self):
        if self.supersingular:
            object.__setattr__(self, "right_cuspidal", True)
            object.__setattr__(self, "left_cuspidal", True)
        object.__setattr__(
            self, "ord_vanishes_for", frozenset(frozenset(k) for k in self.ord_vanishes_for)
        )
        object.__setattr__(
            self,
            "jacquet_vanishes_for",
            frozenset(frozenset(k) for k in self.jacquet_vanishes_for),
        )

    @property
    def supercuspidal(self) -> bool:
        return self.right_cuspidal and self.left_cuspidal

    def cuspidal_for(self, side: str) -> bool:
        return self.right_cuspidal if side == ORD else self.left_cuspidal

    def declared_for(self, side: str) -> frozenset:
        return self.ord_vanishes_for if side == ORD else self.jacquet_vanishes_for


class TermStatus(NamedTuple):
    kind: str  # "zero" | "proven" | "conjectural"
    rule: str
    reason: str = ""
    note: str = ""


class GradedTerm(NamedTuple):
    """One symbolic graded piece at a fixed degree.

    degree = inner_degree + e * d_w;  the twist is an exponent vector for the
    cyclotomic character in X* coordinates; `inducing` is the subset along
    which the outer parabolic induction happens and `inner_subset` cuts the
    inner parabolic of the Levi attached to `inner_levi`.
    """

    side: str
    degree: int
    conjugator: WeylElement
    inducing: frozenset
    inner_levi: frozenset
    inner_subset: frozenset
    inner_degree: int
    twist: tuple
    status: TermStatus
    opposite_flag: bool = False

    @property
    def survives(self) -> bool:
        return self.status.kind != "zero"

    def render(self, datum: RootDatum, strict: bool = False) -> str:
        if not self.survives:
            return f"w={self.conjugator}: 0 ({self.status.reason})"
        k = " ".join(datum.label_list(self.inducing))
        parab = " ".join(datum.label_list(self.inner_subset))
        word = str(self.conjugator)
        functor = "HOrd^" if self.side == ORD else "H_"
        vec = "[" + ",".join(str(c) for c in self.twist) + "]"
        text = (
            f"Ind[{k}] ( {functor}{self.inner_degree}[{parab}] sigma )^{{{word}}} "
            f"(x) omega^{{{vec}}}"
        )
        tag = self.status.kind
        if strict and tag == "conjectural":
            tag = "unknown"
        return f"w={word}: [{tag}] {text}"


_LEVI_FORM = TermStatus("proven", RULE_LEVI_FORM)
_DEGREE_ZERO = TermStatus("proven", RULE_DEGREE_ZERO)
_CONJECTURAL = TermStatus("conjectural", RULE_CONJECTURAL)
_CONJECTURAL_AT_IDENTITY = TermStatus("conjectural", RULE_CONJECTURAL, note=EMERTON_NOTE)
_NEGATIVE = TermStatus("zero", RULE_NEGATIVE, "inner functor vanishes in negative degree")
_ABOVE_TOP = TermStatus("zero", RULE_TOP, "inner degree above the top of the unipotent group")
_DECLARED_ZERO = TermStatus("zero", RULE_DECLARED, "declared vanishing of the degree-zero inner functor")
_FULL_LEVI = {
    ORD: TermStatus("zero", RULE_FULL_LEVI, "higher ordinary parts of the full Levi vanish"),
    JACQUET: TermStatus("zero", RULE_FULL_LEVI, "higher homology of the trivial unipotent group vanishes"),
}
_CUSPIDAL_ZERO = {
    ORD: TermStatus(
        "zero", RULE_CUSPIDAL, "ordinary parts of a cuspidal representation vanish on proper parabolics"
    ),
    JACQUET: TermStatus(
        "zero", RULE_CUSPIDAL, "coinvariants of a cuspidal representation vanish on proper parabolics"
    ),
}


def _check_side_and_e(side: str, e: int) -> None:
    if side not in (ORD, JACQUET):
        raise DomainError(f"unknown side {side!r}")
    if e < 1:
        raise DomainError("the field degree e must be a positive integer")


def _twist_sign(I: frozenset, sigma: SigmaDescriptor, side: str, opposite: bool) -> int:
    """Sign of delta_w in the twist, after checking the descriptor and the flag."""
    for k in sigma.declared_for(side):
        if not k < I:
            raise DomainError("declared vanishing subsets must be proper subsets of the Levi")
    sign = -1 if side == ORD else 1
    if opposite:
        if side == ORD:
            raise DomainError("the opposite-flag option applies to the jacquet side")
        sign = -sign
    return sign


class _DegreeTerms(Mapping):
    """Degree -> tuple of graded pieces for 0 <= degree <= `max_degree`, built on first read.

    Each table entry is one row (entry, lo, top, twist): lo = e * d_w, top is
    e times the weight of the comeet inside I, and the twist is the side's
    sign times delta_w.  None of these depends on the degree.  An entry's
    piece is zero below lo and above lo + top (top is 0 when the comeet is
    I), and only degree lo can meet the cuspidal or declared rule; so
    `survivors` walks each entry's window [lo, lo + top] and costs
    O(reps + survivors).
    """

    def __init__(self, group, table, e, sigma, side, sign, opposite, max_degree):
        self.I, self.J, self.side, self.opposite = table.I, table.J, side, opposite
        self.max_degree = max_degree
        self.cuspidal = sigma.cuspidal_for(side)
        self.declared = sigma.declared_for(side)
        weights: dict = {}
        self.rows = []
        for entry in table.entries:
            inner = entry.comeet  # I cap w(J)
            if inner not in weights:
                weights[inner] = group.table.subset_weight(self.I, inner)
            self.rows.append((entry, e * entry.d, e * weights[inner], vscale(sign, entry.delta)))
        self._built: dict = {}

    def _status(self, entry, m, top) -> TermStatus:
        """The rule for an entry's piece in inner degree m: every vanishing rule is here."""
        inner = entry.comeet
        if m < 0:
            return _NEGATIVE
        if inner == self.I and m > 0:
            return _FULL_LEVI[self.side]
        if m > top:
            return _ABOVE_TOP
        if m == 0 and inner != self.I:
            if self.cuspidal:
                return _CUSPIDAL_ZERO[self.side]
            if inner in self.declared:
                return _DECLARED_ZERO
        if entry.meet == self.J:  # the image of J under w lies inside I: trivial outer induction
            return _LEVI_FORM
        if entry.rep.length:
            return _CONJECTURAL
        return _DEGREE_ZERO if m == 0 else _CONJECTURAL_AT_IDENTITY

    def _term(self, row, n, status=None) -> GradedTerm:
        entry, lo, top, twist = row
        m = n - lo
        if status is None:
            status = self._status(entry, m, top)
        return GradedTerm(
            self.side, n, entry.rep, entry.meet, self.I, entry.comeet, m, twist, status, self.opposite
        )

    def survivors(self) -> dict:
        """Degree -> the surviving pieces of that degree, in table order."""
        alive: dict = {}
        for row in self.rows:
            entry, lo, top, _ = row
            for n in range(lo, min(lo + top, self.max_degree) + 1):
                status = self._status(entry, n - lo, top)
                if status.kind != "zero":
                    alive.setdefault(n, []).append(self._term(row, n, status))
        return alive

    def __getitem__(self, n: int) -> tuple:
        terms = self._built.get(n)
        if terms is None:
            if n not in range(self.max_degree + 1):
                raise KeyError(n)
            terms = self._built[n] = tuple(self._term(row, n) for row in self.rows)
        return terms

    def __iter__(self):
        return iter(range(self.max_degree + 1))

    def __len__(self) -> int:
        return self.max_degree + 1

    def __repr__(self) -> str:
        return repr(dict(self))


def graded_terms(
    datum: RootDatum,
    I,
    J,
    e: int,
    n: int,
    sigma: SigmaDescriptor,
    side: str = ORD,
    opposite: bool = False,
) -> list[GradedTerm]:
    """All graded pieces in degree n, one per double-coset representative."""
    _check_side_and_e(side, e)
    if n < 0:
        raise DomainError("the cohomological degree must be nonnegative")
    group = weyl_group(datum)
    I = datum.check_subset(I)
    J = datum.check_subset(J)
    sign = _twist_sign(I, sigma, side, opposite)
    table = double_coset_table(group, I, J)
    return list(_DegreeTerms(group, table, e, sigma, side, sign, opposite, n)[n])


def hord_graded_pieces(datum, I, J, e, n, sigma) -> list[GradedTerm]:
    return graded_terms(datum, I, J, e, n, sigma, side=ORD)


def hj_graded_pieces(datum, I, J, e, n, sigma, opposite: bool = False) -> list[GradedTerm]:
    return graded_terms(datum, I, J, e, n, sigma, side=JACQUET, opposite=opposite)


def surviving(terms) -> list[GradedTerm]:
    return [t for t in terms if t.survives]


# -- degree profiles --------------------------------------------------------------


@dataclass(frozen=True)
class GradingReport:
    """The graded pieces of every degree from 0 to `max_degree`.

    `terms` maps each degree to the tuple of its pieces, one per double-coset
    representative and zero pieces included.  A degree's tuple is built the
    first time it is read.  The surviving pieces are found when the report is
    made, from each representative's window of degrees, so `surviving(n)`
    and the corollary checks cost only the survivors.
    """

    I: frozenset
    J: frozenset
    e: int
    sigma: SigmaDescriptor
    side: str
    max_degree: int
    terms: Mapping  # degree -> tuple[GradedTerm, ...], read-only
    corollary_checks: dict = field(default_factory=dict)
    _alive: dict = field(default_factory=dict, repr=False, compare=False)  # degree -> survivors

    def surviving(self, n: int) -> list[GradedTerm]:
        return list(self._alive.get(n, ()))


def full_profile(
    datum: RootDatum,
    I,
    J,
    e: int,
    sigma: SigmaDescriptor,
    n_max: int = 0,
    side: str = ORD,
    opposite: bool = False,
) -> GradingReport:
    if n_max < 0:
        raise DomainError("the profile degree bound must be nonnegative")
    group = weyl_group(datum)
    I = datum.check_subset(I)
    J = datum.check_subset(J)
    _check_side_and_e(side, e)
    sign = _twist_sign(I, sigma, side, opposite)
    table = double_coset_table(group, I, J)
    d_max = max((entry.d for entry in table.entries), default=0)
    top = max(n_max, e * d_max)
    if top + 1 > PROFILE_CAP:
        raise DomainError(f"the profile covers {top + 1} degrees, over the cap of {PROFILE_CAP}")
    terms = _DegreeTerms(group, table, e, sigma, side, sign, opposite, top)
    report = GradingReport(
        I=I,
        J=J,
        e=e,
        sigma=sigma,
        side=side,
        max_degree=top,
        terms=terms,
        _alive=terms.survivors(),
    )
    report.corollary_checks.update(_corollary_checks(datum, group, report))
    return report


def _expected_nested_shape(datum, group, report, n) -> set:
    """Expected surviving conjugators in degree n <= e when J is nested in I.

    This restates, with the descriptor's vanishing flags folded in, the
    low-degree shape of the graded output: the identity term up to the top
    degree of the inner unipotent part, and at n = e one extra term for each
    simple root outside I with one-dimensional root space, whose reflection
    preserves J (the orthogonal ones keep the full inner parabolic; the rest
    survive only if no flag kills their degree-zero inner functor).
    """
    I, J, e, sigma, side = report.I, report.J, report.e, report.sigma, report.side
    C = datum.cartan

    def killed(inner: frozenset) -> bool:
        if inner == I:
            return False
        return sigma.cuspidal_for(side) or inner in sigma.declared_for(side)

    expected = set()
    if n <= e * group.table.subset_weight(I, J) and not (n == 0 and killed(J)):
        expected.add(group.identity)
    if n == e:
        for a in sorted(datum.delta1 - I):
            inner = frozenset(j for j in J if C[j][a] == 0)  # I cap s_a(J)
            if not killed(inner):
                expected.add(group.gen(a))
    return expected


def _corollary_checks(datum, group, report) -> dict:
    I, J, e = report.I, report.J, report.e
    checks: dict = {
        "included-low-degrees-vanish": None,
        "nested-low-degrees-single-term": None,
        "nested-top-degree-shape": None,
    }
    if I <= J:
        checks["included-low-degrees-vanish"] = all(
            not report.surviving(n) for n in range(1, e)
        )
    if J <= I:
        ok = True
        for n in range(0, min(e, report.max_degree + 1)):
            got = {t.conjugator for t in report.surviving(n)}
            ok = ok and got == _expected_nested_shape(datum, group, report, n)
        checks["nested-low-degrees-single-term"] = ok
        if e <= report.max_degree:
            got = {t.conjugator for t in report.surviving(e)}
            checks["nested-top-degree-shape"] = got == _expected_nested_shape(
                datum, group, report, e
            )
    return checks
