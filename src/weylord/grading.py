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

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class TermStatus:
    kind: str  # "zero" | "proven" | "conjectural"
    rule: str
    reason: str = ""
    note: str = ""


@dataclass(frozen=True)
class GradedTerm:
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


def _status_for_surviving(w, J, meet, n) -> TermStatus:
    if meet == J:  # the image of J under w lies inside I: trivial outer induction
        return TermStatus("proven", RULE_LEVI_FORM)
    if n == 0 and w.length == 0:
        return TermStatus("proven", RULE_DEGREE_ZERO)
    note = EMERTON_NOTE if w.length == 0 else ""
    return TermStatus("conjectural", RULE_CONJECTURAL, note=note)


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


def _terms_by_degree(group, table, e, degrees, sigma, side, sign, opposite) -> dict:
    """The graded pieces of each degree in `degrees`, all read off one table.

    An entry's top inner degree and twist do not depend on the degree, so
    they are computed once per entry (the top once per distinct comeet).
    """
    I, J = table.I, table.J
    cuspidal = sigma.cuspidal_for(side)
    declared = sigma.declared_for(side)
    negative = TermStatus("zero", RULE_NEGATIVE, "inner functor vanishes in negative degree")
    full_levi = TermStatus(
        "zero",
        RULE_FULL_LEVI,
        "higher ordinary parts of the full Levi vanish"
        if side == ORD
        else "higher homology of the trivial unipotent group vanishes",
    )
    above_top = TermStatus("zero", RULE_TOP, "inner degree above the top of the unipotent group")
    cuspidal_zero = TermStatus(
        "zero",
        RULE_CUSPIDAL,
        "ordinary parts of a cuspidal representation vanish on proper parabolics"
        if side == ORD
        else "coinvariants of a cuspidal representation vanish on proper parabolics",
    )
    declared_zero = TermStatus("zero", RULE_DECLARED, "declared vanishing of the degree-zero inner functor")
    weights: dict = {}
    rows = []
    for entry in table.entries:
        inner = entry.comeet  # I cap w(J)
        if inner not in weights:
            weights[inner] = group.table.subset_weight(I, inner)
        rows.append((entry, e * weights[inner], vscale(sign, entry.delta)))
    out = {}
    for n in degrees:
        terms = []
        for entry, top, twist in rows:
            inner = entry.comeet
            m = n - e * entry.d
            if m < 0:
                status = negative
            elif inner == I and m > 0:
                status = full_levi
            elif m > top:
                status = above_top
            elif m == 0 and inner != I and cuspidal:
                status = cuspidal_zero
            elif m == 0 and inner != I and inner in declared:
                status = declared_zero
            else:
                status = _status_for_surviving(entry.rep, J, entry.meet, n)
            terms.append(
                GradedTerm(
                    side=side,
                    degree=n,
                    conjugator=entry.rep,
                    inducing=entry.meet,
                    inner_levi=I,
                    inner_subset=inner,
                    inner_degree=m,
                    twist=twist,
                    status=status,
                    opposite_flag=opposite,
                )
            )
        out[n] = terms
    return out


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
    return _terms_by_degree(group, table, e, (n,), sigma, side, sign, opposite)[n]


def hord_graded_pieces(datum, I, J, e, n, sigma) -> list[GradedTerm]:
    return graded_terms(datum, I, J, e, n, sigma, side=ORD)


def hj_graded_pieces(datum, I, J, e, n, sigma, opposite: bool = False) -> list[GradedTerm]:
    return graded_terms(datum, I, J, e, n, sigma, side=JACQUET, opposite=opposite)


def surviving(terms) -> list[GradedTerm]:
    return [t for t in terms if t.survives]


# -- degree profiles --------------------------------------------------------------


@dataclass(frozen=True)
class GradingReport:
    I: frozenset
    J: frozenset
    e: int
    sigma: SigmaDescriptor
    side: str
    max_degree: int
    terms: dict  # degree -> tuple[GradedTerm, ...]
    corollary_checks: dict = field(default_factory=dict)

    def surviving(self, n: int) -> list[GradedTerm]:
        return surviving(self.terms.get(n, ()))


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
    by_degree = _terms_by_degree(group, table, e, range(top + 1), sigma, side, sign, opposite)
    terms = {n: tuple(ts) for n, ts in by_degree.items()}
    report = GradingReport(
        I=I,
        J=J,
        e=e,
        sigma=sigma,
        side=side,
        max_degree=top,
        terms=terms,
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
