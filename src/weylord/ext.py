"""Decision engine for extensions between parabolically induced representations.

A scenario declares the two parabolic subsets, the base-field degree e, the
residue characteristic (only through p = 2 or not), cuspidality flags for the
inducing representations, the values of the central character on the coroots
orthogonal to the Levi, and user-asserted isomorphism relations between
sigma' and the twisted conjugates of sigma.  The engine validates the
declared relations against the central-character constraints and then walks
an ordered rule table, `_EXT1_RULES` for Ext^1 and `_EXTN_RULES` for the
higher degrees.  Each row pairs a guard with a verdict, the first row whose
guard holds gives the verdict, and unknown relation values can only produce
the weaker verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

from .errors import DomainError
from .grading import SigmaDescriptor
from .intlinalg import solve_integer, unit_vector
from .rootdata import RootDatum

PAIRING_VALUES = ("one", "omega_inverse", "other", "unknown")
REL_VALUES = ("yes", "no", "unknown")

COND_GRADED_CONJ = (
    "graded-pieces conjecture in degree 1 at the identity double-coset representative"
)
COND_EMERTON = (
    "Emerton's conjecture that derived ordinary parts compute the derived functors"
)

# rule identifiers, one per row of the rule tables except CITE_ZCNX_P2,
# CITE_TOP_DEGREE_BOUND and CITE_NO_RULE, which label several rows; the README
# carries the table mapping them to their content
CITE_INCOMPARABLE_ZERO = "incomparable-cuspidal-vanishing"
CITE_NO_RULE = "no-applicable-rule"
CITE_LARGE_FIELD = "large-field-levi-isomorphism"
CITE_LARGE_FIELD_RIGHT = "large-field-nested-right-isomorphism"
CITE_LARGE_FIELD_LEFT = "large-field-nested-left-isomorphism"
CITE_QP_RIGHT = "degree-one-nested-right-cuspidal"
CITE_QP_LEFT = "degree-one-nested-left-cuspidal"
CITE_ZCNX_DIM1 = "split-connected-centre-dimension-one"
CITE_ZCNX_ISO = "split-connected-centre-isomorphism"
CITE_ZCNX_P2 = "split-connected-centre-p2-cokernel"
CITE_SUPERCUSP_ISO = "supercuspidal-untwisted-isomorphism"
CITE_CUSP_BOUND = "cuspidal-cokernel-bound"
CITE_FULL_FAITHFUL = "full-faithfulness-degree-zero"
CITE_LOW_DEGREE = "low-degree-isomorphism"
CITE_TOP_DEGREE_DIM1 = "split-connected-centre-top-degree"
CITE_TOP_DEGREE_BOUND = "top-degree-cokernel-bound"


@dataclass(frozen=True)
class Violation:
    rule: str  # "central-twist" (forced identification) or "central-characters"
    alphas: tuple[str, ...]
    message: str


@dataclass(frozen=True)
class ExtVerdict:
    kind: str  # ExactDim | Iso | UpperBoundCokernel | ExactCokernel | Zero | Inconclusive
    value: int | None = None
    description: str = ""
    conditional_on: tuple[str, ...] = ()
    citations: tuple[str, ...] = ()
    side_facts: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "description": self.description,
            "conditional_on": list(self.conditional_on),
            "citations": list(self.citations),
            "side_facts": list(self.side_facts),
        }


@dataclass(frozen=True)
class Scenario:
    """Input to the decision tree.

    sigma lives on the Levi of the parabolic attached to I, sigma_prime on
    the one attached to J.  `rel_twist[a] = "yes"` asserts that sigma_prime
    is isomorphic to the s_a-conjugate of sigma twisted by the inverse
    cyclotomic character composed with a; `rel_id` asserts sigma_prime
    isomorphic to sigma.  `central_pairings[a]` is the value of the central
    character of sigma on the coroot of a.
    """

    datum: RootDatum
    I: frozenset
    J: frozenset
    sigma: SigmaDescriptor = SigmaDescriptor("sigma")
    sigma_prime: SigmaDescriptor = SigmaDescriptor("sigma_prime")
    e: int = 1
    p_is_2: bool = False
    central_pairings: dict = field(default_factory=dict)
    rel_twist: dict = field(default_factory=dict)
    rel_id: str = "unknown"
    conjecture_assumed: bool = False
    emerton_conjecture_assumed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "I", self.datum.check_subset(self.I))
        object.__setattr__(self, "J", self.datum.check_subset(self.J))
        if self.e < 1:
            raise DomainError("the field degree e must be a positive integer")
        perp, perp1 = self.datum.perp(self.I)
        if not frozenset(self.central_pairings) <= perp:
            raise DomainError("central pairings are indexed by simple roots orthogonal to the Levi")
        for v in self.central_pairings.values():
            if v not in PAIRING_VALUES:
                raise DomainError(f"unknown pairing value {v!r}")
        if not frozenset(self.rel_twist) <= perp1:
            raise DomainError(
                "twist relations are indexed by orthogonal simple roots with one-dimensional root space"
            )
        for v in self.rel_twist.values():
            if v not in REL_VALUES:
                raise DomainError(f"unknown relation value {v!r}")
        if self.rel_id not in REL_VALUES:
            raise DomainError(f"unknown relation value {self.rel_id!r}")
        if self.I != self.J and (self.rel_id != "unknown" or self.rel_twist):
            raise DomainError("twist and identity relations compare representations of one Levi")

    # -- declared data accessors ------------------------------------------------

    def twist(self, a: int) -> str:
        return self.rel_twist.get(a, "unknown")

    def pairing(self, a: int) -> str:
        """Pairing value with omega = 1 folded in when p = 2."""
        v = self.central_pairings.get(a, "unknown")
        if self.p_is_2 and v == "one":
            return "omega_inverse"
        return v

    @property
    def perp(self) -> frozenset:
        return self.datum.perp(self.I)[0]

    @property
    def perp1(self) -> frozenset:
        return self.datum.perp(self.I)[1]

    @cached_property
    def _zcnx(self) -> bool:
        """The split-connected-centre hypotheses; split data have perp == perp1."""
        return (
            self.I == self.J
            and self.sigma.supersingular
            and self.sigma_prime.supersingular
            and self.datum.split
            and self.datum.isogeny_flags().center_connected
        )


def lemma_gen_solvable(datum: RootDatum, I, alpha: int) -> bool:
    """Existence of a cocharacter separating one orthogonal twist from the others.

    Solvable integer system: pairs to 1 with alpha, to 0 with every other
    orthogonal simple root of one-dimensional root space, and to 0 with the
    Levi's simple roots (so it lands in the centre of the Levi).
    """
    I = datum.check_subset(I)
    _, perp1 = datum.perp(I)
    if alpha not in perp1:
        raise DomainError("the separating cocharacter test needs an orthogonal root with d = 1")
    rows = [datum.simple_roots[alpha]]
    rows += [datum.simple_roots[b] for b in sorted(perp1 - {alpha})]
    rows += [datum.simple_roots[g] for g in sorted(I)]
    rhs = unit_vector(0, len(rows))
    return solve_integer(rows, rhs) is not None


def check_consistency(sc: Scenario) -> list[Violation]:
    """Violations of the declared relations against central-character facts."""
    out: list[Violation] = []
    if sc.I != sc.J:
        return out
    datum = sc.datum
    perp1 = sorted(sc.perp1)
    lab = datum.labels
    for a in perp1:
        if sc.pairing(a) != "omega_inverse":
            continue
        # pairing omega_inverse forces the twisted conjugate to be sigma itself
        t = sc.twist(a)
        if (t == "yes" and sc.rel_id == "no") or (t == "no" and sc.rel_id == "yes"):
            out.append(
                Violation(
                    "central-twist",
                    (lab[a],),
                    f"pairing at {lab[a]} identifies the twisted conjugate with sigma, "
                    f"so rel_twist({lab[a]}) and rel_id must agree",
                )
            )
    separated = {
        a: sc.pairing(a) in ("one", "other") and lemma_gen_solvable(datum, sc.I, a)
        for a in perp1
    }
    for a in perp1:
        if not separated[a] or sc.twist(a) != "yes":
            continue
        if sc.rel_id == "yes":
            out.append(
                Violation(
                    "central-characters",
                    (lab[a],),
                    f"sigma and its twisted conjugate at {lab[a]} have distinct central "
                    "characters, so sigma' cannot be isomorphic to both",
                )
            )
    for i, a in enumerate(perp1):
        for b in perp1[i + 1 :]:
            if sc.twist(a) == "yes" and sc.twist(b) == "yes" and (separated[a] or separated[b]):
                out.append(
                    Violation(
                        "central-characters",
                        (lab[a], lab[b]),
                        f"the twisted conjugates at {lab[a]} and {lab[b]} have distinct "
                        "central characters, so sigma' cannot match both",
                    )
                )
    return out


# Induction descriptions shared by several rules.
_ISO_LEVI = "induction identifies Ext^1_{{L[{I}]}}(sigma', sigma) with Ext^1_G"
_ISO_RIGHT = "induction identifies Ext^1_{{L[{I}]}}(Ind along P[{J}]^- of sigma', sigma) with Ext^1_G"
_ISO_LEFT = "induction identifies Ext^1_{{L[{J}]}}(sigma', Ind along P[{I}]^- of sigma) with Ext^1_G"
_LEVI_VANISHES = ("Ext^{n} over the Levi between sigma' and sigma vanishes",)


class _Rule(NamedTuple):
    """One row of a rule table: the verdict given when `guard(scenario, n)` holds.

    `description` and `side_facts` are formatted with the degree n and the
    labels of I and J ("-" for none); `value` is a constant or a count.
    """

    citation: str
    guard: Callable[[Scenario, int], bool]
    kind: str
    description: str
    value: int | Callable[[Scenario], int] | None = None
    conditional_on: tuple[str, ...] = ()
    side_facts: tuple[str, ...] = ()


def _twists(sc: Scenario, *values: str) -> int:
    """Number of orthogonal simple roots whose twist relation is one of `values`."""
    return sum(1 for a in sc.perp1 if sc.twist(a) in values)


def _open_matches(sc: Scenario) -> int:
    """Twisted matches that the declared relations do not exclude."""
    return _twists(sc, "yes", "unknown")


def _line(sc: Scenario) -> bool:
    """Split-connected-centre hypotheses and a twisted match that is not sigma itself."""
    return sc._zcnx and _twists(sc, "yes") > 0 and sc.rel_id == "no"


def _comparable(sc: Scenario) -> bool:
    return sc.I <= sc.J or sc.J <= sc.I


def _supercuspidal_pair(sc: Scenario) -> bool:
    return sc.sigma.supercuspidal and sc.sigma_prime.supercuspidal


# Ext^1, in the order the rules are tried; the guards read n = 1.
_EXT1_RULES = (
    _Rule(CITE_INCOMPARABLE_ZERO,
          lambda sc, n: not _comparable(sc) and sc.conjecture_assumed
          and sc.sigma.right_cuspidal and sc.sigma_prime.left_cuspidal,
          "Zero", "no extensions between the two induced representations", 0,
          conditional_on=(COND_GRADED_CONJ,)),
    _Rule(CITE_NO_RULE, lambda sc, n: not _comparable(sc),
          "Inconclusive", "incomparable parabolics need cuspidality flags and the degree-one conjecture"),
    _Rule(CITE_LARGE_FIELD, lambda sc, n: sc.e > 1 and sc.I == sc.J, "Iso", _ISO_LEVI),
    _Rule(CITE_LARGE_FIELD_RIGHT, lambda sc, n: sc.e > 1 and sc.J < sc.I, "Iso", _ISO_RIGHT),
    _Rule(CITE_LARGE_FIELD_LEFT, lambda sc, n: sc.e > 1, "Iso", _ISO_LEFT),
    _Rule(CITE_QP_RIGHT, lambda sc, n: sc.J < sc.I and sc.sigma.right_cuspidal, "Iso", _ISO_RIGHT),
    _Rule(CITE_QP_LEFT, lambda sc, n: sc.I < sc.J and sc.sigma_prime.left_cuspidal, "Iso", _ISO_LEFT),
    _Rule(CITE_ZCNX_DIM1, lambda sc, n: _line(sc),
          "ExactDim", "the space of extensions between the induced representations is a line", 1,
          side_facts=_LEVI_VANISHES),
    _Rule(CITE_ZCNX_ISO,
          lambda sc, n: sc._zcnx and ((sc.rel_id == "yes" and not sc.p_is_2) or _open_matches(sc) == 0),
          "Iso", _ISO_LEVI),
    _Rule(CITE_ZCNX_P2, lambda sc, n: sc._zcnx and sc.p_is_2 and _twists(sc, "unknown") == 0,
          "ExactCokernel", "the cokernel of induction on Ext^1 counts conjugate identifications",
          lambda sc: _twists(sc, "yes")),
    _Rule(CITE_ZCNX_P2, lambda sc, n: sc._zcnx and sc.p_is_2,
          "UpperBoundCokernel", "unknown relations leave only an upper bound for the cokernel of induction",
          _open_matches),
    _Rule(CITE_SUPERCUSP_ISO, lambda sc, n: sc.I == sc.J and _supercuspidal_pair(sc) and _open_matches(sc) == 0,
          "Iso", _ISO_LEVI),
    _Rule(CITE_CUSP_BOUND,
          lambda sc, n: sc.I == sc.J and (sc.sigma.right_cuspidal or sc.sigma_prime.left_cuspidal),
          "UpperBoundCokernel",
          "induction embeds the Levi extensions with cokernel bounded by the twisted matches", _open_matches),
    _Rule(CITE_NO_RULE, lambda sc, n: True,
          "Inconclusive", "declared flags and relations select no branch of the decision tree"),
)

# Ext^n for one parabolic (I = J), in the order the rules are tried.
_EXTN_RULES = (
    _Rule(CITE_FULL_FAITHFUL, lambda sc, n: n == 0, "Iso", "parabolic induction is fully faithful"),
    _Rule(CITE_LOW_DEGREE, lambda sc, n: n < sc.e,
          "Iso", "induction is an isomorphism on Ext^{n} below the field degree",
          conditional_on=(COND_EMERTON,)),
    _Rule(CITE_TOP_DEGREE_DIM1, lambda sc, n: n == sc.e and _line(sc),
          "ExactDim", "the space Ext^{n} between the induced representations is a line", 1,
          conditional_on=(COND_EMERTON,), side_facts=_LEVI_VANISHES),
    _Rule(CITE_TOP_DEGREE_BOUND, lambda sc, n: n == sc.e and _supercuspidal_pair(sc) and _open_matches(sc) == 0,
          "Iso", "no twisted matches: induction is an isomorphism on Ext^{n}",
          conditional_on=(COND_EMERTON,)),
    _Rule(CITE_TOP_DEGREE_BOUND, lambda sc, n: n == sc.e and _supercuspidal_pair(sc),
          "UpperBoundCokernel", "induction embeds Ext^{n} with cokernel bounded by the twisted matches",
          _open_matches, conditional_on=(COND_EMERTON,)),
    _Rule(CITE_NO_RULE, lambda sc, n: n == sc.e,
          "Inconclusive", "the top-degree rules need supercuspidal flags"),
    _Rule(CITE_NO_RULE, lambda sc, n: True, "Inconclusive", "no rule applies above the field degree"),
)


def _first_verdict(rules, sc: Scenario, n: int) -> ExtVerdict:
    """The verdict of the first rule whose guard holds; each table ends in a rule that always holds."""
    rule = next(r for r in rules if r.guard(sc, n))
    labels = {k: " ".join(sc.datum.label_list(v)) or "-" for k, v in (("I", sc.I), ("J", sc.J))}
    return ExtVerdict(
        rule.kind,
        value=rule.value(sc) if callable(rule.value) else rule.value,
        description=rule.description.format(n=n, **labels),
        conditional_on=rule.conditional_on,
        citations=(rule.citation,),
        side_facts=tuple(fact.format(n=n) for fact in rule.side_facts),
    )


def ext1_verdict(sc: Scenario) -> ExtVerdict:
    """Walk the Ext^1 rule table; raises on an inconsistent scenario."""
    violations = check_consistency(sc)
    if violations:
        raise DomainError(
            "inconsistent scenario: " + "; ".join(v.message for v in violations)
        )
    return _first_verdict(_EXT1_RULES, sc, 1)


def extn_mode(sc: Scenario, n: int) -> ExtVerdict:
    """Higher-degree analogue, conditional on the derived-functor comparison."""
    if not sc.emerton_conjecture_assumed:
        raise DomainError("the higher-degree mode requires emerton_conjecture_assumed")
    if sc.I != sc.J:
        raise DomainError("the higher-degree mode compares inductions from one parabolic")
    if n < 0:
        raise DomainError("the cohomological degree must be nonnegative")
    return _first_verdict(_EXTN_RULES, sc, n)
