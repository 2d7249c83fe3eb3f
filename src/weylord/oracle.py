"""Brute-force ground truth and the verification sweep.

The closed-form coset machinery is re-derived here from nothing but group
multiplication: cosets are enumerated element by element, Bruhat order is
checked against its definition on the Bruhat graph, and the inversion
invariants are recomputed by folding reflections on coordinate vectors.  The
sweep runs every cross-check over all pairs of parabolic subsets of a list of
preset data and reports the first divergence per case.

Once per case, the lower covers of each w are the w t_beta of length
l(w) - 1, and each cone bitmask behind `bruhat_leq` must have these covers
and be the union of their cones; that decides the order on all pairs in
O(|W| N) products.  The projections to coset representatives are checked for
order preservation on the covers, and opposition maps for order reversal on
the comparable pairs read off the cone bitmasks.  Minimal coset
representatives are the double-coset ones with J empty, so one brute-force
partition serves both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DomainError
from .grading import (
    JACQUET,
    ORD,
    SigmaDescriptor,
    full_profile,
    graded_terms,
    surviving,
)
from .intlinalg import vadd, vscale, vsub, zero_vector
from .posets import _bits, _lin_identity_failures
from .rootdata import RootDatum, preset_datum
from .weyl import (
    WeylGroup,
    bruhat_poset,
    cross_section,
    double_coset_table,
    opposition_map,
    weyl_group,
)


# -- independent recomputations ------------------------------------------------


def brute_double_reps(group: WeylGroup, I, J) -> frozenset:
    """Minimal-length representatives of W_I \\ W / W_J by explicit partition."""
    wi = group.parabolic_elements(I)
    wj = group.parabolic_elements(J)
    seen: set[int] = set()
    reps = set()
    for w in group.elements:
        if w.index in seen:
            continue
        coset = {group.mul(group.mul(u, w), v) for u in wi for v in wj}
        seen.update(x.index for x in coset)
        least = min(x.length for x in coset)
        mins = [x for x in coset if x.length == least]
        if len(mins) != 1:
            raise DomainError("double coset with two distinct minimal-length elements")
        reps.add(mins[0])
    return frozenset(reps)


def naive_dw_delta(group: WeylGroup, w) -> tuple[int, tuple]:
    """Recompute d_w and delta_w by acting on each positive root vector."""
    datum = group.datum
    table = group.table
    d = 0
    delta = zero_vector(datum.rank)
    for r in range(group.num_positive):
        v = table.positive[r]
        for g in reversed(w.word):
            v = datum.reflect_vector(g, v)
        if table.index[v] >= group.num_positive:
            d += table.mult[r]
            delta = vadd(delta, vscale(table.mult[r], table.positive[r]))
    return d, delta


# -- sweep -----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCase:
    dynkin: str
    lattice: str = "simply_connected"
    multiplicity: tuple | None = None

    @property
    def label(self) -> str:
        tag = self.dynkin
        if self.multiplicity:
            tag += "/d=" + ",".join(str(m) for m in self.multiplicity)
        return f"{tag}({self.lattice})"

    def build(self) -> RootDatum:
        return preset_datum(
            self.dynkin, self.lattice, multiplicity=self.multiplicity, name=self.label
        )


@dataclass(frozen=True)
class OracleReport:
    case: str
    I: tuple[str, ...]
    J: tuple[str, ...]
    agreement: bool
    first_divergence: str | None = None


DEFAULT_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1")


def default_cases(types=DEFAULT_TYPES, max_rank: int | None = None) -> list[SweepCase]:
    chosen = [
        t for t in types if max_rank is None or preset_datum(t).num_simple <= max_rank
    ]
    cases = [SweepCase(t) for t in chosen]
    if "A2" in chosen:
        cases.append(SweepCase("A2", multiplicity=(2, 2)))
    return cases


def _subsets(n: int):
    for mask in range(1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def _subset_d_delta(group: WeylGroup, K):
    table = group.table
    d = 0
    delta = zero_vector(group.datum.rank)
    for r in range(group.num_positive):
        if not table.support(r) <= K:
            d += table.mult[r]
            delta = vadd(delta, vscale(table.mult[r], table.positive[r]))
    return d, delta


def _phi_subset_pos(group: WeylGroup, K) -> frozenset:
    table = group.table
    return frozenset(r for r in range(group.num_positive) if table.support(r) <= K)


def _reflections(group: WeylGroup) -> dict:
    """t_beta = w s_g w^{-1} for each positive root beta = w(alpha_g), by root index."""
    out = {}
    for w in group.elements:
        for g, a in enumerate(group.table.simple_index):
            r = w.perm[a]
            if r < group.num_positive and r not in out:
                out[r] = group.mul(group.mul(w, group.gen(g)), group.inv(w))
    return out


def _bruhat_covers(group: WeylGroup) -> tuple:
    """Every cover relation (u, w) of Bruhat order, read off the Bruhat graph.

    u < w is generated by u = w t with t a reflection and l(u) < l(w)
    (Bjorner-Brenti Def. 2.1.1), so the covers are the w t of length l(w) - 1.
    """
    elems = group.elements
    reflections = _reflections(group).values()
    return tuple(
        (elems[u], w)
        for w in elems
        for u in sorted({group.mul(w, t).index for t in reflections})
        if elems[u].length == w.length - 1
    )


def _case_checks(group: WeylGroup, rng: random.Random) -> list[str]:
    datum, table = group.datum, group.table
    # the root table's simple-reflection rows against reflecting each root vector
    roots = table.positive + tuple(vscale(-1, v) for v in table.positive)
    for g, row in enumerate(table.reflect):
        if row != tuple(table.index[datum.reflect_vector(g, v)] for v in roots):
            return [f"reflection table disagrees at {datum.labels[g]}"]
    out = []
    left, right = group.descents
    for w in group.elements:
        # the right-multiplication table against root-permutation composition
        perm = w.perm
        for g, gen_perm in enumerate(table.reflect):
            ws = group.elements[group._right[w.index][g]]
            if ws.perm != tuple(perm[r] for r in gen_perm):
                out.append(f"right multiplication table of {w} disagrees at {group.datum.labels[g]}")
        if out:
            return out
        # descent masks against the length criterion, by group multiplication
        for g in range(group.datum.num_simple):
            s = group.gen(g)
            if bool(right[w.index] >> g & 1) != (group.mul(w, s).length < w.length):
                out.append(f"right descent mask of {w} disagrees at {group.datum.labels[g]}")
            if bool(left[w.index] >> g & 1) != (group.mul(s, w).length < w.length):
                out.append(f"left descent mask of {w} disagrees at {group.datum.labels[g]}")
        if w.length != len(group.inversions(w)):
            out.append(f"length of {w} differs from its inversion count")
        if group.from_word(w.word) != w:
            out.append(f"canonical word of {w} does not multiply back")
        d, delta = group.dw_delta(w)
        if d < w.length:
            out.append(f"d({w}) smaller than the length")
        if (d, delta) != naive_dw_delta(group, w):
            out.append(f"inversion data of {w} disagrees with the naive recomputation")
        if all(m == 1 for m in group.datum.multiplicity) and d != w.length:
            out.append(f"d({w}) differs from the length on an all-1 datum")
        if out:
            return out
    # multiplicativity on a sample of pairs drawn from the sweep's seed
    elems = group.elements
    for _ in range(144):
        u, v = rng.choice(elems), rng.choice(elems)
        uv = group.mul(u, v)
        if any(uv.perm[r] != u.perm[v.perm[r]] for r in range(len(uv.perm))):
            return [f"permutation of {u}*{v} is not the composite"]
    # Bruhat order against its definition.  Both the Bruhat graph and the
    # subword cones `_cone` are graded by length and generated by their covers
    # (chain property, Bjorner-Brenti Thm 2.2.6), so equal covers and cones
    # that are the union of their covers' cones give equal orders on all pairs.
    n = group.num_positive
    reflections = _reflections(group)
    for r in range(n):
        t = reflections.get(r)
        if t is None or t.perm[r] != r + n or group.mul(t, t) != group.identity:
            return [f"reflection of positive root {r} is not an involution negating it"]
    cones = [group._cone(w) for w in elems]
    covers = [0] * len(elems)
    unions = [1 << w.index for w in elems]
    for u, w in _bruhat_covers(group):
        covers[w.index] |= 1 << u.index
        unions[w.index] |= cones[u.index]
    layers = [0] * (n + 1)
    for w in elems:
        layers[w.length] |= 1 << w.index
    for w in elems:
        if w.length and cones[w.index] & layers[w.length - 1] != covers[w.index]:
            return [f"Bruhat covers of {w} disagree with the reflection covers"]
        if cones[w.index] != unions[w.index]:
            return [f"Bruhat cone of {w} is not the union of its covers' cones"]
    return out


def _left_checks(group: WeylGroup, I, covers) -> tuple[list[str], dict]:
    """Checks of the left cosets of W_I, and the projection w -> x in w = w_I * x."""
    datum = group.datum
    proj1 = {}
    closed = frozenset(group.min_coset_reps(I))
    if closed != brute_double_reps(group, I, frozenset()):
        return [f"minimal coset representatives for I={datum.label_list(I)} diverge"], proj1
    phi_i = _phi_subset_pos(group, I)
    n = group.num_positive
    for w in group.elements:
        u, x = group.coset_decompose(I, w)
        if group.mul(u, x) != w or u.length + x.length != w.length:
            return [f"coset decomposition of {w} at I={datum.label_list(I)} broken"], proj1
        if x not in closed:
            return [f"coset remainder of {w} is not a minimal representative"], proj1
        # characterising equality: Phi_I^+ meets w(Phi^+) exactly in w_I(Phi_I^+)
        lhs = {w.perm[r] for r in range(n)} & phi_i
        rhs = {u.perm[r] for r in phi_i} & phi_i
        if lhs != rhs:
            return [f"characterising root equality fails at w={w}, I={datum.label_list(I)}"], proj1
        proj1[w] = x
    # order-preserving projection to representatives.  Bruhat order is graded
    # by length, so any u <= w is joined by a chain of covers (chain property,
    # Bjorner-Brenti Thm 2.2.6); a map that preserves every cover therefore
    # preserves the whole order by transitivity.  `_case_checks` has already
    # checked the cones behind `bruhat_leq` against the Bruhat graph.
    for u, w in covers:
        if not group.bruhat_leq(proj1[u], proj1[w]):
            return [f"left projection is not order-preserving at ({u}, {w})"], proj1
    return [], proj1


def _double_checks(group: WeylGroup, I, J, covers, proj1, table) -> list[str]:
    datum = group.datum
    lab = datum.label_list
    closed = frozenset(table.reps)
    if closed != brute_double_reps(group, I, J):
        return [f"double-coset representatives for I={lab(I)}, J={lab(J)} diverge"]
    n = group.num_positive
    phi_j = _phi_subset_pos(group, J)
    phi_i = _phi_subset_pos(group, I)
    # closed-form membership really keeps both positive systems positive
    for w in closed:
        wi = group.inv(w)
        if any(wi.perm[r] >= n for r in phi_i) or any(w.perm[r] >= n for r in phi_j):
            return [f"representative {w} moves a parabolic positive system out of the positives"]
    wj_all = group.parabolic_elements(J)
    fibers = {e.rep: frozenset(group.fiber(J, e.meet)) for e in table.entries}
    for iw in group.min_coset_reps(I):
        x, v = group.double_decompose(I, J, iw)
        if group.mul(x, v) != iw or x.length + v.length != iw.length or x not in closed:
            return [f"double decomposition of {iw} at I={lab(I)}, J={lab(J)} broken"]
        if v not in fibers[x]:
            return [f"fiber factor of {iw} is not minimal for the meet subset"]
        # Kostant's characterising equality inside Phi_J^+
        lhs = {r for r in phi_j if iw.perm[r] < n}
        rhs = {r for r in phi_j if v.perm[r] in phi_j}
        if lhs != rhs:
            return [f"Kostant equality fails at {iw} for I={lab(I)}, J={lab(J)}"]
    for entry in table.entries:
        w = entry.rep
        # converse: w * w_J is left-minimal exactly for fiber members
        for v in wj_all:
            if (v in fibers[w]) != group.is_left_minimal(group.mul(w, v), I):
                return [f"fiber characterisation fails at {w}, v={v}"]
        # root identities of the meet subsets
        img_j = {w.perm[group.table.simple_index[j]] for j in J}
        in_levi = {r for r in img_j if r < n and group.table.support(r) <= I}
        simple_in_i = {group.table.simple_index[i] for i in I}
        if in_levi != img_j & simple_in_i:
            return [f"simple-image identity fails at {w}"]
        img_phi_j = {w.perm[r] for r in phi_j}
        lhs = {r for r in img_phi_j if r < n and group.table.support(r) <= I}
        rhs = {
            r
            for r in range(n)
            if group.table.support(r) <= entry.comeet
        }
        if lhs != rhs:
            return [f"parabolic root-image identity fails at {w}"]
        # orthogonality of the twist character on the meet subset
        for b in entry.meet:
            if sum(c * q for c, q in zip(entry.delta, datum.simple_coroots[b])) != 0:
                return [f"delta of {w} is not orthogonal to the meet coroots"]
        # dimension count against the unipotent quotient
        quotient = sum(
            group.table.mult[r]
            for r in range(n)
            if not group.table.support(r) <= J and w.perm[r] >= n
        )
        if entry.d != quotient:
            return [f"d of {w} differs from the unipotent quotient dimension"]
    # order-preserving double projection, on covers as `_left_checks` does proj1
    proj2 = {w: group.double_decompose(I, J, proj1[w])[0] for w in group.elements}
    for u, w in covers:
        if not group.bruhat_leq(proj2[u], proj2[w]):
            return [f"double projection is not order-preserving at ({u}, {w})"]
    return []


def _cross_section_checks(group: WeylGroup, I, J) -> list[str]:
    """Each of the nine cross-section sets against its definition, root by root.

    A positive root gamma is in u_w when iw keeps it positive; then it is in
    the dprime sets when iw(gamma) lies in the Levi of I (else the prime ones),
    and in the u_j sets when gamma lies in Phi_J (else the n_j ones).
    """
    table = group.table
    n = group.num_positive
    in_i = [table.support(r) <= I for r in range(n)]
    in_j = [table.support(r) <= J for r in range(n)]
    names = ("u_w", "u_prime", "u_dprime", "n_j", "n_j_prime", "n_j_dprime", "u_j", "u_j_prime", "u_j_dprime")
    for iw in group.min_coset_reps(I):
        cs = cross_section(group, I, J, iw)
        expected = {name: set() for name in names}
        for r in range(n):
            image = iw.perm[r]
            if image >= n:
                continue
            levi = "dprime" if in_i[image] else "prime"
            part = "u_j" if in_j[r] else "n_j"
            for name in ("u_w", f"u_{levi}", part, f"{part}_{levi}"):
                expected[name].add(r)
        for name in names:
            if getattr(cs, name) != expected[name]:
                return [f"cross-section set {name} disagrees with its definition at {iw}"]
    return []


def _order_reversal_failure(group: WeylGroup, mapping: dict):
    """A pair u <= v of the mapping's domain with f(v) not <= f(u), or None.

    Only comparable pairs are visited: for each v, the domain inside v's cone.
    """
    by_index = {x.index: x for x in mapping}
    domain = sum(1 << i for i in by_index)
    for v, fv in mapping.items():
        for i in _bits(group._cone(v) & domain):
            u = by_index[i]
            if not group._cone(mapping[u]) >> fv.index & 1:
                return u, v
    return None


def _duality_checks(group: WeylGroup, I, J, om) -> list[str]:
    lab = group.datum.label_list
    images = list(om.rep_map.values())
    if len(set(images)) != len(images):
        return [f"opposition map is not injective for I={lab(I)}, J={lab(J)}"]
    target = frozenset(group.double_coset_reps(om.I_prime, J))
    if frozenset(images) != target:
        return [f"opposition map is not onto for I={lab(I)}, J={lab(J)}"]
    bad = _order_reversal_failure(group, om.rep_map)
    if bad:
        return [f"opposition map is not order-reversing at ({bad[0]}, {bad[1]})"]
    for w, fm in om.fiber_maps.items():
        tgt_fiber = frozenset(group.fiber(J, om.meets_prime[w]))
        if frozenset(fm.values()) != tgt_fiber or len(set(fm.values())) != len(fm):
            return [f"fiber opposition is not a bijection at {w}"]
        if _order_reversal_failure(group, fm):
            return [f"fiber opposition is not order-reversing at {w}"]
    if not I and not J:
        for w, img in om.rep_map.items():
            if img != group.mul(group.inv(group.w0), w):
                return ["empty-subset opposition is not left multiplication by w0^{-1}"]
    return []


def _partition_checks(group: WeylGroup, I, J, table, om) -> list[str]:
    lab = group.datum.label_list
    d_j, delta_j = _subset_d_delta(group, J)
    d_i, delta_i = _subset_d_delta(group, I)
    w_j0 = group.longest_in(J)
    for entry in table.entries:
        w = entry.rep
        d_prime, delta_prime = group.dw_delta(om.rep_map[w])
        d_meet, delta_meet = _subset_d_delta(group, entry.comeet)
        k_wj0 = group.mul(group.longest_in(entry.meet), w_j0)
        if d_j != (d_meet - d_i) + entry.d + d_prime:
            return [f"dimension partition identity fails at {w} for I={lab(I)}, J={lab(J)}"]
        lhs = delta_j
        rhs = vadd(
            vadd(group.inv(w).apply(vsub(delta_meet, delta_i)), entry.delta),
            k_wj0.apply(delta_prime),
        )
        if lhs != rhs:
            return [f"character partition identity fails at {w} for I={lab(I)}, J={lab(J)}"]
    return []


def _filtration_checks(group: WeylGroup, table) -> list[str]:
    poset = bruhat_poset(group, table.reps)
    failures = _lin_identity_failures(poset, lambda x: x.length)
    if failures:
        return [f"length-filtration identity fails at {poset.elements[failures[0]]}"]
    return []


def _grading_checks(datum: RootDatum, group: WeylGroup, I, J, e_values) -> list[str]:
    lab = datum.label_list
    ss = SigmaDescriptor(supersingular=True)
    for e in e_values:
        # twist orthogonality and degree support for a flagless descriptor
        plain = SigmaDescriptor()
        d_j, _ = _subset_d_delta(group, J)
        profile = full_profile(datum, I, J, e, plain, n_max=e * d_j + e, side=ORD)
        for n, terms in profile.terms.items():
            for t in surviving(terms):
                if n > e * d_j:
                    return [f"term above the degree support at I={lab(I)}, J={lab(J)}, n={n}"]
                for b in t.inducing:
                    if sum(c * q for c, q in zip(t.twist, datum.simple_coroots[b])) != 0:
                        return [f"twist not orthogonal to the inducing coroots at n={n}"]
        if I == J:
            perp1 = sorted(datum.perp(I)[1])
            for side in (ORD, JACQUET):
                for n in range(1, e):
                    if surviving(graded_terms(datum, I, I, e, n, ss, side=side)):
                        return [f"degree {n} terms survive for I={lab(I)}, side={side}"]
                alive = surviving(graded_terms(datum, I, I, e, e, ss, side=side))
                sign = -1 if side == ORD else 1
                expected = {
                    (group.gen(a), vscale(sign, datum.simple_roots[a]), I, I)
                    for a in perp1
                }
                got = {(t.conjugator, t.twist, t.inducing, t.inner_subset) for t in alive}
                if got != expected:
                    return [f"top-degree terms diverge for I={lab(I)}, e={e}, side={side}"]
        if J < I:
            # declared vanishing exactly on the non-orthogonal reflections
            C = datum.cartan
            declared = frozenset(
                frozenset(j for j in J if C[j][a] == 0)
                for a in datum.delta1 - I
                if any(C[j][a] != 0 for j in J)
            )
            sig = SigmaDescriptor(ord_vanishes_for=declared)
            for n in range(0, e):
                alive = surviving(graded_terms(datum, I, J, e, n, sig, side=ORD))
                if [t.conjugator for t in alive] != [group.identity]:
                    return [f"low-degree nested shape fails at I={lab(I)}, J={lab(J)}, n={n}"]
            alive = surviving(graded_terms(datum, I, J, e, e, sig, side=ORD))
            expected_top = {group.identity} | {
                group.gen(a) for a in datum.perp(J)[1] - I
            }
            if {t.conjugator for t in alive} != expected_top:
                return [f"top-degree nested shape fails at I={lab(I)}, J={lab(J)}, e={e}"]
    return []


def sweep(cases=None, e_values=(1, 2), seed: int = 20_240_001) -> list[OracleReport]:
    if cases is None:
        cases = default_cases()
    rng = random.Random(seed)
    reports: list[OracleReport] = []
    for case in cases:
        datum = case.build()
        group = weyl_group(datum)
        case_issues = _case_checks(group, rng)
        covers = () if case_issues else _bruhat_covers(group)
        for I in _subsets(datum.num_simple):
            left_issues, proj1 = _left_checks(group, I, covers)
            for J in _subsets(datum.num_simple):
                issues = case_issues + left_issues
                # one table and one opposition map per (I, J), each built
                # only once the families before it agree
                if not issues:
                    table = double_coset_table(group, I, J)
                    issues += _double_checks(group, I, J, covers, proj1, table)
                if not issues:
                    issues += _cross_section_checks(group, I, J)
                if not issues:
                    om = opposition_map(group, I, J)
                    issues += _duality_checks(group, I, J, om)
                if not issues:
                    issues += _partition_checks(group, I, J, table, om)
                if not issues:
                    issues += _filtration_checks(group, table)
                if not issues:
                    issues += _grading_checks(datum, group, I, J, e_values)
                reports.append(
                    OracleReport(
                        case=case.label,
                        I=tuple(datum.label_list(I)),
                        J=tuple(datum.label_list(J)),
                        agreement=not issues,
                        first_divergence=issues[0] if issues else None,
                    )
                )
    return reports
