"""Brute-force ground truth and the verification sweep.

The closed-form coset machinery is re-derived here from nothing but group
multiplication: cosets are enumerated element by element, Bruhat comparisons
search subwords of independently produced reduced words, and the inversion
invariants are recomputed by folding reflections on coordinate vectors.  The
sweep runs every cross-check over all pairs of parabolic subsets of a list of
preset data and reports the first divergence per case.
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
from .posets import check_lin_identity
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


def brute_min_reps(group: WeylGroup, I) -> frozenset:
    """Minimal-length representatives of W_I \\ W by explicit partition."""
    wi = group.parabolic_elements(I)
    seen: set[int] = set()
    reps = set()
    for w in group.elements:
        if w.index in seen:
            continue
        coset = {group.mul(u, w) for u in wi}
        seen.update(x.index for x in coset)
        least = min(x.length for x in coset)
        mins = [x for x in coset if x.length == least]
        if len(mins) != 1:
            raise DomainError("coset with two distinct minimal-length elements")
        reps.add(mins[0])
    return frozenset(reps)


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


def random_reduced_word(group: WeylGroup, w, rng: random.Random) -> tuple:
    """A reduced word obtained by exchange-reducing a padded random word."""
    word: list[int] = []
    x = w
    while x.length:
        descents = [
            i
            for i in range(group.datum.num_simple)
            if group.mul(group.gen(i), x).length < x.length
        ]
        g = rng.choice(descents)
        word.append(g)
        x = group.mul(group.gen(g), x)
    # pad with a cancelling pair, then reduce again via the exchange property
    g = rng.randrange(group.datum.num_simple)
    pos = rng.randrange(len(word) + 1)
    word[pos:pos] = [g, g]
    word = _exchange_reduce(group, word)
    if len(word) != w.length or group.from_word(word) != w:
        raise DomainError("exchange reduction produced a wrong word")
    return tuple(word)


def _exchange_reduce(group: WeylGroup, word: list[int]) -> list[int]:
    while True:
        prefix = [group.identity]
        bad = None
        for k, g in enumerate(word):
            nxt = group.mul(prefix[-1], group.gen(g))
            if nxt.length < prefix[-1].length:
                bad = k
                break
            prefix.append(nxt)
        if bad is None:
            return word
        target = group.from_word(word)
        for i in range(bad):
            candidate = word[:i] + word[i + 1 : bad] + word[bad + 1 :]
            if group.from_word(candidate) == target:
                word = candidate
                break
        else:
            raise DomainError("exchange property failed; corrupt group data")


def brute_bruhat(group: WeylGroup, u, w, rng: random.Random) -> bool:
    """Subword search over an independently produced reduced word of w."""
    word = random_reduced_word(group, w, rng)
    target = u.index
    seen: set[tuple[int, int]] = set()
    stack = [(0, 0)]
    while stack:
        pos, x = stack.pop()
        if x == target:
            return True
        if pos == len(word) or (pos, x) in seen:
            continue
        seen.add((pos, x))
        stack.append((pos + 1, x))
        stack.append((pos + 1, group._right[x][word[pos]]))
    return False


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

TYPE_RANKS = {"A1": 1, "A2": 2, "A3": 3, "B2": 2, "B3": 3, "C3": 3, "G2": 2, "A1xA1": 2}


def default_cases(types=DEFAULT_TYPES, max_rank: int | None = None) -> list[SweepCase]:
    chosen = [t for t in types if max_rank is None or TYPE_RANKS.get(t, 99) <= max_rank]
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


def _case_checks(group: WeylGroup, rng: random.Random) -> list[str]:
    out = []
    left, right = group.descents
    for w in group.elements:
        # the right-multiplication table against root-permutation composition
        perm = w.perm
        for g, gen_perm in enumerate(group._gen_perms):
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
        d = group.d(w)
        if d < w.length:
            out.append(f"d({w}) smaller than the length")
        nd, ndelta = naive_dw_delta(group, w)
        if (d, group.delta(w)) != (nd, ndelta):
            out.append(f"inversion data of {w} disagrees with the naive recomputation")
        if all(m == 1 for m in group.datum.multiplicity) and d != w.length:
            out.append(f"d({w}) differs from the length on an all-1 datum")
        if out:
            return out
    # multiplicativity on a deterministic sample of pairs
    elems = group.elements
    for u in elems[: min(len(elems), 12)]:
        for v in elems[:: max(1, len(elems) // 12)]:
            uv = group.mul(u, v)
            if any(uv.perm[r] != u.perm[v.perm[r]] for r in range(len(uv.perm))):
                return [f"permutation of {u}*{v} is not the composite"]
    for u in group.elements:
        for w in group.elements:
            if group.bruhat_leq(u, w) != brute_bruhat(group, u, w, rng):
                return [f"bruhat order at ({u}, {w}) disagrees with the subword oracle"]
    return out


def _left_checks(group: WeylGroup, I) -> list[str]:
    datum = group.datum
    out = []
    closed = frozenset(group.min_coset_reps(I))
    if closed != brute_min_reps(group, I):
        return [f"minimal coset representatives for I={datum.label_list(I)} diverge"]
    phi_i = _phi_subset_pos(group, I)
    n = group.num_positive
    for w in group.elements:
        u, x = group.coset_decompose(I, w)
        if group.mul(u, x) != w or u.length + x.length != w.length:
            out.append(f"coset decomposition of {w} at I={datum.label_list(I)} broken")
            return out
        if x not in closed:
            out.append(f"coset remainder of {w} is not a minimal representative")
            return out
        # characterising equality: Phi_I^+ meets w(Phi^+) exactly in w_I(Phi_I^+)
        lhs = {w.perm[r] for r in range(n)} & phi_i
        rhs = {u.perm[r] for r in phi_i} & phi_i
        if lhs != rhs:
            out.append(f"characterising root equality fails at w={w}, I={datum.label_list(I)}")
            return out
    return out


def _double_checks(group: WeylGroup, I, J) -> list[str]:
    datum = group.datum
    lab = datum.label_list
    table = double_coset_table(group, I, J)
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
    for iw in group.min_coset_reps(I):
        x, v = group.double_decompose(I, J, iw)
        if group.mul(x, v) != iw or x.length + v.length != iw.length or x not in closed:
            return [f"double decomposition of {iw} at I={lab(I)}, J={lab(J)} broken"]
        entry = table.entry(x)
        if v not in entry.fiber:
            return [f"fiber factor of {iw} is not minimal for the meet subset"]
        # Kostant's characterising equality inside Phi_J^+
        lhs = {r for r in phi_j if iw.perm[r] < n}
        rhs = {r for r in phi_j if v.perm[r] in phi_j}
        if lhs != rhs:
            return [f"Kostant equality fails at {iw} for I={lab(I)}, J={lab(J)}"]
    for entry in table.entries:
        w = entry.rep
        # converse: w * w_J is left-minimal exactly for fiber members
        fiber = set(entry.fiber)
        for v in wj_all:
            if (v in fiber) != group.is_left_minimal(group.mul(w, v), I):
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
    # order-preserving projections to representatives
    proj1 = {w: group.coset_decompose(I, w)[1] for w in group.elements}
    proj2 = {w: group.double_decompose(I, J, proj1[w])[0] for w in group.elements}
    for u in group.elements:
        for w in group.elements:
            if group.bruhat_leq(u, w):
                if not group.bruhat_leq(proj1[u], proj1[w]):
                    return [f"left projection is not order-preserving at ({u}, {w})"]
                if not group.bruhat_leq(proj2[u], proj2[w]):
                    return [f"double projection is not order-preserving at ({u}, {w})"]
    return []


def _cross_section_checks(group: WeylGroup, I, J) -> list[str]:
    for iw in group.min_coset_reps(I):
        cs = cross_section(group, I, J, iw)
        if cs.n_j != cs.n_j_prime | cs.n_j_dprime or cs.n_j_prime & cs.n_j_dprime:
            return [f"unipotent intersection sets do not split at {iw}"]
        if cs.u_j != cs.u_j_prime | cs.u_j_dprime or cs.u_j_prime & cs.u_j_dprime:
            return [f"Levi-part sets do not split at {iw}"]
        if cs.u_w != cs.u_j | cs.n_j or cs.u_j & cs.n_j:
            return [f"cross-section does not split at {iw}"]
        if cs.u_w != cs.u_prime | cs.u_dprime or cs.u_prime & cs.u_dprime:
            return [f"prime splitting fails at {iw}"]
    return []


def _duality_checks(group: WeylGroup, I, J) -> list[str]:
    lab = group.datum.label_list
    om = opposition_map(group, I, J)
    reps = list(om.rep_map)
    images = list(om.rep_map.values())
    if len(set(images)) != len(images):
        return [f"opposition map is not injective for I={lab(I)}, J={lab(J)}"]
    target = frozenset(group.double_coset_reps(om.I_prime, J))
    if frozenset(images) != target:
        return [f"opposition map is not onto for I={lab(I)}, J={lab(J)}"]
    for u in reps:
        for v in reps:
            if group.bruhat_leq(u, v) and not group.bruhat_leq(om.rep_map[v], om.rep_map[u]):
                return [f"opposition map is not order-reversing at ({u}, {v})"]
    for w in reps:
        fm = om.fiber_maps[w]
        tgt_fiber = frozenset(
            v
            for v in group.parabolic_elements(J)
            if group.is_left_minimal(v, om.meets_prime[w])
        )
        if frozenset(fm.values()) != tgt_fiber or len(set(fm.values())) != len(fm):
            return [f"fiber opposition is not a bijection at {w}"]
        for a in fm:
            for b in fm:
                if group.bruhat_leq(a, b) and not group.bruhat_leq(fm[b], fm[a]):
                    return [f"fiber opposition is not order-reversing at {w}"]
    if not I and not J:
        for w, img in om.rep_map.items():
            if img != group.mul(group.inv(group.w0), w):
                return ["empty-subset opposition is not left multiplication by w0^{-1}"]
    return []


def _partition_checks(group: WeylGroup, I, J) -> list[str]:
    lab = group.datum.label_list
    om = opposition_map(group, I, J)
    table = double_coset_table(group, I, J)
    d_j, delta_j = _subset_d_delta(group, J)
    d_i, delta_i = _subset_d_delta(group, I)
    w_j0 = group.longest_in(J)
    for entry in table.entries:
        w = entry.rep
        w_prime = om.rep_map[w]
        d_meet, delta_meet = _subset_d_delta(group, entry.comeet)
        k_wj0 = group.mul(group.longest_in(entry.meet), w_j0)
        if d_j != (d_meet - d_i) + entry.d + group.d(w_prime):
            return [f"dimension partition identity fails at {w} for I={lab(I)}, J={lab(J)}"]
        lhs = delta_j
        rhs = vadd(
            vadd(group.inv(w).apply(vsub(delta_meet, delta_i)), entry.delta),
            k_wj0.apply(group.delta(w_prime)),
        )
        if lhs != rhs:
            return [f"character partition identity fails at {w} for I={lab(I)}, J={lab(J)}"]
    return []


def _filtration_checks(group: WeylGroup, I, J) -> list[str]:
    reps = group.double_coset_reps(I, J)
    poset = bruhat_poset(group, reps)
    for w in reps:
        if not check_lin_identity(poset, lambda x: x.length, w):
            return [f"length-filtration identity fails at {w}"]
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
        left_cache: dict[frozenset, list[str]] = {}
        for I in _subsets(datum.num_simple):
            left_cache[I] = _left_checks(group, I)
        for I in _subsets(datum.num_simple):
            for J in _subsets(datum.num_simple):
                issues = list(case_issues)
                issues += left_cache[I]
                if not issues:
                    issues += _double_checks(group, I, J)
                if not issues:
                    issues += _cross_section_checks(group, I, J)
                if not issues:
                    issues += _duality_checks(group, I, J)
                if not issues:
                    issues += _partition_checks(group, I, J)
                if not issues:
                    issues += _filtration_checks(group, I, J)
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
