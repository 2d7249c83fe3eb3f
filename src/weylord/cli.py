"""Command-line front end.

Verbs: info, cosets, bruhat, grading, ext, verify.  Exit status 1 flags bad
command lines or unparsable files, 2 flags domain errors (unknown labels,
inconsistent scenarios), 3 flags a verification divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DomainError, InputError
from .ext import ext1_verdict, extn_mode
from .fileio import load_datum, load_scenario
from .grading import ORD, JACQUET, SigmaDescriptor, full_profile, graded_terms
from .weyl import double_coset_table, weyl_group


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="weylord", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("info", help="summarise a datum file")
    p.add_argument("datum")

    p = sub.add_parser("cosets", help="minimal double-coset representatives")
    p.add_argument("datum")
    p.add_argument("--I", required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bruhat", help="Bruhat order queries")
    p.add_argument("datum")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true")
    mode.add_argument("--leq", nargs=2, metavar=("WORD", "WORD"))

    p = sub.add_parser("grading", help="graded pieces of the derived functors")
    p.add_argument("datum")
    p.add_argument("--I", required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--e", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--n", type=int)
    mode.add_argument("--profile", type=int)
    p.add_argument("--sigma", required=True, help="flags: supersingular, right_cuspidal, left_cuspidal, or none")
    p.add_argument("--side", choices=(ORD, JACQUET), default=ORD)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ext", help="extension verdict for a scenario file")
    p.add_argument("datum")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run the brute-force verification sweep")
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--types", default=None)
    return parser


def _subset_arg(datum, text: str):
    text = text.strip()
    if text == "" or text == "''":
        return frozenset()
    if text == "all":
        return frozenset(range(datum.num_simple))
    labels = [t for t in text.replace(",", " ").split() if t]
    return datum.subset(labels)


def _sigma_arg(text: str) -> SigmaDescriptor:
    flags = {t for t in text.replace(",", " ").split() if t}
    flags.discard("none")
    known = {"supersingular", "right_cuspidal", "left_cuspidal"}
    unknown = flags - known
    if unknown:
        raise InputError(f"unknown sigma flags: {sorted(unknown)}")
    return SigmaDescriptor(
        supersingular="supersingular" in flags,
        right_cuspidal="right_cuspidal" in flags,
        left_cuspidal="left_cuspidal" in flags,
    )


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


# -- verb implementations -----------------------------------------------------


def _cmd_info(args) -> int:
    datum = load_datum(args.datum)
    group = weyl_group(datum)
    flags = datum.isogeny_flags()
    print(f"name: {datum.name or '(unnamed)'}")
    print(f"rank: {datum.rank}   simple roots: {datum.num_simple}   split: {str(datum.split).lower()}")
    print(f"labels: {' '.join(datum.labels)}")
    print("cartan:")
    for row in datum.cartan:
        print("  [" + " ".join(f"{c:3d}" for c in row) + "]")
    print(f"multiplicities: {' '.join(str(m) for m in datum.multiplicity)}")
    print(f"reduced positive roots: {datum.num_positive}")
    print(f"weyl group order: {len(group)}   longest length: {group.w0.length}")
    print(f"fundamental weights exist: {str(flags.fundamental_weights_exist).lower()}")
    print(f"fundamental coweights exist: {str(flags.fundamental_coweights_exist).lower()}")
    return 0


def _coset_payload(datum, group, table) -> dict:
    return {
        "datum": datum.name,
        "I": datum.label_list(table.I),
        "J": datum.label_list(table.J),
        "reps": [
            {
                "word": str(e.rep),
                "length": e.rep.length,
                "d": e.d,
                "delta": list(e.delta),
                "meet": datum.label_list(e.meet),
                "comeet": datum.label_list(e.comeet),
                "fiber": [str(v) for v in group.fiber(table.J, e.meet)],
            }
            for e in table.entries
        ],
        "bruhat_leq": [list(row) for row in table.leq],
    }


def _cmd_cosets(args) -> int:
    datum = load_datum(args.datum)
    group = weyl_group(datum)
    I = _subset_arg(datum, args.I)
    J = _subset_arg(datum, args.J)
    table = double_coset_table(group, I, J)
    if args.json:
        _emit(_coset_payload(datum, group, table))
        return 0
    print(f"I = [{' '.join(datum.label_list(I))}]  J = [{' '.join(datum.label_list(J))}]  reps: {len(table.reps)}")
    width = max([len(str(e.rep)) for e in table.entries] + [4])
    print(f"{'rep':<{width}}  len  d  delta / meet / comeet / fiber-size")
    for e in table.entries:
        delta = "[" + ",".join(str(c) for c in e.delta) + "]"
        meet = " ".join(datum.label_list(e.meet)) or "-"
        comeet = " ".join(datum.label_list(e.comeet)) or "-"
        print(f"{str(e.rep):<{width}}  {e.rep.length:>3}  {e.d}  {delta} / {meet} / {comeet} / {len(group.fiber(J, e.meet))}")
    return 0


def _cmd_bruhat(args) -> int:
    datum = load_datum(args.datum)
    group = weyl_group(datum)
    if args.list:
        for w in group.elements:
            print(f"{w.length:>3}  {w}")
        return 0
    u = group.parse_word(args.leq[0])
    w = group.parse_word(args.leq[1])
    print("true" if group.bruhat_leq(u, w) else "false")
    return 0


def _term_payload(datum, t) -> dict:
    return {
        "conjugator": str(t.conjugator),
        "status": t.status.kind,
        "rule": t.status.rule,
        "reason": t.status.reason,
        "degree": t.degree,
        "inner_degree": t.inner_degree,
        "inducing": datum.label_list(t.inducing),
        "inner_levi": datum.label_list(t.inner_levi),
        "inner_subset": datum.label_list(t.inner_subset),
        "twist": list(t.twist),
        "side": t.side,
        "rendered": t.render(datum),
    }


def _cmd_grading(args) -> int:
    datum = load_datum(args.datum)
    I = _subset_arg(datum, args.I)
    J = _subset_arg(datum, args.J)
    sigma = _sigma_arg(args.sigma)
    base = {
        "datum": datum.name,
        "I": datum.label_list(I),
        "J": datum.label_list(J),
        "e": args.e,
        "side": args.side,
        "sigma": {
            "name": sigma.name,
            "supersingular": sigma.supersingular,
            "right_cuspidal": sigma.right_cuspidal,
            "left_cuspidal": sigma.left_cuspidal,
        },
    }
    if args.n is not None:
        terms = graded_terms(datum, I, J, args.e, args.n, sigma, side=args.side)
        if args.json:
            base["degree"] = args.n
            base["terms"] = [_term_payload(datum, t) for t in terms]
            _emit(base)
            return 0
        print(f"degree {args.n}  side {args.side}  I=[{' '.join(base['I'])}] J=[{' '.join(base['J'])}] e={args.e}")
        for t in terms:
            print("  " + t.render(datum, strict=args.strict))
        return 0
    report = full_profile(datum, I, J, args.e, sigma, n_max=args.profile, side=args.side)
    if args.json:
        base["max_degree"] = report.max_degree
        base["terms"] = {
            str(n): [_term_payload(datum, t) for t in terms]
            for n, terms in sorted(report.terms.items())
        }
        base["corollary_checks"] = dict(report.corollary_checks)
        _emit(base)
        return 0
    print(f"profile to degree {report.max_degree}  side {args.side}  I=[{' '.join(base['I'])}] J=[{' '.join(base['J'])}] e={args.e}")
    for n in sorted(report.terms):
        alive = report.surviving(n)
        print(f"degree {n}: {len(alive)} surviving term(s)")
        for t in report.terms[n]:
            print("  " + t.render(datum, strict=args.strict))
    for name, value in report.corollary_checks.items():
        shown = "n/a" if value is None else str(value).lower()
        print(f"check {name}: {shown}")
    return 0


def _cmd_ext(args) -> int:
    datum = load_datum(args.datum)
    scenario = load_scenario(args.scenario, datum)
    if args.n is None:
        verdict = ext1_verdict(scenario)
    else:
        verdict = extn_mode(scenario, args.n)
    if args.json:
        payload = verdict.to_dict()
        payload.update(
            {
                "datum": datum.name,
                "I": datum.label_list(scenario.I),
                "J": datum.label_list(scenario.J),
                "degree": 1 if args.n is None else args.n,
            }
        )
        _emit(payload)
        return 0
    print(f"verdict: {verdict.kind}" + (f" ({verdict.value})" if verdict.value is not None else ""))
    if verdict.description:
        print(f"  {verdict.description}")
    print("  conditional on: " + ("; ".join(verdict.conditional_on) or "-"))
    print("  citations: " + "; ".join(verdict.citations))
    for fact in verdict.side_facts:
        print(f"  note: {fact}")
    return 0


def _cmd_verify(args) -> int:
    # imported here: no other verb needs the oracle, and every call would compile it
    from .oracle import DEFAULT_TYPES, default_cases, sweep

    types = DEFAULT_TYPES if args.types is None else tuple(
        t for t in args.types.replace(",", " ").split() if t
    )
    cases = default_cases(types=types, max_rank=args.max_rank)
    if not cases:
        print("no cases selected")
        return 0
    reports = sweep(cases=cases)
    bad = [r for r in reports if not r.agreement]
    if not bad:
        print(f"all {len(reports)} cases agree")
        return 0
    print(f"{len(bad)} of {len(reports)} cases diverge:")
    for r in bad[:20]:
        print(f"  {r.case} I=[{' '.join(r.I)}] J=[{' '.join(r.J)}]: {r.first_divergence}")
    return 3


_VERBS = {
    "info": _cmd_info,
    "cosets": _cmd_cosets,
    "bruhat": _cmd_bruhat,
    "grading": _cmd_grading,
    "ext": _cmd_ext,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _VERBS[args.verb](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`): stop quietly, and send what
        # is still buffered to devnull so that the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main_entry()
