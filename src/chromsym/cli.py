"""Command-line front door.

Subcommands:

* ``expand``      evaluate a family's closed-form expansion
* ``oracle``      brute-force X of a family instance or an edge-list file
* ``positivity``  report the minimum e-coefficient and the e-positivity verdict
* ``verify``      differential formula-vs-oracle sweep over a parameter grid
* ``list-families``

Exit codes: 0 success or all-pass, 1 verification mismatch, 2 usage error,
3 edge-budget exceeded, 4 internal error (an unexpected exception).
"""

from __future__ import annotations

import argparse
import sys

from .families import FAMILIES, Family, get_family, run_verification
from .graphs import parse_edge_list
from .oracle import DEFAULT_EDGE_BUDGET, EdgeBudgetError, csf_bruteforce
from .symfunc import ESymFunc

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

PARAM_FLAGS = ("n", "l", "a", "b", "c", "g", "h", "k")


class UsageError(Exception):
    pass


def _at_least(low: int):
    """An argparse type for an int of at least low, so that argparse rejects
    anything less as a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", help="family tag (see list-families)")
    for flag in PARAM_FLAGS:
        parser.add_argument(f"--{flag}", type=int, default=None)
    parser.add_argument("--parts", default=None,
                        help="comma-separated clique sizes (kchain only)")


def _family(tag: str) -> Family:
    try:
        return get_family(tag)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def _collect_params(args: argparse.Namespace) -> tuple[Family, dict]:
    if not args.family:
        raise UsageError("--family is required")
    fam = _family(args.family)
    params: dict = {}
    for flag in PARAM_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in fam.params:
            raise UsageError(f"family {fam.tag!r} takes no parameter --{flag}")
        params[flag] = value
    if args.parts is not None:
        if "parts" not in fam.params:
            raise UsageError(f"family {fam.tag!r} takes no parameter --parts")
        try:
            params["parts"] = tuple(int(p) for p in args.parts.split(","))
        except ValueError:
            raise UsageError(f"could not parse --parts {args.parts!r}") from None
    missing = [p for p in fam.params if p not in params]
    if missing:
        raise UsageError(
            f"family {fam.tag!r} needs --" + ", --".join(missing))
    return fam, params


def _render(f: ESymFunc, fmt: str) -> str:
    return f.to_json() if fmt == "structured" else f.to_text()


def _graph_input(args: argparse.Namespace):
    if args.graph is not None and args.family is not None:
        raise UsageError("give either --graph or --family, not both")
    if args.graph is not None:
        try:
            with open(args.graph) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.graph}: {exc}") from None
        try:
            return parse_edge_list(text)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    fam, params = _collect_params(args)
    try:
        return fam.build_graph(**params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _evaluate(args) -> ESymFunc:
    # a ValueError raised inside an evaluator is still taken for a rejected
    # parameter, since the families check their parameters there
    fam, params = _collect_params(args)
    try:
        return fam.evaluate(**params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_expand(args) -> int:
    f = _evaluate(args)
    print(_render(f, args.format))
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = _graph_input(args)
    f = csf_bruteforce(g, args.edge_budget)
    print(_render(f, args.format))
    return EXIT_OK


def cmd_positivity(args) -> int:
    if args.graph is not None:
        f = csf_bruteforce(_graph_input(args), args.edge_budget)
    elif args.family is not None:
        f = _evaluate(args)
    else:
        raise UsageError("give --graph or --family")
    worst = f.min_coefficient()
    if worst is None:
        print("e-positive (zero function)")
        return EXIT_OK
    coeff, key = worst
    where = f"min coeff {coeff} at e[{','.join(map(str, key))}]"
    print(f"e-positive ({where})" if f.is_e_positive()
          else f"NOT e-positive ({where})")
    return EXIT_OK


def cmd_verify(args) -> int:
    tags = sorted(FAMILIES) if args.family in (None, "all") else [args.family]
    for tag in tags:
        _family(tag)
    failures = 0
    skips = 0
    total = 0
    for tag in tags:
        for rec in run_verification(tag, args.max_n, args.edge_budget):
            total += 1
            label = " ".join(f"{k}={v}" for k, v in rec.params.items())
            if rec.status == "pass":
                print(f"PASS {tag} {label}")
            elif rec.status == "skip":
                skips += 1
                print(f"SKIP {tag} {label}: {rec.detail}")
            else:
                failures += 1
                print(f"FAIL {tag} {label}: {rec.detail}")
    print(f"{total} instances: {total - failures - skips} passed, "
          f"{failures} failed, {skips} skipped")
    return EXIT_MISMATCH if failures else EXIT_OK


def cmd_list_families(_args) -> int:
    width = max(len(tag) for tag in FAMILIES)
    for tag in sorted(FAMILIES):
        fam = FAMILIES[tag]
        flags = ", ".join(f"--{p}" for p in fam.params)
        print(f"{tag:<{width}}  ({flags})  {fam.summary}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromsym",
        description="Exact chromatic symmetric functions in the elementary basis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="evaluate a closed-form expansion")
    _add_family_flags(p_expand)
    p_expand.add_argument("--format", choices=("text", "structured"),
                          default="text")
    p_expand.set_defaults(func=cmd_expand)

    p_oracle = sub.add_parser("oracle", help="brute-force X of a graph")
    p_oracle.add_argument("--graph", help="edge-list file")
    _add_family_flags(p_oracle)
    p_oracle.add_argument("--format", choices=("text", "structured"),
                          default="text")
    p_oracle.add_argument("--edge-budget", type=_at_least(0),
                          default=DEFAULT_EDGE_BUDGET)
    p_oracle.set_defaults(func=cmd_oracle)

    p_pos = sub.add_parser("positivity", help="e-positivity verdict")
    p_pos.add_argument("--graph", help="edge-list file")
    _add_family_flags(p_pos)
    p_pos.add_argument("--edge-budget", type=_at_least(0),
                       default=DEFAULT_EDGE_BUDGET)
    p_pos.set_defaults(func=cmd_positivity)

    p_verify = sub.add_parser(
        "verify", help="formula-vs-oracle differential sweep")
    p_verify.add_argument("--family",
                          help="family tag, or 'all' for every family")
    p_verify.add_argument("--max-n", type=_at_least(1), required=True,
                          help="largest family size parameter n to test")
    p_verify.add_argument("--edge-budget", type=_at_least(0),
                          default=DEFAULT_EDGE_BUDGET)
    p_verify.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list-families", help="list known families")
    p_list.set_defaults(func=cmd_list_families)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EdgeBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
