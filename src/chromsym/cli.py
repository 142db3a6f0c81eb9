"""Command-line front door: ``chromsym COMMAND [--flag value | --flag=value ...]``.

One table, COMMANDS, gives each command (expand, oracle, positivity, verify,
list-families) its handler, summary and flags.  One loop parses argv from it,
matching flags by their exact names, and ``-h`` prints help from it.

Exit codes: 0 success or all-pass, 1 verification mismatch, 2 usage error
(a bad flag, an unreadable edge list, or family parameters out of range, which
the families raise as ParameterError), 3 input too large (past the edge
budget, 65536 vertices, a component of 256 vertices, 255 equal parts, 2^20
expansion terms or kernel moves, or a coefficient with more digits than
Python converts to text, 4300 by default), 4 internal error, including any
other ValueError.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .compositions import ParameterError
from .families import FAMILIES, Family, get_family, run_verification
from .graphs import parse_edge_list
from .oracle import DEFAULT_EDGE_BUDGET, EdgeBudgetError, csf_bruteforce
from .symfunc import ESymFunc, OrderLimitError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

PARAM_FLAGS = ("n", "l", "a", "b", "c", "g", "h", "k")


class UsageError(Exception):
    pass


def _family(tag: str) -> Family:
    try:
        return get_family(tag)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def _collect_params(args: SimpleNamespace) -> tuple[Family, dict]:
    if not args.family:
        raise UsageError("--family is required")
    fam = _family(args.family)
    params: dict = {}
    for flag in (*PARAM_FLAGS, "parts"):
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in fam.params:
            raise UsageError(f"family {fam.tag!r} takes no parameter --{flag}")
        params[flag] = value
    if "parts" in params:
        try:
            params["parts"] = tuple(int(p) for p in args.parts.split(","))
        except ValueError:
            raise UsageError(f"could not parse --parts {args.parts!r}") from None
    missing = [p for p in fam.params if p not in params]
    if missing:
        raise UsageError(f"family {fam.tag!r} needs --" + ", --".join(missing))
    return fam, params


def _check_digits(coefficients) -> None:
    """Raise OrderLimitError if an int coefficient has more decimal digits than
    Python converts to text (sys.get_int_max_str_digits(), 0 for no limit);
    one of at most 3 * limit bits is below 8^limit, so needs no 10^limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    top = max(map(abs, coefficients), default=0)
    if limit and top.bit_length() > 3 * limit and top >= 10 ** limit:
        raise OrderLimitError(f"a coefficient has more than {limit} digits, past Python's limit "
                              "for converting an integer to text")


def _render(f: ESymFunc, fmt: str) -> str:
    _check_digits(f.terms.values())
    return f.to_json() if fmt == "structured" else f.to_text()


def _graph_input(args: SimpleNamespace):
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
    except ParameterError as exc:
        raise UsageError(str(exc)) from None


def _evaluate(args) -> ESymFunc:
    fam, params = _collect_params(args)
    try:
        return fam.evaluate(**params)
    except ParameterError as exc:
        raise UsageError(str(exc)) from None


def cmd_expand(args) -> int:
    print(_render(_evaluate(args), args.format))
    return EXIT_OK


def cmd_oracle(args) -> int:
    print(_render(csf_bruteforce(_graph_input(args), args.edge_budget), args.format))
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
    _check_digits((coeff,))
    where = f"min coeff {coeff} at e[{','.join(map(str, key))}]"
    print(f"e-positive ({where})" if f.is_e_positive() else f"NOT e-positive ({where})")
    return EXIT_OK


def cmd_verify(args) -> int:
    tags = sorted(FAMILIES) if args.family in (None, "all") else [args.family]
    for tag in tags:
        _family(tag)
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for tag in tags:
        for rec in run_verification(tag, args.max_n, args.edge_budget):
            counts[rec.status] += 1
            label = " ".join(f"{k}={v}" for k, v in rec.params.items())
            detail = "" if rec.status == "pass" else f": {rec.detail}"
            print(f"{rec.status.upper()} {tag} {label}{detail}")
    print(f"{sum(counts.values())} instances: {counts['pass']} passed, "
          f"{counts['fail']} failed, {counts['skip']} skipped")
    return EXIT_MISMATCH if counts["fail"] else EXIT_OK


def cmd_list_families(_args) -> int:
    width = max(len(tag) for tag in FAMILIES)
    for tag in sorted(FAMILIES):
        fam = FAMILIES[tag]
        flags = ", ".join(f"--{p}" for p in fam.params)
        print(f"{tag:<{width}}  ({flags})  {fam.summary}")
    return EXIT_OK


# flag -> (kind, default, help).  A flag's one value is read by kind: str takes
# any text, a tuple one of its items, int any int, an int any int at least it.
REQUIRED = object()
FLAGS = {
    "graph": (str, None, "edge-list file"),
    "family": (str, None, "family tag (see list-families); verify also takes all"),
    **{p: (int, None, "family parameter") for p in PARAM_FLAGS},
    "parts": (str, None, "comma-separated clique sizes (kchain only)"),
    "format": (("text", "structured"), "text", "text or structured (default text)"),
    "edge-budget": (0, DEFAULT_EDGE_BUDGET,
                    f"most edges to brute-force (default {DEFAULT_EDGE_BUDGET})"),
    "max-n": (1, REQUIRED, "largest family size parameter n to test (required)"),
}
FAMILY_FLAGS = ("family", *PARAM_FLAGS, "parts")
COMMANDS = {  # command -> (handler, summary, flags)
    "expand": (cmd_expand, "evaluate a closed-form expansion", (*FAMILY_FLAGS, "format")),
    "oracle": (cmd_oracle, "brute-force X of a graph",
               ("graph", *FAMILY_FLAGS, "format", "edge-budget")),
    "positivity": (cmd_positivity, "e-positivity verdict",
                   ("graph", *FAMILY_FLAGS, "edge-budget")),
    "verify": (cmd_verify, "formula-vs-oracle differential sweep",
               ("family", "max-n", "edge-budget")),
    "list-families": (cmd_list_families, "list known families", ()),
}


def _help(command: str | None) -> str:
    """Usage text of chromsym, listing the commands, or of a command, its flags."""
    if command is None:
        title = "Exact chromatic symmetric functions in the elementary basis."
        rows = [(name, summary) for name, (_, summary, _) in COMMANDS.items()]
    else:
        _, title, flags = COMMANDS[command]
        rows = [(f"--{flag} " + ("TEXT" if kind is str or isinstance(kind, tuple) else "INT"),
                 text) for flag in flags for kind, _, text in [FLAGS[flag]]]
    return "\n".join([f"usage: chromsym {command or 'COMMAND'} [--flag value | --flag=value ...]",
                      "", title, ""] + [f"  {left:<18} {right}" for left, right in rows])


def _read(flag: str, text: str):
    kind = FLAGS[flag][0]
    if kind is str or isinstance(kind, tuple) and text in kind:
        return text
    if isinstance(kind, tuple):
        raise UsageError(f"--{flag}: must be one of {', '.join(kind)}, got {text!r}")
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"--{flag}: not an integer: {text!r}") from None
    if kind is not int and value < kind:
        raise UsageError(f"--{flag}: must be at least {kind}, got {value}")
    return value


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The flags of argv's command, each named with _ for -, and its handler as
    func; None when argv asks for help, which is printed here."""
    command, *rest = argv or [""]
    if command in ("-h", "--help"):
        print(_help(None))
        return None
    if command not in COMMANDS:
        raise UsageError(f"expected a command ({', '.join(COMMANDS)}), got {command!r}")
    func, _, flags = COMMANDS[command]
    values = {flag: FLAGS[flag][1] for flag in flags}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            print(_help(command))
            return None
        flag, eq, text = token[2:].partition("=")
        if not token.startswith("--") or flag not in values:
            raise UsageError(f"{command} takes no argument {token.split('=')[0]!r}")
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise UsageError(f"--{flag} needs a value")
        values[flag] = _read(flag, text)
    missing = [f"--{flag}" for flag, value in values.items() if value is REQUIRED]
    if missing:
        raise UsageError(f"{command} needs " + ", ".join(missing))
    return SimpleNamespace(func=func, **{f.replace("-", "_"): v for f, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return EXIT_OK if args is None else args.func(args)
    except (UsageError, EdgeBudgetError, OrderLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_BUDGET
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
