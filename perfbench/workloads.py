"""The benchmark's workloads: seeded instance samplers and the CLI calls they make.

Each workload is a fixed list of ``chromsym`` invocations per round.  The
seed picks the parameter tuples; the graph order of every slot is fixed, so
that the work per round hardly depends on the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import checker

DEFAULT_SEED = 1
VERIFY_MAX_N = 9
VERIFY_EDGE_BUDGET = 24  # chromsym's default, which verify-n9 leaves in place

# order and family mix of each workload's slots
EXPAND_ORDER = 20
# x_kchain enumerates C(order + m - 2, m - 1) weak compositions for m cliques:
# 10 cliques at order 20 take half a minute and gigabytes, so expand-n20 draws
# chains of at most four cliques.
EXPAND_KCHAIN_MAX_PARTS = 4
SPARSE_ORDER = 15
SPARSE_FAMILIES = ("path", "cycle", "tadpole", "kayak", "tw-path")
DENSE_ORDER = 12
DENSE_FAMILIES = ("lollipop", "melting-lollipop", "kpk", "kkp", "kchain")
DENSE_PER_FAMILY = 2
DENSE_MAX_EDGES = 26


@dataclass(frozen=True)
class Invocation:
    """One ``chromsym`` command line; tag and params name the family instance, if any."""

    argv: tuple[str, ...]
    tag: str = ""
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    kind: str  # "expand", "oracle" or "verify"
    invocations: tuple[Invocation, ...]


def family_flags(params: dict) -> list[str]:
    out = []
    for key, value in params.items():
        text = ",".join(map(str, value)) if key == "parts" else str(value)
        out += [f"--{key}", text]
    return out


def _family_call(command: str, tag: str, params: dict, *extra: str) -> Invocation:
    argv = (command, "--family", tag, *family_flags(params), "--format", "structured", *extra)
    return Invocation(argv, tag, params)


def _expand_n20(rng: random.Random) -> Workload:
    calls = []
    for tag in sorted(checker.FAMILIES):
        choices = checker.FAMILIES[tag].domain(EXPAND_ORDER)
        if tag == "kchain":  # the domain lists chains by increasing clique count
            choices = itertools.takewhile(
                lambda p: len(p["parts"]) <= EXPAND_KCHAIN_MAX_PARTS, choices)
        calls.append(_family_call("expand", tag, rng.choice(list(choices))))
    return Workload("expand", tuple(calls))


def _connected(n: int, edges) -> bool:
    seen, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for a, b in edges:
            w = b if a == v else a if b == v else None
            if w is not None and w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def _uses_vertex_dp(order: int, n_edges: int) -> bool:
    """The oracle's route choice for a connected graph: 3^k against 4 * 2^E."""
    return 3 ** order <= 4 * 2 ** n_edges


def _oracle_sparse(rng: random.Random) -> Workload:
    calls = []
    for tag in SPARSE_FAMILIES:
        params = rng.choice(list(checker.FAMILIES[tag].domain(SPARSE_ORDER)))
        calls.append(_family_call("oracle", tag, params))
    return Workload("oracle", tuple(calls))


def _oracle_dense(rng: random.Random) -> Workload:
    calls = []
    for tag in DENSE_FAMILIES:
        choices = []
        for params in checker.FAMILIES[tag].domain(DENSE_ORDER):
            n, edges = checker.build(tag, params)
            if (len(edges) <= DENSE_MAX_EDGES and _uses_vertex_dp(n, len(edges))
                    and _connected(n, edges)):
                choices.append(params)
        for params in rng.sample(choices, DENSE_PER_FAMILY):
            calls.append(_family_call("oracle", tag, params,
                                      "--edge-budget", str(DENSE_MAX_EDGES)))
    return Workload("oracle", tuple(calls))


def _verify_n9(_rng: random.Random) -> Workload:
    argv = ("verify", "--family", "all", "--max-n", str(VERIFY_MAX_N))
    return Workload("verify", (Invocation(argv),))


BUILDERS = {
    "expand-n20": _expand_n20,
    "oracle-sparse": _oracle_sparse,
    "oracle-dense": _oracle_dense,
    "verify-n9": _verify_n9,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(seed))


def verify_expectation() -> dict[tuple[str, str], str]:
    """Expected verify-n9 line status per (family, parameter label), from the checker's grids."""
    out = {}
    for tag in checker.FAMILIES:
        for params in checker.verify_grid(tag, VERIFY_MAX_N):
            label = " ".join(f"{k}={v}" for k, v in params.items())
            n_edges = len(checker.build(tag, params)[1])
            out[(tag, label)] = "SKIP" if n_edges > VERIFY_EDGE_BUDGET else "PASS"
    return out
