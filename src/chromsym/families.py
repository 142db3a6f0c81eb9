"""Registry of graph families: evaluators, constructors, and verification grids.

Each family ties together a closed-form evaluator, the matching graph
constructor, its parameter ranges, and a grid enumerator.  A grid is indexed
by the family's own size parameter n (the homogeneous degree of the
expansion for the plain chains; the size of the untwinned base graph for the
twinned path and cycle), so ``grid(max_n)`` yields every admissible
parameter tuple with n <= max_n in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from . import formulas, graphs
from .compositions import compositions_min2
from .graphs import Graph
from .oracle import DEFAULT_EDGE_BUDGET, EdgeBudgetError, csf_bruteforce
from .symfunc import ESymFunc

Params = dict[str, int]


@dataclass(frozen=True)
class Family:
    tag: str
    params: tuple[str, ...]
    summary: str
    evaluate: Callable[..., ESymFunc]
    build_graph: Callable[..., Graph]
    grid: Callable[[int], Iterator[Params]]


def _grid_path(max_n: int) -> Iterator[Params]:
    for n in range(1, max_n + 1):
        yield {"n": n}


def _grid_cycle(max_n: int) -> Iterator[Params]:
    for n in range(3, max_n + 1):
        yield {"n": n}


def _grid_kchain(max_n: int) -> Iterator[Params]:
    for n in range(2, max_n + 1):
        for parts in compositions_min2(n):
            yield {"parts": parts}


def _grid_lollipop(max_n: int) -> Iterator[Params]:
    for a in range(2, max_n + 1):
        for l in range(max_n - a + 1):
            yield {"a": a, "l": l}


def _grid_melting(max_n: int) -> Iterator[Params]:
    for a in range(2, max_n + 1):
        for l in range(max_n - a + 1):
            for k in range(a):
                yield {"a": a, "l": l, "k": k}


def _grid_kpk(max_n: int) -> Iterator[Params]:
    for a in range(1, max_n + 1):
        for b in range(1, max_n + 2 - a):
            for l in range(max_n + 2 - a - b):
                yield {"a": a, "b": b, "l": l}


def _grid_kpk_b3(max_n: int) -> Iterator[Params]:
    for a in range(3, max_n - 1):
        for l in range(max_n - a - 1):
            yield {"a": a, "l": l}


def _grid_pkp(max_n: int) -> Iterator[Params]:
    for g in range(max_n - 1):
        for a in range(2, max_n + 1 - g):
            for h in range(max_n + 1 - g - a):
                yield {"g": g, "a": a, "h": h}


def _grid_kkp(max_n: int) -> Iterator[Params]:
    for a in range(1, max_n + 1):
        for b in range(2, max_n + 2 - a):
            for h in range(max_n + 2 - a - b):
                yield {"a": a, "b": b, "h": h}


def _grid_kpc(max_n: int) -> Iterator[Params]:
    for a in range(1, max_n + 1):
        for l in range(max_n - a):
            for c in range(3, max_n + 2 - a - l):
                yield {"a": a, "l": l, "c": c}


def _grid_tadpole(max_n: int) -> Iterator[Params]:
    for c in range(3, max_n + 1):
        for l in range(max_n - c + 1):
            yield {"c": c, "l": l}


def _grid_kpkp(max_n: int) -> Iterator[Params]:
    for a in range(1, max_n + 1):
        for g in range(max_n + 1 - a):
            for b in range(2, max_n + 2 - a - g):
                for h in range(max_n + 2 - a - g - b):
                    yield {"a": a, "g": g, "b": b, "h": h}


def _grid_kpkp_b3(max_n: int) -> Iterator[Params]:
    for a in range(1, max_n - 1):
        for g in range(max_n - 1 - a):
            for h in range(max_n - 1 - a - g):
                yield {"a": a, "g": g, "h": h}


def _grid_tw_path(max_n: int) -> Iterator[Params]:
    for n in range(3, max_n + 1):
        for l in range(2, n):
            yield {"n": n, "l": l}


def _grid_tw_cycle(max_n: int) -> Iterator[Params]:
    for n in range(3, max_n + 1):
        yield {"n": n}


def _grid_tw_lollipop(max_n: int) -> Iterator[Params]:
    for a in range(1, max_n - 2):
        for l in range(2, max_n - a):
            for h in range(1, l):
                yield {"a": a, "l": l, "h": h}


def _grid_kayak(max_n: int) -> Iterator[Params]:
    for a in range(3, max_n + 1):
        for b in range(3, max_n + 2 - a):
            for l in range(max_n + 2 - a - b):
                yield {"a": a, "b": b, "l": l}


def _grid_infinity(max_n: int) -> Iterator[Params]:
    for a in range(3, max_n + 1):
        for b in range(3, max_n + 2 - a):
            yield {"a": a, "b": b}


FAMILIES: dict[str, Family] = {
    f.tag: f for f in [
        Family("path", ("n",), "path on n vertices",
               formulas.x_path, graphs.path, _grid_path),
        Family("cycle", ("n",), "cycle on n vertices",
               formulas.x_cycle, graphs.cycle, _grid_cycle),
        Family("kchain", ("parts",), "chain of cliques sized by a composition (parts >= 2)",
               formulas.x_kchain, graphs.k_chain, _grid_kchain),
        Family("lollipop", ("a", "l"), "clique K_a with a pendant path of length l",
               formulas.x_lollipop, graphs.lollipop, _grid_lollipop),
        Family("melting-lollipop", ("a", "l", "k"),
               "lollipop with k clique edges removed at the center",
               formulas.x_melting_lollipop, graphs.melting_lollipop, _grid_melting),
        Family("kpk", ("a", "b", "l"), "cliques K_a and K_b joined by a path of length l",
               formulas.x_kpk, graphs.kpk, _grid_kpk),
        Family("kpk-b3", ("a", "l"), "K_a joined to a triangle by a path (condensed form)",
               formulas.x_kpk_b3, lambda a, l: graphs.kpk(a, 3, l), _grid_kpk_b3),
        Family("pkp", ("g", "a", "h"), "clique K_a with pendant paths of lengths g and h",
               formulas.x_pkp, graphs.pkp, _grid_pkp),
        Family("kkp", ("a", "b", "h"), "cliques K_a + K_b with a pendant path of length h",
               formulas.x_kkp, graphs.kkp, _grid_kkp),
        Family("kpc", ("a", "l", "c"), "clique K_a joined to a cycle C_c by a path of length l",
               formulas.x_kpc, graphs.kpc, _grid_kpc),
        Family("tadpole", ("c", "l"), "cycle C_c with a pendant path of length l",
               formulas.x_tadpole, graphs.tadpole, _grid_tadpole),
        Family("kpkp", ("a", "g", "b", "h"),
               "chain K_a + path(g) + K_b + path(h)",
               formulas.x_kpkp, graphs.kpkp, _grid_kpkp),
        Family("kpkp-b3", ("a", "g", "h"),
               "chain K_a + path(g) + K_3 + path(h) (condensed form)",
               formulas.x_kpkp_b3, lambda a, g, h: graphs.kpkp(a, g, 3, h),
               _grid_kpkp_b3),
        Family("tw-path", ("n", "l"), "path on n vertices twinned at vertex l",
               formulas.x_tw_path, graphs.tw_path, _grid_tw_path),
        Family("tw-cycle", ("n",), "cycle on n vertices twinned at a vertex",
               formulas.x_tw_cycle, graphs.tw_cycle, _grid_tw_cycle),
        Family("tw-lollipop", ("a", "l", "h"),
               "lollipop twinned at the path vertex at distance h from the leaf",
               formulas.x_tw_lollipop, graphs.tw_lollipop, _grid_tw_lollipop),
        Family("kayak", ("a", "b", "l"),
               "cycles C_a and C_b joined by a path of length l",
               formulas.x_kayak, graphs.kayak, _grid_kayak),
        Family("infinity", ("a", "b"), "cycles C_a and C_b sharing a vertex",
               formulas.x_infinity, graphs.infinity, _grid_infinity),
    ]
}


def get_family(tag: str) -> Family:
    if tag not in FAMILIES:
        raise KeyError(
            f"unknown family {tag!r}; known: {', '.join(sorted(FAMILIES))}")
    return FAMILIES[tag]


@dataclass(frozen=True)
class VerifyRecord:
    tag: str
    params: Params
    status: str  # "pass", "fail" or "skip"
    detail: str = ""


def run_verification(tag: str, max_n: int,
                     edge_budget: int = DEFAULT_EDGE_BUDGET) -> Iterator[VerifyRecord]:
    """Differential check of a family's evaluator against the brute-force oracle.

    Instances whose graphs exceed the edge budget are reported as skips.
    """
    fam = get_family(tag)
    for params in fam.grid(max_n):
        g = fam.build_graph(**params)
        try:
            expected = csf_bruteforce(g, edge_budget)
        except EdgeBudgetError as exc:
            yield VerifyRecord(tag, params, "skip", str(exc))
            continue
        actual = fam.evaluate(**params)
        if actual == expected:
            yield VerifyRecord(tag, params, "pass")
        else:
            yield VerifyRecord(
                tag, params, "fail",
                f"formula {actual.to_text()} != oracle {expected.to_text()}")
