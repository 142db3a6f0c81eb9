"""Registry of graph families: evaluators, constructors, and verification grids.

Each family ties together a closed-form evaluator, the matching graph
constructor, its parameter names, and a grid enumerator.  A grid is indexed
by the family's own size parameter n (the order of the graph; the order of
the untwinned base graph for the twinned path and cycle), so ``grid(max_n)``
yields every admissible parameter tuple with n <= max_n in lexicographic
order.  For every family but the clique chain, n is the sum of the
parameters plus a fixed offset, and the admissible tuples are those with
each parameter at least its lower bound; melting and twinned lollipops and
twinned paths add one last parameter whose range depends on the others.
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


def _grid_kchain(max_n: int) -> Iterator[Params]:
    for n in range(2, max_n + 1):
        for parts in compositions_min2(n):
            yield {"parts": parts}


def _family(tag: str, params: str, summary: str, evaluate: Callable[..., ESymFunc],
            build_graph: Callable[..., Graph], lows: tuple[int, ...], offset: int,
            last: Callable[..., range] | None = None) -> Family:
    """A family whose grid bounds its parameters below by lows and their sum by max_n - offset.

    ``last``, if given, maps the bounded parameters to the range of one more,
    dependent, parameter that comes after them.
    """
    names = tuple(params.split())

    def grid(max_n: int) -> Iterator[Params]:
        rows: list[tuple[int, ...]] = [()]
        for i, low in enumerate(lows):
            top = max_n - offset - sum(lows[i + 1:])
            rows = [row + (v,) for row in rows for v in range(low, top - sum(row) + 1)]
        if last is not None:
            rows = [row + (v,) for row in rows for v in last(*row)]
        return (dict(zip(names, row)) for row in rows)
    return Family(tag, names, summary, evaluate, build_graph, grid)


FAMILIES: dict[str, Family] = {
    f.tag: f for f in [
        _family("path", "n", "path on n vertices",
                formulas.x_path, graphs.path, (1,), 0),
        _family("cycle", "n", "cycle on n vertices",
                formulas.x_cycle, graphs.cycle, (3,), 0),
        Family("kchain", ("parts",), "chain of cliques sized by a composition (parts >= 2)",
               formulas.x_kchain, graphs.k_chain, _grid_kchain),
        _family("lollipop", "a l", "clique K_a with a pendant path of length l",
                formulas.x_lollipop, graphs.lollipop, (2, 0), 0),
        _family("melting-lollipop", "a l k",
                "lollipop with k clique edges removed at the center",
                formulas.x_melting_lollipop, graphs.melting_lollipop, (2, 0), 0,
                lambda a, l: range(a)),
        _family("kpk", "a b l", "cliques K_a and K_b joined by a path of length l",
                formulas.x_kpk, graphs.kpk, (1, 1, 0), -1),
        _family("kpk-b3", "a l", "K_a joined to a triangle by a path",
                formulas.x_kpk_b3, graphs.kpk_b3, (3, 0), 2),
        _family("pkp", "g a h", "clique K_a with pendant paths of lengths g and h",
                formulas.x_pkp, graphs.pkp, (0, 2, 0), 0),
        _family("kkp", "a b h", "cliques K_a + K_b with a pendant path of length h",
                formulas.x_kkp, graphs.kkp, (1, 2, 0), -1),
        _family("kpc", "a l c", "clique K_a joined to a cycle C_c by a path of length l",
                formulas.x_kpc, graphs.kpc, (1, 0, 3), -1),
        _family("tadpole", "c l", "cycle C_c with a pendant path of length l",
                formulas.x_tadpole, graphs.tadpole, (3, 0), 0),
        _family("kpkp", "a g b h", "chain K_a + path(g) + K_b + path(h)",
                formulas.x_kpkp, graphs.kpkp, (1, 0, 2, 0), -1),
        _family("kpkp-b3", "a g h", "chain K_a + path(g) + K_3 + path(h)",
                formulas.x_kpkp_b3, graphs.kpkp_b3, (1, 0, 0), 2),
        _family("tw-path", "n l", "path on n vertices twinned at vertex l",
                formulas.x_tw_path, graphs.tw_path, (3,), 0, lambda n: range(2, n)),
        _family("tw-cycle", "n", "cycle on n vertices twinned at a vertex",
                formulas.x_tw_cycle, graphs.tw_cycle, (3,), 0),
        _family("tw-lollipop", "a l h",
                "lollipop twinned at the path vertex at distance h from the leaf",
                formulas.x_tw_lollipop, graphs.tw_lollipop, (1, 2), 1, lambda a, l: range(1, l)),
        _family("kayak", "a b l", "cycles C_a and C_b joined by a path of length l",
                formulas.x_kayak, graphs.kayak, (3, 3, 0), -1),
        _family("infinity", "a b", "cycles C_a and C_b sharing a vertex",
                formulas.x_infinity, graphs.infinity, (3, 3), -1),
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

    Instances whose graphs exceed the edge budget are reported as skips.  A
    special case met before as its general form reuses that form's expansion
    and graph (see :mod:`~chromsym.formulas`), and the oracle's result.
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
